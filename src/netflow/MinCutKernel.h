//===- netflow/MinCutKernel.h - Compiled min-cut for one network -*- C++ -*-=//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A min-cut solver compiled once for a FlowNetwork and then solved at
/// many parameter points. The parametric algorithm solves the same
/// network at every vertex of every candidate region, so everything that
/// does not depend on the point is built up front:
///
///  - the residual topology in CSR form (a forward and a reverse edge per
///    arc, adjacency in arc order, and an arc -> forward-edge map);
///  - each finite capacity as a row of int64 coefficients over one
///    network-wide positive denominator.
///
/// At a point, the coordinates are brought to a common denominator and
/// every capacity is evaluated in checked __int128 arithmetic. Dinic then
/// runs in __int128 on the CSR arrays. When a value overflows (or the
/// residual bound below fails), the point takes the exact tier instead:
/// Rational evaluation and a BigInt Dinic on the same CSR arrays.
///
/// Both tiers scale every capacity by one positive constant, which
/// changes no zero test or comparison of the max-flow, so they return the
/// same canonical minimal source side (the residual-reachable set is
/// unique across all maximum flows).
///
//===----------------------------------------------------------------------===//

#ifndef PACO_NETFLOW_MINCUTKERNEL_H
#define PACO_NETFLOW_MINCUTKERNEL_H

#include "netflow/FlowNetwork.h"

#include <optional>

namespace paco {

class MinCutKernel {
public:
  /// Compiles \p Net, which must outlive the kernel and stay unchanged.
  explicit MinCutKernel(const FlowNetwork &Net);

  MinCutKernel(const MinCutKernel &) = delete;
  MinCutKernel &operator=(const MinCutKernel &) = delete;

  /// Minimum s-t cut at \p Point (one Rational per parameter, monomial
  /// slots filled). \returns std::nullopt, without solving, when some
  /// finite capacity is negative at \p Point. \p ForceBigInt skips the
  /// machine tier.
  std::optional<CutStructure> solve(const std::vector<Rational> &Point,
                                    bool ForceBigInt = false);

  /// True when some capacity coefficient does not fit the integer rows,
  /// so every point takes the exact tier.
  bool exactOnly() const { return ExactOnly; }

private:
  enum class Eval { Ok, Negative, Overflow };

  /// Fills Res128 with the capacities at \p Point, scaled by the network
  /// and point denominators.
  Eval evaluateMachine(const std::vector<Rational> &Point);
  /// Fills ResBig with exactly evaluated, denominator-cleared capacities.
  Eval evaluateExact(const std::vector<Rational> &Point);

  template <typename CapT> void maxFlow(std::vector<CapT> &Res);
  template <typename CapT> bool buildLevels(const std::vector<CapT> &Res);
  template <typename CapT>
  CapT augment(std::vector<CapT> &Res, unsigned Node, const CapT &Limit);
  template <typename CapT>
  std::vector<bool> residualReachable(const std::vector<CapT> &Res);

  const FlowNetwork &Net;

  // CSR residual topology: node N's edges are [EdgeBegin[N],
  // EdgeBegin[N + 1]).
  std::vector<unsigned> EdgeBegin;
  std::vector<unsigned> EdgeTo;
  std::vector<unsigned> EdgeRev;
  /// Forward edge of each arc.
  std::vector<unsigned> ArcEdge;
  std::vector<unsigned> InfiniteArcs;

  // Capacity rows: finite arc A is (RowConst[A] + sum over
  // [RowBegin[A], RowBegin[A + 1]) of TermCoeff * x[TermCol]) / D for
  // one network-wide D > 0. Infinite arcs have empty rows.
  bool ExactOnly = false;
  std::vector<ParamId> Cols;
  std::vector<int64_t> RowConst;
  std::vector<unsigned> RowBegin;
  std::vector<unsigned> TermCol;
  std::vector<int64_t> TermCoeff;

  // Per-point scratch, reused across solves.
  std::vector<__int128> ColNum;
  std::vector<__int128> Res128;
  std::vector<BigInt> ResBig;
  std::vector<int> Level;
  std::vector<unsigned> Iter;
  std::vector<unsigned> Queue;
};

} // namespace paco

#endif // PACO_NETFLOW_MINCUTKERNEL_H
