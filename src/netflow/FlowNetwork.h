//===- netflow/FlowNetwork.h - Parametric-capacity flow networks -*- C++ -*-=//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-source single-sink flow networks whose arc capacities are affine
/// functions of the run-time parameters (or infinite). The partitioning
/// reduction (paper Theorem 1) produces such a network; the parametric
/// algorithm evaluates it at concrete parameter points and solves min-cut.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_NETFLOW_FLOWNETWORK_H
#define PACO_NETFLOW_FLOWNETWORK_H

#include "support/LinExpr.h"

#include <map>
#include <string>
#include <vector>

namespace paco {

/// Index of a node within a FlowNetwork.
using NodeId = unsigned;

/// An arc capacity: either +infinity (used for hard constraints) or an
/// affine function of the parameters.
struct Capacity {
  bool Infinite = false;
  LinExpr Expr;

  static Capacity infinite() {
    Capacity C;
    C.Infinite = true;
    return C;
  }
  static Capacity finite(LinExpr E) {
    Capacity C;
    C.Expr = std::move(E);
    return C;
  }

  /// Adds another capacity (infinity absorbs).
  void accumulate(const Capacity &Other);
};

/// A directed arc with a parametric capacity.
struct Arc {
  NodeId From;
  NodeId To;
  Capacity Cap;
};

/// A directed flow network with distinguished source and sink.
///
/// Parallel arcs are merged on insertion (capacities add; infinity
/// absorbs), which keeps the Theorem-1 reduction simple: each cost term
/// just calls addArc.
class FlowNetwork {
public:
  FlowNetwork() {
    Source = addNode("s");
    Sink = addNode("t");
  }

  NodeId addNode(std::string Label);

  NodeId source() const { return Source; }
  NodeId sink() const { return Sink; }

  unsigned numNodes() const { return static_cast<unsigned>(Labels.size()); }
  unsigned numArcs() const { return static_cast<unsigned>(Arcs.size()); }

  const std::string &label(NodeId N) const { return Labels[N]; }
  const std::vector<Arc> &arcs() const { return Arcs; }

  /// Adds (or merges into an existing) arc From -> To. Self-arcs are
  /// ignored; zero finite capacities are ignored.
  void addArc(NodeId From, NodeId To, Capacity Cap);

  /// Renders "from -> to [cap]" per line, for tests and debugging.
  std::string dump(const ParamSpace &Space) const;

private:
  NodeId Source = 0;
  NodeId Sink = 0;
  std::vector<std::string> Labels;
  std::vector<Arc> Arcs;
  std::map<std::pair<NodeId, NodeId>, unsigned> ArcIndex;
};

/// Result of a min-cut computation at a concrete parameter point.
struct CutResult {
  /// Per node: true if the node lies on the source side S (term value 1).
  std::vector<bool> SourceSide;
  /// Indices (into FlowNetwork::arcs()) of arcs crossing S -> T.
  std::vector<unsigned> CutArcs;
  /// Parametric value of this cut: the sum of crossing-arc capacities.
  LinExpr Value;
  /// False if an infinite arc crosses the cut (the instance admits no
  /// finite cut -- a modeling error for Theorem-1 networks).
  bool Finite = true;

  bool operator==(const CutResult &RHS) const {
    return SourceSide == RHS.SourceSide;
  }
};

/// Combinatorial part of a min cut: the source side and crossing arcs,
/// without the parametric value (which callers that memoize cuts by
/// signature only want to build once per distinct cut).
struct CutStructure {
  std::vector<bool> SourceSide;
  std::vector<unsigned> CutArcs;
  bool Finite = true;
  /// True if the machine (checked __int128) tier produced this cut; false
  /// when the capacities forced (or the caller requested) the BigInt tier.
  bool UsedFastPath = false;
};

/// Computes a minimum s-t cut of \p Net with capacities evaluated at
/// \p Point, returning only the cut structure. A one-shot MinCutKernel
/// (netflow/MinCutKernel.h): when every capacity and every intermediate
/// residual value fits comfortably in __int128, the augmentation runs in
/// machine arithmetic; otherwise -- or when \p ForceBigInt is set -- it
/// falls back to exact BigInt arithmetic. Both tiers return the identical
/// canonical minimal source side (the residual-reachable set is unique
/// across all maximum flows). Callers that solve one network at many
/// points should keep a MinCutKernel instead.
CutStructure solveMinCutStructure(const FlowNetwork &Net,
                                  const std::vector<Rational> &Point,
                                  bool ForceBigInt = false);

/// Computes a minimum s-t cut of \p Net with capacities evaluated at
/// \p Point (one Rational per parameter; use ParamSpace::extendPoint to
/// fill monomial slots). Capacities must evaluate to non-negative values.
///
/// The returned source side is the set of nodes reachable from the source
/// in the final residual graph (the canonical minimal source side).
CutResult solveMinCut(const FlowNetwork &Net,
                      const std::vector<Rational> &Point);

/// \returns true if affine \p A >= \p B for every parameter point in the
/// bounding box recorded in \p Space (checked via interval arithmetic on
/// the difference).
bool alwaysGE(const LinExpr &A, const LinExpr &B, const ParamSpace &Space);

/// Result of the paper's flow-network simplification (section 5.4).
struct SimplifiedNetwork {
  FlowNetwork Net;
  /// Maps each node of the original network to its merged representative
  /// in Net.
  std::vector<NodeId> NodeMap;
};

/// Applies the paper's merge heuristic until fixpoint: nodes ni, nj are
/// merged when the arc ni->nj dominates all other out-arcs of nj and the
/// arc nj->ni dominates all other in-arcs of nj (both over the whole
/// parameter box), since then a cut never benefits from separating them.
/// The source and sink are never merged with each other.
SimplifiedNetwork simplifyNetwork(const FlowNetwork &Net,
                                  const ParamSpace &Space);

} // namespace paco

#endif // PACO_NETFLOW_FLOWNETWORK_H
