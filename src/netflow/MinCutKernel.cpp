//===- netflow/MinCutKernel.cpp - Compiled min-cut for one network --------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "netflow/MinCutKernel.h"

#include "obs/Stats.h"

#include <algorithm>
#include <utility>

using namespace paco;

namespace {
// Registered at static-init time (single-threaded) so the registry's
// registration order -- and therefore snapshot emission order -- stays
// deterministic even though first solves race across pool threads.
obs::Counter &Solves = obs::StatsRegistry::global().counter("netflow.solves");
obs::Counter &FastSolves =
    obs::StatsRegistry::global().counter("netflow.fast_path_solves");
obs::Counter &BigSolves =
    obs::StatsRegistry::global().counter("netflow.bigint_solves");
obs::Counter &KernelBuilds =
    obs::StatsRegistry::global().counter("netflow.kernel_builds");

constexpr __int128 Int128Max =
    static_cast<__int128>(~static_cast<unsigned __int128>(0) >> 1);

/// Capacity-type policy: how each tier represents the "unbounded"
/// augmentation limit. __int128 uses its maximum, which exceeds every
/// residual capacity on the machine tier, so min() leaves it intact
/// exactly like the BigInt -1 sentinel.
template <typename CapT> struct CapOps;

template <> struct CapOps<__int128> {
  static __int128 unbounded() { return Int128Max; }
  static bool isUnbounded(__int128 C) { return C == Int128Max; }
  static bool isZero(__int128 C) { return C == 0; }
};

template <> struct CapOps<BigInt> {
  static BigInt unbounded() { return BigInt(-1); }
  static bool isUnbounded(const BigInt &C) { return C.isNegative(); }
  static bool isZero(const BigInt &C) { return C.isZero(); }
};

/// gcd of a positive \p A and a positive \p B.
unsigned __int128 gcd128(unsigned __int128 A, unsigned __int128 B) {
  while (B != 0)
    A = std::exchange(B, A % B);
  return A;
}

} // namespace

MinCutKernel::MinCutKernel(const FlowNetwork &Net) : Net(Net) {
  KernelBuilds.add();
  const std::vector<Arc> &Arcs = Net.arcs();
  unsigned N = Net.numNodes();

  // CSR topology. Each node's edges keep the order in which arcs add
  // them: arc I puts its forward edge on From and its reverse on To.
  EdgeBegin.assign(N + 1, 0);
  for (const Arc &A : Arcs) {
    ++EdgeBegin[A.From + 1];
    ++EdgeBegin[A.To + 1];
  }
  for (unsigned V = 0; V != N; ++V)
    EdgeBegin[V + 1] += EdgeBegin[V];
  std::vector<unsigned> Fill(EdgeBegin.begin(), EdgeBegin.end() - 1);
  EdgeTo.resize(2 * Arcs.size());
  EdgeRev.resize(2 * Arcs.size());
  ArcEdge.resize(Arcs.size());
  for (unsigned I = 0; I != Arcs.size(); ++I) {
    unsigned Fwd = Fill[Arcs[I].From]++;
    unsigned Bwd = Fill[Arcs[I].To]++;
    EdgeTo[Fwd] = Arcs[I].To;
    EdgeTo[Bwd] = Arcs[I].From;
    EdgeRev[Fwd] = Bwd;
    EdgeRev[Bwd] = Fwd;
    ArcEdge[I] = Fwd;
    if (Arcs[I].Cap.Infinite)
      InfiniteArcs.push_back(I);
  }

  // Capacity rows over the network-wide denominator.
  BigInt Den(1);
  std::map<ParamId, unsigned> ColOf;
  auto noteDen = [&Den](const Rational &R) {
    const BigInt &D = R.denominator();
    Den = Den / BigInt::gcd(Den, D) * D;
  };
  for (const Arc &A : Arcs) {
    if (A.Cap.Infinite)
      continue;
    noteDen(A.Cap.Expr.constantTerm());
    for (const auto &[Id, Coeff] : A.Cap.Expr.terms()) {
      noteDen(Coeff);
      ColOf.emplace(Id, 0u);
    }
  }
  for (auto &[Id, Col] : ColOf) {
    Col = static_cast<unsigned>(Cols.size());
    Cols.push_back(Id);
  }
  // Scales a coefficient to an integer over Den; false if it does not
  // fit int64.
  auto scaled = [&Den](const Rational &R, int64_t &Out) {
    BigInt V = R.numerator() * (Den / R.denominator());
    if (!V.fitsInt64())
      return false;
    Out = V.toInt64();
    return true;
  };
  RowConst.assign(Arcs.size(), 0);
  RowBegin.assign(Arcs.size() + 1, 0);
  for (unsigned I = 0; I != Arcs.size() && !ExactOnly; ++I) {
    RowBegin[I] = static_cast<unsigned>(TermCol.size());
    if (Arcs[I].Cap.Infinite)
      continue;
    const LinExpr &E = Arcs[I].Cap.Expr;
    ExactOnly |= !scaled(E.constantTerm(), RowConst[I]);
    for (const auto &[Id, Coeff] : E.terms()) {
      int64_t C = 0;
      ExactOnly |= !scaled(Coeff, C);
      TermCol.push_back(ColOf.at(Id));
      TermCoeff.push_back(C);
    }
  }
  RowBegin[Arcs.size()] = static_cast<unsigned>(TermCol.size());

  Level.assign(N, -1);
  Iter.assign(N, 0);
  Queue.reserve(N);
}

MinCutKernel::Eval
MinCutKernel::evaluateMachine(const std::vector<Rational> &Point) {
  // Common denominator of the coordinates the rows read.
  unsigned __int128 PointDen = 1;
  for (ParamId Id : Cols) {
    assert(Id < Point.size() && "point misses a parameter value");
    const BigInt &D = Point[Id].denominator();
    if (!D.fitsInt64())
      return Eval::Overflow;
    auto Di = static_cast<unsigned __int128>(D.toInt64());
    PointDen /= gcd128(PointDen, Di);
    if (__builtin_mul_overflow(PointDen, Di, &PointDen) ||
        PointDen > static_cast<unsigned __int128>(Int128Max))
      return Eval::Overflow;
  }
  auto Den = static_cast<__int128>(PointDen);
  ColNum.resize(Cols.size());
  for (unsigned C = 0; C != Cols.size(); ++C) {
    const Rational &V = Point[Cols[C]];
    if (!V.numerator().fitsInt64())
      return Eval::Overflow;
    __int128 Scale = Den / V.denominator().toInt64();
    if (__builtin_mul_overflow(static_cast<__int128>(V.numerator().toInt64()),
                               Scale, &ColNum[C]))
      return Eval::Overflow;
  }

  const std::vector<Arc> &Arcs = Net.arcs();
  Res128.assign(EdgeTo.size(), 0);
  __int128 FiniteTotal = 0;
  for (unsigned I = 0; I != Arcs.size(); ++I) {
    if (Arcs[I].Cap.Infinite)
      continue;
    __int128 Cap = 0;
    if (__builtin_mul_overflow(static_cast<__int128>(RowConst[I]), Den, &Cap))
      return Eval::Overflow;
    for (unsigned T = RowBegin[I]; T != RowBegin[I + 1]; ++T) {
      __int128 Term = 0;
      if (__builtin_mul_overflow(static_cast<__int128>(TermCoeff[T]),
                                 ColNum[TermCol[T]], &Term) ||
          __builtin_add_overflow(Cap, Term, &Cap))
        return Eval::Overflow;
    }
    if (Cap < 0)
      return Eval::Negative;
    if (__builtin_add_overflow(FiniteTotal, Cap, &FiniteTotal))
      return Eval::Overflow;
    Res128[ArcEdge[I]] = Cap;
  }
  // The machine tier is sound whenever no intermediate value can
  // overflow: every residual capacity stays below twice the largest edge
  // capacity, and each edge capacity is at most Huge = FiniteTotal + 1, so
  // FiniteTotal <= INT128_MAX / 4 bounds everything by INT128_MAX / 2.
  if (FiniteTotal > Int128Max / 4)
    return Eval::Overflow;
  // Any value strictly above the sum of all finite capacities acts as
  // infinity: a minimum cut uses such an arc only if no finite cut exists.
  for (unsigned I : InfiniteArcs)
    Res128[ArcEdge[I]] = FiniteTotal + 1;
  return Eval::Ok;
}

MinCutKernel::Eval
MinCutKernel::evaluateExact(const std::vector<Rational> &Point) {
  // Evaluate finite capacities and clear denominators so the solver works
  // on exact integers.
  const std::vector<Arc> &Arcs = Net.arcs();
  std::vector<Rational> Values(Arcs.size());
  BigInt Lcm(1);
  for (unsigned I = 0; I != Arcs.size(); ++I) {
    if (Arcs[I].Cap.Infinite)
      continue;
    Values[I] = Arcs[I].Cap.Expr.evaluate(Point);
    if (Values[I].isNegative())
      return Eval::Negative;
    const BigInt &Den = Values[I].denominator();
    Lcm = Lcm / BigInt::gcd(Lcm, Den) * Den;
  }
  ResBig.assign(EdgeTo.size(), BigInt());
  BigInt FiniteTotal(0);
  for (unsigned I = 0; I != Arcs.size(); ++I) {
    if (Arcs[I].Cap.Infinite)
      continue;
    BigInt &Cap = ResBig[ArcEdge[I]];
    Cap = Values[I].numerator() * (Lcm / Values[I].denominator());
    FiniteTotal += Cap;
  }
  BigInt Huge = FiniteTotal + BigInt(1);
  for (unsigned I : InfiniteArcs)
    ResBig[ArcEdge[I]] = Huge;
  return Eval::Ok;
}

std::optional<CutStructure>
MinCutKernel::solve(const std::vector<Rational> &Point, bool ForceBigInt) {
  Eval Machine =
      ForceBigInt || ExactOnly ? Eval::Overflow : evaluateMachine(Point);
  if (Machine == Eval::Negative)
    return std::nullopt;
  bool UseMachine = Machine == Eval::Ok;
  if (!UseMachine && evaluateExact(Point) == Eval::Negative)
    return std::nullopt;

  Solves.add();
  (UseMachine ? FastSolves : BigSolves).add();

  CutStructure Result;
  if (UseMachine) {
    maxFlow(Res128);
    Result.SourceSide = residualReachable(Res128);
    Result.UsedFastPath = true;
  } else {
    maxFlow(ResBig);
    Result.SourceSide = residualReachable(ResBig);
  }
  assert(!Result.SourceSide[Net.sink()] && "sink reachable after max flow");
  const std::vector<Arc> &Arcs = Net.arcs();
  for (unsigned I = 0; I != Arcs.size(); ++I) {
    if (!Result.SourceSide[Arcs[I].From] || Result.SourceSide[Arcs[I].To])
      continue;
    Result.CutArcs.push_back(I);
    if (Arcs[I].Cap.Infinite)
      Result.Finite = false;
  }
  return Result;
}

template <typename CapT> void MinCutKernel::maxFlow(std::vector<CapT> &Res) {
  while (buildLevels(Res)) {
    std::copy(EdgeBegin.begin(), EdgeBegin.end() - 1, Iter.begin());
    while (!CapOps<CapT>::isZero(
        augment(Res, Net.source(), CapOps<CapT>::unbounded())))
      ;
  }
}

template <typename CapT>
bool MinCutKernel::buildLevels(const std::vector<CapT> &Res) {
  std::fill(Level.begin(), Level.end(), -1);
  Queue.clear();
  Level[Net.source()] = 0;
  Queue.push_back(Net.source());
  for (size_t Head = 0; Head != Queue.size(); ++Head) {
    unsigned Node = Queue[Head];
    for (unsigned E = EdgeBegin[Node]; E != EdgeBegin[Node + 1]; ++E) {
      if (CapOps<CapT>::isZero(Res[E]) || Level[EdgeTo[E]] >= 0)
        continue;
      Level[EdgeTo[E]] = Level[Node] + 1;
      // Every node closer than the sink is labelled by now, and no
      // other node lies on a shortest augmenting path, so the rest of
      // the graph stays unlabelled and augment() never enters it.
      if (EdgeTo[E] == Net.sink())
        return true;
      Queue.push_back(EdgeTo[E]);
    }
  }
  return false;
}

/// Pushes a blocking-flow augmenting path.
template <typename CapT>
CapT MinCutKernel::augment(std::vector<CapT> &Res, unsigned Node,
                           const CapT &Limit) {
  if (Node == Net.sink())
    return Limit;
  for (unsigned &E = Iter[Node]; E != EdgeBegin[Node + 1]; ++E) {
    unsigned To = EdgeTo[E];
    if (CapOps<CapT>::isZero(Res[E]) || Level[To] != Level[Node] + 1)
      continue;
    CapT NextLimit =
        !CapOps<CapT>::isUnbounded(Limit) && Limit < Res[E] ? Limit : Res[E];
    CapT Pushed = augment(Res, To, NextLimit);
    if (CapOps<CapT>::isZero(Pushed))
      continue;
    Res[E] -= Pushed;
    Res[EdgeRev[E]] += Pushed;
    return Pushed;
  }
  return CapT(0);
}

/// Nodes reachable from the source in the residual graph.
template <typename CapT>
std::vector<bool>
MinCutKernel::residualReachable(const std::vector<CapT> &Res) {
  std::vector<bool> Seen(Net.numNodes(), false);
  Queue.clear();
  Seen[Net.source()] = true;
  Queue.push_back(Net.source());
  for (size_t Head = 0; Head != Queue.size(); ++Head) {
    unsigned Node = Queue[Head];
    for (unsigned E = EdgeBegin[Node]; E != EdgeBegin[Node + 1]; ++E) {
      if (CapOps<CapT>::isZero(Res[E]) || Seen[EdgeTo[E]])
        continue;
      Seen[EdgeTo[E]] = true;
      Queue.push_back(EdgeTo[E]);
    }
  }
  return Seen;
}

CutStructure paco::solveMinCutStructure(const FlowNetwork &Net,
                                        const std::vector<Rational> &Point,
                                        bool ForceBigInt) {
  std::optional<CutStructure> Cut = MinCutKernel(Net).solve(Point, ForceBigInt);
  assert(Cut && "negative capacity at sample point");
  return std::move(*Cut);
}

CutResult paco::solveMinCut(const FlowNetwork &Net,
                            const std::vector<Rational> &Point) {
  CutStructure S = solveMinCutStructure(Net, Point);
  CutResult Result;
  Result.SourceSide = std::move(S.SourceSide);
  Result.CutArcs = std::move(S.CutArcs);
  Result.Finite = S.Finite;
  const std::vector<Arc> &Arcs = Net.arcs();
  for (unsigned I : Result.CutArcs)
    if (!Arcs[I].Cap.Infinite)
      Result.Value += Arcs[I].Cap.Expr;
  return Result;
}
