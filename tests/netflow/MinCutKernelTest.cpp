//===- tests/netflow/MinCutKernelTest.cpp - Compiled min-cut checks -------===//
//
// A MinCutKernel compiled once per network must return, at every point,
// exactly what a fresh one-shot solve and the BigInt tier return, and the
// canonical minimal source side that brute force finds: the intersection
// of the source sides of all minimum cuts. The points mix small
// denominators (machine tier) with large coprime ones whose common
// denominator pushes the scaled capacities past the __int128 bound (exact
// tier).
//
//===----------------------------------------------------------------------===//

#include "netflow/MinCutKernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

using namespace paco;

namespace {

uint64_t nextRand(uint64_t &State) {
  State ^= State << 13;
  State ^= State >> 7;
  State ^= State << 17;
  return State;
}

constexpr unsigned NumParams = 3;

/// A non-negative rational p/q with small p and q.
Rational smallRational(uint64_t &Seed) {
  return Rational::fraction(int64_t(nextRand(Seed) % 9),
                            int64_t(1 + nextRand(Seed) % 6));
}

/// Random network whose capacities are non-negative affine functions of
/// NumParams parameters; infinite arcs stay off the source/sink boundary
/// so the trivial {s} cut is finite.
FlowNetwork randomNetwork(uint64_t Seed, unsigned FreeNodes, unsigned Arcs) {
  FlowNetwork Net;
  std::vector<NodeId> Nodes = {Net.source(), Net.sink()};
  for (unsigned N = 0; N != FreeNodes; ++N)
    Nodes.push_back(Net.addNode("n" + std::to_string(N)));
  for (unsigned A = 0; A != Arcs; ++A) {
    NodeId From = Nodes[nextRand(Seed) % Nodes.size()];
    NodeId To = Nodes[nextRand(Seed) % Nodes.size()];
    if (From == To || To == Net.source() || From == Net.sink())
      continue;
    if (nextRand(Seed) % 6 == 0 && From != Net.source() && To != Net.sink()) {
      Net.addArc(From, To, Capacity::infinite());
      continue;
    }
    LinExpr Cap(smallRational(Seed));
    for (ParamId P = 0; P != NumParams; ++P)
      if (nextRand(Seed) % 2)
        Cap += LinExpr::param(P) * smallRational(Seed);
    Net.addArc(From, To, Capacity::finite(std::move(Cap)));
  }
  return Net;
}

/// A point whose coordinates have small denominators, or (when \p Wide)
/// distinct large primes as denominators, so their common denominator is
/// about 2^120.
std::vector<Rational> randomPoint(uint64_t &Seed, bool Wide) {
  static const int64_t WidePrimes[NumParams] = {
      1099511627791, 1099511627817, 1099511627889}; // ~2^40
  std::vector<Rational> Point(NumParams);
  for (unsigned P = 0; P != NumParams; ++P) {
    int64_t Den = Wide ? WidePrimes[P] : int64_t(1 + nextRand(Seed) % 12);
    int64_t Num = int64_t(nextRand(Seed) % uint64_t(40 * Den));
    Point[P] = Rational::fraction(Num, Den);
  }
  return Point;
}

/// The canonical minimal source side by brute force: the intersection of
/// the source sides of every minimum finite cut.
std::vector<bool> bruteForceMinimalSide(const FlowNetwork &Net,
                                        const std::vector<Rational> &Point) {
  unsigned Free = Net.numNodes() - 2;
  std::optional<Rational> Best;
  std::vector<bool> Minimal;
  for (uint64_t Mask = 0; Mask != (uint64_t(1) << Free); ++Mask) {
    std::vector<bool> Side(Net.numNodes(), false);
    Side[Net.source()] = true;
    for (unsigned N = 0; N != Free; ++N)
      Side[2 + N] = (Mask >> N) & 1;
    Rational Value;
    bool Finite = true;
    for (const Arc &A : Net.arcs()) {
      if (!Side[A.From] || Side[A.To])
        continue;
      if (A.Cap.Infinite) {
        Finite = false;
        break;
      }
      Value += A.Cap.Expr.evaluate(Point);
    }
    if (!Finite || (Best && Value > *Best))
      continue;
    if (!Best || Value < *Best) {
      Best = Value;
      Minimal = Side;
      continue;
    }
    for (unsigned N = 0; N != Side.size(); ++N)
      Minimal[N] = Minimal[N] && Side[N];
  }
  return Minimal;
}

TEST(MinCutKernelTest, MatchesOneShotBigIntAndBruteForce) {
  unsigned MachineSolves = 0, ExactSolves = 0;
  for (uint64_t NetSeed = 1; NetSeed != 25; ++NetSeed) {
    uint64_t Seed = NetSeed * 0x9e3779b97f4a7c15ull;
    unsigned FreeNodes = 3 + NetSeed % 6;
    FlowNetwork Net = randomNetwork(Seed, FreeNodes, 4 * FreeNodes + 4);
    MinCutKernel Kernel(Net);
    ASSERT_FALSE(Kernel.exactOnly());
    for (unsigned I = 0; I != 16; ++I) {
      std::vector<Rational> Point = randomPoint(Seed, I % 4 == 3);
      SCOPED_TRACE("network " + std::to_string(NetSeed) + ", point " +
                   std::to_string(I));
      std::optional<CutStructure> Got = Kernel.solve(Point);
      ASSERT_TRUE(Got);
      (Got->UsedFastPath ? MachineSolves : ExactSolves) += 1;
      CutStructure OneShot = solveMinCutStructure(Net, Point);
      CutStructure Big =
          solveMinCutStructure(Net, Point, /*ForceBigInt=*/true);
      EXPECT_FALSE(Big.UsedFastPath);
      EXPECT_EQ(Got->UsedFastPath, OneShot.UsedFastPath);
      EXPECT_EQ(Got->SourceSide, OneShot.SourceSide);
      EXPECT_EQ(Got->CutArcs, OneShot.CutArcs);
      EXPECT_EQ(Got->SourceSide, Big.SourceSide);
      EXPECT_EQ(Got->CutArcs, Big.CutArcs);
      EXPECT_TRUE(Got->Finite);
      EXPECT_EQ(Got->SourceSide, bruteForceMinimalSide(Net, Point));
    }
  }
  // Both tiers ran: the wide points cross the __int128 bound.
  EXPECT_GT(MachineSolves, 0u);
  EXPECT_GT(ExactSolves, 0u);
}

TEST(MinCutKernelTest, ReuseInAnyOrderMatchesOneShotSolves) {
  uint64_t Seed = 0x5eed;
  FlowNetwork Net = randomNetwork(Seed, 7, 30);
  std::vector<std::vector<Rational>> Points;
  for (unsigned I = 0; I != 24; ++I)
    Points.push_back(randomPoint(Seed, I % 5 == 0));
  std::vector<CutStructure> Expected;
  for (const std::vector<Rational> &P : Points)
    Expected.push_back(solveMinCutStructure(Net, P));

  MinCutKernel Kernel(Net);
  std::vector<unsigned> Order(Points.size());
  std::iota(Order.begin(), Order.end(), 0u);
  for (unsigned Round = 0; Round != 3; ++Round) {
    // Forward, reversed, then a seeded shuffle.
    if (Round == 1)
      std::reverse(Order.begin(), Order.end());
    if (Round == 2)
      for (unsigned I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[nextRand(Seed) % I]);
    for (unsigned J : Order) {
      SCOPED_TRACE("round " + std::to_string(Round) + ", point " +
                   std::to_string(J));
      std::optional<CutStructure> Got = Kernel.solve(Points[J]);
      ASSERT_TRUE(Got);
      EXPECT_EQ(Got->SourceSide, Expected[J].SourceSide);
      EXPECT_EQ(Got->CutArcs, Expected[J].CutArcs);
      EXPECT_EQ(Got->UsedFastPath, Expected[J].UsedFastPath);
    }
  }
}

TEST(MinCutKernelTest, NegativeCapacityIsRejected) {
  FlowNetwork Net;
  NodeId A = Net.addNode("a");
  Net.addArc(Net.source(), A,
             Capacity::finite(LinExpr::constant(3) - LinExpr::param(0)));
  Net.addArc(A, Net.sink(), Capacity::finite(LinExpr::constant(1)));
  MinCutKernel Kernel(Net);
  EXPECT_FALSE(Kernel.solve({Rational(4)}));
  EXPECT_FALSE(Kernel.solve({Rational(4)}, /*ForceBigInt=*/true));
  std::optional<CutStructure> Cut = Kernel.solve({Rational(1)});
  ASSERT_TRUE(Cut);
  EXPECT_TRUE(Cut->SourceSide[A]);
}

TEST(MinCutKernelTest, OversizedCoefficientsMakeTheKernelExactOnly) {
  // 2^64 as a coefficient does not fit an int64 row.
  BigInt TwoTo64 = BigInt(int64_t(1) << 32) * BigInt(int64_t(1) << 32);
  FlowNetwork Net;
  NodeId A = Net.addNode("a");
  Net.addArc(Net.source(), A,
             Capacity::finite(LinExpr::param(0) * Rational(TwoTo64)));
  Net.addArc(A, Net.sink(), Capacity::finite(LinExpr::constant(1)));
  MinCutKernel Kernel(Net);
  EXPECT_TRUE(Kernel.exactOnly());
  std::optional<CutStructure> Cut = Kernel.solve({Rational(1)});
  ASSERT_TRUE(Cut);
  EXPECT_FALSE(Cut->UsedFastPath);
  EXPECT_TRUE(Cut->SourceSide[A]);
}

} // namespace
