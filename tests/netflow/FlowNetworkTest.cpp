//===- tests/netflow/FlowNetworkTest.cpp - Min-cut solver tests -----------===//

#include "netflow/FlowNetwork.h"

#include <gtest/gtest.h>

using namespace paco;

namespace {

Capacity cap(int64_t Value) { return Capacity::finite(LinExpr::constant(Value)); }

std::vector<Rational> emptyPoint(const ParamSpace &Space) {
  return std::vector<Rational>(Space.size());
}

TEST(FlowNetworkTest, TrivialTwoNode) {
  ParamSpace Space;
  FlowNetwork Net;
  Net.addArc(Net.source(), Net.sink(), cap(5));
  CutResult Cut = solveMinCut(Net, emptyPoint(Space));
  EXPECT_TRUE(Cut.Finite);
  EXPECT_EQ(Cut.Value.asConstant(), Rational(5));
  ASSERT_EQ(Cut.CutArcs.size(), 1u);
}

TEST(FlowNetworkTest, ClassicDiamond) {
  // s -> a (3), s -> b (2), a -> t (2), b -> t (3), a -> b (5).
  // Max flow = 5 (2 via a->t, 2 via b->t, 1 via a->b->t); the minimum cut
  // is {s} with value 3+2=5.
  ParamSpace Space;
  FlowNetwork Net;
  NodeId A = Net.addNode("a"), B = Net.addNode("b");
  Net.addArc(Net.source(), A, cap(3));
  Net.addArc(Net.source(), B, cap(2));
  Net.addArc(A, Net.sink(), cap(2));
  Net.addArc(B, Net.sink(), cap(3));
  Net.addArc(A, B, cap(5));
  CutResult Cut = solveMinCut(Net, emptyPoint(Space));
  EXPECT_EQ(Cut.Value.asConstant(), Rational(5));
  EXPECT_FALSE(Cut.SourceSide[A]);
  EXPECT_FALSE(Cut.SourceSide[B]);
  // A genuinely interior cut: raise s->a to 4 and cap a->b at 1; now the
  // minimum cut is {s,a} with value a->t (2) + a->b (1) + s->b (2) = 5,
  // strictly below cut {s} = 6.
  FlowNetwork Net2;
  NodeId A2 = Net2.addNode("a"), B2 = Net2.addNode("b");
  Net2.addArc(Net2.source(), A2, cap(4));
  Net2.addArc(Net2.source(), B2, cap(2));
  Net2.addArc(A2, Net2.sink(), cap(2));
  Net2.addArc(B2, Net2.sink(), cap(3));
  Net2.addArc(A2, B2, cap(1));
  CutResult Cut2 = solveMinCut(Net2, emptyPoint(Space));
  EXPECT_EQ(Cut2.Value.asConstant(), Rational(5));
  EXPECT_TRUE(Cut2.SourceSide[A2]);
  EXPECT_FALSE(Cut2.SourceSide[B2]);
}

TEST(FlowNetworkTest, ParallelArcsMerge) {
  ParamSpace Space;
  FlowNetwork Net;
  Net.addArc(Net.source(), Net.sink(), cap(2));
  Net.addArc(Net.source(), Net.sink(), cap(3));
  EXPECT_EQ(Net.numArcs(), 1u);
  CutResult Cut = solveMinCut(Net, emptyPoint(Space));
  EXPECT_EQ(Cut.Value.asConstant(), Rational(5));
}

TEST(FlowNetworkTest, InfiniteArcForcesAround) {
  // s -> a (inf), a -> t (7): min cut must take the finite arc.
  ParamSpace Space;
  FlowNetwork Net;
  NodeId A = Net.addNode("a");
  Net.addArc(Net.source(), A, Capacity::infinite());
  Net.addArc(A, Net.sink(), cap(7));
  CutResult Cut = solveMinCut(Net, emptyPoint(Space));
  EXPECT_TRUE(Cut.Finite);
  EXPECT_EQ(Cut.Value.asConstant(), Rational(7));
  EXPECT_TRUE(Cut.SourceSide[A]);
}

TEST(FlowNetworkTest, NoFiniteCutReported) {
  ParamSpace Space;
  FlowNetwork Net;
  Net.addArc(Net.source(), Net.sink(), Capacity::infinite());
  CutResult Cut = solveMinCut(Net, emptyPoint(Space));
  EXPECT_FALSE(Cut.Finite);
}

TEST(FlowNetworkTest, RationalCapacitiesExact) {
  // Capacities 1/3 and 1/2 in series: min cut is 1/3.
  ParamSpace Space;
  FlowNetwork Net;
  NodeId A = Net.addNode("a");
  Net.addArc(Net.source(), A,
             Capacity::finite(LinExpr(Rational::fraction(1, 3))));
  Net.addArc(A, Net.sink(),
             Capacity::finite(LinExpr(Rational::fraction(1, 2))));
  CutResult Cut = solveMinCut(Net, emptyPoint(Space));
  EXPECT_EQ(Cut.Value.asConstant(), Rational::fraction(1, 3));
}

TEST(FlowNetworkTest, ParametricCutSwitchesWithPoint) {
  // s -> a costs x, a -> t costs y: the cut follows the smaller parameter.
  ParamSpace Space;
  ParamId X = Space.addParam("x", BigInt(0), BigInt(100));
  ParamId Y = Space.addParam("y", BigInt(0), BigInt(100));
  FlowNetwork Net;
  NodeId A = Net.addNode("a");
  Net.addArc(Net.source(), A, Capacity::finite(LinExpr::param(X)));
  Net.addArc(A, Net.sink(), Capacity::finite(LinExpr::param(Y)));

  std::vector<Rational> P1(Space.size());
  P1[X] = Rational(3);
  P1[Y] = Rational(10);
  CutResult Cut1 = solveMinCut(Net, P1);
  EXPECT_EQ(Cut1.Value, LinExpr::param(X));

  std::vector<Rational> P2(Space.size());
  P2[X] = Rational(10);
  P2[Y] = Rational(3);
  CutResult Cut2 = solveMinCut(Net, P2);
  EXPECT_EQ(Cut2.Value, LinExpr::param(Y));
}

/// Builds the paper's Figure-6 network for the Figure-1 audio example.
/// Tasks I, f1, g, f2, O; parameters x (frames), y (buffer size),
/// z (per-unit encoding work). Client computation: f1=f2=xy, g=xyz;
/// I/O tasks pinned to the client by infinite server cost. Data transfer:
/// p between I,f1 and q between f2,O cost 7xy; inbuf between f1,g and
/// outbuf between g,f2 cost 6x + xy per direction.
struct PaperExample {
  ParamSpace Space;
  ParamId X, Y, Z, XY, XYZ;
  FlowNetwork Net;
  NodeId I, F1, G, F2, O;

  PaperExample() {
    X = Space.addParam("x", BigInt(1), BigInt(1000));
    Y = Space.addParam("y", BigInt(1), BigInt(1000));
    Z = Space.addParam("z", BigInt(1), BigInt(1000));
    XY = Space.internMonomial({X, Y});
    XYZ = Space.internMonomial({X, Y, Z});
    I = Net.addNode("I");
    F1 = Net.addNode("f1");
    G = Net.addNode("g");
    F2 = Net.addNode("f2");
    O = Net.addNode("O");
    LinExpr ExprXY = LinExpr::param(XY);
    LinExpr ExprXYZ = LinExpr::param(XYZ);
    LinExpr Buffer = LinExpr::param(X) * Rational(6) + LinExpr::param(XY);
    LinExpr Unit = LinExpr::param(XY) * Rational(7);
    // Client computation costs: s -> v.
    Net.addArc(Net.source(), F1, Capacity::finite(ExprXY));
    Net.addArc(Net.source(), F2, Capacity::finite(ExprXY));
    Net.addArc(Net.source(), G, Capacity::finite(ExprXYZ));
    // I/O tasks pinned to the client: infinite server cost.
    Net.addArc(I, Net.sink(), Capacity::infinite());
    Net.addArc(O, Net.sink(), Capacity::infinite());
    // Data communication costs, both cut directions.
    Net.addArc(I, F1, Capacity::finite(Unit));
    Net.addArc(F1, I, Capacity::finite(Unit));
    Net.addArc(F2, O, Capacity::finite(Unit));
    Net.addArc(O, F2, Capacity::finite(Unit));
    Net.addArc(F1, G, Capacity::finite(Buffer));
    Net.addArc(G, F1, Capacity::finite(Buffer));
    Net.addArc(G, F2, Capacity::finite(Buffer));
    Net.addArc(F2, G, Capacity::finite(Buffer));
  }

  std::vector<Rational> point(int64_t Xv, int64_t Yv, int64_t Zv) {
    std::vector<Rational> P(Space.size());
    P[X] = Rational(Xv);
    P[Y] = Rational(Yv);
    P[Z] = Rational(Zv);
    Space.extendPoint(P);
    return P;
  }
};

TEST(FlowNetworkTest, PaperExampleAllLocalRegion) {
  // x=1, y=6, z=3 (paper's first sample): everything runs on the client.
  PaperExample E;
  CutResult Cut = solveMinCut(E.Net, E.point(1, 6, 3));
  EXPECT_FALSE(Cut.SourceSide[E.I]);
  EXPECT_FALSE(Cut.SourceSide[E.F1]);
  EXPECT_FALSE(Cut.SourceSide[E.G]);
  EXPECT_FALSE(Cut.SourceSide[E.F2]);
  EXPECT_FALSE(Cut.SourceSide[E.O]);
  // Total cost xyz + 2xy = 18 + 12 = 30.
  EXPECT_EQ(Cut.Value.evaluate(E.point(1, 6, 3)), Rational(30));
}

TEST(FlowNetworkTest, PaperExampleOffloadG) {
  // x=1, y=6, z=6 (paper's second sample): offload g only.
  PaperExample E;
  CutResult Cut = solveMinCut(E.Net, E.point(1, 6, 6));
  EXPECT_TRUE(Cut.SourceSide[E.G]);
  EXPECT_FALSE(Cut.SourceSide[E.F1]);
  EXPECT_FALSE(Cut.SourceSide[E.F2]);
  // Total cost 12x + 4xy = 12 + 24 = 36 (vs 48 local, 84 offload all).
  EXPECT_EQ(Cut.Value.evaluate(E.point(1, 6, 6)), Rational(36));
}

TEST(FlowNetworkTest, PaperExampleOffloadFAndG) {
  // x=1, y=1, z=18 (paper's third sample): offload f1, g, f2.
  PaperExample E;
  CutResult Cut = solveMinCut(E.Net, E.point(1, 1, 18));
  EXPECT_TRUE(Cut.SourceSide[E.F1]);
  EXPECT_TRUE(Cut.SourceSide[E.G]);
  EXPECT_TRUE(Cut.SourceSide[E.F2]);
  EXPECT_FALSE(Cut.SourceSide[E.I]);
  EXPECT_FALSE(Cut.SourceSide[E.O]);
  // Total cost 14xy = 14 (vs 20 local, 16 offload g).
  EXPECT_EQ(Cut.Value.evaluate(E.point(1, 1, 18)), Rational(14));
}

TEST(FlowNetworkTest, AlwaysGEOverBox) {
  ParamSpace Space;
  ParamId X = Space.addParam("x", BigInt(1), BigInt(10));
  LinExpr Ten = LinExpr::constant(10);
  LinExpr ExprX = LinExpr::param(X);
  EXPECT_TRUE(alwaysGE(Ten, ExprX, Space));        // 10 >= x on [1,10]
  EXPECT_FALSE(alwaysGE(LinExpr::constant(9), ExprX, Space));
  EXPECT_TRUE(alwaysGE(ExprX, LinExpr::constant(1), Space));
  EXPECT_TRUE(alwaysGE(ExprX * Rational(2), ExprX, Space)); // 2x >= x, x>=1
}

TEST(FlowNetworkTest, SimplifyMergesImplicationChain) {
  // s -> a (5), a -> b (inf), b -> t (3): a and b merge; min cut 3 stays.
  ParamSpace Space;
  FlowNetwork Net;
  NodeId A = Net.addNode("a"), B = Net.addNode("b");
  Net.addArc(Net.source(), A, cap(5));
  Net.addArc(A, B, Capacity::infinite());
  Net.addArc(B, Net.sink(), cap(3));
  SimplifiedNetwork Simple = simplifyNetwork(Net, Space);
  EXPECT_LT(Simple.Net.numNodes(), Net.numNodes());
  EXPECT_EQ(Simple.NodeMap[A], Simple.NodeMap[B]);
  CutResult Cut = solveMinCut(Simple.Net, emptyPoint(Space));
  EXPECT_EQ(Cut.Value.asConstant(), Rational(3));
}

TEST(FlowNetworkTest, SimplifyMergesEqualityPair) {
  // Bidirectional infinite arcs model an equality constraint; the two
  // nodes always fall on the same side, so they merge.
  ParamSpace Space;
  FlowNetwork Net;
  NodeId A = Net.addNode("a"), B = Net.addNode("b");
  Net.addArc(Net.source(), A, cap(2));
  Net.addArc(A, B, Capacity::infinite());
  Net.addArc(B, A, Capacity::infinite());
  Net.addArc(B, Net.sink(), cap(9));
  Net.addArc(A, Net.sink(), cap(1));
  SimplifiedNetwork Simple = simplifyNetwork(Net, Space);
  EXPECT_EQ(Simple.NodeMap[A], Simple.NodeMap[B]);
  CutResult Cut = solveMinCut(Simple.Net, emptyPoint(Space));
  EXPECT_EQ(Cut.Value.asConstant(), Rational(2));
}

TEST(FlowNetworkTest, SimplifyNeverMergesSourceIntoSink) {
  ParamSpace Space;
  FlowNetwork Net;
  Net.addArc(Net.source(), Net.sink(), Capacity::infinite());
  SimplifiedNetwork Simple = simplifyNetwork(Net, Space);
  EXPECT_NE(Simple.NodeMap[Net.source()], Simple.NodeMap[Net.sink()]);
}

TEST(FlowNetworkTest, SimplifyPreservesMinCutOnPaperExample) {
  PaperExample E;
  SimplifiedNetwork Simple = simplifyNetwork(E.Net, E.Space);
  for (auto [Xv, Yv, Zv] : {std::tuple<int64_t, int64_t, int64_t>{1, 6, 3},
                            {1, 6, 6},
                            {1, 1, 18},
                            {3, 2, 40},
                            {7, 1, 1}}) {
    std::vector<Rational> P = E.point(Xv, Yv, Zv);
    Rational Before = solveMinCut(E.Net, P).Value.evaluate(P);
    Rational After = solveMinCut(Simple.Net, P).Value.evaluate(P);
    EXPECT_EQ(Before, After) << "at (" << Xv << "," << Yv << "," << Zv << ")";
  }
}

TEST(FlowNetworkTest, Int64FastPathMatchesBigIntSolver) {
  // The interior-cut diamond again: with ordinary capacities the checked
  // machine tier must run and produce the same cut as the BigInt solver.
  ParamSpace Space;
  FlowNetwork Net;
  NodeId A = Net.addNode("a"), B = Net.addNode("b");
  Net.addArc(Net.source(), A, cap(4));
  Net.addArc(Net.source(), B, cap(2));
  Net.addArc(A, Net.sink(), cap(2));
  Net.addArc(B, Net.sink(), cap(3));
  Net.addArc(A, B, cap(1));
  CutStructure Fast = solveMinCutStructure(Net, emptyPoint(Space));
  CutStructure Slow =
      solveMinCutStructure(Net, emptyPoint(Space), /*ForceBigInt=*/true);
  EXPECT_TRUE(Fast.UsedFastPath);
  EXPECT_FALSE(Slow.UsedFastPath);
  EXPECT_TRUE(Fast.Finite);
  // The minimal source side is unique across all maximum flows, so the
  // two solvers must agree exactly, not just on the cut value.
  EXPECT_EQ(Fast.SourceSide, Slow.SourceSide);
  EXPECT_EQ(Fast.CutArcs, Slow.CutArcs);
}

TEST(FlowNetworkTest, MachineTierHandlesCapacitiesPast64Bits) {
  // The same diamond with every capacity scaled by x = 2^61: the finite
  // total (12 * 2^61) is past INT64_MAX/4 but far inside the __int128
  // machine tier's bound, which must run and agree with the BigInt tier.
  ParamSpace Space;
  ParamId X = Space.addParam("x", BigInt(1), BigInt(int64_t(1) << 62));
  auto xCap = [&](int64_t Units) {
    return Capacity::finite(LinExpr::param(X) * Rational(Units));
  };
  FlowNetwork Net;
  NodeId A = Net.addNode("a"), B = Net.addNode("b");
  Net.addArc(Net.source(), A, xCap(4));
  Net.addArc(Net.source(), B, xCap(2));
  Net.addArc(A, Net.sink(), xCap(2));
  Net.addArc(B, Net.sink(), xCap(3));
  Net.addArc(A, B, xCap(1));
  std::vector<Rational> Point = {Rational(int64_t(1) << 61)};
  CutStructure Fast = solveMinCutStructure(Net, Point);
  CutStructure Slow = solveMinCutStructure(Net, Point, /*ForceBigInt=*/true);
  EXPECT_TRUE(Fast.UsedFastPath);
  EXPECT_FALSE(Slow.UsedFastPath);
  EXPECT_TRUE(Fast.SourceSide[A]);
  EXPECT_FALSE(Fast.SourceSide[B]);
  EXPECT_EQ(Fast.SourceSide, Slow.SourceSide);
  EXPECT_EQ(Fast.CutArcs, Slow.CutArcs);

  // Coefficients of 2^60 at x = 2^62 keep every capacity (at most 2^124)
  // and their sum inside __int128, but the total 3 * 2^124 is past the
  // residual bound INT128_MAX/4: the BigInt tier must take over.
  FlowNetwork Wide;
  NodeId WA = Wide.addNode("a"), WB = Wide.addNode("b");
  auto wideCap = [&](int64_t Units) {
    return Capacity::finite(LinExpr::param(X) *
                            Rational(Units * (int64_t(1) << 60)));
  };
  Wide.addArc(Wide.source(), WA, wideCap(4));
  Wide.addArc(Wide.source(), WB, wideCap(2));
  Wide.addArc(WA, Wide.sink(), wideCap(2));
  Wide.addArc(WB, Wide.sink(), wideCap(3));
  Wide.addArc(WA, WB, wideCap(1));
  std::vector<Rational> WidePoint = {Rational(int64_t(1) << 62)};
  CutStructure Bounded = solveMinCutStructure(Wide, WidePoint);
  EXPECT_FALSE(Bounded.UsedFastPath);
  EXPECT_EQ(Bounded.SourceSide, Fast.SourceSide);
}

TEST(FlowNetworkTest, HugeCapacitiesFallBackToBigInt) {
  // Scale the same diamond by 2^124: the finite capacity total exceeds the
  // __int128 safety bound (INT128_MAX/4), so the solver must take the
  // BigInt fallback and still find the scaled cut {s,a} of value
  // 5 * 2^124.
  BigInt Huge = BigInt(int64_t(1) << 62) * BigInt(int64_t(1) << 62);
  auto bigCap = [&](int64_t Units) {
    return Capacity::finite(LinExpr(Rational(BigInt(Units) * Huge)));
  };
  ParamSpace Space;
  FlowNetwork Net;
  NodeId A = Net.addNode("a"), B = Net.addNode("b");
  Net.addArc(Net.source(), A, bigCap(4));
  Net.addArc(Net.source(), B, bigCap(2));
  Net.addArc(A, Net.sink(), bigCap(2));
  Net.addArc(B, Net.sink(), bigCap(3));
  Net.addArc(A, B, bigCap(1));
  CutStructure St = solveMinCutStructure(Net, emptyPoint(Space));
  EXPECT_FALSE(St.UsedFastPath);
  EXPECT_TRUE(St.Finite);
  EXPECT_TRUE(St.SourceSide[A]);
  EXPECT_FALSE(St.SourceSide[B]);
  CutResult Cut = solveMinCut(Net, emptyPoint(Space));
  EXPECT_EQ(Cut.Value.asConstant(), Rational(BigInt(5) * Huge));
  EXPECT_EQ(Cut.SourceSide, St.SourceSide);
}

TEST(FlowNetworkTest, CutResultMapsBackThroughNodeMap) {
  PaperExample E;
  SimplifiedNetwork Simple = simplifyNetwork(E.Net, E.Space);
  std::vector<Rational> P = E.point(1, 6, 6);
  CutResult Cut = solveMinCut(Simple.Net, P);
  // g offloaded, f1/f2 on the client, recovered through the node map.
  EXPECT_TRUE(Cut.SourceSide[Simple.NodeMap[E.G]]);
  EXPECT_FALSE(Cut.SourceSide[Simple.NodeMap[E.F1]]);
  EXPECT_FALSE(Cut.SourceSide[Simple.NodeMap[E.F2]]);
}

} // namespace
