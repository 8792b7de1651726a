//===- tests/transform/TransformTest.cpp - Pipeline/transform tests -------===//

#include "transform/Transform.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>

using namespace paco;

namespace {

const char *kPipeline = R"MINIC(
param int x in [1, 64];
param int y in [1, 256];
param int z in [1, 4096];
int *inbuf;
int *outbuf;
void encode_frame() {
  for (int i = 0; i < y; i++) {
    int acc = inbuf[i];
    @trip(z) for (int k = 0; k < 1000000000; k++) {
      if (k >= z) break;
      acc = (acc * 3 + 1) & 65535;
    }
    outbuf[i] = acc;
  }
}
void main() {
  inbuf = malloc(y);
  outbuf = malloc(y);
  for (int j = 0; j < x; j++) {
    for (int i = 0; i < y; i++) inbuf[i] = io_read();
    encode_frame();
    for (int i = 0; i < y; i++) io_write(outbuf[i]);
  }
}
)MINIC";

std::unique_ptr<CompiledProgram> compilePipeline() {
  std::string Diags;
  auto CP = compileForOffloading(kPipeline, CostModel::defaults(), {},
                                 &Diags);
  EXPECT_TRUE(CP != nullptr) << Diags;
  return CP;
}

TEST(PipelineTest, CompilesEndToEnd) {
  auto CP = compilePipeline();
  ASSERT_TRUE(CP);
  EXPECT_GE(CP->Partition.Choices.size(), 2u);
  EXPECT_GT(CP->numRealTasks(), 3u);
  EXPECT_FALSE(CP->Partition.EffectiveDims.empty());
  EXPECT_GT(CP->Partition.FullArcs, CP->Partition.SolvedArcs);
}

TEST(PipelineTest, ReportsDiagnosticsOnBadSource) {
  std::string Diags;
  auto CP = compileForOffloading("void main() { undeclared = 1; }",
                                 CostModel::defaults(), {}, &Diags);
  EXPECT_TRUE(CP == nullptr);
  EXPECT_NE(Diags.find("undeclared"), std::string::npos);
}

TEST(PipelineTest, ParameterPointFillsMonomials) {
  auto CP = compilePipeline();
  std::vector<Rational> Point = CP->parameterPoint({4, 8, 100});
  EXPECT_EQ(Point[0], Rational(4));
  EXPECT_EQ(Point[1], Rational(8));
  EXPECT_EQ(Point[2], Rational(100));
  // Some monomial dimension exists and carries the consistent product.
  ParamId XY = CP->Space.internMonomial({0, 1});
  EXPECT_EQ(Point[XY], Rational(32));
}

TEST(TransformTest, GuardOmitsDomainBounds) {
  auto CP = compilePipeline();
  for (unsigned C = 0; C != CP->Partition.Choices.size(); ++C) {
    std::string Guard = renderGuard(*CP, C);
    EXPECT_FALSE(Guard.empty());
    // Domain bounds like "x <= 64" alone must not appear (they carry no
    // decision information); comparisons between cost terms do.
    EXPECT_EQ(Guard.find("x <= 64"), std::string::npos) << Guard;
  }
}

TEST(TransformTest, RenderedProgramHasDispatch) {
  auto CP = compilePipeline();
  std::string Text = renderTransformedProgram(*CP);
  EXPECT_NE(Text.find("partitioning 1 when"), std::string::npos);
  // encode_frame moves between hosts across choices, so it dispatches.
  EXPECT_NE(Text.find("server_encode_frame"), std::string::npos);
  EXPECT_NE(Text.find("client_encode_frame"), std::string::npos);
}

TEST(TransformTest, GuardsAreDisjointOnSamples) {
  // At any concrete parameter point, at most one choice's full region
  // contains it (regions are carved from disjoint frontier pieces within
  // a slice).
  auto CP = compilePipeline();
  for (int64_t X : {1, 16, 64})
    for (int64_t Y : {1, 64, 256})
      for (int64_t Z : {1, 512, 4096}) {
        std::vector<Rational> Point = CP->parameterPoint({X, Y, Z});
        std::vector<Rational> Eff(CP->Partition.EffectiveDims.size());
        for (unsigned K = 0; K != Eff.size(); ++K)
          Eff[K] = Point[CP->Partition.EffectiveDims[K]];
        unsigned Containing = 0;
        for (const PartitionChoice &Choice : CP->Partition.Choices)
          Containing += Choice.Region.contains(Eff);
        EXPECT_LE(Containing, 1u) << X << "," << Y << "," << Z;
      }
}

// Two offloadable callees with different work parameters: the order the
// front end processes them in is the order the monomials x*z and x*w
// are interned in, and so the order of the terms in the rendered sums.
const char *kTwoStages = R"MINIC(
param int x in [1, 64];
param int z in [1, 4096];
param int w in [1, 4096];
int *inbuf;
int *midbuf;
int *outbuf;
void stage1() {
  for (int i = 0; i < 32; i++) {
    int acc = inbuf[i];
    @trip(z) for (int k = 0; k < 1000000000; k++) {
      if (k >= z) break;
      acc = (acc * 3 + 1) & 65535;
    }
    midbuf[i] = acc;
  }
}
void stage2() {
  for (int i = 0; i < 32; i++) {
    int acc = midbuf[i];
    @trip(w) for (int k = 0; k < 1000000000; k++) {
      if (k >= w) break;
      acc = (acc * 5 + 7) & 65535;
    }
    outbuf[i] = acc;
  }
}
void main() {
  inbuf = malloc(32);
  midbuf = malloc(32);
  outbuf = malloc(32);
  for (int j = 0; j < x; j++) {
    for (int i = 0; i < 32; i++) inbuf[i] = io_read();
    stage1();
    stage2();
    for (int i = 0; i < 32; i++) io_write(outbuf[i]);
  }
}
)MINIC";

TEST(TransformTest, RenderDoesNotDependOnHeapAddresses) {
  std::mt19937 Rng(12345);
  std::vector<std::unique_ptr<char[]>> Noise;
  std::string First;
  int Differing = 0;
  for (int Compile = 0; Compile != 12; ++Compile) {
    std::string Diags;
    auto CP = compileForOffloading(kTwoStages, CostModel::defaults(), {},
                                   &Diags);
    ASSERT_TRUE(CP) << Diags;
    std::string Rendered = renderTransformedProgram(*CP);
    if (Compile == 0)
      First = Rendered;
    else if (Rendered != First)
      ++Differing;
    // Shift where the next compile's AST nodes land on the heap.
    for (int K = 0; K != 64; ++K)
      Noise.emplace_back(new char[16 + Rng() % 512]);
    for (int K = 0; K != 32; ++K)
      Noise.erase(Noise.begin() + static_cast<long>(Rng() % Noise.size()));
  }
  EXPECT_EQ(Differing, 0) << "of 11 recompiles rendered differently";
}

} // namespace
