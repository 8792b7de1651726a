//===- bench/bench_microkernels.cpp - Substrate microbenchmarks -----------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the substrates the analysis is
// built on: exact big-integer arithmetic, the double-description
// conversion, the exact min-cut solver, the end-to-end compilation of a
// small program, and the interpreter's instruction throughput.
//
//===----------------------------------------------------------------------===//

#include "dispatch/DispatchIndex.h"
#include "interp/Interp.h"
#include "poly/Polyhedron.h"
#include "programs/Programs.h"

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

using namespace paco;

namespace {

void BM_BigIntMulDiv(benchmark::State &State) {
  BigInt A = BigInt::fromString("123456789123456789123456789");
  BigInt B = BigInt::fromString("987654321987654321");
  for (auto _ : State) {
    BigInt Product = A * B;
    benchmark::DoNotOptimize(Product = Product / B);
  }
}
BENCHMARK(BM_BigIntMulDiv);

void BM_BigIntSmallGcd(benchmark::State &State) {
  // gcds of int64-sized values sharing a factor, the shape
  // Rational::normalize sees; one gcd per iteration.
  std::vector<std::pair<BigInt, BigInt>> Pairs;
  uint64_t Seed = static_cast<uint64_t>(State.range(0));
  auto Next = [&Seed]() {
    Seed ^= Seed << 13;
    Seed ^= Seed >> 7;
    Seed ^= Seed << 17;
    return static_cast<int64_t>(Seed % 1000000007) + 1;
  };
  for (int I = 0; I != 64; ++I) {
    int64_t Common = Next() % 5000 + 1;
    Pairs.emplace_back(BigInt(Common * Next()), BigInt(-Common * Next()));
  }
  size_t I = 0;
  for (auto _ : State) {
    const auto &[A, B] = Pairs[I++ % Pairs.size()];
    benchmark::DoNotOptimize(BigInt::gcd(A, B));
  }
}
BENCHMARK(BM_BigIntSmallGcd)->Arg(88172645463325252);

void BM_RationalSum(benchmark::State &State) {
  for (auto _ : State) {
    Rational Sum;
    for (int64_t I = 1; I <= 50; ++I)
      Sum += Rational::fraction(1, I);
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_RationalSum);

void BM_CapacityEvaluate(benchmark::State &State) {
  // One arc capacity of solveMinCutStructure's inner loop: a multi-term
  // affine cost evaluated exactly at a rational sample point.
  const int64_t Scale = State.range(0);
  LinExpr Cap(Rational::fraction(3, 2));
  Cap.addTerm(0, Rational::fraction(17, 3));
  Cap.addTerm(1, Rational(Scale));
  Cap.addTerm(2, Rational::fraction(1, 7));
  Cap.addTerm(3, Rational::fraction(Scale, 9));
  std::vector<Rational> Point = {Rational(8), Rational::fraction(65, 2),
                                 Rational::fraction(4000, 3),
                                 Rational::fraction(5, 4)};
  for (auto _ : State)
    benchmark::DoNotOptimize(Cap.evaluate(Point));
}
BENCHMARK(BM_CapacityEvaluate)->Arg(1000);

void BM_PolyhedronVertices(benchmark::State &State) {
  const unsigned Dim = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    Polyhedron Box(Dim);
    for (unsigned K = 0; K != Dim; ++K) {
      std::vector<BigInt> Up(Dim), Down(Dim);
      Up[K] = BigInt(1);
      Down[K] = BigInt(-1);
      Box.addConstraint(LinConstraint(std::move(Up), BigInt(0)));
      Box.addConstraint(LinConstraint(std::move(Down), BigInt(1000)));
    }
    // One diagonal face to break the pure-box structure.
    std::vector<BigInt> Diag(Dim, BigInt(-1));
    Box.addConstraint(LinConstraint(std::move(Diag), BigInt(900 * Dim)));
    benchmark::DoNotOptimize(Box.generators().Vertices.size());
  }
}
BENCHMARK(BM_PolyhedronVertices)->Arg(3)->Arg(5)->Arg(7);

void BM_MinCutGrid(benchmark::State &State) {
  // A K x K grid network with constant capacities.
  const unsigned K = static_cast<unsigned>(State.range(0));
  FlowNetwork Net;
  std::vector<std::vector<NodeId>> Grid(K, std::vector<NodeId>(K));
  for (unsigned R = 0; R != K; ++R)
    for (unsigned C = 0; C != K; ++C)
      Grid[R][C] = Net.addNode("n");
  for (unsigned R = 0; R != K; ++R) {
    Net.addArc(Net.source(), Grid[R][0],
               Capacity::finite(LinExpr::constant(7 + R)));
    Net.addArc(Grid[R][K - 1], Net.sink(),
               Capacity::finite(LinExpr::constant(5 + R)));
    for (unsigned C = 0; C + 1 != K; ++C) {
      Net.addArc(Grid[R][C], Grid[R][C + 1],
                 Capacity::finite(LinExpr::constant(3 + ((R + C) % 5))));
      if (R + 1 != K)
        Net.addArc(Grid[R][C], Grid[R + 1][C],
                   Capacity::finite(LinExpr::constant(2 + ((R * C) % 3))));
    }
  }
  ParamSpace Space;
  std::vector<Rational> Point(Space.size());
  for (auto _ : State)
    benchmark::DoNotOptimize(solveMinCut(Net, Point).CutArcs.size());
}
BENCHMARK(BM_MinCutGrid)->Arg(8)->Arg(16);

const char *kSmallProgram = R"MINIC(
param int n in [1, 1024];
int *buf;
void work() {
  for (int i = 0; i < n; i++)
    buf[i] = (buf[i] * 3 + 1) & 255;
}
void main() {
  buf = malloc(n);
  io_read_buf(buf, n);
  work();
  io_write_buf(buf, n);
}
)MINIC";

void BM_CompilePipeline(benchmark::State &State) {
  for (auto _ : State) {
    std::string Diags;
    auto CP = compileForOffloading(kSmallProgram, CostModel::defaults(), {},
                                   &Diags);
    benchmark::DoNotOptimize(CP->Partition.Choices.size());
  }
}
BENCHMARK(BM_CompilePipeline);

void BM_InterpreterThroughput(benchmark::State &State) {
  std::string Diags;
  auto CP = compileForOffloading(kSmallProgram, CostModel::defaults(), {},
                                 &Diags);
  std::vector<int64_t> Inputs(1024, 7);
  uint64_t Instrs = 0;
  for (auto _ : State) {
    ExecOptions Opts;
    Opts.ParamValues = {1024};
    Opts.Inputs = Inputs;
    ExecResult R = runProgram(*CP, Opts);
    Instrs += R.ClientInstrs + R.ServerInstrs;
    benchmark::DoNotOptimize(R.Outputs.size());
  }
  State.counters["instrs/s"] = benchmark::Counter(
      static_cast<double>(Instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput);

/// fft compiled once per process for the dispatch-latency baselines.
const CompiledProgram &fftCompiled() {
  static std::shared_ptr<CompiledProgram> CP = [] {
    std::string Diags;
    auto P = compileForOffloading(programs::programByName("fft").Source,
                                  CostModel::defaults(), {}, &Diags);
    if (!P) {
      std::fprintf(stderr, "fft failed to compile:\n%s", Diags.c_str());
      std::exit(1);
    }
    return P;
  }();
  return *CP;
}

std::vector<int64_t> fftMidParams() {
  const CompiledProgram &CP = fftCompiled();
  std::vector<int64_t> Mid;
  for (unsigned I = 0; I != CP.AST->RuntimeParams.size(); ++I)
    Mid.push_back((CP.Space.lower(I).toInt64() + CP.Space.upper(I).toInt64()) /
                  2);
  return Mid;
}

void BM_DispatchPickLinear(benchmark::State &State) {
  const CompiledProgram &CP = fftCompiled();
  std::vector<int64_t> Mid = fftMidParams();
  std::vector<Rational> Full = CP.parameterPoint(Mid);
  PickScratch Scratch;
  for (auto _ : State)
    benchmark::DoNotOptimize(CP.Partition.pickChoice(Full, Scratch));
}
BENCHMARK(BM_DispatchPickLinear);

void BM_DispatchPickIndexed(benchmark::State &State) {
  const CompiledProgram &CP = fftCompiled();
  static DispatchIndex Index(
      CP.Partition, CP.Space,
      static_cast<unsigned>(CP.AST->RuntimeParams.size()));
  std::vector<int64_t> Mid = fftMidParams();
  DispatchScratch Scratch;
  for (auto _ : State)
    benchmark::DoNotOptimize(Index.pick(Mid.data(), Mid.size(), Scratch));
}
BENCHMARK(BM_DispatchPickIndexed);

} // namespace

BENCHMARK_MAIN();
