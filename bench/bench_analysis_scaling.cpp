//===- bench/bench_analysis_scaling.cpp - Solver throughput scaling -------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Measures the rebuilt parametric solver: per paper program, the analysis
// wall time at several thread counts together with the solver's work
// counters (min-cut solves, point-cache and cut-signature hit rates, and
// the machine-tier share), plus a synthetic layered-network sweep
// comparing the checked __int128 max-flow against the BigInt solver.
//
// Emits BENCH_analysis.json (override with --out FILE); --quick shrinks
// the sweeps for CI.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/ThreadPool.h"

#include <chrono>
#include <cstring>

using namespace paco;
using namespace paco::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

double rate(unsigned Hits, unsigned Total) {
  return Total == 0 ? 0.0 : double(Hits) / double(Total);
}

/// A layered s-t network: Layers * Width interior nodes, complete
/// bipartite arcs between adjacent layers, pseudo-random constant
/// capacities.
FlowNetwork makeLayeredNetwork(unsigned Layers, unsigned Width,
                               uint64_t Seed) {
  auto NextRand = [&Seed]() {
    Seed ^= Seed << 13;
    Seed ^= Seed >> 7;
    Seed ^= Seed << 17;
    return Seed;
  };
  FlowNetwork Net;
  std::vector<std::vector<NodeId>> Nodes(Layers);
  for (unsigned L = 0; L != Layers; ++L)
    for (unsigned W = 0; W != Width; ++W)
      Nodes[L].push_back(Net.addNode("n" + std::to_string(L) + "_" +
                                     std::to_string(W)));
  auto cap = [&]() {
    return Capacity::finite(
        LinExpr::constant(int64_t(NextRand() % 1000 + 1)));
  };
  for (NodeId N : Nodes.front())
    Net.addArc(Net.source(), N, cap());
  for (unsigned L = 0; L + 1 != Layers; ++L)
    for (NodeId From : Nodes[L])
      for (NodeId To : Nodes[L + 1])
        Net.addArc(From, To, cap());
  for (NodeId N : Nodes.back())
    Net.addArc(N, Net.sink(), cap());
  return Net;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  const char *OutPath = "BENCH_analysis.json";
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(argv[I], "--out") == 0 && I + 1 != argc)
      OutPath = argv[++I];
    else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE]\n", argv[0]);
      return 1;
    }
  }

  std::vector<unsigned> ThreadCounts =
      Quick ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};

  std::FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath);
    return 1;
  }
  std::fprintf(Out, "{\n  \"quick\": %s,\n  \"hardware_threads\": %u,\n",
               Quick ? "true" : "false", ThreadPool::hardwareThreads());

  // Per-program thread sweep: recompute the partitioning from the cached
  // compile's problem so only solver time is measured.
  std::printf("== Parametric analysis scaling ==\n\n");
  std::printf("%-11s %8s %9s %8s %10s %10s %9s\n", "Program", "threads",
              "seconds", "solves", "ptcache", "sigcache", "fastpath");
  std::fprintf(Out, "  \"programs\": [\n");
  bool FirstProgram = true;
  for (const programs::BenchProgram &P : programs::allPrograms()) {
    ParametricOptions CompileOpts;
    CompileOpts.Threads = 1;
    std::shared_ptr<CompiledProgram> CP = compiled(P.Name, CompileOpts);
    std::fprintf(Out, "%s    {\"name\": \"%s\", \"choices\": %zu, "
                      "\"runs\": [\n",
                 FirstProgram ? "" : ",\n", P.Name,
                 CP->Partition.Choices.size());
    FirstProgram = false;
    bool FirstRun = true;
    for (unsigned Threads : ThreadCounts) {
      ParametricOptions Opts;
      Opts.Threads = Threads;
      ParamSpace Space = CP->Space;
      auto Start = std::chrono::steady_clock::now();
      ParametricResult R = solveParametric(CP->Problem, Space, Opts);
      double Seconds = secondsSince(Start);
      if (R.Choices.size() != CP->Partition.Choices.size()) {
        std::fprintf(stderr, "error: %s with %u threads diverged\n",
                     P.Name, Threads);
        return 1;
      }
      std::printf("%-11s %8u %8.2fs %8u %9.1f%% %9.1f%% %8.1f%%\n", P.Name,
                  Threads, Seconds, R.FlowSolves,
                  100 * rate(R.PointCacheHits,
                             R.PointCacheHits + R.FlowSolves),
                  100 * rate(R.CutSignatureHits, R.FlowSolves),
                  100 * rate(R.FastPathSolves, R.FlowSolves));
      std::fprintf(
          Out,
          "%s      {\"threads\": %u, \"seconds\": %.4f, "
          "\"flow_solves\": %u, \"point_cache_hits\": %u, "
          "\"cut_signature_hits\": %u, \"fast_path_solves\": %u, "
          "\"bigint_solves\": %u, \"point_cache_hit_rate\": %.4f, "
          "\"cut_signature_hit_rate\": %.4f}",
          FirstRun ? "" : ",\n", Threads, Seconds, R.FlowSolves,
          R.PointCacheHits, R.CutSignatureHits, R.FastPathSolves,
          R.BigIntSolves,
          rate(R.PointCacheHits, R.PointCacheHits + R.FlowSolves),
          rate(R.CutSignatureHits, R.FlowSolves));
      FirstRun = false;
    }
    std::fprintf(Out, "\n    ]}");
  }
  std::fprintf(Out, "\n  ],\n");

  // Synthetic layered networks: checked-__int128 Dinic vs the BigInt solver
  // on identical instances.
  std::vector<std::pair<unsigned, unsigned>> Sizes =
      Quick ? std::vector<std::pair<unsigned, unsigned>>{{4, 8}, {8, 12}}
            : std::vector<std::pair<unsigned, unsigned>>{
                  {4, 8}, {8, 12}, {12, 16}, {16, 24}};
  unsigned Reps = Quick ? 3 : 10;
  std::printf("\n== Min-cut solver: int128 machine tier vs BigInt ==\n\n");
  std::printf("%6s %6s %12s %12s %8s\n", "nodes", "arcs", "int128_ms",
              "bigint_ms", "ratio");
  std::fprintf(Out, "  \"mincut_scaling\": [\n");
  bool FirstSize = true;
  for (auto [Layers, Width] : Sizes) {
    FlowNetwork Net =
        makeLayeredNetwork(Layers, Width, 0x9e3779b97f4a7c15ull + Layers);
    std::vector<Rational> Point; // constant capacities: empty space
    double FastMs = 0, BigMs = 0;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      auto Start = std::chrono::steady_clock::now();
      CutStructure Fast = solveMinCutStructure(Net, Point);
      FastMs += secondsSince(Start) * 1000;
      Start = std::chrono::steady_clock::now();
      CutStructure Big =
          solveMinCutStructure(Net, Point, /*ForceBigInt=*/true);
      BigMs += secondsSince(Start) * 1000;
      if (!Fast.UsedFastPath || Fast.SourceSide != Big.SourceSide) {
        std::fprintf(stderr, "error: solver mismatch at %ux%u\n", Layers,
                     Width);
        return 1;
      }
    }
    FastMs /= Reps;
    BigMs /= Reps;
    std::printf("%6u %6zu %11.3f %11.3f %7.1fx\n", Net.numNodes(),
                Net.arcs().size(), FastMs, BigMs,
                FastMs > 0 ? BigMs / FastMs : 0.0);
    std::fprintf(Out,
                 "%s    {\"nodes\": %u, \"arcs\": %zu, "
                 "\"int128_ms\": %.4f, \"bigint_ms\": %.4f}",
                 FirstSize ? "" : ",\n", Net.numNodes(), Net.arcs().size(),
                 FastMs, BigMs);
    FirstSize = false;
  }
  std::fprintf(Out, "\n  ],\n");
  writeStatsMember(Out);
  std::fprintf(Out, "\n}\n");
  std::fclose(Out);
  std::printf("\nwrote %s\n", OutPath);
  return 0;
}
