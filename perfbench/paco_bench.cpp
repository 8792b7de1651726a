//===- perfbench/paco_bench.cpp - Workload benchmark harness --------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Runs one named workload against the PACO library and prints its
// metrics. Every layer is measured from outside, by timing calls into its
// public functions; work counts are StatsRegistry snapshot deltas taken
// around those calls. Workloads:
//
//   analyze  source -> compileForOffloading -> renderTransformedProgram ->
//            DispatchIndex for the five small Table-3 programs
//   execute  runProgram under Placement::Dispatch on a clean link, and
//            under AdaptationPolicy::ClosedLoop with a RuntimeRecorder and
//            an EventLog over clean, drifting, lossy and crashing links
//   serve    DispatchService::dispatchBatch over seeded request streams
//
// Usage:
//   paco_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--spans FILE]
//
// min(4, hardware threads) workers run analyze and execute concurrently,
// and serve's DispatchService uses as many threads; the parametric solver
// always runs single-threaded. The
// last line of standard output is one JSON object {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the run records spans (name, start, end, parent, request
// id, worker), writes them to --spans as JSON lines at exit, and reports
// the per-layer metrics instead.
//
//===----------------------------------------------------------------------===//

#include "dispatch/DispatchService.h"
#include "interp/Interp.h"
#include "obs/Stats.h"
#include "partition/Reprice.h"
#include "programs/Programs.h"
#include "support/ThreadPool.h"
#include "transform/Transform.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace paco;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point A) {
  return std::chrono::duration<double>(Clock::now() - A).count();
}

/// Linear-interpolated quantile (\p Q in [0, 1]) of \p Values.
double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}

double peakRssMB() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// The number of concurrent workers of analyze and execute, and the
/// DispatchService thread count of serve: fixed, and never more than the
/// machine has.
const unsigned NumThreads = std::min(4u, ThreadPool::hardwareThreads());

/// NumThreads threads that live for the whole run; the main thread only
/// waits. Worker W always runs on the same thread and keeps its allocator
/// arena from phase to phase, and items go to workers statically, so peak
/// RSS does not depend on which thread picked up which item. With
/// support/ThreadPool instead, whose caller joins in and whose threads
/// claim items in any order, serve's peak RSS read 69.8-85.4 MB over five
/// seeds, against 67.0-67.6 MB with this group (3-s runs, 4-core Xeon).
class WorkerGroup {
public:
  WorkerGroup() {
    for (unsigned W = 0; W != NumThreads; ++W)
      Threads.emplace_back([this, W] { loop(W); });
  }
  WorkerGroup(const WorkerGroup &) = delete;
  WorkerGroup &operator=(const WorkerGroup &) = delete;
  ~WorkerGroup() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stop = true;
    }
    Wake.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  /// Runs Body(W) on workers 0 .. N-1 (N <= NumThreads) and waits for them.
  void run(unsigned N, const std::function<void(unsigned)> &Body) {
    std::unique_lock<std::mutex> Lock(M);
    Job = &Body;
    Active = N;
    Pending = NumThreads;
    ++Generation;
    Wake.notify_all();
    Done.wait(Lock, [this] { return Pending == 0; });
    Job = nullptr;
  }

private:
  void loop(unsigned W) {
    uint64_t Seen = 0;
    std::unique_lock<std::mutex> Lock(M);
    while (true) {
      Wake.wait(Lock, [&] { return Stop || Generation != Seen; });
      if (Stop)
        return;
      Seen = Generation;
      const std::function<void(unsigned)> *Body = W < Active ? Job : nullptr;
      Lock.unlock();
      if (Body)
        (*Body)(W);
      Lock.lock();
      if (--Pending == 0)
        Done.notify_all();
    }
  }

  std::mutex M;
  std::condition_variable Wake, Done;
  const std::function<void(unsigned)> *Job = nullptr;
  unsigned Active = 0, Pending = 0;
  uint64_t Generation = 0;
  bool Stop = false;
  /// Last: the threads use every member above.
  std::vector<std::thread> Threads;
};

/// Runs Body(W, I) for every I in [0, N); worker W takes the items with
/// I % NumThreads == W.
void parallelItems(WorkerGroup &Workers, size_t N,
                   const std::function<void(unsigned, size_t)> &Body) {
  Workers.run(NumThreads, [&](unsigned W) {
    for (size_t I = W; I < N; I += NumThreads)
      Body(W, I);
  });
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One thread's in-memory span recorder for the traced run. Spans nest: a
/// span opened while another is open records it as its parent. Nothing is
/// written until the run ends.
class SpanLog {
public:
  SpanLog(bool Enabled, Clock::time_point Epoch)
      : Enabled(Enabled), Epoch(Epoch) {}

  int open(const std::string &Name, uint64_t Request) {
    if (!Enabled)
      return -1;
    Span S;
    S.Name = Name;
    S.Start = secondsSince(Epoch);
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Request = Request;
    Spans.push_back(std::move(S));
    Stack.push_back(static_cast<int>(Spans.size() - 1));
    return Stack.back();
  }

  void close(int Id) {
    if (Id < 0)
      return;
    Spans[Id].End = secondsSince(Epoch);
    if (!Stack.empty() && Stack.back() == Id)
      Stack.pop_back();
  }

  /// Appends one JSON object per span; ids are offset by \p Base so that
  /// several logs share one id space.
  void write(std::FILE *Out, unsigned Worker, size_t Base) const {
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      long long Parent = S.Parent < 0 ? -1 : static_cast<long long>(Base) +
                                                 S.Parent;
      std::fprintf(Out,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %lld, \"request\": %llu, "
                   "\"worker\": %u}\n",
                   Base + I, S.Name.c_str(), S.Start, S.End, Parent,
                   static_cast<unsigned long long>(S.Request), Worker);
    }
  }
  size_t size() const { return Spans.size(); }

private:
  struct Span {
    std::string Name;
    double Start = 0, End = 0;
    int Parent = -1;
    uint64_t Request = 0;
  };
  bool Enabled;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// One SpanLog per thread: index 0 is the main thread, 1 + W is worker W.
class SpanSet {
public:
  SpanSet(bool Enabled, unsigned Workers) {
    Clock::time_point Epoch = Clock::now();
    for (unsigned I = 0; I != Workers + 1; ++I)
      Logs.emplace_back(Enabled, Epoch);
  }
  SpanLog &main() { return Logs[0]; }
  SpanLog &worker(unsigned W) { return Logs[1 + W]; }

  bool write(const std::string &Path) const {
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out)
      return false;
    size_t Base = 0;
    for (size_t I = 0; I != Logs.size(); ++I) {
      // Worker ids: the main thread is reported as worker 0, workers 1..T.
      Logs[I].write(Out, static_cast<unsigned>(I), Base);
      Base += Logs[I].size();
    }
    return std::fclose(Out) == 0;
  }

private:
  std::vector<SpanLog> Logs;
};

/// Stage wall times of one round, keyed by stage name.
using StageTimes = std::map<std::string, double>;

/// Times one call into a layer: opens a span (when tracing) and adds the
/// wall time to \p Acc[Name].
template <typename Fn>
auto timed(SpanLog &Log, StageTimes &Acc, const std::string &Name,
           uint64_t Request, Fn &&Body) {
  int Id = Log.open(Name, Request);
  struct Closer {
    SpanLog &Log;
    int Id;
    double &Slot;
    Clock::time_point T0;
    ~Closer() {
      Slot += secondsSince(T0);
      Log.close(Id);
    }
  } C{Log, Id, Acc[Name], Clock::now()};
  return Body();
}

//===----------------------------------------------------------------------===//
// Registry deltas and the metric report
//===----------------------------------------------------------------------===//

obs::StatsSnapshot snapshot() {
  return obs::StatsRegistry::global().snapshot();
}

/// The value of a counter the registry does not list. Counters register on
/// first use, so one that never fired reads 0, unless PACO_DISABLE_OBS
/// compiled the instrumentation out; then it is absent.
std::optional<double> unlistedCounter() {
#ifdef PACO_DISABLE_OBS
  return std::nullopt;
#else
  return 0.0;
#endif
}

std::optional<double> ratio(std::optional<double> Num,
                            std::optional<double> Den) {
  if (!Num || !Den)
    return std::nullopt;
  return *Den > 0 ? *Num / *Den : 0.0;
}

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics, as BENCHMARK.json lists them. Every untraced run
/// reports all of them.
const MetricSpec EndToEndMetrics[] = {
    {"setup_s", "s"},
    {"round_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics, as BENCHMARK.json lists them. Every traced run
/// reports all of them; a layer the workload does not call reads 0.
const MetricSpec PerLayerMetrics[] = {
    {"threads", "count"},
    {"solver_threads", "count"},
    // analyze: stage times summed over the five programs, per round.
    {"lang_s.small", "s"},
    {"ir_s.small", "s"},
    {"analysis_s.small", "s"},
    {"tcfg_s.small", "s"},
    {"cost_s.small", "s"},
    {"partition_s.small", "s"},
    {"transform_s.small", "s"},
    {"dispatch_build_s.small", "s"},
    {"unattributed_s.small", "s"},
    {"trace_overhead_s.small", "s"},
    {"ir.cost_terms", "count"},
    {"tcfg.tasks", "count"},
    {"cost.network_arcs", "count"},
    {"partition.flow_solves", "count"},
    {"partition.point_cache_hit_rate", "ratio"},
    {"partition.cut_signature_hit_rate", "ratio"},
    {"partition.choices", "count"},
    {"netflow.bigint_solves", "count"},
    {"poly.dd_ray_combinations", "count"},
    {"poly.dd_halfspaces", "count"},
    {"poly.generator_cache_hits", "count"},
    {"transform.rendered_bytes", "bytes"},
    {"transform.reordered_render_share", "ratio"},
    {"dispatch.index_nodes", "count"},
    // execute: per round of the run set; interp_s through
    // runtime.transfer_share cover the Placement::Dispatch runs, the rest
    // the closed-loop runs.
    {"interp_s", "s"},
    {"exec_minstr_per_s", "Minstr/s"},
    {"sim_speedup", "ratio"},
    {"interp.instructions", "count"},
    {"interp.transfers", "count"},
    {"interp.transfer_bytes", "bytes"},
    {"runtime.transfer_share", "ratio"},
    {"closed_loop_s", "s"},
    {"closed_loop.instructions", "count"},
    {"obs.render_s", "s"},
    {"obs.events", "count"},
    {"adapt.redispatches", "count"},
    {"adapt.retries", "count"},
    {"adapt.timeouts", "count"},
    {"adapt.crash_recoveries", "count"},
    {"adapt.ledger_restores", "count"},
    {"adapt.probes", "count"},
    {"adapt.ledger_syncs", "count"},
    {"sim.migrations", "count"},
    {"sim.transfers", "count"},
    {"sim.crashes", "count"},
    {"sim.restarts", "count"},
    {"sim.fallbacks", "count"},
    {"recovery.crash_rollbacks", "count"},
    {"recovery.reoffloads", "count"},
    // serve
    {"serve_qps", "1/s"},
    {"batch_ms_p50", "ms"},
    {"batch_ms_p99", "ms"},
    {"batch_samples", "count"},
    {"dispatch.pick_ns_p50", "ns"},
    {"dispatch.pick_ns_p99", "ns"},
    {"partition.pick_ns_p50", "ns"},
    {"dispatch.fast_path_share", "ratio"},
    {"dispatch.exact_confirm_share", "ratio"},
    {"dispatch.fallback_share", "ratio"},
    {"dispatch.node_visits_per_query", "count"},
    {"dispatch.leaf_tests_per_query", "count"},
    {"support.pool_idle_share", "ratio"},
};

/// Collects metric values and correctness checks, and prints the result.
/// check() may be called from several threads.
class Report {
public:
  explicit Report(bool Trace) : Trace(Trace) {}

  /// Records a metric; std::nullopt marks a counter this build does not
  /// register (PACO_DISABLE_OBS), which is left out rather than faked.
  void add(const std::string &Name, std::optional<double> Value) {
    auto Listed = [&](const auto &Table) {
      return std::any_of(std::begin(Table), std::end(Table),
                         [&](const MetricSpec &M) { return Name == M.Name; });
    };
    assert((Listed(EndToEndMetrics) || Listed(PerLayerMetrics)) &&
           "metric missing from the metric tables");
    if (!Value)
      Absent.push_back(Name);
    else
      Values[Name] = std::isfinite(*Value) ? *Value : 0.0;
  }

  void check(bool OK, const std::string &What) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Attempted;
    if (!OK && Failed++ < 20)
      std::printf("CHECK FAILED: %s\n", What.c_str());
  }
  uint64_t failed() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Failed;
  }

  /// Prints the absent-counter note and the final result line.
  void print() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Absent.empty()) {
      std::printf("absent (not registered in this build):");
      for (const std::string &Name : Absent)
        std::printf(" %s", Name.c_str());
      std::printf("\n");
    }
    std::string Line = "{\"correct\": ";
    Line += Failed == 0 ? "true" : "false";
    Line += ", \"attempted\": " + std::to_string(Attempted);
    Line += ", \"failed\": " + std::to_string(Failed);
    Line += ", \"metrics\": {";
    bool First = true;
    auto Emit = [&](const MetricSpec &M) {
      if (std::find(Absent.begin(), Absent.end(), M.Name) != Absent.end())
        return;
      auto It = Values.find(M.Name);
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g",
                    It == Values.end() ? 0.0 : It->second);
      Line += std::string(First ? "\"" : ", \"") + M.Name +
              "\": {\"value\": " + Buf + ", \"unit\": \"" + M.Unit + "\"}";
      First = false;
    };
    if (Trace)
      std::for_each(std::begin(PerLayerMetrics), std::end(PerLayerMetrics),
                    Emit);
    else
      std::for_each(std::begin(EndToEndMetrics), std::end(EndToEndMetrics),
                    Emit);
    Line += "}}";
    std::printf("%s\n", Line.c_str());
  }

private:
  bool Trace;
  std::map<std::string, double> Values;
  std::vector<std::string> Absent;
  mutable std::mutex Mutex;
  uint64_t Attempted = 0, Failed = 0;
};

//===----------------------------------------------------------------------===//
// Shared workload plumbing
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string SpansPath;
};

/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned SetupRepeats = 3;
/// The parametric solver's thread count. Concurrency comes from the
/// workers instead, so each compile is one thread's work and its time is
/// not blurred by the solver's slice scheduling.
constexpr unsigned SolverThreads = 1;

/// One program compiled the way the explorer prepares it for serving.
struct Compiled {
  std::string Name;
  std::unique_ptr<CompiledProgram> CP;
  std::string Rendered;
  std::unique_ptr<DispatchIndex> Index;
};

ParametricOptions solverOptions() {
  ParametricOptions PO;
  PO.Threads = SolverThreads;
  return PO;
}

/// What a workload needs compiled beyond compileForOffloading.
enum class Prepare { Run, Serve, Full };

/// source -> compileForOffloading [-> renderTransformedProgram]
/// [-> DispatchIndex], the real pipeline untouched. Prepare::Run stops after
/// compileForOffloading (all runProgram needs), Prepare::Serve adds the
/// index, Prepare::Full does everything the explorer does before serving.
Compiled compileChain(const std::string &Name, Prepare What, SpanLog &Log,
                      StageTimes &Acc, uint64_t Request) {
  Compiled C;
  C.Name = Name;
  const char *Source = programs::programByName(Name).Source;
  C.CP = timed(Log, Acc, "compile", Request, [&] {
    return compileForOffloading(Source, CostModel::defaults(),
                                solverOptions());
  });
  if (!C.CP || What == Prepare::Run)
    return C;
  if (What == Prepare::Full)
    C.Rendered = timed(Log, Acc, "transform", Request,
                       [&] { return renderTransformedProgram(*C.CP); });
  C.Index = timed(Log, Acc, "dispatch_build", Request, [&] {
    return std::make_unique<DispatchIndex>(
        C.CP->Partition, C.CP->Space,
        static_cast<unsigned>(C.CP->AST->RuntimeParams.size()));
  });
  return C;
}

/// Compiles \p Names concurrently on the workers.
std::vector<Compiled> compileAll(const std::vector<std::string> &Names,
                                 Prepare What, WorkerGroup &Workers,
                                 SpanSet &Spans) {
  std::vector<Compiled> Out(Names.size());
  parallelItems(Workers, Names.size(), [&](unsigned W, size_t I) {
    StageTimes Ignored;
    Out[I] = compileChain(Names[I], What, Spans.worker(W), Ignored, I);
  });
  return Out;
}

/// Registry counter deltas accumulated over several layer calls.
class CounterTotals {
public:
  void add(const obs::StatsSnapshot &Before, const obs::StatsSnapshot &After) {
    for (const auto &[Name, Value] : After.Counters) {
      auto B = Before.Counters.find(Name);
      Totals[Name] += Value - (B == Before.Counters.end() ? 0 : B->second);
    }
  }
  std::optional<double> get(const std::string &Name) const {
    auto It = Totals.find(Name);
    if (It == Totals.end())
      return unlistedCounter();
    return static_cast<double>(It->second);
  }

private:
  std::map<std::string, uint64_t> Totals;
};

/// The same chain with compileForOffloading split into its stages, called
/// in exactly compileForOffloading's order (inlining included). Stage
/// times land in \p Acc under lang_s, ir_s, analysis_s, tcfg_s, cost_s,
/// partition_s, transform_s and dispatch_build_s. When \p Counts is given,
/// registry deltas around each stage accumulate there (meaningful only
/// while no other thread compiles).
Compiled stagedChain(const std::string &Name, SpanLog &Log, StageTimes &Acc,
                     CounterTotals *Counts, uint64_t Request) {
  Compiled C;
  C.Name = Name;
  const char *Source = programs::programByName(Name).Source;
  auto CP = std::make_unique<CompiledProgram>();
  CP->Costs = CostModel::defaults();
  auto Stage = [&](const char *StageName, auto &&Body) {
    obs::StatsSnapshot Before;
    if (Counts)
      Before = snapshot();
    auto R = timed(Log, Acc, StageName, Request, Body);
    if (Counts)
      Counts->add(Before, snapshot());
    return R;
  };
  bool OK = Stage("lang_s", [&] {
    CP->AST = parseMiniC(Source, CP->Diags);
    if (CP->AST)
      CP->InlinedSites = inlineSmallFunctions(*CP->AST, InlineOptions());
    if (!CP->AST || !runSema(*CP->AST, CP->Diags))
      return false;
    CP->Symbolic = analyzeSymbolics(*CP->AST, CP->Space, CP->Diags);
    return !CP->Diags.hasErrors();
  });
  if (!OK)
    return C;
  OK = Stage("ir_s", [&] {
    LowerResult Lowered =
        lowerProgram(*CP->AST, CP->Symbolic, CP->Space, CP->Diags);
    if (!Lowered)
      return false;
    CP->Module = std::move(*Lowered);
    std::optional<PassStats> Stats =
        runPassPipeline(*CP->Module, CP->Space, PassOptions());
    if (!Stats)
      return false;
    CP->OptStats = *Stats;
    return true;
  });
  if (!OK)
    return C;
  Stage("analysis_s", [&] {
    CP->Memory = std::make_unique<MemoryModel>(*CP->Module, CP->Space);
    CP->PT = std::make_unique<PointsToResult>(
        runPointsTo(*CP->Module, *CP->Memory));
    return true;
  });
  Stage("tcfg_s", [&] {
    CP->Graph = buildTCFG(*CP->Module, *CP->Memory, *CP->PT);
    CP->Access = std::make_unique<TaskAccessInfo>(
        computeTaskAccess(*CP->Module, *CP->Memory, *CP->PT, CP->Graph));
    return true;
  });
  Stage("cost_s", [&] {
    CP->Problem = buildPartitionProblem(CP->Graph, *CP->Access, *CP->Memory,
                                        CP->Costs, CP->Space);
    return true;
  });
  Stage("partition_s", [&] {
    CP->Partition = solveParametric(CP->Problem, CP->Space, solverOptions());
    return true;
  });
  C.CP = std::move(CP);
  C.Rendered = Stage("transform_s",
                     [&] { return renderTransformedProgram(*C.CP); });
  C.Index = Stage("dispatch_build_s", [&] {
    return std::make_unique<DispatchIndex>(
        C.CP->Partition, C.CP->Space,
        static_cast<unsigned>(C.CP->AST->RuntimeParams.size()));
  });
  return C;
}

/// Runs \p Setup SetupRepeats times (the last result is kept) and returns
/// the median wall time.
double repeatedSetup(SpanLog &Log, const std::function<void()> &Setup) {
  std::vector<double> Times;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    int Id = Log.open("setup", I);
    Clock::time_point T0 = Clock::now();
    Setup();
    Times.push_back(secondsSince(T0));
    Log.close(Id);
  }
  return median(Times);
}

/// Fastest observed wall time of each operation of a round. On a shared
/// host the same compile, interpreter or dispatch work can run up to 1.7x
/// slower for seconds to minutes at a time, on each core on its own. So
/// analyze and execute report the sum of per-operation minima over all
/// workers and rounds (the best-case round), which the run's quiet moments
/// pin down, rather than a mean or a median, which drift with the
/// neighbours.
class BestTimes {
public:
  void add(const std::string &Op, double Seconds) {
    auto [It, New] = Min.emplace(Op, Seconds);
    if (!New)
      It->second = std::min(It->second, Seconds);
  }
  void merge(const BestTimes &Other) {
    for (const auto &[Op, Seconds] : Other.Min)
      add(Op, Seconds);
  }
  double sumMs() const {
    double Sum = 0;
    for (const auto &[Op, Seconds] : Min)
      Sum += Seconds;
    return Sum * 1e3;
  }

private:
  std::map<std::string, double> Min;
};

/// Tells a round whether the timed phase is over.
using Expiry = std::function<bool()>;

/// The timed phase: each of the first \p N workers calls Round(W, K,
/// Expired) for K = 0, 1, ... until \p Seconds have elapsed. A round checks
/// Expired() between its operations and returns false if it stopped early,
/// so the phase overruns by at most one operation; every worker completes
/// its first round. Returns every worker's complete-round wall times in
/// milliseconds.
std::vector<std::vector<double>>
timedRounds(SpanSet &Spans, WorkerGroup &Workers, unsigned N, double Seconds,
            const std::function<bool(unsigned, uint64_t, const Expiry &)>
                &Round) {
  std::vector<std::vector<double>> Ms(N);
  Clock::time_point Start = Clock::now();
  Workers.run(N, [&](unsigned W) {
    for (uint64_t K = 0;; ++K) {
      Expiry Expired = [&] { return K > 0 && secondsSince(Start) >= Seconds; };
      if (Expired())
        break;
      int Id = Spans.worker(W).open("round", K);
      Clock::time_point T0 = Clock::now();
      bool Complete = Round(W, K, Expired);
      if (Complete)
        Ms[W].push_back(secondsSince(T0) * 1e3);
      Spans.worker(W).close(Id);
      if (!Complete)
        break;
    }
  });
  return Ms;
}

/// End-to-end metrics every workload reports.
void reportEndToEnd(Report &R, double SetupS, double RoundMs) {
  R.add("setup_s", SetupS);
  R.add("round_ms", RoundMs);
  R.add("peak_rss_mb", peakRssMB());
}

/// Oracle query points: uniform in the declared parameter box.
std::vector<std::vector<int64_t>> uniformPoints(const CompiledProgram &CP,
                                                size_t Count,
                                                std::mt19937_64 &Rng) {
  std::vector<std::vector<int64_t>> Points(Count);
  for (std::vector<int64_t> &P : Points)
    for (unsigned I = 0; I != CP.AST->RuntimeParams.size(); ++I) {
      int64_t Lo = CP.Space.lower(I).toInt64();
      int64_t Hi = CP.Space.upper(I).toInt64();
      P.push_back(std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng));
    }
  return Points;
}

//===----------------------------------------------------------------------===//
// analyze
//===----------------------------------------------------------------------===//

struct ProgramExpectation {
  const char *Name;
  unsigned DistinctPartitionings; ///< EXPERIMENTS.md Table 4.
};

// susan (16 distinct partitionings) is left out: one compile takes over a
// minute, longer than a whole benchmark run may last.
const ProgramExpectation AnalyzePrograms[] = {
    {"rawcaudio", 1}, {"rawdaudio", 1}, {"encode", 7},
    {"decode", 8},    {"fft", 3},
};
constexpr size_t NumAnalyzePrograms = std::size(AnalyzePrograms);

/// Checks a compiled program against the paper's Table 4 and the exact
/// oracles at \p NumPoints seeded points: DispatchIndex::pick equals
/// pickChoice everywhere, and at the first \p NumRepriced points the
/// picked choice is no costlier than any other choice or the all-client
/// baseline under repriceChoice (exact Rationals).
void checkAnalysis(const Compiled &C, unsigned Expected, size_t NumPoints,
                   size_t NumRepriced, uint64_t Seed, Report &R) {
  const CompiledProgram &CP = *C.CP;
  R.check(CP.Partition.numDistinctPartitionings() == Expected,
          C.Name + ": distinct partitionings differ from Table 4");
  std::mt19937_64 Rng(Seed);
  DispatchScratch Scratch;
  size_t N = 0;
  for (const std::vector<int64_t> &P : uniformPoints(CP, NumPoints, Rng)) {
    std::vector<Rational> Full = CP.parameterPoint(P);
    unsigned Picked = C.Index->pick(P, Scratch);
    R.check(Picked == CP.Partition.pickChoice(Full),
            C.Name + ": DispatchIndex::pick differs from pickChoice");
    if (N++ >= NumRepriced)
      continue;
    auto Price = [&](unsigned Choice) {
      return repriceChoice(CP.Graph, *CP.Memory, CP.Problem, CP.Partition,
                           Choice, Full, CP.Costs);
    };
    Rational Best = Price(Picked);
    bool Optimal = !(Price(KNone) < Best);
    for (unsigned Other = 0; Optimal && Other != CP.Partition.Choices.size();
         ++Other)
      Optimal = !(Price(Other) < Best);
    R.check(Optimal, C.Name + ": picked choice is not the cheapest");
  }
}

/// One side of a parenthesised constraint with its " + "-separated terms
/// sorted.
std::string sortedTerms(const std::string &Side) {
  std::vector<std::string> Terms;
  for (size_t Pos = 0;;) {
    size_t Next = Side.find(" + ", Pos);
    Terms.push_back(Side.substr(Pos, Next - Pos));
    if (Next == std::string::npos)
      break;
    Pos = Next + 3;
  }
  std::sort(Terms.begin(), Terms.end());
  std::string Out;
  for (const std::string &T : Terms)
    Out += (Out.empty() ? "" : " + ") + T;
  return Out;
}

/// A constraint "(lhs OP rhs)" with the terms of both sides sorted.
std::string canonicalConstraint(const std::string &Atom) {
  std::string Body = Atom.substr(1, Atom.size() - 2);
  for (const char *Op : {" <= ", " == ", " >= ", " < ", " > "}) {
    size_t At = Body.find(Op);
    if (At == std::string::npos)
      continue;
    size_t Len = std::strlen(Op);
    return "(" + sortedTerms(Body.substr(0, At)) + Op +
           sortedTerms(Body.substr(At + Len)) + ")";
  }
  return Atom;
}

/// \p Text with the order of the terms of every sum and of the conjuncts
/// of every guard made canonical (sorted); every other byte is kept.
/// renderTransformedProgram prints both orders as ParamSpace interned the
/// monomials, and that order follows heap addresses (AST-pointer-keyed
/// maps): compiling fft 40 times in one thread, with different
/// allocations in between, gave 21 renders that differ from the first.
std::string canonicalRender(const std::string &Text) {
  // A conjunct is "(...)" with no parenthesis or line break inside.
  auto AtomEnd = [&](size_t Open) -> size_t {
    if (Text[Open] != '(')
      return std::string::npos;
    size_t Close = Text.find_first_of("()\n", Open + 1);
    return Close != std::string::npos && Text[Close] == ')'
               ? Close + 1
               : std::string::npos;
  };
  std::string Out;
  for (size_t Pos = 0; Pos < Text.size();) {
    size_t End = AtomEnd(Pos);
    if (End == std::string::npos) {
      Out += Text[Pos++];
      continue;
    }
    // A run of conjuncts joined by " && ".
    std::vector<std::string> Run;
    for (;;) {
      Run.push_back(canonicalConstraint(Text.substr(Pos, End - Pos)));
      Pos = End;
      if (Text.compare(Pos, 4, " && ") != 0)
        break;
      size_t NextEnd = AtomEnd(Pos + 4);
      if (NextEnd == std::string::npos)
        break;
      Pos += 4;
      End = NextEnd;
    }
    std::sort(Run.begin(), Run.end());
    for (size_t I = 0; I != Run.size(); ++I)
      Out += (I ? " && " : "") + Run[I];
  }
  return Out;
}

/// Compiles compared with the reference, and those whose rendered program
/// matched it only up to term and conjunct order.
std::atomic<uint64_t> RendersCompared{0}, RendersReordered{0};

/// Checks \p C against the reference compile of the same program: the same
/// choices (count and task placements) and the same rendered program, byte
/// for byte once canonicalRender has fixed the order of terms and
/// conjuncts. Renders that differ only in that order are counted.
void checkSameProgram(const Compiled &C, const Compiled &Ref, Report &R) {
  bool Same = C.CP && C.Index &&
              C.CP->Partition.Choices.size() ==
                  Ref.CP->Partition.Choices.size();
  for (size_t I = 0; Same && I != Ref.CP->Partition.Choices.size(); ++I)
    Same = C.CP->Partition.Choices[I].TaskOnServer ==
           Ref.CP->Partition.Choices[I].TaskOnServer;
  R.check(Same, C.Name + ": choices differ from the reference compile");
  ++RendersCompared;
  bool Identical = C.Rendered == Ref.Rendered;
  if (!Identical)
    ++RendersReordered;
  R.check(Identical ||
              canonicalRender(C.Rendered) == canonicalRender(Ref.Rendered),
          C.Name + ": rendered program differs from the reference compile");
}

const char *const StageNames[] = {"lang_s",      "ir_s",
                                  "analysis_s",  "tcfg_s",
                                  "cost_s",      "partition_s",
                                  "transform_s", "dispatch_build_s"};

int runAnalyze(const Options &O, SpanSet &Spans, WorkerGroup &Workers,
               Report &R) {
  std::vector<std::string> Names;
  for (const ProgramExpectation &P : AnalyzePrograms)
    Names.push_back(P.Name);
  std::vector<Compiled> Reference;
  double SetupS = repeatedSetup(Spans.main(), [&] {
    Reference.clear();
    Reference = compileAll(Names, Prepare::Full, Workers, Spans);
  });
  for (const Compiled &C : Reference)
    R.check(C.CP != nullptr, C.Name + ": does not compile");
  if (R.failed())
    return 1;

  // The traced run first walks the staged chain once per program on one
  // thread, for the registry counts and the staged-equals-real check.
  CounterTotals Counts;
  if (O.Trace)
    for (size_t I = 0; I != NumAnalyzePrograms; ++I) {
      StageTimes Ignored;
      checkSameProgram(
          stagedChain(Names[I], Spans.main(), Ignored, &Counts, I),
          Reference[I], R);
    }

  // Timed phase: every worker compiles the five programs per round. The
  // untraced run calls the real pipeline; the traced run alternates the
  // traced staged chain (even rounds) with the untraced real one (odd
  // rounds), so its tracing overhead is measured on the same workers.
  // Every result must reproduce the reference compile.
  std::vector<std::vector<StageTimes>> Staged(NumThreads);
  std::vector<std::vector<double>> Untraced(NumThreads);
  std::vector<BestTimes> Best(NumThreads);
  Clock::time_point RoundEpoch = Clock::now();
  timedRounds(
      Spans, Workers, NumThreads, O.Seconds,
      [&](unsigned W, uint64_t Round, const Expiry &Expired) {
        bool UseStaged = O.Trace && Round % 2 == 0;
        SpanLog Off(false, RoundEpoch);
        SpanLog &Log = O.Trace && !UseStaged ? Off : Spans.worker(W);
        StageTimes Stages;
        Clock::time_point RoundStart = Clock::now();
        for (size_t K = 0; K != NumAnalyzePrograms; ++K) {
          if (Expired())
            return false;
          size_t I = (K + W) % NumAnalyzePrograms;
          int Id = Log.open("program." + Names[I], I);
          Clock::time_point T0 = Clock::now();
          Compiled C =
              UseStaged ? stagedChain(Names[I], Log, Stages, nullptr, I)
                        : compileChain(Names[I], Prepare::Full, Log, Stages, I);
          Best[W].add(Names[I], secondsSince(T0));
          Log.close(Id);
          checkSameProgram(C, Reference[I], R);
        }
        if (UseStaged) {
          Stages["round_s"] = secondsSince(RoundStart);
          Staged[W].push_back(std::move(Stages));
        } else {
          Untraced[W].push_back(secondsSince(RoundStart));
        }
        return true;
      });

  parallelItems(Workers, NumAnalyzePrograms, [&](unsigned, size_t I) {
    checkAnalysis(Reference[I], AnalyzePrograms[I].DistinctPartitionings,
                  256, 12, O.Seed * NumAnalyzePrograms + I, R);
  });
  std::printf("renders matching the reference only up to term and conjunct "
              "order: %llu of %llu\n",
              static_cast<unsigned long long>(RendersReordered.load()),
              static_cast<unsigned long long>(RendersCompared.load()));

  if (!O.Trace) {
    BestTimes All;
    for (const BestTimes &B : Best)
      All.merge(B);
    reportEndToEnd(R, SetupS, All.sumMs());
    return 0;
  }
  // Per-layer: medians over traced rounds of each stage's time summed over
  // the programs; unattributed = round wall time minus the stage spans.
  std::vector<double> Rounds, UntracedRounds, Unattributed;
  std::map<std::string, std::vector<double>> PerStage;
  for (unsigned W = 0; W != NumThreads; ++W) {
    UntracedRounds.insert(UntracedRounds.end(), Untraced[W].begin(),
                          Untraced[W].end());
    for (StageTimes &S : Staged[W]) {
      double Sum = 0;
      for (const char *Name : StageNames) {
        PerStage[Name].push_back(S[Name]);
        Sum += S[Name];
      }
      Rounds.push_back(S["round_s"]);
      Unattributed.push_back(S["round_s"] - Sum);
    }
  }
  for (const char *Name : StageNames)
    R.add(std::string(Name) + ".small", median(PerStage[Name]));
  R.add("unattributed_s.small", median(Unattributed));
  if (UntracedRounds.empty())
    std::printf("trace_overhead_s.small: unmeasured, no untraced round\n");
  else
    R.add("trace_overhead_s.small", median(Rounds) - median(UntracedRounds));

  unsigned CostTerms = 0, Nodes = 0;
  size_t Bytes = 0;
  for (const Compiled &C : Reference) {
    CostTerms += C.CP->OptStats.CostTermsAfter;
    Nodes += C.Index->numNodes();
    Bytes += C.Rendered.size();
  }
  R.add("ir.cost_terms", CostTerms);
  for (const char *Name :
       {"tcfg.tasks", "cost.network_arcs", "partition.flow_solves",
        "partition.choices", "netflow.bigint_solves",
        "poly.dd_ray_combinations", "poly.dd_halfspaces",
        "poly.generator_cache_hits"})
    R.add(Name, Counts.get(Name));
  std::optional<double> Solves = Counts.get("partition.flow_solves");
  std::optional<double> Hits = Counts.get("partition.point_cache_hits");
  R.add("partition.point_cache_hit_rate",
        ratio(Hits, Hits && Solves ? std::optional(*Hits + *Solves)
                                   : std::nullopt));
  R.add("partition.cut_signature_hit_rate",
        ratio(Counts.get("partition.cut_signature_hits"), Solves));
  R.add("transform.rendered_bytes", static_cast<double>(Bytes));
  R.add("transform.reordered_render_share",
        static_cast<double>(RendersReordered.load()) /
            static_cast<double>(std::max<uint64_t>(1, RendersCompared.load())));
  R.add("dispatch.index_nodes", Nodes);
  return 0;
}

//===----------------------------------------------------------------------===//
// execute
//===----------------------------------------------------------------------===//

const char *const RunPrograms[] = {"rawcaudio", "rawdaudio", "encode",
                                   "decode", "fft"};

/// How a run adapts, and how its environment misbehaves.
enum class Scenario {
  Dispatch, ///< Placement::Dispatch, the default policy, a clean link.
  Clean,    ///< ClosedLoop on a clean link.
  Drift,    ///< ClosedLoop; the link's bandwidth collapses 64x.
  Crash,    ///< ClosedLoop; the server crashes and restarts.
  Lossy,    ///< ClosedLoop; 20% of message attempts are dropped, and
            ///< the second and third are lost to an outage.
};

struct RunSpec {
  std::string Program;
  std::vector<int64_t> Params;
  std::vector<int64_t> Inputs;
  Scenario Env = Scenario::Dispatch;
};

std::vector<int64_t> fftInputs(int64_t Waves, std::mt19937_64 &Rng) {
  std::vector<int64_t> In;
  for (int64_t W = 0; W != Waves; ++W)
    In.push_back(std::uniform_int_distribution<int64_t>(4, 40)(Rng));
  for (int64_t W = 0; W != Waves; ++W)
    In.push_back(std::uniform_int_distribution<int64_t>(10, 400)(Rng));
  return In;
}

/// The execute run set. The set is fixed; the seed draws the input data
/// (and the lossy link's fault seed), so every seed does comparable work.
///
/// Under Placement::Dispatch: the configurations of Figures 9-11 and the
/// section-6.2 speedup summary, at 8192 samples where the figures use
/// 2048, so that the instruction loop's share of the round is comparable
/// to the closed loop's.
///
/// Under AdaptationPolicy::ClosedLoop: every program on a clean link, plus
/// FFT runs whose environment drifts, drops messages, or crashes and
/// restarts the server. encode and decode stay in this mix at one-sample
/// frames: the closed loop costs milliseconds per simulated instruction on
/// them.
std::vector<RunSpec> executeSpecs(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  auto Data = [&] { return Rng() % 1000000; };
  std::vector<RunSpec> S;
  S.push_back({"rawcaudio", {8192}, programs::makeAudioSamples(8192, Data())});
  S.push_back({"rawdaudio", {8192}, programs::makeBytes(4097, Data())});
  // Figure 9: option combinations at 16 frames of 512 samples.
  const int64_t Combos[][4] = {{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 0},
                               {1, 0, 1, 0}, {0, 1, 1, 0}, {0, 0, 0, 1}};
  for (const auto &C : Combos)
    S.push_back({"encode",
                 {C[0], C[1], C[2], C[3], 16, 512},
                 programs::makeAudioSamples(8192, Data())});
  // Figure 10: buffer sizes at 8192 samples.
  for (int64_t Buf : {64, 256, 1024})
    S.push_back({"encode",
                 {0, 1, 0, 0, 8192 / Buf, Buf},
                 programs::makeAudioSamples(8192, Data())});
  S.push_back(
      {"decode", {0, 1, 0, 0, 16, 512}, programs::makeBytes(8192, Data())});
  S.push_back(
      {"decode", {0, 0, 1, 0, 32, 256}, programs::makeBytes(8192, Data())});
  // Figure 11: FFT sample counts.
  for (int64_t LogM = 5; LogM <= 12; ++LogM)
    S.push_back({"fft", {4, int64_t(1) << LogM, LogM, 0}, fftInputs(4, Rng)});
  S.push_back({"fft", {2, 64, 6, 0}, fftInputs(2, Rng)});

  S.push_back({"rawcaudio", {256}, programs::makeAudioSamples(256, Data()),
               Scenario::Clean});
  S.push_back({"rawdaudio", {256}, programs::makeBytes(129, Data()),
               Scenario::Clean});
  S.push_back({"encode", {0, 1, 0, 0, 1, 1},
               programs::makeAudioSamples(1, Data()), Scenario::Clean});
  S.push_back({"decode", {0, 1, 0, 0, 1, 1}, programs::makeBytes(1, Data()),
               Scenario::Clean});
  for (Scenario Env :
       {Scenario::Clean, Scenario::Drift, Scenario::Crash, Scenario::Lossy})
    S.push_back({"fft", {4, 1024, 10, 0}, fftInputs(4, Rng), Env});
  return S;
}

/// Closed-loop tuning for the disturbed runs (as in bench_recovery): react
/// within a few task boundaries and probe every boundary while degraded.
AdaptationOptions eagerClosedLoop() {
  AdaptationOptions A;
  A.Policy = AdaptationPolicy::ClosedLoop;
  A.Alpha = Rational::fraction(1, 2);
  A.MinSamples = 4;
  A.EvalPeriod = 1;
  A.MinDwellBoundaries = 4;
  A.ConfirmEvals = 2;
  A.MaxRedispatches = 4;
  A.ProbePeriodBoundaries = 1;
  return A;
}

struct PreparedRun {
  RunSpec Spec;
  const Compiled *Prog = nullptr;
  ExecOptions Opts;
  ExecResult Reference; ///< All-client run on a clean link.
  bool closedLoop() const { return Spec.Env != Scenario::Dispatch; }
};

/// Builds one run's options; disturbances are placed on the nominal
/// offloaded run's simulated clock.
PreparedRun prepareRun(RunSpec Spec, const std::vector<Compiled> &Programs,
                       uint64_t Seed) {
  PreparedRun P;
  P.Spec = std::move(Spec);
  for (const Compiled &C : Programs)
    if (C.Name == P.Spec.Program)
      P.Prog = &C;
  if (!P.Prog || !P.Prog->CP)
    return P;
  ExecOptions Local;
  Local.ParamValues = P.Spec.Params;
  Local.Inputs = P.Spec.Inputs;
  P.Reference = runProgram(*P.Prog->CP, Local);
  P.Opts = Local;
  P.Opts.Mode = ExecOptions::Placement::Dispatch;
  if (!P.closedLoop())
    return P;
  Rational T = runProgram(*P.Prog->CP, P.Opts).Time;
  P.Opts.Adapt.Policy = AdaptationPolicy::ClosedLoop;
  switch (P.Spec.Env) {
  case Scenario::Dispatch:
  case Scenario::Clean:
    break;
  case Scenario::Drift: {
    P.Opts.Adapt = eagerClosedLoop();
    DriftPhase D;
    D.At = T * Rational::fraction(1, 4);
    D.CommScale = Rational(64);
    P.Opts.Drift.Phases.push_back(D);
    break;
  }
  case Scenario::Crash: {
    P.Opts.Adapt = eagerClosedLoop();
    ServerCrash Crash;
    Crash.At = T * Rational::fraction(7, 8);
    Crash.RestartAt = Crash.At + T * Rational::fraction(1, 16);
    Crash.Restarts = true;
    P.Opts.Crash.Events.push_back(Crash);
    break;
  }
  case Scenario::Lossy:
    // Seeded drops, plus a short outage at the second message attempt so
    // that every seed retries.
    P.Opts.Adapt = eagerClosedLoop();
    P.Opts.Link.Seed = Seed;
    P.Opts.Link.DropRate = 0.2;
    P.Opts.Link.DisconnectAt = 1;
    P.Opts.Link.DisconnectLength = 2;
    break;
  }
  return P;
}

/// What one round did under one policy.
struct RunTotals {
  double InterpS = 0, RenderS = 0;
  double Instrs = 0, Transfers = 0, TransferBytes = 0;
  double SimTime = 0, TransferTime = 0, LogSpeedup = 0;
  uint64_t Runs = 0, Events = 0;
  uint64_t Redispatches = 0, Retries = 0, Timeouts = 0, CrashRecoveries = 0,
           LedgerRestores = 0, Probes = 0, LedgerSyncs = 0;
};

/// One runProgram call of the timed phase, checked against the all-client
/// reference. Closed-loop runs also record a timeline and an event log and
/// render both.
void executeOne(const PreparedRun &P, size_t I, SpanLog &Log, BestTimes &Best,
                RunTotals &T, Report &R) {
  ExecOptions Opts = P.Opts;
  RuntimeRecorder Recorder;
  obs::EventLog Events(P.Spec.Program);
  if (P.closedLoop()) {
    Opts.Recorder = &Recorder;
    Opts.Events = &Events;
  }
  StageTimes Stage;
  ExecResult Res = timed(Log, Stage, "interp", I,
                         [&] { return runProgram(*P.Prog->CP, Opts); });
  if (P.closedLoop()) {
    // Render the timeline and serialize the event log, as an operator
    // asking for them would.
    size_t Bytes = timed(Log, Stage, "obs.render", I, [&] {
      const CompiledProgram &CP = *P.Prog->CP;
      std::vector<std::string> TaskLabels, DataLabels;
      for (const TCFG::Task &Task : CP.Graph.Tasks)
        TaskLabels.push_back(Task.Label);
      for (unsigned D = 0; D != CP.Memory->numLocs(); ++D)
        DataLabels.push_back(CP.Memory->loc(D).Name);
      return Recorder.renderTimeline(TaskLabels, DataLabels).size() +
             Events.toJSONL().size();
    });
    R.check(Bytes > 0, P.Spec.Program + ": nothing rendered");
    T.Events += Events.size();
  }
  Best.add(std::to_string(I), Stage["interp"] + Stage["obs.render"]);
  R.check(Res.OK && Res.Outputs == P.Reference.Outputs,
          P.Spec.Program + ": outputs differ from the all-client run" +
              (Res.OK ? "" : " (" + Res.Error + ")"));
  T.InterpS += Stage["interp"];
  T.RenderS += Stage["obs.render"];
  ++T.Runs;
  T.Instrs += static_cast<double>(Res.ClientInstrs + Res.ServerInstrs);
  T.Transfers += static_cast<double>(Res.TransferCount);
  T.TransferBytes += static_cast<double>(Res.BytesToServer + Res.BytesToClient);
  T.SimTime += Res.Time.toDouble();
  T.TransferTime += Res.TransferTime.toDouble();
  T.LogSpeedup += std::log(P.Reference.Time.toDouble() / Res.Time.toDouble());
  T.Redispatches += Res.Redispatches.size();
  T.Retries += Res.Retries;
  T.Timeouts += Res.Timeouts;
  T.CrashRecoveries += Res.CrashRecoveries;
  T.LedgerRestores += Res.LedgerRestores;
  T.Probes += Res.Probes;
  T.LedgerSyncs += Res.LedgerSyncs;
}

int runExecute(const Options &O, SpanSet &Spans, WorkerGroup &Workers,
               Report &R) {
  std::vector<std::string> Names(std::begin(RunPrograms),
                                 std::end(RunPrograms));
  std::vector<Compiled> Programs;
  std::vector<PreparedRun> Runs;
  double SetupS = repeatedSetup(Spans.main(), [&] {
    Runs.clear();
    Programs = compileAll(Names, Prepare::Run, Workers, Spans);
    std::vector<RunSpec> Specs = executeSpecs(O.Seed);
    Runs.resize(Specs.size());
    parallelItems(Workers, Specs.size(), [&](unsigned, size_t I) {
      Runs[I] = prepareRun(std::move(Specs[I]), Programs, O.Seed);
    });
  });
  for (const PreparedRun &P : Runs)
    R.check(P.Prog && P.Prog->CP && P.Reference.OK,
            P.Spec.Program + ": does not compile or its reference run fails");
  if (R.failed())
    return 1;

  // Index 0 of each pair is Placement::Dispatch, 1 the closed loop.
  using RoundTotals = std::array<RunTotals, 2>;
  auto CheckClosedLoop = [&](const RoundTotals &T) {
    const RunTotals &L = T[1];
    R.check(L.Redispatches && L.Retries && L.CrashRecoveries &&
                L.LedgerRestores && L.Probes,
            "the run set left part of the closed-loop path idle");
  };

  // The traced run first runs the set once on this thread, with no other
  // work in flight. Its counts and registry deltas come from that pass, so
  // they cover exactly one round.
  RoundTotals Counted;
  CounterTotals Delta;
  if (O.Trace) {
    BestTimes Ignored;
    obs::StatsSnapshot Before = snapshot();
    for (size_t I = 0; I != Runs.size(); ++I)
      executeOne(Runs[I], I, Spans.main(), Ignored,
                 Counted[Runs[I].closedLoop()], R);
    Delta.add(Before, snapshot());
    CheckClosedLoop(Counted);
  }

  // Timed phase: every worker runs the whole set per round, starting at a
  // different run.
  std::vector<std::vector<RoundTotals>> PerRound(NumThreads);
  std::vector<BestTimes> Best(NumThreads);
  timedRounds(Spans, Workers, NumThreads, O.Seconds,
              [&](unsigned W, uint64_t, const Expiry &Expired) {
    RoundTotals T;
    for (size_t K = 0; K != Runs.size(); ++K) {
      if (Expired())
        return false;
      size_t I = (K + W * Runs.size() / NumThreads) % Runs.size();
      executeOne(Runs[I], I, Spans.worker(W), Best[W],
                 T[Runs[I].closedLoop()], R);
    }
    CheckClosedLoop(T);
    PerRound[W].push_back(T);
    return true;
  });

  if (!O.Trace) {
    BestTimes All;
    for (const BestTimes &B : Best)
      All.merge(B);
    reportEndToEnd(R, SetupS, All.sumMs());
    return 0;
  }
  // Counts are those of the single-threaded round; times are medians over
  // every worker's rounds.
  std::vector<double> Interp, Rate, Loop, Render;
  for (const std::vector<RoundTotals> &Rounds : PerRound)
    for (const RoundTotals &X : Rounds) {
      Interp.push_back(X[0].InterpS);
      Rate.push_back(X[0].Instrs / X[0].InterpS * 1e-6);
      Loop.push_back(X[1].InterpS);
      Render.push_back(X[1].RenderS);
    }
  const RunTotals &D = Counted[0];
  const RunTotals &L = Counted[1];
  R.add("interp_s", median(Interp));
  R.add("exec_minstr_per_s", median(Rate));
  R.add("sim_speedup", std::exp(D.LogSpeedup / static_cast<double>(D.Runs)));
  R.add("interp.instructions", D.Instrs);
  R.add("interp.transfers", D.Transfers);
  R.add("interp.transfer_bytes", D.TransferBytes);
  R.add("runtime.transfer_share", D.TransferTime / D.SimTime);
  R.add("closed_loop_s", median(Loop));
  R.add("closed_loop.instructions", L.Instrs);
  R.add("obs.render_s", median(Render));
  R.add("obs.events", static_cast<double>(L.Events));
  R.add("adapt.redispatches", static_cast<double>(L.Redispatches));
  R.add("adapt.retries", static_cast<double>(L.Retries));
  R.add("adapt.timeouts", static_cast<double>(L.Timeouts));
  R.add("adapt.crash_recoveries", static_cast<double>(L.CrashRecoveries));
  R.add("adapt.ledger_restores", static_cast<double>(L.LedgerRestores));
  R.add("adapt.probes", static_cast<double>(L.Probes));
  R.add("adapt.ledger_syncs", static_cast<double>(L.LedgerSyncs));
  for (const char *Name :
       {"sim.migrations", "sim.transfers", "sim.crashes", "sim.restarts",
        "sim.fallbacks", "recovery.crash_rollbacks", "recovery.reoffloads"})
    R.add(Name, Delta.get(Name));
  return 0;
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

const char *const ServePrograms[] = {"encode", "decode", "fft"};
const char *const ServeStreams[] = {"uniform", "hotspot", "facet"};
constexpr size_t BatchSize = 4096;
constexpr size_t PoolRequests = 4 * BatchSize;
/// Every VerifyStride-th request of a pool is checked against pickChoice.
constexpr size_t VerifyStride = 32;
/// Distinct facet-snapped points per pool (snapping is exact arithmetic,
/// too slow per request); the pool repeats them.
constexpr size_t FacetPoints = 1024;

/// Moves \p Vals onto the zero set of \p Facet by solving for one runtime
/// parameter that no monomial dimension depends on (exact arithmetic;
/// integral in-range solutions only). Such points force the exact tier.
void snapToFacet(const CompiledProgram &CP, const LinConstraint &Facet,
                 std::vector<int64_t> &Vals) {
  unsigned NumRuntime = static_cast<unsigned>(Vals.size());
  std::vector<bool> Safe(NumRuntime, true);
  const std::vector<ParamId> &Eff = CP.Partition.EffectiveDims;
  for (ParamId Id : Eff)
    if (CP.Space.isMonomial(Id))
      for (ParamId F : CP.Space.factors(Id))
        if (F < NumRuntime)
          Safe[F] = false;
  std::vector<Rational> Full = CP.parameterPoint(Vals);
  std::vector<Rational> EffPt(Eff.size());
  for (unsigned K = 0; K != Eff.size(); ++K)
    EffPt[K] = Full[Eff[K]];
  Rational Val = Facet.evaluate(EffPt);
  if (Val.isZero())
    return;
  for (unsigned K = 0; K != Eff.size(); ++K) {
    ParamId Id = Eff[K];
    if (Facet.Coeffs[K].isZero() || Id >= NumRuntime || !Safe[Id])
      continue;
    Rational Target = Full[Id] - Val / Rational(Facet.Coeffs[K]);
    if (!Target.isInteger() || !Target.numerator().fitsInt64())
      continue;
    int64_t T = Target.numerator().toInt64();
    if (T < CP.Space.lower(Id).toInt64() || T > CP.Space.upper(Id).toInt64())
      continue;
    Vals[Id] = T;
    return;
  }
}

/// A seeded request pool (row-major) from one of the three streams.
std::vector<int64_t> makePool(const CompiledProgram &CP,
                              const std::string &Stream,
                              std::mt19937_64 &Rng) {
  size_t NumParams = CP.AST->RuntimeParams.size();
  std::vector<std::vector<int64_t>> Reqs =
      uniformPoints(CP, PoolRequests, Rng);
  if (Stream == "hotspot") {
    // 80% of requests jitter tightly around one fleet profile.
    for (std::vector<int64_t> &Req : Reqs) {
      if (Rng() % 5 == 0)
        continue;
      for (size_t P = 0; P != NumParams; ++P) {
        int64_t Lo = CP.Space.lower(P).toInt64();
        int64_t Hi = CP.Space.upper(P).toInt64();
        int64_t Width = std::max<int64_t>(1, (Hi - Lo) / 64);
        int64_t V = (Lo + Hi) / 2 +
                    std::uniform_int_distribution<int64_t>(-Width, Width)(Rng);
        Req[P] = std::clamp(V, Lo, Hi);
      }
    }
  } else if (Stream == "facet") {
    std::vector<const LinConstraint *> Facets;
    for (const PartitionChoice &Choice : CP.Partition.Choices)
      for (const LinConstraint &C : Choice.Region.constraints())
        if (!C.isTautology() && !C.isContradiction())
          Facets.push_back(&C);
    for (size_t I = 0; I != Reqs.size() && !Facets.empty(); ++I) {
      if (I < FacetPoints)
        snapToFacet(CP, *Facets[Rng() % Facets.size()], Reqs[I]);
      else
        Reqs[I] = Reqs[I % FacetPoints];
    }
  }
  std::vector<int64_t> Flat;
  for (const std::vector<int64_t> &Req : Reqs)
    Flat.insert(Flat.end(), Req.begin(), Req.end());
  return Flat;
}

struct ServeStream {
  size_t Program = 0;
  std::string Name;
  std::vector<int64_t> Pool;
  std::vector<unsigned> Expected; ///< pickChoice of every VerifyStride-th.
  std::vector<double> OraclePickNs;
};

/// Builds one stream's pool and its pickChoice answers.
ServeStream makeStream(const Compiled &C, size_t Program,
                       const std::string &StreamName, uint64_t Seed) {
  const CompiledProgram &CP = *C.CP;
  std::mt19937_64 Rng(Seed);
  ServeStream S;
  S.Program = Program;
  S.Name = C.Name + "." + StreamName;
  S.Pool = makePool(CP, StreamName, Rng);
  size_t NumParams = CP.AST->RuntimeParams.size();
  PickScratch Scratch;
  for (size_t I = 0; I < PoolRequests; I += VerifyStride) {
    std::vector<int64_t> Vals(S.Pool.begin() + I * NumParams,
                              S.Pool.begin() + (I + 1) * NumParams);
    std::vector<Rational> Full = CP.parameterPoint(Vals);
    Clock::time_point T0 = Clock::now();
    S.Expected.push_back(CP.Partition.pickChoice(Full, Scratch));
    S.OraclePickNs.push_back(secondsSince(T0) * 1e9);
  }
  return S;
}

int runServe(const Options &O, SpanSet &Spans, WorkerGroup &Workers,
             Report &R) {
  std::vector<std::string> Names(std::begin(ServePrograms),
                                 std::end(ServePrograms));
  std::vector<Compiled> Programs;
  std::vector<std::unique_ptr<DispatchService>> Services;
  std::vector<ServeStream> Streams;
  double SetupS = repeatedSetup(Spans.main(), [&] {
    Services.clear();
    Streams.clear();
    Programs = compileAll(Names, Prepare::Serve, Workers, Spans);
    for (const Compiled &C : Programs)
      if (!C.CP)
        return;
    for (const Compiled &C : Programs)
      Services.push_back(
          std::make_unique<DispatchService>(*C.Index, NumThreads));
    size_t NumStreams = Programs.size() * std::size(ServeStreams);
    Streams.resize(NumStreams);
    parallelItems(Workers, NumStreams, [&](unsigned, size_t I) {
      size_t P = I / std::size(ServeStreams);
      Streams[I] = makeStream(Programs[P], P,
                              ServeStreams[I % std::size(ServeStreams)],
                              O.Seed * NumStreams + I);
    });
  });
  for (const Compiled &C : Programs)
    R.check(C.CP != nullptr, C.Name + ": does not compile");
  if (R.failed())
    return 1;

  // Timed phase: one waiting caller submits fixed-size batches, cycling
  // through the streams; each batch starts where the stream's last ended.
  obs::StatsSnapshot Before = snapshot();
  std::vector<DispatchService::Stats> TotalsBefore;
  for (const auto &S : Services)
    TotalsBefore.push_back(S->totals());
  std::vector<size_t> Offset(Streams.size(), 0);
  std::vector<unsigned> Choices(BatchSize);
  std::vector<std::vector<double>> StreamMs(Streams.size());
  Clock::time_point Start = Clock::now();
  std::vector<double> Ms = timedRounds(Spans, Workers, 1, O.Seconds,
                                       [&](unsigned, uint64_t N,
                                           const Expiry &) {
    size_t SI = N % Streams.size();
    ServeStream &S = Streams[SI];
    size_t NumParams = Programs[S.Program].CP->AST->RuntimeParams.size();
    size_t First = Offset[SI];
    Offset[SI] = (First + BatchSize) % PoolRequests;
    StageTimes Stage;
    timed(Spans.worker(0), Stage, "dispatch_batch", N, [&] {
      Services[S.Program]->dispatchBatch(S.Pool.data() + First * NumParams,
                                         BatchSize, NumParams,
                                         Choices.data());
    });
    StreamMs[SI].push_back(Stage["dispatch_batch"] * 1e3);
    for (size_t I = 0; I < BatchSize; I += VerifyStride)
      R.check(Choices[I] == S.Expected[(First + I) / VerifyStride],
              S.Name + ": dispatch disagrees with pickChoice");
    return true;
  }).front();
  double WallS = secondsSince(Start);
  obs::StatsSnapshot After = snapshot();

  if (!O.Trace) {
    // Unlike analyze and execute, which time single-threaded operations,
    // a batch needs every service thread at once: it is at its best only
    // while every core is quiet, and how often that happens varies from run
    // to run. So serve sums each stream's median batch, not its best.
    double RoundMs = 0;
    for (const std::vector<double> &V : StreamMs)
      RoundMs += median(V);
    reportEndToEnd(R, SetupS, RoundMs);
    return 0;
  }
  double Batches = static_cast<double>(Ms.size());
  double Queries = Batches * BatchSize;
  R.add("serve_qps", Queries / WallS);
  R.add("batch_ms_p50", median(Ms));
  R.add("batch_ms_p99", quantile(Ms, 0.99));
  R.add("batch_samples", Batches);

  // Single-thread DispatchIndex::pick latency, one timer read per pick.
  std::vector<double> PickNs, OracleNs;
  for (const ServeStream &S : Streams) {
    const Compiled &C = Programs[S.Program];
    size_t NumParams = C.CP->AST->RuntimeParams.size();
    DispatchScratch Scratch;
    for (size_t I = 0; I != 2048; ++I) {
      Clock::time_point T0 = Clock::now();
      C.Index->pick(S.Pool.data() + I * NumParams, NumParams, Scratch);
      PickNs.push_back(secondsSince(T0) * 1e9);
    }
    OracleNs.insert(OracleNs.end(), S.OraclePickNs.begin(),
                    S.OraclePickNs.end());
  }
  R.add("dispatch.pick_ns_p50", median(PickNs));
  R.add("dispatch.pick_ns_p99", quantile(PickNs, 0.99));
  R.add("partition.pick_ns_p50", median(OracleNs));

  CounterTotals Delta;
  Delta.add(Before, After);
  std::optional<double> Q = Delta.get("dispatch.queries");
  R.add("dispatch.fast_path_share", ratio(Delta.get("dispatch.fast_path"), Q));
  R.add("dispatch.exact_confirm_share",
        ratio(Delta.get("dispatch.exact_confirms"), Q));
  R.add("dispatch.fallback_share", ratio(Delta.get("dispatch.fallbacks"), Q));
  double Visits = 0, Leaves = 0;
  for (size_t P = 0; P != Services.size(); ++P) {
    DispatchService::Stats T = Services[P]->totals();
    Visits += static_cast<double>(T.NodeVisits - TotalsBefore[P].NodeVisits);
    Leaves += static_cast<double>(T.LeafTests - TotalsBefore[P].LeafTests);
  }
  R.add("dispatch.node_visits_per_query", Visits / Queries);
  R.add("dispatch.leaf_tests_per_query", Leaves / Queries);

  // Pool idle share from the per-shard latency histograms every service
  // registered (shard indices are shared, so the sums cover all three).
  // Each sample is one stripe's ns per query; a shard's busy time is its
  // mean sample times the queries it served, the batch split the way
  // dispatchBatch splits it.
  double BusyNs = 0;
  bool HaveShards = false;
  size_t ShardChunk = (BatchSize + NumThreads - 1) / NumThreads;
  for (unsigned S = 0; S != NumThreads; ++S) {
    std::string Name = "dispatch.shard" + std::to_string(S) + ".latency_ns";
    auto A = After.Histograms.find(Name);
    auto B = Before.Histograms.find(Name);
    if (A == After.Histograms.end() || B == Before.Histograms.end())
      continue;
    double Samples =
        static_cast<double>(A->second.count() - B->second.count());
    size_t Lo = std::min(BatchSize, S * ShardChunk);
    size_t Hi = std::min(BatchSize, Lo + ShardChunk);
    double ShardQueries = Batches * static_cast<double>(Hi - Lo);
    HaveShards = true;
    if (Samples > 0)
      BusyNs += static_cast<double>(A->second.Sum - B->second.Sum) / Samples *
                ShardQueries;
  }
  double BatchWallNs = 0;
  for (double M : Ms)
    BatchWallNs += M * 1e6;
  R.add("support.pool_idle_share",
        HaveShards ? std::optional(1.0 - BusyNs / (NumThreads * BatchWallNs))
                   : std::nullopt);
  return 0;
}

//===----------------------------------------------------------------------===//
// main
//===----------------------------------------------------------------------===//

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload analyze|execute|serve --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 == argc)
      return usage(argv[0]);
    const char *Val = argv[++I];
    if (Arg == "--workload")
      O.Workload = Val;
    else if (Arg == "--seed")
      O.Seed = std::strtoull(Val, nullptr, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::atof(Val);
    else if (Arg == "--trace")
      O.Trace = std::strcmp(Val, "0") != 0;
    else if (Arg == "--spans")
      O.SpansPath = Val;
    else
      return usage(argv[0]);
  }

  std::printf("workload %s seed %llu seconds %g trace %d threads %u "
              "solver threads %u\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0, NumThreads, SolverThreads);
  SpanSet Spans(O.Trace, NumThreads);
  WorkerGroup Workers;
  Report R(O.Trace);
  int Status;
  if (O.Workload == "analyze")
    Status = runAnalyze(O, Spans, Workers, R);
  else if (O.Workload == "execute")
    Status = runExecute(O, Spans, Workers, R);
  else if (O.Workload == "serve")
    Status = runServe(O, Spans, Workers, R);
  else
    return usage(argv[0]);
  if (O.Trace) {
    R.add("threads", NumThreads);
    R.add("solver_threads", SolverThreads);
  }
  if (O.Trace && !O.SpansPath.empty() && !Spans.write(O.SpansPath)) {
    std::fprintf(stderr, "error: cannot write spans to %s\n",
                 O.SpansPath.c_str());
    return 1;
  }
  R.print();
  return Status;
}
