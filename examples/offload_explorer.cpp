//===- examples/offload_explorer.cpp - CLI front end ----------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// A command-line driver for the offloading compiler: reads a MiniC file,
// runs the full parametric analysis, and prints the task graph, the
// partitioning choices with their regions, and the transformed-program
// dispatch. Optionally evaluates the dispatch at given parameter values,
// and executes the program on the simulated runtime -- including under an
// injected fault schedule (lossy link, disconnection windows), where the
// run retries with backoff and degrades gracefully to local execution.
//
//   offload_explorer program.mc [--params v1,v2,...] [--inputs v1,v2,...]
//       [--run] [--jobs N] [--no-opt] [--dump-ir[=before|after]]
//       [--dump-source]
//       [--fault-seed N] [--drop-rate P] [--jitter U]
//       [--disconnect-at MSG[:LEN]] [--policy fail-fast|retry-only|degrade]
//       [--adapt=static|react|closed-loop] [--drift=SPEC] [--crash=SPEC]
//       [--probe-period=N] [--probe-bytes=N] [--probe-budget=N]
//       [--ledger-budget=BYTES]
//       [--serve=FILE] [--serve-threads=N] [--serve-repeat=K]
//       [--trace=FILE] [--stats] [--audit=FILE] [--report]
//
// --serve replays a fleet request file through the compiled dispatch
// index behind the multi-threaded DispatchService: each non-empty,
// non-comment line holds one request as whitespace-separated runtime
// parameter values. The replay prints the per-choice histogram, the
// ns/query throughput, and the fast-path/exact-confirm/fallback mix, and
// cross-checks a subsample of answers against the linear pickChoice scan.
//
// A drift SPEC is a semicolon-separated list of phases, each
// "at=T[,comm=F][,server=F][,down]" with T and F integers or fractions
// (e.g. --drift="at=400,comm=16;at=900,comm=1"): from simulated time T
// on, communication costs scale by comm, server compute by server, and
// "down" forces the link dead until the next phase.
//
// A crash SPEC is a semicolon-separated list of server failures, each
// "at=T[,restart=T2]" (e.g. --crash="at=50000,restart=90000"): at
// simulated time T the server process dies, losing every server-resident
// data copy; with restart=T2 a blank server comes back at T2. Under
// --policy degrade the run rolls back to the last task boundary and
// restores lost items from the client-held recovery ledger; under
// --adapt closed-loop it then probes the server (priced messages, knobs
// above) and re-offloads when the remote cut wins again.
//
//===----------------------------------------------------------------------===//

#include "dispatch/DispatchService.h"
#include "interp/Interp.h"
#include "lang/PrintAST.h"
#include "obs/CostAudit.h"
#include "obs/EventLog.h"
#include "obs/Export.h"
#include "obs/TimeSeries.h"
#include "obs/Trace.h"
#include "programs/Programs.h"
#include "runtime/SimTelemetry.h"
#include "transform/Transform.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace paco;

namespace {

std::vector<int64_t> parseList(const char *Text) {
  std::vector<int64_t> Values;
  std::stringstream List(Text);
  std::string Item;
  while (std::getline(List, Item, ','))
    Values.push_back(std::strtoll(Item.c_str(), nullptr, 10));
  return Values;
}

const char *adaptName(AdaptationPolicy Policy) {
  switch (Policy) {
  case AdaptationPolicy::Static:
    return "static";
  case AdaptationPolicy::ReactOnFailure:
    return "react";
  case AdaptationPolicy::ClosedLoop:
    return "closed-loop";
  }
  return "?";
}

const char *policyName(FaultPolicy Policy) {
  switch (Policy) {
  case FaultPolicy::FailFast:
    return "fail-fast";
  case FaultPolicy::RetryOnly:
    return "retry-only";
  case FaultPolicy::DegradeToLocal:
    return "degrade";
  }
  return "?";
}

/// Verifies \p Path can be created for writing now, so a long analysis
/// never ends in silently dropped output (satellite: clear, early error).
bool checkWritable(const std::string &Path, const char *What) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s file %s\n", What,
                 Path.c_str());
    return false;
  }
  std::fclose(Out);
  return true;
}

/// Telemetry sinks and output paths shared between the explorer body and
/// main(): main flushes every requested file on every exit path -- a log
/// or trace of a failed run is exactly what one wants to look at -- and
/// turns a failed flush into a nonzero exit.
struct ObsOutputs {
  std::string TracePath;
  std::string LogPath;        ///< --log: structured JSONL event log.
  std::string MetricsPath;    ///< --metrics: Prometheus text exposition.
  std::string TimeseriesPath; ///< --timeseries: window JSONL.
  bool PrintStats = false;
  obs::EventLog Log;
  obs::TimeSeries ServeSeries{"serve", 512}; ///< One window per batch.
  obs::TimeSeries SimSeries{"sim", 256};     ///< Fixed sim-time windows.
};

/// Rewrites the Prometheus scrape file: lifetime registry families plus
/// the latest window of each active series.
bool flushMetrics(const ObsOutputs &Obs, std::string &Err) {
  std::string Text =
      obs::toPrometheusText(obs::StatsRegistry::global().snapshot());
  Text += obs::windowPrometheusText(Obs.ServeSeries);
  Text += obs::windowPrometheusText(Obs.SimSeries);
  return obs::writeTextFile(Obs.MetricsPath, Text, &Err);
}

/// Replays a fleet request file (one request per line, whitespace-
/// separated runtime parameter values; '#' starts a comment) through the
/// compiled dispatch index behind the multi-threaded service. Returns 0
/// on success, nonzero on malformed input or an index-vs-scan mismatch.
int serveRequests(const CompiledProgram &CP, const std::string &Path,
                  unsigned Threads, unsigned Repeat, ObsOutputs &Obs) {
  size_t NumParams = CP.AST->RuntimeParams.size();
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open request file %s\n",
                 Path.c_str());
    return 2;
  }
  std::vector<int64_t> Flat;
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (size_t Hash = Line.find('#'); Hash != std::string::npos)
      Line.resize(Hash);
    std::stringstream Fields(Line);
    size_t Count = 0;
    int64_t V;
    while (Fields >> V) {
      Flat.push_back(V);
      ++Count;
    }
    if (Count == 0)
      continue; // blank or comment-only line
    if (Count != NumParams) {
      std::fprintf(stderr,
                   "error: %s:%zu: request has %zu value(s), program "
                   "declares %zu parameter(s)\n",
                   Path.c_str(), LineNo, Count, NumParams);
      return 2;
    }
  }
  size_t NumRequests = NumParams == 0 ? 0 : Flat.size() / NumParams;
  if (NumRequests == 0) {
    std::fprintf(stderr, "error: %s contains no requests\n", Path.c_str());
    return 2;
  }

  auto Start = std::chrono::steady_clock::now();
  DispatchIndex Index(CP.Partition, CP.Space,
                      static_cast<unsigned>(NumParams));
  DispatchService Service(Index, Threads);
  std::printf("\n== serving %zu request(s) x%u from %s (%u thread(s)) "
              "==\n%s\n",
              NumRequests, Repeat, Path.c_str(), Service.numThreads(),
              Index.describe().c_str());

  // One TimeWindow and one shard-complete event set per batch; the
  // scrape file is rewritten after every batch so a watcher polling it
  // sees live windowed rates, not just the end-of-run totals.
  bool WantWindows = !Obs.MetricsPath.empty() || !Obs.TimeseriesPath.empty();
  Service.attachTelemetry(WantWindows ? &Obs.ServeSeries : nullptr,
                          Obs.LogPath.empty() ? nullptr : &Obs.Log);

  std::vector<unsigned> Choices(NumRequests);
  Start = std::chrono::steady_clock::now();
  for (unsigned R = 0; R != Repeat; ++R) {
    Service.dispatchBatch(Flat.data(), NumRequests, NumParams,
                          Choices.data());
    if (!Obs.MetricsPath.empty()) {
      std::string Err;
      if (!flushMetrics(Obs, Err)) {
        std::fprintf(stderr, "error: cannot write metrics file: %s\n",
                     Err.c_str());
        return 1;
      }
    }
  }
  double Sec = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
  DispatchService::Stats S = Service.totals();

  std::vector<uint64_t> Histogram(CP.Partition.Choices.size(), 0);
  for (unsigned C : Choices)
    ++Histogram[C];
  for (unsigned C = 0; C != Histogram.size(); ++C)
    if (Histogram[C])
      std::printf("  choice %-3u %8llu request(s)  (%5.1f%%)\n", C,
                  static_cast<unsigned long long>(Histogram[C]),
                  100.0 * double(Histogram[C]) / double(NumRequests));
  double Total = double(NumRequests) * Repeat;
  std::printf("served %.0f queries in %.3fs: %.1f ns/query, %.2f Mq/s\n",
              Total, Sec, Sec * 1e9 / Total, Total / Sec / 1e6);
  std::printf("fast path %.1f%%  exact confirms %llu  fallbacks %llu\n",
              100.0 * double(S.FastQueries) / double(S.Queries),
              static_cast<unsigned long long>(S.ExactConfirms),
              static_cast<unsigned long long>(S.Fallbacks));

  // Cross-check a subsample against the linear scan the index replaces.
  size_t VerifyCount = std::min<size_t>(NumRequests, 1000);
  size_t Stride = NumRequests / VerifyCount;
  PickScratch Linear;
  size_t Mismatches = 0;
  for (size_t I = 0; I < NumRequests; I += Stride) {
    std::vector<int64_t> Req(Flat.begin() +
                                 static_cast<ptrdiff_t>(I * NumParams),
                             Flat.begin() +
                                 static_cast<ptrdiff_t>((I + 1) * NumParams));
    if (CP.Partition.pickChoice(CP.parameterPoint(Req), Linear) != Choices[I])
      ++Mismatches;
  }
  std::printf("verification: %zu sampled request(s), %zu mismatch(es)\n",
              (NumRequests + Stride - 1) / Stride, Mismatches);
  return Mismatches == 0 ? 0 : 1;
}

int runExplorer(int Argc, char **Argv, ObsOutputs &Obs) {
  std::string &TracePath = Obs.TracePath;
  if (Argc < 2) {
    std::fprintf(stderr,
                 "usage: %s program.mc [--params v1,v2,...] "
                 "[--inputs v1,v2,...] [--run] [--jobs N] [--no-opt] "
                 "[--dump-ir[=before|after]] [--dump-source]\n"
                 "  fault injection: [--fault-seed N] [--drop-rate P] "
                 "[--jitter U] [--disconnect-at MSG[:LEN]]\n"
                 "                   [--policy fail-fast|retry-only|degrade]\n"
                 "  adaptation:      [--adapt=static|react|closed-loop] "
                 "[--drift=at=T[,comm=F][,server=F][,down];...]\n"
                 "  server failure:  [--crash=at=T[,restart=T2];...] "
                 "[--probe-period=N] [--probe-bytes=N] [--probe-budget=N]\n"
                 "                   [--ledger-budget=BYTES]\n"
                 "  fleet serving:   [--serve=FILE] [--serve-threads=N] "
                 "[--serve-repeat=K]\n"
                 "  observability:   [--trace=FILE] [--stats] "
                 "[--audit=FILE] [--report]\n"
                 "                   [--log=FILE] [--metrics=FILE] "
                 "[--timeseries=FILE] [--window=UNITS]\n",
                 Argv[0]);
    return 2;
  }
  // The program argument is either a MiniC file or the name of one of
  // the registered paper benchmarks (rawcaudio, fft, susan, ...).
  std::string Source;
  std::ifstream In(Argv[1]);
  if (In) {
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    Source = Buffer.str();
  } else {
    for (const programs::BenchProgram &P : programs::allPrograms())
      if (P.Name == std::string(Argv[1]))
        Source = P.Source;
    if (Source.empty()) {
      std::fprintf(stderr,
                   "error: cannot open %s (and no benchmark has that name)\n",
                   Argv[1]);
      return 2;
    }
  }

  bool DumpIR = false;
  bool DumpIRBefore = false;
  bool DumpSource = false;
  bool Run = false;
  bool Report = false;
  std::string AuditPath;
  std::vector<int64_t> Params;
  bool HaveParams = false;
  std::vector<int64_t> Inputs;
  FaultSpec Link;
  FaultPolicy Policy = FaultPolicy::DegradeToLocal;
  AdaptationOptions Adapt;
  DriftSchedule Drift;
  CrashSchedule Crash;
  uint64_t LedgerBudget = 1ull << 20;
  std::string ServePath;
  unsigned ServeThreads = 0; // 0 = hardware concurrency
  unsigned ServeRepeat = 1;
  int64_t WindowUnits = 65536; // --window: sim-time window width
  bool &PrintStats = Obs.PrintStats;
  ParametricOptions AnalysisOpts;
  PassOptions PassOpts;
  auto parseAdapt = [&](const char *Name) {
    if (std::strcmp(Name, "static") == 0)
      Adapt.Policy = AdaptationPolicy::Static;
    else if (std::strcmp(Name, "react") == 0)
      Adapt.Policy = AdaptationPolicy::ReactOnFailure;
    else if (std::strcmp(Name, "closed-loop") == 0)
      Adapt.Policy = AdaptationPolicy::ClosedLoop;
    else {
      std::fprintf(stderr,
                   "error: unknown adaptation policy %s (want "
                   "static|react|closed-loop)\n",
                   Name);
      return false;
    }
    Run = true;
    return true;
  };
  auto parseDrift = [&](const char *Spec) {
    std::string Err;
    if (DriftSchedule::parse(Spec, Drift, Err)) {
      Run = true;
      return true;
    }
    std::fprintf(stderr, "error: bad drift schedule: %s\n", Err.c_str());
    return false;
  };
  auto parseCrash = [&](const char *Spec) {
    std::string Err;
    if (CrashSchedule::parse(Spec, Crash, Err)) {
      Run = true;
      return true;
    }
    std::fprintf(stderr, "error: bad crash schedule: %s\n", Err.c_str());
    return false;
  };
  for (int A = 2; A < Argc; ++A) {
    if (std::strcmp(Argv[A], "--jobs") == 0 && A + 1 < Argc) {
      // 0 = hardware concurrency; any value yields identical results.
      AnalysisOpts.Threads =
          static_cast<unsigned>(std::strtoul(Argv[++A], nullptr, 10));
    } else if (std::strcmp(Argv[A], "--dump-ir") == 0 ||
               std::strcmp(Argv[A], "--dump-ir=after") == 0) {
      DumpIR = true;
    } else if (std::strcmp(Argv[A], "--dump-ir=before") == 0) {
      DumpIRBefore = true;
    } else if (std::strcmp(Argv[A], "--no-opt") == 0) {
      PassOpts.Enabled = false;
    } else if (std::strcmp(Argv[A], "--dump-source") == 0) {
      DumpSource = true;
    } else if (std::strcmp(Argv[A], "--run") == 0) {
      Run = true;
    } else if (std::strcmp(Argv[A], "--params") == 0 && A + 1 < Argc) {
      HaveParams = true;
      Params = parseList(Argv[++A]);
    } else if (std::strcmp(Argv[A], "--inputs") == 0 && A + 1 < Argc) {
      Inputs = parseList(Argv[++A]);
    } else if (std::strcmp(Argv[A], "--fault-seed") == 0 && A + 1 < Argc) {
      Link.Seed = std::strtoull(Argv[++A], nullptr, 10);
      Run = true;
    } else if (std::strcmp(Argv[A], "--drop-rate") == 0 && A + 1 < Argc) {
      Link.DropRate = std::strtod(Argv[++A], nullptr);
      Run = true;
    } else if (std::strcmp(Argv[A], "--jitter") == 0 && A + 1 < Argc) {
      Link.JitterUnits =
          static_cast<unsigned>(std::strtoul(Argv[++A], nullptr, 10));
      Run = true;
    } else if (std::strcmp(Argv[A], "--disconnect-at") == 0 && A + 1 < Argc) {
      char *End = nullptr;
      Link.DisconnectAt = std::strtoull(Argv[++A], &End, 10);
      Link.DisconnectLength =
          (End && *End == ':') ? std::strtoull(End + 1, nullptr, 10) : ~0ull;
      Run = true;
    } else if (std::strcmp(Argv[A], "--policy") == 0 && A + 1 < Argc) {
      const char *Name = Argv[++A];
      if (std::strcmp(Name, "fail-fast") == 0)
        Policy = FaultPolicy::FailFast;
      else if (std::strcmp(Name, "retry-only") == 0)
        Policy = FaultPolicy::RetryOnly;
      else if (std::strcmp(Name, "degrade") == 0)
        Policy = FaultPolicy::DegradeToLocal;
      else {
        std::fprintf(stderr, "error: unknown policy %s\n", Name);
        return 2;
      }
      Run = true;
    } else if (std::strncmp(Argv[A], "--adapt=", 8) == 0) {
      if (!parseAdapt(Argv[A] + 8))
        return 2;
    } else if (std::strcmp(Argv[A], "--adapt") == 0 && A + 1 < Argc) {
      if (!parseAdapt(Argv[++A]))
        return 2;
    } else if (std::strncmp(Argv[A], "--drift=", 8) == 0) {
      if (!parseDrift(Argv[A] + 8))
        return 2;
    } else if (std::strcmp(Argv[A], "--drift") == 0 && A + 1 < Argc) {
      if (!parseDrift(Argv[++A]))
        return 2;
    } else if (std::strncmp(Argv[A], "--crash=", 8) == 0) {
      if (!parseCrash(Argv[A] + 8))
        return 2;
    } else if (std::strcmp(Argv[A], "--crash") == 0 && A + 1 < Argc) {
      if (!parseCrash(Argv[++A]))
        return 2;
    } else if (std::strncmp(Argv[A], "--probe-period=", 15) == 0) {
      Adapt.ProbePeriodBoundaries =
          static_cast<unsigned>(std::strtoul(Argv[A] + 15, nullptr, 10));
      Run = true;
    } else if (std::strncmp(Argv[A], "--probe-bytes=", 14) == 0) {
      Adapt.ProbeBytes = std::strtoull(Argv[A] + 14, nullptr, 10);
      Run = true;
    } else if (std::strncmp(Argv[A], "--probe-budget=", 15) == 0) {
      Adapt.ProbeBudget =
          static_cast<unsigned>(std::strtoul(Argv[A] + 15, nullptr, 10));
      Run = true;
    } else if (std::strncmp(Argv[A], "--ledger-budget=", 16) == 0) {
      LedgerBudget = std::strtoull(Argv[A] + 16, nullptr, 10);
      Run = true;
    } else if (std::strncmp(Argv[A], "--serve=", 8) == 0) {
      ServePath = Argv[A] + 8;
    } else if (std::strcmp(Argv[A], "--serve") == 0 && A + 1 < Argc) {
      ServePath = Argv[++A];
    } else if (std::strncmp(Argv[A], "--serve-threads=", 16) == 0) {
      ServeThreads =
          static_cast<unsigned>(std::strtoul(Argv[A] + 16, nullptr, 10));
    } else if (std::strncmp(Argv[A], "--serve-repeat=", 15) == 0) {
      ServeRepeat = std::max(
          1u, static_cast<unsigned>(std::strtoul(Argv[A] + 15, nullptr, 10)));
    } else if (std::strncmp(Argv[A], "--trace=", 8) == 0) {
      TracePath = Argv[A] + 8;
    } else if (std::strcmp(Argv[A], "--trace") == 0 && A + 1 < Argc) {
      TracePath = Argv[++A];
    } else if (std::strncmp(Argv[A], "--log=", 6) == 0) {
      Obs.LogPath = Argv[A] + 6;
    } else if (std::strncmp(Argv[A], "--metrics=", 10) == 0) {
      Obs.MetricsPath = Argv[A] + 10;
    } else if (std::strncmp(Argv[A], "--timeseries=", 13) == 0) {
      Obs.TimeseriesPath = Argv[A] + 13;
    } else if (std::strncmp(Argv[A], "--window=", 9) == 0) {
      WindowUnits = std::strtoll(Argv[A] + 9, nullptr, 10);
      if (WindowUnits <= 0) {
        std::fprintf(stderr, "error: --window needs a positive width\n");
        return 2;
      }
    } else if (std::strcmp(Argv[A], "--stats") == 0) {
      PrintStats = true;
    } else if (std::strncmp(Argv[A], "--audit=", 8) == 0) {
      AuditPath = Argv[A] + 8;
      Run = true;
    } else if (std::strcmp(Argv[A], "--audit") == 0 && A + 1 < Argc) {
      AuditPath = Argv[++A];
      Run = true;
    } else if (std::strcmp(Argv[A], "--report") == 0) {
      Report = true;
      Run = true;
    } else {
      std::fprintf(stderr, "error: unknown argument %s\n", Argv[A]);
      return 2;
    }
  }
  // Reject malformed fault schedules now, with the same one-line style
  // the drift parser uses; a bad spec silently sampled for an hour is a
  // far worse failure mode.
  if (std::string Err = validateFaultSpec(Link); !Err.empty()) {
    std::fprintf(stderr, "error: bad fault spec: %s\n", Err.c_str());
    return 2;
  }
  // The closed loop adapts by degrading and re-offloading; fail-fast
  // forbids exactly that recovery, so the combination can only ever fail.
  if (Adapt.Policy == AdaptationPolicy::ClosedLoop &&
      Policy == FaultPolicy::FailFast) {
    std::fprintf(stderr, "error: --policy fail-fast conflicts with "
                         "--adapt closed-loop (the closed loop needs the "
                         "degrade/rollback path; use --policy degrade)\n");
    return 2;
  }
#ifdef PACO_DISABLE_OBS
  if (!Obs.LogPath.empty() || !Obs.MetricsPath.empty() ||
      !Obs.TimeseriesPath.empty()) {
    std::fprintf(stderr, "error: this build disabled observability "
                         "(PACO_DISABLE_OBS); --log/--metrics/--timeseries "
                         "are unavailable\n");
    Obs.LogPath.clear();
    Obs.MetricsPath.clear();
    Obs.TimeseriesPath.clear();
    return 2;
  }
#endif
  // Fail output paths now, before minutes of analysis, not after.
  if (!TracePath.empty() && !checkWritable(TracePath, "trace")) {
    TracePath.clear();
    return 2;
  }
  if (!AuditPath.empty() && !checkWritable(AuditPath, "audit"))
    return 2;
  if (!Obs.LogPath.empty() && !checkWritable(Obs.LogPath, "event log")) {
    Obs.LogPath.clear();
    return 2;
  }
  if (!Obs.MetricsPath.empty() && !checkWritable(Obs.MetricsPath, "metrics")) {
    Obs.MetricsPath.clear();
    return 2;
  }
  if (!Obs.TimeseriesPath.empty() &&
      !checkWritable(Obs.TimeseriesPath, "timeseries")) {
    Obs.TimeseriesPath.clear();
    return 2;
  }
  if (!TracePath.empty())
    obs::Tracer::global().enable();

  // Deterministic run id (no wall-clock data): same invocation, same id,
  // so two logs of the same run diff byte-for-byte.
  {
    std::string RunId = Argv[1];
    if (size_t Slash = RunId.find_last_of('/'); Slash != std::string::npos)
      RunId = RunId.substr(Slash + 1);
    RunId += ServePath.empty() ? (Run ? ":run" : ":analyze") : ":serve";
    for (int64_t V : Params) {
      RunId += ":";
      RunId += std::to_string(V);
    }
    if (!Link.faultFree()) {
      RunId += ":seed";
      RunId += std::to_string(Link.Seed);
    }
    Obs.Log = obs::EventLog(RunId);
  }

  std::string Diags;
  auto CP = compileForOffloading(Source, CostModel::defaults(), AnalysisOpts,
                                 &Diags, InlineOptions(), PassOpts);
  if (!CP) {
    std::fprintf(stderr, "%s", Diags.c_str());
    return 1;
  }
  if (!Diags.empty())
    std::fprintf(stderr, "%s", Diags.c_str());

  if (DumpSource)
    std::printf("// program after inlining (%u sites)\n%s\n",
                CP->InlinedSites, printProgram(*CP->AST).c_str());
  if (DumpIRBefore) {
    // Replay the front end (parse, inline, sema, symbolics, lower) into a
    // scratch space so the pre-optimization IR can be shown even though
    // the compiled program only keeps the optimized module.
    DiagEngine RawDiags;
    ParamSpace RawSpace;
    auto RawAST = parseMiniC(Source, RawDiags);
    if (RawAST)
      inlineSmallFunctions(*RawAST, InlineOptions());
    if (!RawAST || !runSema(*RawAST, RawDiags)) {
      std::fprintf(stderr, "%s", RawDiags.dump().c_str());
      return 1;
    }
    SymbolicInfo RawInfo = analyzeSymbolics(*RawAST, RawSpace, RawDiags);
    LowerResult Raw = lowerProgram(*RawAST, RawInfo, RawSpace, RawDiags);
    if (!Raw) {
      std::fprintf(stderr, "%s", Raw.error().toString().c_str());
      return 1;
    }
    std::printf("// IR before optimization\n%s\n",
                (*Raw)->dump(RawSpace).c_str());
  }
  if (DumpIR)
    std::printf("// IR after optimization%s\n%s\n",
                PassOpts.Enabled ? "" : " (--no-opt: pipeline disabled)",
                CP->Module->dump(CP->Space).c_str());
  if (PassOpts.Enabled)
    std::printf("optimizer: %u -> %u instr(s), %u -> %u cost term(s), "
                "%u monomial(s) merged into %u composite dim(s)\n",
                CP->OptStats.InstrsBefore, CP->OptStats.InstrsAfter,
                CP->OptStats.CostTermsBefore, CP->OptStats.CostTermsAfter,
                CP->OptStats.MonomialsMerged, CP->OptStats.MergedDims);

  std::printf("tasks (%u + entry/exit):\n", CP->numRealTasks());
  std::printf("%s\n", CP->Graph.dump(CP->Space).c_str());
  std::printf("network: %u nodes / %u arcs, simplified to %u / %u\n",
              CP->Partition.FullNodes, CP->Partition.FullArcs,
              CP->Partition.SolvedNodes, CP->Partition.SolvedArcs);
  std::printf("analysis time: %.2fs%s\n\n", CP->Partition.AnalysisSeconds,
              CP->Partition.Approximate ? " (sampled regions)" : "");
  std::printf("%s\n", CP->Partition.describe(CP->Space, CP->Graph).c_str());
  std::printf("%s", renderTransformedProgram(*CP).c_str());

  if (HaveParams && Params.size() != CP->AST->RuntimeParams.size()) {
    std::fprintf(stderr, "error: program declares %zu parameter(s)\n",
                 CP->AST->RuntimeParams.size());
    return 2;
  }
  if (HaveParams) {
    unsigned Choice = CP->Partition.pickChoice(CP->parameterPoint(Params));
    std::printf("\nat the given parameters, partitioning %u is optimal "
                "(cost %s)\n",
                Choice + 1,
                CP->Partition.Choices[Choice]
                    .CostExpr.evaluate(CP->parameterPoint(Params))
                    .toString()
                    .c_str());
  }

  if (!ServePath.empty()) {
    int Code = serveRequests(*CP, ServePath, ServeThreads, ServeRepeat, Obs);
    if (Code != 0 || !Run)
      return Code;
  }

  if (!Run)
    return 0;
  if (!HaveParams && !CP->AST->RuntimeParams.empty()) {
    std::fprintf(stderr,
                 "error: --run needs --params (program declares %zu)\n",
                 CP->AST->RuntimeParams.size());
    return 2;
  }

  // Reference outputs: the all-client run on a perfect link.
  ExecOptions LocalOpts;
  LocalOpts.Mode = ExecOptions::Placement::AllClient;
  LocalOpts.ParamValues = Params;
  LocalOpts.Inputs = Inputs;
  ExecResult Local = runProgram(*CP, LocalOpts);
  if (!Local.OK) {
    std::fprintf(stderr, "error: local run failed: %s\n",
                 Local.Error.c_str());
    return 1;
  }

  ExecOptions Opts;
  Opts.Mode = ExecOptions::Placement::Dispatch;
  Opts.ParamValues = Params;
  Opts.Inputs = Inputs;
  Opts.Link = Link;
  Opts.OnLinkFailure = Policy;
  Opts.Adapt = Adapt;
  Opts.Drift = Drift;
  Opts.Crash = Crash;
  Opts.LedgerBudgetBytes = LedgerBudget;
  // The timeline recorder feeds the cost audit, the text Gantt, the
  // simulated-time trace lanes and the sim-time telemetry windows; skip
  // it when nothing consumes it.
  RuntimeRecorder Recorder;
  bool WantSimWindows =
      !Obs.MetricsPath.empty() || !Obs.TimeseriesPath.empty();
  bool WantTimeline = !AuditPath.empty() || Report || !TracePath.empty() ||
                      WantSimWindows;
  if (WantTimeline)
    Opts.Recorder = &Recorder;
  if (!Obs.LogPath.empty())
    Opts.Events = &Obs.Log;
  ExecResult R = runProgram(*CP, Opts);
  if (WantSimWindows) {
    SimWindowOptions SimOpts;
    SimOpts.WindowUnits = Rational(WindowUnits);
    Obs.SimSeries = buildSimWindows(Recorder, SimOpts);
  }

  std::vector<std::string> TaskLabels, DataLabels;
  if (WantTimeline) {
    for (const TCFG::Task &Task : CP->Graph.Tasks)
      TaskLabels.push_back(Task.Label);
    for (unsigned D = 0; D != CP->Memory->numLocs(); ++D)
      DataLabels.push_back(CP->Memory->loc(D).Name);
    Recorder.emitChromeLanes(obs::Tracer::global(), TaskLabels, DataLabels);
  }
  if (!AuditPath.empty() || Report) {
    obs::CostAuditReport Audit = obs::auditRun(*CP, R, Params, &Recorder);
    if (!AuditPath.empty()) {
      std::string Err;
      if (!obs::writeTextFile(AuditPath, Audit.toJSON(), &Err)) {
        std::fprintf(stderr, "error: cannot write audit file: %s\n",
                     Err.c_str());
        return 1;
      }
      std::fprintf(stderr, "audit: report written to %s\n",
                   AuditPath.c_str());
    }
    if (Report) {
      std::printf("\n%s", Audit.toText().c_str());
      std::printf("\n== runtime timeline (cost units) ==\n%s",
                  Recorder.renderTimeline(TaskLabels, DataLabels).c_str());
    }
  }

  std::printf("\n== adaptive run (policy %s, adapt %s", policyName(Policy),
              adaptName(Adapt.Policy));
  if (Drift.active())
    std::printf(", %zu drift phase(s)", Drift.Phases.size());
  if (Crash.active())
    std::printf(", %zu crash event(s)", Crash.Events.size());
  if (!Link.faultFree()) {
    std::printf(", seed %llu, drop %.3g",
                static_cast<unsigned long long>(Link.Seed), Link.DropRate);
    if (Link.JitterUnits)
      std::printf(", jitter %u", Link.JitterUnits);
    if (Link.DisconnectLength)
      std::printf(", disconnect @%llu",
                  static_cast<unsigned long long>(Link.DisconnectAt));
  }
  std::printf(") ==\n");
  if (!R.OK) {
    std::printf("run FAILED: %s\n", R.Error.c_str());
    return 1;
  }
  std::printf("%s  time %s (local %s)  energy %.4f J\n",
              choiceName(R.ChoiceUsed, "choice ").c_str(),
              R.Time.toString().c_str(), Local.Time.toString().c_str(),
              R.EnergyJoules);
  std::printf("client instrs %llu  server instrs %llu  migrations %llu  "
              "transfers %llu\n",
              static_cast<unsigned long long>(R.ClientInstrs),
              static_cast<unsigned long long>(R.ServerInstrs),
              static_cast<unsigned long long>(R.Migrations),
              static_cast<unsigned long long>(R.TransferCount));
  if (!Link.faultFree())
    std::printf("faults: timeouts %llu  retries %llu  fallbacks %llu  "
                "time lost %s%s\n",
                static_cast<unsigned long long>(R.Timeouts),
                static_cast<unsigned long long>(R.Retries),
                static_cast<unsigned long long>(R.Fallbacks),
                R.FaultTime.toString().c_str(),
                R.Degraded ? "  (degraded to local)" : "");
  if (R.Crashes || R.Probes)
    std::printf("recovery: %llu crash(es)  %llu restart(s)  %llu "
                "rollback(s)  %llu restored  %llu probe(s) (%llu lost)  "
                "%llu re-offload(s)  ledger %llu sync(s)/%llu B (peak "
                "%llu B, %llu evicted, %llu refetched)\n",
                static_cast<unsigned long long>(R.Crashes),
                static_cast<unsigned long long>(R.Restarts),
                static_cast<unsigned long long>(R.CrashRecoveries),
                static_cast<unsigned long long>(R.LedgerRestores),
                static_cast<unsigned long long>(R.Probes),
                static_cast<unsigned long long>(R.ProbeFailures),
                static_cast<unsigned long long>(R.Reoffloads),
                static_cast<unsigned long long>(R.LedgerSyncs),
                static_cast<unsigned long long>(R.LedgerSyncBytes),
                static_cast<unsigned long long>(R.LedgerPeakBytes),
                static_cast<unsigned long long>(R.LedgerEvictions),
                static_cast<unsigned long long>(R.LedgerRefetches));
  if (!R.Redispatches.empty() || R.FinalChoice != R.ChoiceUsed) {
    std::printf("adaptation: %zu re-dispatch(es), finished on %s\n",
                R.Redispatches.size(),
                choiceName(R.FinalChoice, "choice ").c_str());
    for (const RunEvent &E : R.Redispatches)
      std::printf("  t=%s: %s -> %s (predicted %s -> %s)\n",
                  E.At.toString().c_str(),
                  choiceName(E.FromChoice, "choice ").c_str(),
                  choiceName(E.ToChoice, "choice ").c_str(),
                  E.PredictedStay.toString().c_str(),
                  E.PredictedSwitch.toString().c_str());
  }
  std::printf("outputs: %zu value(s), %s the all-client run\n",
              R.Outputs.size(),
              R.Outputs == Local.Outputs ? "bit-identical to"
                                         : "DIFFERENT from");
  return R.Outputs == Local.Outputs ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  ObsOutputs Obs;
  int Code = runExplorer(Argc, Argv, Obs);
  // Emit observability output on every exit path, including failures --
  // a trace or event log of a failed run is exactly what one wants to
  // look at. Every sink write is checked end to end (open, write, flush,
  // close) and a failed flush turns into a nonzero exit: silently
  // dropped telemetry is worse than none. Human-readable stats go to
  // stderr: stdout stays machine-parseable (dispatch tables, --report
  // output) for scripts piping the tool.
  if (Obs.PrintStats)
    std::fprintf(stderr, "\n== stats ==\n%s",
                 obs::StatsRegistry::global().snapshot().toText().c_str());
  if (!Obs.TracePath.empty()) {
    if (!obs::Tracer::global().writeJSON(Obs.TracePath)) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   Obs.TracePath.c_str());
      Code = Code ? Code : 1;
    } else {
      std::fprintf(stderr, "trace: %zu event(s) written to %s\n",
                   obs::Tracer::global().eventCount(), Obs.TracePath.c_str());
    }
  }
  std::string Err;
  if (!Obs.LogPath.empty()) {
    if (!obs::writeTextFile(Obs.LogPath, Obs.Log.toJSONL(), &Err)) {
      std::fprintf(stderr, "error: cannot write event log: %s\n",
                   Err.c_str());
      Code = Code ? Code : 1;
    } else {
      std::fprintf(stderr, "log: %zu event(s) written to %s\n",
                   Obs.Log.size(), Obs.LogPath.c_str());
    }
  }
  if (!Obs.TimeseriesPath.empty()) {
    std::string Text = Obs.ServeSeries.toJSONL();
    Text += Obs.SimSeries.toJSONL();
    if (!obs::writeTextFile(Obs.TimeseriesPath, Text, &Err)) {
      std::fprintf(stderr, "error: cannot write timeseries: %s\n",
                   Err.c_str());
      Code = Code ? Code : 1;
    } else {
      std::fprintf(stderr, "timeseries: %zu window(s) written to %s\n",
                   Obs.ServeSeries.size() + Obs.SimSeries.size(),
                   Obs.TimeseriesPath.c_str());
    }
  }
  if (!Obs.MetricsPath.empty()) {
    if (!flushMetrics(Obs, Err)) {
      std::fprintf(stderr, "error: cannot write metrics file: %s\n",
                   Err.c_str());
      Code = Code ? Code : 1;
    } else {
      std::fprintf(stderr, "metrics: exposition written to %s\n",
                   Obs.MetricsPath.c_str());
    }
  }
  return Code;
}
