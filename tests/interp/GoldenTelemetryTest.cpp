//===- tests/interp/GoldenTelemetryTest.cpp - Telemetry golden files ------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Pins every sink the interpreter's control events reach to checked-in
// golden files, byte for byte, on three seeded scenarios: the drift+crash
// run of TelemetryDeterminismTest, the drift re-dispatch of
// AdaptationTest and the probe-exhausted permanent crash of
// RecoveryTest. Per scenario the files hold the event log (JSONL), the
// timeline text, the cost-audit JSON, the sim-time windows (JSONL), the
// sim.* / recovery.* registry counter deltas, the pid-2 Chrome lane
// events (sorted: only the set is pinned, not the emission order) and
// the wall-clock trace instants without their timestamps.
//
// On a mismatch the test writes what it produced to golden-actual/ under
// the working directory, so the difference can be inspected with diff.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "obs/CostAudit.h"
#include "obs/Trace.h"
#include "runtime/SimTelemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace paco;

namespace {

// Server-resident state plus a hot loop (the program of the crash and
// drift+crash scenarios).
const char *kStatefulPipeline = R"MINIC(
param int x in [1, 64];
param int y in [1, 256];
param int z in [1, 4096];

int *inbuf;
int *state;

void accumulate() {
  for (int i = 0; i < y; i++) {
    int acc = state[i] + inbuf[i];
    @trip(z) for (int k = 0; k < 100000000; k++) {
      if (k >= z) break;
      acc = (acc * 5 + 7) & 65535;
    }
    state[i] = acc;
  }
}

void main() {
  inbuf = malloc(y * 4);
  state = malloc(y * 4);
  for (int f = 0; f < x; f++) {
    for (int i = 0; i < y; i++) inbuf[i] = io_read();
    accumulate();
    io_write(f);
  }
  for (int i = 0; i < y; i++) io_write(state[i]);
}
)MINIC";

// The Figure-1 style frame pipeline of the drift re-dispatch scenario.
const char *kFramePipeline = R"MINIC(
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

const std::vector<int64_t> kParams = {16, 32, 1000}; // x, y, z

std::shared_ptr<CompiledProgram> compile(const char *Source) {
  std::string Diags;
  std::shared_ptr<CompiledProgram> CP =
      compileForOffloading(Source, CostModel::defaults(), {}, &Diags);
  EXPECT_TRUE(CP != nullptr) << Diags;
  return CP;
}

ExecOptions baseOpts(ExecOptions::Placement Mode) {
  ExecOptions Opts;
  Opts.Mode = Mode;
  Opts.ParamValues = kParams;
  Opts.Inputs.resize(16 * 32);
  for (size_t I = 0; I != Opts.Inputs.size(); ++I)
    Opts.Inputs[I] = static_cast<int64_t>((I * 7) % 251);
  return Opts;
}

AdaptationOptions eagerClosedLoop() {
  AdaptationOptions Adapt;
  Adapt.Policy = AdaptationPolicy::ClosedLoop;
  Adapt.Alpha = Rational::fraction(1, 2);
  Adapt.MinSamples = 4;
  Adapt.EvalPeriod = 1;
  Adapt.MinDwellBoundaries = 4;
  Adapt.ConfirmEvals = 2;
  Adapt.MaxRedispatches = 4;
  return Adapt;
}

/// Lines of \p Text for which \p Keep holds, trailing commas stripped.
template <typename Pred>
std::vector<std::string> traceLines(const std::string &Text, Pred Keep) {
  std::vector<std::string> Out;
  std::istringstream In(Text);
  for (std::string Line; std::getline(In, Line);) {
    if (!Keep(Line))
      continue;
    if (!Line.empty() && Line.back() == ',')
      Line.pop_back();
    Out.push_back(Line);
  }
  return Out;
}

/// Every sink's output of one recorded run: (file suffix, bytes).
using Outputs = std::vector<std::pair<std::string, std::string>>;

/// Runs \p Opts once with a recorder, an event log, the wall-clock
/// tracer and a counter snapshot around the run, and renders each sink.
Outputs captureRun(const CompiledProgram &CP, ExecOptions Opts) {
  RuntimeRecorder Rec;
  obs::EventLog Log("golden");
  Opts.Recorder = &Rec;
  Opts.Events = &Log;

  obs::Tracer &Wall = obs::Tracer::global();
  Wall.clear();
  Wall.enable();
  obs::StatsSnapshot Before = obs::StatsRegistry::global().snapshot();
  ExecResult R = runProgram(CP, Opts);
  obs::StatsSnapshot After = obs::StatsRegistry::global().snapshot();
  Wall.disable();
  std::string WallJSON = Wall.toJSON();
  Wall.clear();
  EXPECT_TRUE(R.OK) << R.Error;

  std::vector<std::string> TaskLabels, DataLabels;
  for (const TCFG::Task &Task : CP.Graph.Tasks)
    TaskLabels.push_back(Task.Label);
  for (unsigned D = 0; D != CP.Memory->numLocs(); ++D)
    DataLabels.push_back(CP.Memory->loc(D).Name);

  Outputs O;
  O.emplace_back("timeline.txt", Rec.renderTimeline(TaskLabels, DataLabels));
  O.emplace_back("audit.json",
                 obs::auditRun(CP, R, Opts.ParamValues, &Rec).toJSON());
#ifndef PACO_DISABLE_OBS
  O.emplace_back("events.jsonl", Log.toJSONL());

  SimWindowOptions WinOpts;
  WinOpts.WindowUnits = Rational(16384);
  WinOpts.Capacity = 1024;
  O.emplace_back("windows.jsonl", buildSimWindows(Rec, WinOpts).toJSONL());

  std::string Counters;
  for (const auto &[Name, Value] : After.Counters) {
    if (Name.rfind("sim.", 0) != 0 && Name.rfind("recovery.", 0) != 0)
      continue;
    auto It = Before.Counters.find(Name);
    uint64_t Delta = Value - (It == Before.Counters.end() ? 0 : It->second);
    if (Delta)
      Counters += Name + " " + std::to_string(Delta) + "\n";
  }
  O.emplace_back("counters.txt", Counters);

  obs::Tracer Lanes;
  Lanes.enable();
  Rec.emitChromeLanes(Lanes, TaskLabels, DataLabels);
  std::vector<std::string> LaneLines =
      traceLines(Lanes.toJSON(), [](const std::string &L) {
        return L.find("\"ph\": \"X\"") != std::string::npos &&
               L.find("\"pid\": 2,") != std::string::npos;
      });
  std::sort(LaneLines.begin(), LaneLines.end());
  std::string LaneText;
  for (const std::string &L : LaneLines)
    LaneText += L + "\n";
  O.emplace_back("lanes.txt", LaneText);

  // Instants carry wall-clock timestamps and thread ids: keep the name,
  // category and args, in emission order.
  std::string Instants;
  for (const std::string &L :
       traceLines(WallJSON, [](const std::string &L) {
         return L.find("\"ph\": \"i\"") != std::string::npos;
       })) {
    size_t Ph = L.find(", \"ph\"");
    size_t Args = L.find(", \"args\"");
    Instants += L.substr(0, Ph);
    if (Args != std::string::npos)
      Instants += L.substr(Args);
    Instants += "\n";
  }
  O.emplace_back("instants.txt", Instants);
#endif
  return O;
}

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

/// Byte-compares each output against golden/<Scenario>.<file>.
void expectGolden(const std::string &Scenario, const Outputs &O) {
  const std::filesystem::path Dir = PACO_GOLDEN_DIR;
  for (const auto &[Suffix, Actual] : O) {
    std::string Name = Scenario + "." + Suffix;
    std::filesystem::path Path = Dir / Name;
    if (std::filesystem::exists(Path) && readFile(Path) == Actual)
      continue;
    std::filesystem::create_directories("golden-actual");
    std::ofstream("golden-actual/" + Name, std::ios::binary) << Actual;
    ADD_FAILURE() << Name << " is missing or differs from its golden file; "
                  << "the actual output is in golden-actual/" << Name;
  }
}

TEST(GoldenTelemetryTest, DriftAndCrash) {
  auto CP = compile(kStatefulPipeline);
  ASSERT_TRUE(CP != nullptr);
  // The TelemetryDeterminismTest scenario: a seeded lossy link, a drift
  // ramp and a crash/restart, under the closed loop.
  ExecOptions Opts = baseOpts(ExecOptions::Placement::Dispatch);
  Opts.Link.Seed = 7;
  Opts.Link.DropRate = 0.05;
  std::string Err;
  ASSERT_TRUE(DriftSchedule::parse("at=60000,comm=8;at=160000,comm=1",
                                   Opts.Drift, Err))
      << Err;
  ASSERT_TRUE(CrashSchedule::parse("at=50000,restart=90000", Opts.Crash, Err))
      << Err;
  Opts.Adapt.Policy = AdaptationPolicy::ClosedLoop;
  Opts.Adapt.EvalPeriod = 1;
  Opts.Adapt.MinSamples = 4;
  Opts.Adapt.MinDwellBoundaries = 4;
  Opts.Adapt.ConfirmEvals = 2;
  Opts.Adapt.ProbePeriodBoundaries = 1;
  expectGolden("drift_crash", captureRun(*CP, Opts));
}

TEST(GoldenTelemetryTest, DriftRedispatch) {
  auto CP = compile(kFramePipeline);
  ASSERT_TRUE(CP != nullptr);
  // The AdaptationTest scenario: the bandwidth collapses 64x 13/16 of
  // the way through the fast run.
  ExecResult Fast = runProgram(*CP, baseOpts(ExecOptions::Placement::Dispatch));
  ASSERT_TRUE(Fast.OK) << Fast.Error;
  DriftPhase Collapse;
  Collapse.At = Fast.Time * Rational::fraction(13, 16);
  Collapse.CommScale = Rational(64);
  ExecOptions Opts = baseOpts(ExecOptions::Placement::Dispatch);
  Opts.Drift.Phases.push_back(Collapse);
  Opts.Adapt = eagerClosedLoop();
  expectGolden("drift_redispatch", captureRun(*CP, Opts));
}

TEST(GoldenTelemetryTest, ProbeExhausted) {
  auto CP = compile(kStatefulPipeline);
  ASSERT_TRUE(CP != nullptr);
  // The RecoveryTest scenario: a permanent crash 7/16 of the way through
  // the fast run drains a three-probe budget.
  ExecResult Fast = runProgram(*CP, baseOpts(ExecOptions::Placement::Dispatch));
  ASSERT_TRUE(Fast.OK) << Fast.Error;
  ServerCrash Crash;
  Crash.At = Fast.Time * Rational::fraction(7, 16);
  ExecOptions Opts = baseOpts(ExecOptions::Placement::Dispatch);
  Opts.Crash.Events.push_back(Crash);
  Opts.Adapt = eagerClosedLoop();
  Opts.Adapt.ProbePeriodBoundaries = 1;
  Opts.Adapt.ProbeBytes = 64;
  Opts.Adapt.ProbeBudget = 3;
  expectGolden("probe_exhausted", captureRun(*CP, Opts));
}

} // namespace
