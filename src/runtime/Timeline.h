//===- runtime/Timeline.h - Simulated-run timeline recorder ----*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records what one simulated run did and when, on the *simulated* clock
/// (exact Rational cost units, not wall time). The interpreter attaches a
/// RuntimeRecorder through ExecOptions and reports every task-execution
/// segment and every runtime message (scheduling, data transfer,
/// registration) with its start/end simulated time, plus every control
/// event (RunEvent) at the instant it happened. Segments are split at
/// every message, so the recorded spans partition the run exactly: the sum
/// of all span durations equals the run's elapsed time, which the test
/// suite checks and the cost audit relies on.
///
/// The recorder renders two views: Chrome-trace lanes (a dedicated pid
/// with client / server / channel threads, one microsecond per cost unit)
/// and a deterministic text Gantt whose bytes depend only on the run.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_RUNTIME_TIMELINE_H
#define PACO_RUNTIME_TIMELINE_H

#include "support/Rational.h"

#include <cstdint>
#include <string>
#include <vector>

namespace paco {

namespace obs {
class Tracer;
} // namespace obs

/// One contiguous stay of the program on one host: no messages and no
/// host change between Start and End.
struct TaskSegment {
  unsigned Task = ~0u;
  bool OnServer = false;
  uint64_t Instrs = 0; ///< Instructions charged during the segment.
  Rational Start, End;
};

/// One runtime message on the channel lane. The span covers everything
/// the message cost the run, including timeout detection, backoff waits
/// and latency jitter of lost attempts.
struct MessageRecord {
  enum class Kind { Schedule, Transfer, Registration, Probe, LedgerSync };
  Kind K = Kind::Schedule;
  bool ToServer = true;
  unsigned FromTask = ~0u;
  unsigned ToTask = ~0u;
  unsigned LocId = ~0u;   ///< Transfer/Registration: the data item.
  uint64_t Bytes = 0;     ///< Transfer only.
  uint64_t Timeouts = 0;  ///< Attempts declared lost by this message.
  uint64_t Retries = 0;   ///< Re-sends after a timeout.
  bool Delivered = true;  ///< False when retries were exhausted.
  Rational Start, End;
};

/// One control decision the runtime took at a task boundary, or one
/// server-lifecycle event it observed. The timeline, the Chrome lanes,
/// the sim windows and the cost audit read these records; the
/// interpreter writes the matching log line, trace instant and counters
/// from the same record. Rendered as a zero-length channel event.
struct RunEvent {
  enum class Kind {
    Redispatch, ///< The closed loop switched partitioning choice.
    Crash,      ///< The server process died; server-resident data lost.
    Restart,    ///< A blank server process came back.
    Fallback,   ///< Rolled back to the checkpoint, resumed on the client.
    Reoffload,  ///< A probe priced the remote cut back in; re-dispatched.
    Exhausted,  ///< Probe budget spent; the degrade became permanent.
  };
  Kind K = Kind::Redispatch;
  Rational At;               ///< Simulated time of the event.
  unsigned AtTask = ~0u;     ///< Task active when the run observed it.
  unsigned FromChoice = ~0u; ///< Redispatch; ~0u is the all-client "local".
  unsigned ToChoice = ~0u;   ///< Redispatch and Reoffload.
  Rational PredictedStay;    ///< Redispatch: keeping FromChoice, profiled.
  Rational PredictedSwitch;  ///< Redispatch: running ToChoice, profiled.
  uint64_t Restored = 0;     ///< Fallback: data items restored from ledger.
};

/// Prints a partitioning choice: ~0u (the all-client run) as "local",
/// any other as \p Prefix followed by its index.
std::string choiceName(unsigned Choice, const char *Prefix = "");

/// Collects the timeline of one simulated run. Not thread-safe: the
/// interpreter is single-threaded and owns the recorder for the run.
class RuntimeRecorder {
public:
  /// Opens a segment for \p Task on the given host. Any still-open
  /// segment is closed first at \p Now with zero further instructions.
  void beginSegment(unsigned Task, bool OnServer, Rational Now);

  /// Closes the open segment (no-op when none is open).
  void endSegment(Rational Now, uint64_t Instrs);

  bool open() const { return SegmentOpen; }

  void message(MessageRecord M) { Messages.push_back(std::move(M)); }

  /// Records one control event, in the order the run took them.
  void event(RunEvent E) { Events.push_back(std::move(E)); }

  /// Drops all recorded state, ready for a fresh run.
  void clear();

  const std::vector<TaskSegment> &segments() const { return Segments; }
  const std::vector<MessageRecord> &messages() const { return Messages; }
  const std::vector<RunEvent> &events() const { return Events; }

  /// Total simulated units per lane. client + server + channel equals the
  /// run's elapsed time (segments and messages partition the run).
  Rational clientUnits() const;
  Rational serverUnits() const;
  Rational channelUnits() const;

  /// Deterministic text Gantt: one line per segment and message in start
  /// order, plus lane totals. \p TaskLabels / \p DataLabels map task and
  /// memory-location ids to names (out-of-range ids print numerically).
  std::string renderTimeline(const std::vector<std::string> &TaskLabels,
                             const std::vector<std::string> &DataLabels) const;

  /// Emits the timeline into \p T as complete events on a dedicated
  /// "simulated run" process (client/server/channel lanes, 1 us per cost
  /// unit). No-op when tracing is disabled.
  void emitChromeLanes(obs::Tracer &T,
                       const std::vector<std::string> &TaskLabels,
                       const std::vector<std::string> &DataLabels) const;

  /// The pid the Chrome lanes are emitted under (pid 1 is wall-clock
  /// pipeline tracing).
  static constexpr uint32_t TracePid = 2;

private:
  std::vector<TaskSegment> Segments;
  std::vector<MessageRecord> Messages;
  std::vector<RunEvent> Events;
  bool SegmentOpen = false;
};

} // namespace paco

#endif // PACO_RUNTIME_TIMELINE_H
