//===- obs/EventLog.h - Structured JSONL event log --------------*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A leveled, structured event log: every event is one JSON object per
/// line (JSONL) with a stable field order -- `run`, `seq`, `level`,
/// `type`, then caller fields in emission order -- so two logs of the
/// same run diff byte-for-byte. Events carry no wall-clock data unless
/// the caller adds some, which keeps simulated-run logs deterministic
/// across replays and analysis thread counts.
///
/// The log is single-writer: events are appended from the thread driving
/// the run (the interpreter main loop, or the dispatch batch caller after
/// its worker join). Under -DPACO_DISABLE_OBS the whole class compiles to
/// a zero-size no-op.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_OBS_EVENTLOG_H
#define PACO_OBS_EVENTLOG_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace paco {
namespace obs {

/// Event severity. Events below the log's minimum level are dropped at
/// the emission site (and consume no sequence number).
enum class LogLevel : unsigned { Debug = 0, Info = 1, Warn = 2, Error = 3 };

const char *logLevelName(LogLevel L);

#ifndef PACO_DISABLE_OBS

/// The log. Collects committed lines in memory; render with toJSONL().
class EventLog {
public:
  explicit EventLog(std::string RunId = "run",
                    LogLevel MinLevel = LogLevel::Debug)
      : RunId(std::move(RunId)), MinLevel(MinLevel) {}

  const std::string &runId() const { return RunId; }
  void setMinLevel(LogLevel L) { MinLevel = L; }
  LogLevel minLevel() const { return MinLevel; }

  /// Builder for one event line; fields render in call order and the
  /// line commits (gaining its `seq`) when the builder is destroyed.
  class EventBuilder {
  public:
    EventBuilder(EventBuilder &&Other) noexcept
        : Log(Other.Log), Line(std::move(Other.Line)) {
      Other.Log = nullptr;
    }
    EventBuilder(const EventBuilder &) = delete;
    EventBuilder &operator=(const EventBuilder &) = delete;
    EventBuilder &operator=(EventBuilder &&) = delete;

    EventBuilder &field(const char *Key, const std::string &Value);
    EventBuilder &field(const char *Key, const char *Value);
    EventBuilder &field(const char *Key, uint64_t Value);
    EventBuilder &field(const char *Key, int64_t Value);
    EventBuilder &field(const char *Key, unsigned Value) {
      return field(Key, static_cast<uint64_t>(Value));
    }
    EventBuilder &field(const char *Key, int Value) {
      return field(Key, static_cast<int64_t>(Value));
    }
    EventBuilder &field(const char *Key, double Value);
    EventBuilder &field(const char *Key, bool Value);
    /// Writes `null`, for a field whose value does not exist.
    EventBuilder &field(const char *Key, std::nullptr_t);

    ~EventBuilder() {
      if (Log)
        Log->commit(std::move(Line));
    }

  private:
    friend class EventLog;
    EventBuilder(EventLog *Log, std::string Line)
        : Log(Log), Line(std::move(Line)) {}

    EventLog *Log; ///< Null when the event was dropped by level.
    std::string Line;
  };

  /// Starts an event of \p Type at level \p L. Append fields to the
  /// returned builder; the event commits when the builder goes out of
  /// scope. Dropped (null-logged) when \p L is below the minimum level.
  EventBuilder event(LogLevel L, const char *Type);

  /// Number of committed events.
  size_t size() const { return Lines.size(); }
  const std::vector<std::string> &lines() const { return Lines; }

  /// All committed events, one JSON object per line, trailing newline
  /// after every line.
  std::string toJSONL() const;

  void clear() {
    Lines.clear();
    Seq = 0;
  }

private:
  friend class EventBuilder;
  void commit(std::string Line);

  std::string RunId;
  LogLevel MinLevel;
  uint64_t Seq = 0;
  std::vector<std::string> Lines;
};

#else // PACO_DISABLE_OBS

/// No-op stand-in: every method compiles away; emission sites still
/// type-check but evaluate to nothing.
class EventLog {
public:
  explicit EventLog(const std::string & = "", LogLevel = LogLevel::Debug) {}

  const std::string &runId() const {
    static const std::string Empty;
    return Empty;
  }
  void setMinLevel(LogLevel) {}
  LogLevel minLevel() const { return LogLevel::Error; }

  class EventBuilder {
  public:
    template <typename T> EventBuilder &field(const char *, T &&) {
      return *this;
    }
  };

  EventBuilder event(LogLevel, const char *) { return EventBuilder(); }
  size_t size() const { return 0; }
  std::vector<std::string> lines() const { return {}; }
  std::string toJSONL() const { return ""; }
  void clear() {}
};

#endif // PACO_DISABLE_OBS

} // namespace obs
} // namespace paco

#endif // PACO_OBS_EVENTLOG_H
