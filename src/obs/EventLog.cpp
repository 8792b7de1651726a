//===- obs/EventLog.cpp - Structured JSONL event log ----------------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "obs/EventLog.h"

#include <cstdio>

using namespace paco;
using namespace paco::obs;

const char *paco::obs::logLevelName(LogLevel L) {
  switch (L) {
  case LogLevel::Debug:
    return "debug";
  case LogLevel::Info:
    return "info";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Error:
    return "error";
  }
  return "info";
}

#ifndef PACO_DISABLE_OBS

namespace {

void appendEscaped(std::string &Out, const char *Text, size_t Size) {
  for (size_t I = 0; I != Size; ++I) {
    char C = Text[I];
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void appendKey(std::string &Out, const char *Key) {
  Out += ", \"";
  appendEscaped(Out, Key, std::char_traits<char>::length(Key));
  Out += "\": ";
}

} // namespace

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      const std::string &V) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  Line += "\"";
  appendEscaped(Line, V.data(), V.size());
  Line += "\"";
  return *this;
}

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      const char *V) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  Line += "\"";
  appendEscaped(Line, V, std::char_traits<char>::length(V));
  Line += "\"";
  return *this;
}

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      uint64_t V) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  Line += std::to_string(V);
  return *this;
}

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      int64_t V) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  Line += std::to_string(V);
  return *this;
}

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      double V) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  Line += Buf;
  return *this;
}

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      bool V) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  Line += V ? "true" : "false";
  return *this;
}

EventLog::EventBuilder &EventLog::EventBuilder::field(const char *Key,
                                                      std::nullptr_t) {
  if (!Log)
    return *this;
  appendKey(Line, Key);
  Line += "null";
  return *this;
}

EventLog::EventBuilder EventLog::event(LogLevel L, const char *Type) {
  if (L < MinLevel)
    return EventBuilder(nullptr, std::string());
  // The `seq` value is patched in at commit time (committed events are
  // numbered densely even when a builder for a dropped level was created
  // in between); the placeholder keeps field order stable.
  std::string Line = "{\"run\": \"";
  appendEscaped(Line, RunId.data(), RunId.size());
  Line += "\", \"seq\": @, \"level\": \"";
  Line += logLevelName(L);
  Line += "\", \"type\": \"";
  appendEscaped(Line, Type, std::char_traits<char>::length(Type));
  Line += "\"";
  return EventBuilder(this, std::move(Line));
}

void EventLog::commit(std::string Line) {
  // Match the full placeholder, not a bare '@' (the run id may contain
  // one); the escaped run id cannot contain an unescaped '"'.
  static const char Placeholder[] = "\"seq\": @";
  size_t At = Line.find(Placeholder);
  if (At != std::string::npos)
    Line.replace(At + sizeof(Placeholder) - 2, 1, std::to_string(Seq));
  ++Seq;
  Line += "}";
  Lines.push_back(std::move(Line));
}

std::string EventLog::toJSONL() const {
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += "\n";
  }
  return Out;
}

#endif // PACO_DISABLE_OBS
