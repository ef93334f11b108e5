#include "trace/export.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace o2pc::trace {

namespace {

/// Message-type names matching net::MessageTypeName. Kept as a local table
/// so the trace library (which net itself links against for its emit
/// points) does not depend back on net.
constexpr const char* MsgName(std::int64_t type) {
  switch (type) {
    case 0:
      return "SUBTXN-INVOKE";
    case 1:
      return "SUBTXN-ACK";
    case 2:
      return "VOTE-REQ";
    case 3:
      return "VOTE";
    case 4:
      return "DECISION";
    case 5:
      return "DECISION-ACK";
    case 6:
      return "USER";
  }
  return "?";
}
constexpr int kNumMsgTypes = 7;
static_assert(MsgName(kNumMsgTypes - 1)[0] != '?' &&
              MsgName(kNumMsgTypes)[0] == '?');
static_assert(MarkReasonName(static_cast<MarkReason>(kNumMarkReasons))[0] ==
              '?');

bool IsMsgEvent(EventType type) {
  return type == EventType::kMsgSend || type == EventType::kMsgRecv ||
         type == EventType::kMsgDrop;
}

std::int64_t SiteField(SiteId site) {
  return site == kInvalidSite ? -1 : static_cast<std::int64_t>(site);
}

/// Human-oriented display name for the Chrome timeline: message events get
/// their protocol message name ("VOTE-REQ send"), the rest the event name.
std::string DisplayName(const TraceEvent& event) {
  switch (event.type) {
    case EventType::kMsgSend:
      return StrCat(MsgName(event.a), " send");
    case EventType::kMsgRecv:
      return StrCat(MsgName(event.a), " recv");
    case EventType::kMsgDrop:
      return StrCat(MsgName(event.a), " drop");
    case EventType::kMarkInsert:
      return StrCat("mark_insert (",
                    MarkReasonName(static_cast<MarkReason>(event.a)), ")");
    default:
      return EventTypeName(event.type);
  }
}

/// A constant run of a JSONL line together with its FNV-1a jump: folding
/// the run's bytes into any hash state h yields mul * h + add[h & 0xff]
/// (mod 2^64; DESIGN §17.1). The hasher thus pays one multiply, one table
/// load and one add per run instead of an xor and a multiply per byte.
struct Literal {
  char bytes[40] = {};
  std::size_t size = 0;
  std::uint64_t mul = 1;
  std::uint64_t add[256] = {};

  constexpr std::string_view text() const { return {bytes, size}; }
};

/// Concatenates `parts` and tabulates the jump. Only ever evaluated at
/// compile time: a run longer than `bytes` fails to compile.
constexpr Literal MakeLiteral(std::initializer_list<std::string_view> parts) {
  Literal literal;
  for (const std::string_view part : parts) {
    for (const char c : part) literal.bytes[literal.size++] = c;
  }
  for (std::size_t i = 0; i < literal.size; ++i) literal.mul *= kFnvPrime;
  for (std::uint64_t low = 0; low < 256; ++low) {
    std::uint64_t hash = low;
    for (std::size_t i = 0; i < literal.size; ++i) {
      hash = (hash ^ static_cast<unsigned char>(literal.bytes[i])) * kFnvPrime;
    }
    literal.add[low] = hash - literal.mul * low;
  }
  return literal;
}

// Every table is constexpr: built by the compiler, never at run time, so
// no first call can allocate it (inside a run arena or anywhere else).
constexpr Literal kLineStart = MakeLiteral({"{\"t\":"});
constexpr Literal kTxnField = MakeLiteral({",\"txn\":"});
constexpr Literal kAField = MakeLiteral({",\"a\":"});
constexpr Literal kBField = MakeLiteral({",\"b\":"});
constexpr Literal kPlainEnd = MakeLiteral({"}"});

/// Entry `kIndex` of a table, as its own constant: compilers cap the work
/// of one constant evaluation (clang at 2^20 statements), which a whole
/// table tabulated in one evaluation could exceed.
template <Literal (*kMake)(int), int kIndex>
constexpr Literal kEntry = kMake(kIndex);

template <Literal (*kMake)(int), int... kIndex>
constexpr std::array<Literal, sizeof...(kIndex)> Table(
    std::integer_sequence<int, kIndex...>) {
  return {kEntry<kMake, kIndex>...};
}

/// `,"type":"<name>","site":` per type byte; the last entry serves every
/// byte outside the enumeration ("?").
constexpr Literal TypeField(int type) {
  return MakeLiteral({",\"type\":\"",
                      EventTypeName(static_cast<EventType>(type)),
                      "\",\"site\":"});
}
constexpr auto kTypeFields =
    Table<TypeField>(std::make_integer_sequence<int, kNumEventTypes + 1>());

/// `,"msg":"<name>"}` per message type; the last entry is the "?" tail.
constexpr Literal MsgEnd(int type) {
  return MakeLiteral({",\"msg\":\"", MsgName(type), "\"}"});
}
constexpr auto kMsgEnds =
    Table<MsgEnd>(std::make_integer_sequence<int, kNumMsgTypes + 1>());

/// `,"reason":"<name>"}` per mark reason; the last entry is the "?" tail.
constexpr Literal ReasonEnd(int reason) {
  return MakeLiteral({",\"reason\":\"",
                      MarkReasonName(static_cast<MarkReason>(reason)),
                      "\"}"});
}
constexpr auto kReasonEnds =
    Table<ReasonEnd>(std::make_integer_sequence<int, kNumMarkReasons + 1>());

const Literal& LineEnd(const TraceEvent& event) {
  if (IsMsgEvent(event.type)) {
    return kMsgEnds[event.a >= 0 && event.a < kNumMsgTypes ? event.a
                                                           : kNumMsgTypes];
  }
  if (event.type == EventType::kMarkInsert) {
    // Converting to MarkReason keeps the low byte, as DisplayName's does.
    const auto reason = static_cast<int>(static_cast<MarkReason>(event.a));
    return kReasonEnds[std::min(reason, kNumMarkReasons)];
  }
  return kPlainEnd;
}

template <typename Sink, typename Int>
void WriteNumber(Int value, Sink& sink) {
  if (static_cast<std::uint64_t>(value) < 10) {  // most sites, a's and b's
    const char digit = static_cast<char>('0' + value);
    sink.Append(std::string_view(&digit, 1));
    return;
  }
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  sink.Append(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

/// The one definition of a JSONL line (no newline):
/// {"t":1234,"type":"lock_release","site":0,"txn":7,"a":3,"b":1}
/// plus `"msg"` on message events and `"reason"` on mark inserts. `Sink`
/// takes Append(const Literal&) and Append(std::string_view).
template <typename Sink>
void WriteJsonLine(const TraceEvent& event, Sink& sink) {
  sink.Append(kLineStart);
  WriteNumber(event.time, sink);
  sink.Append(
      kTypeFields[std::min(static_cast<int>(event.type), kNumEventTypes)]);
  WriteNumber(SiteField(event.site), sink);
  sink.Append(kTxnField);
  WriteNumber(event.txn, sink);
  sink.Append(kAField);
  WriteNumber(event.a, sink);
  sink.Append(kBField);
  WriteNumber(event.b, sink);
  sink.Append(LineEnd(event));
}

template <typename Sink>
void WriteJsonl(const std::vector<TraceEvent>& events, Sink& sink) {
  for (const TraceEvent& event : events) {
    WriteJsonLine(event, sink);
    sink.Append(std::string_view("\n"));
  }
}

/// Renders into a string.
class StringSink {
 public:
  explicit StringSink(std::string* out) : out_(out) {}
  void Append(const Literal& literal) { out_->append(literal.text()); }
  void Append(std::string_view text) { out_->append(text); }

 private:
  std::string* out_;
};

/// Folds the rendered bytes into an FNV-1a hash without rendering them.
class FnvSink {
 public:
  void Append(const Literal& literal) {
    hash_ = literal.mul * hash_ + literal.add[hash_ & 0xff];
  }
  void Append(std::string_view text) {
    for (const char c : text) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * kFnvPrime;
    }
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffsetBasis;
};

}  // namespace

void AppendJsonLine(const TraceEvent& event, std::string* out) {
  StringSink sink(out);
  WriteJsonLine(event, sink);
}

std::string ToJsonLine(const TraceEvent& event) {
  std::string out;
  AppendJsonLine(event, &out);
  return out;
}

std::string ExportJsonlString(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 96);
  StringSink sink(&out);
  WriteJsonl(events, sink);
  return out;
}

std::uint64_t JsonlFingerprint(const std::vector<TraceEvent>& events) {
  FnvSink sink;
  WriteJsonl(events, sink);
  return sink.hash();
}

void ExportJsonl(const std::vector<TraceEvent>& events, std::ostream& out) {
  out << ExportJsonlString(events);
}

void ExportChromeTrace(const std::vector<TraceEvent>& events,
                       std::ostream& out) {
  // Track layout: pid 1 = the simulated system; tid = site + 1 (tid 0 is
  // the "system" track for site-less events, e.g. a coordinator-side event
  // recorded with kInvalidSite).
  SiteId max_site = 0;
  for (const TraceEvent& event : events) {
    if (event.site != kInvalidSite && event.site > max_site) {
      max_site = event.site;
    }
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& object) {
    if (!first) out << ",";
    first = false;
    out << "\n" << object;
  };
  // Thread-name metadata labels each site's track.
  emit("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
       "\"args\":{\"name\":\"system\"}}");
  for (SiteId site = 0; site <= max_site; ++site) {
    emit(StrCat("{\"ph\":\"M\",\"pid\":1,\"tid\":", site + 1,
                ",\"name\":\"thread_name\",\"args\":{\"name\":\"site ", site,
                "\"}}"));
  }
  for (const TraceEvent& event : events) {
    const std::int64_t tid =
        event.site == kInvalidSite ? 0 : static_cast<std::int64_t>(event.site) + 1;
    std::ostringstream object;
    object << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << tid
           << ",\"ts\":" << event.time << ",\"name\":\""
           << DisplayName(event)
           << "\",\"cat\":\"o2pc\",\"args\":{\"txn\":" << event.txn
           << ",\"a\":" << event.a << ",\"b\":" << event.b << "}}";
    emit(object.str());
  }
  out << "\n]}\n";
}

namespace {

bool WriteFileWith(const std::vector<TraceEvent>& events,
                   const std::string& path,
                   void (*exporter)(const std::vector<TraceEvent>&,
                                    std::ostream&)) {
  std::ofstream out(path);
  if (!out) {
    O2PC_LOG(kError) << "cannot open trace output file '" << path << "'";
    return false;
  }
  exporter(events, out);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace

bool WriteJsonlFile(const std::vector<TraceEvent>& events,
                    const std::string& path) {
  return WriteFileWith(events, path, &ExportJsonl);
}

bool WriteChromeTraceFile(const std::vector<TraceEvent>& events,
                          const std::string& path) {
  return WriteFileWith(events, path, &ExportChromeTrace);
}

}  // namespace o2pc::trace
