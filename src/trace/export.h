#ifndef O2PC_TRACE_EXPORT_H_
#define O2PC_TRACE_EXPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "trace/trace.h"

/// \file
/// Trace exporters.
///
///  * JSONL: one self-describing JSON object per line — grep/jq-friendly,
///    stable field names, suited to regression diffs and scripted analysis.
///  * Chrome trace: the `chrome://tracing` / Perfetto JSON object format
///    with one track (tid) per site, so a run's per-site event timelines
///    can be browsed visually. Timestamps are simulated microseconds,
///    which is exactly the `ts` unit the format expects.

namespace o2pc::trace {

/// One event as a single-line JSON object:
/// {"t":1234,"type":"lock_release","site":0,"txn":7,"a":3,"b":1}
std::string ToJsonLine(const TraceEvent& event);

/// ToJsonLine appended to `*out` (no trailing newline). The journal hot
/// path: integer formatting via std::to_chars into one growing buffer —
/// no ostringstream, no locale machinery, no per-line string.
void AppendJsonLine(const TraceEvent& event, std::string* out);

/// Whole-journal JSONL as one string (one line per event,
/// newline-terminated). Byte-identical to ExportJsonl's stream output.
std::string ExportJsonlString(const std::vector<TraceEvent>& events);

/// The FNV-1a 64-bit hash of ExportJsonlString(events) — for every input
/// exactly campaign::Fingerprint(ExportJsonlString(events)) — computed
/// without rendering: constant runs of each line are folded in by
/// compile-time jump tables, only the decimal digits byte by byte. This is
/// the campaign runner's per-run journal fingerprint.
std::uint64_t JsonlFingerprint(const std::vector<TraceEvent>& events);

/// Whole-journal JSONL (one ToJsonLine per event, newline-terminated).
void ExportJsonl(const std::vector<TraceEvent>& events, std::ostream& out);

/// Chrome trace-event JSON: {"traceEvents":[...]}. Every event becomes an
/// instant event on its site's track; site kInvalidSite (system-level
/// events) lands on a dedicated "system" track. Thread-name metadata
/// labels the tracks.
void ExportChromeTrace(const std::vector<TraceEvent>& events,
                       std::ostream& out);

/// Convenience: export to a file. Returns false (and logs) on I/O failure.
bool WriteJsonlFile(const std::vector<TraceEvent>& events,
                    const std::string& path);
bool WriteChromeTraceFile(const std::vector<TraceEvent>& events,
                          const std::string& path);

}  // namespace o2pc::trace

#endif  // O2PC_TRACE_EXPORT_H_
