#ifndef O2PC_TELEMETRY_REPORT_H_
#define O2PC_TELEMETRY_REPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/histogram.h"
#include "telemetry/coverage.h"
#include "telemetry/phase_profiler.h"
#include "telemetry/time_series.h"

/// \file
/// The telemetry data model shared by o2pc_sim, o2pc_campaign, and
/// o2pc_report: per-run capture (RunTelemetry), exact in-process sweep
/// folding (TelemetryAccumulator), the serializable sweep summary
/// (SweepTelemetry, a stable JSON schema), and rendering — machine-
/// readable JSON plus a self-contained single-file HTML report.
///
/// Determinism contract: every field of SweepTelemetry is a pure function
/// of the per-run journals and the sweep order. The accumulator is fed in
/// run-index order by the campaign's in-order fold (one run at a time,
/// whichever worker runs it), all floats are derived from integral
/// microsecond samples and formatted through one fixed-precision helper,
/// and no wall-clock value is ever included — so the emitted JSON (and
/// the coverage fingerprint inside it) is byte-identical for every
/// `--jobs`.
///
/// Percentiles are exact where the raw samples are in hand (one process'
/// sweep, via TelemetryAccumulator). Across files, o2pc_report merges the
/// fixed-layout bucket histograms and re-estimates percentiles from the
/// merged buckets — approximate, and labeled as such in the report.

namespace o2pc::telemetry {

/// Everything captured from a single run.
struct RunTelemetry {
  PhaseProfile profile;
  CoverageMap coverage;
  TimeSeries series;    ///< empty unless a sampler ran
  bool has_series = false;
};

/// Fills `out`'s phase profile and message-type coverage from a run's
/// trace journal. Steps, fault productions, and verdicts come from the
/// caller's hooks (step observer, injector, oracle report).
void CollectFromJournal(const std::vector<trace::TraceEvent>& events,
                        RunTelemetry* out);

/// Serializable per-phase latency summary. count/sum/min/max are exact
/// under any merge; p50/p90/p99 are exact when built from raw samples and
/// bucket-estimated after a cross-file merge.
struct PhaseStats {
  std::uint64_t count = 0;
  double sum_us = 0;
  double min_us = 0;
  double max_us = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  metrics::BucketHistogram buckets;

  static PhaseStats FromHistogram(const metrics::Histogram& histogram);

  double MeanUs() const {
    return count == 0 ? 0.0 : sum_us / static_cast<double>(count);
  }

  /// Bucket-based merge; percentiles become estimates. False on
  /// mismatched bucket layouts (target untouched).
  bool Merge(const PhaseStats& other);
};

/// Phase latencies for one protocol across a sweep.
struct ProtocolTelemetry {
  std::string protocol;  ///< "o2pc" or "2pc"
  std::uint64_t runs = 0;
  std::uint64_t txns_profiled = 0;
  std::uint64_t txns_committed = 0;
  std::array<PhaseStats, kNumPhases> phases;
};

/// One captured time-series with a human-readable origin label.
struct LabeledSeries {
  std::string label;
  TimeSeries series;
};

/// The sweep-level telemetry summary — the unit of serialization.
struct SweepTelemetry {
  std::uint64_t runs = 0;
  CoverageMap coverage;
  std::vector<ProtocolTelemetry> protocols;  ///< first-appearance order
  std::vector<LabeledSeries> series;
  /// True when phase percentiles were re-estimated from buckets (set by
  /// cross-file Merge); surfaces as a caveat in the report.
  bool approximate_percentiles = false;

  /// Stable, pretty-printed JSON (schema "o2pc-telemetry-v1").
  std::string ToJson() const;
  static bool FromJson(const std::string& text, SweepTelemetry* out,
                       std::string* error);

  /// Cross-file fold (o2pc_report). False + `*error` on schema conflicts
  /// (e.g. mismatched bucket layouts).
  bool Merge(const SweepTelemetry& other, std::string* error);
};

/// Folds per-run telemetry into a sweep summary, keeping raw phase
/// samples until Build() so in-process percentiles are exact. Feed runs
/// in sweep order (the order itself only affects protocol/series listing
/// order, never any counter).
class TelemetryAccumulator {
 public:
  /// `protocol` is the run's protocol label ("o2pc"/"2pc").
  void AddRun(const std::string& protocol, const RunTelemetry& run);
  /// Attaches a captured time-series under `label`.
  void AddSeries(std::string label, TimeSeries series);

  std::uint64_t runs() const { return runs_; }
  SweepTelemetry Build() const;

 private:
  struct ProtocolAccumulator {
    std::string name;
    std::uint64_t runs = 0;
    PhaseProfile profile;
  };

  std::uint64_t runs_ = 0;
  CoverageMap coverage_;
  std::vector<ProtocolAccumulator> protocols_;
  std::vector<LabeledSeries> series_;
};

/// Renders the self-contained single-file HTML report: per-protocol phase
/// breakdown (stacked critical path + per-phase table), the coverage
/// matrix with unhit cells highlighted, and time-series sparklines.
std::string RenderHtml(const SweepTelemetry& telemetry,
                       const std::string& title);

/// Writes `content` to `path`. False (with a perror-style log) on failure.
bool WriteTextFile(const std::string& path, const std::string& content);

}  // namespace o2pc::telemetry

#endif  // O2PC_TELEMETRY_REPORT_H_
