#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/stats.h"
#include "trace/trace.h"

/// \file
/// The benchmark's own arithmetic: order statistics, the tail rule for
/// percentiles, metric-name validation, the ledger balance, and the
/// simulated-time figures taken from one run's journal. Kept apart from
/// main.cc so each helper is unit-tested (tests/stats_test.cc).

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count). 0 when
/// empty.
double Median(std::vector<double> values);

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method). Needs at least two values; fewer give all three equal to the
/// single value (or 0).
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
Quartiles ExclusiveQuartiles(std::vector<double> values);

/// A nearest-rank percentile together with the evidence behind it: how
/// many samples it was taken from and how many lie strictly beyond it. A
/// tail percentile is worth reporting only when at least
/// `kMinSamplesBeyond` samples lie beyond it.
struct TailPercentile {
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;

  static constexpr std::size_t kMinSamplesBeyond = 10;
  bool reportable() const { return beyond >= kMinSamplesBeyond; }
};
/// `q` in (0, 1). Empty input gives a zero, unreportable percentile.
TailPercentile Percentile(std::vector<double> values, double q);

/// Metric names: 1..64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(std::string_view name);

/// The share of `wall` no phase span accounts for: 1 - sum(spans) / wall.
/// Negative when the spans over-count (overlap or clock skew).
double UnattributedFrac(const std::vector<double>& spans, double wall);

/// True when the spans sum to within `tolerance` of the wall, either way.
bool LedgerBalanced(double unattributed_frac, double tolerance = 0.05);

/// The simulated-time figures of one run, in microseconds of simulated
/// time. Filled by ExtractSim; merged across a sweep by Append.
struct SimSample {
  /// First submit to kTxnFinish, one per committed global transaction.
  std::vector<double> commit_us;
  /// Exclusive-lock hold times (grant to release) at every site.
  std::vector<double> xlock_hold_us;
  /// 2PC blocked-prepared windows, one per (transaction, site).
  std::vector<double> blocked_prepared_us;
  /// Logical global transactions submitted (restarts not counted).
  std::uint64_t globals_submitted = 0;
  std::uint64_t globals_committed = 0;
  std::uint64_t messages_sent = 0;

  void Append(const SimSample& other);
};

/// Computes a run's simulated-time figures from its journal. The journal
/// has no link between a transaction's restart incarnations, so the first
/// submit instant comes from the system's per-transaction `records`; each
/// committed record is checked against the journal (a kTxnFinish with
/// a=1 for the record's final incarnation, at the record's finish time),
/// and every journal commit must have a record. `holds` are the sites'
/// LockStats::exclusive_hold samples. Returns false (with `*error` set)
/// when journal and records disagree.
bool ExtractSim(const std::vector<o2pc::trace::TraceEvent>& events,
                const std::vector<o2pc::metrics::GlobalTxnRecord>& records,
                const std::vector<o2pc::Duration>& holds, SimSample* out,
                std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
