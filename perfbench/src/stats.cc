#include "stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "telemetry/phase_profiler.h"

namespace perfbench {

using o2pc::TxnId;
using o2pc::trace::EventType;
using o2pc::trace::TraceEvent;

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

Quartiles ExclusiveQuartiles(std::vector<double> values) {
  if (values.size() < 2) {
    const double only = values.empty() ? 0 : values.front();
    return {only, only, only};
  }
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): m = n + 1 and, for cut point
  // i of 4, j = i*m // 4 clamped to [1, n-1], interpolating between the
  // j-th and (j+1)-th order statistics with weight (i*m - 4*j) / 4.
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] =
        (values[j - 1] * static_cast<double>(4 - delta) +
         values[j] * static_cast<double>(delta)) /
        4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

TailPercentile Percentile(std::vector<double> values, double q) {
  TailPercentile result;
  result.samples = values.size();
  if (values.empty()) return result;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest sample with at least q of the samples at
  // or below it.
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(values.size()))));
  result.value = values[std::min(rank, values.size()) - 1];
  result.beyond = static_cast<std::size_t>(
      values.end() -
      std::upper_bound(values.begin(), values.end(), result.value));
  return result;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double UnattributedFrac(const std::vector<double>& spans, double wall) {
  if (wall <= 0) return 0;
  return 1.0 - std::accumulate(spans.begin(), spans.end(), 0.0) / wall;
}

bool LedgerBalanced(double unattributed_frac, double tolerance) {
  return std::abs(unattributed_frac) <= tolerance;
}

void SimSample::Append(const SimSample& other) {
  commit_us.insert(commit_us.end(), other.commit_us.begin(),
                   other.commit_us.end());
  xlock_hold_us.insert(xlock_hold_us.end(), other.xlock_hold_us.begin(),
                       other.xlock_hold_us.end());
  blocked_prepared_us.insert(blocked_prepared_us.end(),
                             other.blocked_prepared_us.begin(),
                             other.blocked_prepared_us.end());
  globals_submitted += other.globals_submitted;
  globals_committed += other.globals_committed;
  messages_sent += other.messages_sent;
}

bool ExtractSim(const std::vector<TraceEvent>& events,
                const std::vector<o2pc::metrics::GlobalTxnRecord>& records,
                const std::vector<o2pc::Duration>& holds, SimSample* out,
                std::string* error) {
  SimSample sample;
  std::uint64_t incarnations = 0;
  std::uint64_t restarts = 0;
  // Committed incarnation -> its kTxnFinish instant.
  std::map<TxnId, o2pc::SimTime> commits;
  for (const TraceEvent& event : events) {
    switch (event.type) {
      case EventType::kTxnSubmit:
        ++incarnations;
        break;
      case EventType::kTxnRestart:
        ++restarts;
        break;
      case EventType::kTxnFinish:
        if (event.a != 0) commits.emplace(event.txn, event.time);
        break;
      case EventType::kMsgSend:
        ++sample.messages_sent;
        break;
      default:
        break;
    }
  }
  if (restarts > incarnations) {
    *error = "journal has more restarts than submits";
    return false;
  }
  sample.globals_submitted = incarnations - restarts;
  sample.globals_committed = commits.size();

  std::uint64_t committed_records = 0;
  for (const o2pc::metrics::GlobalTxnRecord& record : records) {
    if (!record.committed) continue;
    ++committed_records;
    const auto it = commits.find(record.id);
    if (it == commits.end() || it->second != record.finish_time) {
      *error = "committed T" + std::to_string(record.id) +
               " has no matching kTxnFinish in the journal";
      return false;
    }
    sample.commit_us.push_back(
        static_cast<double>(record.finish_time - record.submit_time));
  }
  if (committed_records != commits.size()) {
    *error = "journal commits " + std::to_string(commits.size()) +
             " != committed records " + std::to_string(committed_records);
    return false;
  }

  sample.xlock_hold_us.assign(holds.begin(), holds.end());
  sample.blocked_prepared_us =
      o2pc::telemetry::ProfilePhases(events)
          .of(o2pc::telemetry::Phase::kBlockedPrepared)
          .samples();
  *out = std::move(sample);
  return true;
}

}  // namespace perfbench
