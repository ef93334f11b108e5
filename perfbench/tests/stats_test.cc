// Unit tests for the benchmark's own helpers (src/stats.h). Plain checks,
// no framework, so the benchmark package builds on its own:
//   cmake --build .bench_build --target perfbench_test && .bench_build/perfbench_test

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                 \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::printf("%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

using o2pc::trace::EventType;
using o2pc::trace::TraceEvent;

TraceEvent Event(o2pc::SimTime time, EventType type, o2pc::SiteId site,
                 o2pc::TxnId txn, std::int64_t a = 0, std::int64_t b = 0) {
  TraceEvent event;
  event.time = time;
  event.type = type;
  event.site = site;
  event.txn = txn;
  event.a = a;
  event.b = b;
  return event;
}

void MedianAndQuartiles() {
  EXPECT(Near(perfbench::Median({}), 0));
  EXPECT(Near(perfbench::Median({3, 1, 2}), 2));
  EXPECT(Near(perfbench::Median({4, 1, 3, 2}), 2.5));

  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const perfbench::Quartiles ten =
      perfbench::ExclusiveQuartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT(Near(ten.q1, 2.75));
  EXPECT(Near(ten.median, 5.5));
  EXPECT(Near(ten.q3, 8.25));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with so few
  // points the exclusive method extrapolates past the ends.
  const perfbench::Quartiles two = perfbench::ExclusiveQuartiles({2, 1});
  EXPECT(Near(two.q1, 0.75));
  EXPECT(Near(two.median, 1.5));
  EXPECT(Near(two.q3, 2.25));
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  const perfbench::Quartiles five =
      perfbench::ExclusiveQuartiles({1, 2, 3, 4, 5});
  EXPECT(Near(five.q1, 1.5));
  EXPECT(Near(five.median, 3.0));
  EXPECT(Near(five.q3, 4.5));
}

void TailRule() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  // p90 of 1..100 is 90 with exactly 10 samples beyond: reportable.
  const perfbench::TailPercentile p90 = perfbench::Percentile(hundred, 0.90);
  EXPECT(Near(p90.value, 90));
  EXPECT(p90.samples == 100);
  EXPECT(p90.beyond == 10);
  EXPECT(p90.reportable());
  // p99 of the same has one sample beyond: not reportable.
  const perfbench::TailPercentile p99 = perfbench::Percentile(hundred, 0.99);
  EXPECT(Near(p99.value, 99));
  EXPECT(p99.beyond == 1);
  EXPECT(!p99.reportable());
  // Ties at the percentile are not "beyond" it.
  std::vector<double> tied(95, 1.0);
  for (int i = 0; i < 5; ++i) tied.push_back(2.0);
  const perfbench::TailPercentile tie = perfbench::Percentile(tied, 0.5);
  EXPECT(Near(tie.value, 1.0));
  EXPECT(tie.beyond == 5);
  EXPECT(!tie.reportable());
  EXPECT(Near(perfbench::Percentile({7}, 0.5).value, 7));
  EXPECT(perfbench::Percentile({}, 0.5).samples == 0);
}

void MetricNames() {
  EXPECT(perfbench::ValidMetricName("runs_per_s"));
  EXPECT(perfbench::ValidMetricName("sim_commit_ms.p99.2pc"));
  EXPECT(perfbench::ValidMetricName("exec.wave_wait_ms"));
  EXPECT(perfbench::ValidMetricName("2pc-x"));
  EXPECT(!perfbench::ValidMetricName(""));
  EXPECT(!perfbench::ValidMetricName(".hidden"));
  EXPECT(!perfbench::ValidMetricName("_x"));
  EXPECT(!perfbench::ValidMetricName("run ms"));
  EXPECT(!perfbench::ValidMetricName("a/b"));
  EXPECT(!perfbench::ValidMetricName(std::string(65, 'a')));
  EXPECT(perfbench::ValidMetricName(std::string(64, 'a')));
}

void LedgerSum() {
  EXPECT(Near(perfbench::UnattributedFrac({30, 50, 16}, 100), 0.04));
  EXPECT(perfbench::LedgerBalanced(
      perfbench::UnattributedFrac({30, 50, 16}, 100)));
  EXPECT(!perfbench::LedgerBalanced(
      perfbench::UnattributedFrac({30, 50, 10}, 100)));
  // Spans that over-count the wall are as wrong as spans that miss it.
  EXPECT(Near(perfbench::UnattributedFrac({60, 50}, 100), -0.10));
  EXPECT(!perfbench::LedgerBalanced(-0.10));
  EXPECT(Near(perfbench::UnattributedFrac({1}, 0), 0));
}

/// A 2PC-shaped journal: T1 commits at its first incarnation; T2 aborts
/// (restartable), restarts as T3 and commits; T4 aborts for good.
std::vector<TraceEvent> TinyJournal() {
  return {
      Event(0, EventType::kTxnSubmit, 0, 1),
      Event(0, EventType::kMsgSend, 0, 1, 0, 1),
      Event(10, EventType::kTxnSubmit, 0, 2),
      Event(10, EventType::kMsgSend, 0, 2, 0, 1),
      Event(100, EventType::kPrepare, 1, 1, 11),
      Event(150, EventType::kMsgSend, 1, 1, 0, 0),
      Event(600, EventType::kFinalCommit, 1, 1, 11),
      Event(700, EventType::kTxnFinish, 0, 1, 1, 1),
      Event(800, EventType::kTxnFinish, 0, 2, 0, 0),
      Event(900, EventType::kTxnRestart, 0, 3, 3),
      Event(900, EventType::kTxnSubmit, 0, 3),
      Event(950, EventType::kPrepare, 2, 3, 12),
      Event(1250, EventType::kFinalCommit, 2, 3, 12),
      Event(1500, EventType::kTxnFinish, 0, 3, 1, 1),
      Event(1600, EventType::kTxnSubmit, 1, 4),
      Event(1700, EventType::kTxnFinish, 1, 4, 0, 0),
  };
}

std::vector<o2pc::metrics::GlobalTxnRecord> TinyRecords() {
  o2pc::metrics::GlobalTxnRecord t1;
  t1.id = 1;
  t1.submit_time = 0;
  t1.finish_time = 700;
  t1.committed = true;
  o2pc::metrics::GlobalTxnRecord t3;  // logical T2, final incarnation T3
  t3.id = 3;
  t3.submit_time = 10;
  t3.finish_time = 1500;
  t3.committed = true;
  t3.restarts = 1;
  o2pc::metrics::GlobalTxnRecord t4;
  t4.id = 4;
  t4.submit_time = 1600;
  t4.finish_time = 1700;
  return {t1, t3, t4};
}

void SimFromJournal() {
  perfbench::SimSample sample;
  std::string error;
  EXPECT(perfbench::ExtractSim(TinyJournal(), TinyRecords(), {40, 60}, &sample,
                               &error));
  EXPECT(error.empty());
  EXPECT(sample.globals_submitted == 3);  // 4 submits - 1 restart
  EXPECT(sample.globals_committed == 2);
  EXPECT(sample.messages_sent == 3);
  // Commit latency runs from the *first* submit of the logical txn.
  EXPECT(sample.commit_us.size() == 2);
  EXPECT(Near(sample.commit_us[0], 700));
  EXPECT(Near(sample.commit_us[1], 1490));
  EXPECT(sample.xlock_hold_us.size() == 2);
  // Blocked-prepared windows: prepare to the decision's application.
  EXPECT(sample.blocked_prepared_us.size() == 2);
  EXPECT(Near(sample.blocked_prepared_us[0] + sample.blocked_prepared_us[1],
              500 + 300));

  perfbench::SimSample merged;
  merged.Append(sample);
  merged.Append(sample);
  EXPECT(merged.globals_submitted == 6);
  EXPECT(merged.commit_us.size() == 4);
}

void SimRejectsDisagreement() {
  perfbench::SimSample sample;
  std::string error;
  // A committed record whose finish the journal does not show.
  std::vector<o2pc::metrics::GlobalTxnRecord> records = TinyRecords();
  records[1].finish_time = 1499;
  EXPECT(!perfbench::ExtractSim(TinyJournal(), records, {}, &sample, &error));
  EXPECT(!error.empty());
  // A journal commit with no committed record.
  records = TinyRecords();
  records.erase(records.begin());
  error.clear();
  EXPECT(!perfbench::ExtractSim(TinyJournal(), records, {}, &sample, &error));
  EXPECT(!error.empty());
}

}  // namespace

int main() {
  MedianAndQuartiles();
  TailRule();
  MetricNames();
  LedgerSum();
  SimFromJournal();
  SimRejectsDisagreement();
  if (g_failures == 0) std::printf("perfbench_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
