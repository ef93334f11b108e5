// Tests for the protocol event tracing subsystem: the recorder and emit
// points (exact deterministic journal of a two-site O2PC abort), the
// exporters, and the trace-driven invariant checker — both that it passes
// on real O2PC / 2PC runs and that it catches deliberately corrupted
// journals.

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/fault_plan.h"
#include "campaign/runner.h"
#include "common/rng.h"
#include "core/system.h"
#include "harness/experiment.h"
#include "trace/checker.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "workload/scenarios.h"

namespace o2pc::trace {
namespace {

// ---------------------------------------------------------------------------
// Scenario builders.

/// Runs one two-site transfer where the remote site votes abort, under the
/// given protocol, with a jitter-free network so the event order is exactly
/// reproducible, and returns the recorded journal.
std::vector<TraceEvent> RecordAbortRun(core::CommitProtocol protocol) {
  core::SystemOptions options;
  options.num_sites = 2;
  options.keys_per_site = 16;
  options.seed = 7;
  options.network.jitter = 0;  // deterministic delivery order
  options.protocol.protocol = protocol;
  core::DistributedSystem system(options);
  TraceRecorder recorder;
  {
    ScopedTrace scope(&recorder, &system.simulator());
    core::GlobalTxnSpec spec = workload::MakeTransfer(0, 1, 1, 2, 10);
    spec.subtxns[1].force_abort_vote = true;
    system.SubmitGlobal(spec);
    system.Run();
  }
  return recorder.events();
}

/// A small contended multi-site workload (mirrors the harness tests) with a
/// recorder attached through ExperimentConfig.
harness::RunResult RunTracedWorkload(core::CommitProtocol protocol,
                                     TraceRecorder& recorder) {
  harness::ExperimentConfig config;
  config.system.num_sites = 3;
  config.system.keys_per_site = 32;
  config.system.seed = 11;
  config.system.protocol.protocol = protocol;
  config.workload.num_global_txns = 40;
  config.workload.num_local_txns = 40;
  config.workload.min_sites_per_txn = 2;
  config.workload.max_sites_per_txn = 3;
  config.workload.ops_per_subtxn = 3;
  config.workload.vote_abort_probability = 0.25;
  config.workload.zipf_theta = 0.6;
  config.workload.mean_global_interarrival = Millis(8);
  config.workload.mean_local_interarrival = Millis(4);
  config.workload.seed = 13;
  config.analyze = false;
  config.recorder = &recorder;
  return harness::RunExperiment(config);
}

/// The protocol-plane journal as "event@site" strings, dropping the chatty
/// planes (messages, locks) so the expected sequence stays readable.
std::vector<std::string> ProtocolPlane(const std::vector<TraceEvent>& events) {
  std::vector<std::string> out;
  for (const TraceEvent& event : events) {
    switch (event.type) {
      case EventType::kTxnSubmit:
      case EventType::kSubtxnAdmit:
      case EventType::kLocalCommit:
      case EventType::kRollback:
      case EventType::kVote:
      case EventType::kDecide:
      case EventType::kCompensationBegin:
      case EventType::kCompensationEnd:
      case EventType::kMarkInsert:
      case EventType::kMarkRetire:
      case EventType::kTxnFinish:
        out.push_back(std::string(EventTypeName(event.type)) + "@" +
                      std::to_string(event.site));
        break;
      default:
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Recorder basics.

TEST(TraceRecorderTest, InactiveByDefaultAndScoped) {
  EXPECT_EQ(ActiveRecorder(), nullptr);
  TraceRecorder recorder;
  {
    ScopedTrace scope(&recorder, nullptr);
    EXPECT_EQ(ActiveRecorder(), &recorder);
    O2PC_TRACE(kTxnSubmit, 0, 42);
  }
  EXPECT_EQ(ActiveRecorder(), nullptr);
  O2PC_TRACE(kTxnSubmit, 0, 43);  // no active recorder: dropped
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.events()[0].type, EventType::kTxnSubmit);
  EXPECT_EQ(recorder.events()[0].txn, 42u);
}

TEST(TraceRecorderTest, EventTypeNamesAreStable) {
  EXPECT_STREQ(EventTypeName(EventType::kTxnSubmit), "txn_submit");
  EXPECT_STREQ(EventTypeName(EventType::kLocalCommit), "local_commit");
  EXPECT_STREQ(EventTypeName(EventType::kCompensationEnd),
               "compensation_end");
  EXPECT_STREQ(EventTypeName(EventType::kSiteRecover), "site_recover");
}

// ---------------------------------------------------------------------------
// The deterministic two-site abort journal.

TEST(TraceJournalTest, O2pcAbortEmitsExactProtocolSequence) {
  const std::vector<TraceEvent> events =
      RecordAbortRun(core::CommitProtocol::kOptimistic);
  ASSERT_FALSE(events.empty());
  // Timestamps never go backwards (single simulator clock).
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time) << "at event " << i;
  }
  // The O2PC abort story, exactly: both subtxns admitted; site 0 locally
  // commits at vote time while site 1 (forced) rolls back, marks, and votes
  // no; the coordinator aborts early; site 0 then runs exactly one
  // compensation and marks the forward transaction undone when it is done.
  const std::vector<std::string> expected = {
      "txn_submit@0",
      "subtxn_admit@0",
      "subtxn_admit@1",
      "local_commit@0",
      "vote@0",
      "rollback@1",
      "mark_insert@1",
      "vote@1",
      "decide@0",
      "compensation_begin@0",
      "compensation_end@0",
      "mark_insert@0",
      "txn_finish@0",
  };
  EXPECT_EQ(ProtocolPlane(events), expected);
  // And the checker agrees the journal is clean.
  const CheckReport report = CheckTrace(events);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.local_commits, 1u);
  EXPECT_EQ(report.compensations, 1u);
}

TEST(TraceJournalTest, TwoPcAbortPreparesAndNeverCompensates) {
  const std::vector<TraceEvent> events =
      RecordAbortRun(core::CommitProtocol::kTwoPhaseCommit);
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const TraceEvent& e) {
    return e.type == EventType::kPrepare;
  }));
  for (const TraceEvent& event : events) {
    EXPECT_NE(event.type, EventType::kLocalCommit);
    EXPECT_NE(event.type, EventType::kCompensationBegin);
  }
  const CheckReport report = CheckTrace(events);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.prepares, 1u);
  EXPECT_EQ(report.compensations, 0u);
}

// ---------------------------------------------------------------------------
// Checker on full workloads.

TEST(TraceCheckerTest, CleanOnContendedO2pcWorkload) {
  TraceRecorder recorder;
  const harness::RunResult result =
      RunTracedWorkload(core::CommitProtocol::kOptimistic, recorder);
  EXPECT_GT(result.trace_events, 0u);
  EXPECT_EQ(result.trace_events, recorder.size());
  const CheckReport report = CheckTrace(recorder.events());
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.local_commits, 0u);
  EXPECT_GT(report.compensations, 0u);  // 25% vote-aborts guarantee some
}

TEST(TraceCheckerTest, CleanOnContended2pcWorkload) {
  TraceRecorder recorder;
  RunTracedWorkload(core::CommitProtocol::kTwoPhaseCommit, recorder);
  const CheckReport report = CheckTrace(recorder.events());
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.prepares, 0u);
  EXPECT_EQ(report.compensations, 0u);
}

// ---------------------------------------------------------------------------
// Checker on corrupted journals.

TEST(TraceCheckerTest, FlagsLockReleasedAfterLocalCommit) {
  std::vector<TraceEvent> events =
      RecordAbortRun(core::CommitProtocol::kOptimistic);
  // Find site 0's local commit and one lock release belonging to the same
  // local transaction, then move the release to after the commit — the
  // forbidden "O2PC still holds a lock past its local commit" shape.
  auto commit_it =
      std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
        return e.type == EventType::kLocalCommit && e.site == 0;
      });
  ASSERT_NE(commit_it, events.end());
  const auto local_id = static_cast<TxnId>(commit_it->a);
  // The *last* release before the commit (earlier keys may legitimately be
  // re-acquired and re-released; only the final release of each key is
  // load-bearing for the held-set at commit time).
  auto release_rit = std::find_if(
      std::make_reverse_iterator(commit_it), events.rend(),
      [&](const TraceEvent& e) {
        return e.type == EventType::kLockRelease && e.site == 0 &&
               e.txn == local_id;
      });
  ASSERT_NE(release_rit, events.rend());
  auto release_it = release_rit.base() - 1;
  std::rotate(release_it, release_it + 1, commit_it + 1);
  const CheckReport report = CheckTrace(events);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(std::any_of(
      report.violations.begin(), report.violations.end(),
      [](const TraceViolation& v) { return v.invariant == "I1"; }))
      << report.Summary();
}

TEST(TraceCheckerTest, FlagsMissingCompensationEnd) {
  std::vector<TraceEvent> events =
      RecordAbortRun(core::CommitProtocol::kOptimistic);
  const auto removed = std::remove_if(
      events.begin(), events.end(), [](const TraceEvent& e) {
        return e.type == EventType::kCompensationEnd;
      });
  ASSERT_NE(removed, events.end());
  events.erase(removed, events.end());
  const CheckReport report = CheckTrace(events);
  ASSERT_FALSE(report.ok());
  // Losing the end both leaves the attempt dangling (I6) and means the
  // aborted-but-locally-committed subtxn never completed compensation (I3);
  // the R2 mark that used to follow it now fires early (I4).
  EXPECT_TRUE(std::any_of(
      report.violations.begin(), report.violations.end(),
      [](const TraceViolation& v) {
        return v.invariant == "I3" || v.invariant == "I6";
      }))
      << report.Summary();
}

TEST(TraceCheckerTest, FlagsRetireWithoutWitness) {
  std::vector<TraceEvent> events;
  TraceEvent retire;
  retire.type = EventType::kMarkRetire;
  retire.site = 2;
  retire.txn = 9;
  events.push_back(retire);
  const CheckReport report = CheckTrace(events);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].invariant, "I5");
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(TraceExportTest, JsonLineCarriesAllFields) {
  TraceEvent event;
  event.time = 1500;
  event.type = EventType::kLocalCommit;
  event.site = 2;
  event.txn = 7;
  event.a = 3;
  const std::string line = ToJsonLine(event);
  EXPECT_NE(line.find("\"t\":1500"), std::string::npos) << line;
  EXPECT_NE(line.find("\"type\":\"local_commit\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"site\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"txn\":7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"a\":3"), std::string::npos) << line;
}

TEST(TraceExportTest, JsonlHasOneLinePerEvent) {
  const std::vector<TraceEvent> events =
      RecordAbortRun(core::CommitProtocol::kOptimistic);
  std::ostringstream out;
  ExportJsonl(events, out);
  const std::string text = out.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            events.size());
}

TEST(TraceExportTest, ChromeTraceIsWellFormedEnvelope) {
  const std::vector<TraceEvent> events =
      RecordAbortRun(core::CommitProtocol::kOptimistic);
  std::ostringstream out;
  ExportChromeTrace(events, out);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u) << text.substr(0, 40);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 3), "]}\n");
}

// ---------------------------------------------------------------------------
// Direct journal fingerprint: JsonlFingerprint(e) must equal
// campaign::Fingerprint(ExportJsonlString(e)) for every journal.

constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// A signed field: mostly journal-sized values, often an edge of the
/// number formatting or of the msg/reason name tables, sometimes any bit
/// pattern. 261 and -1 truncate to mark reasons 5 and 255 ("?"); 258 to 2.
std::int64_t RandomSigned(Rng& rng) {
  static constexpr std::int64_t kEdges[] = {
      kInt64Min, kInt64Max, -1, 0, 4, 5, 6, 7, 255, 256, 258, 261, -256};
  switch (rng.Uniform(0, 3)) {
    case 0:
      return kEdges[rng.Uniform(0, std::size(kEdges) - 1)];
    case 1:
      return static_cast<std::int64_t>(rng.Next());
    default:
      return rng.Uniform(-10, 2000000);
  }
}

TraceEvent RandomEvent(Rng& rng) {
  TraceEvent event;
  event.time = RandomSigned(rng);
  event.type = static_cast<EventType>(
      rng.Bernoulli(0.8) ? rng.Uniform(0, kNumEventTypes - 1)
                         : rng.Uniform(kNumEventTypes, 255));
  switch (rng.Uniform(0, 2)) {
    case 0:
      event.site = kInvalidSite;
      break;
    case 1:
      event.site = static_cast<SiteId>(rng.Next());
      break;
    default:
      event.site = static_cast<SiteId>(rng.Uniform(0, 8));
  }
  switch (rng.Uniform(0, 3)) {
    case 0:
      event.txn = kInvalidTxn;
      break;
    case 1:
      event.txn = std::numeric_limits<TxnId>::max();
      break;
    case 2:
      event.txn = rng.Next();
      break;
    default:
      event.txn = static_cast<TxnId>(rng.Uniform(1, 5000));
  }
  event.a = rng.Bernoulli(0.5) ? rng.Uniform(-1, 8) : RandomSigned(rng);
  event.b = RandomSigned(rng);
  return event;
}

TEST(JsonlFingerprintTest, EqualsHashOfRenderedRandomJournals) {
  EXPECT_EQ(JsonlFingerprint({}), campaign::Fingerprint(""));

  // What the generator reached, so a narrowed generator fails loudly.
  std::bitset<256> types;
  bool empty = false, extremes = false, invalid_ids = false;
  bool unnamed_msg = false, unnamed_reason = false;
  Rng rng(20260);
  for (int journal = 0; journal < 20000; ++journal) {
    std::vector<TraceEvent> events(rng.Uniform(0, 12));
    for (TraceEvent& event : events) {
      event = RandomEvent(rng);
      types.set(static_cast<int>(event.type));
      for (const std::int64_t field : {event.time, event.a, event.b}) {
        extremes |= field == kInt64Min || field == kInt64Max;
      }
      invalid_ids |= event.site == kInvalidSite && event.txn == kInvalidTxn;
      unnamed_msg |= event.type == EventType::kMsgRecv &&
                     (event.a < 0 || event.a > 6);
      unnamed_reason |= event.type == EventType::kMarkInsert &&
                        static_cast<std::uint8_t>(event.a) >= kNumMarkReasons;
    }
    empty |= events.empty();
    ASSERT_EQ(JsonlFingerprint(events),
              campaign::Fingerprint(ExportJsonlString(events)))
        << "journal " << journal << ":\n"
        << ExportJsonlString(events);
  }
  EXPECT_TRUE(types.all());
  EXPECT_TRUE(empty);
  EXPECT_TRUE(extremes);
  EXPECT_TRUE(invalid_ids);
  EXPECT_TRUE(unnamed_msg);
  EXPECT_TRUE(unnamed_reason);
}

TEST(JsonlFingerprintTest, EqualsHashOfRenderedCampaignJournals) {
  for (const std::string& name : campaign::DefaultTemplateNames()) {
    for (const core::CommitProtocol protocol :
         {core::CommitProtocol::kOptimistic,
          core::CommitProtocol::kTwoPhaseCommit}) {
      for (const std::uint64_t seed : {1, 2, 3}) {
        campaign::CampaignRunConfig config;
        config.protocol = protocol;
        config.seed = seed;
        config.template_name = name;
        config.plan = campaign::GeneratePlan(name, seed, config.num_sites);
        config.render_journal = true;
        const campaign::CampaignRunResult result = campaign::RunOne(config);
        ASSERT_FALSE(result.journal.empty());
        EXPECT_EQ(result.fingerprint, campaign::Fingerprint(result.journal))
            << name << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace o2pc::trace
