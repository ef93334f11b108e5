// Tests for the telemetry layer: the commit-phase profiler, the coverage
// map, the time-series sampler, the sweep JSON schema, and the HTML
// report — plus the determinism contract (telemetry byte-identical across
// job counts, journals unperturbed by sampling).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/fault_plan.h"
#include "campaign/runner.h"
#include "metrics/histogram.h"
#include "telemetry/coverage.h"
#include "telemetry/json.h"
#include "telemetry/phase_profiler.h"
#include "telemetry/report.h"
#include "trace/trace.h"

namespace o2pc::telemetry {
namespace {

trace::TraceEvent Event(SimTime time, trace::EventType type, SiteId site,
                        TxnId txn, std::int64_t a = 0, std::int64_t b = 0) {
  trace::TraceEvent event;
  event.time = time;
  event.type = type;
  event.site = site;
  event.txn = txn;
  event.a = a;
  event.b = b;
  return event;
}

// --- Phase profiler -------------------------------------------------------

TEST(PhaseProfilerTest, AttributesSyntheticLifecycle) {
  using trace::EventType;
  const std::int64_t vote_req = static_cast<std::int64_t>(
      net::MessageType::kVoteRequest);
  std::vector<trace::TraceEvent> events = {
      Event(100, EventType::kTxnSubmit, 0, 7),
      Event(150, EventType::kMsgSend, 0, 7, vote_req, 1),
      Event(160, EventType::kPrepare, 1, 7),
      Event(180, EventType::kVote, 1, 7, 1),
      Event(200, EventType::kDecide, 0, 7, 1),
      // Post-vote termination round (round 0 is the pre-vote timeout and
      // must not open a termination window).
      Event(205, EventType::kDecisionTimeout, 1, 7, 1),
      Event(210, EventType::kFinalCommit, 1, 7),
      Event(215, EventType::kTermResolve, 1, 7, 1),
      Event(240, EventType::kTxnFinish, 0, 7, 1),
  };
  const PhaseProfile profile = ProfilePhases(events);
  EXPECT_EQ(profile.txns_profiled, 1u);
  EXPECT_EQ(profile.txns_committed, 1u);
  ASSERT_EQ(profile.of(Phase::kExecute).count(), 1u);
  EXPECT_DOUBLE_EQ(profile.of(Phase::kExecute).Mean(), 50.0);   // 150-100
  EXPECT_DOUBLE_EQ(profile.of(Phase::kVoting).Mean(), 30.0);    // 180-150
  EXPECT_DOUBLE_EQ(profile.of(Phase::kDecision).Mean(), 20.0);  // 200-180
  EXPECT_DOUBLE_EQ(profile.of(Phase::kAck).Mean(), 40.0);       // 240-200
  // Prepared window: kPrepare(160) -> kFinalCommit(210) at site 1.
  ASSERT_EQ(profile.of(Phase::kBlockedPrepared).count(), 1u);
  EXPECT_DOUBLE_EQ(profile.of(Phase::kBlockedPrepared).Mean(), 50.0);
  // Termination window: timeout round 1 (205) -> kFinalCommit (210).
  ASSERT_EQ(profile.of(Phase::kTermination).count(), 1u);
  EXPECT_DOUBLE_EQ(profile.of(Phase::kTermination).Mean(), 5.0);
}

TEST(PhaseProfilerTest, AttributesRecoveryWindowPerSite) {
  using trace::EventType;
  std::vector<trace::TraceEvent> events = {
      // One clean crash-restart at site 1: the window runs crash -> end.
      Event(100, EventType::kSiteCrash, 1, kInvalidTxn),
      Event(160, EventType::kRecoveryBegin, 1, kInvalidTxn, 2),
      Event(200, EventType::kRecoveryEnd, 1, kInvalidTxn, 2, 0),
      // Double fault at site 2: the re-crash lands inside recovery; the
      // sample spans the earliest crash to the final kRecoveryEnd.
      Event(300, EventType::kSiteCrash, 2, kInvalidTxn),
      Event(340, EventType::kRecoveryBegin, 2, kInvalidTxn, 1),
      Event(350, EventType::kSiteCrash, 2, kInvalidTxn),
      Event(420, EventType::kRecoveryBegin, 2, kInvalidTxn, 1),
      Event(450, EventType::kRecoveryEnd, 2, kInvalidTxn, 1, 0),
      // Site 3 crashes and never recovers: no sample (skipped, not
      // guessed at).
      Event(500, EventType::kSiteCrash, 3, kInvalidTxn),
  };
  const PhaseProfile profile = ProfilePhases(events);
  ASSERT_EQ(profile.of(Phase::kRecovery).count(), 2u);
  // (200-100) and (450-300).
  EXPECT_DOUBLE_EQ(profile.of(Phase::kRecovery).Mean(), 125.0);
}

TEST(PhaseProfilerTest, SkipsUnfinishedTxnsAndPreVoteTimeouts) {
  using trace::EventType;
  std::vector<trace::TraceEvent> events = {
      Event(100, EventType::kTxnSubmit, 0, 7),
      // Pre-vote autonomy timeout (round 0): no termination window.
      Event(150, EventType::kDecisionTimeout, 1, 7, 0),
      // Never finishes: contributes nothing to the profile.
  };
  const PhaseProfile profile = ProfilePhases(events);
  EXPECT_EQ(profile.txns_profiled, 0u);
  EXPECT_EQ(profile.of(Phase::kTermination).count(), 0u);
}

TEST(PhaseProfilerTest, MergeFoldsHistogramsAndCounters) {
  using trace::EventType;
  std::vector<trace::TraceEvent> events = {
      Event(0, EventType::kTxnSubmit, 0, 1),
      Event(10, EventType::kTxnFinish, 0, 1, 1),
  };
  PhaseProfile a = ProfilePhases(events);
  const PhaseProfile b = ProfilePhases(events);
  a.Merge(b);
  EXPECT_EQ(a.txns_profiled, 2u);
  EXPECT_EQ(a.txns_committed, 2u);
  EXPECT_EQ(a.of(Phase::kExecute).count(), 2u);
}

// --- Campaign capture ----------------------------------------------------

campaign::CampaignRunConfig SmallRunConfig() {
  campaign::CampaignRunConfig config;
  config.seed = 11;
  config.num_sites = 4;
  config.num_globals = 12;
  config.num_locals = 6;
  config.collect_telemetry = true;
  return config;
}

// Needs a live journal: the phase profiler and message-coverage pass read
// the run's trace events, which compile away under O2PC_TRACE_DISABLED.
#ifndef O2PC_TRACE_DISABLED
TEST(TelemetryCaptureTest, RealRunProfilesAndCovers) {
  const campaign::CampaignRunResult result =
      campaign::RunOne(SmallRunConfig());
  const RunTelemetry& telemetry = result.telemetry;
  EXPECT_GT(telemetry.profile.txns_profiled, 0u);
  EXPECT_GT(telemetry.profile.of(Phase::kExecute).count(), 0u);
  // The step observer saw protocol steps; the journal pass saw messages.
  std::uint64_t steps = 0, messages = 0;
  for (std::uint64_t h : telemetry.coverage.step_hits) steps += h;
  for (std::uint64_t h : telemetry.coverage.message_hits) messages += h;
  EXPECT_GT(steps, 0u);
  EXPECT_GT(messages, 0u);
  // Fault-free run, oracles pass: exactly one kPass verdict.
  EXPECT_EQ(telemetry.coverage.verdict_hits[static_cast<int>(
                OracleVerdict::kPass)],
            1u);
}
#endif  // O2PC_TRACE_DISABLED

TEST(TelemetryCaptureTest, CollectionDoesNotPerturbTheJournal) {
  campaign::CampaignRunConfig plain = SmallRunConfig();
  plain.collect_telemetry = false;
  plain.render_journal = true;
  campaign::CampaignRunConfig sampled = SmallRunConfig();
  sampled.collect_time_series = true;
  sampled.time_series_interval = Millis(1);
  sampled.render_journal = true;
  const campaign::CampaignRunResult a = campaign::RunOne(plain);
  const campaign::CampaignRunResult b = campaign::RunOne(sampled);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.journal, b.journal);
  ASSERT_TRUE(b.telemetry.has_series);
  ASSERT_FALSE(b.telemetry.series.samples.empty());
  // Samples land on the fixed interval grid, strictly increasing.
  SimTime last = 0;
  for (const TimeSample& sample : b.telemetry.series.samples) {
    EXPECT_EQ(sample.time % Millis(1), 0);
    EXPECT_GT(sample.time, last);
    last = sample.time;
  }
}

// --- Coverage map --------------------------------------------------------

TEST(CoverageMapTest, MergeIsOrderIndependent) {
  CoverageMap a;
  a.RecordStep(core::ProtocolStep::kLocalCommit);
  a.RecordFault(0, 2);
  a.RecordVerdict(OracleVerdict::kPass);
  CoverageMap b;
  b.RecordMessage(net::MessageType::kVote);
  b.RecordFault(3);

  CoverageMap ab = a;
  ab.Merge(b);
  CoverageMap ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.Fingerprint(), ba.Fingerprint());
  EXPECT_NE(ab.Fingerprint(), a.Fingerprint());
}

TEST(CoverageMapTest, UnhitCellsGateStepsFaultsAndPassColumn) {
  CoverageMap map;
  const std::vector<std::string> unhit = map.UnhitCells();
  // Gated: every step, every production, and each production's pass cell
  // in the (production x verdict) matrix.
  EXPECT_EQ(unhit.size(),
            static_cast<std::size_t>(core::kNumProtocolSteps +
                                     2 * kNumFaultProductions));
  for (const std::string& cell : unhit) {
    EXPECT_TRUE(cell.rfind("step:", 0) == 0 || cell.rfind("fault:", 0) == 0 ||
                cell.rfind("fault_verdict:", 0) == 0)
        << cell;
  }
  for (int i = 0; i < core::kNumProtocolSteps; ++i) {
    map.RecordStep(static_cast<core::ProtocolStep>(i));
  }
  for (int i = 0; i < kNumFaultProductions; ++i) map.RecordFault(i);
  // Faults alone do not satisfy the matrix gate: each production must also
  // appear in a passing run.
  EXPECT_EQ(map.UnhitCells().size(),
            static_cast<std::size_t>(kNumFaultProductions));
  for (int i = 0; i < kNumFaultProductions; ++i) {
    map.RecordProductionVerdict(i, OracleVerdict::kPass);
  }
  EXPECT_TRUE(map.UnhitCells().empty());
  // Violation columns are reported in the matrix but never gated.
  map.RecordProductionVerdict(2, OracleVerdict::kTraceViolation);
  EXPECT_TRUE(map.UnhitCells().empty());
}

// --- JSON schema ---------------------------------------------------------

campaign::CampaignOptions SmallSweep(int jobs) {
  campaign::CampaignOptions options;
  options.runs = 8;
  options.base_seed = 5;
  options.jobs = jobs;
  options.num_globals = 12;
  options.num_locals = 6;
  options.shrink_failures = false;
  options.collect_telemetry = true;
  return options;
}

TEST(SweepTelemetryTest, JsonRoundTripIsByteIdentical) {
  const campaign::CampaignReport report =
      campaign::RunCampaign(SmallSweep(1));
  ASSERT_TRUE(report.telemetry_collected);
  const std::string json = report.telemetry.ToJson();

  SweepTelemetry parsed;
  std::string error;
  ASSERT_TRUE(SweepTelemetry::FromJson(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.runs, report.telemetry.runs);
  EXPECT_EQ(parsed.coverage, report.telemetry.coverage);
  EXPECT_EQ(parsed.ToJson(), json);
}

TEST(SweepTelemetryTest, ByteIdenticalAcrossJobCounts) {
  const campaign::CampaignReport serial = campaign::RunCampaign(SmallSweep(1));
  const campaign::CampaignReport fanned = campaign::RunCampaign(SmallSweep(4));
  ASSERT_TRUE(serial.telemetry_collected);
  ASSERT_TRUE(fanned.telemetry_collected);
  EXPECT_EQ(serial.CombinedFingerprint(), fanned.CombinedFingerprint());
  EXPECT_EQ(serial.telemetry.coverage.Fingerprint(),
            fanned.telemetry.coverage.Fingerprint());
  EXPECT_EQ(serial.telemetry.ToJson(), fanned.telemetry.ToJson());
}

TEST(SweepTelemetryTest, CrossFileMergeSumsAndFlagsEstimates) {
  campaign::CampaignOptions first = SmallSweep(1);
  campaign::CampaignOptions second = SmallSweep(1);
  second.base_seed = 99;
  const campaign::CampaignReport a = campaign::RunCampaign(first);
  const campaign::CampaignReport b = campaign::RunCampaign(second);

  // Round-trip through the schema, as o2pc_report does.
  SweepTelemetry merged, other;
  std::string error;
  ASSERT_TRUE(SweepTelemetry::FromJson(a.telemetry.ToJson(), &merged, &error));
  ASSERT_TRUE(SweepTelemetry::FromJson(b.telemetry.ToJson(), &other, &error));
  ASSERT_TRUE(merged.Merge(other, &error)) << error;
  EXPECT_EQ(merged.runs, a.telemetry.runs + b.telemetry.runs);
  EXPECT_TRUE(merged.approximate_percentiles);
  // Counters stay exact under the merge.
  std::uint64_t sum = 0;
  for (std::uint64_t h : merged.coverage.message_hits) sum += h;
  std::uint64_t expected = 0;
  for (std::uint64_t h : a.telemetry.coverage.message_hits) expected += h;
  for (std::uint64_t h : b.telemetry.coverage.message_hits) expected += h;
  EXPECT_EQ(sum, expected);
  // And the merged summary serializes under the same schema.
  SweepTelemetry reparsed;
  ASSERT_TRUE(
      SweepTelemetry::FromJson(merged.ToJson(), &reparsed, &error))
      << error;
  EXPECT_EQ(reparsed.ToJson(), merged.ToJson());
}

TEST(SweepTelemetryTest, FromJsonRejectsGarbage) {
  SweepTelemetry out;
  std::string error;
  EXPECT_FALSE(SweepTelemetry::FromJson("not json", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(SweepTelemetry::FromJson("{\"schema\": \"bogus\"}", &out,
                                        &error));
}

// --- JSON parser ---------------------------------------------------------

TEST(JsonParserTest, ParsesNestedValues) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"a": [1, 2.5, -3], "b": {"c": "text"}, "d": true, "e": null})",
      &value, &error))
      << error;
  const JsonValue& a = value.Get("a");
  ASSERT_EQ(a.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(a.array.size(), 3u);
  EXPECT_DOUBLE_EQ(a.array[1].number, 2.5);
  EXPECT_EQ(value.Get("b").Get("c").string, "text");
  EXPECT_TRUE(value.Get("d").boolean);
  EXPECT_EQ(value.Get("e").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(value.Get("missing").kind, JsonValue::Kind::kNull);
}

TEST(JsonParserTest, RejectsMalformedInput) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\": }", &value, &error));
  EXPECT_FALSE(ParseJson("[1, 2", &value, &error));
  EXPECT_FALSE(ParseJson("{} trailing", &value, &error));
  EXPECT_FALSE(error.empty());
}

// --- HTML report ---------------------------------------------------------

TEST(HtmlReportTest, RendersPhasesCoverageAndSparklines) {
  campaign::CampaignOptions options = SmallSweep(1);
  const campaign::CampaignReport report = campaign::RunCampaign(options);
  ASSERT_TRUE(report.telemetry_collected);
  const std::string html =
      RenderHtml(report.telemetry, "telemetry test report");
  EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(html.find("telemetry test report"), std::string::npos);
  // Phase breakdown, coverage matrix, and time-series sparklines all
  // present.
  for (int i = 0; i < kNumPhases; ++i) {
    EXPECT_NE(html.find(PhaseName(static_cast<Phase>(i))), std::string::npos)
        << PhaseName(static_cast<Phase>(i));
  }
  EXPECT_NE(html.find("coverage"), std::string::npos);
  EXPECT_NE(html.find("<polyline"), std::string::npos);
  // Self-contained: no external fetches.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  // The sweep had no fault injection on the "none" template runs only;
  // with all default templates most productions fire — but whatever is
  // unhit must be called out with the ✗ marker, never silently.
  if (!report.telemetry.coverage.UnhitCells().empty()) {
    EXPECT_NE(html.find("unhit"), std::string::npos);
  }
}

}  // namespace
}  // namespace o2pc::telemetry
