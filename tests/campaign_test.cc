// Tests for the fault-campaign harness: plan grammar round-trips, the
// injector's step/message pins, oracle detection of a known-bad plan,
// fault-plan shrinking, bit-identical seed replay, and a small healthy
// campaign sweep.

#include "campaign/runner.h"

#include <gtest/gtest.h>

#include "campaign/audit.h"
#include "campaign/shrink.h"
#include "core/system.h"
#include "trace/trace.h"
#include "workload/scenarios.h"

namespace o2pc::campaign {
namespace {

CampaignRunConfig SmallConfig(core::CommitProtocol protocol,
                              std::uint64_t seed) {
  CampaignRunConfig config;
  config.protocol = protocol;
  config.seed = seed;
  config.num_sites = 3;
  config.keys_per_site = 16;
  config.num_globals = 12;
  config.num_locals = 6;
  config.vote_abort_probability = 0.15;
  return config;
}

TEST(FaultPlanTest, RoundTripsThroughGrammar) {
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kSiteCrashAtStep;
  crash.site = 2;
  crash.step = core::ProtocolStep::kCompensationBegin;
  crash.occurrence = 1;
  crash.duration = Millis(40);
  plan.events.push_back(crash);
  FaultEvent timed;
  timed.kind = FaultKind::kSiteCrashAtTime;
  timed.site = 0;
  timed.at = Millis(12);
  timed.duration = Millis(30);
  plan.events.push_back(timed);
  FaultEvent partition;
  partition.kind = FaultKind::kPartition;
  partition.site = 0;
  partition.peer = 1;
  partition.at = Millis(8);
  partition.duration = Millis(50);
  plan.events.push_back(partition);
  FaultEvent drop;
  drop.kind = FaultKind::kDropMessage;
  drop.msg_type = static_cast<int>(net::MessageType::kDecision);
  drop.msg_from = kInvalidSite;
  drop.msg_to = 2;
  drop.occurrence = 1;
  plan.events.push_back(drop);
  FaultEvent delay;
  delay.kind = FaultKind::kDelayMessage;
  delay.msg_type = -1;
  delay.msg_from = 1;
  delay.msg_to = kInvalidSite;
  delay.occurrence = 0;
  delay.duration = Millis(20);
  plan.events.push_back(delay);
  FaultEvent coordinator;
  coordinator.kind = FaultKind::kCoordinatorCrash;
  coordinator.occurrence = 2;
  plan.events.push_back(coordinator);

  const std::string text = plan.ToString();
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.events.size(), plan.events.size());
  EXPECT_EQ(parsed.ToString(), text);
}

TEST(FaultPlanTest, ParserIgnoresCommentsAndRejectsGarbage) {
  FaultPlan parsed;
  std::string error;
  EXPECT_TRUE(FaultPlan::Parse(
      "# a comment\n\ncoordinator_crash occurrence=0\n", &parsed, &error))
      << error;
  EXPECT_EQ(parsed.events.size(), 1u);

  EXPECT_FALSE(FaultPlan::Parse("explode site=1\n", &parsed, &error));
  EXPECT_FALSE(FaultPlan::Parse("crash site=1\n", &parsed, &error));
  EXPECT_FALSE(
      FaultPlan::Parse("crash site=1 step=bogus occurrence=0 outage_us=1\n",
                       &parsed, &error));
}

TEST(FaultPlanTest, TemplatesAreDeterministicPerSeed) {
  for (const std::string& name : DefaultTemplateNames()) {
    const FaultPlan a = GeneratePlan(name, 99, 4);
    const FaultPlan b = GeneratePlan(name, 99, 4);
    EXPECT_EQ(a.ToString(), b.ToString()) << name;
    if (name != "none") {
      EXPECT_FALSE(a.empty()) << name;
    } else {
      EXPECT_TRUE(a.empty());
    }
  }
  // Different seeds draw different schedules (for at least one template).
  EXPECT_NE(GeneratePlan("mixed", 1, 4).ToString(),
            GeneratePlan("mixed", 2, 4).ToString());
}

TEST(ArtifactTest, RoundTripsConfigAndPlan) {
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 7);
  config.template_name = "mixed";
  config.plan = GeneratePlan("mixed", 7, config.num_sites);
  const std::string text = ArtifactToString(config);
  CampaignRunConfig parsed;
  std::string error;
  ASSERT_TRUE(ParseArtifact(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.protocol, config.protocol);
  EXPECT_EQ(parsed.seed, config.seed);
  EXPECT_EQ(parsed.num_sites, config.num_sites);
  EXPECT_EQ(parsed.keys_per_site, config.keys_per_site);
  EXPECT_EQ(parsed.num_globals, config.num_globals);
  EXPECT_EQ(parsed.num_locals, config.num_locals);
  EXPECT_EQ(parsed.template_name, config.template_name);
  EXPECT_EQ(parsed.plan.ToString(), config.plan.ToString());

  EXPECT_FALSE(ParseArtifact("seed=1\n", &parsed, &error));  // no plan
}

TEST(InjectorTest, StepPinnedCrashFiresExactlyOnce) {
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 5);
  FaultEvent crash;
  crash.kind = FaultKind::kSiteCrashAtStep;
  crash.site = 0;
  crash.step = core::ProtocolStep::kLocalCommit;
  crash.occurrence = 0;
  crash.duration = Millis(50);
  config.plan.events.push_back(crash);

  const CampaignRunResult result = RunOne(config);
  EXPECT_EQ(result.faults_triggered, 1);
  EXPECT_EQ(result.site_crashes, 1u);
  // The site recovers and the retransmission safety net drains everything:
  // a survivable crash must not trip any oracle.
  EXPECT_TRUE(result.ok()) << result.oracle.Summary();
}

TEST(InjectorTest, CoordinatorCrashPinFires) {
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 6);
  FaultEvent crash;
  crash.kind = FaultKind::kCoordinatorCrash;
  crash.occurrence = 0;
  config.plan.events.push_back(crash);

  const CampaignRunResult result = RunOne(config);
  EXPECT_EQ(result.faults_triggered, 1);
  EXPECT_EQ(result.coordinator_crashes, 1u);
  EXPECT_TRUE(result.ok()) << result.oracle.Summary();
}

TEST(InjectorTest, MessageDropPinConsumesOneMessage) {
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 8);
  FaultEvent drop;
  drop.kind = FaultKind::kDropMessage;
  drop.msg_type = static_cast<int>(net::MessageType::kVoteRequest);
  drop.msg_from = kInvalidSite;
  drop.msg_to = kInvalidSite;
  drop.occurrence = 0;
  config.plan.events.push_back(drop);

  const CampaignRunResult result = RunOne(config);
  EXPECT_EQ(result.faults_triggered, 1);
  EXPECT_GE(result.messages_dropped, 1u);
  EXPECT_TRUE(result.ok()) << result.oracle.Summary();
}

TEST(OracleTest, KnownBadPlanIsCaught) {
  // Site 0 crashes forever at its first local commit: the exposed
  // subtransaction can never finalize or compensate. Both the trace
  // checker (I3) and the in-doubt audit must fire.
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 1);
  config.plan = KnownBadPlan(config.num_sites);
  const CampaignRunResult result = RunOne(config);
  ASSERT_FALSE(result.ok());
  bool saw_audit = false;
  bool saw_trace = false;
  for (const std::string& violation : result.oracle.violations) {
    if (violation.rfind("audit:", 0) == 0) saw_audit = true;
    if (violation.rfind("trace:", 0) == 0) saw_trace = true;
  }
  EXPECT_TRUE(saw_audit) << result.oracle.Summary();
  EXPECT_TRUE(saw_trace) << result.oracle.Summary();
}

TEST(ShrinkTest, KnownBadPlanShrinksToTheLethalEvent) {
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 1);
  config.plan = KnownBadPlan(config.num_sites);
  ASSERT_GE(config.plan.events.size(), 3u);  // lethal event + noise

  const ShrinkResult shrunk = ShrinkFaultPlan(config);
  EXPECT_TRUE(shrunk.reached_fixpoint);
  ASSERT_LE(shrunk.plan.events.size(), 2u);
  ASSERT_GE(shrunk.plan.events.size(), 1u);
  // The surviving event is the permanent step-pinned crash.
  const FaultEvent& survivor = shrunk.plan.events.front();
  EXPECT_EQ(survivor.kind, FaultKind::kSiteCrashAtStep);
  EXPECT_EQ(survivor.site, 0u);
  EXPECT_EQ(survivor.step, core::ProtocolStep::kLocalCommit);
  EXPECT_LE(survivor.duration, 0);
  // The shrunk plan still fails.
  CampaignRunConfig probe = config;
  probe.plan = shrunk.plan;
  EXPECT_FALSE(RunOne(probe).ok());
}

TEST(ReplayTest, SameSeedAndPlanYieldByteIdenticalJournals) {
  for (const core::CommitProtocol protocol :
       {core::CommitProtocol::kOptimistic,
        core::CommitProtocol::kTwoPhaseCommit}) {
    CampaignRunConfig config = SmallConfig(protocol, 21);
    config.plan = GeneratePlan("mixed", 21, config.num_sites);
    config.render_journal = true;
    const CampaignRunResult first = RunOne(config);
    const CampaignRunResult second = RunOne(config);
    ASSERT_FALSE(first.journal.empty());
    EXPECT_EQ(first.fingerprint, second.fingerprint);
    EXPECT_EQ(first.journal, second.journal);
    EXPECT_EQ(first.faults_triggered, second.faults_triggered);
    EXPECT_EQ(first.oracle.violations, second.oracle.violations);
  }
}

TEST(FaultPlanTest, CoordinatorOutageRoundTripsWithOutage) {
  FaultPlan plan = GeneratePlan("coordinator_outage", 5, 3);
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kCoordinatorCrash);
  EXPECT_LT(plan.events[0].duration, 0);  // permanent

  FaultPlan reparsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(plan.ToString(), &reparsed, &error)) << error;
  ASSERT_EQ(reparsed.events.size(), 1u);
  EXPECT_EQ(reparsed.events[0].duration, plan.events[0].duration);
  EXPECT_EQ(reparsed.ToString(), plan.ToString());
  // A seed-era line without outage_us still parses (duration 0).
  ASSERT_TRUE(
      FaultPlan::Parse("coordinator_crash occurrence=1\n", &reparsed, &error))
      << error;
  EXPECT_EQ(reparsed.events[0].duration, 0);
}

TEST(OracleTest, PermanentCoordinatorOutageDrainsViaTermination) {
  // The liveness oracle's contract: a permanent coordinator outage may
  // orphan the crashed incarnation itself, but every participant must
  // still terminate (DECISION-REQ / cooperative termination) — under both
  // protocols.
  for (const core::CommitProtocol protocol :
       {core::CommitProtocol::kOptimistic,
        core::CommitProtocol::kTwoPhaseCommit}) {
    CampaignRunConfig config = SmallConfig(protocol, 9);
    config.plan = GeneratePlan("coordinator_outage", 9, config.num_sites);
    const CampaignRunResult result = RunOne(config);
    EXPECT_EQ(result.faults_triggered, 1);
    EXPECT_EQ(result.coordinator_crashes, 1u);
    EXPECT_TRUE(result.ok()) << result.oracle.Summary();
  }
}

TEST(OracleTest, LivenessOracleFlagsAnUnresolvableWedge) {
  // Same permanent outage, but with the termination protocol disarmed the
  // 2PC participants stay prepared forever: the liveness oracle (a wedged
  // subtransaction whose logged decision was recoverable) and the in-doubt
  // audit must both fire. RunOne arms termination unconditionally, so build
  // a single-transfer system by hand — the coordinator force-logs COMMIT,
  // vanishes for good, and nobody ever asks for the decision.
  core::SystemOptions options;
  options.num_sites = 3;
  options.keys_per_site = 16;
  options.seed = 13;
  options.protocol.protocol = core::CommitProtocol::kTwoPhaseCommit;
  // decision_timeout stays 0: no DECISION-REQ, no cooperative termination.
  core::DistributedSystem system(options);
  const Value initial_total = system.TotalValue();
  trace::TraceRecorder recorder;
  {
    trace::ScopedTrace scope(&recorder, &system.simulator());
    const TxnId id =
        system.SubmitGlobal(workload::MakeTransfer(1, 1, 2, 2, 10));
    system.InjectCoordinatorCrash(id, /*outage=*/-1);
    system.Run();
  }
  const OracleReport report =
      RunOracles(system, recorder.events(), initial_total);
  ASSERT_FALSE(report.ok());
  bool saw_liveness = false;
  bool saw_audit = false;
  for (const std::string& violation : report.violations) {
    if (violation.rfind("liveness:", 0) == 0) saw_liveness = true;
    if (violation.rfind("audit:", 0) == 0) saw_audit = true;
  }
  EXPECT_TRUE(saw_liveness) << report.Summary();
  EXPECT_TRUE(saw_audit) << report.Summary();
}

TEST(ReplayTest, CoordinatorOutageReplaysByteIdentically) {
  for (const core::CommitProtocol protocol :
       {core::CommitProtocol::kOptimistic,
        core::CommitProtocol::kTwoPhaseCommit}) {
    CampaignRunConfig config = SmallConfig(protocol, 33);
    config.plan = GeneratePlan("coordinator_outage", 33, config.num_sites);
    config.render_journal = true;
    const CampaignRunResult first = RunOne(config);
    const CampaignRunResult second = RunOne(config);
    ASSERT_FALSE(first.journal.empty());
    EXPECT_EQ(first.fingerprint, second.fingerprint);
    EXPECT_EQ(first.journal, second.journal);
    EXPECT_EQ(first.oracle.violations, second.oracle.violations);
  }
}

TEST(FaultPlanTest, AdversarialProductionsRoundTripThroughGrammar) {
  FaultPlan plan;
  FaultEvent duplicate;
  duplicate.kind = FaultKind::kDuplicateMessage;
  duplicate.msg_type = static_cast<int>(net::MessageType::kVoteRequest);
  duplicate.msg_from = kInvalidSite;
  duplicate.msg_to = 2;
  duplicate.occurrence = 1;
  duplicate.count = 2;
  plan.events.push_back(duplicate);
  FaultEvent reorder;
  reorder.kind = FaultKind::kReorderMessages;
  reorder.msg_type = -1;
  reorder.msg_from = 0;
  reorder.msg_to = kInvalidSite;
  reorder.occurrence = 0;
  reorder.count = 6;
  reorder.duration = Millis(15);
  plan.events.push_back(reorder);
  FaultEvent oneway;
  oneway.kind = FaultKind::kOneWayPartition;
  oneway.site = 0;
  oneway.peer = 1;
  oneway.at = Millis(8);
  oneway.duration = Millis(50);
  plan.events.push_back(oneway);
  FaultEvent gray;
  gray.kind = FaultKind::kGrayFailure;
  gray.site = 2;
  gray.at = Millis(10);
  gray.duration = Millis(80);
  gray.factor = 25;
  plan.events.push_back(gray);

  const std::string text = plan.ToString();
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.events.size(), plan.events.size());
  EXPECT_EQ(parsed.events[0].count, 2);
  EXPECT_EQ(parsed.events[1].count, 6);
  EXPECT_EQ(parsed.events[1].duration, Millis(15));
  EXPECT_EQ(parsed.events[3].factor, 25);
  EXPECT_EQ(parsed.ToString(), text);
}

TEST(FaultPlanTest, AdversarialProductionsRejectBadFields) {
  FaultPlan parsed;
  std::string error;
  // duplicate needs copies >= 1.
  EXPECT_FALSE(FaultPlan::Parse(
      "duplicate type=any from=any to=any occurrence=0 copies=0\n", &parsed,
      &error));
  // reorder needs count >= 1 and a window.
  EXPECT_FALSE(FaultPlan::Parse(
      "reorder type=any from=any to=any occurrence=0 count=0 window_us=100\n",
      &parsed, &error));
  // gray factor must be >= 2 (1x is not a failure).
  EXPECT_FALSE(FaultPlan::Parse(
      "gray site=1 at_us=0 duration_us=1000 factor=1\n", &parsed, &error));
  // oneway_partition needs all four keys.
  EXPECT_FALSE(FaultPlan::Parse("oneway_partition from=0 to=1 at_us=0\n",
                                &parsed, &error));
}

TEST(InjectorTest, DuplicatePinRedeliversWithoutOracleViolations) {
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 11);
  FaultEvent duplicate;
  duplicate.kind = FaultKind::kDuplicateMessage;
  duplicate.msg_type = static_cast<int>(net::MessageType::kVoteRequest);
  duplicate.msg_from = kInvalidSite;
  duplicate.msg_to = kInvalidSite;
  duplicate.occurrence = 0;
  duplicate.count = 3;
  config.plan.events.push_back(duplicate);

  const CampaignRunResult result = RunOne(config);
  EXPECT_EQ(result.faults_triggered, 1);
  // Redelivery must be absorbed idempotently: no double-commit, no
  // double-compensation, conservation clean.
  EXPECT_TRUE(result.ok()) << result.oracle.Summary();
}

TEST(InjectorTest, OneWayPartitionAndGrayFailureArmAtTime) {
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 12);
  FaultEvent oneway;
  oneway.kind = FaultKind::kOneWayPartition;
  oneway.site = 0;
  oneway.peer = 1;
  oneway.at = Millis(5);
  oneway.duration = Millis(40);
  config.plan.events.push_back(oneway);
  FaultEvent gray;
  gray.kind = FaultKind::kGrayFailure;
  gray.site = 2;
  gray.at = Millis(10);
  gray.duration = Millis(60);
  gray.factor = 20;
  config.plan.events.push_back(gray);

  const CampaignRunResult result = RunOne(config);
  EXPECT_EQ(result.faults_triggered, 2);
  // Both faults heal; the retransmission safety net must drain everything.
  EXPECT_TRUE(result.ok()) << result.oracle.Summary();
}

TEST(ReplayTest, AdversarialTemplatesReplayByteIdentically) {
  for (const char* name : {"duplicates", "reorders", "oneway_partitions",
                           "gray", "mixed_adversarial"}) {
    for (const core::CommitProtocol protocol :
         {core::CommitProtocol::kOptimistic,
          core::CommitProtocol::kTwoPhaseCommit}) {
      CampaignRunConfig config = SmallConfig(protocol, 41);
      config.template_name = name;
      config.plan = GeneratePlan(name, 41, config.num_sites);
      ASSERT_FALSE(config.plan.empty()) << name;
      config.render_journal = true;
      const CampaignRunResult first = RunOne(config);
      const CampaignRunResult second = RunOne(config);
      ASSERT_FALSE(first.journal.empty());
      EXPECT_EQ(first.fingerprint, second.fingerprint) << name;
      EXPECT_EQ(first.journal, second.journal) << name;
      EXPECT_EQ(first.faults_triggered, second.faults_triggered) << name;
      EXPECT_EQ(first.oracle.violations, second.oracle.violations) << name;
    }
  }
}

TEST(ReplayTest, MixedDuplicateOneWayPlanReplaysByteIdentically) {
  // Duplication and an asymmetric partition in the same run: copies of the
  // same message race a one-way severed link. The pair must replay
  // bit-exactly and the artifact grammar must round-trip the mix.
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 51);
  FaultEvent duplicate;
  duplicate.kind = FaultKind::kDuplicateMessage;
  duplicate.msg_type = -1;
  duplicate.msg_from = kInvalidSite;
  duplicate.msg_to = kInvalidSite;
  duplicate.occurrence = 2;
  duplicate.count = 2;
  config.plan.events.push_back(duplicate);
  FaultEvent oneway;
  oneway.kind = FaultKind::kOneWayPartition;
  oneway.site = 1;
  oneway.peer = 0;
  oneway.at = Millis(6);
  oneway.duration = Millis(30);
  config.plan.events.push_back(oneway);
  config.render_journal = true;

  const CampaignRunResult first = RunOne(config);
  const CampaignRunResult second = RunOne(config);
  ASSERT_FALSE(first.journal.empty());
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  EXPECT_EQ(first.journal, second.journal);
  EXPECT_EQ(first.faults_triggered, 2);
  EXPECT_TRUE(first.ok()) << first.oracle.Summary();

  const std::string text = ArtifactToString(config);
  CampaignRunConfig parsed;
  std::string error;
  ASSERT_TRUE(ParseArtifact(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.plan.ToString(), config.plan.ToString());
  EXPECT_EQ(RunOne(parsed).fingerprint, first.fingerprint);
}

TEST(ShrinkTest, AdversarialNoiseEventsShrinkAwayFromLethalPlan) {
  // The known-bad plan plus one noise event of each new production: the
  // greedy shrinker must strip all of them and land on the same 1-minimal
  // lethal crash, proving the new productions are shrinkable.
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 1);
  config.plan = KnownBadPlan(config.num_sites);
  FaultEvent duplicate;
  duplicate.kind = FaultKind::kDuplicateMessage;
  duplicate.msg_type = static_cast<int>(net::MessageType::kVote);
  duplicate.msg_from = kInvalidSite;
  duplicate.msg_to = kInvalidSite;
  duplicate.occurrence = 0;
  duplicate.count = 1;
  config.plan.events.push_back(duplicate);
  FaultEvent reorder;
  reorder.kind = FaultKind::kReorderMessages;
  reorder.msg_type = -1;
  reorder.msg_from = kInvalidSite;
  reorder.msg_to = kInvalidSite;
  reorder.occurrence = 0;
  reorder.count = 4;
  reorder.duration = Millis(5);
  config.plan.events.push_back(reorder);
  FaultEvent oneway;
  oneway.kind = FaultKind::kOneWayPartition;
  oneway.site = 1;
  oneway.peer = 2;
  oneway.at = Millis(4);
  oneway.duration = Millis(10);
  config.plan.events.push_back(oneway);
  FaultEvent gray;
  gray.kind = FaultKind::kGrayFailure;
  gray.site = 2;
  gray.at = Millis(2);
  gray.duration = Millis(20);
  gray.factor = 10;
  config.plan.events.push_back(gray);
  ASSERT_FALSE(RunOne(config).ok());

  const ShrinkResult shrunk = ShrinkFaultPlan(config);
  EXPECT_TRUE(shrunk.reached_fixpoint);
  ASSERT_LE(shrunk.plan.events.size(), 2u);
  ASSERT_GE(shrunk.plan.events.size(), 1u);
  EXPECT_EQ(shrunk.plan.events.front().kind, FaultKind::kSiteCrashAtStep);
  CampaignRunConfig probe = config;
  probe.plan = shrunk.plan;
  EXPECT_FALSE(RunOne(probe).ok());
}

TEST(CampaignTest, DuplicationEnabledSweepStaysClean) {
  // The blanket at-least-once campaign mode: every message of every run is
  // delivered twice. One full template cycle under both protocols must
  // pass the whole oracle battery — the volume version of this gate runs
  // in CI (o2pc_campaign --duplicate-all).
  CampaignOptions options;
  options.runs = 28;  // one full cycle of all 14 templates x 2 protocols
  options.base_seed = 4;
  options.num_sites = 3;
  options.keys_per_site = 16;
  options.num_globals = 12;
  options.num_locals = 6;
  options.duplicate_copies = 1;
  const CampaignReport report = RunCampaign(options);
  EXPECT_EQ(report.runs_completed, 28);
  EXPECT_TRUE(report.ok());
}

TEST(CampaignTest, FormerSgStraddleHolePlanNowPasses) {
  // Regression pin for the FIXED crash-window SG straddle hole (formerly
  // DESIGN §14.3 / a ROADMAP open item). The historical failure: a site
  // crash timed just before a DECISION stretched the window in which a
  // compensation had run at some execution sites but not yet at the
  // crashed one; a transaction whose subtransactions straddled that window
  // serialized before CT_i at one site and after it at another, building a
  // regular SG cycle the R1/R3 straddle checks miss. The fix is marking
  // catch-up at restart: before the recovering site accepts any new work,
  // it merges witness-gossip snapshots from its reachable peers and
  // replays every compensation whose abort verdict the merged knowledge
  // carries — so no admission can serialize against a stale pre-CT image.
  // This is the exact {seed, plan} pair that reproduced the hole
  // (tests/data/known_sg_straddle.plan); it must now pass the full oracle
  // battery, deterministically.
  const std::string artifact =
      "protocol=o2pc\n"
      "seed=40362\n"
      "sites=4\n"
      "keys=24\n"
      "globals=24\n"
      "locals=12\n"
      "abort_prob=0.15\n"
      "template=crashes\n"
      "plan_begin\n"
      "crash site=0 step=before_decision occurrence=1 outage_us=72000\n"
      "plan_end\n";
  CampaignRunConfig config;
  std::string error;
  ASSERT_TRUE(ParseArtifact(artifact, &config, &error)) << error;
  const CampaignRunResult result = RunOne(config);
  EXPECT_TRUE(result.ok()) << result.oracle.Summary();
  const CampaignRunResult again = RunOne(config);
  EXPECT_EQ(result.fingerprint, again.fingerprint);
}

TEST(FaultPlanTest, CrashRestartRoundTripsThroughGrammar) {
  FaultPlan plan;
  FaultEvent restart;
  restart.kind = FaultKind::kCrashRestart;
  restart.site = 1;
  restart.step = core::ProtocolStep::kBeforeDecision;
  restart.occurrence = 0;
  restart.duration = Millis(40);
  restart.recovery = Millis(5);
  restart.recrash = Millis(2);
  plan.events.push_back(restart);
  FaultEvent single;  // no double crash: recrash_us must not serialize
  single.kind = FaultKind::kCrashRestart;
  single.site = 2;
  single.step = core::ProtocolStep::kLocalCommit;
  single.occurrence = 1;
  single.duration = Millis(30);
  single.recovery = Millis(8);
  plan.events.push_back(single);

  const std::string text = plan.ToString();
  EXPECT_NE(text.find("recrash_us=2000"), std::string::npos);
  // The second line serializes no recrash (non-default-only grammar).
  EXPECT_EQ(text.find("recrash_us=-1"), std::string::npos);
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.events.size(), 2u);
  EXPECT_EQ(parsed.events[0].recovery, Millis(5));
  EXPECT_EQ(parsed.events[0].recrash, Millis(2));
  EXPECT_EQ(parsed.events[1].recovery, Millis(8));
  EXPECT_EQ(parsed.events[1].recrash, -1);
  EXPECT_EQ(parsed.ToString(), text);
}

TEST(FaultPlanTest, CrashRestartRejectsBadFields) {
  FaultPlan parsed;
  std::string error;
  // Outage must be positive: a crash_restart that never restarts is a
  // plain crash.
  EXPECT_FALSE(FaultPlan::Parse(
      "crash_restart site=1 step=local_commit occurrence=0 outage_us=0 "
      "recovery_us=1000\n",
      &parsed, &error));
  // recovery_us is mandatory.
  EXPECT_FALSE(FaultPlan::Parse(
      "crash_restart site=1 step=local_commit occurrence=0 outage_us=5000\n",
      &parsed, &error));
  // A negative recrash is expressed by omission, not by value.
  EXPECT_FALSE(FaultPlan::Parse(
      "crash_restart site=1 step=local_commit occurrence=0 outage_us=5000 "
      "recovery_us=1000 recrash_us=-1\n",
      &parsed, &error));
}

TEST(InjectorTest, CrashRestartRunsRecoveryPhase) {
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 5);
  FaultEvent restart;
  restart.kind = FaultKind::kCrashRestart;
  restart.site = 0;
  restart.step = core::ProtocolStep::kLocalCommit;
  restart.occurrence = 0;
  restart.duration = Millis(50);
  restart.recovery = Millis(5);
  config.plan.events.push_back(restart);

  const CampaignRunResult result = RunOne(config);
  EXPECT_EQ(result.faults_triggered, 1);
  EXPECT_EQ(result.site_crashes, 1u);
  ASSERT_EQ(result.recovery_windows.size(), 1u);
  const RecoveryWindow& window = result.recovery_windows.front();
  EXPECT_EQ(window.site, 0u);
  EXPECT_GT(window.begin, window.crash_time);
  EXPECT_GE(window.end, window.begin + Millis(5));  // window floor honored
  // Crashed at its own local commit: WAL analysis must find the exposed
  // subtransaction in doubt.
  EXPECT_GE(window.in_doubt, 1);
  EXPECT_TRUE(result.ok()) << result.oracle.Summary();
}

TEST(InjectorTest, CrashDuringRecoveryDoubleFaultStaysClean) {
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 7);
  FaultEvent restart;
  restart.kind = FaultKind::kCrashRestart;
  restart.site = 0;
  restart.step = core::ProtocolStep::kLocalCommit;
  restart.occurrence = 0;
  restart.duration = Millis(40);
  restart.recovery = Millis(10);
  restart.recrash = Millis(2);  // lands inside the 10ms recovery window
  config.plan.events.push_back(restart);

  const CampaignRunResult result = RunOne(config);
  EXPECT_EQ(result.site_crashes, 2u);  // the injected crash + the re-crash
  ASSERT_EQ(result.recovery_windows.size(), 2u);
  // First window superseded by the re-crash (began, never ended); the
  // second incarnation completes recovery.
  EXPECT_GT(result.recovery_windows[0].begin, 0);
  EXPECT_EQ(result.recovery_windows[0].end, 0);
  EXPECT_GT(result.recovery_windows[1].end, 0);
  EXPECT_TRUE(result.ok()) << result.oracle.Summary();
}

TEST(ReplayTest, CrashRestartTemplateReplaysByteIdentically) {
  for (const core::CommitProtocol protocol :
       {core::CommitProtocol::kOptimistic,
        core::CommitProtocol::kTwoPhaseCommit}) {
    CampaignRunConfig config = SmallConfig(protocol, 61);
    config.template_name = "crash_restarts";
    config.plan = GeneratePlan("crash_restarts", 61, config.num_sites);
    ASSERT_FALSE(config.plan.empty());
    config.render_journal = true;
    const CampaignRunResult first = RunOne(config);
    const CampaignRunResult second = RunOne(config);
    ASSERT_FALSE(first.journal.empty());
    EXPECT_EQ(first.fingerprint, second.fingerprint);
    EXPECT_EQ(first.journal, second.journal);
    EXPECT_EQ(first.oracle.violations, second.oracle.violations);
  }
}

TEST(ShrinkTest, CrashRestartNoiseShrinksAwayFromLethalPlan) {
  // A healable crash_restart riding along with the lethal permanent crash
  // is noise: the shrinker must strip it and land on the 1-minimal lethal
  // event, proving the new production is shrinkable.
  CampaignRunConfig config = SmallConfig(core::CommitProtocol::kOptimistic, 1);
  config.plan = KnownBadPlan(config.num_sites);
  FaultEvent restart;
  restart.kind = FaultKind::kCrashRestart;
  restart.site = 1;
  restart.step = core::ProtocolStep::kBeforeVote;
  restart.occurrence = 0;
  restart.duration = Millis(20);
  restart.recovery = Millis(3);
  config.plan.events.push_back(restart);
  ASSERT_FALSE(RunOne(config).ok());

  const ShrinkResult shrunk = ShrinkFaultPlan(config);
  EXPECT_TRUE(shrunk.reached_fixpoint);
  ASSERT_LE(shrunk.plan.events.size(), 2u);
  ASSERT_GE(shrunk.plan.events.size(), 1u);
  EXPECT_EQ(shrunk.plan.events.front().kind, FaultKind::kSiteCrashAtStep);
  CampaignRunConfig probe = config;
  probe.plan = shrunk.plan;
  EXPECT_FALSE(RunOne(probe).ok());
}

TEST(CampaignTest, TermRequestStubLearningTheDecisionStaysClean) {
  // Run 26 of `o2pc_campaign --seed 917 --runs 28` (crash_restarts, O2PC):
  // a TERM-REQ left a coordinator-less stub at site 1, and the DECISION
  // that reached it was acked to kInvalidSite, aborting the process
  // ("send to unregistered node 4294967295").
  CampaignRunConfig config;
  config.protocol = core::CommitProtocol::kOptimistic;
  config.seed = 917;
  config.template_name = "crash_restarts";
  config.plan = GeneratePlan(config.template_name, config.seed,
                             config.num_sites);
  const CampaignRunResult result = RunOne(config);
  EXPECT_TRUE(result.ok()) << result.oracle.Summary();
  EXPECT_GT(result.site_crashes, 0u);
}

TEST(CampaignTest, HealthySweepPassesAllOracles) {
  CampaignOptions options;
  options.runs = 16;  // one full template cycle under both protocols
  options.base_seed = 3;
  options.num_sites = 3;
  options.keys_per_site = 16;
  options.num_globals = 12;
  options.num_locals = 6;
  const CampaignReport report = RunCampaign(options);
  EXPECT_EQ(report.runs_completed, 16);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.total_faults_triggered, 0u);
}

}  // namespace
}  // namespace o2pc::campaign
