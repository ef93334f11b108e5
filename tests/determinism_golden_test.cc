// Golden determinism regression — the container-swap gate.
//
// The per-run hot path runs on insertion-ordered flat containers
// (common/flat_hash.h); the contract is that the swap away from
// `std::map`/`std::set` changed *nothing observable*. These tests pin the
// two artifacts the campaign infrastructure fingerprints — a campaign
// sweep's combined journal fingerprint and a single run's trace-journal
// FNV-1a — as golden constants measured on the tree-container engine.
// Any future change that silently reorders lock grants, waits-for victim
// selection, marking-set iteration, or SG construction shows up here as a
// changed constant, byte-for-byte.
//
// The constants are independent of job count (asserted below) and of the
// host machine: simulated time has no relation to wall clock.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "campaign/fault_plan.h"
#include "campaign/runner.h"
#include "exec/world_pool.h"
#include "telemetry/report.h"

namespace o2pc {
namespace {

#ifndef O2PC_TRACE_DISABLED

// Golden values measured on the seed engine (std::map/std::set containers)
// and required of every engine since. The sweep constant was re-pinned
// (serial == parallel before and after) when the "crashes" template began
// splitting draws between step- and time-pinned crashes so the telemetry
// coverage gate's crash_at production is exercised — a deliberate plan
// change, verified byte-identical across --jobs at the new value. The
// journal constant was re-pinned when site crashes became full recovery
// phases: every crash-bearing journal gained recovery_begin/recovery_end
// events — a deliberate trace change, verified byte-identical across
// --jobs at the new value.
constexpr std::uint64_t kGoldenSweepFingerprint = 0xdb2dfdd08573ea39ULL;
constexpr std::uint64_t kGoldenJournalFingerprint = 0xdf08f680f574b319ULL;

campaign::CampaignOptions GoldenSweep(int jobs) {
  campaign::CampaignOptions options;
  options.runs = 10;
  options.base_seed = 1;
  options.jobs = jobs;
  options.num_sites = 4;
  options.num_globals = 24;
  options.num_locals = 12;
  options.shrink_failures = false;
  return options;
}

TEST(DeterminismGoldenTest, CampaignSweepFingerprintPinned) {
  const campaign::CampaignReport serial =
      campaign::RunCampaign(GoldenSweep(1));
  ASSERT_EQ(serial.runs_completed, 10);
  EXPECT_EQ(serial.CombinedFingerprint(), kGoldenSweepFingerprint)
      << "actual: " << std::hex << serial.CombinedFingerprint();

  const campaign::CampaignReport parallel =
      campaign::RunCampaign(GoldenSweep(8));
  EXPECT_EQ(parallel.CombinedFingerprint(), kGoldenSweepFingerprint)
      << "actual: " << std::hex << parallel.CombinedFingerprint();
}

TEST(DeterminismGoldenTest, TraceJournalFingerprintPinned) {
  campaign::CampaignRunConfig config;
  config.protocol = core::CommitProtocol::kOptimistic;
  config.seed = 7;
  config.plan = campaign::GeneratePlan("mixed", 7, config.num_sites);
  config.template_name = "mixed";
  const campaign::CampaignRunResult direct = campaign::RunOne(config);
  EXPECT_TRUE(direct.journal.empty());
  EXPECT_EQ(direct.fingerprint, kGoldenJournalFingerprint)
      << "actual: " << std::hex << direct.fingerprint;

  config.render_journal = true;
  const campaign::CampaignRunResult rendered = campaign::RunOne(config);
  EXPECT_EQ(rendered.fingerprint, kGoldenJournalFingerprint);
  EXPECT_EQ(campaign::Fingerprint(rendered.journal), kGoldenJournalFingerprint)
      << "actual: " << std::hex << campaign::Fingerprint(rendered.journal);
}

// World-reuse gate (DESIGN §16): a run executed inside a recycled
// thread-local world — the worker's arena rewound over a previous,
// *different* run's world — must be byte-identical to the same run from a
// freshly constructed world: journal bytes, journal fingerprint, and the
// telemetry JSON rendered from the run. Three seeds, including a
// crash_restarts plan (recovery is the deepest state machine a recycled
// world replays).
TEST(DeterminismGoldenTest, RecycledWorldByteIdenticalToFreshWorld) {
  if (!exec::WorldPool::Enabled()) {
    GTEST_SKIP() << "arena machinery unavailable (sanitizer build or "
                    "O2PC_RUN_ARENA=off)";
  }
  struct Case {
    std::uint64_t seed;
    const char* template_name;
  };
  const Case cases[] = {
      {3, "mixed"}, {17, "crash_restarts"}, {29, "drops"}};
  for (const Case& c : cases) {
    campaign::CampaignRunConfig config;
    config.seed = c.seed;
    config.template_name = c.template_name;
    config.plan =
        campaign::GeneratePlan(c.template_name, c.seed, config.num_sites);
    config.collect_telemetry = true;
    config.render_journal = true;

    // Fresh world: plain heap construction, no arena involved.
    const campaign::CampaignRunResult fresh = campaign::RunOne(config);

    // Dirty the worker's arena with a different run, then recycle it (the
    // ScopedRun below rewinds that world) for the run under test.
    {
      exec::WorldPool::ScopedRun dirty;
      campaign::CampaignRunConfig other = config;
      other.seed = c.seed + 1000;
      other.plan = campaign::GeneratePlan(c.template_name, other.seed,
                                          other.num_sites);
      (void)campaign::RunOne(other);
    }
    std::optional<exec::WorldPool::ScopedRun> scope(std::in_place);
    ASSERT_TRUE(scope->recycled());
    const campaign::CampaignRunResult armed = campaign::RunOne(config);
    scope.reset();  // disarm; arena stays readable until the next open
    const campaign::CampaignRunResult recycled(armed);  // deep copy off-arena

    EXPECT_EQ(recycled.fingerprint, fresh.fingerprint)
        << c.template_name << " seed " << c.seed;
    EXPECT_EQ(recycled.journal, fresh.journal);
    EXPECT_EQ(recycled.committed, fresh.committed);
    EXPECT_EQ(recycled.aborted, fresh.aborted);

    // Telemetry JSON: render both runs through the sweep serializer.
    telemetry::TelemetryAccumulator fresh_acc, recycled_acc;
    fresh_acc.AddRun("o2pc", fresh.telemetry);
    recycled_acc.AddRun("o2pc", recycled.telemetry);
    EXPECT_EQ(recycled_acc.Build().ToJson(), fresh_acc.Build().ToJson())
        << c.template_name << " seed " << c.seed;
  }
}

#endif  // O2PC_TRACE_DISABLED

}  // namespace
}  // namespace o2pc
