#ifndef O2PC_CAMPAIGN_RUNNER_H_
#define O2PC_CAMPAIGN_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/audit.h"
#include "campaign/fault_plan.h"
#include "core/protocol.h"
#include "telemetry/report.h"

/// \file
/// The fault-campaign runner: sweeps randomized fleets of simulations —
/// seeds x fault-plan templates x {O2PC, 2PC} — with a FaultInjector
/// executing each plan and the oracle battery (campaign/audit.h) judging
/// each run. Every run is identified by its `{seed, plan}` pair and its
/// JSONL journal fingerprint; a failing pair is written as a replayable
/// artifact and greedily shrunk (campaign/shrink.h) to a minimal plan.

namespace o2pc::campaign {

/// Everything needed to reproduce one run bit-identically.
struct CampaignRunConfig {
  core::CommitProtocol protocol = core::CommitProtocol::kOptimistic;
  std::uint64_t seed = 1;
  FaultPlan plan;
  int num_sites = 4;
  DataKey keys_per_site = 24;
  int num_globals = 24;
  int num_locals = 12;
  double vote_abort_probability = 0.15;
  /// Blanket at-least-once delivery at the net layer: every message
  /// matching `duplicate_filter` (a net::MessageType as int; -1 = all) is
  /// delivered `1 + duplicate_copies` times. The idempotence property
  /// sweeps run the whole campaign under this; 0 disables it.
  int duplicate_copies = 0;
  int duplicate_filter = -1;
  /// Campaign provenance, carried into artifacts (informational).
  std::string template_name;
  /// Capture phase latencies + coverage for this run (telemetry is purely
  /// observational; journals and fingerprints are identical either way).
  bool collect_telemetry = false;
  /// Also render the JSONL journal into CampaignRunResult::journal. Only a
  /// byte comparison of journals needs it (`o2pc_campaign --replay`); the
  /// fingerprint is computed from the event stream either way.
  bool render_journal = false;
  /// Also sample the system gauges over simulated time (one series per
  /// sampled run; the campaign samples the first run of each protocol).
  bool collect_time_series = false;
  Duration time_series_interval = Millis(2);
};

/// One site's crash-to-recovered interval, extracted from the journal.
/// `end` == 0 means the site never completed recovery (permanent outage or
/// a re-crash superseded the phase); `begin` == 0 means the outage never
/// ended (no recovery phase started).
struct RecoveryWindow {
  SiteId site = kInvalidSite;
  SimTime crash_time = 0;
  SimTime begin = 0;
  SimTime end = 0;
  /// In-doubt subtransactions found by WAL analysis (kRecoveryBegin's a).
  std::int64_t in_doubt = 0;
  /// In-doubt left for DECISION-REQ / cooperative termination after
  /// marking catch-up (kRecoveryEnd's b).
  std::int64_t unresolved = 0;
};

/// Outcome of one run.
struct CampaignRunResult {
  OracleReport oracle;
  /// The run's full JSONL trace journal (the replay-comparison artifact);
  /// empty unless config.render_journal was set.
  std::string journal;
  /// FNV-1a 64-bit fingerprint of the JSONL journal, rendered or not
  /// (trace::JsonlFingerprint); equal fingerprints across replays certify
  /// deterministic reproduction.
  std::uint64_t fingerprint = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t compensations = 0;
  std::uint64_t site_crashes = 0;
  std::uint64_t coordinator_crashes = 0;
  std::uint64_t messages_dropped = 0;
  int faults_triggered = 0;
  SimTime makespan = 0;
  /// Per-site recovery timeline, one entry per crash, in journal order
  /// (--replay prints it for crash_restart plans).
  std::vector<RecoveryWindow> recovery_windows;
  /// Populated when config.collect_telemetry was set.
  telemetry::RunTelemetry telemetry;

  bool ok() const { return oracle.ok(); }
};

/// FNV-1a 64-bit of `text`. For a rendered journal this equals
/// trace::JsonlFingerprint of its events, which RunOne uses instead.
std::uint64_t Fingerprint(const std::string& text);

/// Executes one run: builds the system, arms the injector, drives the
/// workload, drains the simulation, runs the oracles, and fingerprints
/// the journal (rendering it too when config.render_journal is set).
CampaignRunResult RunOne(const CampaignRunConfig& config);

/// Campaign sweep parameters.
struct CampaignOptions {
  /// Total runs across the protocol x template x seed grid.
  int runs = 100;
  std::uint64_t base_seed = 1;
  /// Templates swept round-robin; empty = DefaultTemplateNames().
  std::vector<std::string> templates;
  /// Protocols swept round-robin.
  std::vector<core::CommitProtocol> protocols = {
      core::CommitProtocol::kOptimistic,
      core::CommitProtocol::kTwoPhaseCommit,
  };
  /// Wall-clock budget in seconds (0 = unlimited), checked before each run
  /// starts; once exceeded the sweep stops early, reporting how many runs
  /// it covered. The runs covered are always an exact prefix of the sweep.
  double time_budget_seconds = 0.0;
  /// Worker threads for the sweep (exec::RunExecutor). 1 = serial; N fans
  /// independent runs across N workers; <= 0 = one per hardware thread.
  /// Artifacts, fingerprints, failure ordering, and shrinking are
  /// byte-identical for every value — results are folded into the report
  /// strictly in sweep order.
  int jobs = 1;
  /// Directory for failure artifacts (empty = don't write).
  std::string artifact_dir;
  /// Shrink each failing plan before reporting it.
  bool shrink_failures = true;
  /// Per-run workload sizing.
  int num_sites = 4;
  DataKey keys_per_site = 24;
  int num_globals = 24;
  int num_locals = 12;
  double vote_abort_probability = 0.15;
  /// Blanket duplication for every run of the sweep (see
  /// CampaignRunConfig::duplicate_copies) — the duplication-enabled
  /// campaign mode the idempotence acceptance gate runs at volume.
  int duplicate_copies = 0;
  int duplicate_filter = -1;
  /// Collect sweep telemetry (phase latencies, coverage map, time-series
  /// for the first run of each protocol) into CampaignReport::telemetry.
  bool collect_telemetry = false;
  Duration time_series_interval = Millis(2);
  /// Recycle one thread-local world arena per worker (exec::WorldPool):
  /// each run is bump-allocated into its worker's rewound arena instead of
  /// paying ~150k heap round trips. Behavior — journals, fingerprints,
  /// telemetry, artifacts — is byte-identical either way (pinned by
  /// determinism_golden_test); this only moves memory. Ignored when the
  /// arena machinery is unavailable (ASan builds, O2PC_RUN_ARENA=off).
  bool reuse_worlds = true;
};

/// One failing run, with its (possibly shrunk) reproduction recipe.
struct CampaignFailure {
  CampaignRunConfig config;
  /// The minimal failing plan (== config.plan when shrinking is off).
  FaultPlan shrunk_plan;
  OracleReport oracle;
  /// Path of the written artifact (empty when artifact_dir was empty).
  std::string artifact_path;
};

struct CampaignReport {
  int runs_completed = 0;
  int runs_failed = 0;
  bool budget_exhausted = false;
  std::uint64_t total_faults_triggered = 0;
  std::vector<CampaignFailure> failures;
  /// Per-run journal fingerprints in sweep order — the campaign's
  /// determinism artifact: equal vectors across job counts (and replays)
  /// certify byte-identical journals.
  std::vector<std::uint64_t> fingerprints;
  /// Sweep telemetry summary; valid when `telemetry_collected`. Folded
  /// serially in sweep order, so it is byte-identical for every job count.
  telemetry::SweepTelemetry telemetry;
  bool telemetry_collected = false;

  bool ok() const { return failures.empty(); }

  /// FNV-1a fold of `fingerprints` — one number summarizing every journal
  /// byte of the sweep (printed by the CLI, compared by exec_test).
  std::uint64_t CombinedFingerprint() const;
};

/// Runs the sweep. Progress lines go to stderr when `verbose`, one per run
/// in sweep order as the sweep goes.
CampaignReport RunCampaign(const CampaignOptions& options,
                           bool verbose = false);

/// Serializes `config` (header + plan) as a self-contained replay artifact.
std::string ArtifactToString(const CampaignRunConfig& config);

/// Parses an artifact produced by ArtifactToString. Returns false (setting
/// `error` if non-null) on malformed input.
bool ParseArtifact(const std::string& text, CampaignRunConfig* config,
                   std::string* error = nullptr);

/// Writes/reads an artifact file. WriteArtifact returns the path written
/// (empty on I/O failure).
std::string WriteArtifact(const CampaignRunConfig& config,
                          const std::string& dir);
bool LoadArtifact(const std::string& path, CampaignRunConfig* config,
                  std::string* error = nullptr);

}  // namespace o2pc::campaign

#endif  // O2PC_CAMPAIGN_RUNNER_H_
