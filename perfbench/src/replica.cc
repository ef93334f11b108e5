#include "replica.h"

#include <optional>
#include <utility>

#include "campaign/audit.h"
#include "campaign/fault_plan.h"
#include "campaign/injector.h"
#include "core/system.h"
#include "exec/world_pool.h"
#include "telemetry/report.h"
#include "trace/checker.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "workload/generator.h"

namespace perfbench {

namespace campaign = o2pc::campaign;
namespace core = o2pc::core;

namespace {

// These two mirror MakeSystemOptions / MakeWorkloadOptions in
// src/campaign/runner.cc, which are private to it. Any drift changes the
// replica's journal, and the per-run fingerprint check reports it.
core::SystemOptions SystemOptionsFor(const campaign::CampaignRunConfig& config) {
  core::SystemOptions options;
  options.num_sites = config.num_sites;
  options.keys_per_site = config.keys_per_site;
  options.seed = config.seed;
  options.protocol.protocol = config.protocol;
  options.protocol.resend_timeout = o2pc::Millis(15);
  options.protocol.max_resends = 300;
  options.protocol.retry_backoff_multiplier = 2.0;
  options.protocol.retry_backoff_cap = o2pc::Millis(120);
  options.protocol.coordinator_crash_probability = 0.0;
  options.protocol.coordinator_recovery_delay = o2pc::Millis(40);
  options.protocol.decision_timeout = o2pc::Millis(30);
  options.protocol.decision_req_attempts = 2;
  options.protocol.termination_budget = 20;
  options.protocol.prevote_timeout = o2pc::Seconds(2);
  options.network.duplicate_copies = config.duplicate_copies;
  options.network.duplicate_filter = config.duplicate_filter;
  return options;
}

o2pc::workload::WorkloadOptions WorkloadOptionsFor(
    const campaign::CampaignRunConfig& config) {
  o2pc::workload::WorkloadOptions options;
  options.num_global_txns = config.num_globals;
  options.num_local_txns = config.num_locals;
  options.min_sites_per_txn = std::min(2, config.num_sites);
  options.max_sites_per_txn = std::min(3, config.num_sites);
  options.vote_abort_probability = config.vote_abort_probability;
  options.semantic_ops = true;
  options.mean_global_interarrival = o2pc::Millis(8);
  options.mean_local_interarrival = o2pc::Millis(4);
  options.seed = config.seed * 31 + 7;
  return options;
}

/// Times one call at a time: Begin() before it, End(phase) after. Code
/// between an End and the next Begin belongs to no phase, which is what
/// `ledger.unattributed_frac` measures.
class Spans {
 public:
  explicit Spans(RunLedger* ledger) : ledger_(ledger) {}
  void Begin() { begin_ = Clock::now(); }
  void End(Phase phase) {
    ledger_->phase_ms[static_cast<int>(phase)] +=
        MillisBetween(begin_, Clock::now());
  }

 private:
  RunLedger* ledger_;
  Clock::time_point begin_;
};

RunCounts ReadCounts(core::DistributedSystem& system,
                     const o2pc::trace::TraceRecorder& recorder,
                     const campaign::CampaignRunResult& result,
                     const o2pc::exec::WorldPool::ScopedRun& scope) {
  RunCounts counts;
  counts.sim_events = system.simulator().events_executed();
  counts.trace_events = recorder.size();
  counts.journal_bytes = result.journal.size();
  counts.msgs_sent = system.network().stats().sent_total;
  counts.msgs_dropped = system.network().stats().dropped;
  for (int i = 0; i < system.options().num_sites; ++i) {
    const auto site = static_cast<o2pc::SiteId>(i);
    const o2pc::lock::LockStats& locks = system.db(site).lock_manager().stats();
    counts.lock_acquires += locks.acquires;
    counts.lock_waits += locks.waits;
    counts.lock_deadlocks += locks.deadlocks;
    counts.wal_records += system.db(site).wal().records().size();
  }
  counts.restarts = system.stats().Count("global_restarts");
  counts.r1_rejections = system.stats().Count("r1_rejections");
  counts.compensations = system.stats().Count("compensations_committed");
  counts.udum_unmarks = system.stats().Count("udum_unmarks");
  counts.committed = system.stats().Count("globals_committed");
  counts.incarnations = system.globals_submitted() + counts.restarts;
  counts.arena_bytes = scope.arena_bytes();
  counts.heap_allocs = scope.heap_allocs();
  return counts;
}

PostRun PostRunCalls(const core::DistributedSystem& system,
                     const std::vector<o2pc::trace::TraceEvent>& events) {
  PostRun post;
  auto begin = Clock::now();
  (void)o2pc::trace::CheckTrace(events);
  post.check_ms = MillisBetween(begin, Clock::now());

  begin = Clock::now();
  (void)system.Analyze();
  post.analyze_ms = MillisBetween(begin, Clock::now());

  begin = Clock::now();
  o2pc::telemetry::RunTelemetry telemetry;
  o2pc::telemetry::CollectFromJournal(events, &telemetry);
  post.collect_ms = MillisBetween(begin, Clock::now());

  std::vector<o2pc::Duration> holds;
  for (int i = 0; i < system.options().num_sites; ++i) {
    const auto& site_holds = system.db(static_cast<o2pc::SiteId>(i))
                                 .lock_manager()
                                 .stats()
                                 .exclusive_hold;
    holds.insert(holds.end(), site_holds.begin(), site_holds.end());
  }
  ExtractSim(events, system.stats().global_txns(), holds, &post.sim,
             &post.sim_error);
  return post;
}

}  // namespace

const char* PhaseMetricName(Phase phase) {
  switch (phase) {
    case Phase::kArenaOpen:
      return "exec.arena_open_ms";
    case Phase::kPlan:
      return "campaign.plan_ms";
    case Phase::kBuild:
      return "core.build_ms";
    case Phase::kArm:
      return "campaign.arm_ms";
    case Phase::kDrive:
      return "workload.drive_ms";
    case Phase::kSimulate:
      return "sim.run_ms";
    case Phase::kOracles:
      return "campaign.oracles_ms";
    case Phase::kRender:
      return "trace.render_ms";
    case Phase::kFingerprint:
      return "campaign.fingerprint_ms";
    case Phase::kTeardown:
      return "core.teardown_ms";
    case Phase::kResultCopy:
      return "exec.result_copy_ms";
  }
  return "unknown";
}

std::vector<campaign::CampaignRunConfig> SweepConfigs(
    const campaign::CampaignOptions& options) {
  const std::vector<std::string>& templates =
      options.templates.empty() ? campaign::DefaultTemplateNames()
                                : options.templates;
  const int num_protocols = static_cast<int>(options.protocols.size());
  const int num_templates = static_cast<int>(templates.size());
  std::vector<campaign::CampaignRunConfig> configs;
  configs.reserve(static_cast<std::size_t>(options.runs));
  for (int i = 0; i < options.runs; ++i) {
    campaign::CampaignRunConfig config;
    config.protocol = options.protocols[i % num_protocols];
    config.template_name = templates[(i / num_protocols) % num_templates];
    config.seed = options.base_seed +
                  static_cast<std::uint64_t>(i / (num_protocols * num_templates));
    config.num_sites = options.num_sites;
    config.keys_per_site = options.keys_per_site;
    config.num_globals = options.num_globals;
    config.num_locals = options.num_locals;
    config.vote_abort_probability = options.vote_abort_probability;
    config.duplicate_copies = options.duplicate_copies;
    config.duplicate_filter = options.duplicate_filter;
    config.plan = campaign::GeneratePlan(config.template_name, config.seed,
                                         config.num_sites);
    configs.push_back(std::move(config));
  }
  return configs;
}

ReplicaResult ReplicaRun(const campaign::CampaignRunConfig& config,
                         bool post) {
  RunLedger ledger;
  Spans spans(&ledger);
  PostRun armed_post;
  double excluded_ms = 0;

  const auto start = Clock::now();
  spans.Begin();
  std::optional<o2pc::exec::WorldPool::ScopedRun> scope(std::in_place);
  spans.End(Phase::kArenaOpen);

  // Everything from here to the scope's close is bump-allocated in the
  // worker's arena, as in RunCampaign's worker lambda.
  campaign::CampaignRunResult result;
  {
    spans.Begin();
    campaign::FaultPlan plan = campaign::GeneratePlan(
        config.template_name, config.seed, config.num_sites);
    spans.End(Phase::kPlan);

    spans.Begin();
    core::DistributedSystem system(SystemOptionsFor(config));
    const o2pc::Value initial_total = system.TotalValue();
    spans.End(Phase::kBuild);

    o2pc::trace::TraceRecorder recorder;
    {
      spans.Begin();
      o2pc::trace::ScopedTrace trace_scope(&recorder, &system.simulator());
      campaign::FaultInjector injector(&system, std::move(plan));
      injector.Arm();
      spans.End(Phase::kArm);

      spans.Begin();
      o2pc::workload::WorkloadGenerator generator(
          config.num_sites, config.keys_per_site, WorkloadOptionsFor(config));
      generator.Drive(system);
      spans.End(Phase::kDrive);

      spans.Begin();
      system.Run();
      result.faults_triggered = injector.faults_triggered();
    }
    spans.End(Phase::kSimulate);

    // RunOne also extracts per-site recovery windows here; that scan is
    // not a public call, so the replica leaves it out.
    spans.Begin();
    result.oracle =
        campaign::RunOracles(system, recorder.events(), initial_total);
    spans.End(Phase::kOracles);

    spans.Begin();
    result.journal = o2pc::trace::ExportJsonlString(recorder.events());
    spans.End(Phase::kRender);

    spans.Begin();
    result.fingerprint = campaign::Fingerprint(result.journal);
    spans.End(Phase::kFingerprint);

    result.committed = system.stats().Count("globals_committed");
    result.aborted = system.stats().Count("globals_aborted");
    result.compensations = system.stats().Count("compensations_committed");
    result.site_crashes = system.stats().Count("site_crashes");
    result.coordinator_crashes = system.stats().Count("coordinator_crashes");
    result.messages_dropped = system.network().stats().dropped;
    result.makespan = system.simulator().Now();

    const auto excluded_begin = Clock::now();
    ledger.counts = ReadCounts(system, recorder, result, *scope);
    if (post) armed_post = PostRunCalls(system, recorder.events());
    excluded_ms = MillisBetween(excluded_begin, Clock::now());

    spans.Begin();
  }
  spans.End(Phase::kTeardown);

  const auto copy_begin = Clock::now();
  scope.reset();
  const campaign::CampaignRunResult escaped(result);  // deep copy, off-arena
  const auto copy_end = Clock::now();
  ledger.phase_ms[static_cast<int>(Phase::kResultCopy)] =
      MillisBetween(copy_begin, copy_end);
  ledger.wall_ms = MillisBetween(start, copy_end) - excluded_ms;

  ReplicaResult out;
  out.fingerprint = escaped.fingerprint;
  out.ok = escaped.ok();
  if (!out.ok) out.violations = escaped.oracle.Summary();
  out.ledger = ledger;
  if (post) out.post = armed_post;  // disarmed: copies onto the real heap
  return out;
}

TimedRun TimedRunOne(const campaign::CampaignRunConfig& config) {
  const auto start = Clock::now();
  std::optional<o2pc::exec::WorldPool::ScopedRun> scope(std::in_place);
  const campaign::CampaignRunResult armed = campaign::RunOne(config);
  scope.reset();
  const campaign::CampaignRunResult escaped(armed);  // deep copy, off-arena
  TimedRun run;
  run.ms = MillisBetween(start, Clock::now());
  run.fingerprint = escaped.fingerprint;
  run.ok = escaped.ok();
  return run;
}

}  // namespace perfbench
