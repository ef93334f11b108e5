#include "campaign/runner.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "campaign/injector.h"
#include "campaign/shrink.h"
#include "common/fnv.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "exec/run_executor.h"
#include "exec/world_pool.h"
#include "telemetry/time_series.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "workload/generator.h"

namespace o2pc::campaign {

std::uint64_t Fingerprint(const std::string& text) {
  std::uint64_t hash = kFnvOffsetBasis;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  return hash;
}

namespace {

/// The campaign's system tuning. Outages and heals in the built-in
/// templates stay under ~80ms, so a generous resend budget (300 retries
/// starting at 15ms, exponential with a 120ms cap) guarantees every
/// survivable fault drains — oracle violations then mean protocol bugs,
/// not an injector that out-lasted the retransmission safety net. The
/// participant-side termination protocol is armed so that a *permanent*
/// coordinator outage ("coordinator_outage" template) leaves no
/// participant wedged: after ~30ms without a DECISION the participant
/// asks the coordinator's recovery agent (DECISION-REQ), then escalates
/// to cooperative termination against its peers.
core::SystemOptions MakeSystemOptions(const CampaignRunConfig& config) {
  core::SystemOptions options;
  options.num_sites = config.num_sites;
  options.keys_per_site = config.keys_per_site;
  options.seed = config.seed;
  options.protocol.protocol = config.protocol;
  options.protocol.resend_timeout = Millis(15);
  options.protocol.max_resends = 300;
  options.protocol.retry_backoff_multiplier = 2.0;
  options.protocol.retry_backoff_cap = Millis(120);
  options.protocol.coordinator_crash_probability = 0.0;
  options.protocol.coordinator_recovery_delay = Millis(40);
  options.protocol.decision_timeout = Millis(30);
  options.protocol.decision_req_attempts = 2;
  options.protocol.termination_budget = 20;
  // Well above lock_wait_timeout (300ms) times the sites-per-txn fan-out,
  // so only a genuinely vanished coordinator trips the pre-vote abort.
  options.protocol.prevote_timeout = Seconds(2);
  options.network.duplicate_copies = config.duplicate_copies;
  options.network.duplicate_filter = config.duplicate_filter;
  return options;
}

workload::WorkloadOptions MakeWorkloadOptions(const CampaignRunConfig& config) {
  workload::WorkloadOptions options;
  options.num_global_txns = config.num_globals;
  options.num_local_txns = config.num_locals;
  options.min_sites_per_txn = std::min(2, config.num_sites);
  options.max_sites_per_txn = std::min(3, config.num_sites);
  options.vote_abort_probability = config.vote_abort_probability;
  options.semantic_ops = true;
  options.mean_global_interarrival = Millis(8);
  options.mean_local_interarrival = Millis(4);
  options.seed = config.seed * 31 + 7;
  return options;
}

/// Classifies one violation message into its verdict category by oracle
/// prefix.
telemetry::OracleVerdict ClassifyViolation(const std::string& violation) {
  if (violation.rfind("trace:", 0) == 0) {
    return telemetry::OracleVerdict::kTraceViolation;
  }
  if (violation.rfind("sg:", 0) == 0) {
    return telemetry::OracleVerdict::kSgViolation;
  }
  return telemetry::OracleVerdict::kAuditViolation;
}

/// Classifies oracle violations into verdict-coverage cells (one count per
/// violation; one kPass for a clean run).
void RecordVerdicts(const OracleReport& oracle, telemetry::CoverageMap* map) {
  if (oracle.ok()) {
    map->RecordVerdict(telemetry::OracleVerdict::kPass);
    return;
  }
  for (const std::string& violation : oracle.violations) {
    map->RecordVerdict(ClassifyViolation(violation));
  }
}

/// The run's verdict *categories*, deduplicated — the row set crossed with
/// every fault production that fired (each matrix cell counts runs, not
/// violations, so the matrix folds identically at every job count).
std::vector<telemetry::OracleVerdict> VerdictCategories(
    const OracleReport& oracle) {
  if (oracle.ok()) return {telemetry::OracleVerdict::kPass};
  std::vector<telemetry::OracleVerdict> categories;
  for (const std::string& violation : oracle.violations) {
    const telemetry::OracleVerdict verdict = ClassifyViolation(violation);
    if (std::find(categories.begin(), categories.end(), verdict) ==
        categories.end()) {
      categories.push_back(verdict);
    }
  }
  return categories;
}

}  // namespace

CampaignRunResult RunOne(const CampaignRunConfig& config) {
  core::DistributedSystem system(MakeSystemOptions(config));
  const Value initial_total = system.TotalValue();

  trace::TraceRecorder recorder;
  CampaignRunResult result;
  std::array<std::uint64_t, kNumFaultKinds> fired{};
  {
    trace::ScopedTrace scope(&recorder, &system.simulator());
    if (config.collect_telemetry) {
      // Rides the observer slot, so it composes with the injector's
      // StepHook instead of displacing it.
      telemetry::CoverageMap* coverage = &result.telemetry.coverage;
      system.SetStepObserver([coverage](const core::StepContext& context) {
        coverage->RecordStep(context.step);
      });
    }
    FaultInjector injector(&system, config.plan);
    injector.Arm();
    workload::WorkloadGenerator generator(config.num_sites,
                                          config.keys_per_site,
                                          MakeWorkloadOptions(config));
    generator.Drive(system);
    std::unique_ptr<telemetry::TimeSeriesSampler> sampler;
    if (config.collect_telemetry && config.collect_time_series) {
      sampler = std::make_unique<telemetry::TimeSeriesSampler>(
          &system, config.time_series_interval);
      sampler->Start();
    }
    system.Run();
    result.faults_triggered = injector.faults_triggered();
    if (config.collect_telemetry) {
      fired = injector.FiredByKind();
      for (int kind = 0; kind < kNumFaultKinds; ++kind) {
        if (fired[kind] > 0) {
          result.telemetry.coverage.RecordFault(kind, fired[kind]);
        }
      }
      if (sampler != nullptr) {
        result.telemetry.series = sampler->series();
        result.telemetry.has_series = true;
      }
    }
  }

  // Per-site recovery timeline: one window per kSiteCrash, filled in by
  // the matching kRecoveryBegin/kRecoveryEnd (a re-crash during recovery
  // opens a fresh window; the superseded one keeps end == 0).
  for (const trace::TraceEvent& event : recorder.events()) {
    switch (event.type) {
      case trace::EventType::kSiteCrash: {
        RecoveryWindow window;
        window.site = event.site;
        window.crash_time = event.time;
        result.recovery_windows.push_back(window);
        break;
      }
      case trace::EventType::kRecoveryBegin:
        for (auto it = result.recovery_windows.rbegin();
             it != result.recovery_windows.rend(); ++it) {
          if (it->site == event.site && it->begin == 0) {
            it->begin = event.time;
            it->in_doubt = event.a;
            break;
          }
        }
        break;
      case trace::EventType::kRecoveryEnd:
        for (auto it = result.recovery_windows.rbegin();
             it != result.recovery_windows.rend(); ++it) {
          if (it->site == event.site && it->begin != 0 && it->end == 0) {
            it->end = event.time;
            it->unresolved = event.b;
            break;
          }
        }
        break;
      default:
        break;
    }
  }

  result.oracle = RunOracles(system, recorder.events(), initial_total);
  if (config.collect_telemetry) {
    telemetry::CollectFromJournal(recorder.events(), &result.telemetry);
    RecordVerdicts(result.oracle, &result.telemetry.coverage);
    // Cross every production that fired with the run's verdict categories.
    for (const telemetry::OracleVerdict verdict :
         VerdictCategories(result.oracle)) {
      for (int kind = 0; kind < kNumFaultKinds; ++kind) {
        if (fired[kind] > 0) {
          result.telemetry.coverage.RecordProductionVerdict(kind, verdict);
        }
      }
    }
  }
  result.fingerprint = trace::JsonlFingerprint(recorder.events());
  if (config.render_journal) {
    result.journal = trace::ExportJsonlString(recorder.events());
  }
  result.committed = system.stats().Count("globals_committed");
  result.aborted = system.stats().Count("globals_aborted");
  result.compensations = system.stats().Count("compensations_committed");
  result.site_crashes = system.stats().Count("site_crashes");
  result.coordinator_crashes = system.stats().Count("coordinator_crashes");
  result.messages_dropped = system.network().stats().dropped;
  result.makespan = system.simulator().Now();
  return result;
}

std::string ArtifactToString(const CampaignRunConfig& config) {
  std::ostringstream out;
  out << "protocol=" << (config.protocol == core::CommitProtocol::kOptimistic
                             ? "o2pc"
                             : "2pc")
      << "\n";
  out << "seed=" << config.seed << "\n";
  out << "sites=" << config.num_sites << "\n";
  out << "keys=" << config.keys_per_site << "\n";
  out << "globals=" << config.num_globals << "\n";
  out << "locals=" << config.num_locals << "\n";
  out << "abort_prob=" << config.vote_abort_probability << "\n";
  // Only non-default duplication knobs are serialized, so pre-existing
  // artifacts round-trip byte-identically.
  if (config.duplicate_copies != 0) {
    out << "duplicate_copies=" << config.duplicate_copies << "\n";
  }
  if (config.duplicate_filter != -1) {
    out << "duplicate_filter=" << config.duplicate_filter << "\n";
  }
  if (!config.template_name.empty()) {
    out << "template=" << config.template_name << "\n";
  }
  out << "plan_begin\n" << config.plan.ToString() << "plan_end\n";
  return out.str();
}

bool ParseArtifact(const std::string& text, CampaignRunConfig* config,
                   std::string* error) {
  CampaignRunConfig parsed;
  std::istringstream lines(text);
  std::string line;
  std::ostringstream plan_text;
  bool in_plan = false;
  bool saw_plan = false;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "plan_begin") {
      in_plan = true;
      saw_plan = true;
      continue;
    }
    if (line == "plan_end") {
      in_plan = false;
      continue;
    }
    if (in_plan) {
      plan_text << line << "\n";
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) *error = "malformed artifact line: " + line;
      return false;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    try {
      if (key == "protocol") {
        if (value == "o2pc") {
          parsed.protocol = core::CommitProtocol::kOptimistic;
        } else if (value == "2pc") {
          parsed.protocol = core::CommitProtocol::kTwoPhaseCommit;
        } else {
          if (error != nullptr) *error = "unknown protocol: " + value;
          return false;
        }
      } else if (key == "seed") {
        parsed.seed = std::stoull(value);
      } else if (key == "sites") {
        parsed.num_sites = std::stoi(value);
      } else if (key == "keys") {
        parsed.keys_per_site = std::stoll(value);
      } else if (key == "globals") {
        parsed.num_globals = std::stoi(value);
      } else if (key == "locals") {
        parsed.num_locals = std::stoi(value);
      } else if (key == "abort_prob") {
        parsed.vote_abort_probability = std::stod(value);
      } else if (key == "duplicate_copies") {
        parsed.duplicate_copies = std::stoi(value);
      } else if (key == "duplicate_filter") {
        parsed.duplicate_filter = std::stoi(value);
      } else if (key == "template") {
        parsed.template_name = value;
      } else {
        if (error != nullptr) *error = "unknown artifact key: " + key;
        return false;
      }
    } catch (...) {
      if (error != nullptr) *error = "bad artifact value: " + line;
      return false;
    }
  }
  if (!saw_plan) {
    if (error != nullptr) *error = "artifact has no plan_begin section";
    return false;
  }
  if (!FaultPlan::Parse(plan_text.str(), &parsed.plan, error)) return false;
  *config = std::move(parsed);
  return true;
}

std::string WriteArtifact(const CampaignRunConfig& config,
                          const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ostringstream name;
  name << "campaign_fail_" << config.seed << "_"
       << (config.template_name.empty() ? "adhoc" : config.template_name)
       << "_"
       << (config.protocol == core::CommitProtocol::kOptimistic ? "o2pc"
                                                                : "2pc")
       << ".plan";
  const std::string path = (std::filesystem::path(dir) / name.str()).string();
  std::ofstream out(path);
  if (!out) return "";
  out << ArtifactToString(config);
  return out ? path : "";
}

bool LoadArtifact(const std::string& path, CampaignRunConfig* config,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseArtifact(text.str(), config, error);
}

std::uint64_t CampaignReport::CombinedFingerprint() const {
  std::uint64_t hash = kFnvOffsetBasis;
  for (std::uint64_t fp : fingerprints) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (fp >> (byte * 8)) & 0xff;
      hash *= kFnvPrime;
    }
  }
  return hash;
}

namespace {

/// The i-th run of the sweep grid: a pure function of (options, i), so the
/// full matrix can be materialized up front and executed in any order.
/// Mixed-radix: protocol fastest, then template, then seed — every
/// {seed, template} is exercised under both protocols back to back.
CampaignRunConfig GridConfig(const CampaignOptions& options,
                             const std::vector<std::string>& templates,
                             int i) {
  const int num_protocols = static_cast<int>(options.protocols.size());
  const int num_templates = static_cast<int>(templates.size());
  CampaignRunConfig config;
  config.protocol = options.protocols[i % num_protocols];
  config.template_name = templates[(i / num_protocols) % num_templates];
  config.seed =
      options.base_seed +
      static_cast<std::uint64_t>(i / (num_protocols * num_templates));
  config.num_sites = options.num_sites;
  config.keys_per_site = options.keys_per_site;
  config.num_globals = options.num_globals;
  config.num_locals = options.num_locals;
  config.vote_abort_probability = options.vote_abort_probability;
  config.duplicate_copies = options.duplicate_copies;
  config.duplicate_filter = options.duplicate_filter;
  config.plan =
      GeneratePlan(config.template_name, config.seed, config.num_sites);
  return config;
}

}  // namespace

CampaignReport RunCampaign(const CampaignOptions& options, bool verbose) {
  CampaignReport report;
  const std::vector<std::string>& templates =
      options.templates.empty() ? DefaultTemplateNames() : options.templates;
  O2PC_CHECK(!options.protocols.empty());
  const auto start = std::chrono::steady_clock::now();

  exec::RunExecutor executor(options.jobs);
  telemetry::TelemetryAccumulator accumulator;
  const int num_protocols = static_cast<int>(options.protocols.size());
  // Runs execute in waves so the wall-clock budget is honored between
  // waves; results land in sweep-ordered slots, and **all** aggregation,
  // reporting, shrinking, and artifact writing happens serially below in
  // sweep order — the report is byte-identical for every job count (the
  // budget, when set, is the one wall-clock-dependent cutoff, exactly as
  // in the serial sweep).
  const int wave = std::max(1, executor.jobs());
  for (int wave_start = 0; wave_start < options.runs; wave_start += wave) {
    if (options.time_budget_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() >= options.time_budget_seconds) {
        report.budget_exhausted = true;
        break;
      }
    }
    const int wave_runs = std::min(wave, options.runs - wave_start);
    std::vector<CampaignRunConfig> configs;
    configs.reserve(wave_runs);
    for (int w = 0; w < wave_runs; ++w) {
      CampaignRunConfig config = GridConfig(options, templates, wave_start + w);
      if (options.collect_telemetry) {
        config.collect_telemetry = true;
        config.time_series_interval = options.time_series_interval;
        // Sample a time-series for the first run of each protocol (the
        // grid's fastest-varying radix): a fixed set of run *indices*, so
        // the sampled series are identical for every job count.
        config.collect_time_series = wave_start + w < num_protocols;
      }
      configs.push_back(std::move(config));
    }
    // Each worker recycles its thread-local world arena per run, and
    // opening a run rewinds that worker's previous one. A worker executes
    // many configs per wave, so a result must leave the lambda with no
    // arena-backed storage: close the scope (disarm — the arena stays
    // readable until the worker's next open), then copy the result, which
    // re-allocates every string and vector on the real heap.
    const bool reuse = options.reuse_worlds && exec::WorldPool::Enabled();
    const std::vector<CampaignRunResult> results =
        executor.Map<CampaignRunResult>(configs.size(), [&](std::size_t w) {
          if (!reuse) return RunOne(configs[w]);
          std::optional<exec::WorldPool::ScopedRun> scope(std::in_place);
          const CampaignRunResult armed = RunOne(configs[w]);
          scope.reset();
          CampaignRunResult escaped(armed);  // deep copy, off-arena
          return escaped;
        });

    for (int w = 0; w < wave_runs; ++w) {
      const CampaignRunConfig& config = configs[w];
      const CampaignRunResult& result = results[w];
      ++report.runs_completed;
      report.total_faults_triggered +=
          static_cast<std::uint64_t>(result.faults_triggered);
      report.fingerprints.push_back(result.fingerprint);
      if (options.collect_telemetry) {
        const char* protocol_name =
            config.protocol == core::CommitProtocol::kOptimistic ? "o2pc"
                                                                 : "2pc";
        accumulator.AddRun(protocol_name, result.telemetry);
        if (result.telemetry.has_series) {
          accumulator.AddSeries(
              StrCat(protocol_name, " seed=", config.seed,
                     " template=", config.template_name),
              result.telemetry.series);
        }
      }
      if (verbose) {
        std::cerr << "[campaign] run " << wave_start + w
                  << " seed=" << config.seed
                  << " template=" << config.template_name << " protocol="
                  << (config.protocol == core::CommitProtocol::kOptimistic
                          ? "o2pc"
                          : "2pc")
                  << " faults=" << result.faults_triggered
                  << (result.ok() ? " ok" : " FAIL") << "\n";
      }
      if (result.ok()) continue;

      ++report.runs_failed;
      CampaignFailure failure;
      failure.config = config;
      failure.oracle = result.oracle;
      failure.shrunk_plan = config.plan;
      if (options.shrink_failures) {
        failure.shrunk_plan = ShrinkFaultPlan(config).plan;
      }
      if (!options.artifact_dir.empty()) {
        CampaignRunConfig artifact_config = config;
        artifact_config.plan = failure.shrunk_plan;
        failure.artifact_path =
            WriteArtifact(artifact_config, options.artifact_dir);
      }
      report.failures.push_back(std::move(failure));
    }
  }
  if (options.collect_telemetry) {
    report.telemetry = accumulator.Build();
    report.telemetry_collected = true;
  }
  return report;
}

}  // namespace o2pc::campaign
