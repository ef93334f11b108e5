#include "campaign/runner.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
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

/// A finished run waiting for its turn in the fold. Both halves live on
/// the real heap: the config is built before the run's world is armed and
/// the result is deep-copied after it is disarmed.
struct FinishedRun {
  CampaignRunConfig config;
  CampaignRunResult result;
};

/// Folds finished runs into the report strictly in sweep order while the
/// sweep is still running. Whichever worker delivers the run the fold is
/// waiting for folds it, then every later run already waiting, and
/// releases each one as it goes; the other workers only park their run and
/// claim the next. So the report is built exactly as a serial sweep builds
/// it, and the runs held at any moment are only those that finished ahead
/// of an unfinished earlier one.
class SweepFold {
 public:
  SweepFold(const CampaignOptions& options, std::size_t runs, bool verbose,
            CampaignReport* report)
      : options_(options),
        verbose_(verbose),
        report_(report),
        start_(std::chrono::steady_clock::now()),
        waiting_(runs),
        end_(runs) {}

  /// Whether run `index` should start. A run that finds the wall-clock
  /// budget spent becomes the cut (the lowest such run wins): it and every
  /// later run are left out, and runs past it that already started are
  /// discarded. Every run is asked, and one below the cut was admitted —
  /// had it found the budget spent, it would be the cut — so the report
  /// covers an exact prefix of the sweep.
  bool Admit(std::size_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    if (index >= end_) return false;
    if (options_.time_budget_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start_;
      if (elapsed.count() >= options_.time_budget_seconds) {
        end_ = index;
        return false;
      }
    }
    return true;
  }

  /// Hands over run `index` and, unless another worker is folding, folds
  /// every run from the fold's position on that has arrived.
  void Deliver(std::size_t index, std::unique_ptr<FinishedRun> run) {
    std::unique_lock<std::mutex> lock(mu_);
    if (index >= end_) return;  // past the cut
    waiting_[index] = std::move(run);
    if (folding_) return;  // the active folder will reach it
    folding_ = true;
    while (next_ < end_ && waiting_[next_] != nullptr) {
      const std::size_t ready = next_;
      std::unique_ptr<FinishedRun> folded = std::move(waiting_[ready]);
      lock.unlock();
      Fold(ready, *folded);
      folded.reset();
      lock.lock();
      ++next_;
    }
    folding_ = false;
  }

  /// Called once the batch has drained: every run before the cut has been
  /// folded.
  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    O2PC_CHECK(next_ == end_) << "fold stopped at " << next_ << " of "
                              << end_;
    report_->budget_exhausted = end_ < waiting_.size();
    if (options_.collect_telemetry) {
      report_->telemetry = accumulator_.Build();
      report_->telemetry_collected = true;
    }
  }

 private:
  void Fold(std::size_t index, FinishedRun& run) {
    const CampaignRunConfig& config = run.config;
    CampaignRunResult& result = run.result;
    ++report_->runs_completed;
    report_->total_faults_triggered +=
        static_cast<std::uint64_t>(result.faults_triggered);
    report_->fingerprints.push_back(result.fingerprint);
    const char* protocol_name =
        config.protocol == core::CommitProtocol::kOptimistic ? "o2pc" : "2pc";
    if (options_.collect_telemetry) {
      accumulator_.AddRun(protocol_name, result.telemetry);
      if (result.telemetry.has_series) {
        accumulator_.AddSeries(
            StrCat(protocol_name, " seed=", config.seed,
                   " template=", config.template_name),
            std::move(result.telemetry.series));
      }
    }
    if (verbose_) {
      std::cerr << "[campaign] run " << index << " seed=" << config.seed
                << " template=" << config.template_name
                << " protocol=" << protocol_name
                << " faults=" << result.faults_triggered
                << (result.ok() ? " ok" : " FAIL") << "\n";
    }
    if (result.ok()) return;

    ++report_->runs_failed;
    CampaignFailure failure;
    failure.config = config;
    failure.oracle = std::move(result.oracle);
    failure.shrunk_plan = config.plan;
    if (options_.shrink_failures) {
      failure.shrunk_plan = ShrinkFaultPlan(config).plan;
    }
    if (!options_.artifact_dir.empty()) {
      CampaignRunConfig artifact_config = config;
      artifact_config.plan = failure.shrunk_plan;
      failure.artifact_path =
          WriteArtifact(artifact_config, options_.artifact_dir);
    }
    report_->failures.push_back(std::move(failure));
  }

  const CampaignOptions& options_;
  const bool verbose_;
  CampaignReport* const report_;
  const std::chrono::steady_clock::time_point start_;
  /// Like *report_, touched only by the one worker folding at a time.
  telemetry::TelemetryAccumulator accumulator_;

  std::mutex mu_;
  /// Slot i holds run i from its delivery until it is folded.
  std::vector<std::unique_ptr<FinishedRun>> waiting_;
  /// The next run to fold.
  std::size_t next_ = 0;
  /// The cut: runs at or past it are left out of the report.
  std::size_t end_;
  bool folding_ = false;
};

}  // namespace

CampaignReport RunCampaign(const CampaignOptions& options, bool verbose) {
  CampaignReport report;
  const std::vector<std::string>& templates =
      options.templates.empty() ? DefaultTemplateNames() : options.templates;
  O2PC_CHECK(!options.protocols.empty());
  const std::size_t runs = static_cast<std::size_t>(std::max(0, options.runs));
  SweepFold fold(options, runs, verbose, &report);

  exec::RunExecutor executor(options.jobs);
  const std::size_t num_protocols = options.protocols.size();
  const bool reuse = options.reuse_worlds && exec::WorldPool::Enabled();
  // One batch over the whole sweep. Each worker recycles its thread-local
  // world arena per run, and opening a run rewinds that worker's previous
  // one, so a result must leave its run with no arena-backed storage:
  // close the scope (disarm — the arena stays readable until the worker's
  // next open), then copy the result, which re-allocates every string and
  // vector on the real heap. The fold, shrinking included, runs disarmed.
  executor.ParallelFor(runs, [&](std::size_t i) {
    if (!fold.Admit(i)) return;
    auto run = std::make_unique<FinishedRun>();
    run->config = GridConfig(options, templates, static_cast<int>(i));
    if (options.collect_telemetry) {
      run->config.collect_telemetry = true;
      run->config.time_series_interval = options.time_series_interval;
      // Sample a time-series for the first run of each protocol (the
      // grid's fastest-varying radix): a fixed set of run *indices*, so
      // the sampled series are identical for every job count.
      run->config.collect_time_series = i < num_protocols;
    }
    if (reuse) {
      std::optional<exec::WorldPool::ScopedRun> scope(std::in_place);
      const CampaignRunResult armed = RunOne(run->config);
      scope.reset();
      run->result = armed;  // deep copy, off-arena
    } else {
      run->result = RunOne(run->config);
    }
    fold.Deliver(i, std::move(run));
  });
  fold.Finish();
  return report;
}

}  // namespace o2pc::campaign
