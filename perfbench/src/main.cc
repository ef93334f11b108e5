// The repository benchmark (`perfbench`). perfbench/run.py builds
// and runs it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--setup-only] [--revision REV]
//
// With --trace 0 it measures the end-to-end metrics through the public
// entry point campaign::RunCampaign; with --trace 1 it measures the
// per-layer ledger with the replica sweep (replica.h). Either way every
// run is checked: oracle verdicts, per-run fingerprints against the first
// sweep of the same runs, the same grid at the peer workload's job count,
// and the replica against RunOne. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits 1 when any check failed and 2 on bad usage.
// "ready" is printed once set-up is done; run.py times set-up by it.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.h"
#include "common/arena.h"
#include "common/logging.h"
#include "exec/run_executor.h"
#include "exec/world_pool.h"
#include "replica.h"
#include "stats.h"

namespace campaign = o2pc::campaign;
using perfbench::Clock;
using perfbench::MillisBetween;

namespace {

/// Why each workload exists is in README.md. Both use 4 sites, 24 keys per
/// site, 24 global + 12 local transactions, 15% vote-abort and the
/// network's 5 ms + [0, 0.5 ms] latency.
struct Workload {
  const char* name;
  /// Runs at min(4, hardware threads) jobs instead of 1.
  bool parallel;
  /// The workload sweeping the identical grid at the other job count; its
  /// combined fingerprint must equal this one's.
  const char* peer;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"campaign", false, "campaign_parallel"},
      {"campaign_parallel", true, "campaign"},
  };
  return workloads;
}

/// A grid is one RunCampaign sweep per cell (fault template x protocol).
/// Each template has its own block of kSeedsPerTemplate consecutive seeds,
/// which both of its cells sweep.
constexpr int kSeedsPerTemplate = 16;
/// Seeds one of whose runs failed an oracle when the benchmark was defined
/// (open protocol bugs; README.md). Blocks holding one are skipped, so
/// that no run is expected to fail; a block seed that starts failing is a
/// regression the correctness gate reports.
constexpr std::uint64_t kFailingSeeds[] = {29, 99, 137, 203, 285};

/// The first seed of each template's block for `--seed`: the first clean
/// blocks, the same for every `--seed`, in an order `--seed` shuffles.
/// A run's host time follows its seed's transaction mix and its protocol
/// far more than its fault template (README.md), so a grid whose mixes the
/// seed drew would carry that draw into every metric. With the mixes
/// fixed, `--seed` decides which fault template meets which mix, and so
/// the fault plan of every run.
std::vector<std::uint64_t> TemplateBaseSeeds(std::uint64_t seed,
                                             std::size_t templates) {
  std::vector<std::uint64_t> blocks;
  for (std::uint64_t first = 1; blocks.size() < templates;
       first += kSeedsPerTemplate) {
    if (std::none_of(std::begin(kFailingSeeds), std::end(kFailingSeeds),
                     [&](std::uint64_t bad) {
                       return bad >= first && bad < first + kSeedsPerTemplate;
                     })) {
      blocks.push_back(first);
    }
  }
  // Fisher-Yates with mt19937_64, whose output the standard fixes, so a
  // seed names the same grid on every platform.
  std::mt19937_64 rng(seed);
  for (std::size_t i = blocks.size() - 1; i > 0; --i) {
    std::swap(blocks[i], blocks[rng() % (i + 1)]);
  }
  return blocks;
}

int ParallelJobs() { return std::min(4, o2pc::exec::RunExecutor::HardwareJobs()); }

/// One RunCampaign sweep per cell, in cell order (protocol fastest, then
/// template).
std::vector<campaign::CampaignOptions> GridSweeps(const Workload& workload,
                                                  std::uint64_t seed) {
  const campaign::CampaignOptions defaults;
  const std::vector<std::string>& templates = campaign::DefaultTemplateNames();
  const std::vector<std::uint64_t> bases =
      TemplateBaseSeeds(seed, templates.size());
  std::vector<campaign::CampaignOptions> sweeps;
  for (std::size_t t = 0; t < templates.size(); ++t) {
    for (const o2pc::core::CommitProtocol protocol : defaults.protocols) {
      campaign::CampaignOptions options;
      options.templates = {templates[t]};
      options.protocols = {protocol};
      options.runs = kSeedsPerTemplate;
      options.base_seed = bases[t];
      options.jobs = workload.parallel ? ParallelJobs() : 1;
      options.shrink_failures = false;
      sweeps.push_back(std::move(options));
    }
  }
  return sweeps;
}

/// Environment switches that change the program being measured.
constexpr const char* kProgramSwitches[] = {"O2PC_RUN_ARENA", "O2PC_EVENTQUEUE",
                                            "O2PC_ARENA_POISON"};

/// Counts runs and the runs that failed a check, keeping the first few
/// failure messages.
class Verdict {
 public:
  void Attempt(std::uint64_t runs) { attempted_ += runs; }
  void Fail(const std::string& message, std::uint64_t runs = 1) {
    failed_ += runs;
    if (messages_.size() < 8) messages_.push_back(message);
  }
  /// Compares per-run fingerprints against the reference sweep.
  void CheckFingerprints(const char* what,
                         const std::vector<std::uint64_t>& reference,
                         const std::vector<std::uint64_t>& got) {
    if (got.size() != reference.size()) {
      Fail(std::string(what) + ": run count differs from the reference",
           got.size());
      return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i] != reference[i]) {
        Fail(std::string(what) + ": run " + std::to_string(i) +
             " fingerprint differs from the reference sweep");
      }
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Metrics in emission order, printed as the final JSON object.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit,
           const std::string& note = "") {
    entries_.push_back({name, value, unit, note});
  }
  void Append(const MetricSet& other) {
    entries_.insert(entries_.end(), other.entries_.begin(),
                    other.entries_.end());
  }
  /// Names must be valid and values finite; problems go to `verdict`.
  void Validate(Verdict* verdict) const {
    for (const Entry& entry : entries_) {
      if (!perfbench::ValidMetricName(entry.name)) {
        verdict->Fail("invalid metric name " + entry.name, 0);
      }
      if (!std::isfinite(entry.value)) {
        verdict->Fail("metric " + entry.name + " is not finite", 0);
      }
    }
  }
  void PrintTable() const {
    for (const Entry& entry : entries_) {
      std::printf("  %-34s %16.6g %-9s %s\n", entry.name.c_str(), entry.value,
                  entry.unit, entry.note.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& entry = entries_[i];
      char value[40];
      std::snprintf(value, sizeof value, "%.17g",
                    std::isfinite(entry.value) ? entry.value : 0.0);
      out += (i > 0 ? ", \"" : "\"") + entry.name + "\": {\"value\": " +
             value + ", \"unit\": \"" + entry.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

std::string Evidence(const perfbench::TailPercentile& p) {
  std::string note = "n=" + std::to_string(p.samples) +
                     " beyond=" + std::to_string(p.beyond);
  if (!p.reportable()) note += " (fewer than 10 beyond: indicative only)";
  return note;
}

void AddPercentile(MetricSet* metrics, const std::string& name,
                   const std::vector<double>& samples, double q, double scale,
                   const char* unit) {
  const perfbench::TailPercentile p = perfbench::Percentile(samples, q);
  metrics->Add(name, p.value * scale, unit, Evidence(p));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Runs the replica over the sweep with the post-run calls, checking each
/// run against the reference fingerprints; returns the results.
std::vector<perfbench::ReplicaResult> PostPass(
    const std::vector<campaign::CampaignRunConfig>& configs, int jobs,
    const std::vector<std::uint64_t>& reference, Verdict* verdict) {
  o2pc::exec::RunExecutor executor(jobs);
  std::vector<perfbench::ReplicaResult> runs =
      perfbench::RunInWaves<perfbench::ReplicaResult>(
          executor, configs.size(),
          [&](std::size_t i) { return perfbench::ReplicaRun(configs[i], true); });
  verdict->Attempt(runs.size());
  std::vector<std::uint64_t> fingerprints;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    fingerprints.push_back(runs[i].fingerprint);
    if (!runs[i].ok) verdict->Fail("replica run " + std::to_string(i) + ": " +
                                   runs[i].violations);
    if (!runs[i].post.sim_error.empty()) {
      verdict->Fail("replica run " + std::to_string(i) + ": " +
                    runs[i].post.sim_error);
    }
  }
  verdict->CheckFingerprints("replica vs RunOne", reference, fingerprints);
  return runs;
}

void AddSimMetrics(const std::vector<campaign::CampaignRunConfig>& configs,
                   const std::vector<perfbench::ReplicaResult>& runs,
                   MetricSet* metrics) {
  perfbench::SimSample o2pc_sim;
  perfbench::SimSample twopc_sim;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    (configs[i].protocol == o2pc::core::CommitProtocol::kOptimistic ? o2pc_sim
                                                                    : twopc_sim)
        .Append(runs[i].post.sim);
  }
  constexpr double kMs = 1e-3;  // simulated microseconds -> ms
  AddPercentile(metrics, "sim_commit_ms.p50.o2pc", o2pc_sim.commit_us, 0.50,
                kMs, "sim_ms");
  AddPercentile(metrics, "sim_commit_ms.p99.o2pc", o2pc_sim.commit_us, 0.99,
                kMs, "sim_ms");
  AddPercentile(metrics, "sim_commit_ms.p99.2pc", twopc_sim.commit_us, 0.99,
                kMs, "sim_ms");
  AddPercentile(metrics, "sim_xlock_hold_ms.p99.o2pc", o2pc_sim.xlock_hold_us,
                0.99, kMs, "sim_ms");
  AddPercentile(metrics, "sim_xlock_hold_ms.p99.2pc", twopc_sim.xlock_hold_us,
                0.99, kMs, "sim_ms");
  AddPercentile(metrics, "sim_blocked_prepared_ms.p99.2pc",
                twopc_sim.blocked_prepared_us, 0.99, kMs, "sim_ms");
  metrics->Add("sim_commit_frac.o2pc",
               Ratio(o2pc_sim.globals_committed, o2pc_sim.globals_submitted),
               "fraction");
  metrics->Add("sim_commit_frac.2pc",
               Ratio(twopc_sim.globals_committed, twopc_sim.globals_submitted),
               "fraction");
  metrics->Add("sim_msgs_per_txn.o2pc",
               Ratio(o2pc_sim.messages_sent, o2pc_sim.globals_submitted),
               "msgs/txn");
}

/// One RunCampaign sweep: checks verdicts, and fingerprints against
/// `reference` (which the first sweep sets). Returns its wall seconds.
double MeasuredSweep(const campaign::CampaignOptions& options,
                     std::vector<std::uint64_t>* reference, Verdict* verdict) {
  const auto begin = Clock::now();
  const campaign::CampaignReport report = campaign::RunCampaign(options);
  const double seconds = MillisBetween(begin, Clock::now()) / 1000.0;
  verdict->Attempt(static_cast<std::uint64_t>(report.runs_completed));
  for (const campaign::CampaignFailure& failure : report.failures) {
    verdict->Fail("oracle: seed " + std::to_string(failure.config.seed) + " " +
                  failure.config.template_name + ": " +
                  failure.oracle.Summary());
  }
  if (reference->empty()) {
    *reference = report.fingerprints;
  } else {
    verdict->CheckFingerprints("sweep", *reference, report.fingerprints);
  }
  return seconds;
}

std::uint64_t Combined(const std::vector<std::uint64_t>& fingerprints) {
  campaign::CampaignReport report;
  report.fingerprints = fingerprints;
  return report.CombinedFingerprint();
}

/// Every cell's sweep in turn, checked as MeasuredSweep checks one, with
/// the grid's fingerprints in grid order. Returns the summed wall seconds.
double SweepGrid(const std::vector<campaign::CampaignOptions>& sweeps,
                 std::vector<std::uint64_t>* reference, Verdict* verdict) {
  std::vector<std::uint64_t> fingerprints;
  double seconds = 0;
  for (const campaign::CampaignOptions& sweep : sweeps) {
    std::vector<std::uint64_t> cell;
    seconds += MeasuredSweep(sweep, &cell, verdict);
    fingerprints.insert(fingerprints.end(), cell.begin(), cell.end());
  }
  if (reference->empty()) {
    *reference = fingerprints;
  } else {
    verdict->CheckFingerprints("grid", *reference, fingerprints);
  }
  return seconds;
}

/// The end-to-end measurement. The cells' sweeps are visited in turn until
/// the time is up, each followed by a pass that times every RunOne call of
/// the cell.
///
/// Every repeat of a cell does identical deterministic work, and on a
/// shared host interference comes in phases of seconds to minutes that
/// only ever slow work down, so each cell's sweep time and each run's host
/// time is its least-disturbed repeat (the convention bench_hot_path
/// follows). runs_per_s is the grid's runs over the sum of its cells' best
/// sweep times; cells short enough to be repeated throughout the run keep
/// that sum steady.
void MeasureEndToEnd(const std::vector<campaign::CampaignOptions>& sweeps,
                     const std::vector<campaign::CampaignRunConfig>& configs,
                     double seconds, std::vector<std::uint64_t>* reference,
                     Verdict* verdict, MetricSet* metrics) {
  const int cells = static_cast<int>(sweeps.size());
  const std::size_t per_cell = configs.size() / sweeps.size();
  std::vector<std::vector<std::uint64_t>> cell_reference(sweeps.size());
  std::vector<std::vector<double>> sweep_s(sweeps.size());
  std::vector<double> best_run_ms(configs.size(),
                                  std::numeric_limits<double>::infinity());
  int visits = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (; visits < cells || Clock::now() < deadline; ++visits) {
    const int cell = visits % cells;
    sweep_s[cell].push_back(
        MeasuredSweep(sweeps[cell], &cell_reference[cell], verdict));

    const std::size_t first = static_cast<std::size_t>(cell) * per_cell;
    o2pc::exec::RunExecutor executor(sweeps[cell].jobs);
    const std::vector<perfbench::TimedRun> runs =
        perfbench::RunInWaves<perfbench::TimedRun>(
            executor, per_cell, [&](std::size_t i) {
              return perfbench::TimedRunOne(configs[first + i]);
            });
    verdict->Attempt(runs.size());
    std::vector<std::uint64_t> fingerprints;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      best_run_ms[first + i] = std::min(best_run_ms[first + i], runs[i].ms);
      fingerprints.push_back(runs[i].fingerprint);
      if (!runs[i].ok) verdict->Fail("RunOne pass: oracle failure");
    }
    verdict->CheckFingerprints("RunOne pass", cell_reference[cell],
                               fingerprints);
  }
  reference->clear();
  for (const std::vector<std::uint64_t>& cell : cell_reference) {
    reference->insert(reference->end(), cell.begin(), cell.end());
  }

  // How disturbed the host was: each repeat's time over its cell's best.
  double grid_s = 0;
  std::vector<double> slowdowns;
  for (const std::vector<double>& repeats : sweep_s) {
    const double best = *std::min_element(repeats.begin(), repeats.end());
    grid_s += best;
    for (double s : repeats) slowdowns.push_back(s / best);
  }
  const perfbench::Quartiles noise = perfbench::ExclusiveQuartiles(slowdowns);
  char note[128];
  std::snprintf(note, sizeof note,
                "%d cell sweeps, best of %d-%d; repeat/best q1..q3 "
                "%.3f..%.3f",
                cells, visits / cells, (visits + cells - 1) / cells, noise.q1,
                noise.q3);
  metrics->Add("runs_per_s", configs.size() / grid_s, "runs/s", note);
  // Not the median: runs fall into a fast and a slow mode about equally
  // often, and the median sits in the trough between them, where it jumps
  // with a grid's mix of seeds (README.md).
  AddPercentile(metrics, "run_ms.p25", best_run_ms, 0.25, 1.0, "ms");
  AddPercentile(metrics, "run_ms.p90", best_run_ms, 0.90, 1.0, "ms");
  metrics->Add("peak_rss_mb", PeakRssMb(), "MB");
}

/// Sums over every run of every traced sweep.
struct LedgerTotals {
  std::array<double, perfbench::kNumPhases> phase_ms{};
  double wall_ms = 0;
  double wave_wait_ms = 0;
  double worker_ms = 0;  // jobs x sweep wall
  std::vector<double> first_wave_ms;
  std::vector<double> traced_rps;
  perfbench::RunCounts counts;
  std::uint64_t runs = 0;

  void AddRun(const perfbench::RunLedger& run) {
    for (int p = 0; p < perfbench::kNumPhases; ++p) {
      phase_ms[p] += run.phase_ms[p];
    }
    wall_ms += run.wall_ms;
    const perfbench::RunCounts& c = run.counts;
    counts.sim_events += c.sim_events;
    counts.trace_events += c.trace_events;
    counts.journal_bytes += c.journal_bytes;
    counts.msgs_sent += c.msgs_sent;
    counts.msgs_dropped += c.msgs_dropped;
    counts.lock_acquires += c.lock_acquires;
    counts.lock_waits += c.lock_waits;
    counts.lock_deadlocks += c.lock_deadlocks;
    counts.wal_records += c.wal_records;
    counts.restarts += c.restarts;
    counts.r1_rejections += c.r1_rejections;
    counts.compensations += c.compensations;
    counts.udum_unmarks += c.udum_unmarks;
    counts.committed += c.committed;
    counts.incarnations += c.incarnations;
    counts.arena_bytes += c.arena_bytes;
    counts.heap_allocs += c.heap_allocs;
    ++runs;
  }
};

/// The traced measurement: replica sweeps timed phase by phase, alternating
/// with untraced RunCampaign sweeps for the tracing overhead.
void MeasureLedger(const std::vector<campaign::CampaignOptions>& sweeps,
                   const std::vector<campaign::CampaignRunConfig>& configs,
                   double seconds, std::vector<std::uint64_t>* reference,
                   Verdict* verdict, LedgerTotals* totals,
                   std::vector<double>* untraced_rps) {
  const int jobs = sweeps.front().jobs;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    untraced_rps->push_back(configs.size() /
                            SweepGrid(sweeps, reference, verdict));

    std::vector<double> wave_ms;
    std::vector<perfbench::ReplicaResult> runs;
    const auto begin = Clock::now();
    {
      o2pc::exec::RunExecutor executor(jobs);
      runs = perfbench::RunInWaves<perfbench::ReplicaResult>(
          executor, configs.size(),
          [&](std::size_t i) { return perfbench::ReplicaRun(configs[i], false); },
          &wave_ms);
    }
    const double sweep_ms = MillisBetween(begin, Clock::now());
    totals->traced_rps.push_back(runs.size() / (sweep_ms / 1000.0));
    totals->worker_ms += jobs * sweep_ms;
    totals->first_wave_ms.push_back(wave_ms.front());

    verdict->Attempt(runs.size());
    std::vector<std::uint64_t> fingerprints;
    const std::size_t wave = static_cast<std::size_t>(jobs);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      totals->AddRun(runs[i].ledger);
      totals->wave_wait_ms += wave_ms[i / wave] - runs[i].ledger.wall_ms;
      fingerprints.push_back(runs[i].fingerprint);
      if (!runs[i].ok) verdict->Fail("traced replica: " + runs[i].violations);
    }
    verdict->CheckFingerprints("traced replica", *reference, fingerprints);
  } while (Clock::now() < deadline);
}

void AddLedgerMetrics(const LedgerTotals& t,
                      const std::vector<double>& untraced_rps,
                      const std::vector<perfbench::ReplicaResult>& post,
                      MetricSet* metrics) {
  const double n = static_cast<double>(t.runs);
  const perfbench::RunCounts& c = t.counts;
  std::vector<double> spans(t.phase_ms.begin(), t.phase_ms.end());
  for (int p = 0; p < perfbench::kNumPhases; ++p) {
    const auto phase = static_cast<perfbench::Phase>(p);
    char share[48];
    std::snprintf(share, sizeof share, "%5.1f%% of run wall",
                  100.0 * Ratio(t.phase_ms[p], t.wall_ms));
    metrics->Add(perfbench::PhaseMetricName(phase), t.phase_ms[p] / n, "ms",
                 share);
  }
  metrics->Add("sim.ns_per_event",
               Ratio(t.phase_ms[static_cast<int>(perfbench::Phase::kSimulate)] *
                         1e6,
                     static_cast<double>(c.sim_events)),
               "ns");
  metrics->Add("sim.events", c.sim_events / n, "count");
  metrics->Add("trace.events", c.trace_events / n, "count");
  metrics->Add("trace.journal_bytes", c.journal_bytes / n, "bytes");

  double check_ms = 0, analyze_ms = 0, collect_ms = 0;
  for (const perfbench::ReplicaResult& run : post) {
    check_ms += run.post.check_ms;
    analyze_ms += run.post.analyze_ms;
    collect_ms += run.post.collect_ms;
  }
  const double post_runs = static_cast<double>(post.size());
  metrics->Add("trace.check_ms", check_ms / post_runs, "ms",
               "separate call, outside the run wall");
  metrics->Add("sg.analyze_ms", analyze_ms / post_runs, "ms",
               "separate call, outside the run wall");
  metrics->Add("telemetry.collect_ms", collect_ms / post_runs, "ms",
               "separate call, outside the run wall");

  metrics->Add("exec.busy_frac", Ratio(t.wall_ms, t.worker_ms), "fraction");
  metrics->Add("exec.wave_wait_ms", t.wave_wait_ms / n, "ms");
  metrics->Add("exec.first_wave_ms", perfbench::Median(t.first_wave_ms), "ms");
  metrics->Add("common.arena_bytes", c.arena_bytes / n, "bytes");
  metrics->Add("common.heap_allocs", c.heap_allocs / n, "count");

  metrics->Add("net.msgs_sent", c.msgs_sent / n, "count");
  metrics->Add("net.msgs_dropped", c.msgs_dropped / n, "count");
  metrics->Add("lock.acquires", c.lock_acquires / n, "count");
  metrics->Add("lock.wait_ratio",
               Ratio(static_cast<double>(c.lock_waits),
                     static_cast<double>(c.lock_acquires)),
               "fraction");
  metrics->Add("lock.deadlocks", c.lock_deadlocks / n, "count");
  metrics->Add("storage.wal_records", c.wal_records / n, "count");
  metrics->Add("core.restarts", c.restarts / n, "count");
  metrics->Add("core.r1_rejections", c.r1_rejections / n, "count");
  metrics->Add("core.compensations", c.compensations / n, "count");
  metrics->Add("core.udum_unmarks", c.udum_unmarks / n, "count");
  metrics->Add("core.useful_ratio",
               Ratio(static_cast<double>(c.committed),
                     static_cast<double>(c.incarnations)),
               "fraction");

  const double unattributed = perfbench::UnattributedFrac(spans, t.wall_ms);
  metrics->Add("ledger.run_ms", t.wall_ms / n, "ms");
  metrics->Add("ledger.unattributed_frac", unattributed, "fraction",
               perfbench::LedgerBalanced(unattributed)
                   ? "spans sum to within 5% of run wall"
                   : "WARNING: spans miss run wall by more than 5%");
  // Best sweeps, as for runs_per_s: the least-disturbed of each kind.
  const double traced =
      *std::max_element(t.traced_rps.begin(), t.traced_rps.end());
  const double untraced =
      *std::max_element(untraced_rps.begin(), untraced_rps.end());
  metrics->Add("ledger.traced_runs_per_s", traced, "runs/s");
  metrics->Add("ledger.untraced_runs_per_s", untraced, "runs/s");
  metrics->Add("ledger.overhead_frac", 1.0 - Ratio(traced, untraced),
               "fraction", "1 - traced/untraced runs_per_s");
}

void PrintProvenance(const Workload& workload,
                     const std::vector<campaign::CampaignOptions>& sweeps,
                     std::uint64_t seed, double seconds, int trace,
                     const std::string& revision) {
  std::string bases;
  for (const campaign::CampaignOptions& sweep : sweeps) {
    bases += (bases.empty() ? "" : ", ") + std::to_string(sweep.base_seed);
  }
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"cells\": %zu, "
      "\"runs_per_cell\": %d, \"cell_base_seeds\": [%s], \"jobs\": %d, "
      "\"nproc\": %ld, \"hardware_concurrency\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"git_revision\": \"%s\", "
      "\"arena_compiled_in\": %s, \"arena_enabled\": %s",
      workload.name, static_cast<unsigned long long>(seed), seconds, trace,
      sweeps.size(), sweeps.front().runs, bases.c_str(), sweeps.front().jobs,
      sysconf(_SC_NPROCESSORS_ONLN),
      o2pc::exec::RunExecutor::DetectedHardwareConcurrency(),
      PERFBENCH_BUILD_TYPE, __VERSION__, revision.c_str(),
      o2pc::common::HeapAllocCountingEnabled() ? "true" : "false",
      o2pc::exec::WorldPool::Enabled() ? "true" : "false");
  for (const char* name : kProgramSwitches) {
    const char* value = std::getenv(name);
    std::printf(", \"%s\": %s%s%s", name, value ? "\"" : "",
                value ? value : "null", value ? "\"" : "");
  }
  std::printf("}}\n");
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--setup-only] [--revision REV]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  o2pc::Logger::Global().set_level(o2pc::LogLevel::kError);

  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool setup_only = false;
  std::string revision = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (value == nullptr) return Usage(("missing value for " + arg).c_str());
    ++i;
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (arg == "--revision") {
      revision = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown --workload");
  if (!(seconds > 0 && seconds <= 600)) return Usage("--seconds must be in (0, 600]");
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  for (const char* name : kProgramSwitches) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes the "
                   "program being measured\n",
                   name);
      return 2;
    }
  }

  // Set-up: arena reservation (and process statics), then the grid's plans.
  (void)o2pc::exec::WorldPool::Enabled();
  const std::vector<campaign::CampaignOptions> sweeps =
      GridSweeps(*workload, seed);
  std::vector<campaign::CampaignRunConfig> configs;
  for (const campaign::CampaignOptions& sweep : sweeps) {
    std::vector<campaign::CampaignRunConfig> cell =
        perfbench::SweepConfigs(sweep);
    std::move(cell.begin(), cell.end(), std::back_inserter(configs));
  }
  std::printf("ready\n");
  std::fflush(stdout);
  if (setup_only) return 0;

  PrintProvenance(*workload, sweeps, seed, seconds, trace, revision);

  Verdict verdict;
  MetricSet metrics;
  std::vector<std::uint64_t> reference;
  LedgerTotals ledger;
  std::vector<double> untraced_rps;
  if (trace == 0) {
    MeasureEndToEnd(sweeps, configs, seconds, &reference, &verdict, &metrics);
  } else {
    MeasureLedger(sweeps, configs, seconds, &reference, &verdict, &ledger,
                  &untraced_rps);
  }

  // The determinism contract: the same grid at the peer's job count.
  std::vector<campaign::CampaignOptions> peer = sweeps;
  for (campaign::CampaignOptions& sweep : peer) {
    sweep.jobs = workload->parallel ? 1 : ParallelJobs();
  }
  std::vector<std::uint64_t> peer_fingerprints;
  SweepGrid(peer, &peer_fingerprints, &verdict);
  if (Combined(peer_fingerprints) != Combined(reference)) {
    verdict.CheckFingerprints(workload->peer, reference, peer_fingerprints);
  }
  std::printf("combined fingerprint %016llx, %s at jobs=%d: %016llx\n",
              static_cast<unsigned long long>(Combined(reference)),
              workload->peer, peer.front().jobs,
              static_cast<unsigned long long>(Combined(peer_fingerprints)));

  // The replica against RunOne, and the simulated-time figures.
  const std::vector<perfbench::ReplicaResult> post =
      PostPass(configs, sweeps.front().jobs, reference, &verdict);
  // The simulated-time figures are deterministic per seed but vary across
  // seeds by more than any bound could allow (README.md), so they are
  // per-layer metrics: in the JSON of the traced run, and in the table of
  // both runs.
  MetricSet sim;
  AddSimMetrics(configs, post, &sim);
  if (trace == 0) {
    metrics.Add("passed_run_frac",
                1.0 - Ratio(static_cast<double>(verdict.failed()),
                            static_cast<double>(verdict.attempted())),
                "fraction");
  } else {
    AddLedgerMetrics(ledger, untraced_rps, post, &metrics);
    metrics.Append(sim);
  }
  metrics.Validate(&verdict);
  sim.Validate(&verdict);

  std::printf("%s: %llu runs attempted, %llu failed\n", workload->name,
              static_cast<unsigned long long>(verdict.attempted()),
              static_cast<unsigned long long>(verdict.failed()));
  for (const std::string& message : verdict.messages()) {
    std::printf("  FAIL %s\n", message.c_str());
  }
  metrics.PrintTable();
  if (trace == 0) {
    std::printf("simulated-time figures (deterministic per seed):\n");
    sim.PrintTable();
  }
  const bool correct = verdict.failed() == 0 && verdict.messages().empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(verdict.attempted()),
      static_cast<unsigned long long>(verdict.failed()),
      metrics.Json().c_str());
  return correct ? 0 : 1;
}
