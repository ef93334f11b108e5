#ifndef PERFBENCH_REPLICA_H_
#define PERFBENCH_REPLICA_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "exec/run_executor.h"
#include "stats.h"

/// \file
/// The campaign sweep taken apart from the outside. `campaign::RunCampaign`
/// reports no per-run or per-layer time, so the benchmark re-creates its
/// inner loop from public calls — waves of `RunExecutor::Map`, one recycled
/// world (`exec::WorldPool::ScopedRun`) per run, the body of
/// `campaign::RunOne` — and times each call from here. Nothing inside the
/// simulator is instrumented. The replica's per-run fingerprint must equal
/// `RunOne`'s for the same config; the benchmark checks this on every run, so
/// a drift in the copied system and workload options fails loudly.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// The sweep's runs in RunCampaign's grid order (protocol fastest, then
/// template, then seed), each with its fault plan generated.
std::vector<o2pc::campaign::CampaignRunConfig> SweepConfigs(
    const o2pc::campaign::CampaignOptions& options);

/// The timed calls of one run, in the order the run makes them.
enum class Phase : int {
  kArenaOpen = 0,  ///< exec::WorldPool::ScopedRun open (rewind + arm)
  kPlan,           ///< campaign::GeneratePlan
  kBuild,          ///< core::DistributedSystem ctor + initial TotalValue
  kArm,            ///< recorder install + FaultInjector ctor and Arm
  kDrive,          ///< WorkloadGenerator ctor and Drive
  kSimulate,       ///< DistributedSystem::Run
  kOracles,        ///< campaign::RunOracles
  kRender,         ///< trace::ExportJsonlString
  kFingerprint,    ///< campaign::Fingerprint
  kTeardown,       ///< world destructors (still armed, as in RunOne)
  kResultCopy,     ///< scope close + deep copy of the CampaignRunResult
};
inline constexpr int kNumPhases = static_cast<int>(Phase::kResultCopy) + 1;

/// The per-layer metric name of a phase ("sim.run_ms", ...).
const char* PhaseMetricName(Phase phase);

/// Exact counts read from public accessors after one run.
struct RunCounts {
  std::uint64_t sim_events = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_dropped = 0;
  std::uint64_t lock_acquires = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t lock_deadlocks = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t restarts = 0;
  std::uint64_t r1_rejections = 0;
  std::uint64_t compensations = 0;
  std::uint64_t udum_unmarks = 0;
  std::uint64_t committed = 0;
  /// Global incarnations launched: submissions plus restarts.
  std::uint64_t incarnations = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t heap_allocs = 0;
};

/// One run's phase spans; `wall_ms` is arena open to the end of the result
/// copy, excluding the post-run calls below.
struct RunLedger {
  std::array<double, kNumPhases> phase_ms{};
  double wall_ms = 0;
  RunCounts counts;
};

/// Calls made on the drained world outside the run's wall: the two halves
/// of the oracle battery timed apart, the telemetry fold no workload turns
/// on, and the simulated-time figures.
struct PostRun {
  double check_ms = 0;     ///< trace::CheckTrace
  double analyze_ms = 0;   ///< DistributedSystem::Analyze
  double collect_ms = 0;   ///< telemetry::CollectFromJournal
  SimSample sim;
  std::string sim_error;   ///< non-empty when ExtractSim refused the run
};

struct ReplicaResult {
  std::uint64_t fingerprint = 0;
  bool ok = false;
  std::string violations;
  RunLedger ledger;
  PostRun post;  ///< filled when post
};

/// Re-creates one `RunCampaign` run: opens the worker's recycled world,
/// generates the plan, runs `RunOne`'s body, closes the world and copies
/// the result off the arena, reading the clock around every phase. `post`
/// also makes the post-run calls.
ReplicaResult ReplicaRun(const o2pc::campaign::CampaignRunConfig& config,
                         bool post);

/// One run exactly as RunCampaign's worker lambda makes it: recycled world,
/// `campaign::RunOne`, scope close, result copy — timed as a whole.
struct TimedRun {
  double ms = 0;
  std::uint64_t fingerprint = 0;
  bool ok = false;
};
TimedRun TimedRunOne(const o2pc::campaign::CampaignRunConfig& config);

/// Runs `fn(i)` for every i in [0, n) in waves of `executor.jobs()` runs,
/// as RunCampaign does, appending each wave's wall time to `*wave_ms` when
/// non-null.
template <typename T, typename Fn>
std::vector<T> RunInWaves(o2pc::exec::RunExecutor& executor, std::size_t n,
                          Fn&& fn, std::vector<double>* wave_ms = nullptr) {
  std::vector<T> out;
  out.reserve(n);
  const std::size_t wave =
      static_cast<std::size_t>(std::max(1, executor.jobs()));
  for (std::size_t start = 0; start < n; start += wave) {
    const std::size_t count = std::min(wave, n - start);
    const auto begin = Clock::now();
    std::vector<T> results = executor.Map<T>(
        count, [&](std::size_t w) { return fn(start + w); });
    if (wave_ms != nullptr) wave_ms->push_back(MillisBetween(begin, Clock::now()));
    for (T& result : results) out.push_back(std::move(result));
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_REPLICA_H_
