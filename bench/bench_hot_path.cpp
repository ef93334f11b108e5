// E9 — per-run hot-path throughput (`bench_hot_path`).
//
// Measures end-to-end single-job runs/sec on the standard campaign workload
// (the same {seed, template, protocol} sweep the fault campaign executes).
// This is the number the flat-hash container overhaul targets: every run
// pays the lock-manager, waits-for, conflict-tracker, and marking hot
// paths, so the sweep's wall clock is a faithful proxy for the per-run
// engine tax.
//
// The sweep fingerprint is printed (and embedded in the JSON) so a perf
// regression can never hide a behavior change: the fingerprint must equal
// the campaign CLI's for the same options, before and after any overhaul.
//
// Usage:
//   bench_hot_path [--runs N] [--repeat R] [--baseline RUNS_PER_SEC]
//
// `--baseline` embeds a pre-change measurement (same machine, same flags)
// in BENCH_hot_path.json so the JSON records both numbers and the speedup.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/fault_plan.h"
#include "campaign/runner.h"
#include "common/arena.h"
#include "common/string_util.h"
#include "exec/world_pool.h"
#include "metrics/table.h"

using namespace o2pc;

namespace {

campaign::CampaignOptions StandardWorkload(int runs) {
  campaign::CampaignOptions options;
  options.runs = runs;
  options.base_seed = 1;
  options.jobs = 1;  // single-job: this bench isolates per-run cost
  options.num_sites = 4;
  options.num_globals = 24;
  options.num_locals = 12;
  options.shrink_failures = false;
  return options;
}

/// The processor model from /proc/cpuinfo ("unknown" elsewhere), so the
/// JSON says what hardware its numbers came from.
std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  int runs = 50;
  int repeat = 3;
  double baseline_runs_per_sec = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (arg == flag && i + 1 < argc) return argv[++i];
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.c_str() + prefix.size();
      return nullptr;
    };
    if (const char* v = value("--runs")) runs = std::atoi(v);
    if (const char* v = value("--repeat")) repeat = std::atoi(v);
    if (const char* v = value("--baseline")) baseline_runs_per_sec = std::atof(v);
  }

  std::printf(
      "E9: per-run hot path — single-job campaign workload, %d runs x %d "
      "repeats\n\n",
      runs, repeat);

  std::vector<double> wall_ms;
  std::uint64_t fingerprint = 0;
  int runs_completed = 0;
  for (int r = 0; r < repeat; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const campaign::CampaignReport report =
        campaign::RunCampaign(StandardWorkload(runs));
    const auto end = std::chrono::steady_clock::now();
    wall_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    if (r == 0) {
      fingerprint = report.CombinedFingerprint();
      runs_completed = report.runs_completed;
    } else if (report.CombinedFingerprint() != fingerprint) {
      std::fprintf(stderr, "FATAL: fingerprint drift across repeats\n");
      return 1;
    }
  }

  // Second pass with telemetry collection on: same sweep, now also paying
  // the step observer, journal profiling, and coverage accounting. The
  // fingerprint must not move (telemetry is purely observational) and the
  // throughput tax is reported so a creeping observer cost is visible.
  std::vector<double> telemetry_wall_ms;
  for (int r = 0; r < repeat; ++r) {
    campaign::CampaignOptions options = StandardWorkload(runs);
    options.collect_telemetry = true;
    const auto start = std::chrono::steady_clock::now();
    const campaign::CampaignReport report = campaign::RunCampaign(options);
    const auto end = std::chrono::steady_clock::now();
    telemetry_wall_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    if (report.CombinedFingerprint() != fingerprint) {
      std::fprintf(stderr,
                   "FATAL: telemetry collection changed the sweep "
                   "fingerprint\n");
      return 1;
    }
  }

  // Allocation audit for the arena-reuse path, at the granularity the
  // steady-state gate (tests/arena_test.cc) pins: one RunOne inside a
  // recycled world. After warmup the armed run must touch the system heap
  // exactly zero times; any nonzero count here is a regression (a new
  // lazily-constructed static, a cache that stopped bypassing the arena).
  std::int64_t steady_heap_allocs = -1;  // -1 = unmeasurable in this build
  std::uint64_t steady_arena_allocs = 0;
  std::uint64_t steady_arena_bytes = 0;
  if (exec::WorldPool::Enabled() && common::HeapAllocCountingEnabled()) {
    campaign::CampaignRunConfig config;
    config.seed = 1;
    config.template_name = "mixed";
    config.plan = campaign::GeneratePlan("mixed", 1, config.num_sites);
    for (int warmup = 0; warmup < 3; ++warmup) {
      exec::WorldPool::ScopedRun scope;
      (void)campaign::RunOne(config);
    }
    exec::WorldPool::ScopedRun scope;
    (void)campaign::RunOne(config);
    steady_heap_allocs = static_cast<std::int64_t>(scope.heap_allocs());
    steady_arena_allocs = scope.arena_allocs();
    steady_arena_bytes = scope.arena_bytes();
  }

  // Best-of-repeats: the least-disturbed measurement of a deterministic
  // workload is the closest to the engine's true cost.
  const double best_ms = *std::min_element(wall_ms.begin(), wall_ms.end());
  const double runs_per_sec = runs_completed / (best_ms / 1000.0);
  const double telemetry_best_ms = *std::min_element(
      telemetry_wall_ms.begin(), telemetry_wall_ms.end());
  const double telemetry_runs_per_sec =
      runs_completed / (telemetry_best_ms / 1000.0);
  const double telemetry_overhead_pct =
      runs_per_sec > 0.0
          ? (1.0 - telemetry_runs_per_sec / runs_per_sec) * 100.0
          : 0.0;
  const double speedup = baseline_runs_per_sec > 0.0
                             ? runs_per_sec / baseline_runs_per_sec
                             : 0.0;

  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  metrics::TablePrinter table({"metric", "value"});
  table.AddRow({"runs/sec (best of repeats)", FormatDouble(runs_per_sec, 1)});
  table.AddRow({"wall ms (best)", FormatDouble(best_ms, 1)});
  table.AddRow({"runs/sec with telemetry",
                FormatDouble(telemetry_runs_per_sec, 1)});
  table.AddRow({"telemetry overhead %",
                FormatDouble(telemetry_overhead_pct, 1)});
  if (baseline_runs_per_sec > 0.0) {
    table.AddRow({"baseline runs/sec", FormatDouble(baseline_runs_per_sec, 1)});
    table.AddRow({"speedup", FormatDouble(speedup, 2)});
  }
  if (steady_heap_allocs >= 0) {
    table.AddRow({"steady-state heap allocs/run",
                  std::to_string(steady_heap_allocs)});
    table.AddRow({"steady-state arena allocs/run",
                  std::to_string(steady_arena_allocs)});
    table.AddRow({"steady-state arena MB/run",
                  FormatDouble(steady_arena_bytes / (1024.0 * 1024.0), 1)});
  }
  table.AddRow({"sweep fingerprint", hex});
  std::printf("%s\n", table.ToString().c_str());

  std::ofstream out("BENCH_hot_path.json");
  out << "{\n  \"runs\": " << runs_completed
      << ",\n  \"repeat\": " << repeat
      << ",\n  \"wall_ms_best\": " << best_ms
      << ",\n  \"runs_per_sec\": " << runs_per_sec
      << ",\n  \"telemetry_runs_per_sec\": " << telemetry_runs_per_sec
      << ",\n  \"telemetry_overhead_pct\": " << telemetry_overhead_pct
      << ",\n  \"baseline_runs_per_sec\": " << baseline_runs_per_sec
      << ",\n  \"speedup_vs_baseline\": " << speedup
      << ",\n  \"steady_state_heap_allocs_per_run\": " << steady_heap_allocs
      << ",\n  \"steady_state_arena_allocs_per_run\": " << steady_arena_allocs
      << ",\n  \"steady_state_arena_bytes_per_run\": " << steady_arena_bytes
      << ",\n  \"sweep_fingerprint\": \"" << hex << "\""
      << ",\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ",\n  \"cpu_model\": \"" << CpuModel() << "\"\n}\n";
  return 0;
}
