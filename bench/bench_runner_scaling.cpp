// E8 — parallel run-executor scaling, its ceiling, and the determinism
// cross-check.
//
// Runs the same fault-campaign matrix at --jobs 1, 2, 4, 8 and reports
// wall-clock time, speedup over serial, and the sweep fingerprint of each
// configuration. The fingerprints MUST be identical — the executor's
// contract is that thread count changes only *when* a run executes, never
// *what* it computes — and the binary exits nonzero if they diverge, so the
// bench doubles as a determinism gate.
//
// Speedup alone does not say how good the executor is: a host's cores may
// deliver less than their count (shared caches, memory bandwidth, a
// container's CPU quota). So for each jobs value N the bench also measures
// the machine's own ceiling — the jobs=1 matrix run as N concurrent child
// processes of this one (fork, no exec), which share nothing in user
// space — and reports `ceiling_speedup` (N processes' throughput over one
// process's) and `fraction_of_ceiling` (the jobs=N sweep's throughput over
// the N processes'). The fraction equals speedup / ceiling_speedup when a
// jobs=1 sweep and one child take equally long, but is taken straight from
// the two jobs=N measurements, so the noise of the jobs=1 points does not
// enter it. Each child also checks its sweep fingerprint against the
// in-process one. Every point is the best of kRepeats interleaved
// measurements.
//
// The emitted BENCH_runner_scaling.json records hardware_concurrency so a
// single-core container's ~1.0x is distinguishable from a real multi-core
// result.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include "campaign/runner.h"
#include "common/string_util.h"
#include "exec/run_executor.h"
#include "metrics/table.h"

using namespace o2pc;

namespace {

constexpr int kJobs[] = {1, 2, 4, 8};
constexpr int kRepeats = 3;

campaign::CampaignOptions Matrix(int jobs) {
  campaign::CampaignOptions options;
  options.runs = 48;
  options.base_seed = 2026;
  options.jobs = jobs;
  options.num_sites = 4;
  options.num_globals = 24;
  options.num_locals = 12;
  options.shrink_failures = false;
  return options;
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Wall time of `processes` concurrent children, each running the jobs=1
/// matrix; false when a child's fingerprint differs from `fingerprint` or
/// it dies. The caller must be single-threaded (every RunCampaign has
/// joined its workers by the time it returns).
bool CeilingWallMs(int processes, std::uint64_t fingerprint, double* wall_ms) {
  std::fflush(nullptr);  // children must not re-flush inherited buffers
  const auto start = std::chrono::steady_clock::now();
  std::vector<pid_t> children;
  for (int p = 0; p < processes; ++p) {
    const pid_t pid = fork();
    if (pid == 0) {
      // The children's log lines would repeat the parent's N times over.
      const int null_fd = open("/dev/null", O_WRONLY);
      if (null_fd >= 0) dup2(null_fd, STDERR_FILENO);
      const bool same =
          campaign::RunCampaign(Matrix(1)).CombinedFingerprint() ==
          fingerprint;
      _exit(same ? 0 : 1);
    }
    if (pid < 0) {
      std::perror("fork");
      break;
    }
    children.push_back(pid);
  }
  bool ok = static_cast<int>(children.size()) == processes;
  for (const pid_t pid : children) {
    int status = 0;
    ok = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0 && ok;
  }
  *wall_ms = MillisSince(start);
  return ok;
}

struct Point {
  int jobs = 1;
  double wall_ms = std::numeric_limits<double>::infinity();
  double ceiling_wall_ms = std::numeric_limits<double>::infinity();
  double speedup = 1.0;
  double ceiling_speedup = 1.0;
  double fraction_of_ceiling = 1.0;
  std::uint64_t fingerprint = 0;
  int runs_completed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  const int hardware = exec::RunExecutor::HardwareJobs();
  const unsigned detected = exec::RunExecutor::DetectedHardwareConcurrency();
  // On a single-core (or unreported-topology) machine the speedup column
  // is meaningless — flag the result so downstream consumers don't read a
  // ~1.0x as an executor regression.
  const bool unmeasured = detected <= 1;
  std::printf(
      "E8: run-executor scaling on the fault-campaign matrix (48 runs), "
      "against N concurrent jobs=1 processes (best of %d)\n"
      "hardware threads: %d (detected: %u%s) — fingerprints must not "
      "change at all\n\n",
      kRepeats, hardware, detected,
      unmeasured ? ", speedup unmeasured on this machine" : "");

  std::vector<Point> points;
  for (int jobs : kJobs) {
    Point point;
    point.jobs = jobs;
    points.push_back(point);
  }
  bool deterministic = true;
  // Interleaved, so host drift over the bench's lifetime hits every point
  // and both of its measurements alike.
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    for (Point& point : points) {
      const auto start = std::chrono::steady_clock::now();
      const campaign::CampaignReport report =
          campaign::RunCampaign(Matrix(point.jobs));
      point.wall_ms = std::min(point.wall_ms, MillisSince(start));
      point.fingerprint = report.CombinedFingerprint();
      point.runs_completed = report.runs_completed;
      deterministic =
          deterministic && point.fingerprint == points.front().fingerprint &&
          point.runs_completed == points.front().runs_completed;

      double ceiling_ms = 0;
      deterministic = CeilingWallMs(point.jobs, points.front().fingerprint,
                                    &ceiling_ms) &&
                      deterministic;
      point.ceiling_wall_ms = std::min(point.ceiling_wall_ms, ceiling_ms);
    }
  }
  for (Point& point : points) {
    point.speedup = points.front().wall_ms / std::max(0.001, point.wall_ms);
    point.ceiling_speedup = point.jobs * points.front().ceiling_wall_ms /
                            std::max(0.001, point.ceiling_wall_ms);
    point.fraction_of_ceiling =
        point.ceiling_wall_ms / (point.jobs * std::max(0.001, point.wall_ms));
  }

  metrics::TablePrinter table({"jobs", "wall ms", "speedup", "ceiling ms",
                               "ceiling speedup", "of ceiling",
                               "sweep fingerprint"});
  char hex[32];
  for (const Point& point : points) {
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(point.fingerprint));
    table.AddRow({std::to_string(point.jobs), FormatDouble(point.wall_ms, 1),
                  FormatDouble(point.speedup, 2),
                  FormatDouble(point.ceiling_wall_ms, 1),
                  FormatDouble(point.ceiling_speedup, 2),
                  FormatDouble(point.fraction_of_ceiling, 2), hex});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("determinism: %s\n",
              deterministic ? "ok (all fingerprints identical)"
                            : "VIOLATED — fingerprints differ across jobs "
                              "or processes");

  std::ofstream out("BENCH_runner_scaling.json");
  out << "{\n  \"hardware_concurrency\": " << detected
      << ",\n  \"hardware_jobs\": " << hardware
      << ",\n  \"unmeasured\": " << (unmeasured ? "true" : "false")
      << ",\n  \"campaign_runs\": " << points.front().runs_completed
      << ",\n  \"repeats\": " << kRepeats
      << ",\n  \"deterministic\": " << (deterministic ? "true" : "false")
      << ",\n  \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& point = points[i];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(point.fingerprint));
    out << (i ? "," : "") << "\n    {\"jobs\": " << point.jobs
        << ", \"wall_ms\": " << point.wall_ms
        << ", \"speedup\": " << point.speedup
        << ", \"ceiling_wall_ms\": " << point.ceiling_wall_ms
        << ", \"ceiling_speedup\": " << point.ceiling_speedup
        << ", \"fraction_of_ceiling\": " << point.fraction_of_ceiling
        << ", \"fingerprint\": \"" << hex << "\"}";
  }
  out << "\n  ]\n}\n";
  return deterministic ? 0 : 1;
}
