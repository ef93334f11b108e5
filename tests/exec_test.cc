// The parallel run executor and its determinism contract.
//
// Unit half: RunExecutor scheduling — index-ordered Map slots, every index
// exactly once, empty batches, more jobs than work, a slow index not
// holding back the rest, a cancelled batch having run a prefix, and
// exception propagation from a worker.
//
// Determinism half: the same campaign / experiment matrix executed at
// --jobs 1, 2, 4, and 8 must produce byte-identical artifacts — journal
// fingerprints, failure reports, --verbose lines, per-run ToJson() bytes,
// merged stats, and exported trace JSONL — and a time budget may only
// shorten the campaign's prefix of runs. This is the acceptance test for
// the whole parallel subsystem: the executor may change *when and where* a
// run executes, never *what* it computes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.h"
#include "exec/run_executor.h"
#include "harness/run_matrix.h"
#include "trace/export.h"
#include "trace/trace.h"

namespace o2pc {
namespace {

// ---------------------------------------------------------------------------
// RunExecutor unit tests.

TEST(RunExecutorTest, MapCollectsIntoIndexOrderedSlots) {
  exec::RunExecutor executor(4);
  const std::vector<int> out =
      executor.Map<int>(17, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 17u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(RunExecutorTest, EveryIndexRunsExactlyOnce) {
  exec::RunExecutor executor(8);
  constexpr std::size_t kN = 200;
  std::vector<std::atomic<int>> hits(kN);
  executor.ParallelFor(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(RunExecutorTest, EmptyBatchIsANoOp) {
  exec::RunExecutor executor(4);
  std::atomic<int> calls{0};
  executor.ParallelFor(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(executor.Map<int>(0, [](std::size_t) { return 1; }).empty());
}

TEST(RunExecutorTest, MoreJobsThanWork) {
  exec::RunExecutor executor(16);
  std::vector<std::atomic<int>> hits(3);
  executor.ParallelFor(3, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(RunExecutorTest, SerialExecutorRunsInIndexOrderInline) {
  exec::RunExecutor executor(1);
  EXPECT_EQ(executor.jobs(), 1);
  std::vector<std::size_t> order;
  executor.ParallelFor(10, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(RunExecutorTest, SlowIndexDoesNotHoldBackTheRest) {
  // Index 0 keeps its thread busy for 200 ms; the other thread must run
  // every remaining index meanwhile instead of idling behind it.
  exec::RunExecutor executor(2);
  constexpr std::size_t kN = 40;
  std::vector<std::atomic<int>> hits(kN);
  std::vector<std::thread::id> ran_on(kN);
  executor.ParallelFor(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    ran_on[i] = std::this_thread::get_id();
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(200));
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    if (i > 0) {
      EXPECT_NE(ran_on[i], ran_on[0]) << "index " << i;
    }
  }
}

TEST(RunExecutorTest, CancelledBatchRanAPrefix) {
  // Indices are claimed in order and every claimed index runs, so a batch
  // cancelled by a throw at k has run all of [0, k) exactly once: what a
  // cancellation cuts short is always a suffix.
  exec::RunExecutor executor(4);
  constexpr std::size_t kN = 200;
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{13},
                              std::size_t{50}, std::size_t{150}, kN - 1}) {
    std::vector<std::atomic<int>> hits(kN);
    EXPECT_THROW(executor.ParallelFor(
                     kN,
                     [&](std::size_t i) {
                       hits[i].fetch_add(1, std::memory_order_relaxed);
                       if (i == k) throw std::runtime_error("cancel");
                       std::this_thread::sleep_for(
                           std::chrono::microseconds(100));
                     }),
                 std::runtime_error)
        << "k=" << k;
    for (std::size_t i = 0; i < kN; ++i) {
      if (i <= k) {
        EXPECT_EQ(hits[i].load(), 1) << "k=" << k << " index " << i;
      } else {
        EXPECT_LE(hits[i].load(), 1) << "k=" << k << " index " << i;
      }
    }
  }
}

TEST(RunExecutorTest, WorkerExceptionPropagatesToCaller) {
  exec::RunExecutor executor(4);
  EXPECT_THROW(
      executor.ParallelFor(64,
                           [](std::size_t i) {
                             if (i == 13) throw std::runtime_error("boom 13");
                           }),
      std::runtime_error);
  // The pool survives the failed batch and runs the next one normally.
  std::atomic<int> calls{0};
  executor.ParallelFor(8, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
}

TEST(RunExecutorTest, LowestIndexErrorWins) {
  exec::RunExecutor executor(1);  // serial: deterministic first failure
  try {
    executor.ParallelFor(16, [](std::size_t i) {
      if (i == 3 || i == 9) {
        throw std::runtime_error("fail " + std::to_string(i));
      }
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fail 3");
  }
}

TEST(JobsFromArgsTest, ParsesEveryFlagSpelling) {
  auto parse = [](std::vector<const char*> argv) {
    return harness::JobsFromArgs(static_cast<int>(argv.size()),
                                 const_cast<char**>(argv.data()));
  };
  EXPECT_EQ(parse({"bench"}), 1);
  EXPECT_EQ(parse({"bench", "--jobs", "4"}), 4);
  EXPECT_EQ(parse({"bench", "--jobs=8"}), 8);
  EXPECT_EQ(parse({"bench", "-j", "2"}), 2);
  EXPECT_EQ(parse({"bench", "-j6"}), 6);
  EXPECT_EQ(parse({"bench", "--other", "--jobs=3"}), 3);
  // 0 = one job per hardware thread.
  EXPECT_EQ(parse({"bench", "--jobs", "0"}), exec::RunExecutor::HardwareJobs());
}

// ---------------------------------------------------------------------------
// Determinism: identical artifacts for every job count.

campaign::CampaignOptions SmallCampaign(int jobs) {
  campaign::CampaignOptions options;
  options.runs = 12;
  options.base_seed = 77;
  options.jobs = jobs;
  options.num_sites = 3;
  options.num_globals = 12;
  options.num_locals = 6;
  options.shrink_failures = false;
  return options;
}

TEST(ParallelDeterminismTest, CampaignFingerprintsIdenticalAcrossJobCounts) {
  const campaign::CampaignReport serial =
      campaign::RunCampaign(SmallCampaign(1));
  ASSERT_EQ(serial.runs_completed, 12);
  ASSERT_EQ(serial.fingerprints.size(), 12u);

  for (int jobs : {2, 4, 8}) {
    const campaign::CampaignReport parallel =
        campaign::RunCampaign(SmallCampaign(jobs));
    EXPECT_EQ(parallel.runs_completed, serial.runs_completed) << jobs;
    EXPECT_EQ(parallel.runs_failed, serial.runs_failed) << jobs;
    EXPECT_EQ(parallel.total_faults_triggered, serial.total_faults_triggered)
        << jobs;
    // The journals themselves, run by run, in sweep order.
    EXPECT_EQ(parallel.fingerprints, serial.fingerprints) << jobs;
    EXPECT_EQ(parallel.CombinedFingerprint(), serial.CombinedFingerprint())
        << jobs;
  }
}

TEST(ParallelDeterminismTest, VerboseLinesIdenticalAcrossJobCounts) {
  // The campaign prints its per-run lines from the in-order fold, on
  // whichever worker folds: one line per run, in sweep order.
  auto verbose_output = [](int jobs) {
    struct CerrCapture {
      std::ostringstream out;
      std::streambuf* saved = std::cerr.rdbuf(out.rdbuf());
      ~CerrCapture() { std::cerr.rdbuf(saved); }
    } capture;
    campaign::RunCampaign(SmallCampaign(jobs), /*verbose=*/true);
    return capture.out.str();
  };
  const std::string serial = verbose_output(1);
  EXPECT_EQ(serial.rfind("[campaign] run 0 ", 0), 0u) << serial;
  EXPECT_NE(serial.find("\n[campaign] run 11 "), std::string::npos) << serial;
  for (int jobs : {4, 8}) EXPECT_EQ(verbose_output(jobs), serial) << jobs;
}

TEST(ParallelDeterminismTest, FailureReportsIdenticalAcrossJobCounts) {
  // One cycle of every template under both protocols at base seed 29, with
  // shrinking on: the failure path (fold, shrink, report) must not depend
  // on the job count. The O2PC `partitions` run is an open oracle failure
  // (`sg: regular cycle: T27 -> CT23 -> T42 -> T27`, shrunk to 2 events).
  // Once that is fixed, re-point base_seed at another open failure seed
  // (ROADMAP lists them) so this test keeps a failure to compare.
  auto sweep = [](int jobs) {
    campaign::CampaignOptions options;
    options.runs = 28;
    options.base_seed = 29;
    options.jobs = jobs;
    return campaign::RunCampaign(options);
  };
  const campaign::CampaignReport serial = sweep(1);
  ASSERT_EQ(serial.runs_completed, 28);
  ASSERT_GE(serial.runs_failed, 1);
  ASSERT_EQ(serial.failures.size(),
            static_cast<std::size_t>(serial.runs_failed));
  const bool seed29_partitions_fails = std::any_of(
      serial.failures.begin(), serial.failures.end(),
      [](const campaign::CampaignFailure& failure) {
        return failure.config.seed == 29 &&
               failure.config.template_name == "partitions" &&
               failure.config.protocol == core::CommitProtocol::kOptimistic;
      });
  EXPECT_TRUE(seed29_partitions_fails);

  for (int jobs : {2, 4, 8}) {
    const campaign::CampaignReport parallel = sweep(jobs);
    EXPECT_EQ(parallel.runs_completed, serial.runs_completed) << jobs;
    EXPECT_EQ(parallel.fingerprints, serial.fingerprints) << jobs;
    EXPECT_EQ(parallel.runs_failed, serial.runs_failed) << jobs;
    ASSERT_EQ(parallel.failures.size(), serial.failures.size()) << jobs;
    for (std::size_t f = 0; f < serial.failures.size(); ++f) {
      const campaign::CampaignFailure& want = serial.failures[f];
      const campaign::CampaignFailure& got = parallel.failures[f];
      EXPECT_EQ(got.config.seed, want.config.seed) << jobs;
      EXPECT_EQ(got.config.template_name, want.config.template_name) << jobs;
      EXPECT_EQ(got.config.protocol, want.config.protocol) << jobs;
      EXPECT_EQ(got.oracle.violations, want.oracle.violations) << jobs;
      EXPECT_EQ(got.shrunk_plan.ToString(), want.shrunk_plan.ToString())
          << jobs;
    }
  }
}

// ---------------------------------------------------------------------------
// The wall-clock budget: the one input that depends on timing. It may only
// decide how long a prefix of the sweep is reported.

TEST(CampaignBudgetTest, SpentBudgetCompletesNoRuns) {
  for (int jobs : {1, 4}) {
    campaign::CampaignOptions options = SmallCampaign(jobs);
    options.time_budget_seconds = 1e-9;
    const campaign::CampaignReport report = campaign::RunCampaign(options);
    EXPECT_EQ(report.runs_completed, 0) << jobs;
    EXPECT_TRUE(report.budget_exhausted) << jobs;
    EXPECT_TRUE(report.fingerprints.empty()) << jobs;
  }
}

TEST(CampaignBudgetTest, BudgetCutsAPrefixOfTheUnbudgetedSweep) {
  campaign::CampaignOptions options = SmallCampaign(4);
  options.runs = 200;
  const campaign::CampaignReport full = campaign::RunCampaign(options);
  ASSERT_EQ(full.runs_completed, 200);
  ASSERT_FALSE(full.budget_exhausted);

  for (int jobs : {1, 4}) {
    options.jobs = jobs;
    options.time_budget_seconds = 0.03;
    const campaign::CampaignReport cut = campaign::RunCampaign(options);
    // How many runs fit is up to the host; what they are is not.
    EXPECT_EQ(cut.budget_exhausted, cut.runs_completed < options.runs)
        << jobs;
    ASSERT_EQ(cut.fingerprints.size(),
              static_cast<std::size_t>(cut.runs_completed))
        << jobs;
    const std::vector<std::uint64_t> prefix(
        full.fingerprints.begin(),
        full.fingerprints.begin() + cut.runs_completed);
    EXPECT_EQ(cut.fingerprints, prefix) << jobs;
  }
}

harness::ExperimentConfig SmallExperiment(std::uint64_t seed,
                                          core::CommitProtocol protocol) {
  harness::ExperimentConfig config;
  config.label = "run";
  config.system.num_sites = 3;
  config.system.keys_per_site = 32;
  config.system.seed = seed;
  config.system.protocol.protocol = protocol;
  config.workload.num_global_txns = 20;
  config.workload.num_local_txns = 10;
  config.workload.min_sites_per_txn = 2;
  config.workload.max_sites_per_txn = 2;
  config.workload.vote_abort_probability = 0.1;
  config.workload.seed = seed * 31 + 1;
  config.analyze = true;
  return config;
}

std::vector<harness::RunResult> RunSmallMatrix(int jobs) {
  harness::RunMatrix matrix(jobs);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    matrix.Add(SmallExperiment(seed, core::CommitProtocol::kOptimistic));
    matrix.Add(SmallExperiment(seed, core::CommitProtocol::kTwoPhaseCommit));
  }
  return matrix.RunAll();
}

TEST(ParallelDeterminismTest, RunMatrixJsonBytesIdenticalAcrossJobCounts) {
  const std::vector<harness::RunResult> serial = RunSmallMatrix(1);
  ASSERT_EQ(serial.size(), 6u);
  for (int jobs : {2, 8}) {
    const std::vector<harness::RunResult> parallel = RunSmallMatrix(jobs);
    ASSERT_EQ(parallel.size(), serial.size()) << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Byte-for-byte: every metric the bench JSON artifacts are built from.
      EXPECT_EQ(parallel[i].ToJson(), serial[i].ToJson())
          << "jobs=" << jobs << " run=" << i;
    }
  }
}

TEST(ParallelDeterminismTest, TraceJournalsIdenticalWhenRunsShareAPool) {
  // Each parallel run installs its own recorder via the thread-local active
  // slot; the exported JSONL must match a serial run of the same config.
  auto run_with_jobs = [](int jobs) {
    std::vector<trace::TraceRecorder> recorders(4);
    harness::RunMatrix matrix(jobs);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      harness::ExperimentConfig config =
          SmallExperiment(seed, core::CommitProtocol::kOptimistic);
      config.recorder = &recorders[seed - 1];
      matrix.Add(config);
    }
    matrix.RunAll();
    std::vector<std::string> journals;
    for (const trace::TraceRecorder& recorder : recorders) {
      std::ostringstream out;
      trace::ExportJsonl(recorder.events(), out);
      journals.push_back(out.str());
    }
    return journals;
  };
  const std::vector<std::string> serial = run_with_jobs(1);
  const std::vector<std::string> parallel = run_with_jobs(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
#ifndef O2PC_TRACE_DISABLED
    EXPECT_GT(serial[i].size(), 0u) << i;
#endif
    EXPECT_EQ(serial[i], parallel[i]) << "journal " << i;
  }
}

}  // namespace
}  // namespace o2pc
