#ifndef O2PC_EXEC_RUN_EXECUTOR_H_
#define O2PC_EXEC_RUN_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file
/// Self-scheduling thread-pool executor for independent simulation runs.
///
/// Campaign runs, bench repetitions, and soak iterations are embarrassingly
/// parallel: each run is a self-contained seeded `Simulator` with its own
/// system, trace recorder, and stats — no shared mutable state. The
/// `RunExecutor` fans a batch of such runs across cores and collects results
/// into **index-ordered slots**, so downstream aggregation (stats merges,
/// journal fingerprints, emitted JSON) is byte-identical to a serial sweep
/// for every thread count. Determinism is the contract: the executor decides
/// only *when and where* a run executes, never *what* it computes.
///
/// Scheduling: one atomic cursor per batch. A free worker claims the next
/// index with a single `fetch_add`, so a slow run delays only its own
/// worker, and the indices claimed so far are always a prefix of the batch:
/// the runs in flight are the earliest unfinished ones, which keeps
/// RunCampaign's in-order fold short.
///
/// An exception thrown by a task cancels the rest of the batch (no further
/// index is claimed; claimed ones finish) and is rethrown (the lowest-index
/// failure wins) from ParallelFor on the calling thread.

namespace o2pc::exec {

class RunExecutor {
 public:
  /// Creates a pool of `jobs` workers (including the calling thread when a
  /// batch runs). `jobs <= 0` uses HardwareJobs(). `jobs == 1` never spawns
  /// a thread and executes batches inline, in index order.
  explicit RunExecutor(int jobs = 0);
  ~RunExecutor();
  RunExecutor(const RunExecutor&) = delete;
  RunExecutor& operator=(const RunExecutor&) = delete;

  int jobs() const { return jobs_; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static int HardwareJobs();

  /// Raw std::thread::hardware_concurrency — 0 when the platform cannot
  /// report it. Bench JSON records this so a floor-of-1 fallback (e.g. a
  /// single-core CI box) is distinguishable from a measured value.
  static unsigned DetectedHardwareConcurrency();

  /// Runs `body(i)` exactly once for every i in [0, n), fanned across the
  /// pool; the calling thread participates. Indices are claimed in
  /// increasing order. Blocks until the batch drains. Not reentrant and
  /// single-caller: one batch at a time.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body);

  /// ParallelFor that collects `fn(i)` into slot i of the returned vector —
  /// the order is the index order, independent of execution interleaving.
  template <typename T, typename Fn>
  std::vector<T> Map(std::size_t n, Fn&& fn) {
    std::vector<T> out(n);
    ParallelFor(n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  /// One ParallelFor invocation in flight.
  struct Batch {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t total = 0;
    /// The next unclaimed index; at or past `total` the batch is drained
    /// (an error moves it there to cancel the rest).
    std::atomic<std::size_t> next{0};
    /// Workers currently inside WorkOn (batch memory must outlive them).
    int active_workers = 0;

    std::mutex error_mu;
    std::exception_ptr error;
    std::size_t error_index = 0;
  };

  void WorkerLoop();
  /// Claims and runs indices until the cursor passes the end.
  static void WorkOn(Batch* batch);

  int jobs_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: a batch arrived / shutdown
  std::condition_variable done_cv_;   // caller: every worker left the batch
  Batch* current_ = nullptr;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
};

}  // namespace o2pc::exec

#endif  // O2PC_EXEC_RUN_EXECUTOR_H_
