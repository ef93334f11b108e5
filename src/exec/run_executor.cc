#include "exec/run_executor.h"

#include "common/logging.h"

namespace o2pc::exec {

int RunExecutor::HardwareJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

unsigned RunExecutor::DetectedHardwareConcurrency() {
  return std::thread::hardware_concurrency();
}

RunExecutor::RunExecutor(int jobs) {
  jobs_ = jobs <= 0 ? HardwareJobs() : jobs;
  // The calling thread works every batch too, so jobs_ == 1 stays
  // threadless.
  threads_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int i = 1; i < jobs_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

RunExecutor::~RunExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void RunExecutor::WorkerLoop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (generation_ != seen_generation &&
                             current_ != nullptr);
      });
      if (shutdown_) return;
      seen_generation = generation_;
      batch = current_;
      ++batch->active_workers;
    }
    WorkOn(batch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --batch->active_workers;
    }
    done_cv_.notify_all();
  }
}

void RunExecutor::ParallelFor(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (jobs_ == 1 || n == 1) {
    // Serial reference path: exactly the pre-executor behavior.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  Batch batch;
  batch.body = &body;
  batch.total = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    O2PC_CHECK(current_ == nullptr) << "ParallelFor is not reentrant";
    current_ = &batch;
    ++generation_;
  }
  work_cv_.notify_all();

  WorkOn(&batch);

  // The cursor is past the end, so every claimed index belongs to a worker
  // still counted in active_workers; once none is left the batch is done.
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return batch.active_workers == 0; });
    current_ = nullptr;
  }

  if (batch.error) {
    std::rethrow_exception(batch.error);
  }
}

void RunExecutor::WorkOn(Batch* batch) {
  for (;;) {
    const std::size_t index =
        batch->next.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch->total) return;
    try {
      (*batch->body)(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch->error_mu);
      if (!batch->error || index < batch->error_index) {
        batch->error = std::current_exception();
        batch->error_index = index;
      }
      batch->next.store(batch->total, std::memory_order_relaxed);
    }
  }
}

}  // namespace o2pc::exec
