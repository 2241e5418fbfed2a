#include "util/thread_pool.h"

namespace fats {

ThreadPool::ThreadPool(int64_t num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  if (num_threads_ <= 1) return;
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int64_t w = 0; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ParallelFor(
    int64_t n, const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1) {
    // Serial engine of record: the same tasks, in index order, inline.
    for (int64_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    batch_size_ = n;
    next_index_ = 0;
    completed_ = 0;
    ++epoch_;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return completed_ == batch_size_; });
  fn_ = nullptr;
}

void ThreadPool::WorkerLoop(int64_t worker) {
  uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [&] { return shutdown_ || epoch_ != seen_epoch; });
    if (shutdown_) return;
    seen_epoch = epoch_;
    while (next_index_ < batch_size_) {
      const int64_t index = next_index_++;
      const std::function<void(int64_t, int64_t)>* fn = fn_;
      lock.unlock();
      (*fn)(index, worker);
      lock.lock();
      if (++completed_ == batch_size_) done_cv_.notify_all();
    }
  }
}

}  // namespace fats
