#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace socl::util {

/// One parallel_for call, on its caller's stack. Lane 0 is the caller;
/// helper lanes 1..helpers are handed to workers under the pool mutex.
struct ThreadPool::Job {
  Job(const std::function<void(std::size_t, std::size_t)>& body,
      std::size_t count, std::size_t helper_lanes)
      : fn(body), n(count), helpers(helper_lanes) {}

  /// Runs iterations on `lane` from the already claimed index `i` until the
  /// counter runs out or some lane has failed.
  void run(std::size_t lane, std::size_t i) {
    try {
      for (; i < n && !failed.load(std::memory_order_relaxed);
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(lane, i);
      }
    } catch (...) {
      if (!failed.exchange(true)) error = std::current_exception();
    }
  }

  const std::function<void(std::size_t, std::size_t)>& fn;
  const std::size_t n;
  const std::size_t helpers;
  std::size_t handed_out = 0;  ///< helper lanes taken (pool mutex)
  std::atomic<std::size_t> next{0};
  /// Helpers that claimed an index and have not yet left the fan-out.
  std::atomic<std::size_t> running{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  ///< written once, by the lane that set failed
};

namespace {

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Spin iterations a caller waits for its helpers before it sleeps: a helper
/// that claimed the last indices usually returns within a few microseconds.
constexpr int kSpin = 2048;

}  // namespace

ThreadPool::ThreadPool(std::size_t lanes) {
  if (lanes == 0) {
    lanes = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(lanes - 1);
  for (std::size_t i = 1; i < lanes; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
    if (jobs_.empty()) return;  // stopping_ with nothing on offer
    Job& job = *jobs_.front();
    const std::size_t lane = ++job.handed_out;
    // The first index is claimed under the mutex, so a caller that has
    // withdrawn its job sees every helper that will ever touch it.
    const std::size_t first = job.next.fetch_add(1, std::memory_order_relaxed);
    if (lane == job.helpers || first >= job.n) jobs_.pop_front();
    if (first >= job.n) continue;  // nothing left: the lane retires unclaimed
    job.running.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    job.run(lane, first);
    bool last = false;
    {
      // Last touch of `job`: once running reads 0 its caller may return.
      std::scoped_lock done(done_mutex_);
      last = job.running.fetch_sub(1, std::memory_order_acq_rel) == 1;
    }
    if (last) done_cv_.notify_all();
    lock.lock();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_lanes) {
  parallel_for_workers(
      n, [&fn](std::size_t, std::size_t i) { fn(i); }, max_lanes);
}

void ThreadPool::parallel_for_workers(
    std::size_t n,
    const std::function<void(std::size_t worker, std::size_t i)>& fn,
    std::size_t max_lanes) {
  const std::size_t cap = max_lanes == 0 ? size() : max_lanes;
  const std::size_t helpers = n == 0 ? 0 : std::min({n, size(), cap}) - 1;
  if (helpers == 0) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  Job job(fn, n, helpers);
  {
    std::scoped_lock lock(mutex_);
    jobs_.push_back(&job);
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  job.run(0, job.next.fetch_add(1, std::memory_order_relaxed));
  {
    std::scoped_lock lock(mutex_);
    const auto queued = std::find(jobs_.begin(), jobs_.end(), &job);
    if (queued != jobs_.end()) jobs_.erase(queued);
  }
  for (int spin = 0;
       spin < kSpin && job.running.load(std::memory_order_acquire) != 0;
       ++spin) {
    cpu_relax();
  }
  if (job.running.load(std::memory_order_acquire) != 0) {
    std::unique_lock lock(done_mutex_);
    done_cv_.wait(lock, [&job] {
      return job.running.load(std::memory_order_acquire) == 0;
    });
  }
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& shared_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace socl::util
