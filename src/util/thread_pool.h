// The worker pool behind every fan-out: the combination stage (Algorithm 3),
// candidate scoring, the dense basin, the shard fan-out, the serving data
// plane and the testbed borrow shared_pool(), each capped at its `threads`.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace socl::util {

/// A pool of size() lanes: the calling thread plus size() - 1 workers.
///
/// A fan-out runs lane 0 on the thread that calls it. Its helper lanes are
/// plain queue entries that idle workers pick up, and every lane pulls
/// indices from one shared counter. The caller waits only for helpers that
/// claimed an index (a short spin, then a condition variable) and withdraws
/// the lanes no worker took, so it never sleeps on a worker that is busy
/// elsewhere. A fan-out called from inside an iteration (on this pool or
/// another) therefore always completes, at worst on its calling thread
/// alone.
class ThreadPool {
 public:
  /// A pool of `lanes` lanes, which starts lanes - 1 worker threads
  /// (0 = hardware concurrency, min 1; one lane runs every fan-out inline).
  explicit ThreadPool(std::size_t lanes = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Lanes, the caller's included: the widest fan-out this pool runs.
  std::size_t size() const { return workers_.size() + 1; }

  /// Runs fn(i) for i in [0, n) on at most `max_lanes` lanes (0 = all of
  /// size(); a wider cap is clamped to size()), returning once every
  /// iteration has. The first exception an iteration throws is rethrown
  /// after every iteration that had started returns; no lane starts a new
  /// one after it.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t max_lanes = 0);

  /// Like parallel_for, but passes the lane (0 <= worker < min(n,
  /// max_lanes, size()); 0 is the calling thread) running the iteration, so
  /// callers can keep per-lane scratch state without locking. Within one
  /// call a lane never runs two iterations concurrently; lanes of different
  /// calls (nested or concurrent) are independent and may share numbers.
  void parallel_for_workers(
      std::size_t n,
      const std::function<void(std::size_t worker, std::size_t i)>& fn,
      std::size_t max_lanes = 0);

 private:
  struct Job;

  void worker_loop();

  /// Guards jobs_ and stopping_; workers wait on cv_ for either to change.
  std::mutex mutex_;
  std::condition_variable cv_;
  /// Fan-outs with helper lanes still on offer.
  std::deque<Job*> jobs_;
  bool stopping_ = false;
  /// Where callers sleep once their spin gives up. Helpers leave a fan-out
  /// under done_mutex_, and the last one notifies. Pool-owned, so that
  /// helper never touches a fan-out its caller may already have returned
  /// from.
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

/// The process's one pool, one lane per hardware thread, built on first use
/// and the same object on every call. Every fan-out in src/ runs on it; a
/// fan-out's `threads` setting is its max_lanes.
ThreadPool& shared_pool();

}  // namespace socl::util
