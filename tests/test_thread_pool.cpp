// Tests for the fan-out pool behind every fan-out of the program, and the
// process-wide shared_pool() they borrow.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace socl::util {
namespace {

using namespace std::chrono_literals;

/// Spins until `flag` reaches `value`.
void await(const std::atomic<int>& flag, int value) {
  while (flag.load() < value) std::this_thread::yield();
}

TEST(ThreadPool, ParallelForRunsTheTask) {
  ThreadPool pool(2);
  int result = 0;
  pool.parallel_for(1, [&](std::size_t) { result = 21 * 2; });
  EXPECT_EQ(result, 42);
}

TEST(ThreadPool, DefaultsToAtLeastOneLane) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
  // shared_pool() is one default pool, the same object on every call.
  EXPECT_EQ(&shared_pool(), &shared_pool());
  EXPECT_EQ(shared_pool().size(), pool.size());
}

TEST(ThreadPool, ManyFanOutsAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(3, [&](std::size_t) { ++counter; });
  }
  EXPECT_EQ(counter.load(), 600);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  for (const std::size_t lanes : {1u, 2u}) {
    ThreadPool pool(lanes);
    EXPECT_THROW(pool.parallel_for(
                     1, [](std::size_t) { throw std::runtime_error("boom"); }),
                 std::runtime_error);
  }
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIterations) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForRethrowsFirstError) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 17) {
                                     throw std::runtime_error("bad index");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
  ThreadPool pool(3);
  std::vector<long long> parts(1000, 0);
  pool.parallel_for(parts.size(), [&](std::size_t i) {
    parts[i] = static_cast<long long>(i);
  });
  const long long total = std::accumulate(parts.begin(), parts.end(), 0LL);
  EXPECT_EQ(total, 999LL * 1000 / 2);
}

#ifdef __linux__
std::size_t live_threads() {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator()));
}

TEST(ThreadPool, StartsOneThreadFewerThanLanes) {
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    const std::size_t before = live_threads();
    ThreadPool pool(lanes);
    EXPECT_EQ(pool.size(), lanes);
    EXPECT_EQ(live_threads() - before, lanes - 1) << "lanes " << lanes;
  }
}
#endif

TEST(ThreadPool, IterationsRunOnTheCallerAndAtMostSizeThreads) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  pool.parallel_for(64, [&](std::size_t) {
    std::this_thread::sleep_for(200us);
    std::scoped_lock lock(mutex);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_LE(seen.size(), pool.size());
  EXPECT_EQ(seen.count(std::this_thread::get_id()), 1u);
}

TEST(ThreadPool, OneLaneRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for_workers(64, [&](std::size_t worker, std::size_t i) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, WorkerSlotsStayBelowSizeAndNeverOverlap) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> busy(pool.size());
  std::atomic<int> overlaps{0};
  std::atomic<int> out_of_range{0};
  const auto caller = std::this_thread::get_id();
  std::atomic<int> caller_not_lane0{0};
  // max_lanes 0 means the whole pool; 9 is clamped to it.
  for (const std::size_t max_lanes : {0u, 1u, 2u, 3u, 9u}) {
    for (const std::size_t n : {2u, 3u, 200u}) {
      const std::size_t lanes = std::min(
          {n, pool.size(), max_lanes == 0 ? pool.size() : max_lanes});
      const auto body = [&](std::size_t worker, std::size_t) {
        if (worker >= lanes) {
          ++out_of_range;
          return;
        }
        if ((std::this_thread::get_id() == caller) != (worker == 0)) {
          ++caller_not_lane0;
        }
        if (busy[worker].exchange(1) != 0) ++overlaps;
        std::this_thread::sleep_for(50us);
        busy[worker].store(0);
      };
      pool.parallel_for_workers(n, body, max_lanes);
    }
  }
  EXPECT_EQ(out_of_range.load(), 0);
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(caller_not_lane0.load(), 0);
}

TEST(ThreadPool, NestedFanOutOnTheSamePoolCompletes) {
  // Two lanes, both held by outer iterations: each nested fan-out finds no
  // free worker and must complete on its calling thread.
  ThreadPool pool(2);
  std::atomic<int> outer_started{0};
  std::atomic<int> inner{0};
  pool.parallel_for(2, [&](std::size_t) {
    ++outer_started;
    await(outer_started, 2);
    pool.parallel_for(16, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { ++inner; });
    });
  });
  EXPECT_EQ(inner.load(), 2 * 16 * 4);
}

TEST(ThreadPool, CallerLaneErrorWaitsForClaimedIterations) {
  ThreadPool pool(2);
  std::atomic<int> helper_started{0};
  std::atomic<bool> helper_returned{false};
  EXPECT_THROW(
      pool.parallel_for_workers(2,
                                [&](std::size_t worker, std::size_t) {
                                  if (worker == 0) {
                                    await(helper_started, 1);
                                    throw std::runtime_error("caller lane");
                                  }
                                  ++helper_started;
                                  std::this_thread::sleep_for(50ms);
                                  helper_returned = true;
                                }),
      std::runtime_error);
  EXPECT_TRUE(helper_returned.load());
}

TEST(ThreadPool, HelperLaneErrorWaitsForClaimedIterations) {
  // Three lanes, three iterations held at a barrier so that each lane
  // claims one: helper 1 throws while helper 2 is still running.
  ThreadPool pool(3);
  std::atomic<int> started{0};
  std::atomic<bool> slow_returned{false};
  EXPECT_THROW(
      pool.parallel_for_workers(3,
                                [&](std::size_t worker, std::size_t) {
                                  ++started;
                                  await(started, 3);
                                  if (worker == 1) {
                                    throw std::runtime_error("helper lane");
                                  }
                                  if (worker == 2) {
                                    std::this_thread::sleep_for(50ms);
                                    slow_returned = true;
                                  }
                                }),
      std::runtime_error);
  EXPECT_TRUE(slow_returned.load());
}

}  // namespace
}  // namespace socl::util
