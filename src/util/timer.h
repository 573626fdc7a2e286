// Wall-clock timing for the runtime comparisons (Fig. 2, Fig. 7 (b)/(d)).
#pragma once

#include <chrono>

namespace socl::util {

/// Monotonic wall timer; starts on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace socl::util
