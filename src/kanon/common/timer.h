#ifndef KANON_COMMON_TIMER_H_
#define KANON_COMMON_TIMER_H_

#include <chrono>

namespace kanon {

/// Wall-clock stopwatch used by benches and examples.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace kanon

#endif  // KANON_COMMON_TIMER_H_
