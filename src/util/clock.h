#ifndef RESCQ_UTIL_CLOCK_H_
#define RESCQ_UTIL_CLOCK_H_

// Monotonic time for latencies and idle accounting. steady_clock, so a
// wall-clock adjustment can neither distort a latency nor make a hot
// session look idle.

#include <chrono>
#include <cstdint>

namespace rescq {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`.
inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Monotonic milliseconds since an arbitrary fixed origin.
inline int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace rescq

#endif  // RESCQ_UTIL_CLOCK_H_
