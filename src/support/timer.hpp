#pragma once

#include <chrono>
#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#define DPART_HAS_THREAD_CPUTIME 1
#endif

namespace dpart {

/// Monotonic wall-clock stopwatch used for the Table 1 compile-time
/// breakdown and the benchmark drivers.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds since construction.
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Microseconds on the same monotonic clock as Timer, from its arbitrary
/// epoch: for deadlines, heartbeats and latencies that cross function calls.
inline std::uint64_t monotonicMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-thread CPU-time stopwatch: counts only cycles the *calling thread*
/// actually executed, so a task's cost reads the same whether the thread
/// pool is oversubscribed or each task has a core to itself. This is the
/// clock the adaptive repartitioner attributes per-piece work with — on a
/// distributed machine each piece runs on its own node, so per-thread CPU
/// seconds here project to per-node wall seconds there, while wall time on
/// an oversubscribed pool would measure scheduler time-slicing instead of
/// work. Falls back to wall time where the POSIX clock is unavailable.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  /// CPU seconds this thread consumed since construction.
  [[nodiscard]] double seconds() const { return now() - start_; }

 private:
  static double now() {
#ifdef DPART_HAS_THREAD_CPUTIME
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
      return static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  double start_;
};

}  // namespace dpart
