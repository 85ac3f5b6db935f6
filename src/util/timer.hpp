// Monotonic wall-clock timer for examples, tests and ad-hoc measurements;
// bench_paper's timing helper (best_seconds) takes its best of N from it.
#pragma once

#include <chrono>

namespace mmdiag {

class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace mmdiag
