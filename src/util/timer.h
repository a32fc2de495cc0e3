#ifndef LAMP_UTIL_TIMER_H
#define LAMP_UTIL_TIMER_H

/// \file timer.h
/// Wall-clock helpers shared by the solver, flows and benches, replacing
/// the per-file steady_clock boilerplate.

#include <chrono>

namespace lamp::util {

/// Running stopwatch; starts at construction.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Adds the elapsed wall time to `*out` when the scope closes.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* out) : out_(out) {}
  ~ScopedTimer() {
    if (out_ != nullptr) *out_ += watch_.seconds();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double seconds() const { return watch_.seconds(); }

 private:
  double* out_;
  Stopwatch watch_;
};

}  // namespace lamp::util

#endif  // LAMP_UTIL_TIMER_H
