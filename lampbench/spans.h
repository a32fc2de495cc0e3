#ifndef LAMPBENCH_SPANS_H
#define LAMPBENCH_SPANS_H

/// \file spans.h
/// In-memory span recorder for the benchmark's traced run. The traced
/// replay is single-threaded, so spans go into one flat vector without
/// locking. Every request gets a root span; every layer span recorded
/// while that request is open is its direct child and carries the same
/// request id. Span names are metric stems ("cut.enum", "lp.solve"); the
/// layer is the part before the dot. When the run ends the spans are
/// written once as Chrome trace JSON.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace lampbench {

/// Layers the breakdown attributes self time to. "bench" is the benchmark's
/// own glue: request-span time not covered by any layer span.
inline constexpr std::array<std::string_view, 10> kLayers = {
    "lp", "sched", "analyze", "cut", "map", "sim", "ir", "svc", "util",
    "bench"};

struct SpanRecord {
  std::string name;      ///< metric stem, e.g. "sched.sdc"; "request" for roots
  std::string function;  ///< public entry point the span timed
  std::int64_t request = 0;
  int parent = -1;       ///< index of the request root; -1 for roots
  double begin = 0.0;    ///< seconds since the recorder started
  double end = 0.0;

  double seconds() const { return end - begin; }
  std::string_view layer() const;
};

class Spans {
 public:
  Spans() : origin_(std::chrono::steady_clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Opens the root span of request `id` (`label` names it in the trace).
  void beginRequest(std::int64_t id, std::string label);
  void endRequest();

  /// Records a finished span [begin, end] under the open request.
  void add(std::string_view name, std::string_view function, double begin,
           double end);

  /// Runs `fn` inside a span under the open request and returns its value.
  template <class F>
  auto time(std::string_view name, std::string_view function, F&& fn) {
    const double t0 = now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      fn();
      add(name, function, t0, now());
    } else {
      auto result = fn();
      add(name, function, t0, now());
      return result;
    }
  }

  /// Summed duration of every span with this name.
  double total(std::string_view name) const;
  /// Self time per layer: each span's duration minus its children's.
  std::map<std::string, double, std::less<>> selfSeconds() const;
  /// Summed duration of the request root spans.
  double requestSeconds() const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool writeChromeTrace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> records_;
  int open_ = -1;  ///< index of the open request root
};

/// Runs `fn` in a span of `spans`, or untraced when `spans` is null.
template <class F>
auto timed(Spans* spans, std::string_view name, std::string_view function,
           F&& fn) {
  if (spans == nullptr) return fn();
  return spans->time(name, function, std::forward<F>(fn));
}

}  // namespace lampbench

#endif  // LAMPBENCH_SPANS_H
