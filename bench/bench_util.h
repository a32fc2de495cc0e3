#ifndef LAMP_BENCH_BENCH_UTIL_H
#define LAMP_BENCH_BENCH_UTIL_H

/// \file bench_util.h
/// Shared option handling for the paper-reproduction bench binaries.
/// Environment knobs (all optional):
///   LAMP_SCALE=paper        paper-scale benchmark instances
///   LAMP_TIME_LIMIT=<sec>   MILP wall-clock cap per instance
///   LAMP_FILTER=CLZ,RS      restrict to a comma-separated benchmark list
///   LAMP_CSV=1              CSV instead of aligned tables
///   LAMP_JOBS=<n>           concurrent (benchmark x method) flow jobs
///                           (default: one per hardware thread, capped)
///   LAMP_THREADS=<n>        branch & bound threads per MILP solve when
///                           jobs run one at a time (0 = auto)
/// The numeric knobs are checked like the flags they mirror; a bad value
/// exits 2.
///
/// All timing in bench/ goes through util::Stopwatch — no bench binary
/// should touch std::chrono directly.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "flow/flow.h"
#include "flow/flow_json.h"
#include "util/parse.h"
#include "util/timer.h"
#include "workloads/workloads.h"

namespace lamp::bench {

inline workloads::Scale envScale() {
  const char* s = std::getenv("LAMP_SCALE");
  return (s != nullptr && std::string(s) == "paper") ? workloads::Scale::Paper
                                                     : workloads::Scale::Default;
}

/// Environment variable `var` as a T, or `fallback` when unset. The text
/// must parse whole (util::parseValue) to a finite value inside the range
/// the option table gives the flow option `key`; anything else exits 2
/// with "bad value '<text>' for <var>".
template <typename T>
T envNumber(const char* var, std::string_view key, T fallback) {
  const char* s = std::getenv(var);
  if (s == nullptr) return fallback;
  const auto table = flow::flowOptions();
  const auto opt =
      std::find_if(table.begin(), table.end(),
                   [key](const flow::FlowOption& o) { return o.key == key; });
  T v{};
  if (!util::parseValue(std::string_view(s), v) ||
      !std::isfinite(static_cast<double>(v)) || v < opt->min ||
      v > opt->max) {
    std::cerr << "bad value '" << s << "' for " << var << "\n";
    std::exit(2);
  }
  return v;
}

inline double envTimeLimit(double fallback) {
  return envNumber("LAMP_TIME_LIMIT", "timeLimitSeconds", fallback);
}

inline bool envCsv() {
  const char* s = std::getenv("LAMP_CSV");
  return s != nullptr && std::string(s) == "1";
}

/// Flow jobs are threads too: the solverThreads range, 0 = pool default.
inline int envJobs() { return envNumber("LAMP_JOBS", "solverThreads", 0); }

inline int envThreads(int fallback) {
  return envNumber("LAMP_THREADS", "solverThreads", fallback);
}

inline std::vector<workloads::Benchmark> selectedBenchmarks(
    workloads::Scale scale) {
  std::vector<workloads::Benchmark> all = workloads::allBenchmarks(scale);
  const char* f = std::getenv("LAMP_FILTER");
  if (f == nullptr) return all;
  const std::string filter = f;
  std::vector<workloads::Benchmark> out;
  for (auto& bm : all) {
    if (filter.find(bm.name) != std::string::npos) out.push_back(std::move(bm));
  }
  return out;
}

}  // namespace lamp::bench

#endif  // LAMP_BENCH_BENCH_UTIL_H
