#ifndef LAMPBENCH_REPLAY_H
#define LAMPBENCH_REPLAY_H

/// \file replay.h
/// Layer-by-layer replay of one request through the public lamp entry
/// points. replayFlow() performs the same calls, in the same order and
/// with the same arguments, as flow::runFlow (without simplify, certify
/// or cut-strategy racing, which the benchmark never turns on), so the
/// replay solves exactly the program the untraced run measured. With a
/// Spans recorder every call is timed as a layer span of the open
/// request; with a null recorder the same calls run untimed.

#include <cstdint>
#include <string>

#include "flow/flow.h"
#include "sched/milp_sched.h"
#include "spans.h"
#include "svc/cache.h"

namespace lampbench {

/// Exact counters of one flow: what the replay-matches-flow and the
/// determinism checks compare per request. (A FlowResult does not carry
/// the solver's pivot counts; LayerStats does.)
struct Exact {
  std::int64_t cuts = 0;
  std::int64_t vars = 0;
  std::int64_t rows = 0;
  std::int64_t nodes = 0;
  double objective = 0.0;
  int ii = 0;
};

Exact exactOf(const lamp::flow::FlowResult& r);

/// Counters the traced replay accumulates per layer (times come from the
/// spans). Summed over every request and II attempt of a pass.
struct LayerStats {
  std::int64_t solves = 0;
  std::int64_t optimalSolves = 0;
  std::int64_t nodes = 0;
  std::int64_t pruned = 0;
  std::int64_t simplexIters = 0;
  std::int64_t dualPivots = 0;
  std::int64_t coldSolves = 0;
  double rootSeconds = 0.0;  ///< first "bound" convergence event per solve
  double bestSeconds = 0.0;  ///< last "incumbent" convergence event per solve
  double gapSum = 0.0;       ///< relative final gap, summed over solves
  std::int64_t vars = 0;
  std::int64_t rows = 0;
  std::int64_t forbidden = 0;
  std::int64_t probesIncomplete = 0;  ///< schedspace probing hit its clock
  std::int64_t schedSpaceCalls = 0;
  double schedSpaceMaxSeconds = 0.0;  ///< slowest computeSchedSpace call
  std::int64_t cuts = 0;
  std::int64_t luts = 0;
  std::int64_t ffs = 0;
  std::int64_t hits = 0;
  std::int64_t near = 0;
  std::int64_t misses = 0;

  void addSolve(const lamp::sched::MilpSchedResult& r);
};

/// flow::runFlow, call for call, as layer spans of the open request.
lamp::flow::FlowResult replayFlow(Spans* spans, LayerStats& stats,
                                  const lamp::workloads::Benchmark& bm,
                                  lamp::flow::Method method,
                                  const lamp::flow::FlowOptions& opts);

/// One service request replayed the way svc::Service answers it: request
/// parse, graph resolve, analysis gate, cache-key hashing, cache lookup,
/// the flow on a miss or near miss, cache insert and response rendering.
struct RequestReplay {
  bool ok = false;
  std::string error;
  std::string cache;  ///< "hit" | "warm" | "miss"
  lamp::flow::FlowResult result;
};

RequestReplay replayRequest(Spans* spans, LayerStats& stats,
                            lamp::svc::SolutionCache& cache,
                            const std::string& line,
                            double maxTimeLimitSeconds);

}  // namespace lampbench

#endif  // LAMPBENCH_REPLAY_H
