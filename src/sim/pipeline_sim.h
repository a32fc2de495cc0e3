#ifndef LAMP_SIM_PIPELINE_SIM_H
#define LAMP_SIM_PIPELINE_SIM_H

/// \file pipeline_sim.h
/// Cycle-accurate execution of a modulo Schedule. Iteration k's node v
/// computes at clock k*II + S_v; the simulator checks dynamically that
///  - every operand value was produced at an earlier clock, or at the
///    same clock with compatible intra-cycle start times (chaining), and
///  - outputs stream at exactly one result per II clocks.
/// It also measures peak live register bits, the dynamic counterpart of
/// the schedule's static FF count.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sched/schedule.h"
#include "sim/interp.h"

namespace lamp::sim {

struct PipelineRunResult {
  bool ok = false;
  std::string error;
  std::vector<OutputFrame> outputs;  ///< one frame per iteration
  /// Peak register bits live at any simulated clock (steady-state value
  /// equals the static lifetime count for II=1 pipelines).
  int peakLiveBits = 0;
  int clocksSimulated = 0;
};

/// Called with every non-Const node value the pipeline computes:
/// (node, iteration, value), in iteration then topological order.
using ValueCallback =
    std::function<void(ir::NodeId v, int iteration, std::uint64_t value)>;

/// Runs `frames.size()` iterations through the scheduled pipeline.
/// `memory` may be null when the graph has no Load/Store nodes.
/// When `cuts` (the database the schedule was built against) is given,
/// same-clock chaining order is checked along selected cut boundaries —
/// absorbed nodes live inside their root's LUT and have no timing of
/// their own. Without it only cycle-level readiness is checked.
/// `onValue`, when set, sees each value as it is computed.
PipelineRunResult runPipeline(const ir::Graph& g, const sched::Schedule& s,
                              const sched::DelayModel& dm,
                              const std::vector<InputFrame>& frames,
                              Memory* memory = nullptr,
                              const cut::CutDatabase* cuts = nullptr,
                              const ValueCallback& onValue = {});

}  // namespace lamp::sim

#endif  // LAMP_SIM_PIPELINE_SIM_H
