#ifndef LAMP_SIM_INTERP_H
#define LAMP_SIM_INTERP_H

/// \file interp.h
/// Functional execution of CDFGs. Two engines share the semantics:
///
///  - Interpreter: untimed, iteration-by-iteration evaluation in
///    topological order — the golden reference for workload validation.
///  - PipelineSimulator (pipeline_sim.h): cycle-accurate execution of a
///    Schedule that additionally asserts every operand was produced by
///    the time it is consumed.
///
/// Loop-carried operands (dist > 0) read the value produced `dist`
/// iterations earlier; before the first iteration they read 0
/// (reset-initialized registers).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/graph.h"

namespace lamp::sim {

/// Simple banked memory for Load/Store black boxes: one bank per resource
/// class, word-addressed, wrap-around indexing.
class Memory {
 public:
  void setBank(ir::ResourceClass rc, std::vector<std::uint64_t> words) {
    banks_[rc] = std::move(words);
  }
  std::uint64_t read(ir::ResourceClass rc, std::uint64_t addr) const;
  void write(ir::ResourceClass rc, std::uint64_t addr, std::uint64_t value);

 private:
  std::map<ir::ResourceClass, std::vector<std::uint64_t>> banks_;
};

/// Per-iteration input assignment: values for every Input node, by id.
using InputFrame = std::map<ir::NodeId, std::uint64_t>;

/// Values observed at Output nodes for one iteration, by output node id.
using OutputFrame = std::map<ir::NodeId, std::uint64_t>;

/// Evaluates a single operation. Exposed so both engines (and tests) use
/// identical semantics. `ops` holds the already-masked operand values.
std::uint64_t evalOp(const ir::Graph& g, ir::NodeId v,
                     const std::vector<std::uint64_t>& ops, Memory* mem);

/// Untimed reference interpreter.
class Interpreter {
 public:
  explicit Interpreter(const ir::Graph& g);

  Memory& memory() { return mem_; }

  /// Runs one iteration with the given inputs and returns the outputs.
  OutputFrame step(const InputFrame& inputs);

  /// Runs `frames.size()` iterations.
  std::vector<OutputFrame> run(const std::vector<InputFrame>& frames);

  /// Resets loop-carried history (registers back to 0).
  void reset();

 private:
  const ir::Graph& g_;
  std::vector<ir::NodeId> order_;
  Memory mem_;
  std::uint32_t maxDist_ = 0;
  std::vector<std::vector<std::uint64_t>> history_;  // ring per node
  std::uint64_t iteration_ = 0;
};

}  // namespace lamp::sim

#endif  // LAMP_SIM_INTERP_H
