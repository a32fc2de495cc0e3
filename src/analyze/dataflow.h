#ifndef LAMP_ANALYZE_DATAFLOW_H
#define LAMP_ANALYZE_DATAFLOW_H

/// \file dataflow.h
/// Bit-level dataflow framework over the word-level CDFG: a worklist
/// fixpoint engine with three transfer-function families —
///
///  - forward known-bits: which result bits are the same constant in
///    every iteration (constant folding generalized to partial words),
///  - forward interval range: unsigned [lo, hi] per node, propagated
///    through add/sub/shift/mux/compare with widening on loop-carried
///    cycles,
///  - backward demanded-bits: which result bits any Output/Store/black
///    box can ever observe, seeded at the sinks and narrowed through
///    the same per-kind DEP structure the cut enumerator uses.
///
/// The two forward lattices refine each other at each node (the common
/// high prefix of lo and hi yields known bits; known bits clamp the
/// interval), and known bits feed the backward pass (a bit ANDed with a
/// known 0 is not demanded). Loop-carried (dist > 0) operands join the
/// producer's value with the register reset value 0, matching the
/// interpreter's edge-level semantics.
///
/// Termination: known bits only ever move known -> unknown, demanded
/// bits only ever grow, and the interval is widened to the known-bit
/// envelope after a bounded number of per-node updates — every lattice
/// has finite height, so Kleene iteration converges; `maxVisits` is a
/// defensive cap on top (see DataflowTest.CyclicRecurrenceTerminates).

#include <cstdint>
#include <string>
#include <vector>

#include "ir/graph.h"
#include "ir/simplify.h"
#include "util/json.h"

namespace lamp::analyze {

/// Facts for one node. Masks follow the ir::BitFacts conventions:
/// everything pre-masked to the node width, knownVal subset of
/// knownMask, demanded == 0 for nodes no sink observes.
struct NodeBits {
  std::uint64_t knownMask = 0;
  std::uint64_t knownVal = 0;
  std::uint64_t demanded = 0;
  /// Observability superset of `demanded`: bit j set when some observer
  /// reads bit j of v at all, *including* through consumer bits the
  /// forward pass already proved constant. `demanded` strips known bits
  /// (they need no logic — a LUT mask or fold supplies them), which is
  /// the right mask for costing; rewrites that *replace* a value (the
  /// simplifier's forwarding and narrowing) must instead preserve every
  /// live bit, known or not.
  std::uint64_t live = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const NodeBits&, const NodeBits&) = default;
};

struct DataflowOptions {
  /// Per-node forward updates before the interval is widened to the
  /// known-bit envelope (keeps slow-counting recurrences from stepping
  /// the fixpoint once per representable value).
  int wideningThreshold = 4;
  /// Defensive cap on total worklist visits across both passes.
  std::size_t maxVisits = 1u << 22;
};

struct DataflowResult {
  std::vector<NodeBits> bits;  ///< indexed by NodeId
  std::size_t forwardVisits = 0;
  std::size_t backwardVisits = 0;
  /// False only if maxVisits was exhausted; the facts are then still
  /// sound (joins only ever widen) but possibly imprecise.
  bool converged = true;
};

/// Runs the three analyses to fixpoint. The graph must verify.
DataflowResult analyzeDataflow(const ir::Graph& g,
                               const DataflowOptions& opts = {});

/// Repackages the result as the layer-neutral container consumed by
/// ir::simplify, cut enumeration and the schedule validator.
ir::BitFacts toBitFacts(const DataflowResult& r);

/// Per-node summary as a JSON array (one object per node). Masks are
/// serialized as "0x..." hex strings — util::Json integers are int64,
/// and 64-bit masks must round-trip losslessly.
util::Json dataflowToJson(const std::vector<NodeBits>& bits);

/// Inverse of dataflowToJson(). Returns false and fills `error` (when
/// non-null) on shape violations.
bool dataflowFromJson(const util::Json& j, std::vector<NodeBits>& out,
                      std::string* error = nullptr);

}  // namespace lamp::analyze

#endif  // LAMP_ANALYZE_DATAFLOW_H
