#ifndef LAMP_IR_SIMPLIFY_H
#define LAMP_IR_SIMPLIFY_H

/// \file simplify.h
/// Dataflow-driven graph simplification, plus the plain bit-fact
/// container it consumes. The facts are produced by the fixpoint engine
/// in analyze/dataflow.h; keeping the container here (the lowest layer)
/// lets cut enumeration and the schedule validator consume the same
/// masks without depending on the analyze library.

#include <cstdint>
#include <vector>

#include "ir/graph.h"

namespace lamp::ir {

/// Per-node bit-level facts over ONE graph (vectors indexed by NodeId).
/// All masks are pre-masked to the node's width. A BitFacts instance is
/// meaningless against any other graph — rebuilt graphs (simplify,
/// per-stage remaps) need freshly computed facts.
struct BitFacts {
  /// Bit j of knownMask[v] set: bit j of v has the same value in every
  /// iteration; that value is bit j of knownVal[v]. knownVal is always a
  /// subset of knownMask (unknown bits read 0).
  std::vector<std::uint64_t> knownMask;
  std::vector<std::uint64_t> knownVal;
  /// Bit j set: bit j of v must be *computed* for some observer —
  /// reachable from an Output/Store/black-box AND not already supplied
  /// by knownMask (known bits hard-wire into LUT masks or folds). The
  /// right mask for costing. 0 for dead nodes — consumers that need a
  /// conservative mask must treat 0 as "all width bits" (demandedOf()).
  std::vector<std::uint64_t> demanded;
  /// Bit j set: some observer *reads* bit j of v, known or not — a
  /// superset of demanded. The right mask for rewrites that substitute
  /// a whole value (forwarding, narrowing): every live bit must keep
  /// its exact value, even one the analysis already knows.
  std::vector<std::uint64_t> live;
  /// Unsigned value interval [lo, hi] of v's computed value.
  std::vector<std::uint64_t> lo;
  std::vector<std::uint64_t> hi;

  bool empty() const { return knownMask.empty(); }

  /// True when the vectors index `g` (size match is the only cheap
  /// invariant; callers are responsible for graph identity).
  bool compatibleWith(const Graph& g) const {
    return knownMask.size() == g.size() && knownVal.size() == g.size() &&
           demanded.size() == g.size() && live.size() == g.size() &&
           lo.size() == g.size() && hi.size() == g.size();
  }

  /// Demanded mask with the conservative fallback: a node the backward
  /// pass never reached (demanded == 0) is treated as fully demanded so
  /// masked consumers stay sound on dead or detached logic.
  std::uint64_t demandedOf(const Graph& g, NodeId v) const {
    const std::uint64_t full =
        g.node(v).width >= 64 ? ~0ull : (1ull << g.node(v).width) - 1;
    if (v >= demanded.size()) return full;
    const std::uint64_t d = demanded[v];
    return d == 0 ? full : d;
  }
};

struct SimplifyStats {
  int folded = 0;     ///< nodes replaced by constants
  int forwarded = 0;  ///< identity nodes wired through
  int narrowed = 0;   ///< nodes rebuilt at a smaller width
};

/// Rewrites `g` using `facts` (which must have been computed on `g`):
///  - nodes whose demanded bits are all known become Const nodes,
///  - operations the facts prove neutral (AND with known-1s, OR/XOR with
///    known-0s, muxes with known selects, extends of known-zero tops)
///    are wired through,
///  - Add/Sub/bitwise nodes whose high bits are known zero AND whose
///    consumers never demand them are rebuilt at a smaller width with a
///    ZExt adapter, shrinking later cut supports and carry chains.
/// Dead nodes are compacted away. `oldToNew`, if non-null, receives the
/// composed id remapping (kNoNode for removed nodes). The result
/// verifies and is differential-simulation-equivalent on every demanded
/// output bit (see SimplifyTest).
Graph simplify(const Graph& g, const BitFacts& facts,
               SimplifyStats* stats = nullptr,
               std::vector<NodeId>* oldToNew = nullptr);

}  // namespace lamp::ir

#endif  // LAMP_IR_SIMPLIFY_H
