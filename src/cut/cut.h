#ifndef LAMP_CUT_CUT_H
#define LAMP_CUT_CUT_H

/// \file cut.h
/// Word-level cuts for mapping-aware scheduling (Section 3.1 of the
/// paper). A cut of node v is a set of boundary (node, dist) elements;
/// its cone is the dist-0 logic between the boundary and v that a LUT
/// array would absorb. Feasibility is *per output bit*: every bit of v
/// must depend on at most K boundary bits (tracked through the per-class
/// DEP functions).

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/graph.h"
#include "ir/simplify.h"

namespace lamp::cut {

/// A boundary element: the producing node and how many iterations ago its
/// value was produced (dist > 0 elements arrive from pipeline registers).
struct CutElement {
  ir::NodeId node = ir::kNoNode;
  std::uint32_t dist = 0;

  friend auto operator<=>(const CutElement&, const CutElement&) = default;
};

/// A single boundary *bit*, packed for cheap set operations:
/// key = node << 32 | dist << 8 | bit.
using BitKey = std::uint64_t;

inline BitKey makeBitKey(ir::NodeId node, std::uint32_t dist,
                         std::uint32_t bit) {
  return (static_cast<std::uint64_t>(node) << 32) |
         (static_cast<std::uint64_t>(dist & 0xFFFFFF) << 8) |
         (bit & 0xFF);
}
inline ir::NodeId bitKeyNode(BitKey k) {
  return static_cast<ir::NodeId>(k >> 32);
}
inline std::uint32_t bitKeyDist(BitKey k) {
  return static_cast<std::uint32_t>((k >> 8) & 0xFFFFFF);
}
inline std::uint32_t bitKeyBit(BitKey k) {
  return static_cast<std::uint32_t>(k & 0xFF);
}

/// Sorted set of boundary bits one output bit depends on.
using SupportSet = std::vector<BitKey>;

/// How a selected cut is implemented.
enum class CutKind : std::uint8_t {
  Lut,       ///< K-feasible cone, one LUT per costed output bit
  Carry,     ///< carry-chain implementation of a wide arithmetic node
  BlackBox,  ///< unit "cut" of a black-box op (ports, not LUTs)
  Sink,      ///< unit "cut" of an Output marker
};

/// One cut of a node.
struct Cut {
  CutKind kind = CutKind::Lut;
  /// Sorted, unique boundary elements.
  std::vector<CutElement> elements;
  /// Per output bit of the root: boundary bits it depends on
  /// (empty for Carry/BlackBox/Sink cuts, which skip the K check).
  std::vector<SupportSet> bitSupport;
  /// Per output bit: true when the bit is pure routing (no LUT needed).
  std::vector<bool> bitIsWire;
  /// Nodes absorbed by the cone, root included (empty for non-Lut cuts).
  std::vector<ir::NodeId> coneNodes;
  /// LUTs consumed if this cut is selected.
  int lutCost = 0;
  /// Largest per-bit support (0 for non-Lut kinds).
  int maxSupport = 0;
  /// True for the unit cut (boundary == direct fanins).
  bool isUnit = false;

  bool containsElement(ir::NodeId node, std::uint32_t dist) const {
    assert(std::is_sorted(elements.begin(), elements.end()) &&
           "Cut::elements must stay sorted");
    return std::binary_search(elements.begin(), elements.end(),
                              CutElement{node, dist});
  }

  std::string str(const ir::Graph& g) const;
};

/// All selectable cuts of one node (the trivial self-cut is implicit and
/// never selectable). Empty for Input/Const nodes.
struct CutSet {
  std::vector<Cut> cuts;
};

/// Cut-ranking strategy: the ordering the prune/priority stage applies
/// before capping to maxCutsPerNode. Strategies change which cuts
/// survive the cap (and therefore the MILP's selection space), never
/// feasibility — the unit/carry fallback is always kept.
enum class CutStrategy : std::uint8_t {
  DepthAware,  ///< deepest cones first (historical default ranking)
  AreaMin,     ///< cheapest LUT cost first
  SupportMin,  ///< smallest per-bit support first (routing pressure)
  Balanced,    ///< blend: cost + boundary size - cone depth
};

/// Machine token ("depth" | "area" | "support" | "balanced") used by the
/// CLI, option serialization and cache keys.
std::string_view cutStrategyName(CutStrategy s);

/// Parses a cutStrategyName() token; returns false on unknown input.
bool parseCutStrategy(std::string_view token, CutStrategy& out);

/// Every strategy in racing order. DepthAware comes first so cost ties
/// resolve to the historical ranking.
const std::array<CutStrategy, 4>& allCutStrategies();

/// Options for word-level cut enumeration.
struct CutEnumOptions {
  int k = 4;                ///< LUT input count (paper: K <= 6)
  int maxCutsPerNode = 8;   ///< priority cap after pruning
  int maxElements = 8;      ///< word-level boundary size cap
  /// Ranking applied by the prune/priority stage before the cap.
  CutStrategy strategy = CutStrategy::DepthAware;
  /// Optional bit-level facts computed on the SAME graph being
  /// enumerated (analyze::analyzeDataflow + toBitFacts): output bits no
  /// observer demands are skipped entirely (no support, no LUT, no K
  /// check) and known operand bits fold into the LUT mask like Const
  /// operands, shrinking supports and the MILP's cut-selection space.
  /// Ignored when null or size-mismatched. Must outlive the enumeration;
  /// any schedule validated against masked cuts needs the same facts
  /// (sched::ValidationInput::facts).
  const ir::BitFacts* facts = nullptr;
};

/// Cut sets for every node plus enumeration statistics.
struct CutDatabase {
  std::vector<CutSet> cutsOf;  ///< indexed by NodeId
  std::size_t totalCuts = 0;
  double wallSeconds = 0.0;

  const CutSet& at(ir::NodeId id) const { return cutsOf[id]; }
};

/// Algorithm 1: word-level cut enumeration with bit-level dependence
/// tracking, one pass in topological order. Loop-carried (dist > 0)
/// edges act as cone boundaries.
CutDatabase enumerateCuts(const ir::Graph& g, const CutEnumOptions& opts = {});

/// The mapping-agnostic database used by MILP-base: every node gets only
/// its unit cut (or carry/black-box equivalent).
CutDatabase trivialCuts(const ir::Graph& g, const CutEnumOptions& opts = {});

}  // namespace lamp::cut

#endif  // LAMP_CUT_CUT_H
