/// \file enumerate.cpp
/// Word-level cut enumeration (Algorithm 1):
///
///  - One topological pass: a cut set reads only the sets of its dist-0
///    fanins (registers are cone boundaries), and ir::topologicalOrder
///    visits every dist-0 fanin first, so each node's set is final the
///    first time it is computed.
///  - One composition path: a candidate picks, per operand slot, the
///    fanin as a boundary or one of its cuts, and each output bit's
///    support is the sorted union of the chosen supports, abandoned the
///    moment it exceeds K. DEP sets and identity flags are per-node
///    facts, computed once per node rather than once per candidate.
///
/// The default configuration (DepthAware strategy) reproduces the
/// historical enumeration bit for bit.

#include <algorithm>
#include <array>
#include <chrono>
#include <sstream>

#include "cut/cut.h"
#include "cut/dep.h"
#include "ir/passes.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lamp::cut {

using ir::Edge;
using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpClass;
using ir::OpKind;

std::string_view cutStrategyName(CutStrategy s) {
  switch (s) {
    case CutStrategy::DepthAware: return "depth";
    case CutStrategy::AreaMin: return "area";
    case CutStrategy::SupportMin: return "support";
    case CutStrategy::Balanced: return "balanced";
  }
  return "?";
}

bool parseCutStrategy(std::string_view token, CutStrategy& out) {
  for (const CutStrategy s : allCutStrategies()) {
    if (token == cutStrategyName(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

const std::array<CutStrategy, 4>& allCutStrategies() {
  static const std::array<CutStrategy, 4> all = {
      CutStrategy::DepthAware, CutStrategy::AreaMin, CutStrategy::SupportMin,
      CutStrategy::Balanced};
  return all;
}

namespace {

/// Sorted-set union dst ∪= add, merging into `scratch` (a reusable buffer
/// that keeps its capacity across calls). Abandons the merge and returns
/// false the moment the union exceeds `cap` elements — a doomed bit need
/// not finish merging. `cap < 0` disables the limit.
bool unionIntoCapped(SupportSet& dst, const SupportSet& add,
                     SupportSet& scratch, int cap) {
  if (add.empty()) {
    return cap < 0 || static_cast<int>(dst.size()) <= cap;
  }
  if (dst.empty()) {
    dst = add;
    return cap < 0 || static_cast<int>(dst.size()) <= cap;
  }
  scratch.clear();
  const std::size_t limit =
      cap < 0 ? dst.size() + add.size() : static_cast<std::size_t>(cap);
  auto a = dst.begin();
  auto b = add.begin();
  while (a != dst.end() || b != add.end()) {
    BitKey next;
    if (b == add.end() || (a != dst.end() && *a < *b)) {
      next = *a++;
    } else {
      if (a != dst.end() && *a == *b) ++a;
      next = *b++;
    }
    if (scratch.size() >= limit && cap >= 0) return false;  // early exit
    scratch.push_back(next);
  }
  dst.swap(scratch);
  return true;
}

void insertSorted(std::vector<CutElement>& v, CutElement e) {
  const auto it = std::lower_bound(v.begin(), v.end(), e);
  if (it == v.end() || *it != e) v.insert(it, e);
}

void insertSorted(std::vector<NodeId>& v, NodeId id) {
  const auto it = std::lower_bound(v.begin(), v.end(), id);
  if (it == v.end() || *it != id) v.insert(it, id);
}

/// LUT cost when a wide arithmetic node is implemented on a carry chain:
/// one LUT per operand bit (adders, subtractors and comparators all
/// consume a LUT + CARRY mux per bit on Xilinx-style fabrics).
int carryLutCost(const Graph& g, NodeId id) {
  const Node& n = g.node(id);
  if (n.kind == OpKind::Add || n.kind == OpKind::Sub) return n.width;
  return g.node(n.operands[0].src).width;  // comparisons
}

Cut makeCarryCut(const Graph& g, NodeId id) {
  const Node& n = g.node(id);
  Cut cut;
  cut.kind = CutKind::Carry;
  cut.isUnit = true;
  cut.lutCost = carryLutCost(g, id);
  cut.coneNodes = {id};
  for (const Edge& e : n.operands) {
    if (g.node(e.src).kind == OpKind::Const) continue;
    insertSorted(cut.elements, CutElement{e.src, e.dist});
  }
  return cut;
}

Cut makePortCut(const Graph& g, NodeId id, CutKind kind) {
  const Node& n = g.node(id);
  Cut cut;
  cut.kind = kind;
  cut.isUnit = true;
  cut.lutCost = 0;
  for (const Edge& e : n.operands) {
    if (g.node(e.src).kind == OpKind::Const) continue;
    insertSorted(cut.elements, CutElement{e.src, e.dist});
  }
  return cut;
}

/// 64-bit fingerprint of one boundary element; the OR over a cut's
/// elements gives a Bloom-style signature whose word test
/// (a & ~b) == 0 is a necessary condition for "a's elements are a
/// subset of b's" — a one-word reject before the exact check.
std::uint64_t elementFingerprint(const CutElement& e) {
  const std::uint64_t h =
      (static_cast<std::uint64_t>(e.node) * 0x9E3779B97F4A7C15ull) ^
      (static_cast<std::uint64_t>(e.dist) * 0xC2B2AE3D27D4EB4Full);
  return 1ull << (h >> 58);
}

std::uint64_t cutFingerprint(const Cut& c) {
  std::uint64_t fp = 0;
  for (const CutElement& e : c.elements) fp |= elementFingerprint(e);
  return fp;
}

/// Strict weak order applied by the priority stage before the cap.
/// DepthAware reproduces the historical ranking bit for bit.
bool strategyBefore(CutStrategy s, const Cut& a, const Cut& b) {
  switch (s) {
    case CutStrategy::DepthAware:
      if (a.coneNodes.size() != b.coneNodes.size()) {
        return a.coneNodes.size() > b.coneNodes.size();
      }
      if (a.lutCost != b.lutCost) return a.lutCost < b.lutCost;
      return a.elements.size() < b.elements.size();
    case CutStrategy::AreaMin:
      if (a.lutCost != b.lutCost) return a.lutCost < b.lutCost;
      if (a.coneNodes.size() != b.coneNodes.size()) {
        return a.coneNodes.size() > b.coneNodes.size();
      }
      return a.elements.size() < b.elements.size();
    case CutStrategy::SupportMin:
      if (a.maxSupport != b.maxSupport) return a.maxSupport < b.maxSupport;
      if (a.elements.size() != b.elements.size()) {
        return a.elements.size() < b.elements.size();
      }
      if (a.lutCost != b.lutCost) return a.lutCost < b.lutCost;
      return a.coneNodes.size() > b.coneNodes.size();
    case CutStrategy::Balanced: {
      // Cost and boundary pressure balanced against absorbed depth.
      const long sa = 2L * a.lutCost + static_cast<long>(a.elements.size()) -
                      2L * static_cast<long>(a.coneNodes.size());
      const long sb = 2L * b.lutCost + static_cast<long>(b.elements.size()) -
                      2L * static_cast<long>(b.coneNodes.size());
      if (sa != sb) return sa < sb;
      if (a.lutCost != b.lutCost) return a.lutCost < b.lutCost;
      return a.coneNodes.size() > b.coneNodes.size();
    }
  }
  return false;
}

/// Enumeration workspace: reusable per-node buffers. All vectors keep
/// their capacity across nodes, so the steady state allocates only when
/// a node outgrows every earlier one.
struct Workspace {
  /// Per slot, the expansion choices: nullptr first (the fanin as a
  /// boundary), then each Lut cut of the fanin it may absorb.
  std::vector<std::vector<const Cut*>> options;
  std::vector<std::size_t> slotOf;        ///< operand -> owning slot
  std::vector<std::vector<DepBit>> deps;  ///< per costed output bit
  std::vector<bool> identity;             ///< per output bit identity flag
  std::vector<std::size_t> idx;           ///< mixed-radix counter per slot
  std::vector<const Cut*> choices;        ///< per operand: chosen cut
  SupportSet scratch;                     ///< merge buffer
  Cut candidate;                          ///< compose's output, reused
  std::vector<Cut> result;                ///< candidate accumulator

  void prepare(std::size_t p) {
    if (options.size() < p) {
      options.resize(p);
      slotOf.resize(p);
    }
    for (std::size_t i = 0; i < p; ++i) options[i].clear();
  }
};

struct Enumerator {
  const Graph& g;
  const CutEnumOptions& opts;
  /// Bit-level facts for masking, dropped when they do not index this
  /// graph (rebuilt stage graphs re-enumerate without facts).
  const ir::BitFacts* facts;
  std::vector<CutSet> cutsOf;

  explicit Enumerator(const Graph& graph, const CutEnumOptions& options)
      : g(graph), opts(options),
        facts(options.facts != nullptr && options.facts->compatibleWith(graph)
                  ? options.facts
                  : nullptr),
        cutsOf(graph.size()) {}

  /// Builds every candidate cut of one LUT-mappable node from the
  /// current cut sets of its fanins. `unitOnly` restricts the expansion
  /// to the unit cut (the trivialCuts() path).
  void candidates(NodeId v, Workspace& ws, bool unitOnly) {
    const Node& n = g.node(v);
    const std::size_t p = n.operands.size();
    ws.result.clear();

    // Absorbable cuts per operand. Operands referencing the same
    // (node, dist) share one choice slot for consistency.
    ws.prepare(p);
    std::vector<std::vector<const Cut*>>& options = ws.options;
    std::vector<std::size_t>& slotOf = ws.slotOf;
    for (std::size_t i = 0; i < p; ++i) {
      slotOf[i] = i;
      for (std::size_t h = 0; h < i; ++h) {
        if (n.operands[h].src == n.operands[i].src &&
            n.operands[h].dist == n.operands[i].dist) {
          slotOf[i] = h;
          break;
        }
      }
      if (slotOf[i] != i) continue;
      options[i].push_back(nullptr);  // boundary
      if (unitOnly) continue;
      const Edge& e = n.operands[i];
      if (e.dist != 0) continue;  // never expand through a register
      if (!ir::isLutMappable(g.node(e.src).kind)) continue;
      for (const Cut& c : cutsOf[e.src].cuts) {
        if (c.kind == CutKind::Lut) options[i].push_back(&c);
      }
    }

    // Costed bits: demanded by some observer and not analysis-known.
    // Undemanded bits need no logic at all; known bits hard-wire into
    // the LUT mask. Skipped bits keep empty supports (never a wire), so
    // they cost nothing and never constrain K.
    std::uint64_t costed = ~0ull;
    if (facts != nullptr) {
      costed = facts->demandedOf(g, v) & ~facts->knownMask[v];
    }
    // DEP sets and identity flags are per-node facts — computed once
    // here, not once per candidate.
    if (ws.deps.size() < n.width) ws.deps.resize(n.width);
    ws.identity.assign(n.width, false);
    for (std::uint16_t j = 0; j < n.width; ++j) {
      ws.deps[j].clear();
      if (j < 64 && ((costed >> j) & 1) == 0) continue;
      ws.deps[j] = depBits(g, v, j, facts);
      ws.identity[j] = isIdentityBit(g, v, j, facts);
    }

    // Mixed-radix counter over the real slots: one candidate per
    // combination of slot choices, in the historical visit order.
    ws.idx.assign(p, 0);
    if (ws.choices.size() < p) ws.choices.resize(p);
    while (true) {
      for (std::size_t i = 0; i < p; ++i) {
        ws.choices[i] = options[slotOf[i]][ws.idx[slotOf[i]]];
      }
      if (compose(v, costed, ws, ws.candidate)) {
        ws.result.push_back(std::move(ws.candidate));
      }
      std::size_t i = 0;
      for (; i < p; ++i) {
        if (slotOf[i] != i) continue;
        if (++ws.idx[i] < options[i].size()) break;
        ws.idx[i] = 0;
      }
      if (i == p) break;
    }

    // Carry fallback when the unit cut was K-infeasible for wide
    // arithmetic, then the prune/priority stage.
    const bool hasUnit =
        std::any_of(ws.result.begin(), ws.result.end(),
                    [](const Cut& c) { return c.isUnit; });
    if (!hasUnit && ir::opClass(n.kind) == OpClass::Arith) {
      ws.result.push_back(makeCarryCut(g, v));
    }
    prune(ws.result);
  }

  /// One candidate from the slot choices in `ws.choices`: per-bit
  /// sorted-vector unions capped at K. False when some bit's support
  /// exceeds K or the boundary exceeds maxElements. `out` may hold an
  /// earlier (rejected) candidate; every field is reset first, so its
  /// buffers are reused.
  bool compose(NodeId v, std::uint64_t costed, Workspace& ws,
               Cut& out) const {
    const Node& n = g.node(v);
    out.kind = CutKind::Lut;
    out.elements.clear();
    out.coneNodes.assign(1, v);
    out.isUnit = true;
    out.bitSupport.resize(n.width);
    for (SupportSet& sup : out.bitSupport) sup.clear();
    out.bitIsWire.assign(n.width, false);
    out.lutCost = 0;
    out.maxSupport = 0;
    for (std::size_t i = 0; i < n.operands.size(); ++i) {
      if (ws.choices[i] != nullptr) {
        out.isUnit = false;
        for (const NodeId cn : ws.choices[i]->coneNodes) {
          insertSorted(out.coneNodes, cn);
        }
      }
    }

    for (std::uint16_t j = 0; j < n.width; ++j) {
      if (j < 64 && ((costed >> j) & 1) == 0) {
        continue;  // skipped bit: empty support, never a wire
      }
      bool wireBit = ws.identity[j] && ws.deps[j].size() <= 1;
      for (const DepBit& d : ws.deps[j]) {
        const Edge& e = n.operands[d.operandIndex];
        if (ws.choices[d.operandIndex] == nullptr) {
          // Boundary bit of the fanin itself: a single sorted insert.
          SupportSet& sup = out.bitSupport[j];
          const BitKey key = makeBitKey(e.src, e.dist, d.bit);
          const auto it = std::lower_bound(sup.begin(), sup.end(), key);
          if (it == sup.end() || *it != key) sup.insert(it, key);
          if (static_cast<int>(sup.size()) > opts.k) return false;
        } else {
          const Cut& c = *ws.choices[d.operandIndex];
          if (!unionIntoCapped(out.bitSupport[j], c.bitSupport[d.bit],
                               ws.scratch, opts.k)) {
            return false;  // support already exceeds K: cut is infeasible
          }
          if (!c.bitIsWire[d.bit]) wireBit = false;
        }
      }
      out.bitIsWire[j] = wireBit;
      out.maxSupport = std::max(out.maxSupport,
                                static_cast<int>(out.bitSupport[j].size()));
      if (!out.bitSupport[j].empty() && !out.bitIsWire[j]) ++out.lutCost;
    }

    for (const SupportSet& s : out.bitSupport) {
      for (const BitKey k : s) {
        insertSorted(out.elements, CutElement{bitKeyNode(k), bitKeyDist(k)});
      }
    }
    return static_cast<int>(out.elements.size()) <= opts.maxElements;
  }

  void prune(std::vector<Cut>& cuts) const {
    // Deduplicate identical element sets, keeping the cheapest.
    std::sort(cuts.begin(), cuts.end(), [](const Cut& a, const Cut& b) {
      if (a.elements != b.elements) return a.elements < b.elements;
      return a.lutCost < b.lutCost;
    });
    cuts.erase(std::unique(cuts.begin(), cuts.end(),
                           [](const Cut& a, const Cut& b) {
                             return a.elements == b.elements;
                           }),
               cuts.end());

    // Per-cut element fingerprints: one-word subset pre-filter.
    std::vector<std::uint64_t> fp(cuts.size());
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      fp[i] = cutFingerprint(cuts[i]);
    }

    // Subset dominance: drop B when some A has a subset boundary and no
    // higher cost (selecting A constrains strictly fewer roots).
    std::vector<bool> dead(cuts.size(), false);
    for (std::size_t a = 0; a < cuts.size(); ++a) {
      if (dead[a]) continue;
      for (std::size_t b = 0; b < cuts.size(); ++b) {
        if (a == b || dead[b] || cuts[b].isUnit) continue;
        if (cuts[a].lutCost > cuts[b].lutCost) continue;
        if (cuts[a].elements.size() >= cuts[b].elements.size()) continue;
        if ((fp[a] & ~fp[b]) != 0) continue;  // cannot be a subset
        if (std::includes(cuts[b].elements.begin(), cuts[b].elements.end(),
                          cuts[a].elements.begin(), cuts[a].elements.end())) {
          dead[b] = true;
        }
      }
    }
    // Masked cost dominance (facts only): drop B when some A has a
    // boundary no larger and a STRICTLY lower LUT cost. Without facts
    // every Lut cut of a node prices each costed root bit at one LUT, so
    // costs barely differ across cuts and the baseline enumeration is
    // left untouched. Under masking, known bits hard-wire into LUT masks
    // and give deep cones genuinely lower costs; keeping cuts beaten on
    // both size and cost only bloats the MILP's selection space. The
    // unit/carry fallback is always kept.
    if (facts != nullptr) {
      for (std::size_t a = 0; a < cuts.size(); ++a) {
        if (dead[a]) continue;
        for (std::size_t b = 0; b < cuts.size(); ++b) {
          if (a == b || dead[b] || cuts[b].isUnit) continue;
          if (cuts[a].lutCost < cuts[b].lutCost &&
              cuts[a].elements.size() <= cuts[b].elements.size()) {
            dead[b] = true;
          }
        }
      }
    }

    std::vector<Cut> kept;
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      if (!dead[i]) kept.push_back(std::move(cuts[i]));
    }

    // Priority stage: strategy ranking, always keeping the unit/carry
    // fallback when the cap would drop it.
    std::stable_sort(kept.begin(), kept.end(),
                     [this](const Cut& a, const Cut& b) {
                       return strategyBefore(opts.strategy, a, b);
                     });
    if (static_cast<int>(kept.size()) > opts.maxCutsPerNode) {
      const auto unitIt = std::find_if(kept.begin(), kept.end(),
                                       [](const Cut& c) { return c.isUnit; });
      Cut unit;
      bool saveUnit = false;
      if (unitIt != kept.end() &&
          unitIt - kept.begin() >= opts.maxCutsPerNode) {
        unit = *unitIt;
        saveUnit = true;
      }
      kept.resize(opts.maxCutsPerNode);
      if (saveUnit) kept.back() = std::move(unit);
    }
    cuts = std::move(kept);
  }

  // --- per-node driver -----------------------------------------------------

  /// Computes node v's cut set from the final sets of its dist-0 fanins.
  void computeNode(NodeId v, Workspace& ws) {
    obs::Span span("cut_node", "cut_enum");
    const Node& n = g.node(v);
    std::vector<Cut>& cuts = cutsOf[v].cuts;
    switch (ir::opClass(n.kind)) {
      case OpClass::Io:
        if (n.kind == OpKind::Output) {
          cuts.push_back(makePortCut(g, v, CutKind::Sink));
        }
        break;  // Input/Const: boundary-only, no selectable cuts
      case OpClass::BlackBox:
        cuts.push_back(makePortCut(g, v, CutKind::BlackBox));
        break;
      default:
        candidates(v, ws, /*unitOnly=*/false);
        cuts = std::move(ws.result);
        ws.result = {};
        break;
    }
  }
};

void recordMetrics(const CutDatabase& db, std::size_t nodes) {
  auto& reg = obs::Registry::global();
  reg.counter("lamp_cutenum_nodes_total", "Cut sets computed by the enumerator")
      .inc(nodes);
  reg.counter("lamp_cutenum_cuts_total", "Cuts produced by the enumerator")
      .inc(db.totalCuts);
}

}  // namespace

std::string Cut::str(const ir::Graph& g) const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i) os << ", ";
    const Node& n = g.node(elements[i].node);
    if (!n.name.empty()) {
      os << n.name;
    } else {
      os << ir::opKindName(n.kind) << elements[i].node;
    }
    if (elements[i].dist) os << "@-" << elements[i].dist;
  }
  os << "}";
  switch (kind) {
    case CutKind::Carry: os << " carry"; break;
    case CutKind::BlackBox: os << " bb"; break;
    case CutKind::Sink: os << " out"; break;
    case CutKind::Lut:
      os << " lut:" << lutCost << " sup:" << maxSupport;
      break;
  }
  return os.str();
}

CutDatabase enumerateCuts(const Graph& g, const CutEnumOptions& opts) {
  obs::Span span("cut_enum", "flow");
  const auto start = std::chrono::steady_clock::now();
  Enumerator e(g, opts);
  Workspace ws;
  const std::vector<NodeId> order = ir::topologicalOrder(g);
  for (const NodeId v : order) e.computeNode(v, ws);
  CutDatabase db;
  db.cutsOf = std::move(e.cutsOf);
  for (const CutSet& cs : db.cutsOf) db.totalCuts += cs.cuts.size();
  recordMetrics(db, order.size());
  span.endArgs("{\"totalCuts\":" + std::to_string(db.totalCuts) + "}");
  db.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return db;
}

CutDatabase trivialCuts(const Graph& g, const CutEnumOptions& opts) {
  const auto start = std::chrono::steady_clock::now();
  CutDatabase db;
  db.cutsOf.resize(g.size());
  Enumerator e(g, opts);  // reuse the unit-cut composition path
  Workspace ws;
  for (NodeId v = 0; v < g.size(); ++v) {
    const Node& n = g.node(v);
    switch (ir::opClass(n.kind)) {
      case OpClass::Io:
        if (n.kind == OpKind::Output) {
          db.cutsOf[v].cuts.push_back(makePortCut(g, v, CutKind::Sink));
        }
        break;
      case OpClass::BlackBox:
        db.cutsOf[v].cuts.push_back(makePortCut(g, v, CutKind::BlackBox));
        break;
      default: {
        e.candidates(v, ws, /*unitOnly=*/true);
        if (!ws.result.empty()) {
          db.cutsOf[v].cuts.push_back(std::move(ws.result.front()));
        } else {
          db.cutsOf[v].cuts.push_back(makeCarryCut(g, v));
        }
        break;
      }
    }
    db.totalCuts += db.cutsOf[v].cuts.size();
  }
  db.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return db;
}

}  // namespace lamp::cut
