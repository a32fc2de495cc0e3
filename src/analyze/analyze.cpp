#include "analyze/analyze.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <set>
#include <sstream>

#include "analyze/dataflow.h"
#include "analyze/schedspace.h"
#include "cut/cut.h"
#include "cut/dep.h"
#include "ir/passes.h"
#include "sched/sdc.h"

namespace lamp::analyze {

using ir::Edge;
using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpClass;
using ir::OpKind;

namespace {

std::string nodeLabel(const Graph& g, NodeId id) {
  std::ostringstream os;
  os << "node " << id;
  if (id < g.size()) {
    const Node& n = g.node(id);
    os << " (" << ir::opKindName(n.kind);
    if (!n.name.empty()) os << " '" << n.name << "'";
    os << ")";
  }
  return os.str();
}

std::string formatNs(double ns) {
  std::ostringstream os;
  os << ns;
  return os.str();
}

/// Nodes reachable (against edges, any distance) from an Output or Store.
std::vector<bool> liveSet(const Graph& g) {
  std::vector<bool> live(g.size(), false);
  std::vector<NodeId> stack;
  for (NodeId id = 0; id < g.size(); ++id) {
    const OpKind k = g.node(id).kind;
    if (k == OpKind::Output || k == OpKind::Store) {
      live[id] = true;
      stack.push_back(id);
    }
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (const Edge& e : g.node(id).operands) {
      if (e.src < g.size() && !live[e.src]) {
        live[e.src] = true;
        stack.push_back(e.src);
      }
    }
  }
  return live;
}

// ---------------------------------------------------------------------------
// structure: LAMP007 (ir::verifyAll) + LAMP009 (no observable sinks)

void runStructure(const Graph& g, const AnalysisOptions&,
                  AnalysisReport& report) {
  for (const ir::VerifyIssue& issue : ir::verifyAll(g)) {
    Diagnostic d;
    d.code = std::string(kCodeStructural);
    d.severity = Severity::Error;
    d.message = issue.message;
    if (issue.node != ir::kNoNode) d.nodes.push_back(issue.node);
    d.hint = "fix the CDFG construction; see ir::verifyAll";
    report.diagnostics.push_back(std::move(d));
    report.structurallyValid = false;
  }
  bool hasSink = false;
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::Output || n.kind == OpKind::Store) {
      hasSink = true;
      break;
    }
  }
  if (!hasSink && g.size() > 0) {
    Diagnostic d;
    d.code = std::string(kCodeNoSinks);
    d.severity = Severity::Warning;
    d.message = "graph has no Output or Store node; nothing is observable";
    d.hint = "add outputs, or the whole graph is dead code";
    report.diagnostics.push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// clock: LAMP001 — indivisible mapped delay above the clock target

void runClock(const Graph& g, const AnalysisOptions& opts,
              AnalysisReport& report) {
  std::vector<NodeId> offenders;
  NodeId slowest = ir::kNoNode;
  double slowestNs = 0.0;
  for (NodeId id = 0; id < g.size(); ++id) {
    const Node& n = g.node(id);
    // Black boxes are pipelined IP: latencyCycles()/remainderNs() spread
    // their delay over cycles, so only fabric logic is indivisible.
    if (ir::isBlackBox(n.kind)) continue;
    const double d = opts.delays.rootDelay(g, id);
    if (d <= opts.tcpNs + 1e-9) continue;
    offenders.push_back(id);
    if (d > slowestNs) {
      slowestNs = d;
      slowest = id;
    }
  }
  if (offenders.empty()) return;
  Diagnostic d;
  d.code = std::string(kCodeClockInfeasible);
  d.severity = Severity::Error;
  std::ostringstream os;
  os << offenders.size() << " operation(s) have an indivisible mapped delay "
     << "above the " << formatNs(opts.tcpNs) << " ns clock target; slowest is "
     << nodeLabel(g, slowest) << " at " << formatNs(slowestNs) << " ns";
  d.message = os.str();
  d.nodes = std::move(offenders);
  d.hint = "raise tcpNs to at least " + formatNs(slowestNs) +
           " ns or narrow the operation: a LUT level or carry chain cannot "
           "be split across cycles (Eq. 8)";
  report.diagnostics.push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// recurrence: LAMP002 — recMII from loop-carried cycles

struct RecArc {
  NodeId from = 0;
  NodeId to = 0;
  int lat = 0;
  int dist = 0;
};

/// Bellman-Ford longest-path positive-cycle detection on arcs weighted
/// lat(from) - ii*dist. A positive cycle means some loop-carried cycle
/// has sum(lat) > ii * sum(dist), i.e. Eq. 7 is unsatisfiable at `ii`.
/// When `cycleOut` is non-null and a cycle is found, it receives the
/// node list of one binding cycle (in dependence order).
bool hasPositiveCycle(const Graph& g, const std::vector<RecArc>& arcs, int ii,
                      std::vector<NodeId>* cycleOut) {
  const std::size_t n = g.size();
  if (n == 0 || arcs.empty()) return false;
  std::vector<long long> dist(n, 0);
  std::vector<std::int64_t> parent(n, -1);
  NodeId last = ir::kNoNode;
  for (std::size_t round = 0; round <= n; ++round) {
    bool changed = false;
    for (std::size_t a = 0; a < arcs.size(); ++a) {
      const RecArc& arc = arcs[a];
      const long long w =
          static_cast<long long>(arc.lat) - static_cast<long long>(ii) * arc.dist;
      if (dist[arc.from] + w > dist[arc.to]) {
        dist[arc.to] = dist[arc.from] + w;
        parent[arc.to] = static_cast<std::int64_t>(a);
        changed = true;
        last = arc.to;
      }
    }
    if (!changed) return false;
  }
  if (cycleOut) {
    // Walk predecessor arcs n steps to land inside a cycle, then collect.
    NodeId x = last;
    for (std::size_t i = 0; i < n && parent[x] >= 0; ++i) {
      x = arcs[static_cast<std::size_t>(parent[x])].from;
    }
    std::vector<NodeId> cycle;
    NodeId cur = x;
    do {
      cycle.push_back(cur);
      if (parent[cur] < 0) break;
      cur = arcs[static_cast<std::size_t>(parent[cur])].from;
    } while (cur != x && cycle.size() <= n);
    std::reverse(cycle.begin(), cycle.end());
    *cycleOut = std::move(cycle);
  }
  return true;
}

}  // namespace

Recurrence recurrenceMii(const Graph& g, const sched::DelayModel& dm,
                         double tcpNs) {
  std::vector<RecArc> arcs;
  long long totalLat = 0;
  bool anyCarried = false;
  for (NodeId v = 0; v < g.size(); ++v) {
    for (const Edge& e : g.node(v).operands) {
      if (e.src >= g.size()) continue;
      RecArc arc;
      arc.from = e.src;
      arc.to = v;
      arc.lat = dm.latencyCycles(g, e.src, tcpNs);
      arc.dist = static_cast<int>(e.dist);
      if (arc.dist > 0) anyCarried = true;
      totalLat += arc.lat;
      arcs.push_back(arc);
    }
  }
  Recurrence r;
  if (!anyCarried) return r;
  if (!hasPositiveCycle(g, arcs, 1, nullptr)) return r;
  // Smallest feasible II lies in (1, cap]: a cycle's latency sum is at
  // most totalLat, so II = totalLat + 1 always satisfies every cycle.
  int lo = 2;
  int hi = static_cast<int>(std::min<long long>(totalLat + 1, 1 << 24));
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (hasPositiveCycle(g, arcs, mid, nullptr)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  r.recMii = lo;
  hasPositiveCycle(g, arcs, lo - 1, &r.cycle);
  return r;
}

int resourceMii(const Graph& g, const sched::ResourceLimits& limits) {
  int mii = 1;
  for (const auto& [rc, limit] : limits) {
    if (limit <= 0) continue;
    int count = 0;
    for (const Node& n : g.nodes()) {
      if (ir::isBlackBox(n.kind) && n.resourceClass() == rc) ++count;
    }
    mii = std::max(mii, (count + limit - 1) / limit);
  }
  return mii;
}

namespace {

void runRecurrence(const Graph& g, const AnalysisOptions& opts,
                   AnalysisReport& report) {
  const Recurrence r = recurrenceMii(g, opts.delays, opts.tcpNs);
  report.recMii = r.recMii;
  if (r.recMii <= opts.ii) return;
  Diagnostic d;
  d.code = std::string(kCodeRecurrenceMii);
  d.severity = r.recMii > opts.maxIi ? Severity::Error : Severity::Warning;
  std::ostringstream os;
  os << "a loop-carried recurrence through " << r.cycle.size()
     << " node(s) requires II >= " << r.recMii << " (requested II=" << opts.ii
     << ")";
  d.message = os.str();
  d.nodes = r.cycle;
  if (d.severity == Severity::Error) {
    d.hint = "request ii >= " + std::to_string(r.recMii) +
             " or shorten the recurrence (fewer multi-cycle ops on the cycle)";
  } else {
    d.hint = "the flow will retry and is expected to settle at II=" +
             std::to_string(r.recMii);
  }
  report.diagnostics.push_back(std::move(d));
}

void runResources(const Graph& g, const AnalysisOptions& opts,
                  AnalysisReport& report) {
  report.resMii = resourceMii(g, opts.resources);
  for (const auto& [rc, limit] : opts.resources) {
    std::vector<NodeId> members;
    for (NodeId id = 0; id < g.size(); ++id) {
      const Node& n = g.node(id);
      if (ir::isBlackBox(n.kind) && n.resourceClass() == rc) {
        members.push_back(id);
      }
    }
    if (members.empty()) continue;
    if (limit <= 0) {
      Diagnostic d;
      d.code = std::string(kCodeResourceMii);
      d.severity = Severity::Error;
      d.message = "resource class " +
                  std::string(ir::resourceClassName(rc)) +
                  " has limit 0 but " + std::to_string(members.size()) +
                  " operation(s) need it";
      d.nodes = std::move(members);
      d.hint = "raise the resource limit";
      report.diagnostics.push_back(std::move(d));
      continue;
    }
    const int mii =
        (static_cast<int>(members.size()) + limit - 1) / limit;
    if (mii <= opts.ii) continue;
    Diagnostic d;
    d.code = std::string(kCodeResourceMii);
    d.severity = mii > opts.maxIi ? Severity::Error : Severity::Warning;
    std::ostringstream os;
    os << members.size() << " operation(s) compete for " << limit << " "
       << ir::resourceClassName(rc) << " unit(s), requiring II >= " << mii
       << " (requested II=" << opts.ii << ")";
    d.message = os.str();
    d.nodes = std::move(members);
    d.hint = d.severity == Severity::Error
                 ? "request ii >= " + std::to_string(mii) +
                       " or raise the resource limit"
                 : "the flow will retry and is expected to settle at II=" +
                       std::to_string(mii);
    report.diagnostics.push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// cones: LAMP004 — support that can never be K-feasible

void runCones(const Graph& g, const AnalysisOptions& opts,
              AnalysisReport& report) {
  const std::vector<bool> live = liveSet(g);
  std::vector<NodeId> offenders;
  NodeId worstNode = ir::kNoNode;
  int worstSupport = 0;
  int worstBit = 0;
  for (NodeId id = 0; id < g.size(); ++id) {
    const Node& n = g.node(id);
    if (!live[id]) continue;  // dead cones never need a root
    if (!ir::isLutMappable(n.kind)) continue;
    // Arith roots always have the carry-macro fallback cut, so only
    // LUT-only classes can be unmappable (see cut::enumerateCuts).
    if (ir::opClass(n.kind) == OpClass::Arith) continue;
    for (std::uint16_t bit = 0; bit < n.width; ++bit) {
      std::set<cut::BitKey> boundary;
      for (const cut::DepBit& dep : cut::depBits(g, id, bit)) {
        const Edge& e = n.operands[dep.operandIndex];
        const Node& src = g.node(e.src);
        // Bits that no cut can absorb: loop-carried operands (cuts are
        // combinational) and non-LUT sources (inputs, black boxes).
        // Every cut of this bit keeps them on its boundary, so more
        // than K of them proves no K-feasible cut exists.
        if (e.dist == 0 && ir::isLutMappable(src.kind)) continue;
        boundary.insert(cut::makeBitKey(e.src, e.dist, dep.bit));
      }
      const int support = static_cast<int>(boundary.size());
      if (support <= opts.k) continue;
      if (offenders.empty() || offenders.back() != id) offenders.push_back(id);
      if (support > worstSupport) {
        worstSupport = support;
        worstNode = id;
        worstBit = bit;
      }
    }
  }
  if (offenders.empty()) return;
  Diagnostic d;
  d.code = std::string(kCodeUnmappableCone);
  d.severity = opts.mappingAware ? Severity::Error : Severity::Warning;
  std::ostringstream os;
  os << offenders.size() << " node(s) have output bits whose unabsorbable "
     << "support exceeds K=" << opts.k << "; worst is " << nodeLabel(g, worstNode)
     << " bit " << worstBit << " needing " << worstSupport
     << " boundary bits — no K-feasible cut exists";
  d.message = os.str();
  d.nodes = std::move(offenders);
  d.hint = opts.mappingAware
               ? "raise k (lampc --k, 2..8) or decompose the operation"
               : "mapping-aware scheduling of this graph needs a larger k";
  report.diagnostics.push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// liveness: LAMP005 dead nodes, LAMP006 unused inputs

void runLiveness(const Graph& g, const AnalysisOptions&,
                 AnalysisReport& report) {
  const std::vector<bool> live = liveSet(g);
  std::vector<NodeId> dead;
  std::vector<NodeId> unusedInputs;
  for (NodeId id = 0; id < g.size(); ++id) {
    if (live[id]) continue;
    const OpKind k = g.node(id).kind;
    if (k == OpKind::Input) {
      unusedInputs.push_back(id);
    } else if (k != OpKind::Const) {
      dead.push_back(id);
    }
  }
  if (!dead.empty()) {
    Diagnostic d;
    d.code = std::string(kCodeDeadNode);
    d.severity = Severity::Warning;
    d.message = std::to_string(dead.size()) +
                " node(s) unreachable from any Output/Store";
    d.nodes = std::move(dead);
    d.hint = "run ir::simplify (lampc --simplify) to drop dead logic "
             "before scheduling";
    report.diagnostics.push_back(std::move(d));
  }
  if (!unusedInputs.empty()) {
    Diagnostic d;
    d.code = std::string(kCodeUnusedInput);
    d.severity = Severity::Warning;
    d.message = std::to_string(unusedInputs.size()) +
                " input(s) never reach an Output/Store";
    d.nodes = std::move(unusedInputs);
    d.hint = "drop the input or wire it to an output";
    report.diagnostics.push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// fold: LAMP008 — constant-foldable islands

void runFold(const Graph& g, const AnalysisOptions&, AnalysisReport& report) {
  std::vector<bool> isConst(g.size(), false);
  std::vector<NodeId> island;
  for (NodeId id : ir::topologicalOrder(g)) {
    const Node& n = g.node(id);
    if (n.kind == OpKind::Const) {
      isConst[id] = true;
      continue;
    }
    if (!ir::isLutMappable(n.kind) || n.operands.empty()) continue;
    bool allConst = true;
    for (const Edge& e : n.operands) {
      // Loop-carried operands read register resets on early iterations,
      // so they are never constant (matches ir::simplify).
      if (e.dist != 0 || !isConst[e.src]) {
        allConst = false;
        break;
      }
    }
    if (!allConst) continue;
    isConst[id] = true;
    island.push_back(id);
  }
  if (island.empty()) return;
  Diagnostic d;
  d.code = std::string(kCodeConstFoldable);
  d.severity = Severity::Info;
  d.message = std::to_string(island.size()) +
              " node(s) compute constants (foldable island)";
  d.nodes = std::move(island);
  d.hint = "run ir::simplify (lampc --simplify) so the solver never sees "
           "them";
  report.diagnostics.push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// dataflow: LAMP010-013 — bit-level findings from the fixpoint engine

void runDataflow(const Graph& g, const AnalysisOptions&,
                 AnalysisReport& report) {
  const DataflowResult flow = analyzeDataflow(g);
  const std::vector<bool> live = liveSet(g);

  // Nodes whose value is constant because every (dist-0) operand is
  // constant belong to LAMP008's const-island finding; reporting their
  // known compares/selects again here would be noise.
  std::vector<bool> isConst(g.size(), false);
  for (NodeId id : ir::topologicalOrder(g)) {
    const Node& n = g.node(id);
    if (n.kind == OpKind::Const) {
      isConst[id] = true;
      continue;
    }
    if (!ir::isLutMappable(n.kind) || n.operands.empty()) continue;
    bool allConst = true;
    for (const Edge& e : n.operands) {
      if (e.dist != 0 || !isConst[e.src]) {
        allConst = false;
        break;
      }
    }
    isConst[id] = allConst;
  }

  const auto mask = [](int w) {
    return w >= 64 ? ~0ull : (1ull << w) - 1;
  };
  // Known bit of `e`'s value as its consumer reads it: through a
  // register (dist > 0) only known-0 survives, because the reset value
  // 0 must agree with the proven bit.
  const auto readBit = [&](const Edge& e, std::uint16_t bit, bool& value) {
    const NodeBits& b = flow.bits[e.src];
    if (((b.knownMask >> bit) & 1) == 0) return false;
    const bool v = ((b.knownVal >> bit) & 1) != 0;
    if (e.dist > 0 && v) return false;
    value = e.dist > 0 ? false : v;
    return true;
  };

  // LAMP010: top output bits no reachable value can set.
  {
    std::vector<NodeId> offenders;
    int totalBits = 0;
    NodeId worst = ir::kNoNode;
    int worstBits = 0;
    for (NodeId id = 0; id < g.size(); ++id) {
      const Node& n = g.node(id);
      if (n.kind != OpKind::Output || n.width == 0) continue;
      const NodeBits& b = flow.bits[id];
      const std::uint64_t zeros = b.knownMask & ~b.knownVal & mask(n.width);
      int top = 0;
      for (int j = n.width - 1; j >= 0 && ((zeros >> j) & 1) != 0; --j) ++top;
      if (top == 0) continue;
      offenders.push_back(id);
      totalBits += top;
      if (top > worstBits) {
        worstBits = top;
        worst = id;
      }
    }
    if (!offenders.empty()) {
      Diagnostic d;
      d.code = std::string(kCodeDeadOutputBits);
      d.severity = Severity::Info;
      std::ostringstream os;
      os << totalBits << " output bit(s) across " << offenders.size()
         << " port(s) are provably zero; worst is " << nodeLabel(g, worst)
         << " whose top " << worstBits << " bit(s) never rise";
      d.message = os.str();
      d.nodes = std::move(offenders);
      d.hint = "narrow the output port (or enable FlowOptions::simplify "
               "to let the flow narrow internally)";
      report.diagnostics.push_back(std::move(d));
    }
  }

  // LAMP011: truncations that always lose set bits.
  {
    std::vector<NodeId> offenders;
    for (NodeId id = 0; id < g.size(); ++id) {
      const Node& n = g.node(id);
      if (!live[id] || isConst[id] || n.kind != OpKind::Slice) continue;
      const Edge& e = n.operands[0];
      const std::uint16_t srcWidth = g.node(e.src).width;
      const std::uint64_t kept = mask(n.width) << n.attr0;
      const std::uint64_t dropped = mask(srcWidth) & ~kept;
      // Only dist-0 known-1 bits prove a loss (see readBit).
      const NodeBits& b = flow.bits[e.src];
      const std::uint64_t ones =
          e.dist == 0 ? (b.knownMask & b.knownVal) : 0;
      if ((ones & dropped) != 0) offenders.push_back(id);
    }
    if (!offenders.empty()) {
      Diagnostic d;
      d.code = std::string(kCodeOverflowTruncation);
      d.severity = Severity::Warning;
      d.message = std::to_string(offenders.size()) +
                  " truncation(s) always drop bits that are provably set "
                  "(the sliced-away range contains known-1 bits)";
      d.nodes = std::move(offenders);
      d.hint = "widen the slice or fix the producer; the dropped bits can "
               "never reach an observer";
      report.diagnostics.push_back(std::move(d));
    }
  }

  // LAMP012: comparisons whose outcome is proven.
  {
    std::vector<NodeId> offenders;
    bool anyTrue = false, anyFalse = false;
    for (NodeId id = 0; id < g.size(); ++id) {
      const Node& n = g.node(id);
      if (!live[id] || isConst[id]) continue;
      if (n.kind != OpKind::Eq && n.kind != OpKind::Ne &&
          n.kind != OpKind::Lt && n.kind != OpKind::Le &&
          n.kind != OpKind::Gt && n.kind != OpKind::Ge) {
        continue;
      }
      const NodeBits& b = flow.bits[id];
      if ((b.knownMask & 1) == 0) continue;
      offenders.push_back(id);
      ((b.knownVal & 1) != 0 ? anyTrue : anyFalse) = true;
    }
    if (!offenders.empty()) {
      Diagnostic d;
      d.code = std::string(kCodeConstantCompare);
      d.severity = Severity::Warning;
      std::string kinds = anyTrue && anyFalse ? "always-true/always-false"
                          : anyTrue           ? "always-true"
                                              : "always-false";
      d.message = std::to_string(offenders.size()) + " " + kinds +
                  " comparison(s): the operand ranges/bits prove the "
                  "result before any input arrives";
      d.nodes = std::move(offenders);
      d.hint = "replace the comparison with a constant (or enable "
               "FlowOptions::simplify to fold it)";
      report.diagnostics.push_back(std::move(d));
    }
  }

  // LAMP013: mux arms no select value reaches.
  {
    std::vector<NodeId> offenders;
    for (NodeId id = 0; id < g.size(); ++id) {
      const Node& n = g.node(id);
      if (!live[id] || isConst[id] || n.kind != OpKind::Mux) continue;
      bool sel = false;
      if (!readBit(n.operands[0], 0, sel)) continue;
      // The select itself being a const island is LAMP008 territory.
      if (g.node(n.operands[0].src).kind == OpKind::Const ||
          isConst[n.operands[0].src]) {
        continue;
      }
      offenders.push_back(id);
    }
    if (!offenders.empty()) {
      Diagnostic d;
      d.code = std::string(kCodeDeadMuxArm);
      d.severity = Severity::Warning;
      d.message = std::to_string(offenders.size()) +
                  " mux(es) have a proven select: one data arm can never "
                  "be chosen";
      d.nodes = std::move(offenders);
      d.hint = "drop the dead arm (or enable FlowOptions::simplify to "
               "forward the live one)";
      report.diagnostics.push_back(std::move(d));
    }
  }
}

// ---------------------------------------------------------------------------
// schedspace: LAMP017 (zero mobility on the binding cycle), LAMP018
// (probing-proved infeasibility), LAMP019 (symmetry orbits), LAMP020
// (empty chaining-tightened windows)

void runSchedSpace(const Graph& g, const AnalysisOptions& opts,
                   AnalysisReport& report) {
  if (!opts.schedSpace) return;

  // Mirror flow::runFlow's latency bound: the SDC schedule's depth plus
  // a one-cycle margin. When the SDC heuristic itself fails at an II the
  // earlier passes (recurrence/resources) already explain why — skip.
  const cut::CutDatabase trivial = cut::trivialCuts(g);
  const auto runAt = [&](int ii) -> std::optional<SchedSpace> {
    sched::SdcOptions so;
    so.ii = ii;
    so.tcpNs = opts.tcpNs;
    so.resources = opts.resources;
    const sched::SdcResult sdc =
        sched::sdcSchedule(g, trivial, opts.delays, so);
    if (!sdc.success) return std::nullopt;
    SchedSpaceOptions sso;
    sso.ii = ii;
    sso.tcpNs = opts.tcpNs;
    sso.maxLatency = opts.maxLatency > 0 ? opts.maxLatency
                                         : sdc.schedule.latency(g) + 1;
    sso.mappingAware = opts.mappingAware;
    sso.resources = opts.resources;
    sso.probeBudgetMs = opts.analyzeBudgetMs;
    return computeSchedSpace(g, opts.delays, sso);
  };

  const std::optional<SchedSpace> ss = runAt(opts.ii);
  if (!ss.has_value()) return;

  if (!ss->feasible) {
    // Error only when the proof still stands at the largest fallback II
    // the caller would retry; otherwise the flow will bump II and
    // succeed, so it is a Warning about the *requested* II.
    bool fatal = opts.maxIi <= opts.ii;
    if (!fatal) {
      const std::optional<SchedSpace> at = runAt(opts.maxIi);
      fatal = at.has_value() && !at->feasible;
    }
    Diagnostic d;
    d.severity = fatal ? Severity::Error : Severity::Warning;
    if (!ss->conflictClique.empty() || ss->emptyWindow.empty()) {
      d.code = std::string(kCodeProbeInfeasible);
      d.message = "implication probing proves II=" +
                  std::to_string(opts.ii) + " infeasible: " +
                  ss->infeasibleReason;
      d.nodes = ss->conflictClique;
      d.hint = fatal ? "raise the resource limits or the II ceiling; the "
                       "conflicting operations can never share the "
                       "available modulo slots"
                     : "the flow will retry at a larger II";
    } else {
      d.code = std::string(kCodeEmptyWindow);
      d.message = "chaining-tightened mobility windows are empty at II=" +
                  std::to_string(opts.ii) + ": " + ss->infeasibleReason;
      d.nodes = ss->emptyWindow;
      d.hint = fatal ? "relax the clock target or latency bound; "
                       "accumulated intra-cycle delay leaves these "
                       "operations no legal start cycle"
                     : "the flow will retry at a larger II";
    }
    report.diagnostics.push_back(std::move(d));
    return;
  }

  // LAMP017: zero-mobility ops that sit on a binding recurrence cycle.
  // These pin the schedule: any clock/latency tightening around them
  // flips the II infeasible, so they are the place to look first.
  const Recurrence rec = recurrenceMii(g, opts.delays, opts.tcpNs);
  if (!rec.cycle.empty() && !ss->zeroMobility.empty()) {
    std::set<NodeId> onCycle(rec.cycle.begin(), rec.cycle.end());
    std::vector<NodeId> pinned;
    for (const NodeId v : ss->zeroMobility) {
      if (onCycle.count(v) > 0) pinned.push_back(v);
    }
    if (!pinned.empty()) {
      Diagnostic d;
      d.code = std::string(kCodeZeroMobility);
      d.severity = Severity::Info;
      d.message = std::to_string(pinned.size()) +
                  " op(s) on the binding recurrence cycle have zero "
                  "mobility (a single legal start cycle) at II=" +
                  std::to_string(opts.ii);
      d.nodes = std::move(pinned);
      d.hint = "the critical recurrence admits no slack here; retiming "
               "or algorithmic changes must start at these operations";
      report.diagnostics.push_back(std::move(d));
    }
  }

  // LAMP019: symmetry orbits the MILP can order lexicographically.
  if (!ss->orbits.empty()) {
    std::vector<NodeId> members;
    std::size_t pairs = 0;
    for (const SymmetryOrbit& orbit : ss->orbits) {
      members.insert(members.end(), orbit.members.begin(),
                     orbit.members.end());
      pairs += orbit.members.size() - 1;
    }
    Diagnostic d;
    d.code = std::string(kCodeSymmetryOrbits);
    d.severity = Severity::Info;
    d.message = std::to_string(ss->orbits.size()) +
                " symmetry orbit(s) over " + std::to_string(members.size()) +
                " interchangeable op(s); " + std::to_string(pairs) +
                " lexicographic ordering row(s) prune permuted schedules";
    d.nodes = std::move(members);
    d.hint = "informational: the scheduler adds the ordering rows "
             "automatically, keeping one representative per permutation "
             "class";
    report.diagnostics.push_back(std::move(d));
  }
}

constexpr std::array<Pass, 9> kPasses = {{
    {"structure", "LAMP007,LAMP009",
     "IR well-formedness (all violations) and observable sinks", runStructure},
    {"clock", "LAMP001",
     "indivisible mapped delays vs the clock target (Eq. 8)", runClock},
    {"recurrence", "LAMP002",
     "recMII over loop-carried cycles (Eq. 7)", runRecurrence},
    {"resources", "LAMP003",
     "resMII per resource class (Eq. 14)", runResources},
    {"cones", "LAMP004",
     "cut support that can never be K-feasible", runCones},
    {"liveness", "LAMP005,LAMP006",
     "dead nodes and unused inputs", runLiveness},
    {"fold", "LAMP008",
     "constant-foldable islands", runFold},
    {"dataflow", "LAMP010,LAMP011,LAMP012,LAMP013",
     "bit-level known-bits/range/demanded findings", runDataflow},
    {"schedspace", "LAMP017,LAMP018,LAMP019,LAMP020",
     "schedule-space windows, implication probing, symmetry orbits",
     runSchedSpace},
}};

}  // namespace

bool AnalysisReport::hasErrors() const {
  return count(Severity::Error) > 0;
}

std::size_t AnalysisReport::count(Severity s) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == s) ++n;
  }
  return n;
}

std::span<const Pass> passRegistry() { return kPasses; }

AnalysisReport analyzeGraph(const Graph& g, const AnalysisOptions& opts) {
  AnalysisOptions o = opts;
  o.maxIi = std::max(o.maxIi, o.ii);
  AnalysisReport report;
  for (const Pass& pass : passRegistry()) {
    pass.run(g, o, report);
    // A malformed graph breaks the preconditions of every later pass
    // (topological order, DEP queries, delay lookups) — stop here.
    if (!report.structurallyValid) break;
  }
  return report;
}

std::string summarizeErrors(const AnalysisReport& report) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity != Severity::Error) continue;
    if (!out.empty()) out += "; ";
    out += "[" + d.code + "] " + d.message;
  }
  return out;
}

std::string renderReport(const Graph& g, const AnalysisReport& report) {
  std::ostringstream os;
  os << "graph '" << g.name() << "': " << g.size() << " nodes; recMII="
     << report.recMii << ", resMII=" << report.resMii << "; "
     << report.count(Severity::Error) << " error(s), "
     << report.count(Severity::Warning) << " warning(s), "
     << report.count(Severity::Info) << " info(s)\n";
  if (report.diagnostics.empty()) {
    os << "  no findings\n";
    return os.str();
  }
  for (const Diagnostic& d : report.diagnostics) {
    os << "  " << renderDiagnostic(g, d) << "\n";
  }
  return os.str();
}

util::Json reportToJson(const Graph& g, const AnalysisReport& report) {
  util::Json j = util::Json::object();
  j.set("graph", util::Json::string(g.name()));
  j.set("nodes", util::Json::integer(static_cast<std::int64_t>(g.size())));
  j.set("recMii", util::Json::integer(report.recMii));
  j.set("resMii", util::Json::integer(report.resMii));
  j.set("errors", util::Json::integer(
                      static_cast<std::int64_t>(report.count(Severity::Error))));
  j.set("warnings",
        util::Json::integer(
            static_cast<std::int64_t>(report.count(Severity::Warning))));
  j.set("infos", util::Json::integer(
                     static_cast<std::int64_t>(report.count(Severity::Info))));
  j.set("diagnostics", diagnosticsToJson(report.diagnostics));
  return j;
}

}  // namespace lamp::analyze
