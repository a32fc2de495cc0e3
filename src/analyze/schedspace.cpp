#include "analyze/schedspace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "ir/passes.h"

namespace lamp::analyze {

using ir::Edge;
using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpKind;

namespace {

/// Integer-cycle comparisons tolerate simplex-free exact arithmetic; the
/// ns-domain ones need slack for accumulated float error.
constexpr double kNsEps = 1e-4;

bool schedulable(const Node& n) { return n.kind != OpKind::Const; }

/// Kinds whose operand order is semantically irrelevant, so the
/// symmetry hash/verifier may re-align operands across candidates.
bool commutativeKind(OpKind k) {
  return k == OpKind::And || k == OpKind::Or || k == OpKind::Xor ||
         k == OpKind::Add || k == OpKind::Mul || k == OpKind::Eq ||
         k == OpKind::Ne;
}

/// One difference arc: S_v >= S_u + w (cycles) and T_v >= T_u + wNs
/// (T = S*Tcp + L, the absolute intra-pipeline start time in ns).
struct Arc {
  NodeId u = ir::kNoNode;
  NodeId v = ir::kNoNode;
  int w = 0;
  double wNs = 0.0;
};

/// Mutable per-node bounds the relaxation tightens. `lo`/`hi` bound the
/// cycle S, `loT`/`hiT` the ns start T.
struct State {
  std::vector<int> lo, hi;
  std::vector<double> loT, hiT;
};

/// Immutable relaxation inputs shared by the static pass and every probe.
struct System {
  const Graph* g = nullptr;
  double tcp = 10.0;
  std::vector<Arc> arcs;
  std::vector<char> isSched;  ///< schedulable(node)
  std::vector<char> isInput;
  std::vector<double> lub;  ///< upper bound on L in ns (0 for multi-cycle)
  int maxRounds = 64;
};

/// Bellman-Ford-style relaxation to a fixpoint, interleaving the integer
/// and ns domains. The coupling (T >= S*Tcp, T <= S*Tcp + lub) is where
/// accumulated remainders quantize into whole extra cycles. Bounds only
/// ever tighten, so stopping at any round — including the safety cap —
/// is sound. Returns false when some node's window empties.
bool propagate(const System& sys, State& st) {
  const double tcp = sys.tcp;
  const std::size_t n = sys.g->size();
  for (int round = 0; round < sys.maxRounds; ++round) {
    bool changed = false;
    for (const Arc& a : sys.arcs) {
      if (st.lo[a.u] + a.w > st.lo[a.v]) {
        st.lo[a.v] = st.lo[a.u] + a.w;
        changed = true;
      }
      if (st.hi[a.v] - a.w < st.hi[a.u]) {
        st.hi[a.u] = st.hi[a.v] - a.w;
        changed = true;
      }
      if (st.loT[a.u] + a.wNs > st.loT[a.v] + kNsEps) {
        st.loT[a.v] = st.loT[a.u] + a.wNs;
        changed = true;
      }
      if (st.hiT[a.v] - a.wNs < st.hiT[a.u] - kNsEps) {
        st.hiT[a.u] = st.hiT[a.v] - a.wNs;
        changed = true;
      }
    }
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      if (sys.isSched[v] == 0 || sys.isInput[v] != 0) continue;
      // T >= S*Tcp and T <= S*Tcp + lub, both directions.
      if (static_cast<double>(st.lo[v]) * tcp > st.loT[v] + kNsEps) {
        st.loT[v] = static_cast<double>(st.lo[v]) * tcp;
        changed = true;
      }
      const int loFromT = static_cast<int>(
          std::ceil((st.loT[v] - sys.lub[v]) / tcp - 1e-6));
      if (loFromT > st.lo[v]) {
        st.lo[v] = loFromT;
        changed = true;
      }
      if (static_cast<double>(st.hi[v]) * tcp + sys.lub[v] <
          st.hiT[v] - kNsEps) {
        st.hiT[v] = static_cast<double>(st.hi[v]) * tcp + sys.lub[v];
        changed = true;
      }
      const int hiFromT =
          static_cast<int>(std::floor(st.hiT[v] / tcp + 1e-6));
      if (hiFromT < st.hi[v]) {
        st.hi[v] = hiFromT;
        changed = true;
      }
      if (st.lo[v] > st.hi[v] || st.loT[v] > st.hiT[v] + kNsEps) {
        return false;
      }
    }
    if (!changed) return true;
  }
  return true;  // safety cap hit: current (valid) bounds stand
}

/// Outcome of the modulo-resource matching check.
struct MatchResult {
  bool ok = true;
  std::vector<NodeId> clique;
  std::string detail;
};

/// Necessary-condition check for the modulo resource rows (Eq. 14) under
/// the given windows: each class op must pick one modulo slot its window
/// reaches, and no slot can exceed its limit — a bipartite b-matching
/// (Hall's condition, checked by augmenting paths). Failure returns the
/// conflicting clique: the ops touched by the failed augmentation, whose
/// reachable slots are jointly over-subscribed.
MatchResult resourceMatch(const Graph& g, const sched::ResourceLimits& limits,
                          int ii, const State& st) {
  MatchResult res;
  for (const auto& [rc, limit] : limits) {
    std::vector<NodeId> ops;
    for (NodeId v = 0; v < static_cast<NodeId>(g.size()); ++v) {
      const Node& n = g.node(v);
      if (!ir::isBlackBox(n.kind) || n.resourceClass() != rc) continue;
      if (!schedulable(n)) continue;
      ops.push_back(v);
    }
    if (static_cast<int>(ops.size()) <= limit) continue;

    std::vector<std::vector<int>> slotsOf(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const NodeId v = ops[i];
      const int width = st.hi[v] - st.lo[v] + 1;
      if (width >= ii) {
        for (int m = 0; m < ii; ++m) slotsOf[i].push_back(m);
      } else {
        for (int t = st.lo[v]; t <= st.hi[v]; ++t) {
          slotsOf[i].push_back(((t % ii) + ii) % ii);
        }
      }
    }

    std::vector<std::vector<int>> slotOps(static_cast<std::size_t>(ii));
    std::vector<char> seen(static_cast<std::size_t>(ii), 0);
    std::vector<int> touched;
    std::function<bool(int)> aug = [&](int oi) -> bool {
      touched.push_back(oi);
      for (const int m : slotsOf[oi]) {
        if (seen[static_cast<std::size_t>(m)] != 0) continue;
        seen[static_cast<std::size_t>(m)] = 1;
        auto& occupants = slotOps[static_cast<std::size_t>(m)];
        if (static_cast<int>(occupants.size()) < limit) {
          occupants.push_back(oi);
          return true;
        }
        for (std::size_t j = 0; j < occupants.size(); ++j) {
          const int other = occupants[j];
          if (aug(other)) {
            occupants[j] = oi;  // `other` moved to the slot aug() found
            return true;
          }
        }
      }
      return false;
    };

    for (std::size_t i = 0; i < ops.size(); ++i) {
      std::fill(seen.begin(), seen.end(), 0);
      touched.clear();
      if (aug(static_cast<int>(i))) continue;
      res.ok = false;
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      for (const int oi : touched) {
        res.clique.push_back(ops[static_cast<std::size_t>(oi)]);
      }
      std::size_t reach = 0;
      for (const int oi : touched) {
        reach = std::max(reach, slotsOf[static_cast<std::size_t>(oi)].size());
      }
      std::ostringstream os;
      os << res.clique.size() << " "
         << ir::resourceClassName(rc) << " op(s) compete for at most "
         << reach << " modulo slot(s) of capacity " << limit << " at II="
         << ii;
      res.detail = os.str();
      return res;
    }
  }
  return res;
}

/// Fanin closure (operand edges, any distance) of a set of seed nodes.
std::vector<char> faninClosure(const Graph& g,
                               const std::vector<NodeId>& seeds) {
  std::vector<char> in(g.size(), 0);
  std::vector<NodeId> stack;
  for (const NodeId s : seeds) {
    if (in[s] == 0) {
      in[s] = 1;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const Edge& e : g.node(v).operands) {
      if (in[e.src] == 0) {
        in[e.src] = 1;
        stack.push_back(e.src);
      }
    }
  }
  return in;
}

}  // namespace

sched::ScheduleSpaceHints SchedSpace::toHints() const {
  sched::ScheduleSpaceHints h;
  h.feasible = feasible;
  h.asap = asap;
  h.alap = alap;
  h.forbidden = forbidden;
  h.branchPriority = branchPriority;
  h.live = live;
  for (const SymmetryOrbit& orbit : orbits) {
    for (std::size_t i = 0; i + 1 < orbit.members.size(); ++i) {
      h.precede.emplace_back(orbit.members[i], orbit.members[i + 1]);
    }
  }
  return h;
}

SchedSpace computeSchedSpace(const Graph& g, const sched::DelayModel& dm,
                             const SchedSpaceOptions& opts) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(
                         std::max(0, opts.probeBudgetMs));
  SchedSpace out;
  const std::size_t n = g.size();
  out.asap.assign(n, 0);
  out.alap.assign(n, opts.maxLatency);
  if (n == 0) return out;

  // --- relaxation inputs -----------------------------------------------------
  System sys;
  sys.g = &g;
  sys.tcp = opts.tcpNs;
  sys.maxRounds = static_cast<int>(n) * 2 + opts.maxLatency + 8;
  sys.isSched.assign(n, 0);
  sys.isInput.assign(n, 0);
  sys.lub.assign(n, 0.0);
  std::vector<int> lat(n, 0);
  std::vector<double> rem(n, 0.0);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    const Node& node = g.node(v);
    if (!schedulable(node)) continue;
    sys.isSched[v] = 1;
    sys.isInput[v] = node.kind == OpKind::Input ? 1 : 0;
    lat[v] = dm.latencyCycles(g, v, opts.tcpNs);
    rem[v] = dm.remainderNs(g, v, opts.tcpNs);
    sys.lub[v] = lat[v] > 0 ? 0.0 : std::max(0.0, opts.tcpNs - rem[v]);
    if (sys.isInput[v] != 0) sys.lub[v] = 0.0;
  }

  // Liveness (ancestors of observable sinks). In the mapping-agnostic
  // arm the cut-cover rows force every live node to be a root, so its
  // remainder is always charged on same-cycle consumers; dead nodes and
  // the mapping-aware arm get only the integer latency (their remainder
  // charge depends on which cuts the solver selects).
  std::vector<char> live(n, 0);
  {
    std::vector<NodeId> sinks;
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      const OpKind k = g.node(v).kind;
      if (k == OpKind::Output || k == OpKind::Store) sinks.push_back(v);
    }
    live = faninClosure(g, sinks);
  }
  out.live = live;
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    const Node& node = g.node(v);
    if (!schedulable(node)) continue;
    for (const Edge& e : node.operands) {
      if (!schedulable(g.node(e.src))) continue;
      const bool chainRem = !opts.mappingAware && live[e.src] != 0 &&
                            sys.isInput[e.src] == 0;
      Arc a;
      a.u = e.src;
      a.v = v;
      a.w = lat[e.src] - static_cast<int>(e.dist) * opts.ii;
      a.wNs = static_cast<double>(lat[e.src]) * opts.tcpNs +
              (chainRem ? rem[e.src] : 0.0) -
              static_cast<double>(e.dist) * opts.ii * opts.tcpNs;
      sys.arcs.push_back(a);
    }
  }

  // --- static windows --------------------------------------------------------
  State st;
  st.lo.assign(n, 0);
  st.hi.assign(n, opts.maxLatency);
  st.loT.assign(n, 0.0);
  st.hiT.assign(n, static_cast<double>(opts.maxLatency) * opts.tcpNs +
                       opts.tcpNs);
  const sched::Windows base =
      sched::computeWindows(g, dm, opts.ii, opts.tcpNs, opts.maxLatency);
  if (base.feasible) {
    st.lo = base.asap;
    st.hi = base.alap;
  }
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    if (sys.isInput[v] != 0) {
      st.lo[v] = 0;
      st.hi[v] = 0;
      st.loT[v] = 0.0;
      st.hiT[v] = 0.0;
    } else if (sys.isSched[v] != 0) {
      st.loT[v] = static_cast<double>(st.lo[v]) * opts.tcpNs;
      st.hiT[v] = static_cast<double>(st.hi[v]) * opts.tcpNs + sys.lub[v];
    }
  }

  if (!propagate(sys, st)) {
    out.feasible = false;
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      if (sys.isSched[v] != 0 &&
          (st.lo[v] > st.hi[v] || st.loT[v] > st.hiT[v] + kNsEps)) {
        out.emptyWindow.push_back(v);
      }
    }
    out.infeasibleReason =
        "chaining-tightened windows are empty at II=" +
        std::to_string(opts.ii) + ", latency bound " +
        std::to_string(opts.maxLatency);
    out.asap = st.lo;
    out.alap = st.hi;
    return out;
  }
  out.asap = st.lo;
  out.alap = st.hi;

  // --- static resource matching ----------------------------------------------
  {
    const MatchResult m = resourceMatch(g, opts.resources, opts.ii, st);
    if (!m.ok) {
      out.feasible = false;
      out.conflictClique = m.clique;
      out.infeasibleReason = "modulo resource matching infeasible: " +
                             m.detail;
      return out;
    }
  }

  // --- implication probing ---------------------------------------------------
  // Fixing s_{v,t} = 1 clamps S_v = t; the re-propagated system plus the
  // resource matching either survives (no deduction) or proves the
  // assignment impossible — the variable is then never created. Pure
  // integer difference systems have exact interval projections, so
  // probing can only deduce through the ns-domain quantization or the
  // resource matching; when neither applies it is skipped outright.
  const bool haveResources = [&] {
    for (const auto& [rc, limit] : opts.resources) {
      int count = 0;
      for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
        const Node& node = g.node(v);
        if (ir::isBlackBox(node.kind) && node.resourceClass() == rc &&
            schedulable(node)) {
          ++count;
        }
      }
      if (count > limit) return true;
    }
    return false;
  }();
  if (opts.probe && opts.probeBudgetMs > 0 &&
      (haveResources || !opts.mappingAware)) {
    std::vector<NodeId> order;
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      if (sys.isSched[v] == 0 || sys.isInput[v] != 0) continue;
      if (st.hi[v] - st.lo[v] < 1) continue;  // zero mobility: static fact
      order.push_back(v);
    }
    const auto rank = [&](NodeId v) {
      const Node& node = g.node(v);
      const bool res = ir::isBlackBox(node.kind) &&
                       opts.resources.count(node.resourceClass()) > 0;
      return std::make_pair(res ? 0 : 1, st.hi[v] - st.lo[v]);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](NodeId a, NodeId b) { return rank(a) < rank(b); });

    MatchResult lastFail;
    bool proven = false;
    for (const NodeId v : order) {
      if (proven || !out.probeComplete) break;
      int bannedHere = 0;
      const int width = st.hi[v] - st.lo[v] + 1;
      for (int t = st.lo[v]; t <= st.hi[v]; ++t) {
        if (Clock::now() > deadline) {
          out.probeComplete = false;
          break;
        }
        ++out.probesRun;
        State probe = st;
        probe.lo[v] = t;
        probe.hi[v] = t;
        probe.loT[v] = std::max(probe.loT[v],
                                static_cast<double>(t) * opts.tcpNs);
        probe.hiT[v] = std::min(
            probe.hiT[v], static_cast<double>(t) * opts.tcpNs + sys.lub[v]);
        bool feasible = probe.loT[v] <= probe.hiT[v] + kNsEps &&
                        propagate(sys, probe);
        if (feasible && haveResources) {
          const MatchResult m =
              resourceMatch(g, opts.resources, opts.ii, probe);
          if (!m.ok) {
            feasible = false;
            lastFail = m;
          }
        }
        if (!feasible) {
          out.forbidden.emplace_back(v, t);
          ++bannedHere;
        }
      }
      if (out.probeComplete && bannedHere == width) {
        // No start cycle of v survives: the II itself is infeasible.
        out.feasible = false;
        out.conflictClique =
            lastFail.clique.empty() ? std::vector<NodeId>{v}
                                    : lastFail.clique;
        out.infeasibleReason =
            "probing banned every start cycle of node " +
            std::to_string(v) +
            (lastFail.detail.empty() ? "" : " (" + lastFail.detail + ")");
        proven = true;
      }
    }
    if (out.feasible == false) return out;
  }

  // --- zero mobility ---------------------------------------------------------
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    if (sys.isSched[v] == 0 || sys.isInput[v] != 0) continue;
    if (st.lo[v] == st.hi[v]) out.zeroMobility.push_back(v);
  }

  // --- symmetry orbits -------------------------------------------------------
  // Two ops a, b are interchangeable when the scheduling constraint
  // system has an automorphism swapping them. The MILP sees only the
  // edge multiset (operand order never enters Eqs. 2-15), so the right
  // notion is graph isomorphism of fanin cones: the swap maps each
  // non-shared cone node of a to its counterpart under an injective map
  // pi, fixes everything else, and must preserve every edge. We detect
  // candidates with a structural hash over cones and confirm each with
  // an explicit verifier — a hash collision can only cost a row, never
  // soundness, because unverified members are dropped.
  //
  // Loop-carried (dist > 0) operands are kept literal in both the hash
  // and the verifier: the swap fixes everything outside the two cones,
  // so a back edge must point at the *same* node on both sides.
  // Commutative kinds sort child entries so operand order does not
  // split hash classes; the verifier re-aligns them by hash and falls
  // back to rejection when the greedy alignment fails (a sound false
  // negative). Constants hash their value — the mapping-aware arm's
  // masked cut enumeration keys on bit facts that depend on it.
  if (opts.symmetry) {
    const std::vector<NodeId> topo = ir::topologicalOrder(g);
    const auto mix = [](std::uint64_t a, std::uint64_t b) {
      a ^= b + 0x9e3779b97f4a7c15ULL + (a << 6U) + (a >> 2U);
      return a;
    };
    // Structural hash of each fanin cone, computed bottom-up in
    // topological order (node ids are NOT guaranteed topological).
    std::vector<std::uint64_t> hash(n, 0);
    for (const NodeId v : topo) {
      const Node& node = g.node(v);
      std::uint64_t hv =
          mix(static_cast<std::uint64_t>(node.kind) + 1,
              (static_cast<std::uint64_t>(node.width) << 2U) |
                  (node.isSigned ? 1ULL : 0ULL));
      hv = mix(hv, static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(node.attr0)));
      if (node.kind == OpKind::Const) hv = mix(hv, node.constValue);
      std::vector<std::uint64_t> children;
      children.reserve(node.operands.size());
      for (const Edge& e : node.operands) {
        const std::uint64_t base =
            e.dist == 0 ? hash[e.src]
                        : mix(0x5bf03635ULL,
                              static_cast<std::uint64_t>(e.src));
        children.push_back(mix(base, e.dist + 1ULL));
      }
      if (commutativeKind(node.kind)) {
        std::sort(children.begin(), children.end());
      }
      for (const std::uint64_t c : children) hv = mix(hv, c);
      hash[v] = mix(hv, node.operands.size() + 1);
    }

    // Verifier: builds pi over the non-shared cone pairs of (a, b) and
    // checks it is a set of *disjoint* transpositions (a node may not
    // appear as both a source and an image — chained pairs would not
    // compose into the involution the soundness argument swaps by).
    struct Matcher {
      const Graph& g;
      const std::vector<std::uint64_t>& hash;
      std::map<NodeId, NodeId> pi, inv;
      std::size_t visited = 0;

      bool match(NodeId a, NodeId b) {  // NOLINT(misc-no-recursion)
        if (a == b) return true;  // shared node, fixed by the swap
        if (++visited > 4096) return false;  // work cap, sound to stop
        const auto it = pi.find(a);
        if (it != pi.end()) return it->second == b;
        // Injectivity and disjointness of the transpositions.
        if (inv.count(a) != 0 || inv.count(b) != 0 ||
            pi.count(b) != 0) {
          return false;
        }
        const Node& na = g.node(a);
        const Node& nb = g.node(b);
        if (na.kind != nb.kind || na.width != nb.width ||
            na.isSigned != nb.isSigned || na.attr0 != nb.attr0 ||
            na.operands.size() != nb.operands.size()) {
          return false;
        }
        if (na.kind == OpKind::Const && na.constValue != nb.constValue) {
          return false;
        }
        pi[a] = b;
        inv[b] = a;
        std::vector<Edge> ea = na.operands;
        std::vector<Edge> eb = nb.operands;
        if (commutativeKind(na.kind)) {
          const auto key = [this](const Edge& e) {
            return std::make_tuple(
                e.dist, e.dist == 0 ? hash[e.src] : 0, e.src);
          };
          const auto byKey = [&key](const Edge& x, const Edge& y) {
            return key(x) < key(y);
          };
          std::sort(ea.begin(), ea.end(), byKey);
          std::sort(eb.begin(), eb.end(), byKey);
        }
        for (std::size_t i = 0; i < ea.size(); ++i) {
          if (ea[i].dist != eb[i].dist) return false;
          if (ea[i].dist != 0) {
            if (ea[i].src != eb[i].src) return false;  // literal back edge
            continue;
          }
          if (!match(ea[i].src, eb[i].src)) return false;
        }
        return true;
      }
    };

    // Consumer check: for every matched pair (x, y), the consumer edge
    // multiset of x must map onto that of y under the swap (pi on cone
    // nodes, identity elsewhere). One direction suffices — the swap is
    // an involution, so the reverse inclusion follows by applying it.
    const auto& fanouts = g.fanouts();
    const auto consumersOk = [&](const Matcher& m) {
      using Use = std::pair<NodeId, std::uint32_t>;
      for (const auto& [x, y] : m.pi) {
        std::multiset<Use> lhs;
        std::multiset<Use> rhs;
        for (const Graph::Fanout& f : fanouts[x]) {
          NodeId w = f.dst;
          if (const auto it = m.pi.find(w); it != m.pi.end()) {
            w = it->second;
          } else if (const auto it2 = m.inv.find(w); it2 != m.inv.end()) {
            w = it2->second;
          }
          lhs.emplace(w, g.node(f.dst).operands[f.operandIndex].dist);
        }
        for (const Graph::Fanout& f : fanouts[y]) {
          rhs.emplace(f.dst, g.node(f.dst).operands[f.operandIndex].dist);
        }
        if (lhs != rhs) return false;
      }
      return true;
    };

    // Group candidate roots by hash and verify each member against the
    // group's representative. Verified automorphisms compose (sigma_b
    // then sigma_c conjugates into a b<->c swap), so the whole verified
    // set is one orbit and a lexicographic chain over it is sound.
    std::map<std::uint64_t, std::vector<NodeId>> byHash;
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      const Node& node = g.node(v);
      if (sys.isSched[v] == 0 || sys.isInput[v] != 0) continue;
      if (node.operands.empty()) continue;
      byHash[hash[v]].push_back(v);
    }
    std::vector<char> claimed(n, 0);
    for (const auto& [h, members] : byHash) {
      if (members.size() < 2) continue;
      for (std::size_t r = 0; r < members.size(); ++r) {
        const NodeId rep = members[r];
        if (claimed[rep] != 0) continue;
        std::vector<NodeId> orbit{rep};
        for (std::size_t i = r + 1; i < members.size(); ++i) {
          const NodeId m = members[i];
          if (claimed[m] != 0) continue;
          Matcher matcher{g, hash, {}, {}, 0};
          if (matcher.match(rep, m) && consumersOk(matcher)) {
            orbit.push_back(m);
          }
        }
        if (orbit.size() < 2) continue;
        for (const NodeId m : orbit) claimed[m] = 1;
        std::sort(orbit.begin(), orbit.end());
        out.orbits.push_back(SymmetryOrbit{std::move(orbit)});
      }
    }
    std::sort(out.orbits.begin(), out.orbits.end(),
              [](const SymmetryOrbit& a, const SymmetryOrbit& b) {
                return a.members.front() < b.members.front();
              });
  }

  // --- branching priorities --------------------------------------------------
  // Resource-constrained ops carry the hard combinatorial core: branch
  // them first (priority >= 1 dominates fractionality). Everything else
  // gets a gentle preference for tight windows, which resolves the
  // pinned-schedule backbone before the slack periphery.
  out.branchPriority.assign(n, 0.0);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    if (sys.isSched[v] == 0 || sys.isInput[v] != 0) continue;
    const Node& node = g.node(v);
    const int mobility = st.hi[v] - st.lo[v];
    double p = 0.25 / (1.0 + static_cast<double>(mobility));
    if (ir::isBlackBox(node.kind) &&
        opts.resources.count(node.resourceClass()) > 0) {
      p += 1.0;
    }
    out.branchPriority[v] = p;
  }

  return out;
}

}  // namespace lamp::analyze
