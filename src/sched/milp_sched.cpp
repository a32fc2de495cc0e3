#include "sched/milp_sched.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "ir/passes.h"
#include "lp/proof_log.h"
#include "obs/trace.h"

namespace lamp::sched {

using cut::Cut;
using cut::CutElement;
using ir::Edge;
using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpKind;
using lp::LinExpr;
using lp::Sense;
using lp::Var;

namespace {

bool schedulable(const Node& n) { return n.kind != OpKind::Const; }

bool hasCutVars(const Graph& g, NodeId v) {
  return ir::isLutMappable(g.node(v).kind);
}

/// One boundary pair (u consumed as a cut element of v at distance d).
struct Pair {
  NodeId u = ir::kNoNode;
  NodeId v = ir::kNoNode;
  std::uint32_t dist = 0;
  std::vector<int> cutIdx;  ///< cuts of v containing (u, d); empty if the
                            ///< consumer's cut is pre-selected (B == 1)
  bool fixed = false;
};

}  // namespace

MilpSchedResult milpSchedule(const Graph& g, const cut::CutDatabase& db,
                             const DelayModel& dm,
                             const MilpSchedOptions& opts) {
  using Clock = std::chrono::steady_clock;
  const auto tBuild = Clock::now();
  std::optional<obs::Span> buildSpan;
  buildSpan.emplace("milp_build", "milp");

  MilpSchedResult result;
  Windows win = computeWindows(g, dm, opts.ii, opts.tcpNs, opts.maxLatency);
  if (!win.feasible) {
    result.error = "window computation: II or latency bound infeasible";
    return result;
  }

  // Schedule-space hints: fail fast on proven infeasibility, intersect
  // the tightened windows, and collect the probed-out start cycles. A
  // banned (v, t) simply never gets its s_{v,t} variable — equivalent to
  // fixing it to 0, but the model (and any proof log) never sees it.
  const ScheduleSpaceHints* hints = opts.hints;
  if (hints != nullptr && !hints->feasible) {
    result.error =
        "schedule-space analysis: II or latency bound proven infeasible";
    return result;
  }
  std::vector<std::vector<char>> banned(g.size());
  if (hints != nullptr) {
    if (hints->asap.size() == g.size() && hints->alap.size() == g.size()) {
      for (NodeId v = 0; v < g.size(); ++v) {
        if (!schedulable(g.node(v))) continue;
        win.asap[v] = std::max(win.asap[v], hints->asap[v]);
        win.alap[v] = std::min(win.alap[v], hints->alap[v]);
        if (win.asap[v] > win.alap[v]) {
          result.error = "schedule-space analysis: empty window for node " +
                         std::to_string(v);
          return result;
        }
      }
    }
    for (const auto& [v, t] : hints->forbidden) {
      if (v >= g.size() || t < win.asap[v] || t > win.alap[v]) continue;
      auto& b = banned[v];
      if (b.empty()) b.assign(win.alap[v] - win.asap[v] + 1, 0);
      b[t - win.asap[v]] = 1;
    }
    for (NodeId v = 0; v < g.size(); ++v) {
      if (banned[v].empty()) continue;
      bool any = false;
      for (const char x : banned[v]) any = any || x == 0;
      if (!any) {
        result.error = "schedule-space analysis: every start cycle of node " +
                       std::to_string(v) + " probed infeasible";
        return result;
      }
    }
  }
  const auto allowed = [&](NodeId v, int t) {
    return banned[v].empty() || banned[v][t - win.asap[v]] == 0;
  };

  // --- forced-root substitution (schedule-space liveness) ----------------------
  // Chase the rooting implications of the cover rows (4) at build time:
  // a pre-selected port cut asserts B == 1, which forces every boundary
  // element's root sum to 1; a node whose root sum is forced and all of
  // whose cuts carry the same boundary element forces that element in
  // turn. A *single-cut* node forced this way has a constant cut binary
  // — substitute it: the variable is never created, its cover rows
  // become trivially true, and its LUT cost moves into the objective
  // constant. Every remaining solution is a solution of the full model
  // with c fixed at its only feasible value, so status, optimal II and
  // objective are untouched. In the mapping-agnostic arm (unit cuts
  // everywhere) this substitutes every live LUT binary.
  std::vector<char> cutForced(g.size(), 0);  // sum_i c_{v,i} == 1 proven
  std::vector<char> cutFixed(g.size(), 0);   // ...and single-cut: substituted
  if (hints != nullptr && hints->live.size() == g.size()) {
    // Elements present (same node, same distance) in every cut of v.
    std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> fullBoundary(
        g.size());
    for (NodeId v = 0; v < g.size(); ++v) {
      if (!schedulable(g.node(v)) || db.at(v).cuts.empty()) continue;
      std::map<std::pair<NodeId, std::uint32_t>, std::size_t> count;
      for (const Cut& cut : db.at(v).cuts) {
        std::set<std::pair<NodeId, std::uint32_t>> once;
        for (const CutElement& e : cut.elements) {
          if (!schedulable(g.node(e.node))) continue;
          once.emplace(e.node, e.dist);
        }
        for (const auto& key : once) ++count[key];
      }
      for (const auto& [key, c] : count) {
        if (c == db.at(v).cuts.size()) fullBoundary[v].push_back(key);
      }
    }
    std::vector<NodeId> work;
    for (NodeId v = 0; v < g.size(); ++v) {
      if (schedulable(g.node(v)) && !hasCutVars(g, v) &&
          !db.at(v).cuts.empty()) {
        cutForced[v] = 1;  // port cut, B == 1 by construction
        work.push_back(v);
      }
    }
    while (!work.empty()) {
      const NodeId v = work.back();
      work.pop_back();
      for (const auto& [u, d] : fullBoundary[v]) {
        if (cutForced[u] != 0 || !hasCutVars(g, u)) continue;
        if (hints->live[u] == 0) continue;
        cutForced[u] = 1;
        work.push_back(u);
      }
    }
    for (NodeId v = 0; v < g.size(); ++v) {
      if (cutForced[v] != 0 && hasCutVars(g, v) &&
          db.at(v).cuts.size() == 1) {
        cutFixed[v] = 1;
      }
    }
  }
  // A node whose only cut is pre-selected — port cut or substituted
  // binary — contributes B == 1 to its boundary pairs.
  const auto preSelected = [&](NodeId v) {
    return !hasCutVars(g, v) || cutFixed[v] != 0;
  };

  lp::Model model(g.name() + "_milp");

  // --- variables -------------------------------------------------------------
  const Var noVar = lp::kNoVar;
  std::vector<std::vector<Var>> sVar(g.size());  // indexed by t - asap
  std::vector<Var> lVar(g.size(), noVar);
  std::vector<Var> lastUseVar(g.size(), noVar);
  std::vector<std::vector<Var>> cVar(g.size());

  std::vector<int> lat(g.size(), 0);
  std::vector<double> rem(g.size(), 0.0);
  for (NodeId v = 0; v < g.size(); ++v) {
    if (!schedulable(g.node(v))) continue;
    lat[v] = dm.latencyCycles(g, v, opts.tcpNs);
    rem[v] = dm.remainderNs(g, v, opts.tcpNs);
  }

  const auto sExpr = [&](NodeId v) {
    LinExpr e;
    if (g.node(v).kind == OpKind::Input) return e;  // fixed at 0
    for (int t = win.asap[v]; t <= win.alap[v]; ++t) {
      if (sVar[v][t - win.asap[v]] == noVar) continue;  // probed out
      e.add(sVar[v][t - win.asap[v]], t);
    }
    return e;
  };

  const auto& fanouts = g.fanouts();
  for (NodeId v = 0; v < g.size(); ++v) {
    const Node& n = g.node(v);
    if (!schedulable(n)) continue;
    const std::string base = "n" + std::to_string(v);
    if (n.kind != OpKind::Input) {
      sVar[v].assign(win.alap[v] - win.asap[v] + 1, noVar);
      for (int t = win.asap[v]; t <= win.alap[v]; ++t) {
        if (!allowed(v, t)) continue;  // probed out: s_{v,t} fixed to 0
        sVar[v][t - win.asap[v]] =
            model.addBinary(base + "_s" + std::to_string(t));
      }
      const double lub = lat[v] > 0 ? 0.0 : opts.tcpNs - rem[v];
      lVar[v] = model.addContinuous(0.0, std::max(0.0, lub), base + "_L");
    }
    if (hasCutVars(g, v)) {
      if (cutFixed[v] == 0) {
        cVar[v].resize(db.at(v).cuts.size());
        for (std::size_t i = 0; i < db.at(v).cuts.size(); ++i) {
          cVar[v][i] = model.addBinary(base + "_c" + std::to_string(i));
        }
      }
      result.numCuts += db.at(v).cuts.size();
    }
    if (opts.formulation == Formulation::Compact && !fanouts[v].empty() &&
        n.width > 0) {
      lastUseVar[v] = model.addContinuous(
          0.0, opts.maxLatency + 64.0, base + "_lu");
    }
  }
  const bool literal = opts.formulation == Formulation::Literal;
  // live_{u,t} variables (Literal mode only), created on demand. They are
  // binary in the paper; with a minimizing objective and the >= rows of
  // (12) they take 0/1 values automatically, so continuous [0,1] is exact.
  std::map<std::pair<NodeId, int>, Var> liveVar;
  const auto liveOf = [&](NodeId u, int t) {
    const auto key = std::make_pair(u, t);
    const auto it = liveVar.find(key);
    if (it != liveVar.end()) return it->second;
    const Var v = model.addContinuous(
        0.0, 1.0, "live_n" + std::to_string(u) + "_t" + std::to_string(t));
    liveVar.emplace(key, v);
    return v;
  };
  // def_{u,t}: 1 iff u's result is available on or before cycle t (10).
  const auto defExpr = [&](NodeId u, int t) {
    LinExpr e;
    if (g.node(u).kind == OpKind::Input) {
      e.addConstant(1.0);
      return e;
    }
    for (int z = win.asap[u]; z <= win.alap[u] && z <= t - lat[u]; ++z) {
      if (sVar[u][z - win.asap[u]] == noVar) continue;
      e.add(sVar[u][z - win.asap[u]], 1.0);
    }
    return e;
  };
  // kill_{v,t} for a consumer at distance d: 1 iff v has executed, in the
  // producer's iteration frame, on or before cycle t (11).
  const auto killExpr = [&](NodeId v, int t, int d) {
    LinExpr e;
    if (g.node(v).kind == OpKind::Input) {
      e.addConstant(1.0);
      return e;
    }
    for (int z = win.asap[v];
         z <= win.alap[v] && z + opts.ii * d <= t; ++z) {
      if (sVar[v][z - win.asap[v]] == noVar) continue;
      e.add(sVar[v][z - win.asap[v]], 1.0);
    }
    return e;
  };
  // Pre-selected port cuts still count as cuts for statistics.
  for (NodeId v = 0; v < g.size(); ++v) {
    if (schedulable(g.node(v)) && !hasCutVars(g, v) &&
        !db.at(v).cuts.empty()) {
      ++result.numCuts;
    }
  }

  const auto rootExpr = [&](NodeId u) {
    LinExpr e;
    for (const Var cv : cVar[u]) e.add(cv, 1.0);
    return e;
  };

  // --- one-hot cycle assignment (5)(6) ---------------------------------------
  std::vector<std::pair<std::vector<Var>, std::vector<double>>> sosGroups;
  for (NodeId v = 0; v < g.size(); ++v) {
    const Node& n = g.node(v);
    if (!schedulable(n) || n.kind == OpKind::Input) continue;
    LinExpr onehot;
    std::vector<Var> vars;
    std::vector<double> pos;
    for (std::size_t k = 0; k < sVar[v].size(); ++k) {
      if (sVar[v][k] == noVar) continue;
      onehot.add(sVar[v][k], 1.0);
      vars.push_back(sVar[v][k]);
      pos.push_back(win.asap[v] + static_cast<double>(k));
    }
    model.addConstraint(onehot, Sense::Eq, 1.0,
                        "onehot_n" + std::to_string(v));
    if (vars.size() > 1) sosGroups.emplace_back(std::move(vars), std::move(pos));
  }

  // --- at most one cut per node (2) -------------------------------------------
  for (NodeId v = 0; v < g.size(); ++v) {
    if (cVar[v].size() > 1) {
      model.addConstraint(rootExpr(v), Sense::Le, 1.0,
                          "root_n" + std::to_string(v));
    }
  }

  // --- dependence rows (7) ------------------------------------------------------
  for (NodeId v = 0; v < g.size(); ++v) {
    const Node& n = g.node(v);
    if (!schedulable(n)) continue;
    for (const Edge& e : n.operands) {
      if (!schedulable(g.node(e.src))) continue;
      const int offset = lat[e.src] - static_cast<int>(e.dist) * opts.ii;
      // Statically satisfied?
      if (win.alap[e.src] + offset <= win.asap[v]) continue;
      LinExpr row = sExpr(e.src);
      row.add(sExpr(v), -1.0);
      model.addConstraint(row, Sense::Le, -offset,
                          "dep_n" + std::to_string(e.src) + "_n" +
                              std::to_string(v));
    }
  }

  // --- symmetry-breaking rows (schedule-space orbits) --------------------------
  // S_a <= S_b along each orbit chain: any feasible schedule can permute
  // orbit members' assignments (verified swap-automorphisms), so one
  // ordered representative per permutation class always survives — at
  // the same objective. ANY fixed total order over the members is sound;
  // when a warm start is present we order the chain by its cycles so the
  // incumbent satisfies the rows by construction instead of being
  // rejected by the solver's feasibility re-check. Row and variable
  // counts do not depend on the order chosen.
  if (hints != nullptr && !hints->precede.empty()) {
    std::vector<NodeId> next(g.size(), ir::kNoNode);
    std::vector<char> hasPred(g.size(), 0);
    for (const auto& [a, b] : hints->precede) {
      if (a >= g.size() || b >= g.size()) continue;
      if (!schedulable(g.node(a)) || !schedulable(g.node(b)) ||
          g.node(a).kind == OpKind::Input || g.node(b).kind == OpKind::Input) {
        continue;
      }
      next[a] = b;
      hasPred[b] = 1;
    }
    const Schedule* ws = opts.warmStart;
    const bool haveWs = ws != nullptr && ws->cycle.size() == g.size();
    for (NodeId head = 0; head < g.size(); ++head) {
      if (hasPred[head] != 0 || next[head] == ir::kNoNode) continue;
      std::vector<NodeId> chain;
      for (NodeId m = head; m != ir::kNoNode; m = next[m]) {
        chain.push_back(m);
      }
      std::sort(chain.begin(), chain.end(), [&](NodeId a, NodeId b) {
        const int ca = haveWs ? ws->cycle[a] : 0;
        const int cb = haveWs ? ws->cycle[b] : 0;
        return std::tie(ca, a) < std::tie(cb, b);
      });
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        const NodeId a = chain[i];
        const NodeId b = chain[i + 1];
        // Statically satisfied when a's latest start precedes b's earliest.
        if (win.alap[a] <= win.asap[b]) continue;
        LinExpr row = sExpr(a);
        row.add(sExpr(b), -1.0);
        model.addConstraint(row, Sense::Le, 0.0,
                            "sym_n" + std::to_string(a) + "_n" +
                                std::to_string(b));
      }
    }
  }

  // --- boundary pairs: rooting (4), chaining (9), liveness (10-13) -------------
  std::vector<Pair> pairs;
  {
    std::map<std::tuple<NodeId, NodeId, std::uint32_t>, std::size_t> index;
    for (NodeId v = 0; v < g.size(); ++v) {
      const Node& n = g.node(v);
      if (!schedulable(n) || db.at(v).cuts.empty()) continue;
      const bool fixed = preSelected(v);
      for (std::size_t i = 0; i < db.at(v).cuts.size(); ++i) {
        for (const CutElement& e : db.at(v).cuts[i].elements) {
          if (!schedulable(g.node(e.node))) continue;
          const auto key = std::make_tuple(e.node, v, e.dist);
          auto it = index.find(key);
          if (it == index.end()) {
            it = index.emplace(key, pairs.size()).first;
            pairs.push_back(Pair{e.node, v, e.dist, {}, fixed});
          }
          if (!fixed) pairs[it->second].cutIdx.push_back(static_cast<int>(i));
        }
      }
    }
  }

  for (const Pair& p : pairs) {
    const auto bExpr = [&]() {
      LinExpr b;
      if (p.fixed) {
        b.addConstant(1.0);
      } else {
        for (const int i : p.cutIdx) b.add(cVar[p.v][i], 1.0);
      }
      return b;
    };
    const std::string tag =
        "_n" + std::to_string(p.u) + "_n" + std::to_string(p.v);

    // Selection weights for this pair: either one aggregated B expression
    // (Compact) or one term per cut (Literal, the paper's per-(v,i,u)
    // rows).
    std::vector<std::pair<LinExpr, std::string>> selections;
    if (!literal || p.fixed) {
      selections.emplace_back(bExpr(), tag);
    } else {
      for (const int i : p.cutIdx) {
        selections.emplace_back(LinExpr::term(cVar[p.v][i], 1.0),
                                tag + "_c" + std::to_string(i));
      }
    }

    // (4) rooting: selection <= root_u. Skipped for implicit roots and
    // for substituted binaries (root_u == 1 makes the row vacuous).
    if (hasCutVars(g, p.u) && cutFixed[p.u] == 0) {
      for (const auto& [sel, stag] : selections) {
        LinExpr row = sel;
        row.add(rootExpr(p.u), -1.0);
        model.addConstraint(row, Sense::Le, 0.0, "cover" + stag);
      }
    }

    // (9) chaining: skip when the windows make the row inactive.
    const int d = static_cast<int>(p.dist);
    {
      const double maxLhs =
          (win.alap[p.u] + lat[p.u] - win.asap[p.v] - opts.ii * d) *
              opts.tcpNs +
          (opts.tcpNs - rem[p.u]) - 0.0 + rem[p.u];
      // Rows with an Input producer are vacuous: S_u = 0, L_u = 0,
      // rem_u = 0 makes the LHS <= 0 for any schedule of v.
      const bool uIsInput = g.node(p.u).kind == OpKind::Input;
      if (maxLhs > 1e-9 && !uIsInput) {
        for (const auto& [sel, stag] : selections) {
          LinExpr row = sExpr(p.u);
          row.add(sExpr(p.v), -1.0);
          LinExpr scaled;  // scale the cycle part by Tcp
          scaled.add(row, opts.tcpNs);
          scaled.add(lVar[p.u], 1.0);
          scaled.add(lVar[p.v], -1.0);
          if (rem[p.u] > 0.0) scaled.add(sel, rem[p.u]);
          model.addConstraint(scaled, Sense::Le,
                              -(lat[p.u] - opts.ii * d) * opts.tcpNs,
                              "chain" + stag);
        }
      }
    }

    if (!literal) {
      // Liveness, lifetime form: lastUse_u >= S_v + II*d - M*(1 - B).
      if (lastUseVar[p.u] != noVar) {
        const double bigM = win.alap[p.v] + opts.ii * d + 1.0;
        // Static skip: consumption can never happen after definition.
        if (win.alap[p.v] + opts.ii * d > win.asap[p.u] + lat[p.u]) {
          LinExpr row = sExpr(p.v);
          row.add(lastUseVar[p.u], -1.0);
          row.add(bExpr(), bigM);
          model.addConstraint(row, Sense::Le, bigM - opts.ii * d,
                              "live" + tag);
        }
      }
    } else if (g.node(p.u).width > 0) {
      // Liveness, the paper's (12): for every cycle t where u can be
      // defined and v not yet executed,
      //   def_{u,t} - kill_{v,t} - (1 - c_{v,i}) <= live_{u,t}.
      const int tLo = std::max(
          0, g.node(p.u).kind == OpKind::Input ? 0
                                               : win.asap[p.u] + lat[p.u]);
      const int tHi = win.alap[p.v] + opts.ii * d - 1;
      for (int t = tLo; t <= tHi; ++t) {
        for (const auto& [sel, stag] : selections) {
          LinExpr row = defExpr(p.u, t);
          row.add(killExpr(p.v, t, d), -1.0);
          row.add(liveOf(p.u, t), -1.0);
          if (!p.fixed) row.add(sel, 1.0);
          model.addConstraint(row, Sense::Le, p.fixed ? 0.0 : 1.0,
                              "live" + stag + "_t" + std::to_string(t));
        }
      }
    }
  }

  // lastUse_u >= S_u + lat_u keeps lifetimes non-negative (Compact only).
  for (NodeId u = 0; u < g.size(); ++u) {
    if (lastUseVar[u] == noVar) continue;
    LinExpr row = sExpr(u);
    row.add(lastUseVar[u], -1.0);
    model.addConstraint(row, Sense::Le, -lat[u],
                        "lu_lb_n" + std::to_string(u));
  }

  // --- modulo resource rows (14) ------------------------------------------------
  for (const auto& [rc, limit] : opts.resources) {
    for (int m = 0; m < opts.ii; ++m) {
      LinExpr row;
      for (NodeId v = 0; v < g.size(); ++v) {
        const Node& n = g.node(v);
        if (!ir::isBlackBox(n.kind) || n.resourceClass() != rc) continue;
        for (int t = win.asap[v]; t <= win.alap[v]; ++t) {
          if (sVar[v][t - win.asap[v]] == noVar) continue;
          if (t % opts.ii == m) row.add(sVar[v][t - win.asap[v]], 1.0);
        }
      }
      if (!row.terms().empty()) {
        model.addConstraint(row, Sense::Le, limit,
                            "res_" +
                                std::string(ir::resourceClassName(rc)) +
                                "_m" + std::to_string(m));
      }
    }
  }

  // --- objective (15) -------------------------------------------------------------
  LinExpr objective;
  for (NodeId v = 0; v < g.size(); ++v) {
    for (std::size_t i = 0; i < cVar[v].size(); ++i) {
      const int cost = db.at(v).cuts[i].lutCost;
      if (cost > 0) objective.add(cVar[v][i], opts.alpha * cost);
    }
    if (cutFixed[v] != 0) {
      // Substituted c_{v,0} == 1: its LUT cost is a constant.
      objective.addConstant(opts.alpha * db.at(v).cuts[0].lutCost);
    }
    if (lastUseVar[v] != noVar) {
      const double bits = g.node(v).width;
      objective.add(lastUseVar[v], opts.beta * bits);
      objective.add(sExpr(v), -opts.beta * bits);
      objective.addConstant(-opts.beta * bits * lat[v]);
    }
  }
  // Literal register term: sum_m Reg(m) = sum over all (u, t) of
  // Bits(u) * live_{u,t} (13).
  for (const auto& [key, lv] : liveVar) {
    objective.add(lv, opts.beta * g.node(key.first).width);
  }
  model.setObjective(objective);

  result.numVars = model.numVars();
  result.numConstraints = model.numConstraints();
  result.buildSeconds =
      std::chrono::duration<double>(Clock::now() - tBuild).count();
  buildSpan->endArgs(
      obs::traceArg("numConstraints",
                    static_cast<double>(model.numConstraints())));
  buildSpan.reset();
  if (opts.dumpModel != nullptr) {
    model.writeLp(*opts.dumpModel);
    result.error = "model dumped, not solved";
    return result;
  }
  if (model.numConstraints() > opts.maxRows) {
    result.status = lp::SolveStatus::NoSolution;
    result.error = "MILP too large for the dense-basis solver (" +
                   std::to_string(model.numConstraints()) + " rows > " +
                   std::to_string(opts.maxRows) +
                   "); use the greedy mapping-aware heuristic";
    return result;
  }

  // --- warm start -------------------------------------------------------------------
  lp::MilpOptions solverOpts = opts.solver;
  if (hints != nullptr && hints->branchPriority.size() == g.size()) {
    solverOpts.branchPriority.assign(model.numVars(), 0.0);
    for (NodeId v = 0; v < g.size(); ++v) {
      for (const Var sv : sVar[v]) {
        if (sv != noVar) solverOpts.branchPriority[sv] = hints->branchPriority[v];
      }
    }
  }
  lp::ProofLog plog;
  if (opts.captureProof) solverOpts.proofLog = &plog;
  lp::MilpSolver solver(model, solverOpts);
  for (auto& [vars, pos] : sosGroups) {
    solver.addSos1Group(vars, pos);
  }
  if (opts.warmStart != nullptr) {
    const Schedule& ws = *opts.warmStart;
    std::vector<double> x(model.numVars(), 0.0);
    bool ok = ws.cycle.size() == g.size();
    // The symmetry rows above were ordered to agree with this warm
    // start's cycles, so no permutation of the schedule is needed here.

    // Which cut each node warm-starts on: the schedule's own selection
    // when its indices target this database, else the unit fallback.
    std::vector<int> selCut(g.size(), -1);
    for (NodeId v = 0; ok && v < g.size(); ++v) {
      const Node& n = g.node(v);
      if (!schedulable(n) || db.at(v).cuts.empty()) continue;
      if (preSelected(v)) {
        selCut[v] = 0;  // port cut or substituted root, pre-selected
        continue;
      }
      if (opts.warmStartSelectsCuts) {
        if (ws.selectedCut[v] >= static_cast<int>(db.at(v).cuts.size())) {
          ok = false;
          break;
        }
        selCut[v] = ws.selectedCut[v];
      } else {
        for (std::size_t i = 0; i < db.at(v).cuts.size(); ++i) {
          if (db.at(v).cuts[i].isUnit) selCut[v] = static_cast<int>(i);
        }
        if (selCut[v] < 0) ok = false;
      }
    }

    // Cycle assignment + cut variables.
    const auto sCycle = [&](NodeId v) {
      return g.node(v).kind == OpKind::Input ? 0 : ws.cycle[v];
    };
    for (NodeId v = 0; ok && v < g.size(); ++v) {
      const Node& n = g.node(v);
      if (!schedulable(n)) continue;
      if (n.kind != OpKind::Input) {
        const int t = ws.cycle[v];
        if (t < win.asap[v] || t > win.alap[v] ||
            sVar[v][t - win.asap[v]] == noVar) {
          ok = false;
          break;
        }
        x[sVar[v][t - win.asap[v]]] = 1.0;
      }
      if (!cVar[v].empty() && selCut[v] >= 0) x[cVar[v][selCut[v]]] = 1.0;
    }

    if (ok) {
      // Whether pair (u, v, d) is an active boundary of v's selected cut.
      const auto pairActive = [&](const Pair& p) {
        if (p.fixed) return true;
        if (selCut[p.v] < 0) return false;
        return db.at(p.v).cuts[selCut[p.v]].containsElement(p.u, p.dist);
      };

      // L values: the model forces L monotone along *every* enumerated
      // boundary pair within a cycle (active pairs additionally add the
      // producer's delay), so recompute rather than trusting ws.startNs.
      // Two passes settle same-clock chains across back edges.
      std::vector<double> L(g.size(), 0.0);
      for (int pass = 0; pass < 2; ++pass) {
        for (const NodeId v : ir::topologicalOrder(g)) {
          if (!schedulable(g.node(v)) ||
              g.node(v).kind == OpKind::Input) {
            continue;
          }
          double need = 0.0;
          for (const Pair& p : pairs) {
            if (p.v != v) continue;
            if (g.node(p.u).kind == OpKind::Input) continue;
            const double diff =
                (sCycle(p.u) + lat[p.u] - sCycle(v) -
                 opts.ii * static_cast<int>(p.dist)) *
                opts.tcpNs;
            const double bonus = pairActive(p) ? rem[p.u] : 0.0;
            need = std::max(need, L[p.u] + bonus + diff);
          }
          L[v] = std::max(0.0, need);
        }
      }
      for (NodeId v = 0; v < g.size(); ++v) {
        if (lVar[v] == noVar) continue;
        x[lVar[v]] = L[v];
      }

      // lastUse from active boundary pairs (plus the definition itself).
      for (const Pair& p : pairs) {
        if (lastUseVar[p.u] == noVar || !pairActive(p)) continue;
        const double use =
            sCycle(p.v) + opts.ii * static_cast<double>(p.dist);
        x[lastUseVar[p.u]] = std::max(x[lastUseVar[p.u]], use);
      }
      for (NodeId u = 0; u < g.size(); ++u) {
        if (lastUseVar[u] == noVar) continue;
        x[lastUseVar[u]] =
            std::max(x[lastUseVar[u]], double(sCycle(u) + lat[u]));
      }
      // Literal live_{u,t}: 1 on cycles where u is defined and an active
      // consumer has not yet executed.
      for (const Pair& p : pairs) {
        if (!pairActive(p)) continue;
        const int def = (g.node(p.u).kind == OpKind::Input ? 0 : sCycle(p.u)) +
                        lat[p.u];
        const int use = sCycle(p.v) + opts.ii * static_cast<int>(p.dist);
        for (int t = def; t < use; ++t) {
          const auto it = liveVar.find({p.u, t});
          if (it != liveVar.end()) x[it->second] = 1.0;
        }
      }
      solver.setInitialIncumbent(std::move(x));
    }
  }

  // --- solve & extract ----------------------------------------------------------------
  const lp::Solution sol = solver.solve();
  if (opts.captureProof) result.proof = plog.text();
  result.status = sol.status;
  result.objective = sol.objective;
  result.bestBound = sol.bestBound;
  result.solveSeconds = sol.wallSeconds;
  result.branchNodes = sol.branchNodes;
  result.prunedNodes = sol.prunedNodes;
  result.steals = sol.steals;
  result.simplexIterations = sol.simplexIterations;
  result.dualPivots = sol.dualPivots;
  result.coldSolves = sol.coldSolves;
  result.convergence = sol.convergence;
  result.convergenceDropped = sol.convergenceDropped;
  if (!sol.feasible()) {
    result.error = std::string("MILP: ") +
                   std::string(lp::solveStatusName(sol.status));
    return result;
  }

  Schedule& s = result.schedule;
  s.ii = opts.ii;
  s.tcpNs = opts.tcpNs;
  s.cycle.assign(g.size(), kUnscheduled);
  s.startNs.assign(g.size(), 0.0);
  s.selectedCut.assign(g.size(), kAbsorbed);
  for (NodeId v = 0; v < g.size(); ++v) {
    const Node& n = g.node(v);
    if (!schedulable(n)) continue;
    if (n.kind == OpKind::Input) {
      s.cycle[v] = 0;
    } else {
      for (std::size_t k = 0; k < sVar[v].size(); ++k) {
        if (sVar[v][k] == noVar) continue;
        if (sol.value(sVar[v][k]) > 0.5) {
          s.cycle[v] = win.asap[v] + static_cast<int>(k);
        }
      }
      s.startNs[v] = std::max(0.0, sol.value(lVar[v]));
    }
    if (!db.at(v).cuts.empty()) {
      if (!hasCutVars(g, v) || cutFixed[v] != 0) {
        s.selectedCut[v] = 0;  // pre-selected port cut or substituted root
      } else {
        for (std::size_t i = 0; i < cVar[v].size(); ++i) {
          if (sol.value(cVar[v][i]) > 0.5) {
            s.selectedCut[v] = static_cast<int>(i);
          }
        }
      }
    }
  }

  // Objective components at the solution.
  for (NodeId v = 0; v < g.size(); ++v) {
    if (s.isRoot(v) && hasCutVars(g, v)) {
      result.lutTerm += opts.alpha * db.at(v).cuts[s.selectedCut[v]].lutCost;
    }
    if (lastUseVar[v] != noVar) {
      const double sv = g.node(v).kind == OpKind::Input ? 0.0 : s.cycle[v];
      result.regTerm += opts.beta * g.node(v).width *
                        (sol.value(lastUseVar[v]) - sv - lat[v]);
    }
  }
  for (const auto& [key, lv] : liveVar) {
    result.regTerm += opts.beta * g.node(key.first).width * sol.value(lv);
  }

  result.success = true;
  return result;
}

}  // namespace lamp::sched
