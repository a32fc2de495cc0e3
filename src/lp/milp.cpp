#include "lp/milp.h"

#include "lp/proof_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/work_deque.h"

#include <string>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

namespace lamp::lp {

namespace {

/// One open branch & bound node: bound overrides relative to the root,
/// stored as a chain of single changes to keep memory linear in depth.
/// Chains are shared across workers after a steal; shared_ptr's atomic
/// control block makes that safe, and the payload is immutable once
/// published.
struct BoundChange {
  Var var = kNoVar;
  double lb = 0.0;
  double ub = 0.0;
  std::shared_ptr<const BoundChange> parent;
};

struct NodeRec {
  std::shared_ptr<const BoundChange> changes;
  double parentBound = -kInf;  ///< LP bound of the parent (pruning key)
  int depth = 0;
  std::int64_t proofId = 0;  ///< certificate node id (0 = root)
  /// Proof path only: the parent branch record's duals passed the float
  /// screening, so a pop-time prune may cite them (`fathom parent`).
  /// When false the prune logs `open` instead.
  bool proofParentOk = true;
};

/// Leaf-bound slack recorded in the certificate header (`tol gap`):
/// prune tolerance plus room for LP float noise. The fathom screening
/// below must assume exactly this value.
double proofClaimedGap(const MilpOptions& opts) {
  return 2.0 * opts.absGapTol + 1e-6;
}

/// Float preview of the exact bound the certificate checker will derive
/// from multipliers `y` over box (lb, ub): applies the same wrong-sign
/// clamping as ProofLog::appendDuals, evaluates
///   c0 + y·b + sum_j min(d_j*l_j, d_j*u_j),  d_j = c_j - y^T A_j,
/// and subtracts a conservative rounding margin proportional to the
/// accumulated term magnitudes. Returns -inf when the multipliers
/// cannot certify a finite bound at all (a not-reliably-zero reduced
/// cost against an infinite bound).
///
/// Why screen at all: an ill-conditioned exit basis occasionally exports
/// a dual ray with ~1e15-magnitude components whose exact evaluation is
/// wildly negative — a derivation the checker would (correctly) reject.
/// Screening lets the solver log `open` for that node instead, which
/// downgrades the claim rather than poisoning the whole certificate.
double certifiedBoundFloat(const Model& m, const std::vector<double>& lb,
                           const std::vector<double>& ub,
                           const std::vector<double>& y, bool useObj) {
  const std::size_t n = m.numVars();
  std::vector<double> d(n, 0.0);     // reduced costs
  std::vector<double> dmag(n, 0.0);  // sum of |terms| feeding each d_j
  double bound = useObj ? m.objective().constant() : 0.0;
  double mag = std::abs(bound);
  if (useObj) {
    for (const Term& t : m.objective().terms()) {
      if (t.var < 0 || static_cast<std::size_t>(t.var) >= n) continue;
      d[static_cast<std::size_t>(t.var)] += t.coef;
      dmag[static_cast<std::size_t>(t.var)] += std::abs(t.coef);
    }
  }
  const auto& rows = m.constraints();
  for (std::size_t i = 0; i < rows.size() && i < y.size(); ++i) {
    double yi = y[i];
    if (rows[i].sense == Sense::Le && yi > 0.0) yi = 0.0;
    if (rows[i].sense == Sense::Ge && yi < 0.0) yi = 0.0;
    if (yi == 0.0) continue;
    bound += yi * rows[i].rhs;
    mag += std::abs(yi * rows[i].rhs);
    for (const Term& t : rows[i].terms) {
      if (t.var < 0 || static_cast<std::size_t>(t.var) >= n) continue;
      d[static_cast<std::size_t>(t.var)] -= yi * t.coef;
      dmag[static_cast<std::size_t>(t.var)] += std::abs(yi * t.coef);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    const double derr = 1e-12 * dmag[j];
    const double l = lb[j], u = ub[j];
    if (d[j] - derr > 0.0) {
      // The exact reduced cost is certainly positive: the checker takes
      // the lower-bound side.
      if (std::isinf(l)) return -kInf;
      bound += d[j] * l;
      mag += dmag[j] * std::abs(l);
    } else if (d[j] + derr < 0.0) {
      if (std::isinf(u)) return -kInf;
      bound += d[j] * u;
      mag += dmag[j] * std::abs(u);
    } else if (d[j] != 0.0 || dmag[j] != 0.0) {
      // Sign of the exact reduced cost is ambiguous at float precision:
      // only safe when both sides are finite.
      if (std::isinf(l) || std::isinf(u)) return -kInf;
      bound += std::min(d[j] * l, d[j] * u);
      mag += dmag[j] * std::max(std::abs(l), std::abs(u));
    }
  }
  return bound - (1e-12 * mag + 1e-9);
}

/// Bounded, mutex-protected sink for the solve's convergence telemetry
/// (lp::ConvergenceEvent). Shared by every worker; pushes past the cap
/// are counted, not stored, so a week-long solve cannot bloat a Solution
/// that rides service responses. The recorder observes the search — it
/// never influences it.
class ConvergenceRecorder {
 public:
  explicit ConvergenceRecorder(const util::Stopwatch& clock)
      : clock_(clock) {}

  void push(const char* kind, double value, double aux = 0.0,
            int worker = -1) {
    const double t = clock_.seconds();
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() >= kCap) {
      ++dropped_;
      return;
    }
    events_.push_back(ConvergenceEvent{t, kind, value, aux, worker});
  }

  void drainInto(Solution& s) {
    std::lock_guard<std::mutex> lock(mu_);
    s.convergence = std::move(events_);
    s.convergenceDropped = dropped_;
    events_.clear();
    dropped_ = 0;
  }

 private:
  static constexpr std::size_t kCap = 512;
  const util::Stopwatch& clock_;
  std::mutex mu_;
  std::vector<ConvergenceEvent> events_;
  std::int64_t dropped_ = 0;
};

/// Open-node sampling period: one "nodes" convergence event per this
/// many expansions per worker.
constexpr std::int64_t kNodeSampleMask = 0xff;

/// Read-only search context shared by every worker.
struct SearchCtx {
  const Model& model;
  const MilpOptions& opts;
  const std::vector<std::vector<Var>>& sosVars;
  const std::vector<std::vector<double>>& sosPos;
  ConvergenceRecorder& conv;  ///< convergence telemetry sink
  std::vector<std::int32_t> sosOf;  ///< var -> SOS group or -1
  std::vector<double> rootLb, rootUb;
  /// Certificate sink; non-null only on the (forced one-worker) proof
  /// path.
  ProofLog* plog = nullptr;
};

/// Incumbent record shared by all workers. Updates (and the user's
/// onIncumbent callback) are serialized under `mu`; the objective is
/// additionally mirrored into a relaxed atomic so the per-node pruning
/// test costs one uncontended load. A stale snapshot only ever *delays* a
/// prune by one node — it never prunes incorrectly, because the snapshot
/// moves monotonically downward.
struct SharedIncumbent {
  std::mutex mu;
  std::vector<double> values;
  double objective = kInf;  ///< kInf until the first incumbent
  std::atomic<double> snapshot{kInf};
};

struct WorkerStats {
  std::int64_t simplexIterations = 0;
  std::int64_t nodesExpanded = 0;
  std::int64_t prunedNodes = 0;
  std::int64_t steals = 0;
  std::int64_t dualPivots = 0;
  std::int64_t coldSolves = 0;
};

/// State shared by the workers of one solve.
struct SearchState {
  explicit SearchState(int threads) : pools(threads) {}

  /// One owner deque per worker: the owner dives LIFO (the depth-first
  /// order the dual warm start was designed around), idle workers steal
  /// from a victim, which spreads the search across distant subtrees
  /// instead of racing down one dive path.
  std::vector<util::WorkDeque<NodeRec>> pools;
  SharedIncumbent inc;
  /// Nodes pushed but not yet fully expanded (counts in-flight nodes, so
  /// zero really means "tree exhausted", not "queues momentarily empty").
  std::atomic<std::int64_t> openNodes{0};
  std::atomic<std::int64_t> branchNodes{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> exploredAll{true};
  std::mutex idleMu;
  std::condition_variable idleCv;

  /// Workers currently holding stolen work, and the cap on them.
  /// Speculative exploration is only free when it runs on otherwise-idle
  /// hardware: with more workers than cores they just time-slice the
  /// dives and inflate the tree (expansions that better incumbents would
  /// have pruned). So at most (cores - 1) workers hold stolen subtrees at
  /// a time — the rest idle until a token frees up. The cap is soft (a
  /// race can overshoot by one briefly), which is harmless.
  std::atomic<int> explorers{0};
  int explorerCap = 1;
};

enum class NodeOutcome {
  Done,     ///< node fathomed or branched
  LpLimit,  ///< the LP hit its own limit: its bound cannot be trusted
};

/// Worker `wid` expands one open node: solves the relaxation, fathoms by
/// bound / integrality (publishing an integral point as the incumbent),
/// or branches (SOS1 split first, 0/1 otherwise). Children go onto the
/// worker's own deque with the dive side pushed LAST, so its LIFO pop
/// explores it first.
///
/// With more than one worker the LP is armed with the incumbent as a
/// dual-objective cutoff: the dual simplex raises a valid lower bound
/// monotonically, so it can stop the moment the bound proves the node
/// prunable instead of grinding through the (heavily degenerate) plateau
/// at the LP optimum. A single worker leaves it off: the cutoff moves
/// pivots, and the one-worker search is pinned node for node and pivot
/// for pivot (proof logging and the recorded optima depend on it).
NodeOutcome expandNode(const SearchCtx& ctx, SearchState& st, int wid,
                       IncrementalSimplex& lpSolver, const NodeRec& node,
                       std::vector<double>& lb, std::vector<double>& ub,
                       double remainingSeconds, WorkerStats& stats) {
  const std::size_t n = ctx.model.numVars();

  // Materialize bounds for this node.
  lb = ctx.rootLb;
  ub = ctx.rootUb;
  for (const BoundChange* ch = node.changes.get(); ch != nullptr;
       ch = ch->parent.get()) {
    lb[ch->var] = std::max(lb[ch->var], ch->lb);
    ub[ch->var] = std::min(ub[ch->var], ch->ub);
  }

  if (st.pools.size() > 1) {
    const double bestObj = st.inc.snapshot.load(std::memory_order_relaxed);
    lpSolver.setObjectiveCutoff(bestObj < kInf ? bestObj - ctx.opts.absGapTol
                                               : kInf);
  }
  lpSolver.setTimeLimit(std::max(0.1, remainingSeconds));
  const SimplexResult lp = lpSolver.solve(lb, ub);
  stats.simplexIterations += lp.iterations;
  // Proof path: screen each derivation in float before logging it (see
  // certifiedBoundFloat). `needAbove` is the weakest bound the checker
  // must be able to re-derive from these duals for the record to verify
  // against any FUTURE incumbent; when screening fails, the node is
  // logged `open` (a hole, downgrading the final claim) instead of
  // poisoning the certificate with a derivation that cannot replay.
  const auto screenedFathom = [&](const std::vector<double>& y,
                                  bool useObj, double needAbove,
                                  void (ProofLog::*emit)(
                                      std::int64_t,
                                      const std::vector<double>&)) {
    if (certifiedBoundFloat(ctx.model, lb, ub, y, useObj) >= needAbove) {
      (ctx.plog->*emit)(node.proofId, y);
    } else {
      ctx.plog->openNode(node.proofId);
    }
  };
  if (lp.status == SolveStatus::Infeasible) {
    if (ctx.plog != nullptr) {
      if (lp.conflictVar >= 0) {
        ctx.plog->fathomConflict(node.proofId, lp.conflictVar);
      } else {
        // Exact Farkas bound (c = 0) must come out strictly positive.
        screenedFathom(lp.dualY, /*useObj=*/false,
                       std::nextafter(0.0, 1.0),
                       &ProofLog::fathomInfeasible);
      }
    }
    return NodeOutcome::Done;
  }
  if (lp.status == SolveStatus::Cutoff) {
    // The dual bound alone proved the node can't beat the incumbent.
    if (ctx.plog != nullptr) {
      const double bestObj = st.inc.snapshot.load(std::memory_order_relaxed);
      screenedFathom(lp.dualY, /*useObj=*/true,
                     (bestObj < kInf ? bestObj : lp.objective) -
                         proofClaimedGap(ctx.opts),
                     &ProofLog::fathomBound);
    }
    return NodeOutcome::Done;
  }
  if (lp.status != SolveStatus::Optimal) {
    // LP hit its own limit or failed: can't trust a bound here.
    if (ctx.plog != nullptr) ctx.plog->openNode(node.proofId);
    return NodeOutcome::LpLimit;
  }
  if (const double bestObj = st.inc.snapshot.load(std::memory_order_relaxed);
      bestObj < kInf && lp.objective >= bestObj - ctx.opts.absGapTol) {
    // The final incumbent can only improve on bestObj, so a bound
    // reaching bestObj - gap verifies against it too.
    if (ctx.plog != nullptr) {
      screenedFathom(lp.dualY, /*useObj=*/true,
                     bestObj - proofClaimedGap(ctx.opts),
                     &ProofLog::fathomBound);
    }
    return NodeOutcome::Done;
  }

  // Find the most fractional integer variable, preferring SOS groups.
  // A caller-supplied branchPriority biases the choice toward scheduling-
  // critical variables; integral variables stay unbranchable, and with no
  // priorities the historical most-fractional rule is reproduced exactly.
  const std::vector<double>& prio = ctx.opts.branchPriority;
  Var fracVar = kNoVar;
  double fracScore = ctx.opts.intTol;
  std::int32_t fracGroup = -1;
  for (Var v = 0; v < static_cast<Var>(n); ++v) {
    if (!ctx.model.isIntegerType(v)) continue;
    const double x = lp.x[v];
    const double f = std::abs(x - std::round(x));
    if (f <= ctx.opts.intTol) continue;
    const double score =
        f + (static_cast<std::size_t>(v) < prio.size() ? prio[v] : 0.0);
    if (score > fracScore) {
      fracScore = score;
      fracVar = v;
      fracGroup = ctx.sosOf[v];
    }
  }

  if (fracVar == kNoVar) {
    // Integral: new incumbent. Round int vars exactly before storing.
    // For the certificate this is still a bound-fathomed leaf: its own
    // LP duals bound it at its objective, which can't beat whatever
    // incumbent ends up final (incumbents only improve, and the final
    // one is at most this leaf's objective).
    if (ctx.plog != nullptr) {
      screenedFathom(lp.dualY, /*useObj=*/true,
                     lp.objective - proofClaimedGap(ctx.opts),
                     &ProofLog::fathomBound);
    }
    std::vector<double> x = lp.x;
    for (Var v = 0; v < static_cast<Var>(n); ++v) {
      if (ctx.model.isIntegerType(v)) x[v] = std::round(x[v]);
    }
    std::lock_guard<std::mutex> lock(st.inc.mu);
    if (lp.objective < st.inc.objective - 1e-12) {
      st.inc.values = std::move(x);
      st.inc.objective = lp.objective;
      st.inc.snapshot.store(lp.objective, std::memory_order_relaxed);
      obs::instant("incumbent", "milp",
                   obs::traceArg("objective", lp.objective));
      ctx.conv.push("incumbent", lp.objective, 0.0, wid);
      if (ctx.opts.onIncumbent) {
        ctx.opts.onIncumbent(lp.objective, st.inc.values);
      }
    }
    return NodeOutcome::Done;
  }

  // Screen the branch duals once on THIS node's box: a child's
  // `fathom parent` record replays them on the child's tighter box,
  // whose exact bound is monotonically no worse, and a pop-time prune
  // only fires when the future incumbent is within absGapTol of this
  // LP objective — so passing here guarantees the child record
  // verifies. When screening fails, children fall back to `open`.
  bool parentDualsOk = true;
  if (ctx.plog != nullptr) {
    parentDualsOk =
        certifiedBoundFloat(ctx.model, lb, ub, lp.dualY, /*useObj=*/true) >=
        lp.objective - ctx.opts.absGapTol - 1e-6;
  }

  // Branching at the root: its LP objective is the solve's initial global
  // dual bound.
  if (node.parentBound == -kInf) ctx.conv.push("bound", lp.objective, 0.0, wid);
  // A child counts as open before its parent is released (see
  // workerMain), so openNodes cannot touch zero while work remains.
  const auto pushChild = [&](NodeRec child) {
    st.openNodes.fetch_add(1, std::memory_order_release);
    st.pools[wid].pushBottom(std::move(child));
    st.idleCv.notify_one();
  };

  if (fracGroup >= 0) {
    // SOS1 branch: split the group on the position axis around the
    // LP-relaxation's barycenter.
    const auto& vars = ctx.sosVars[fracGroup];
    const auto& pos = ctx.sosPos[fracGroup];
    double wsum = 0.0, psum = 0.0;
    for (std::size_t k = 0; k < vars.size(); ++k) {
      const double xv = std::clamp(lp.x[vars[k]], 0.0, 1.0);
      wsum += xv;
      psum += xv * pos[k];
    }
    const double split = wsum > 0 ? psum / wsum : pos[pos.size() / 2];
    // Members strictly above the split go to the "high" child; make sure
    // both children exclude at least one *free* member.
    std::vector<Var> lowSet, highSet;
    for (std::size_t k = 0; k < vars.size(); ++k) {
      if (ub[vars[k]] < 0.5) continue;  // already excluded here
      (pos[k] <= split ? lowSet : highSet).push_back(vars[k]);
    }
    if (!lowSet.empty() && !highSet.empty()) {
      // Certificate ids are assigned at record time (deterministic — the
      // proof path runs one worker), independent of the dive-order push
      // below.
      std::int64_t exclLowId = 0, exclHighId = 0;
      if (ctx.plog != nullptr) {
        const auto ids = ctx.plog->branchSos(
            node.proofId, fracGroup, lowSet, highSet, lp.dualY);
        exclLowId = ids.first;    // child that zeroes lowSet
        exclHighId = ids.second;  // child that zeroes highSet
      }
      auto mkChild = [&](const std::vector<Var>& exclude,
                         std::int64_t proofId) {
        std::shared_ptr<const BoundChange> chain = node.changes;
        for (const Var v : exclude) {
          auto ch = std::make_shared<BoundChange>();
          ch->var = v;
          ch->lb = ctx.rootLb[v];
          ch->ub = 0.0;
          ch->parent = chain;
          chain = std::move(ch);
        }
        pushChild(NodeRec{chain, lp.objective, node.depth + 1, proofId,
                          parentDualsOk});
      };
      // Dive first into the side with more LP mass: push it last.
      double lowMass = 0.0;
      for (const Var v : lowSet) lowMass += lp.x[v];
      if (lowMass >= wsum / 2) {
        mkChild(lowSet, exclLowId);    // child allowing only high
        mkChild(highSet, exclHighId);  // child allowing only low — first
      } else {
        mkChild(highSet, exclHighId);
        mkChild(lowSet, exclLowId);
      }
      return NodeOutcome::Done;
    }
    // Degenerate group (all mass on one side): fall through to 0/1.
  }

  // Plain 0/1 (or integer floor/ceil) branching.
  const double xv = lp.x[fracVar];
  const double fl = std::floor(xv), ce = std::ceil(xv);
  std::int64_t loId = 0, hiId = 0;
  if (ctx.plog != nullptr) {
    const auto ids = ctx.plog->branchPlain(node.proofId, fracVar, fl,
                                           lp.dualY);
    loId = ids.first;
    hiId = ids.second;
  }
  auto mkChild = [&](double clb, double cub, std::int64_t proofId) {
    auto ch = std::make_shared<BoundChange>();
    ch->var = fracVar;
    ch->lb = clb;
    ch->ub = cub;
    ch->parent = node.changes;
    pushChild(NodeRec{std::move(ch), lp.objective, node.depth + 1, proofId,
                      parentDualsOk});
  };
  // Push the dive side last so DFS explores it first.
  if ((xv - fl) > 0.5) {
    mkChild(ctx.rootLb[fracVar], fl, loId);
    mkChild(ce, ctx.rootUb[fracVar], hiId);
  } else {
    mkChild(ce, ctx.rootUb[fracVar], hiId);
    mkChild(ctx.rootLb[fracVar], fl, loId);
  }
  return NodeOutcome::Done;
}

/// The branch & bound loop of worker `wid`. It owns its incremental LP:
/// the dual warm start is only valid within one thread's sequence of
/// bound changes.
void workerMain(const SearchCtx& ctx, SearchState& st,
                const util::Stopwatch& clock, int wid, WorkerStats& stats) {
  obs::Span workerSpan("bnb_worker", "milp");
  IncrementalSimplex lpSolver(ctx.model, ctx.opts.lp);
  const std::size_t n = ctx.model.numVars();
  std::vector<double> lb(n), ub(n);
  util::WorkDeque<NodeRec>& mine = st.pools[wid];
  const int nw = static_cast<int>(st.pools.size());

  const auto nodeScore = [](const NodeRec& rec) { return rec.parentBound; };
  // True while this worker's open subtree came from a steal; it holds one
  // of the explorer tokens until that subtree is exhausted.
  bool holdingToken = false;
  const auto nextNode = [&]() -> std::optional<NodeRec> {
    if (auto node = mine.popBottom()) return node;
    if (holdingToken) {
      // Stolen subtree exhausted: hand the token to the next explorer.
      holdingToken = false;
      st.explorers.fetch_sub(1, std::memory_order_relaxed);
    }
    // Incumbent-gated stealing: until a first incumbent exists there is
    // nothing to prune or cut off with, so a stolen dive only duplicates
    // cold LP work and — on a loaded machine — starves the primary dive
    // of the cycles it needs to reach feasibility at all. Let the worker
    // holding the root dive exactly like a lone worker; everyone else
    // waits for the first incumbent before spreading out.
    if (st.inc.snapshot.load(std::memory_order_relaxed) >= kInf) {
      return std::nullopt;
    }
    if (st.explorers.fetch_add(1, std::memory_order_relaxed) >=
        st.explorerCap) {
      st.explorers.fetch_sub(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    // Steal the globally most promising open node (lowest LP bound): the
    // thief restarts a dive from the subtree most likely to hold the
    // optimum. This makes idle workers best-first explorers while owners
    // stay depth-first divers — the portfolio that finds strong
    // incumbents early and keeps the proof tree small.
    int victim = -1;
    double best = kInf;
    for (int k = 1; k < nw; ++k) {
      const int v = (wid + k) % nw;
      if (const auto s = st.pools[v].peekBestScore(nodeScore);
          s.has_value() && *s < best) {
        best = *s;
        victim = v;
      }
    }
    if (victim >= 0) {
      if (auto node = st.pools[victim].stealBest(nodeScore)) {
        holdingToken = true;
        ++stats.steals;
        return node;
      }
      // Lost the race to another thief: fall back to any available node.
      for (int k = 1; k < nw; ++k) {
        if (auto node = st.pools[(wid + k) % nw].stealTop()) {
          holdingToken = true;
          ++stats.steals;
          return node;
        }
      }
    }
    st.explorers.fetch_sub(1, std::memory_order_relaxed);
    return std::nullopt;
  };

  while (!st.stop.load(std::memory_order_relaxed)) {
    // An exhausted tree ends the search before the limits are checked,
    // so a tree that empties on the node where a cap trips is Optimal.
    if (st.openNodes.load(std::memory_order_acquire) == 0) break;
    if (clock.seconds() > ctx.opts.timeLimitSeconds ||
        st.branchNodes.load(std::memory_order_relaxed) >= ctx.opts.maxNodes) {
      st.exploredAll.store(false, std::memory_order_relaxed);
      st.stop.store(true, std::memory_order_relaxed);
      st.idleCv.notify_all();
      break;
    }
    std::optional<NodeRec> node = nextNode();
    if (!node.has_value()) {
      // Brief timed wait instead of a bare condition: a missed notify can
      // only cost one tick, which keeps termination reasoning trivial.
      std::unique_lock<std::mutex> lock(st.idleMu);
      st.idleCv.wait_for(lock, std::chrono::milliseconds(1));
      continue;
    }
    st.branchNodes.fetch_add(1, std::memory_order_relaxed);
    ++stats.nodesExpanded;
    if ((stats.nodesExpanded & kNodeSampleMask) == 0) {
      ctx.conv.push(
          "nodes",
          static_cast<double>(st.openNodes.load(std::memory_order_relaxed)),
          static_cast<double>(st.branchNodes.load(std::memory_order_relaxed)),
          wid);
    }

    const double bestObj = st.inc.snapshot.load(std::memory_order_relaxed);
    if (bestObj < kInf &&
        node->parentBound >= bestObj - ctx.opts.absGapTol) {
      ++stats.prunedNodes;
      // Certificate: the parent branch record's duals re-evaluated on
      // this child's tighter box still certify the pruning bound —
      // unless they failed the float screening at branch time, in which
      // case the node stays open (a hole; the claim downgrades).
      if (ctx.plog != nullptr) {
        if (node->proofParentOk) {
          ctx.plog->fathomParent(node->proofId);
        } else {
          ctx.plog->openNode(node->proofId);
        }
      }
    } else if (expandNode(ctx, st, wid, lpSolver, *node, lb, ub,
                          ctx.opts.timeLimitSeconds - clock.seconds(),
                          stats) == NodeOutcome::LpLimit) {
      st.exploredAll.store(false, std::memory_order_relaxed);
    }
    // The node (and its just-pushed children) are accounted before this
    // decrement, so openNodes can only reach zero when the tree is done.
    if (st.openNodes.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      st.idleCv.notify_all();
    }
  }

  stats.dualPivots = lpSolver.dualPivots();
  stats.coldSolves = lpSolver.coldSolves();
  ctx.conv.push("worker", static_cast<double>(stats.steals),
                static_cast<double>(stats.prunedNodes), wid);
  workerSpan.endArgs(obs::traceArg(
      "nodesExpanded", static_cast<double>(stats.nodesExpanded)));
}

/// Branch & bound from the root with `threads` workers, starting from the
/// incumbent (if any) in `best`. Worker 0 runs on the calling thread and
/// starts with the root; only workers 1..threads-1 are spawned, so one
/// worker is a deterministic depth-first search on the caller's thread.
Solution search(const SearchCtx& ctx, Solution best,
                const util::Stopwatch& clock, int threads) {
  SearchState st(threads);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  st.explorerCap = std::max(1, hw - 1);
  if (best.feasible()) {
    st.inc.values = best.values;
    st.inc.objective = best.objective;
    st.inc.snapshot.store(best.objective, std::memory_order_relaxed);
  }
  st.openNodes.store(1, std::memory_order_relaxed);
  st.pools[0].pushBottom(NodeRec{});

  std::vector<WorkerStats> stats(threads);
  {
    // Fresh threads carry no trace context; re-install the calling
    // request's context so bnb_worker spans and incumbent instants land
    // in the distributed trace that triggered this solve.
    const obs::TraceContext traceCtx = obs::currentContext();
    std::vector<std::jthread> spawned;
    spawned.reserve(static_cast<std::size_t>(threads - 1));
    for (int w = 1; w < threads; ++w) {
      spawned.emplace_back([&ctx, &st, &clock, w, &stats, traceCtx] {
        obs::ContextScope traceScope(traceCtx);
        obs::setThreadName("bnb-worker-" + std::to_string(w));
        workerMain(ctx, st, clock, w, stats[w]);
      });
    }
    workerMain(ctx, st, clock, 0, stats[0]);
  }  // joins the spawned workers

  best.branchNodes = st.branchNodes.load(std::memory_order_relaxed);
  for (const WorkerStats& ws : stats) {
    best.simplexIterations += ws.simplexIterations;
    best.prunedNodes += ws.prunedNodes;
    best.steals += ws.steals;
    best.dualPivots += ws.dualPivots;
    best.coldSolves += ws.coldSolves;
  }
  if (st.inc.objective < kInf) {
    best.values = std::move(st.inc.values);
    best.objective = st.inc.objective;
    best.status = SolveStatus::Feasible;
  }

  bool anyLeft = false;
  for (util::WorkDeque<NodeRec>& pool : st.pools) {
    for (const NodeRec& rec : pool.drain()) {
      anyLeft = true;
      // Nodes abandoned at a limit stay explicit in the certificate; they
      // make it unverifiable, matching the weaker (non-Optimal) claim.
      if (ctx.plog != nullptr) ctx.plog->openNode(rec.proofId);
      best.bestBound = best.bestBound == -kInf
                           ? rec.parentBound
                           : std::min(best.bestBound, rec.parentBound);
    }
  }
  best.wallSeconds = clock.seconds();
  if (st.exploredAll.load(std::memory_order_relaxed) && !anyLeft) {
    best.status = best.feasible() ? SolveStatus::Optimal
                                  : SolveStatus::Infeasible;
    if (best.feasible()) best.bestBound = best.objective;
  } else if (best.feasible()) {
    best.status = SolveStatus::Feasible;
  } else {
    best.status = SolveStatus::NoSolution;
  }
  return best;
}

}  // namespace

MilpSolver::MilpSolver(const Model& model, MilpOptions opts)
    : model_(model), opts_(std::move(opts)) {}

void MilpSolver::addSos1Group(std::vector<Var> vars,
                              std::vector<double> positions) {
  sosVars_.push_back(std::move(vars));
  sosPos_.push_back(std::move(positions));
}

void MilpSolver::setInitialIncumbent(std::vector<double> x) {
  initialIncumbent_ = std::move(x);
}

Solution MilpSolver::solve() {
  util::Stopwatch clock;
  obs::Span solveSpan("milp_solve", "milp");
  ConvergenceRecorder conv(clock);

  // Proof logging runs the solver in its certified configuration: one
  // worker (deterministic tree and ids) and dual export armed. This makes
  // certificates byte-identical regardless of the requested thread count.
  if (opts_.proofLog != nullptr) {
    opts_.threads = 1;
    opts_.lp.wantDuals = true;
  }

  // Process-wide solver telemetry; one pass per solve on exit.
  const auto recordMetrics = [](const Solution& s) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("lamp_milp_solves_total", "MILP solves completed").inc();
    reg.counter("lamp_milp_nodes_explored_total", "branch & bound nodes")
        .inc(static_cast<std::uint64_t>(s.branchNodes));
    reg.counter("lamp_milp_nodes_pruned_total", "nodes fathomed by bound")
        .inc(static_cast<std::uint64_t>(s.prunedNodes));
    reg.counter("lamp_milp_steals_total", "B&B work steals")
        .inc(static_cast<std::uint64_t>(s.steals));
    reg.counter("lamp_lp_simplex_iterations_total",
                "simplex iterations, primal and dual")
        .inc(static_cast<std::uint64_t>(s.simplexIterations));
    reg.counter("lamp_lp_dual_pivots_total", "hot-restart dual simplex pivots")
        .inc(static_cast<std::uint64_t>(s.dualPivots));
    reg.counter("lamp_lp_cold_solves_total", "from-scratch LP solves")
        .inc(static_cast<std::uint64_t>(s.coldSolves));
    reg.histogram("lamp_milp_solve_seconds",
                  obs::Histogram::exponentialBounds(0.001, 4.0, 12),
                  "MILP wall time per solve")
        .observe(s.wallSeconds);
    return s;
  };

  Solution best;
  best.status = SolveStatus::NoSolution;
  best.objective = kInf;
  best.bestBound = -kInf;

  if (!initialIncumbent_.empty() &&
      model_.checkFeasible(initialIncumbent_, 1e-5).empty()) {
    best.values = initialIncumbent_;
    best.objective = model_.objective().evaluate(initialIncumbent_);
    best.status = SolveStatus::Feasible;
    obs::instant("incumbent", "milp",
                 obs::traceArg("objective", best.objective));
    conv.push("incumbent", best.objective);
    if (opts_.onIncumbent) opts_.onIncumbent(best.objective, best.values);
  }

  const std::size_t n = model_.numVars();
  SearchCtx ctx{model_, opts_, sosVars_, sosPos_, conv, {}, {}, {}};
  ctx.rootLb.resize(n);
  ctx.rootUb.resize(n);
  for (Var v = 0; v < static_cast<Var>(n); ++v) {
    ctx.rootLb[v] = model_.lowerBound(v);
    ctx.rootUb[v] = model_.upperBound(v);
  }

  // Map each variable to its SOS group, if any.
  ctx.sosOf.assign(n, -1);
  for (std::size_t g = 0; g < sosVars_.size(); ++g) {
    for (const Var v : sosVars_[g]) ctx.sosOf[v] = static_cast<std::int32_t>(g);
  }

  if (opts_.proofLog != nullptr) {
    ctx.plog = opts_.proofLog;
    // The incumbent is promised feasible at 1e-5 (the warm-start check
    // above); the leaf-bound slack covers the prune tolerance plus LP
    // float noise.
    ctx.plog->beginSolve(model_, /*feasTol=*/1e-5, proofClaimedGap(opts_),
                         opts_.intTol, sosVars_);
  }

  const int threads = opts_.threads > 0 ? opts_.threads
                                         : util::ThreadPool::defaultThreads();
  Solution sol = search(ctx, std::move(best), clock, threads);
  if (ctx.plog != nullptr) {
    ctx.plog->claim(sol.status, sol.objective, sol.values);
  }
  // The final global dual bound closes the stream: gap-vs-time readers
  // (tools/lamp-conv) measure every incumbent against it.
  if (sol.bestBound != -kInf) conv.push("bound", sol.bestBound);
  conv.drainInto(sol);
  solveSpan.endArgs(
      obs::traceArg("branchNodes", static_cast<double>(sol.branchNodes)));
  return recordMetrics(sol);
}

}  // namespace lamp::lp
