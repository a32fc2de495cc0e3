#ifndef LAMP_LP_MILP_H
#define LAMP_LP_MILP_H

/// \file milp.h
/// Branch & bound MILP solver on top of lp::IncrementalSimplex. Plays the
/// role CPLEX played in the paper's experiments: it is run under a
/// wall-clock cap and returns the best incumbent found
/// (Solution::status == Feasible) when the cap expires before the
/// optimality proof completes. Every relaxation is of the model as given,
/// so a plain and a certified search see the same LPs.
///
/// Features used by the scheduler:
///  - binary/integer branching (most-fractional),
///  - SOS1 group branching (the one-hot cycle-assignment rows s_{v,t},
///    split on the time axis — far stronger than 0/1 branching),
///  - warm-start incumbents (the SDC schedule mapped to a feasible point),
///  - deterministic node selection (depth-first diving with best-bound
///    pruning),
///  - work-stealing tree search (MilpOptions::threads): one search loop
///    run by every worker, each owning a deque of open nodes and its own
///    IncrementalSimplex so warm starts stay thread-local. Worker 0 runs
///    on the calling thread; only the others are spawned. threads == 1
///    is that one worker alone: a deterministic depth-first search,
///    repeatable node for node and pivot for pivot. With more threads
///    the returned objective is unchanged on any instance solved to
///    optimality (the tree is explored exhaustively up to valid bound
///    pruning), but node counts and which optimal vertex is returned may
///    differ. See DESIGN.md "Concurrency model".

#include <functional>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"

namespace lamp::lp {

class ProofLog;

struct MilpOptions {
  double timeLimitSeconds = 60.0;
  std::int64_t maxNodes = 1'000'000;
  double intTol = 1e-6;      ///< integrality tolerance
  double absGapTol = 1e-6;   ///< stop when bound within this of incumbent
  /// Branch & bound workers, worker 0 on the calling thread. 0 = auto
  /// (hardware concurrency capped at 8); 1 = one deterministic worker
  /// and no spawned thread.
  int threads = 0;
  SimplexOptions lp;
  /// Optional per-incumbent callback (objective, values). Invocations are
  /// serialized (under the incumbent lock) even with threads > 1, and
  /// run on the calling thread with threads == 1; the callback must not
  /// re-enter the solver.
  std::function<void(double, const std::vector<double>&)> onIncumbent;
  /// When set, the solver writes a VIPR-style derivation certificate into
  /// this log (see proof_log.h) that src/certify can replay in exact
  /// arithmetic. Logging forces threads = 1 and turns on
  /// SimplexOptions::wantDuals, which moves no pivot: the certified
  /// search is the plain one-worker search node for node, and
  /// certificates are byte-identical regardless of the `threads` setting.
  /// Null (the default) costs nothing.
  ProofLog* proofLog = nullptr;
  /// Optional per-variable branching priority (indexed by Var; missing
  /// entries read as 0). Added to a variable's fractionality when picking
  /// the branch variable, so priorities above ~0.5 dominate fractionality
  /// outright while small values act as tie-breakers. Variables at an
  /// integral LP value are never branched on regardless of priority.
  /// Empty (the default) reproduces the historical most-fractional rule
  /// node for node. Priorities change the tree shape only — never which
  /// objective is optimal — and compose with SOS1 group branching (the
  /// chosen variable's group is split as usual).
  std::vector<double> branchPriority;
};

class MilpSolver {
 public:
  explicit MilpSolver(const Model& model, MilpOptions opts = {});

  /// Declares that the given binary variables form a one-hot group
  /// (sum == 1 enforced by a model constraint). Used for branching only;
  /// groups must be pairwise disjoint. `positions` gives each member's
  /// ordinal on the branching axis (e.g. the cycle index).
  void addSos1Group(std::vector<Var> vars, std::vector<double> positions);

  /// Supplies a known-feasible assignment used as the initial incumbent.
  /// Ignored (with a diagnostic in Solution) if it fails checkFeasible.
  void setInitialIncumbent(std::vector<double> x);

  Solution solve();

 private:
  const Model& model_;
  MilpOptions opts_;
  std::vector<std::vector<Var>> sosVars_;
  std::vector<std::vector<double>> sosPos_;
  std::vector<double> initialIncumbent_;
};

}  // namespace lamp::lp

#endif  // LAMP_LP_MILP_H
