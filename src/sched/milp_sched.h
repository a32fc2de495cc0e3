#ifndef LAMP_SCHED_MILP_SCHED_H
#define LAMP_SCHED_MILP_SCHED_H

/// \file milp_sched.h
/// Mapping-aware modulo scheduling as a mixed integer linear program —
/// Section 3.2 of the paper. The same builder covers both experimental
/// arms: MILP-base (pass cut::trivialCuts) and MILP-map (pass
/// cut::enumerateCuts).
///
/// Formulation (paper equation -> here):
///  - (2)(3)(4) LUT cover: binary c_{v,i} per selectable cut;
///    sum_i c_{v,i} <= 1; outputs/black boxes have their single port cut
///    pre-selected, which forces (3); boundary rooting (4) is emitted in
///    the aggregated per-pair form  sum_{i: u in cut_i} c_{v,i} <= root_u
///    (exactly equivalent given one selected cut per node, but one row per
///    distinct (u, v) pair instead of one per (u, i, v)).
///  - (5)(6) one-hot cycle assignment s_{v,t} over exact ASAP/ALAP windows;
///    S_v is substituted as the expression sum t*s_{v,t}.
///  - (7) dependence rows, generalized with black-box latencies:
///    S_u + lat_u <= S_v + II*dist.
///  - (8) cycle time: folded into variable bounds L_v <= Tcp - rem_v
///    (L_v = 0 for multi-cycle ops).
///  - (9) chaining rows in the aggregated per-pair form:
///    (S_u + lat_u - S_v - II*d)*Tcp + L_u - L_v + B_{u,d,v}*rem_u <= 0.
///  - (10)-(13) register counting in the equivalent lifetime form
///    (Eichenberger-style): lastUse_u >= S_v + II*d - M*(1 - B_{u,d,v}),
///    lastUse_u >= S_u + lat_u; FF bits = Bits(u)*(lastUse_u - S_u - lat_u).
///    Summing live_{v,t} over all t and all modulo slots (the paper's
///    sum_m Reg(m)) equals exactly this lifetime sum.
///  - (14) modulo resource rows for black-box classes.
///  - (15) objective: alpha * sum lutCost(v,i)*c_{v,i} + beta * FF bits.
///    lutCost refines Bits(v)*root_v by charging nothing for pure-wire
///    cones and carry-chain costs for wide arithmetic.

#include <string>
#include <utility>
#include <vector>

#include "lp/milp.h"
#include "sched/schedule.h"

namespace lamp::sched {

/// Pre-solve schedule-space facts consumed at formulation time, produced
/// by analyze::computeSchedSpace (src/analyze/schedspace.h). Everything
/// here is a *pure reduction*: at least one optimal solution of the full
/// model survives, so objective and optimal II are unchanged. Because
/// the reductions happen before the model is built, the proof-logged
/// model is the reduced model and certification is unaffected.
struct ScheduleSpaceHints {
  /// False when the analysis proved no schedule exists at this
  /// II/latency bound; milpSchedule fails fast without building a model.
  bool feasible = true;
  /// Tightened per-node windows (graph-sized; intersected with the
  /// builder's own computeWindows result). Empty vectors = no tightening.
  std::vector<int> asap;
  std::vector<int> alap;
  /// Probed-infeasible (node, cycle) start assignments strictly inside
  /// the windows; the corresponding s_{v,t} variables are never created.
  std::vector<std::pair<ir::NodeId, int>> forbidden;
  /// Lexicographic symmetry-breaking rows S_first <= S_second, one per
  /// consecutive pair of each symmetry orbit.
  std::vector<std::pair<ir::NodeId, ir::NodeId>> precede;
  /// Per-node branching priority (graph-sized; higher = branch earlier;
  /// empty = solver default). Copied onto every s_{v,t} of the node.
  std::vector<double> branchPriority;
  /// Transitive liveness (graph-sized; fanin closure of Output/Store
  /// sinks, any edge distance). Enables the forced-root substitution:
  /// a live single-cut node whose rooting is implied by the cover rows
  /// gets its cut binary substituted by the constant 1 instead of a
  /// variable. Empty = substitution disabled.
  std::vector<char> live;
};

/// Which rendering of the register/chaining constraints to emit.
enum class Formulation : std::uint8_t {
  /// Aggregated boundary pairs + lifetime variables (default): one row
  /// per (u, v) pair and one continuous lastUse_u per value. Equivalent
  /// objective, far fewer rows.
  Compact,
  /// The paper's Eqs. (9)-(13) verbatim: one chaining row per
  /// (v, cut i, u in cut), binary-free live_{v,t} variables constrained
  /// by def/kill sums, Reg(m) summed per modulo slot.
  Literal,
};

struct MilpSchedOptions {
  int ii = 1;
  double tcpNs = 10.0;
  double alpha = 0.5;  ///< LUT weight in (15)
  double beta = 0.5;   ///< register weight in (15)
  Formulation formulation = Formulation::Compact;
  /// Hard latency bound M (a member of constraint set C). Callers usually
  /// pass the SDC schedule's latency plus a small margin.
  int maxLatency = 16;
  /// Refuse to build models beyond this many rows: the dense-basis
  /// simplex would thrash (memory is O(rows^2)). Callers fall back to the
  /// greedy mapping-aware heuristic — mirroring the paper's observation
  /// that the exact ILP does not scale and a heuristic must take over.
  std::size_t maxRows = 6000;
  ResourceLimits resources;
  lp::MilpOptions solver;
  /// When set, the fully built model is dumped in CPLEX LP format and
  /// milpSchedule returns without solving (lampc --emit-lp).
  std::ostream* dumpModel = nullptr;
  /// Optional feasible schedule used as the warm-start incumbent.
  const Schedule* warmStart = nullptr;
  /// When true, warmStart->selectedCut indexes *this* cut database and is
  /// honored (e.g. a greedyMapSchedule result); otherwise every
  /// materialized node warm-starts on its unit cut.
  bool warmStartSelectsCuts = false;
  /// When true, the solver writes a lampproof derivation log (see
  /// lp/proof_log.h) and the result's `proof` field carries its text.
  /// Forces a deterministic serial solve (see MilpOptions::proofLog).
  bool captureProof = false;
  /// Optional schedule-space analysis facts (see ScheduleSpaceHints);
  /// must outlive the milpSchedule call. nullptr = no reduction.
  const ScheduleSpaceHints* hints = nullptr;
};

struct MilpSchedResult {
  bool success = false;
  std::string error;
  Schedule schedule;

  lp::SolveStatus status = lp::SolveStatus::Error;
  double objective = 0.0;
  double bestBound = 0.0;
  /// Objective components at the returned schedule.
  double lutTerm = 0.0;
  double regTerm = 0.0;

  double buildSeconds = 0.0;
  double solveSeconds = 0.0;
  std::int64_t branchNodes = 0;
  std::int64_t prunedNodes = 0;
  std::int64_t steals = 0;
  std::int64_t simplexIterations = 0;
  std::int64_t dualPivots = 0;
  std::int64_t coldSolves = 0;
  std::size_t numVars = 0;
  std::size_t numConstraints = 0;
  std::size_t numCuts = 0;
  /// Bounded solver convergence telemetry (see lp::ConvergenceEvent);
  /// rides FlowResult and the service JSON for tools/lamp-conv.
  std::vector<lp::ConvergenceEvent> convergence;
  std::int64_t convergenceDropped = 0;
  /// lampproof certificate text (empty unless captureProof was set).
  /// Captured even when the solve fails, so callers can diagnose
  /// non-optimal claims.
  std::string proof;
};

/// Builds and solves the modulo-scheduling MILP over the given cut
/// database. The database decides the arm: trivialCuts => MILP-base,
/// enumerateCuts => MILP-map.
MilpSchedResult milpSchedule(const ir::Graph& g, const cut::CutDatabase& db,
                             const DelayModel& dm,
                             const MilpSchedOptions& opts = {});

}  // namespace lamp::sched

#endif  // LAMP_SCHED_MILP_SCHED_H
