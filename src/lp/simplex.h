#ifndef LAMP_LP_SIMPLEX_H
#define LAMP_LP_SIMPLEX_H

/// \file simplex.h
/// Bounded-variable primal simplex for the continuous relaxation of a
/// Model. Two-phase (artificial variables), revised form with a dense
/// basis inverse and sparse constraint columns; Dantzig pricing with a
/// Bland anti-cycling fallback.
///
/// The inverse is a dense m×m array stored column-major, and its kernels
/// skip zero factors: ftran adds one column of B⁻¹ per nonzero of the
/// entering column, the pivot update touches only the columns whose
/// pivot-row entry is nonzero, and btran sums only over basics with
/// nonzero cost. The dual simplex runs no btran: its ratio test computes
/// each dual it reads, on first use, for the few eligible columns it
/// prices. The elementwise kernels compile to SSE2 vector loops. Each
/// result element keeps the dense product's summation order (ascending
/// index, no reassociation, no FMA: lamp_lp builds with
/// -ffp-contract=off and simplex.cpp refuses -ffast-math), so none of
/// this changes a bit of any pivot decision; simplex.cpp states the
/// argument.
///
/// Scale target: the modulo-scheduling MILPs this repo builds (hundreds to
/// a few thousand rows). Not a general-purpose LP code: the inverse still
/// takes m² doubles and a refactorization O(m³) time.

#include <cstdint>
#include <memory>
#include <vector>

#include "lp/model.h"

namespace lamp::lp {

struct SimplexOptions {
  double feasTol = 1e-7;   ///< bound/row feasibility tolerance
  double optTol = 1e-7;    ///< reduced-cost optimality tolerance
  std::int64_t maxIterations = 500000;
  double timeLimitSeconds = kInf;
  /// Early-termination threshold for the incremental (dual) path. Every
  /// dual-feasible basis values a valid lower bound on the LP optimum and
  /// the dual simplex raises it monotonically, so once it crosses this
  /// value the caller will discard the node no matter what the exact
  /// optimum is — the solve stops with SolveStatus::Cutoff and the bound
  /// reached in SimplexResult::objective. Degenerate LPs (like modulo
  /// scheduling) spend most of their dual pivots *at* the optimal
  /// objective restoring feasibility; a branch & bound caller that sets
  /// this to its incumbent skips that entire plateau.
  double objectiveCutoff = kInf;
  /// Export row multipliers with every exit (proof logging). Adds one
  /// btran on the Cutoff path and a vector copy per solve; leave off
  /// outside certificate runs.
  bool wantDuals = false;
};

struct SimplexResult {
  SolveStatus status = SolveStatus::Error;
  double objective = 0.0;
  std::vector<double> x;  ///< structural variable values
  std::int64_t iterations = 0;
  /// Certificate exports, filled only under SimplexOptions::wantDuals.
  /// `dualY` holds one multiplier per model row (y = c_B·B⁻¹ at the
  /// exit basis). On Optimal/Cutoff exits it certifies the dual bound:
  /// with reduced costs d_j = c_j − yᵀA_j (and d = −y_i for row i's
  /// slack), y·b + Σ_j min(d_j·l_j, d_j·u_j) is a valid lower bound on
  /// the LP — for *any* y, which is what lets an exact checker replay it
  /// without trusting this solver. On Infeasible exits with `farkas`
  /// set, the same formula with c = 0 yields a strictly positive bound,
  /// proving the constraint system empty. `conflictVar` reports the
  /// trivial case instead: the solve never started because that
  /// variable's lower bound exceeded its upper bound.
  std::vector<double> dualY;
  bool farkas = false;
  std::int32_t conflictVar = -1;
};

/// Solves the LP relaxation of `model` (integrality dropped) under
/// per-call variable bounds, which is how branch & bound fixes branching
/// decisions without copying the model. The first solve runs the full
/// two-phase primal simplex, so a fresh instance is a cold solver; every
/// later solve only *changes variable bounds*, which keeps the optimal
/// basis dual-feasible, so primal feasibility is restored with a few dual
/// simplex pivots instead of a from-scratch solve. Falls back to the full
/// solve on numerical trouble.
class IncrementalSimplex {
 public:
  explicit IncrementalSimplex(const Model& model, SimplexOptions opts = {});
  ~IncrementalSimplex();

  /// Solves under the given bounds (vectors sized numVars()), reusing
  /// the previous basis.
  SimplexResult solve(const std::vector<double>& lb,
                      const std::vector<double>& ub);

  /// Adjusts the per-solve wall-clock limit (e.g. branch & bound passing
  /// down its remaining budget).
  void setTimeLimit(double seconds);

  /// Sets SimplexOptions::objectiveCutoff for subsequent solves (kInf
  /// disables). A solve that stops this way returns SolveStatus::Cutoff
  /// with `objective` holding the dual bound it reached; the warm basis
  /// stays valid.
  void setObjectiveCutoff(double cutoff);

  /// Statistics: dual pivots taken across all hot solves.
  std::int64_t dualPivots() const;
  std::int64_t coldSolves() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace lamp::lp

#endif  // LAMP_LP_SIMPLEX_H
