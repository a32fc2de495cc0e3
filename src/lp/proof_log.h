#ifndef LAMP_LP_PROOF_LOG_H
#define LAMP_LP_PROOF_LOG_H

/// \file proof_log.h
/// VIPR-style derivation log for the branch & bound solver. When
/// MilpOptions::proofLog points at a ProofLog, the solver emits a
/// self-contained text certificate: the model itself (so the proof can
/// be checked standalone), every branching disjunction, a dual-bound or
/// infeasibility derivation for every fathomed node, the final
/// assignment, and the optimality/infeasibility claim. The checker in
/// src/certify replays each derivation in exact rational arithmetic
/// without trusting any float in this file beyond its bit pattern —
/// every number is serialized as a C hex-float (`%a`), which round-trips
/// losslessly.
///
/// Grammar (one record per line, space-separated; see DESIGN.md §13):
///
///   lampproof 1
///   tol feas <hex> gap <hex> int <hex>
///   obj const <hex>
///   vars <n>
///   v <j> <c|i|b> <lb> <ub> <objcoef>
///   rows <m>
///   r <i> <L|G|E> <rhs> <nterms> (<var> <coef>)*
///   sos <g> row <rowIdx> vars <k> <v>*
///   node 0 root
///   branch <id> plain <var> <floor> lo <cid> hi <cid> duals <m hex>*
///   branch <id> sos <g> c1 <cid> excl <k> <v>* c2 <cid> excl <k> <v>*
///          duals <m hex>*
///   fathom <id> bound duals <m hex>*
///   fathom <id> parent
///   fathom <id> infeas duals <m hex>*
///   fathom <id> conflict <var>
///   open <id>
///   solution <n> <hex>*
///   claim optimal <obj> | claim infeasible | claim feasible <obj> |
///          claim none
///   end
///
/// Semantics the checker enforces:
///  - `duals y` certify the bound  c0 + y·b + Σ_j min(d_j·l_j, d_j·u_j)
///    over structural columns and row slacks (d_j = c_j − yᵀA_j for
///    structural j, d = −y_i for row i's slack; slack bounds encode the
///    row sense). Valid for ANY y — validity is checked, not optimality.
///  - `fathom bound`: that bound must reach z* − gap exactly.
///  - `fathom infeas`: same formula with c = 0 must come out > 0.
///  - `fathom parent`: the parent branch record's duals re-evaluated on
///    this child's (tighter) box — monotonically valid.
///  - `fathom conflict`: lb > ub on the named variable in this box.
///  - `branch plain`: lo keeps x_v ≤ floor, hi keeps x_v ≥ floor+1 on an
///    integer-typed var — covers the integer space.
///  - `branch sos`: children zero out two disjoint exclusion sets that
///    together cover the group's still-free members; the referenced
///    one-hot row (Σ members == 1, unit coefficients) makes the split
///    exhaustive.
///
/// Row multipliers in every record refer to the model's own rows (the
/// solver never rewrites them). Logging forces one thread, which makes
/// certificates byte-identical at any `--threads`.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lp/model.h"

namespace lamp::lp {

class ProofLog {
 public:
  ProofLog() = default;
  ProofLog(const ProofLog&) = delete;
  ProofLog& operator=(const ProofLog&) = delete;

  /// Writes the header: tolerances, the embedded model, and the SOS
  /// group → one-hot-row bindings (resolved by scanning `model`).
  /// `feasTol` is the tolerance the incumbent is promised to satisfy;
  /// `claimedGap` the slack allowed between a leaf's exact bound and
  /// the exact incumbent objective; `intTol` the integrality tolerance.
  void beginSolve(const Model& model, double feasTol, double claimedGap,
                  double intTol,
                  const std::vector<std::vector<Var>>& sosVars);

  static constexpr std::int64_t kRootId = 0;

  void fathomBound(std::int64_t id, const std::vector<double>& y);
  void fathomParent(std::int64_t id);
  void fathomInfeasible(std::int64_t id, const std::vector<double>& y);
  void fathomConflict(std::int64_t id, Var v);
  /// A node the solver abandoned (LP limit / node cap) or whose exported
  /// dual derivation failed the producer-side float screening in the
  /// solver: recorded so the tree stays explicit. Any open node is a
  /// hole — claim() downgrades accordingly.
  void openNode(std::int64_t id);

  /// Returns (loChildId, hiChildId): lo gets x_v ≤ floorVal, hi gets
  /// x_v ≥ floorVal + 1.
  std::pair<std::int64_t, std::int64_t> branchPlain(
      std::int64_t id, Var v, double floorVal, const std::vector<double>& y);

  /// Returns (child1, child2): child1 fixes every var of `excl1` to 0,
  /// child2 every var of `excl2`.
  std::pair<std::int64_t, std::int64_t> branchSos(
      std::int64_t id, std::int32_t group, const std::vector<Var>& excl1,
      const std::vector<Var>& excl2, const std::vector<double>& y);

  /// Final record: the incumbent assignment (if any) and the claim. If
  /// any node was recorded `open` the tree is incomplete, so claims that
  /// depend on exhausting it are downgraded to what the incumbent alone
  /// supports: optimal -> feasible, infeasible -> none. The solver's own
  /// Solution is NOT downgraded — the certificate simply states how much
  /// of the float result is actually proved.
  void claim(SolveStatus status, double objective,
             const std::vector<double>& solution);

  const std::string& text() const { return buf_; }
  std::int64_t nodeCount() const { return nextId_; }

  /// Lossless double serialization used throughout the format
  /// (C hex-float via %a; "inf"/"-inf" for infinities).
  static std::string hexDouble(double v);

 private:
  void appendDuals(const std::vector<double>& y);

  std::string buf_;
  std::int64_t nextId_ = 1;  ///< 0 is the root
  bool hole_ = false;        ///< any `open` record written (see claim())
  /// Row senses ('L'/'G'/'E') captured at beginSolve; appendDuals clamps
  /// wrong-signed inequality-slack multipliers (degenerate-basis float
  /// noise) to zero so every logged derivation is sign-feasible.
  std::vector<char> rowSense_;
};

}  // namespace lamp::lp

#endif  // LAMP_LP_PROOF_LOG_H
