#ifndef LAMP_LP_MODEL_H
#define LAMP_LP_MODEL_H

/// \file model.h
/// A small modeling API for (mixed-integer) linear programs, in the spirit
/// of the CPLEX/Gurobi C++ APIs the paper's experiments relied on:
/// variables with bounds and types, linear expressions, constraints, and a
/// linear objective. Solved by lp::IncrementalSimplex (continuous
/// relaxations) and lp::MilpSolver (branch & bound).

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

namespace lamp::lp {

/// Variable handle (index into the model).
using Var = std::int32_t;
inline constexpr Var kNoVar = -1;

/// +infinity for bounds.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class VarType : std::uint8_t {
  Continuous,
  Integer,
  Binary,  ///< integer with implied bounds [0, 1]
};

/// One term of a linear expression.
struct Term {
  Var var = kNoVar;
  double coef = 0.0;
};

/// A linear expression: sum of terms plus a constant. Terms may repeat;
/// normalized() merges duplicates.
class LinExpr {
 public:
  LinExpr() = default;
  /*implicit*/ LinExpr(double constant) : constant_(constant) {}

  static LinExpr term(Var v, double coef) {
    LinExpr e;
    e.add(v, coef);
    return e;
  }

  LinExpr& add(Var v, double coef) {
    if (coef != 0.0) terms_.push_back(Term{v, coef});
    return *this;
  }
  LinExpr& add(const LinExpr& other, double scale = 1.0) {
    for (const Term& t : other.terms_) add(t.var, t.coef * scale);
    constant_ += other.constant_ * scale;
    return *this;
  }
  LinExpr& addConstant(double c) {
    constant_ += c;
    return *this;
  }

  const std::vector<Term>& terms() const { return terms_; }
  double constant() const { return constant_; }

  /// Merges duplicate variables and drops zero coefficients.
  void normalize();

  /// Evaluates against a full assignment vector.
  double evaluate(const std::vector<double>& x) const;

 private:
  std::vector<Term> terms_;
  double constant_ = 0.0;
};

enum class Sense : std::uint8_t { Le, Ge, Eq };

/// A linear constraint `expr (<=,>=,==) rhs` (expression constant folded
/// into the rhs by Model::addConstraint).
struct Constraint {
  std::vector<Term> terms;
  Sense sense = Sense::Le;
  double rhs = 0.0;
  std::string name;
};

/// Solver outcome classification.
enum class SolveStatus : std::uint8_t {
  Optimal,     ///< proved optimal (within tolerances)
  Feasible,    ///< feasible incumbent, limit hit before optimality proof
  Infeasible,
  Unbounded,
  NoSolution,  ///< limit hit with no feasible point found
  Cutoff,      ///< dual bound crossed the caller's objective cutoff
  Error,
};

std::string_view solveStatusName(SolveStatus s);

/// One timestamped step of a branch & bound solve's convergence: how
/// the incumbent and the dual bound closed in on each other over time.
/// The stream is bounded (see Solution::convergenceDropped) so a long
/// solve cannot bloat results that ride service responses.
struct ConvergenceEvent {
  /// Seconds since the solve started.
  double tSeconds = 0.0;
  /// "incumbent" (value = objective), "bound" (value = global dual
  /// bound), "nodes" (value = open nodes, those being expanded included;
  /// aux = explored nodes), or "worker" (value = steals, aux = pruned
  /// nodes; end-of-solve summary).
  std::string kind;
  double value = 0.0;
  double aux = 0.0;
  /// B&B worker that produced the event (0 when threads == 1); -1 for
  /// solve-global events: the warm-start incumbent and the closing bound.
  int worker = -1;
};

/// Result of an LP or MILP solve.
struct Solution {
  SolveStatus status = SolveStatus::Error;
  double objective = 0.0;
  /// Best proven lower bound on a minimization MILP (== objective when
  /// Optimal).
  double bestBound = -kInf;
  std::vector<double> values;  ///< one entry per model variable

  // Statistics.
  std::int64_t simplexIterations = 0;
  std::int64_t branchNodes = 0;
  std::int64_t prunedNodes = 0;  ///< fathomed by bound before the LP ran
  std::int64_t steals = 0;       ///< work-steals between B&B workers
  std::int64_t dualPivots = 0;   ///< hot-restart dual simplex pivots
  std::int64_t coldSolves = 0;   ///< from-scratch LP solves
  double wallSeconds = 0.0;

  /// Bounded convergence telemetry (MILP solves only; empty for pure
  /// LPs). Ordered by tSeconds within each producing thread.
  std::vector<ConvergenceEvent> convergence;
  /// Events discarded once the stream hit its cap.
  std::int64_t convergenceDropped = 0;

  bool feasible() const {
    return status == SolveStatus::Optimal || status == SolveStatus::Feasible;
  }
  double value(Var v) const { return values[static_cast<std::size_t>(v)]; }
};

/// A mixed-integer linear program. Minimization only (negate to maximize).
class Model {
 public:
  Model() = default;
  explicit Model(std::string name) : name_(std::move(name)) {}

  /// Adds a variable; Binary forces bounds into [0,1].
  Var addVar(double lb, double ub, VarType type, std::string name = {});

  Var addBinary(std::string name = {}) {
    return addVar(0.0, 1.0, VarType::Binary, std::move(name));
  }
  Var addContinuous(double lb, double ub, std::string name = {}) {
    return addVar(lb, ub, VarType::Continuous, std::move(name));
  }

  /// Adds `expr sense rhs`; the expression's constant is folded into rhs.
  void addConstraint(LinExpr expr, Sense sense, double rhs,
                     std::string name = {});

  /// Sets the minimization objective.
  void setObjective(LinExpr expr);

  std::size_t numVars() const { return lb_.size(); }
  std::size_t numConstraints() const { return constraints_.size(); }
  std::size_t numIntegerVars() const;

  double lowerBound(Var v) const { return lb_[idx(v)]; }
  double upperBound(Var v) const { return ub_[idx(v)]; }
  VarType varType(Var v) const { return type_[idx(v)]; }
  const std::string& varName(Var v) const { return varNames_[idx(v)]; }
  void setBounds(Var v, double lb, double ub) {
    lb_[idx(v)] = lb;
    ub_[idx(v)] = ub;
  }

  const std::vector<Constraint>& constraints() const { return constraints_; }
  const LinExpr& objective() const { return objective_; }
  const std::string& name() const { return name_; }

  bool isIntegerType(Var v) const {
    return type_[idx(v)] == VarType::Integer ||
           type_[idx(v)] == VarType::Binary;
  }

  /// Writes the model in CPLEX LP text format (debugging aid).
  void writeLp(std::ostream& os) const;

  /// Checks a point for feasibility within `tol`; returns a diagnostic for
  /// the first violated constraint/bound/integrality, or empty if feasible.
  std::string checkFeasible(const std::vector<double>& x,
                            double tol = 1e-6) const;

 private:
  /// Var is a signed handle (kNoVar = -1 sentinel); all stored indices
  /// are non-negative, so the widening here never changes the value.
  static std::size_t idx(Var v) { return static_cast<std::size_t>(v); }

  std::string name_;
  std::vector<double> lb_, ub_;
  std::vector<VarType> type_;
  std::vector<std::string> varNames_;
  std::vector<Constraint> constraints_;
  LinExpr objective_;
};

}  // namespace lamp::lp

#endif  // LAMP_LP_MODEL_H
