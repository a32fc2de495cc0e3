#include "lp/proof_log.h"

#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace lamp::lp {

namespace {

char varTypeChar(VarType t) {
  switch (t) {
    case VarType::Continuous:
      return 'c';
    case VarType::Integer:
      return 'i';
    case VarType::Binary:
      return 'b';
  }
  return 'c';
}

char senseChar(Sense s) {
  switch (s) {
    case Sense::Le:
      return 'L';
    case Sense::Ge:
      return 'G';
    case Sense::Eq:
      return 'E';
  }
  return 'L';
}

/// Accumulates a term list into dense per-variable coefficients
/// (LinExpr/Constraint terms may repeat a variable).
std::vector<std::pair<Var, double>> accumulateTerms(
    const std::vector<Term>& terms, std::size_t numVars) {
  std::vector<double> dense(numVars, 0.0);
  std::vector<Var> order;
  std::vector<char> seen(numVars, 0);
  for (const Term& t : terms) {
    if (t.var < 0 || static_cast<std::size_t>(t.var) >= numVars) continue;
    if (!seen[static_cast<std::size_t>(t.var)]) {
      seen[static_cast<std::size_t>(t.var)] = 1;
      order.push_back(t.var);
    }
    dense[static_cast<std::size_t>(t.var)] += t.coef;
  }
  std::vector<std::pair<Var, double>> out;
  out.reserve(order.size());
  for (Var v : order) {
    const double c = dense[static_cast<std::size_t>(v)];
    if (c != 0.0) out.emplace_back(v, c);
  }
  return out;
}

}  // namespace

std::string ProofLog::hexDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void ProofLog::appendDuals(const std::vector<double>& y) {
  buf_ += " duals";
  for (std::size_t i = 0; i < y.size(); ++i) {
    // The bound formula is valid for any sign-feasible y; degenerate
    // exit bases leave ~1e-13 noise with the wrong sign on inequality
    // slacks, which would make the exact contribution -inf. Clamping to
    // zero keeps the derivation sound (row unused) and weakens the
    // bound by at most the noise itself — far inside the recorded gap.
    double v = y[i];
    if (i < rowSense_.size()) {
      if (rowSense_[i] == 'L' && v > 0.0) v = 0.0;
      if (rowSense_[i] == 'G' && v < 0.0) v = 0.0;
    }
    // One spelling for zero: Farkas multipliers are copied out of B⁻¹,
    // whose zero entries carry signs that mean nothing (see simplex.cpp).
    if (v == 0.0) v = 0.0;
    buf_ += ' ';
    buf_ += hexDouble(v);
  }
  buf_ += '\n';
}

void ProofLog::beginSolve(const Model& model, double feasTol,
                          double claimedGap, double intTol,
                          const std::vector<std::vector<Var>>& sosVars) {
  buf_.clear();
  nextId_ = 1;
  hole_ = false;
  const std::size_t n = model.numVars();

  buf_ += "lampproof 1\n";
  buf_ += "tol feas " + hexDouble(feasTol) + " gap " + hexDouble(claimedGap) +
          " int " + hexDouble(intTol) + "\n";
  buf_ += "obj const " + hexDouble(model.objective().constant()) + "\n";

  // Dense objective coefficients (terms may repeat variables).
  std::vector<double> obj(n, 0.0);
  for (const Term& t : model.objective().terms()) {
    if (t.var >= 0 && static_cast<std::size_t>(t.var) < n) {
      obj[static_cast<std::size_t>(t.var)] += t.coef;
    }
  }

  buf_ += "vars " + std::to_string(n) + "\n";
  for (std::size_t j = 0; j < n; ++j) {
    const Var v = static_cast<Var>(j);
    buf_ += "v ";
    buf_ += std::to_string(j);
    buf_ += ' ';
    buf_ += varTypeChar(model.varType(v));
    buf_ += ' ';
    buf_ += hexDouble(model.lowerBound(v));
    buf_ += ' ';
    buf_ += hexDouble(model.upperBound(v));
    buf_ += ' ';
    buf_ += hexDouble(obj[j]);
    buf_ += '\n';
  }

  const auto& rows = model.constraints();
  rowSense_.clear();
  rowSense_.reserve(rows.size());
  for (const auto& row : rows) rowSense_.push_back(senseChar(row.sense));
  buf_ += "rows " + std::to_string(rows.size()) + "\n";
  std::vector<std::vector<std::pair<Var, double>>> rowTerms;
  rowTerms.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rowTerms.push_back(accumulateTerms(rows[i].terms, n));
    const auto& acc = rowTerms.back();
    buf_ += "r " + std::to_string(i) + " ";
    buf_ += senseChar(rows[i].sense);
    buf_ += ' ';
    buf_ += hexDouble(rows[i].rhs);
    buf_ += ' ';
    buf_ += std::to_string(acc.size());
    for (const auto& [var, coef] : acc) {
      buf_ += ' ';
      buf_ += std::to_string(var);
      buf_ += ' ';
      buf_ += hexDouble(coef);
    }
    buf_ += '\n';
  }

  // Bind each SOS group to its one-hot convexity row: Σ members == 1
  // with unit coefficients and support exactly equal to the group. The
  // checker needs the row to prove an SOS split exhaustive; groups
  // without one are recorded as row -1 (their branches won't verify,
  // which is the honest outcome).
  for (std::size_t g = 0; g < sosVars.size(); ++g) {
    const auto& group = sosVars[g];
    std::unordered_set<Var> members(group.begin(), group.end());
    std::int64_t rowIdx = -1;
    for (std::size_t i = 0; i < rowTerms.size(); ++i) {
      if (rows[i].sense != Sense::Eq || rows[i].rhs != 1.0) continue;
      const auto& acc = rowTerms[i];
      if (acc.size() != members.size()) continue;
      bool match = true;
      for (const auto& [var, coef] : acc) {
        if (coef != 1.0 || members.find(var) == members.end()) {
          match = false;
          break;
        }
      }
      if (match) {
        rowIdx = static_cast<std::int64_t>(i);
        break;
      }
    }
    buf_ += "sos ";
    buf_ += std::to_string(g);
    buf_ += " row ";
    buf_ += std::to_string(rowIdx);
    buf_ += " vars ";
    buf_ += std::to_string(group.size());
    for (Var v : group) {
      buf_ += ' ';
      buf_ += std::to_string(v);
    }
    buf_ += '\n';
  }

  buf_ += "node 0 root\n";
}

void ProofLog::fathomBound(std::int64_t id, const std::vector<double>& y) {
  buf_ += "fathom " + std::to_string(id) + " bound";
  appendDuals(y);
}

void ProofLog::fathomParent(std::int64_t id) {
  buf_ += "fathom " + std::to_string(id) + " parent\n";
}

void ProofLog::fathomInfeasible(std::int64_t id,
                                const std::vector<double>& y) {
  buf_ += "fathom " + std::to_string(id) + " infeas";
  appendDuals(y);
}

void ProofLog::fathomConflict(std::int64_t id, Var v) {
  buf_ += "fathom " + std::to_string(id) + " conflict " + std::to_string(v) +
          "\n";
}

void ProofLog::openNode(std::int64_t id) {
  hole_ = true;
  buf_ += "open " + std::to_string(id) + "\n";
}

std::pair<std::int64_t, std::int64_t> ProofLog::branchPlain(
    std::int64_t id, Var v, double floorVal, const std::vector<double>& y) {
  const std::int64_t lo = nextId_++;
  const std::int64_t hi = nextId_++;
  buf_ += "branch " + std::to_string(id) + " plain " + std::to_string(v) +
          " " + hexDouble(floorVal) + " lo " + std::to_string(lo) + " hi " +
          std::to_string(hi);
  appendDuals(y);
  return {lo, hi};
}

std::pair<std::int64_t, std::int64_t> ProofLog::branchSos(
    std::int64_t id, std::int32_t group, const std::vector<Var>& excl1,
    const std::vector<Var>& excl2, const std::vector<double>& y) {
  const std::int64_t c1 = nextId_++;
  const std::int64_t c2 = nextId_++;
  buf_ += "branch " + std::to_string(id) + " sos " + std::to_string(group) +
          " c1 " + std::to_string(c1) + " excl " +
          std::to_string(excl1.size());
  for (Var v : excl1) {
    buf_ += ' ';
    buf_ += std::to_string(v);
  }
  buf_ += " c2 " + std::to_string(c2) + " excl " +
          std::to_string(excl2.size());
  for (Var v : excl2) {
    buf_ += ' ';
    buf_ += std::to_string(v);
  }
  appendDuals(y);
  return {c1, c2};
}

void ProofLog::claim(SolveStatus status, double objective,
                     const std::vector<double>& solution) {
  // An `open` node is a hole in the tree: claims that depend on having
  // exhausted it cannot be certified, so write the strongest claim the
  // proof actually supports instead.
  if (hole_) {
    if (status == SolveStatus::Optimal) {
      status = SolveStatus::Feasible;
    } else if (status == SolveStatus::Infeasible) {
      status = SolveStatus::NoSolution;
    }
  }
  if (status == SolveStatus::Optimal || status == SolveStatus::Feasible) {
    buf_ += "solution " + std::to_string(solution.size());
    for (double v : solution) {
      buf_ += ' ';
      buf_ += hexDouble(v);
    }
    buf_ += '\n';
  }
  switch (status) {
    case SolveStatus::Optimal:
      buf_ += "claim optimal " + hexDouble(objective) + "\n";
      break;
    case SolveStatus::Infeasible:
      buf_ += "claim infeasible\n";
      break;
    case SolveStatus::Feasible:
      buf_ += "claim feasible " + hexDouble(objective) + "\n";
      break;
    default:
      buf_ += "claim none\n";
      break;
  }
  buf_ += "end\n";
}

}  // namespace lamp::lp
