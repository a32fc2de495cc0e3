#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

// Every pivot decision compares floating-point sums that this file forms
// in a fixed order (see Worker). -ffast-math licenses the compiler to
// reassociate and contract them, which changes pivots, trees, root bounds
// and certificates from build to build.
#ifdef __FAST_MATH__
#error "simplex.cpp must not be built with -ffast-math: its pivots depend on IEEE sums in source order (see Worker)"
#endif

namespace lamp::lp {

namespace {

enum class ColState : std::uint8_t { AtLower, AtUpper, Basic, Free };

/// Sparse structural columns + row data, built once per model.
struct Csc {
  std::vector<std::int32_t> colStart, rowIdx;
  std::vector<double> val, rhs;
  std::vector<Sense> sense;
  std::size_t n = 0, m = 0;

  static Csc build(const Model& model) {
    Csc a;
    a.n = model.numVars();
    a.m = model.numConstraints();
    std::vector<std::int32_t> counts(a.n, 0);
    for (const Constraint& c : model.constraints()) {
      for (const Term& t : c.terms) ++counts[t.var];
    }
    a.colStart.assign(a.n + 1, 0);
    for (std::size_t j = 0; j < a.n; ++j) {
      a.colStart[j + 1] = a.colStart[j] + counts[j];
    }
    a.rowIdx.resize(a.colStart[a.n]);
    a.val.resize(a.colStart[a.n]);
    std::vector<std::int32_t> fill(a.colStart.begin(), a.colStart.end() - 1);
    a.rhs.resize(a.m);
    a.sense.resize(a.m);
    for (std::size_t i = 0; i < a.m; ++i) {
      const Constraint& c = model.constraints()[i];
      a.rhs[i] = c.rhs;
      a.sense[i] = c.sense;
      for (const Term& t : c.terms) {
        a.rowIdx[fill[t.var]] = static_cast<std::int32_t>(i);
        a.val[fill[t.var]] = t.coef;
        ++fill[t.var];
      }
    }
    return a;
  }
};

/// All solver state: bounded revised simplex with a dense basis inverse.
/// Persistent across solves for the incremental (dual) path.
///
/// B⁻¹ is stored column-major: `binv[k * m + i]` is B⁻¹(i, k). The
/// kernels skip every term that has a zero factor: ftran and computeXB
/// add one column of B⁻¹ per nonzero of their input, updateBinv changes
/// only the columns whose pivot-row entry is nonzero, and btran sums only
/// over basics with nonzero cost. The dual simplex does not btran at all:
/// its ratio test reads y only at the rows of the few eligible columns it
/// prices, and dualRestore computes each such y[k] on first use.
///
/// Exactness. Skipping changes no bit of w, y, xB or the dual pivot row:
/// each element is still the full sum over all m terms in ascending
/// index order, starting from +0.0, with no reassociation and no FMA
/// contraction (lamp_lp builds with -ffp-contract=off and this file
/// refuses -ffast-math). A skipped term is ±0 (entries are finite), and
/// under round-to-nearest a sum that starts at +0.0 is never −0.0 and
/// does not change when ±0 is added. So pivots, trees and objectives are
/// those of the full dense products. updateBinv leaves out of the full
/// elementary update only subtractions of ±0 (columns whose pivot-row
/// entry is zero), which can flip the sign of a zero entry of B⁻¹ and
/// nothing else; by the same argument no product reads that sign. Only
/// dualRestore's Farkas multipliers copy entries of B⁻¹ out directly, so
/// ProofLog prints every zero multiplier as +0.
///
/// A lazily computed y[k] is the sum btran forms for that entry (dualY),
/// so the ratio test sees the values a full btran would give. Entries it
/// does not read stay stale until the next btran, and every reader of y
/// outside the ratio test (iterate, repairDualFeasibility, the exported
/// duals) runs a full btran first. The elementwise kernels (updateBinv,
/// mulBinv, the xB step and refactor's row operations) compile to SSE2
/// vector loops (-fvect-cost-model=dynamic on lamp_lp): mulpd/subpd round
/// each element exactly as mulsd/subsd do. Without -fassociative-math the
/// compiler vectorizes a sum only as an in-order (fold-left) reduction,
/// so btran's and dualY's sums keep their order too, and the vector code
/// yields the same bits as the scalar loops.
struct Worker {
  const Csc* A = nullptr;
  const Model* model = nullptr;
  SimplexOptions opts;

  std::vector<double> lb, ub, x, cost;
  std::vector<ColState> state;
  std::vector<std::int32_t> artRow;
  std::vector<double> artSign;
  std::vector<std::int32_t> basic;
  std::vector<double> binv, xB, y, w, colBuf, rowBuf;
  /// The basis rows with nonzero cost, and those costs (gatherCosts).
  std::vector<std::size_t> costRow;
  std::vector<double> costVal;
  /// y[k] holds the dual of the current dual-simplex basis iff
  /// yStamp[k] == yEpoch (dualRestore's lazy pricing).
  std::vector<std::uint64_t> yStamp;
  std::uint64_t yEpoch = 0;

  std::int64_t iterations = 0;
  std::int64_t dualIterations = 0;
  int degenerateRun = 0;
  bool bland = false;
  /// Certificate capture (opts.wantDuals): Farkas-style multipliers
  /// recorded at an Infeasible exit (the y/dir·ρ vector is dead by the
  /// time the caller sees the status).
  std::vector<double> exitY;
  bool exitFarkas = false;
  std::chrono::steady_clock::time_point deadline = {};
  bool hasDeadline = false;

  std::size_t m() const { return A->m; }
  std::size_t n() const { return A->n; }
  std::size_t numCols() const { return A->n + A->m + artRow.size(); }

  void setDeadline() {
    if (std::isfinite(opts.timeLimitSeconds)) {
      hasDeadline = true;
      deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(opts.timeLimitSeconds));
    } else {
      hasDeadline = false;
    }
  }

  bool timedOut() const {
    return hasDeadline && std::chrono::steady_clock::now() > deadline;
  }

  template <typename F>
  void forEachEntry(std::size_t col, F&& f) const {
    if (col < A->n) {
      for (std::int32_t k = A->colStart[col]; k < A->colStart[col + 1]; ++k) {
        f(A->rowIdx[k], A->val[k]);
      }
    } else if (col < A->n + A->m) {
      f(static_cast<std::int32_t>(col - A->n), 1.0);
    } else {
      f(artRow[col - A->n - A->m], artSign[col - A->n - A->m]);
    }
  }

  double boundValue(std::size_t col) const {
    switch (state[col]) {
      case ColState::AtLower: return lb[col];
      case ColState::AtUpper: return ub[col];
      case ColState::Free: return 0.0;
      case ColState::Basic: return x[col];
    }
    return 0.0;
  }

  /// The terms of y = c_B·B⁻¹: the basis rows with nonzero cost, in
  /// ascending order, and those costs.
  void gatherCosts() {
    costRow.clear();
    costVal.clear();
    for (std::size_t i = 0; i < m(); ++i) {
      const double cb = cost[basic[i]];
      if (cb == 0.0) continue;
      costRow.push_back(i);
      costVal.push_back(cb);
    }
  }

  /// y[k] alone, after gatherCosts: column k of B⁻¹ dotted with the
  /// gathered costs in ascending row order, the sum btran forms for k.
  double dualY(std::size_t k) const {
    const double* ck = &binv[k * m()];
    double acc = 0.0;
    for (std::size_t t = 0; t < costRow.size(); ++t) {
      acc += costVal[t] * ck[costRow[t]];
    }
    return acc;
  }

  /// y = c_B·B⁻¹: every dualY, four columns per pass.
  void btran() {
    gatherCosts();
    const std::size_t nc = costRow.size();
    std::size_t k = 0;
    for (; k + 4 <= m(); k += 4) {
      const double* c0 = &binv[k * m()];
      const double* c1 = c0 + m();
      const double* c2 = c1 + m();
      const double* c3 = c2 + m();
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (std::size_t t = 0; t < nc; ++t) {
        const std::size_t i = costRow[t];
        const double cb = costVal[t];
        a0 += cb * c0[i];
        a1 += cb * c1[i];
        a2 += cb * c2[i];
        a3 += cb * c3[i];
      }
      y[k] = a0;
      y[k + 1] = a1;
      y[k + 2] = a2;
      y[k + 3] = a3;
    }
    for (; k < m(); ++k) y[k] = dualY(k);
  }

  /// out = B⁻¹·v: one axpy over column k of B⁻¹ per nonzero v[k], in
  /// ascending k.
  void mulBinv(const std::vector<double>& v, std::vector<double>& out) const {
    const std::size_t mm = m();
    double* __restrict o = out.data();
    std::fill(o, o + mm, 0.0);
    for (std::size_t k = 0; k < mm; ++k) {
      const double vk = v[k];
      if (vk == 0.0) continue;
      const double* __restrict col = &binv[k * mm];
      for (std::size_t i = 0; i < mm; ++i) o[i] += vk * col[i];
    }
  }

  void ftran(std::size_t col) {
    std::fill(colBuf.begin(), colBuf.end(), 0.0);
    forEachEntry(col, [&](std::int32_t r, double v) { colBuf[r] += v; });
    mulBinv(colBuf, w);
  }

  double reducedCost(std::size_t col) const {
    double d = cost[col];
    forEachEntry(col, [&](std::int32_t r, double v) { d -= y[r] * v; });
    return d;
  }

  /// reducedCost for dualRestore's ratio test: each y[r] it reads is
  /// computed (dualY) the first time the current basis needs it.
  double pricedReducedCost(std::size_t col) {
    double d = cost[col];
    forEachEntry(col, [&](std::int32_t r, double v) {
      if (yStamp[r] != yEpoch) {
        y[r] = dualY(r);
        yStamp[r] = yEpoch;
      }
      d -= y[r] * v;
    });
    return d;
  }

  /// rowBuf = row r of B⁻¹, contiguous.
  void loadRow(std::size_t r) {
    for (std::size_t k = 0; k < m(); ++k) rowBuf[k] = binv[k * m() + r];
  }

  /// The basic values after a step of `step` along w: xB −= step·w, then
  /// copied into x.
  void stepXB(double step) {
    const std::size_t mm = m();
    double* __restrict xb = xB.data();
    const double* __restrict wv = w.data();
    for (std::size_t i = 0; i < mm; ++i) xb[i] -= wv[i] * step;
    for (std::size_t i = 0; i < mm; ++i) x[basic[i]] = xb[i];
  }

  void computeXB() {
    std::fill(colBuf.begin(), colBuf.end(), 0.0);
    for (std::size_t i = 0; i < m(); ++i) colBuf[i] = A->rhs[i];
    for (std::size_t j = 0; j < numCols(); ++j) {
      if (state[j] == ColState::Basic) continue;
      const double v = boundValue(j);
      x[j] = v;
      if (v == 0.0) continue;
      forEachEntry(j, [&](std::int32_t r, double a) { colBuf[r] -= a * v; });
    }
    mulBinv(colBuf, xB);
    for (std::size_t i = 0; i < m(); ++i) x[basic[i]] = xB[i];
  }

  /// Gauss–Jordan on the row-major basis matrix with partial pivoting,
  /// then an in-place transpose into the column-major layout.
  bool refactor() {
    std::vector<double> mat(m() * m(), 0.0);
    for (std::size_t i = 0; i < m(); ++i) {
      forEachEntry(basic[i],
                   [&](std::int32_t r, double v) { mat[r * m() + i] += v; });
    }
    std::fill(binv.begin(), binv.end(), 0.0);
    for (std::size_t i = 0; i < m(); ++i) binv[i * m() + i] = 1.0;
    for (std::size_t col = 0; col < m(); ++col) {
      std::size_t piv = col;
      double best = std::abs(mat[col * m() + col]);
      for (std::size_t r = col + 1; r < m(); ++r) {
        if (std::abs(mat[r * m() + col]) > best) {
          best = std::abs(mat[r * m() + col]);
          piv = r;
        }
      }
      if (best < 1e-11) return false;
      if (piv != col) {
        for (std::size_t k = 0; k < m(); ++k) {
          std::swap(mat[piv * m() + k], mat[col * m() + k]);
          std::swap(binv[piv * m() + k], binv[col * m() + k]);
        }
      }
      const double inv = 1.0 / mat[col * m() + col];
      for (std::size_t k = 0; k < m(); ++k) {
        mat[col * m() + k] *= inv;
        binv[col * m() + k] *= inv;
      }
      for (std::size_t r = 0; r < m(); ++r) {
        if (r == col) continue;
        const double f = mat[r * m() + col];
        if (f == 0.0) continue;
        for (std::size_t k = 0; k < m(); ++k) {
          mat[r * m() + k] -= f * mat[col * m() + k];
          binv[r * m() + k] -= f * binv[col * m() + k];
        }
      }
    }
    for (std::size_t i = 0; i < m(); ++i) {
      for (std::size_t k = i + 1; k < m(); ++k) {
        std::swap(binv[i * m() + k], binv[k * m() + i]);
      }
    }
    return true;
  }

  /// Elementary pivot update of B⁻¹ around row r with direction w, with
  /// row r of B⁻¹ in rowBuf (loadRow): each column k with a nonzero
  /// rowBuf[k] takes p = rowBuf[k]·(1/w[r]) in row r and loses w[i]·p in
  /// every other row i; the other columns keep their values.
  void updateBinv(std::size_t r) {
    const std::size_t mm = m();
    const double inv = 1.0 / w[r];
    const double* __restrict rowR = rowBuf.data();
    const double* __restrict wv = w.data();
    for (std::size_t k = 0; k < mm; ++k) {
      if (rowR[k] == 0.0) continue;
      double* __restrict col = &binv[k * mm];
      const double p = rowR[k] * inv;
      for (std::size_t i = 0; i < mm; ++i) col[i] -= wv[i] * p;
      col[r] = p;
    }
  }

  /// Primal simplex with the current `cost`. Returns Optimal, Unbounded,
  /// NoSolution (limits) or Error.
  SolveStatus iterate() {
    int sinceCheck = 0;
    while (true) {
      if (iterations >= opts.maxIterations) return SolveStatus::NoSolution;
      if ((iterations & 0xFF) == 0 && timedOut()) {
        return SolveStatus::NoSolution;
      }
      ++iterations;

      btran();

      std::size_t enter = numCols();
      double bestScore = opts.optTol;
      int enterDir = +1;
      for (std::size_t j = 0; j < numCols(); ++j) {
        if (state[j] == ColState::Basic) continue;
        if (lb[j] == ub[j] && state[j] != ColState::Free) continue;
        const double d = reducedCost(j);
        double score = 0.0;
        int dir = +1;
        if (state[j] == ColState::AtLower && d < -opts.optTol) {
          score = -d;
        } else if (state[j] == ColState::AtUpper && d > opts.optTol) {
          score = d;
          dir = -1;
        } else if (state[j] == ColState::Free && std::abs(d) > opts.optTol) {
          score = std::abs(d);
          dir = d < 0 ? +1 : -1;
        } else {
          continue;
        }
        if (bland) {
          enter = j;
          enterDir = dir;
          break;
        }
        if (score > bestScore) {
          bestScore = score;
          enter = j;
          enterDir = dir;
        }
      }
      if (enter == numCols()) return SolveStatus::Optimal;

      ftran(enter);
      const int sigma = enterDir;

      double limit = ub[enter] - lb[enter];
      if (!std::isfinite(limit)) limit = kInf;
      double bestDelta = limit;
      std::size_t leaveRow = m();
      double leaveAt = 0.0;
      for (std::size_t i = 0; i < m(); ++i) {
        const double rate = -sigma * w[i];
        if (std::abs(rate) < 1e-10) continue;
        const std::size_t bcol = basic[i];
        double delta, hit;
        if (rate > 0) {
          if (!std::isfinite(ub[bcol])) continue;
          delta = (ub[bcol] - xB[i]) / rate;
          hit = ub[bcol];
        } else {
          if (!std::isfinite(lb[bcol])) continue;
          delta = (lb[bcol] - xB[i]) / rate;
          hit = lb[bcol];
        }
        if (delta < -opts.feasTol) delta = 0.0;
        if (delta < bestDelta - 1e-12 ||
            (delta < bestDelta + 1e-12 && leaveRow < m() &&
             std::abs(w[i]) > std::abs(w[leaveRow]))) {
          bestDelta = std::max(delta, 0.0);
          leaveRow = i;
          leaveAt = hit;
        }
      }

      if (!std::isfinite(bestDelta)) return SolveStatus::Unbounded;

      if (bestDelta <= 1e-10) {
        if (++degenerateRun > 200) bland = true;
      } else {
        degenerateRun = 0;
        if (bland && ++sinceCheck > 50) {
          bland = false;
          sinceCheck = 0;
        }
      }

      const double step = sigma * bestDelta;
      stepXB(step);

      if (leaveRow == m()) {
        state[enter] = state[enter] == ColState::AtLower ? ColState::AtUpper
                                                         : ColState::AtLower;
        x[enter] = boundValue(enter);
        continue;
      }

      const std::size_t leave = basic[leaveRow];
      if (std::abs(w[leaveRow]) < 1e-9) {
        if (!refactor()) return SolveStatus::Error;
        computeXB();
        continue;
      }

      x[enter] = boundValue(enter) + step;
      state[enter] = ColState::Basic;
      x[leave] = leaveAt;
      state[leave] =
          (std::abs(leaveAt - ub[leave]) < std::abs(leaveAt - lb[leave]))
              ? ColState::AtUpper
              : ColState::AtLower;
      loadRow(leaveRow);
      updateBinv(leaveRow);
      basic[leaveRow] = static_cast<std::int32_t>(enter);
      xB[leaveRow] = x[enter];

      if ((iterations % 2000) == 0) {
        if (!refactor()) return SolveStatus::Error;
        computeXB();
      }
    }
  }

  /// Objective value of the current basis point. For a dual-feasible
  /// basis this is a valid lower bound on the LP optimum (it is the dual
  /// objective), which is what makes the cutoff test below sound.
  double objectiveNow() const {
    double z = 0.0;
    for (const Term& t : model->objective().terms()) z += t.coef * x[t.var];
    return z;
  }

  /// One pricing pass that makes the basis genuinely dual feasible — the
  /// precondition for c'x being a valid dual bound. Unfixing a column a
  /// previous node had branched to a single value silently breaks dual
  /// feasibility: while fixed, the pivot loops skip the column, so its
  /// reduced cost drifts to an arbitrary sign, and the node that frees
  /// it inherits that sign. (The eventual primal cleanup repairs
  /// optimality either way, but a cutoff fired from a dual-infeasible
  /// basis would prune a node it cannot prove anything about.) A
  /// wrong-signed column is repaired by flipping it to its opposite
  /// bound — always possible for the 0/1 branching variables; returns
  /// false when some column can't be flipped (opposite bound infinite),
  /// in which case the caller must not trust c'x as a bound.
  bool repairDualFeasibility(double tol) {
    btran();
    bool flipped = false;
    bool ok = true;
    for (std::size_t j = 0; j < numCols(); ++j) {
      if (state[j] == ColState::Basic) continue;
      if (lb[j] == ub[j]) continue;  // fixed: either bound multiplier works
      const double d = reducedCost(j);
      if (state[j] == ColState::AtLower && d < -tol) {
        if (std::isfinite(ub[j])) {
          state[j] = ColState::AtUpper;
          flipped = true;
        } else {
          ok = false;
        }
      } else if (state[j] == ColState::AtUpper && d > tol) {
        if (std::isfinite(lb[j])) {
          state[j] = ColState::AtLower;
          flipped = true;
        } else {
          ok = false;
        }
      } else if (state[j] == ColState::Free && std::abs(d) > tol) {
        ok = false;
      }
    }
    if (flipped) computeXB();
    return ok;
  }

  /// Dual simplex: restores primal feasibility from a dual-feasible
  /// basis (reduced-cost signs are unaffected by bound changes).
  /// Returns Optimal (primal feasible), Infeasible, NoSolution, Cutoff
  /// (dual bound crossed opts.objectiveCutoff) or Error.
  SolveStatus dualRestore(std::int64_t maxPivots) {
    // The cutoff is only sound from a genuinely dual-feasible start; the
    // repair costs one pricing pass, about as much as a single pivot.
    const bool hasCutoff = std::isfinite(opts.objectiveCutoff) &&
                           repairDualFeasibility(opts.optTol * 10);
    for (std::int64_t pivots = 0; pivots < maxPivots; ++pivots) {
      if ((pivots & 0x3F) == 0 && timedOut()) return SolveStatus::NoSolution;
      // The bound rises monotonically, so the moment it reaches the
      // cutoff the caller is guaranteed to fathom this node; every pivot
      // after that (typically the whole degenerate plateau at the LP
      // optimum) would be wasted work. The basis is untouched here, so
      // the worker stays hot.
      if (hasCutoff && objectiveNow() >= opts.objectiveCutoff) {
        // The last pivot moved the basis since y was computed; refresh
        // so the exported multipliers certify *this* basis's bound.
        if (opts.wantDuals) btran();
        return SolveStatus::Cutoff;
      }

      // Leaving variable: most violated basic.
      std::size_t r = m();
      double worst = opts.feasTol * 10;
      int dir = 0;
      for (std::size_t i = 0; i < m(); ++i) {
        const std::size_t col = basic[i];
        if (xB[i] > ub[col] + opts.feasTol) {
          const double v = xB[i] - ub[col];
          if (v > worst) {
            worst = v;
            r = i;
            dir = +1;
          }
        } else if (xB[i] < lb[col] - opts.feasTol) {
          const double v = lb[col] - xB[i];
          if (v > worst) {
            worst = v;
            r = i;
            dir = -1;
          }
        }
      }
      if (r == m()) return SolveStatus::Optimal;

      // y for this basis is computed per entry, on demand (pricedReducedCost).
      gatherCosts();
      ++yEpoch;
      loadRow(r);
      const double* rowR = rowBuf.data();

      std::size_t enter = numCols();
      double bestRatio = kInf;
      double bestAlpha = 0.0;
      for (std::size_t j = 0; j < numCols(); ++j) {
        if (state[j] == ColState::Basic) continue;
        if (lb[j] == ub[j] && state[j] != ColState::Free) continue;
        double alpha = 0.0;
        forEachEntry(j,
                     [&](std::int32_t row, double v) { alpha += rowR[row] * v; });
        if (std::abs(alpha) < 1e-9) continue;
        const double signedAlpha = dir * alpha;
        bool eligible = false;
        if (state[j] == ColState::AtLower && signedAlpha > 0) eligible = true;
        if (state[j] == ColState::AtUpper && signedAlpha < 0) eligible = true;
        if (state[j] == ColState::Free) eligible = true;
        if (!eligible) continue;
        const double d = pricedReducedCost(j);
        const double ratio = std::max(0.0, std::abs(d)) / std::abs(alpha);
        if (ratio < bestRatio - 1e-12 ||
            (ratio < bestRatio + 1e-12 && std::abs(alpha) > std::abs(bestAlpha))) {
          bestRatio = ratio;
          bestAlpha = alpha;
          enter = j;
        }
      }
      if (enter == numCols()) {
        // No eligible entering column: row r certifies infeasibility.
        // dir·(e_r·B⁻¹) are Farkas multipliers — the zero-objective
        // bound formula over them comes out strictly positive.
        if (opts.wantDuals) {
          exitY.assign(m(), 0.0);
          for (std::size_t k = 0; k < m(); ++k) exitY[k] = dir * rowR[k];
          exitFarkas = true;
        }
        return SolveStatus::Infeasible;
      }

      ftran(enter);
      if (std::abs(w[r]) < 1e-9) {
        if (!refactor()) return SolveStatus::Error;
        computeXB();
        continue;
      }

      const std::size_t leave = basic[r];
      const double target = dir > 0 ? ub[leave] : lb[leave];
      const double t = (xB[r] - target) / w[r];

      stepXB(t);
      x[enter] = boundValue(enter) + t;
      state[enter] = ColState::Basic;
      x[leave] = target;
      state[leave] = dir > 0 ? ColState::AtUpper : ColState::AtLower;
      updateBinv(r);
      basic[r] = static_cast<std::int32_t>(enter);
      xB[r] = x[enter];
      ++dualIterations;

      if ((dualIterations % 2000) == 0) {
        if (!refactor()) return SolveStatus::Error;
        computeXB();
      }
    }
    return SolveStatus::NoSolution;
  }

  /// Full two-phase primal solve under the given structural bounds
  /// (checked lb <= ub by the caller). Leaves the worker hot (phase-2
  /// costs, optimal basis) on success.
  SolveStatus freshSolve(const std::vector<double>& lbStruct,
                         const std::vector<double>& ubStruct) {
    const std::size_t base = n() + m();
    artRow.clear();
    artSign.clear();
    lb.assign(lbStruct.begin(), lbStruct.begin() + n());
    ub.assign(ubStruct.begin(), ubStruct.begin() + n());
    lb.resize(base);
    ub.resize(base);
    for (std::size_t i = 0; i < m(); ++i) {
      switch (A->sense[i]) {
        case Sense::Le:
          lb[n() + i] = 0.0;
          ub[n() + i] = kInf;
          break;
        case Sense::Ge:
          lb[n() + i] = -kInf;
          ub[n() + i] = 0.0;
          break;
        case Sense::Eq:
          lb[n() + i] = 0.0;
          ub[n() + i] = 0.0;
          break;
      }
    }

    state.assign(base, ColState::AtLower);
    x.assign(base, 0.0);
    for (std::size_t j = 0; j < base; ++j) {
      if (std::isfinite(lb[j])) {
        state[j] = ColState::AtLower;
      } else if (std::isfinite(ub[j])) {
        state[j] = ColState::AtUpper;
      } else {
        state[j] = ColState::Free;
      }
      x[j] = boundValue(j);
    }

    // Residuals with every column nonbasic decide slack vs artificial.
    std::vector<double> resid(m(), 0.0);
    for (std::size_t i = 0; i < m(); ++i) resid[i] = A->rhs[i];
    for (std::size_t j = 0; j < base; ++j) {
      const double v = x[j];
      if (v == 0.0) continue;
      forEachEntry(j, [&](std::int32_t r, double a) { resid[r] -= a * v; });
    }
    basic.assign(m(), 0);
    for (std::size_t i = 0; i < m(); ++i) {
      const std::size_t sj = n() + i;
      const double target = resid[i] + x[sj];
      if (target >= lb[sj] - opts.feasTol &&
          target <= ub[sj] + opts.feasTol) {
        state[sj] = ColState::Basic;
        x[sj] = target;
        basic[i] = static_cast<std::int32_t>(sj);
      } else {
        const double snb = (target > ub[sj]) ? ub[sj] : lb[sj];
        x[sj] = snb;
        const double residual = target - snb;
        artRow.push_back(static_cast<std::int32_t>(i));
        artSign.push_back(residual >= 0 ? 1.0 : -1.0);
        lb.push_back(0.0);
        ub.push_back(kInf);
        x.push_back(std::abs(residual));
        state.push_back(ColState::Basic);
        basic[i] = static_cast<std::int32_t>(numCols() - 1);
      }
    }

    binv.assign(m() * m(), 0.0);
    xB.assign(m(), 0.0);
    y.assign(m(), 0.0);
    yStamp.assign(m(), 0);
    w.assign(m(), 0.0);
    colBuf.assign(m(), 0.0);
    rowBuf.assign(m(), 0.0);
    if (!refactor()) return SolveStatus::Error;
    computeXB();

    if (!artRow.empty()) {
      cost.assign(numCols(), 0.0);
      for (std::size_t a = 0; a < artRow.size(); ++a) cost[base + a] = 1.0;
      bland = false;
      degenerateRun = 0;
      const SolveStatus st = iterate();
      if (st != SolveStatus::Optimal) {
        return st == SolveStatus::Unbounded ? SolveStatus::Error : st;
      }
      double artSum = 0.0;
      for (std::size_t a = 0; a < artRow.size(); ++a) artSum += x[base + a];
      if (artSum > 1e-6) {
        // Phase-1 optimum with residual artificials: its duals are a
        // Farkas certificate (fresh — iterate() btrans before every
        // Optimal return, and nothing pivots after).
        if (opts.wantDuals) {
          exitY = y;
          exitFarkas = true;
        }
        return SolveStatus::Infeasible;
      }
      for (std::size_t a = 0; a < artRow.size(); ++a) {
        lb[base + a] = 0.0;
        ub[base + a] = 0.0;
        if (state[base + a] != ColState::Basic) {
          state[base + a] = ColState::AtLower;
          x[base + a] = 0.0;
        }
      }
    }

    cost.assign(numCols(), 0.0);
    for (const Term& t : model->objective().terms()) cost[t.var] += t.coef;
    bland = false;
    degenerateRun = 0;
    return iterate();
  }

  void extract(SimplexResult& result) const {
    result.x.assign(n(), 0.0);
    for (std::size_t j = 0; j < n(); ++j) result.x[j] = x[j];
    result.objective = model->objective().evaluate(result.x);
  }

  void resetCertCapture() {
    exitY.clear();
    exitFarkas = false;
  }

  /// Copies whichever certificate the exit left behind into the result
  /// (no-op unless opts.wantDuals).
  void extractDuals(SimplexResult& result) const {
    if (!opts.wantDuals) return;
    if (result.status == SolveStatus::Optimal ||
        result.status == SolveStatus::Cutoff) {
      result.dualY = y;
    } else if (result.status == SolveStatus::Infeasible && exitFarkas) {
      result.dualY = exitY;
      result.farkas = true;
    }
  }
};

}  // namespace

// --- IncrementalSimplex --------------------------------------------------------

struct IncrementalSimplex::Impl {
  const Model& model;
  SimplexOptions opts;
  Csc csc;
  Worker wk;
  bool hot = false;
  std::int64_t coldSolves = 0;

  explicit Impl(const Model& m, SimplexOptions o)
      : model(m), opts(o), csc(Csc::build(m)) {
    wk.A = &csc;
    wk.model = &m;
    wk.opts = o;
  }
};

IncrementalSimplex::IncrementalSimplex(const Model& model, SimplexOptions opts)
    : impl_(new Impl(model, opts)) {}
IncrementalSimplex::~IncrementalSimplex() = default;

void IncrementalSimplex::setTimeLimit(double seconds) {
  impl_->opts.timeLimitSeconds = seconds;
}

void IncrementalSimplex::setObjectiveCutoff(double cutoff) {
  impl_->opts.objectiveCutoff = cutoff;
}

std::int64_t IncrementalSimplex::dualPivots() const {
  return impl_->wk.dualIterations;
}
std::int64_t IncrementalSimplex::coldSolves() const {
  return impl_->coldSolves;
}

SimplexResult IncrementalSimplex::solve(const std::vector<double>& lb,
                                        const std::vector<double>& ub) {
  Worker& wk = impl_->wk;
  wk.opts = impl_->opts;
  wk.setDeadline();
  wk.resetCertCapture();
  SimplexResult result;

  for (std::size_t j = 0; j < impl_->csc.n; ++j) {
    if (lb[j] > ub[j] + impl_->opts.feasTol) {
      result.status = SolveStatus::Infeasible;
      result.conflictVar = static_cast<std::int32_t>(j);
      return result;
    }
  }

  if (impl_->hot) {
    // Apply the new bounds; nonbasic columns stay on their side (this
    // preserves dual feasibility), only their values shift.
    bool seatable = true;
    for (std::size_t j = 0; j < impl_->csc.n && seatable; ++j) {
      wk.lb[j] = lb[j];
      wk.ub[j] = ub[j];
      if (wk.state[j] == ColState::AtLower && !std::isfinite(lb[j])) {
        seatable = false;
      }
      if (wk.state[j] == ColState::AtUpper && !std::isfinite(ub[j])) {
        seatable = false;
      }
    }
    if (seatable) {
      wk.computeXB();
      const std::int64_t beforePrimal = wk.iterations;
      const std::int64_t beforeDual = wk.dualIterations;
      SolveStatus st = wk.dualRestore(50000);
      if (st == SolveStatus::Optimal) {
        // Dual feasibility was preserved, so this should already be
        // optimal; a short primal cleanup guards tolerance drift.
        st = wk.iterate();
      }
      result.iterations = (wk.iterations - beforePrimal) +
                          (wk.dualIterations - beforeDual);
      if (st == SolveStatus::Optimal || st == SolveStatus::Infeasible ||
          st == SolveStatus::NoSolution || st == SolveStatus::Cutoff) {
        // The basis stays dual feasible in all four cases, so the worker
        // remains hot for the next call.
        result.status = st;
        if (st == SolveStatus::Optimal) {
          wk.extract(result);
        } else if (st == SolveStatus::Cutoff) {
          // No primal point to extract, but the dual bound reached is a
          // valid lower bound on this LP — report it so the caller can
          // use it as the fathomed node's bound.
          result.objective = wk.objectiveNow();
        }
        wk.extractDuals(result);
        return result;
      }
      // Error: fall through to the cold path.
    }
  }

  ++impl_->coldSolves;
  const std::int64_t before = wk.iterations;
  result.status = wk.freshSolve(lb, ub);
  result.iterations = wk.iterations - before;
  impl_->hot = result.status == SolveStatus::Optimal;
  if (result.status == SolveStatus::Optimal) wk.extract(result);
  wk.extractDuals(result);
  return result;
}

}  // namespace lamp::lp
