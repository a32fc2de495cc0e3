// End-to-end certificate tests: the MILP solver writes a proof, the
// exact checker replays it. Covers optimality and infeasibility claims,
// SOS branching, model-mismatch detection, and the mutation harness
// (a corrupted bound derivation must be rejected).

#include "certify/certify.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "lp/milp.h"
#include "lp/model.h"
#include "lp/proof_log.h"

namespace lamp {
namespace {

using certify::CheckResult;
using certify::checkProof;

/// A small knapsack-style MILP with a fractional LP relaxation, so the
/// solver actually branches. Minimization: maximize value => negate.
lp::Model knapsack() {
  lp::Model m("knapsack");
  const lp::Var a = m.addBinary("a");
  const lp::Var b = m.addBinary("b");
  const lp::Var c = m.addBinary("c");
  const lp::Var d = m.addBinary("d");
  lp::LinExpr w;
  w.add(a, 3.0).add(b, 5.0).add(c, 4.0).add(d, 2.0);
  m.addConstraint(w, lp::Sense::Le, 7.0, "cap");
  lp::LinExpr obj;
  obj.add(a, -4.0).add(b, -7.0).add(c, -5.0).add(d, -2.0);
  m.setObjective(obj);
  return m;
}

TEST(CertifyTest, OptimalKnapsackVerifies) {
  lp::Model m = knapsack();
  lp::ProofLog log;
  lp::MilpOptions opts;
  opts.proofLog = &log;
  lp::MilpSolver solver(m, opts);
  const lp::Solution sol = solver.solve();
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);

  const CheckResult res = checkProof(log.text(), &m);
  EXPECT_TRUE(res.verified) << res.detail;
  EXPECT_EQ(res.status, "verified");
  EXPECT_EQ(res.claim, "optimal");
  EXPECT_GT(res.treeNodes, 0);
}

TEST(CertifyTest, InfeasibleModelVerifies) {
  lp::Model m("infeasible");
  const lp::Var x = m.addBinary("x");
  const lp::Var y = m.addBinary("y");
  lp::LinExpr s;
  s.add(x, 1.0).add(y, 1.0);
  m.addConstraint(s, lp::Sense::Ge, 3.0, "too_much");  // max is 2
  m.setObjective(lp::LinExpr::term(x, 1.0));

  lp::ProofLog log;
  lp::MilpOptions opts;
  opts.proofLog = &log;
  lp::MilpSolver solver(m, opts);
  const lp::Solution sol = solver.solve();
  ASSERT_EQ(sol.status, lp::SolveStatus::Infeasible);

  const CheckResult res = checkProof(log.text(), &m);
  EXPECT_TRUE(res.verified) << res.detail;
  EXPECT_EQ(res.claim, "infeasible");
}

TEST(CertifyTest, SosBranchingVerifies) {
  // One-hot assignment of two jobs to three slots with a conflict, the
  // shape the scheduler's cycle-assignment rows take.
  lp::Model m("sos");
  std::vector<lp::Var> j0(3), j1(3);
  for (int t = 0; t < 3; ++t) {
    j0[t] = m.addBinary("j0_" + std::to_string(t));
    j1[t] = m.addBinary("j1_" + std::to_string(t));
  }
  lp::LinExpr h0, h1;
  for (int t = 0; t < 3; ++t) {
    h0.add(j0[t], 1.0);
    h1.add(j1[t], 1.0);
  }
  m.addConstraint(h0, lp::Sense::Eq, 1.0, "onehot0");
  m.addConstraint(h1, lp::Sense::Eq, 1.0, "onehot1");
  // Jobs cannot share a slot.
  for (int t = 0; t < 3; ++t) {
    lp::LinExpr cap;
    cap.add(j0[t], 1.0).add(j1[t], 1.0);
    m.addConstraint(cap, lp::Sense::Le, 1.0, "cap" + std::to_string(t));
  }
  // Costs that make the LP fractional.
  lp::LinExpr obj;
  obj.add(j0[0], 1.0).add(j0[1], 1.1).add(j0[2], 3.0);
  obj.add(j1[0], 1.05).add(j1[1], 1.0).add(j1[2], 3.0);
  m.setObjective(obj);

  lp::ProofLog log;
  lp::MilpOptions opts;
  opts.proofLog = &log;
  lp::MilpSolver solver(m, opts);
  solver.addSos1Group(j0, {0.0, 1.0, 2.0});
  solver.addSos1Group(j1, {0.0, 1.0, 2.0});
  const lp::Solution sol = solver.solve();
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);

  const CheckResult res = checkProof(log.text(), &m);
  EXPECT_TRUE(res.verified) << res.detail;
}

TEST(CertifyTest, ModelMismatchIsRejected) {
  lp::Model m = knapsack();
  lp::ProofLog log;
  lp::MilpOptions opts;
  opts.proofLog = &log;
  lp::MilpSolver solver(m, opts);
  ASSERT_EQ(solver.solve().status, lp::SolveStatus::Optimal);

  lp::Model other = knapsack();
  other.setBounds(0, 0.0, 0.0);  // different program
  const CheckResult res = checkProof(log.text(), &other);
  EXPECT_FALSE(res.verified);
  EXPECT_EQ(res.status, "rejected");
  EXPECT_NE(res.detail.find("model mismatch"), std::string::npos)
      << res.detail;
}

/// Mutation harness: corrupt one bound derivation (off-by-one in its
/// first nonzero dual multiplier) and require rejection. This is the
/// proof that the checker actually re-derives bounds instead of
/// trusting the log.
TEST(CertifyTest, MutatedBoundDerivationIsRejected) {
  lp::Model m = knapsack();
  lp::ProofLog log;
  lp::MilpOptions opts;
  opts.proofLog = &log;
  lp::MilpSolver solver(m, opts);
  ASSERT_EQ(solver.solve().status, lp::SolveStatus::Optimal);

  std::string text = log.text();
  // Find a fathom-bound record and nudge its first dual by +1.
  const auto fat = text.find("fathom");
  std::size_t pos = fat;
  while (pos != std::string::npos) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    const auto d = line.find(" bound duals ");
    if (d != std::string::npos) {
      const std::size_t valAt = pos + d + 13;
      const std::size_t valEnd = text.find_first_of(" \n", valAt);
      const double v = std::strtod(text.substr(valAt, valEnd - valAt).c_str(),
                                   nullptr);
      char buf[48];
      std::snprintf(buf, sizeof buf, "%a", v + 1.0);
      text.replace(valAt, valEnd - valAt, buf);
      break;
    }
    pos = text.find("fathom", eol);
  }
  ASSERT_NE(pos, std::string::npos) << "no bound derivation to mutate";

  const CheckResult res = checkProof(text, &m);
  EXPECT_FALSE(res.verified);
  EXPECT_EQ(res.status, "rejected");
}

TEST(CertifyTest, TruncatedProofIsRejected) {
  lp::Model m = knapsack();
  lp::ProofLog log;
  lp::MilpOptions opts;
  opts.proofLog = &log;
  lp::MilpSolver solver(m, opts);
  ASSERT_EQ(solver.solve().status, lp::SolveStatus::Optimal);

  std::string text = log.text();
  text.resize(text.size() / 2);  // cut mid-stream
  const CheckResult res = checkProof(text);
  EXPECT_FALSE(res.verified);
  EXPECT_EQ(res.status, "rejected");
}

/// x + y = 1 and x − y = 0 meet only at x = y = ½, so both branches on x
/// are infeasible; the z rows play no part in either Farkas proof, which
/// gives those proofs zero multipliers.
lp::Model halfOnly() {
  lp::Model m("half_only");
  const lp::Var x = m.addBinary("x");
  const lp::Var y = m.addBinary("y");
  std::vector<lp::Var> z;
  for (int i = 0; i < 3; ++i) {
    z.push_back(m.addBinary("z" + std::to_string(i)));
  }
  lp::LinExpr sum, diff;
  sum.add(x, 1.0).add(y, 1.0);
  diff.add(x, 1.0).add(y, -1.0);
  m.addConstraint(sum, lp::Sense::Eq, 1.0, "sum");
  m.addConstraint(diff, lp::Sense::Eq, 0.0, "diff");
  for (int i = 0; i + 1 < 3; ++i) {
    lp::LinExpr pair;
    pair.add(z[i], 1.0).add(z[i + 1], 1.0);
    m.addConstraint(pair, lp::Sense::Le, 1.0, "pair" + std::to_string(i));
  }
  lp::LinExpr obj;
  obj.add(x, 1.0);
  for (const lp::Var v : z) obj.add(v, -1.0);
  m.setObjective(obj);
  return m;
}

// A zero multiplier leaves its row out of the derivation whatever its
// sign. Proofs logged before zeros were canonicalized spell some of them
// -0x0p+0; those must still verify, and a proof logged now has none.
TEST(CertifyTest, ZeroMultipliersVerifyWithEitherSign) {
  lp::Model m = halfOnly();
  lp::ProofLog log;
  lp::MilpOptions opts;
  opts.proofLog = &log;
  lp::MilpSolver solver(m, opts);
  ASSERT_EQ(solver.solve().status, lp::SolveStatus::Infeasible);

  const std::string fresh = log.text();
  ASSERT_NE(fresh.find(" infeas duals "), std::string::npos) << fresh;
  EXPECT_EQ(fresh.find("-0x0p+0"), std::string::npos) << fresh;
  EXPECT_TRUE(checkProof(fresh, &m).verified);

  // Negate every zero multiplier.
  std::string negated;
  std::size_t pos = 0;
  while (pos < fresh.size()) {
    const std::size_t eol = fresh.find('\n', pos) + 1;
    std::string line = fresh.substr(pos, eol - pos);
    const std::size_t duals = line.find(" duals ");
    if (duals != std::string::npos) {
      for (std::size_t z = line.find(" 0x0p+0", duals);
           z != std::string::npos; z = line.find(" 0x0p+0", z + 2)) {
        line.insert(z + 1, "-");
      }
    }
    negated += line;
    pos = eol;
  }
  ASSERT_NE(negated, fresh) << "no zero multiplier to negate";
  const CheckResult res = checkProof(negated, &m);
  EXPECT_TRUE(res.verified) << res.detail;
  EXPECT_EQ(res.claim, "infeasible");
}

TEST(CertifyTest, ProofIsDeterministicAcrossThreadRequests) {
  lp::Model m = knapsack();
  std::string first;
  for (const int threads : {1, 2, 8}) {
    lp::ProofLog log;
    lp::MilpOptions opts;
    opts.threads = threads;  // proof logging forces serial regardless
    opts.proofLog = &log;
    lp::MilpSolver solver(m, opts);
    ASSERT_EQ(solver.solve().status, lp::SolveStatus::Optimal);
    if (first.empty()) {
      first = log.text();
    } else {
      EXPECT_EQ(log.text(), first) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace lamp
