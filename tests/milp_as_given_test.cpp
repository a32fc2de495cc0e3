// Branch & bound on the model exactly as given. lamp runs no reduction
// pass between a model and its search, so the structures such a pass
// would rewrite away — singleton rows, rows implied by the bounds, an
// equality that fixes a variable, an integer bound that rounds down,
// rows no point can satisfy — reach the simplex and the tree search
// unchanged, and these tests pin that the search gets each of them
// right. The suite names (PresolveTest, PresolveEquivalenceTest) are the
// ids these models were first tested under, back when a reduction pass
// rewrote them before the search.
//
// The seeded cases then check the claim the certified path rests on: a
// plain one-worker solve and a proof-logging solve of the same model
// search the same tree, reach the same optimum, and the exact checker
// verifies the proof of that tree.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "certify/certify.h"
#include "lp/milp.h"
#include "lp/proof_log.h"

namespace lamp::lp {
namespace {

Solution solveOneWorker(const Model& m) {
  MilpOptions opts;
  opts.threads = 1;
  return MilpSolver(m, opts).solve();
}

TEST(PresolveTest, SingletonRowsBecomeBounds) {
  Model m;
  const Var x = m.addContinuous(0, 10, "x");
  m.addConstraint(LinExpr::term(x, 2.0), Sense::Le, 6.0);   // x <= 3
  m.addConstraint(LinExpr::term(x, -1.0), Sense::Le, -1.0); // x >= 1
  m.setObjective(LinExpr::term(x, 1.0));
  const Solution lo = solveOneWorker(m);
  ASSERT_EQ(lo.status, SolveStatus::Optimal);
  EXPECT_NEAR(lo.value(x), 1.0, 1e-9);
  m.setObjective(LinExpr::term(x, -1.0));
  const Solution hi = solveOneWorker(m);
  ASSERT_EQ(hi.status, SolveStatus::Optimal);
  EXPECT_NEAR(hi.value(x), 3.0, 1e-9);
  EXPECT_EQ(m.numConstraints(), 2u);  // solved as rows, not as bounds
}

TEST(PresolveTest, IntegerRounding) {
  // The root LP sits at x = 3.5; branching alone closes the bound at 3.
  Model m;
  const Var x = m.addVar(0, 10, VarType::Integer, "x");
  m.addConstraint(LinExpr::term(x, 2.0), Sense::Le, 7.0);  // x <= 3.5 -> 3
  m.setObjective(LinExpr::term(x, -1.0));
  const Solution s = solveOneWorker(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.value(x), 3.0, 1e-9);
  EXPECT_NEAR(s.objective, -3.0, 1e-9);
  EXPECT_NEAR(s.bestBound, -3.0, 1e-6);
}

TEST(PresolveTest, PropagatesThroughRows) {
  // x + y <= 3 with y >= 2 limits x to 1 and y to 3.
  Model m;
  const Var x = m.addContinuous(0, 10, "x");
  const Var y = m.addContinuous(2, 10, "y");
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Le, 3.0);
  m.setObjective(LinExpr::term(x, -1.0));
  const Solution sx = solveOneWorker(m);
  ASSERT_EQ(sx.status, SolveStatus::Optimal);
  EXPECT_NEAR(sx.value(x), 1.0, 1e-9);
  m.setObjective(LinExpr::term(y, -1.0));
  const Solution sy = solveOneWorker(m);
  ASSERT_EQ(sy.status, SolveStatus::Optimal);
  EXPECT_NEAR(sy.value(y), 3.0, 1e-9);
}

TEST(PresolveTest, DropsRedundantRows) {
  // A row the bounds already imply never binds.
  Model m;
  const Var x = m.addBinary("x");
  const Var y = m.addBinary("y");
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Le, 5.0);  // slack
  m.setObjective(LinExpr::term(x, -1.0).add(y, -1.0));
  const Solution s = solveOneWorker(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-9);
  EXPECT_NEAR(s.value(x), 1.0, 1e-9);
  EXPECT_NEAR(s.value(y), 1.0, 1e-9);
}

TEST(PresolveTest, DetectsInfeasibility) {
  // Two binaries cannot sum to 3: the search must prove it, also when a
  // caller offers a start point (which then fails its feasibility check).
  Model m;
  const Var x = m.addBinary("x");
  const Var y = m.addBinary("y");
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Ge, 3.0);
  EXPECT_EQ(solveOneWorker(m).status, SolveStatus::Infeasible);
  MilpOptions opts;
  opts.threads = 1;
  MilpSolver warm(m, opts);
  warm.setInitialIncumbent({1.0, 1.0});
  EXPECT_EQ(warm.solve().status, SolveStatus::Infeasible);
}

TEST(PresolveTest, EqualitySingletonFixesVariable) {
  Model m;
  const Var x = m.addContinuous(0, 10, "x");
  const Var y = m.addContinuous(0, 10, "y");
  m.addConstraint(LinExpr::term(x, 2.0), Sense::Eq, 6.0);
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Le, 4.0);
  m.setObjective(LinExpr::term(y, -1.0));
  const Solution s = solveOneWorker(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.value(x), 3.0, 1e-9);
  EXPECT_NEAR(s.value(y), 1.0, 1e-9);  // what row 2 leaves once x = 3
}

TEST(PresolveTest, KeepsVariableIndexing) {
  // The solution is indexed by the model's own variables.
  Model m;
  for (int i = 0; i < 5; ++i) m.addBinary("b" + std::to_string(i));
  m.addConstraint(LinExpr::term(0, 1.0).add(4, 1.0), Sense::Le, 1.0);
  LinExpr obj;
  for (Var v = 0; v < 5; ++v) obj.add(v, v == 0 ? -2.0 : -1.0);
  m.setObjective(obj);
  const Solution s = solveOneWorker(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  ASSERT_EQ(s.values.size(), m.numVars());
  const double expect[] = {1.0, 1.0, 1.0, 1.0, 0.0};  // b0 beats b4
  for (Var v = 0; v < 5; ++v) EXPECT_NEAR(s.value(v), expect[v], 1e-9);
}

// The plain one-worker search and the proof-logging search are one search.
class PresolveEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PresolveEquivalenceTest, OptimumUnchanged) {
  std::mt19937 rng(GetParam() * 48271u + 3);
  std::uniform_int_distribution<int> nDist(3, 9), mDist(1, 5);
  std::uniform_real_distribution<double> cDist(-4.0, 4.0);
  const int n = nDist(rng), rows = mDist(rng);
  Model m;
  for (int j = 0; j < n; ++j) m.addBinary();
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    for (int j = 0; j < n; ++j) e.add(j, cDist(rng));
    m.addConstraint(e, Sense::Le, cDist(rng) + 1.5);
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add(j, cDist(rng));
  m.setObjective(obj);

  ProofLog log;
  MilpOptions certified;
  certified.proofLog = &log;
  const Solution a = solveOneWorker(m);
  const Solution b = MilpSolver(m, certified).solve();
  ASSERT_EQ(a.status, b.status) << "seed " << GetParam();
  EXPECT_EQ(a.branchNodes, b.branchNodes) << "seed " << GetParam();
  EXPECT_EQ(a.simplexIterations, b.simplexIterations) << "seed " << GetParam();
  if (a.status == SolveStatus::Optimal) {
    EXPECT_NEAR(a.objective, b.objective, 1e-6) << "seed " << GetParam();
    EXPECT_TRUE(m.checkFeasible(a.values).empty());
  }
  const certify::CheckResult res = certify::checkProof(log.text(), &m);
  EXPECT_TRUE(res.verified) << "seed " << GetParam() << ": " << res.detail;
  EXPECT_EQ(res.treeNodes, a.branchNodes) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresolveEquivalenceTest,
                         ::testing::Range(1u, 31u));

}  // namespace
}  // namespace lamp::lp
