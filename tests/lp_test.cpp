// Unit and property tests for the LP layer: model building, the bounded
// revised simplex (hand instances with known optima, degenerate cases,
// randomized feasibility/optimality sweeps).

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "lp/model.h"
#include "lp/simplex.h"

namespace lamp::lp {
namespace {

TEST(LinExprTest, NormalizeMergesAndDropsZeros) {
  LinExpr e;
  e.add(3, 2.0).add(1, 1.0).add(3, -2.0).add(0, 4.0);
  e.normalize();
  ASSERT_EQ(e.terms().size(), 2u);
  EXPECT_EQ(e.terms()[0].var, 0);
  EXPECT_DOUBLE_EQ(e.terms()[0].coef, 4.0);
  EXPECT_EQ(e.terms()[1].var, 1);
}

TEST(LinExprTest, Evaluate) {
  LinExpr e;
  e.add(0, 2.0).add(1, -1.0).addConstant(5.0);
  EXPECT_DOUBLE_EQ(e.evaluate({3.0, 4.0}), 2 * 3 - 4 + 5);
}

TEST(ModelTest, ConstantFoldsIntoRhs) {
  Model m;
  const Var x = m.addContinuous(0, 10);
  LinExpr e = LinExpr::term(x, 1.0);
  e.addConstant(3.0);
  m.addConstraint(e, Sense::Le, 5.0);
  EXPECT_DOUBLE_EQ(m.constraints()[0].rhs, 2.0);
}

TEST(ModelTest, CheckFeasibleCatchesEverything) {
  Model m;
  const Var x = m.addVar(0, 4, VarType::Integer, "x");
  const Var y = m.addContinuous(0, 4, "y");
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Le, 5.0, "cap");
  EXPECT_TRUE(m.checkFeasible({2.0, 3.0}).empty());
  EXPECT_NE(m.checkFeasible({2.5, 1.0}), "");   // integrality
  EXPECT_NE(m.checkFeasible({5.0, 0.0}), "");   // bound
  EXPECT_NE(m.checkFeasible({4.0, 4.0}), "");   // row
}

TEST(ModelTest, WriteLpProducesText) {
  Model m("demo");
  const Var x = m.addBinary("x");
  const Var y = m.addContinuous(0, 2, "y");
  m.addConstraint(LinExpr::term(x, 1.0).add(y, -2.0), Sense::Ge, -1.0, "r");
  m.setObjective(LinExpr::term(x, 1.0).add(y, 1.0));
  std::ostringstream os;
  m.writeLp(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Minimize"), std::string::npos);
  EXPECT_NE(text.find("Subject To"), std::string::npos);
  EXPECT_NE(text.find("x"), std::string::npos);
}

// --- simplex on hand instances -------------------------------------------

/// A cold solve under the model's own bounds: the first solve of a fresh
/// IncrementalSimplex is the full two-phase primal simplex.
SimplexResult solveCold(const Model& m) {
  std::vector<double> lb, ub;
  for (Var v = 0; v < static_cast<Var>(m.numVars()); ++v) {
    lb.push_back(m.lowerBound(v));
    ub.push_back(m.upperBound(v));
  }
  return IncrementalSimplex(m).solve(lb, ub);
}

TEST(SimplexTest, TwoVarKnownOptimum) {
  // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0. Opt at (2,2): -6.
  Model m;
  const Var x = m.addContinuous(0, 3);
  const Var y = m.addContinuous(0, 2);
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Le, 4.0);
  m.setObjective(LinExpr::term(x, -1.0).add(y, -2.0));
  const auto r = solveCold(m);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.objective, -6.0, 1e-7);
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
  EXPECT_NEAR(r.x[1], 2.0, 1e-7);
}

TEST(SimplexTest, EqualityConstraints) {
  // min x + y  s.t. x + 2y = 4, x - y = 1  ->  x = 2, y = 1.
  Model m;
  const Var x = m.addContinuous(-10, 10);
  const Var y = m.addContinuous(-10, 10);
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 2.0), Sense::Eq, 4.0);
  m.addConstraint(LinExpr::term(x, 1.0).add(y, -1.0), Sense::Eq, 1.0);
  m.setObjective(LinExpr::term(x, 1.0).add(y, 1.0));
  const auto r = solveCold(m);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
}

TEST(SimplexTest, GreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 5, x >= 1, y >= 0, x,y <= 10. Opt (5,0): 10.
  Model m;
  const Var x = m.addContinuous(1, 10);
  const Var y = m.addContinuous(0, 10);
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Ge, 5.0);
  m.setObjective(LinExpr::term(x, 2.0).add(y, 3.0));
  const auto r = solveCold(m);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-7);
}

TEST(SimplexTest, DetectsInfeasible) {
  Model m;
  const Var x = m.addContinuous(0, 1);
  m.addConstraint(LinExpr::term(x, 1.0), Sense::Ge, 2.0);
  const auto r = solveCold(m);
  EXPECT_EQ(r.status, SolveStatus::Infeasible);
}

TEST(SimplexTest, DetectsInfeasibleEqualitySystem) {
  Model m;
  const Var x = m.addContinuous(0, 10);
  const Var y = m.addContinuous(0, 10);
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Eq, 3.0);
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Eq, 5.0);
  const auto r = solveCold(m);
  EXPECT_EQ(r.status, SolveStatus::Infeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  Model m;
  const Var x = m.addContinuous(0, kInf);
  m.addConstraint(LinExpr::term(x, -1.0), Sense::Le, 0.0);
  m.setObjective(LinExpr::term(x, -1.0));
  const auto r = solveCold(m);
  EXPECT_EQ(r.status, SolveStatus::Unbounded);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x s.t. x + y >= -3, y <= 1, x in [-5,5] -> x = -4 when y = 1.
  Model m;
  const Var x = m.addContinuous(-5, 5);
  const Var y = m.addContinuous(-5, 1);
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Ge, -3.0);
  m.setObjective(LinExpr::term(x, 1.0));
  const auto r = solveCold(m);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.objective, -4.0, 1e-7);
}

TEST(SimplexTest, FixedVariables) {
  Model m;
  const Var x = m.addContinuous(2, 2);
  const Var y = m.addContinuous(0, 10);
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Le, 5.0);
  m.setObjective(LinExpr::term(y, -1.0));
  const auto r = solveCold(m);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-9);
  EXPECT_NEAR(r.x[1], 3.0, 1e-7);
}

TEST(SimplexTest, DegenerateVertexTerminates) {
  // Classic degeneracy: multiple constraints meet at the optimum.
  Model m;
  const Var x = m.addContinuous(0, kInf);
  const Var y = m.addContinuous(0, kInf);
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Le, 1.0);
  m.addConstraint(LinExpr::term(x, 1.0), Sense::Le, 1.0);
  m.addConstraint(LinExpr::term(y, 1.0), Sense::Le, 1.0);
  m.addConstraint(LinExpr::term(x, 2.0).add(y, 1.0), Sense::Le, 2.0);
  m.setObjective(LinExpr::term(x, -1.0).add(y, -1.0));
  const auto r = solveCold(m);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-7);
}

TEST(SimplexTest, ObjectiveConstantCarried) {
  Model m;
  const Var x = m.addContinuous(0, 1);
  LinExpr obj = LinExpr::term(x, 1.0);
  obj.addConstant(10.0);
  m.setObjective(obj);
  const auto r = solveCold(m);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-9);
}

TEST(SimplexTest, BoundOverridesRestrict) {
  Model m;
  const Var x = m.addContinuous(0, 10);
  m.setObjective(LinExpr::term(x, -1.0));
  const auto r1 = solveCold(m);
  ASSERT_EQ(r1.status, SolveStatus::Optimal);
  EXPECT_NEAR(r1.x[0], 10.0, 1e-7);
  const auto r2 = IncrementalSimplex(m).solve({0.0}, {4.0});
  ASSERT_EQ(r2.status, SolveStatus::Optimal);
  EXPECT_NEAR(r2.x[0], 4.0, 1e-7);
  const auto r3 = IncrementalSimplex(m).solve({6.0}, {4.0});
  EXPECT_EQ(r3.status, SolveStatus::Infeasible);
}

// --- randomized property sweeps -------------------------------------------

struct RandomLpCase {
  unsigned seed;
};

class SimplexRandomTest : public ::testing::TestWithParam<unsigned> {};

/// Random bounded LPs: the solver's answer must (a) be feasible and
/// (b) weakly dominate a cloud of random feasible points built by
/// constraint-respecting rejection sampling.
TEST_P(SimplexRandomTest, OptimumDominatesRandomFeasiblePoints) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> nDist(2, 8), mDist(1, 6);
  std::uniform_real_distribution<double> cDist(-3.0, 3.0);

  const int n = nDist(rng), rows = mDist(rng);
  Model m;
  for (int j = 0; j < n; ++j) m.addContinuous(-2.0, 2.0);

  // Rows are built around a designated interior point so the LP is feasible.
  std::vector<double> interior(n);
  for (double& v : interior) v = cDist(rng) / 3.0;

  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    double lhsAtInterior = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = cDist(rng);
      e.add(j, a);
      lhsAtInterior += a * interior[j];
    }
    m.addConstraint(e, Sense::Le, lhsAtInterior + 0.5);
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add(j, cDist(rng));
  m.setObjective(obj);

  const auto r = solveCold(m);
  ASSERT_EQ(r.status, SolveStatus::Optimal) << "seed " << GetParam();
  EXPECT_TRUE(m.checkFeasible(r.x, 1e-5).empty())
      << m.checkFeasible(r.x, 1e-5);

  // Sample feasible points; none may beat the reported optimum.
  std::uniform_real_distribution<double> xDist(-2.0, 2.0);
  int found = 0;
  for (int trial = 0; trial < 3000 && found < 50; ++trial) {
    std::vector<double> x(n);
    for (double& v : x) v = xDist(rng);
    if (!m.checkFeasible(x, 1e-9).empty()) continue;
    ++found;
    double val = 0.0;
    for (const Term& t : m.objective().terms()) val += t.coef * x[t.var];
    EXPECT_GE(val, r.objective - 1e-6) << "seed " << GetParam();
  }
  EXPECT_GT(found, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomTest,
                         ::testing::Range(1u, 41u));

/// Equality-constrained random LPs validated against the interior point.
class SimplexEqualityRandomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SimplexEqualityRandomTest, FeasibleAndDominatesInteriorPoint) {
  std::mt19937 rng(GetParam() * 7919);
  std::uniform_int_distribution<int> nDist(3, 8);
  std::uniform_real_distribution<double> cDist(-2.0, 2.0);
  const int n = nDist(rng);
  const int rows = std::max(1, n / 2 - 1);

  Model m;
  for (int j = 0; j < n; ++j) m.addContinuous(-4.0, 4.0);
  std::vector<double> point(n);
  for (double& v : point) v = cDist(rng);
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = cDist(rng);
      e.add(j, a);
      lhs += a * point[j];
    }
    m.addConstraint(e, Sense::Eq, lhs);
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add(j, cDist(rng));
  m.setObjective(obj);

  const auto r = solveCold(m);
  ASSERT_EQ(r.status, SolveStatus::Optimal) << "seed " << GetParam();
  EXPECT_TRUE(m.checkFeasible(r.x, 1e-5).empty());
  double objAtPoint = 0.0;
  for (const Term& t : m.objective().terms()) {
    objAtPoint += t.coef * point[t.var];
  }
  EXPECT_LE(r.objective, objAtPoint + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexEqualityRandomTest,
                         ::testing::Range(1u, 31u));

}  // namespace
}  // namespace lamp::lp
