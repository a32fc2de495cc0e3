// Property tests for the incremental (dual-simplex hot restart) LP path:
// every hot re-solve must agree with a cold from-scratch solve (a fresh
// solver's first call) on status and objective, across randomized
// bound-change sequences — exactly the access pattern branch & bound
// generates.

#include <gtest/gtest.h>

#include <random>

#include "lp/simplex.h"

namespace lamp::lp {
namespace {

Model randomModel(std::mt19937& rng, int n, int rows) {
  std::uniform_real_distribution<double> cDist(-3.0, 3.0);
  Model m;
  for (int j = 0; j < n; ++j) m.addContinuous(0.0, 1.0);
  std::vector<double> interior(n, 0.4);
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = cDist(rng);
      e.add(j, a);
      lhs += a * interior[j];
    }
    m.addConstraint(e, Sense::Le, lhs + 0.3);
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add(j, cDist(rng));
  m.setObjective(obj);
  return m;
}

class IncrementalLpTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(IncrementalLpTest, HotResolvesMatchColdSolves) {
  std::mt19937 rng(GetParam() * 7919u + 13);
  std::uniform_int_distribution<int> nDist(4, 12), mDist(2, 8);
  const int n = nDist(rng), rows = mDist(rng);
  const Model m = randomModel(rng, n, rows);

  IncrementalSimplex inc(m);

  std::vector<double> lb(n), ub(n);
  for (int j = 0; j < n; ++j) {
    lb[j] = 0.0;
    ub[j] = 1.0;
  }

  std::uniform_int_distribution<int> varDist(0, n - 1);
  std::uniform_int_distribution<int> moveDist(0, 3);
  for (int step = 0; step < 30; ++step) {
    // Random branch-like bound change: fix to 0, fix to 1, or relax.
    const int v = varDist(rng);
    switch (moveDist(rng)) {
      case 0: ub[v] = 0.0; break;
      case 1: lb[v] = 1.0; break;
      case 2: lb[v] = 0.0; ub[v] = 1.0; break;
      default: ub[v] = 0.5; break;
    }
    if (lb[v] > ub[v]) lb[v] = ub[v];

    const SimplexResult hot = inc.solve(lb, ub);
    const SimplexResult ref = IncrementalSimplex(m).solve(lb, ub);
    ASSERT_EQ(hot.status, ref.status)
        << "seed " << GetParam() << " step " << step;
    if (hot.status == SolveStatus::Optimal) {
      EXPECT_NEAR(hot.objective, ref.objective, 1e-5)
          << "seed " << GetParam() << " step " << step;
      EXPECT_TRUE(m.checkFeasible(hot.x, 1e-5).empty());
      // Solution respects the overridden bounds too.
      for (int j = 0; j < n; ++j) {
        EXPECT_GE(hot.x[j], lb[j] - 1e-6);
        EXPECT_LE(hot.x[j], ub[j] + 1e-6);
      }
    }
  }
  // The whole point: hot solves should rarely fall back to cold ones.
  EXPECT_LE(inc.coldSolves(), 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalLpTest, ::testing::Range(1u, 26u));

TEST(IncrementalLpTest, EqualityModelsSurviveRebound) {
  // Equality rows exercise the artificial-variable path of the cold solve
  // and the fixed slack bounds of the dual path.
  Model m;
  const Var x = m.addContinuous(0, 4);
  const Var y = m.addContinuous(0, 4);
  const Var z = m.addContinuous(0, 4);
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0).add(z, 1.0), Sense::Eq,
                  4.0);
  m.setObjective(LinExpr::term(x, 1.0).add(y, 2.0).add(z, 3.0));
  IncrementalSimplex inc(m);
  std::vector<double> lb{0, 0, 0}, ub{4, 4, 4};
  auto r = inc.solve(lb, ub);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-7);  // all mass on x

  ub[0] = 1.0;  // force spill to y
  r = inc.solve(lb, ub);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.objective, 1.0 + 2.0 * 3.0, 1e-7);

  ub[1] = 0.0;  // force spill to z
  r = inc.solve(lb, ub);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.objective, 1.0 + 3.0 * 3.0, 1e-7);

  lb[0] = 5.0;  // conflicting bounds
  r = inc.solve(lb, ub);
  EXPECT_EQ(r.status, SolveStatus::Infeasible);

  lb[0] = 0.0;
  ub[0] = 4.0;
  ub[1] = 4.0;  // fully relax again
  r = inc.solve(lb, ub);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-7);
}

TEST(IncrementalLpTest, InfeasibleThenFeasibleStaysHot) {
  Model m;
  const Var x = m.addContinuous(0, 1);
  const Var y = m.addContinuous(0, 1);
  m.addConstraint(LinExpr::term(x, 1.0).add(y, 1.0), Sense::Ge, 1.0);
  m.setObjective(LinExpr::term(x, 1.0).add(y, 1.0));
  IncrementalSimplex inc(m);
  std::vector<double> lb{0, 0}, ub{1, 1};
  ASSERT_EQ(inc.solve(lb, ub).status, SolveStatus::Optimal);
  ub[0] = 0.0;
  ub[1] = 0.0;  // row 1 cannot be met
  EXPECT_EQ(inc.solve(lb, ub).status, SolveStatus::Infeasible);
  ub[1] = 1.0;
  const auto r = inc.solve(lb, ub);
  ASSERT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.x[1], 1.0, 1e-7);
  EXPECT_EQ(inc.coldSolves(), 1);  // only the very first solve was cold
}

}  // namespace
}  // namespace lamp::lp
