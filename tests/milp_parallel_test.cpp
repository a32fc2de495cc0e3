// Tests for the work-stealing branch & bound solver: objective equality
// between thread counts on every model family the serial suite covers,
// incumbent-callback serialization (no torn vectors, strictly improving
// order), node/time limits under contention, and the one-worker search
// (threads=1) pinned node for node and pivot for pivot.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "lp/milp.h"
#include "util/timer.h"

namespace lamp::lp {
namespace {

struct SosGroup {
  std::vector<Var> vars;
  std::vector<double> positions;
};

/// A model plus the solver decorations needed to reproduce a solve.
struct TestInstance {
  std::string name;
  Model model;
  std::vector<SosGroup> sos;
  std::vector<double> incumbent;  ///< empty = no warm start
};

Solution solveWith(const TestInstance& inst, MilpOptions opts) {
  MilpSolver solver(inst.model, std::move(opts));
  for (const SosGroup& g : inst.sos) solver.addSos1Group(g.vars, g.positions);
  if (!inst.incumbent.empty()) solver.setInitialIncumbent(inst.incumbent);
  return solver.solve();
}

TestInstance makeKnapsack() {
  TestInstance inst;
  inst.name = "knapsack";
  Model& m = inst.model;
  const Var a = m.addBinary("a");
  const Var b = m.addBinary("b");
  const Var c = m.addBinary("c");
  m.addConstraint(LinExpr::term(a, 2.0).add(b, 3.0).add(c, 1.0), Sense::Le,
                  5.0);
  m.setObjective(LinExpr::term(a, -5.0).add(b, -4.0).add(c, -3.0));
  return inst;
}

TestInstance makeIntegerRounding() {
  TestInstance inst;
  inst.name = "integer-rounding";
  Model& m = inst.model;
  const Var x = m.addVar(0, 10, VarType::Integer, "x");
  m.addConstraint(LinExpr::term(x, 2.0), Sense::Le, 7.0);
  m.setObjective(LinExpr::term(x, -1.0));
  return inst;
}

TestInstance makeInfeasible() {
  TestInstance inst;
  inst.name = "infeasible";
  Model& m = inst.model;
  const Var x = m.addVar(0, 5, VarType::Integer, "x");
  const Var y = m.addVar(0, 5, VarType::Integer, "y");
  m.addConstraint(LinExpr::term(x, 2.0).add(y, 2.0), Sense::Eq, 3.0);
  return inst;
}

TestInstance makeMixed() {
  TestInstance inst;
  inst.name = "mixed";
  Model& m = inst.model;
  const Var x = m.addBinary("x");
  const Var y = m.addContinuous(0, 10, "y");
  m.addConstraint(LinExpr::term(y, 1.0).add(x, 1.0), Sense::Ge, 1.5);
  m.addConstraint(LinExpr::term(y, 1.0).add(x, -1.0), Sense::Ge, -1.5);
  m.setObjective(LinExpr::term(y, 1.0));
  return inst;
}

TestInstance makeOneHotSos() {
  TestInstance inst;
  inst.name = "one-hot-sos";
  Model& m = inst.model;
  std::vector<std::vector<Var>> s(3);
  LinExpr obj;
  for (int i = 0; i < 3; ++i) {
    LinExpr onehot;
    for (int t = 0; t < 4; ++t) {
      const Var v = m.addBinary();
      s[i].push_back(v);
      onehot.add(v, 1.0);
      obj.add(v, std::abs(i - t));
    }
    m.addConstraint(onehot, Sense::Eq, 1.0);
  }
  for (int t = 0; t < 4; ++t) {
    LinExpr cap;
    for (int i = 0; i < 3; ++i) cap.add(s[i][t], 1.0);
    m.addConstraint(cap, Sense::Le, 1.0);
  }
  m.setObjective(obj);
  for (int i = 0; i < 3; ++i) {
    inst.sos.push_back({s[i], {0.0, 1.0, 2.0, 3.0}});
  }
  return inst;
}

TestInstance makeRandomBinary(unsigned seed) {
  TestInstance inst;
  inst.name = "random-" + std::to_string(seed);
  std::mt19937 rng(seed * 104729u);
  std::uniform_int_distribution<int> nDist(3, 10), mDist(1, 5);
  std::uniform_real_distribution<double> cDist(-4.0, 4.0);
  const int n = nDist(rng), rows = mDist(rng);
  Model& m = inst.model;
  for (int j = 0; j < n; ++j) m.addBinary();
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    for (int j = 0; j < n; ++j) e.add(j, cDist(rng));
    m.addConstraint(e, Sense::Le, cDist(rng) + 1.0);
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) obj.add(j, cDist(rng));
  m.setObjective(obj);
  return inst;
}

/// A knapsack big enough that the tree has hundreds of nodes, with many
/// improving incumbents along the way.
TestInstance makeWideKnapsack(int n, unsigned seed) {
  TestInstance inst;
  inst.name = "wide-knapsack";
  Model& m = inst.model;
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(1.0, 10.0);
  LinExpr cap, obj;
  for (int i = 0; i < n; ++i) {
    const Var v = m.addBinary();
    cap.add(v, d(rng));
    obj.add(v, -d(rng));
  }
  m.addConstraint(cap, Sense::Le, 1.6 * n);
  m.setObjective(obj);
  return inst;
}

/// Subset-sum knapsack with all-even weights and an odd capacity: the LP
/// relaxation's bound sits at the (unreachable) capacity in every node,
/// so pruning barely bites and the tree is reliably exponential — the
/// classic fuel for limit tests.
TestInstance makeHardKnapsack(int n, unsigned seed) {
  TestInstance inst;
  inst.name = "hard-knapsack";
  Model& m = inst.model;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> w(10, 50);
  LinExpr cap, obj;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const double weight = 2.0 * w(rng);  // even
    total += weight;
    const Var v = m.addBinary();
    cap.add(v, weight);
    obj.add(v, -weight);  // profit == weight (subset sum)
  }
  const double capacity = 2.0 * std::floor(total / 4.0) + 1.0;  // odd
  m.addConstraint(cap, Sense::Le, capacity);
  m.setObjective(obj);
  return inst;
}

std::vector<TestInstance> allInstances() {
  std::vector<TestInstance> out;
  out.push_back(makeKnapsack());
  out.push_back(makeIntegerRounding());
  out.push_back(makeInfeasible());
  out.push_back(makeMixed());
  out.push_back(makeOneHotSos());
  for (unsigned seed = 1; seed <= 20; ++seed) {
    out.push_back(makeRandomBinary(seed));
  }
  out.push_back(makeWideKnapsack(18, 11));
  return out;
}

// (a) Objective equality between threads=1 and threads=4 on every model.
TEST(MilpParallelTest, ObjectiveMatchesSerialOnAllModels) {
  for (const TestInstance& inst : allInstances()) {
    MilpOptions serialOpts;
    serialOpts.threads = 1;
    const Solution serial = solveWith(inst, serialOpts);

    MilpOptions parOpts;
    parOpts.threads = 4;
    const Solution parallel = solveWith(inst, parOpts);

    EXPECT_EQ(parallel.status, serial.status) << inst.name;
    if (serial.feasible()) {
      EXPECT_NEAR(parallel.objective, serial.objective, 1e-6) << inst.name;
      EXPECT_TRUE(inst.model.checkFeasible(parallel.values).empty())
          << inst.name;
    }
  }
}

// Warm-start incumbents survive the parallel path too.
TEST(MilpParallelTest, InitialIncumbentRespected) {
  TestInstance inst = makeWideKnapsack(18, 11);
  inst.incumbent.assign(inst.model.numVars(), 0.0);
  MilpOptions opts;
  opts.threads = 4;
  const Solution s = solveWith(inst, opts);
  ASSERT_TRUE(s.feasible());
  EXPECT_TRUE(inst.model.checkFeasible(s.values).empty());

  MilpOptions serialOpts;
  serialOpts.threads = 1;
  const Solution serial = solveWith(inst, serialOpts);
  EXPECT_NEAR(s.objective, serial.objective, 1e-6);
}

// (b) Incumbent callbacks are serialized: never concurrent, never a torn
// vector, and objectives arrive strictly improving (a reordered or
// overlapping pair would break monotonicity).
TEST(MilpParallelTest, IncumbentCallbackSerialized) {
  const TestInstance inst = makeWideKnapsack(20, 3);
  const std::size_t n = inst.model.numVars();

  std::atomic<int> inCallback{0};
  std::atomic<int> maxConcurrent{0};
  std::vector<double> objectives;  // guarded by callback serialization
  bool sizesOk = true;
  bool valuesMatchObjective = true;

  MilpOptions opts;
  opts.threads = 4;
  opts.onIncumbent = [&](double obj, const std::vector<double>& x) {
    const int now = inCallback.fetch_add(1) + 1;
    int seen = maxConcurrent.load();
    while (now > seen && !maxConcurrent.compare_exchange_weak(seen, now)) {
    }
    // Hold the callback open long enough that an unserialized second
    // incumbent would overlap.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    sizesOk = sizesOk && x.size() == n;
    valuesMatchObjective =
        valuesMatchObjective &&
        std::abs(inst.model.objective().evaluate(x) - obj) < 1e-6;
    objectives.push_back(obj);
    inCallback.fetch_sub(1);
  };

  const Solution s = solveWith(inst, opts);
  ASSERT_TRUE(s.feasible());
  EXPECT_EQ(maxConcurrent.load(), 1) << "callbacks overlapped";
  EXPECT_TRUE(sizesOk) << "torn incumbent vector";
  EXPECT_TRUE(valuesMatchObjective) << "objective/vector mismatch";
  ASSERT_FALSE(objectives.empty());
  for (std::size_t i = 1; i < objectives.size(); ++i) {
    EXPECT_LT(objectives[i], objectives[i - 1])
        << "incumbents not strictly improving at #" << i;
  }
  EXPECT_NEAR(objectives.back(), s.objective, 1e-9);
}

// (c) The wall-clock limit holds under thread contention.
TEST(MilpParallelTest, TimeLimitRespectedUnderContention) {
  // Oversubscribe on purpose: more workers than cores, a tree far too
  // large to finish, and a tight cap.
  const TestInstance inst = makeHardKnapsack(60, 7);
  MilpOptions opts;
  opts.threads = 8;
  opts.timeLimitSeconds = 0.3;

  util::Stopwatch clock;
  const Solution s = solveWith(inst, opts);
  const double wall = clock.seconds();

  // Generous slack: each in-flight LP may run up to its 0.1 s floor after
  // the cap trips, plus sanitizer/scheduling overhead on busy CI boxes.
  EXPECT_LT(wall, 10.0) << "time limit ignored";
  EXPECT_NE(s.status, SolveStatus::Optimal);
  if (s.feasible()) {
    EXPECT_TRUE(inst.model.checkFeasible(s.values).empty());
  }
}

// Node limits stop the parallel search promptly (within one node per
// in-flight worker of the cap).
TEST(MilpParallelTest, NodeLimitRespected) {
  const TestInstance inst = makeHardKnapsack(40, 9);
  MilpOptions opts;
  opts.threads = 4;
  opts.maxNodes = 16;
  const Solution s = solveWith(inst, opts);
  EXPECT_LE(s.branchNodes, opts.maxNodes + 4);
}

// threads=1 is one worker diving depth-first: repeated runs are
// bit-deterministic, and its tree and pivot counts are pinned, so a
// drift between versions fails here too (proof logging and the
// benchmark's exact counters rely on them).
TEST(MilpParallelTest, SerialModeIsDeterministic) {
  struct Pinned {
    TestInstance inst;
    std::int64_t branchNodes, prunedNodes, simplexIterations, dualPivots,
        coldSolves;
  };
  const Pinned pinned[] = {
      {makeWideKnapsack(18, 11), 115, 0, 422, 179, 1},
      {makeOneHotSos(), 1, 0, 18, 0, 1},
  };
  for (const Pinned& p : pinned) {
    MilpOptions opts;
    opts.threads = 1;
    const Solution a = solveWith(p.inst, opts);
    const Solution b = solveWith(p.inst, opts);
    ASSERT_EQ(a.status, SolveStatus::Optimal) << p.inst.name;
    EXPECT_EQ(a.branchNodes, p.branchNodes) << p.inst.name;
    EXPECT_EQ(a.prunedNodes, p.prunedNodes) << p.inst.name;
    EXPECT_EQ(a.simplexIterations, p.simplexIterations) << p.inst.name;
    EXPECT_EQ(a.dualPivots, p.dualPivots) << p.inst.name;
    EXPECT_EQ(a.coldSolves, p.coldSolves) << p.inst.name;
    EXPECT_EQ(a.steals, 0) << p.inst.name;
    ASSERT_EQ(b.status, a.status) << p.inst.name;
    EXPECT_EQ(b.branchNodes, a.branchNodes) << p.inst.name;
    EXPECT_EQ(b.simplexIterations, a.simplexIterations) << p.inst.name;
    EXPECT_EQ(b.objective, a.objective) << p.inst.name;
    EXPECT_EQ(b.values, a.values) << p.inst.name;
  }
}

// The one worker is the calling thread: incumbent callbacks run there.
TEST(MilpParallelTest, SerialModeRunsOnCallingThread) {
  const TestInstance inst = makeWideKnapsack(18, 11);
  const std::thread::id caller = std::this_thread::get_id();
  int callbacks = 0;
  bool onCaller = true;
  MilpOptions opts;
  opts.threads = 1;
  opts.onIncumbent = [&](double, const std::vector<double>&) {
    ++callbacks;
    onCaller = onCaller && std::this_thread::get_id() == caller;
  };
  const Solution s = solveWith(inst, opts);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_GT(callbacks, 1);
  EXPECT_TRUE(onCaller) << "onIncumbent ran off the calling thread";
}

// The search checks for an exhausted tree before its limits: a tree that
// empties on the very node where the node cap trips is still proven.
TEST(MilpParallelTest, TreeEmptiedAtNodeCapIsOptimal) {
  const TestInstance inst = makeOneHotSos();  // integral root relaxation
  MilpOptions opts;
  opts.threads = 1;
  opts.maxNodes = 1;
  const Solution s = solveWith(inst, opts);
  EXPECT_EQ(s.branchNodes, 1);
  EXPECT_EQ(s.status, SolveStatus::Optimal);
}

// Parallel runs at any thread count agree with serial on SOS models too
// (the branching scheme most of the scheduler's models rely on).
TEST(MilpParallelTest, SosObjectiveStableAcrossThreadCounts) {
  const TestInstance inst = makeOneHotSos();
  double reference = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    MilpOptions opts;
    opts.threads = threads;
    const Solution s = solveWith(inst, opts);
    ASSERT_EQ(s.status, SolveStatus::Optimal) << threads << " threads";
    if (threads == 1) {
      reference = s.objective;
    } else {
      EXPECT_NEAR(s.objective, reference, 1e-6) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace lamp::lp
