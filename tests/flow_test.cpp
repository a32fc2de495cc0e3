// Integration tests: the three experimental flows end to end on real
// benchmarks, checking validity, functional equivalence, and the paper's
// directional claims (MILP-map saves FFs over both baselines).

#include <gtest/gtest.h>

#include <algorithm>

#include "flow/flow.h"
#include "ir/builder.h"
#include "ir/passes.h"
#include "obs/metrics.h"
#include "report/table.h"

namespace lamp::flow {
namespace {

using workloads::Benchmark;
using workloads::Scale;

FlowOptions quick() {
  FlowOptions o;
  o.solverTimeLimitSeconds = 30.0;
  return o;
}

TEST(FlowTest, GfmulAllMethodsRunAndVerify) {
  const Benchmark bm = workloads::makeGfmul(Scale::Default);
  const BenchmarkResults r = runAllMethods(bm, quick());
  for (const FlowResult* f : {&r.hls, &r.milpBase, &r.milpMap}) {
    ASSERT_TRUE(f->success) << methodName(f->method) << ": " << f->error;
    EXPECT_TRUE(f->functionallyVerified) << methodName(f->method);
  }
  // Paper: GFMUL collapses to a single combinational stage, 0 FFs.
  EXPECT_GT(r.hls.area.ffs, 0);
  EXPECT_EQ(r.milpMap.area.ffs, 0);
  EXPECT_EQ(r.milpMap.area.stages, 1);
  EXPECT_LE(r.milpMap.area.luts, r.hls.area.luts);
}

TEST(FlowTest, XorrCollapsesToCombinational) {
  const Benchmark bm = workloads::makeXorr(Scale::Default);
  const BenchmarkResults r = runAllMethods(bm, quick());
  ASSERT_TRUE(r.hls.success) << r.hls.error;
  ASSERT_TRUE(r.milpBase.success) << r.milpBase.error;
  ASSERT_TRUE(r.milpMap.success) << r.milpMap.error;
  // Paper Section 4.1: MILP-base generates an identical schedule to the
  // HLS tool on XORR (same stage count, same FFs); MILP-map removes all
  // pipeline registers.
  EXPECT_EQ(r.milpBase.area.stages, r.hls.area.stages);
  EXPECT_GT(r.hls.area.ffs, 0);
  EXPECT_EQ(r.milpMap.area.ffs, 0);
  EXPECT_EQ(r.milpMap.area.stages, 1);
}

TEST(FlowTest, RsLoopCarriedFlowVerifies) {
  const Benchmark bm = workloads::makeRs(Scale::Default);
  const BenchmarkResults r = runAllMethods(bm, quick());
  for (const FlowResult* f : {&r.hls, &r.milpBase, &r.milpMap}) {
    ASSERT_TRUE(f->success) << methodName(f->method) << ": " << f->error;
    EXPECT_TRUE(f->functionallyVerified);
  }
  // The recurrence registers (3 syndromes x 8 bits) can never vanish.
  EXPECT_GE(r.milpMap.area.ffs, 3 * 8);
  EXPECT_LE(r.milpMap.area.ffs, r.hls.area.ffs);
}

TEST(FlowTest, MtWithBlackBoxesVerifies) {
  const Benchmark bm = workloads::makeMt(Scale::Default);
  const BenchmarkResults r = runAllMethods(bm, quick());
  for (const FlowResult* f : {&r.hls, &r.milpBase, &r.milpMap}) {
    ASSERT_TRUE(f->success) << methodName(f->method) << ": " << f->error;
    EXPECT_TRUE(f->functionallyVerified);
  }
  EXPECT_LE(r.milpMap.area.ffs, r.hls.area.ffs);
}

TEST(FlowTest, MilpMapNeverUsesMoreRegistersThanMilpBase) {
  for (const auto maker :
       {workloads::makeGfmul, workloads::makeXorr, workloads::makeGsm}) {
    const Benchmark bm = maker(Scale::Default);
    const BenchmarkResults r = runAllMethods(bm, quick());
    ASSERT_TRUE(r.milpBase.success) << bm.name << ": " << r.milpBase.error;
    ASSERT_TRUE(r.milpMap.success) << bm.name << ": " << r.milpMap.error;
    // Mapping awareness strictly enlarges the MILP's feasible space, so
    // with the solver run to optimality the objective cannot be worse.
    if (r.milpBase.status == lp::SolveStatus::Optimal &&
        r.milpMap.status == lp::SolveStatus::Optimal) {
      EXPECT_LE(r.milpMap.objective, r.milpBase.objective + 1e-6) << bm.name;
    }
  }
}

// Strategy racing keeps the database whose greedy start is cheapest; the
// winner must reproduce, decision for decision, a plain run configured
// with it.
TEST(FlowTest, CutStrategyRaceMatchesPlainRunWithWinner) {
  const Benchmark bm = workloads::makeXorr(Scale::Default);
  FlowOptions race = quick();
  race.raceCutStrategies = true;
  const FlowResult raced = runFlow(bm, Method::MilpMap, race);
  ASSERT_TRUE(raced.success) << raced.error;
  EXPECT_EQ(raced.cutStrategy, cut::CutStrategy::DepthAware);
  EXPECT_EQ(raced.status, lp::SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(raced.objective, 64.0);

  FlowOptions plain = quick();
  plain.cuts.strategy = raced.cutStrategy;
  const FlowResult p = runFlow(bm, Method::MilpMap, plain);
  ASSERT_TRUE(p.success) << p.error;
  EXPECT_EQ(raced.objective, p.objective);
  EXPECT_EQ(raced.branchNodes, p.branchNodes);
  EXPECT_EQ(raced.numCuts, p.numCuts);
  EXPECT_EQ(raced.schedule.ii, p.schedule.ii);
  EXPECT_EQ(raced.schedule.cycle, p.schedule.cycle);
  EXPECT_EQ(raced.schedule.selectedCut, p.schedule.selectedCut);
}

std::uint64_t counterValue(const char* name) {
  return obs::Registry::global().counter(name).value();
}

std::uint64_t cutsEnumerated() {
  return counterValue("lamp_cutenum_cuts_total");
}

// One solver worker under a cap it never reaches searches a tree that
// depends on nothing but the model, so its node count, optimum, root
// bound and LP work are pinned to the bit: a solver change that moves a
// single pivot shows up here, even where it moves no node count.
TEST(FlowTest, SerialMapSearchIsPinnedOnRealModels) {
  struct Pin {
    Benchmark (*make)(Scale);
    std::int64_t nodes;
    double objective;
    double rootBound;  // value of the first "bound" convergence event
    std::uint64_t simplexIterations, dualPivots, coldSolves;
  };
  const Pin pins[] = {
      {workloads::makeXorr, 19, 0x1.0p+6, 0x1.180dbeb61eed2p+5, 291, 139, 1},
      {workloads::makeGsm, 247, 0x1.51p+7, 0x1.28dd70a3d70a6p+7, 2492, 2198,
       1},
      {workloads::makeAes, 327, 0x1.6p+5, 0x1.0e0000000026ap+5, 6614, 4373, 1},
      {workloads::makeCordic, 87, 0x1.8f00000000021p+8, 0x1.8e33b645a1c9bp+8,
       2963, 2207, 1},
      {workloads::makeMt, 3267, 0x1.1ep+6, 0x1.bf7ae147ae148p+5, 56253, 49867,
       1},
  };
  for (const Pin& pin : pins) {
    const Benchmark bm = pin.make(Scale::Default);
    FlowOptions o;
    o.solverThreads = 1;
    o.solverTimeLimitSeconds = 600.0;
    const std::uint64_t iters = counterValue("lamp_lp_simplex_iterations_total");
    const std::uint64_t dual = counterValue("lamp_lp_dual_pivots_total");
    const std::uint64_t cold = counterValue("lamp_lp_cold_solves_total");
    const FlowResult r = runFlow(bm, Method::MilpMap, o);
    ASSERT_TRUE(r.success) << bm.name << ": " << r.error;
    EXPECT_EQ(r.status, lp::SolveStatus::Optimal) << bm.name;
    EXPECT_EQ(r.branchNodes, pin.nodes) << bm.name;
    EXPECT_EQ(r.objective, pin.objective) << bm.name;
    const auto root = std::find_if(
        r.convergence.begin(), r.convergence.end(),
        [](const lp::ConvergenceEvent& e) { return e.kind == "bound"; });
    ASSERT_NE(root, r.convergence.end()) << bm.name;
    EXPECT_EQ(root->value, pin.rootBound) << bm.name;
    EXPECT_EQ(counterValue("lamp_lp_simplex_iterations_total") - iters,
              pin.simplexIterations)
        << bm.name;
    EXPECT_EQ(counterValue("lamp_lp_dual_pivots_total") - dual, pin.dualPivots)
        << bm.name;
    EXPECT_EQ(counterValue("lamp_lp_cold_solves_total") - cold, pin.coldSolves)
        << bm.name;
  }
}

// acc = ((((acc@1 ^ y) + x) ^ x) + y) ... : four xor/add pairs on the
// recurrence are too slow for one 10 ns cycle, so every arm retries II.
Benchmark addRecurrence() {
  ir::GraphBuilder b("addrec");
  const ir::Value x = b.input("x", 8);
  const ir::Value y = b.input("y", 8);
  const ir::Value acc = b.placeholder(8, "acc");
  ir::Value v = acc.prev(1);
  for (int i = 0; i < 4; ++i) {
    v = b.add(b.bxor(v, i % 2 ? x : y), i % 2 ? y : x);
  }
  b.bindPlaceholder(acc, v);
  b.output(v, "o");
  return workloads::benchmarkFromGraph(ir::compact(b.graph()), "addrec");
}

TEST(FlowTest, MapArmRetriesIiOnOneCutEnumeration) {
  const Benchmark bm = addRecurrence();
  const std::uint64_t before = cutsEnumerated();
  const FlowResult r = runFlow(bm, Method::MilpMap, quick());
  const std::uint64_t flowCuts = cutsEnumerated() - before;
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_TRUE(r.functionallyVerified);
  EXPECT_EQ(r.schedule.ii, 2);
  EXPECT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(r.objective, 48.0);

  // The area evaluator enumerates each pipeline stage on top; replay it
  // to take its share out. What is left is one enumeration for the whole
  // flow, not one per II attempt.
  const std::uint64_t evalStart = cutsEnumerated();
  map::AreaOptions ao;
  ao.cuts = quick().cuts;
  (void)map::evaluate(bm.graph, r.schedule, quick().delays, ao);
  const std::uint64_t evalCuts = cutsEnumerated() - evalStart;
  EXPECT_EQ(flowCuts, r.numCuts + evalCuts);
}

TEST(ReportTest, TableFormatsAndCsv) {
  report::Table t({"Design", "CP(ns)", "LUT"});
  t.addRow({"CLZ", "5.43", "171"});
  t.addRule();
  t.addRow({"XORR", "5.55", "3394"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Design"), std::string::npos);
  EXPECT_NE(text.find("XORR"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  std::ostringstream csv;
  t.printCsv(csv);
  EXPECT_NE(csv.str().find("CLZ,5.43,171"), std::string::npos);
}

TEST(ReportTest, PctDelta) {
  EXPECT_EQ(report::pctDelta(90, 100), "(-10.0%)");
  EXPECT_EQ(report::pctDelta(115, 100), "(+15.0%)");
  EXPECT_EQ(report::pctDelta(0, 0), "(+0.0%)");
  EXPECT_EQ(report::pctDelta(5, 0), "(  -  )");
}

}  // namespace
}  // namespace lamp::flow
