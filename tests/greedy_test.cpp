// Tests for the scalable mapping-aware greedy scheduler (the paper's
// Section 5 future work): validity and pinned cover cost on every
// benchmark, quality relative to the SDC baseline, and behaviour as a
// MILP warm start.

#include <gtest/gtest.h>

#include "cut/cut.h"
#include "map/area.h"
#include "sched/greedy.h"
#include "sched/milp_sched.h"
#include "sched/sdc.h"
#include "workloads/workloads.h"

namespace lamp::sched {
namespace {

const DelayModel kDm;

class GreedyAllBenchmarksTest : public ::testing::TestWithParam<int> {};

// Per benchmark, in allBenchmarks() order, and per cut-ranking strategy
// in allCutStrategies() order (depth — the default —, area, support,
// balanced): the cut database's totalCuts and the LUT cost of its greedy
// cover (the selected cuts' lutCost summed over the roots). Exact: both
// are deterministic.
struct CoverPin {
  const char* name;
  std::size_t cuts[4];
  int luts[4];
};
constexpr CoverPin kCoverPins[] = {
    {"CLZ", {513, 513, 521, 513}, {44, 44, 52, 44}},
    {"XORR", {34, 34, 34, 34}, {128, 128, 128, 128}},
    {"GFMUL", {306, 306, 307, 306}, {105, 105, 96, 105}},
    {"CORDIC", {123, 123, 123, 123}, {761, 761, 761, 761}},
    {"MT", {93, 93, 90, 93}, {116, 116, 116, 116}},
    {"AES", {134, 134, 142, 134}, {96, 96, 72, 96}},
    {"RS", {65, 65, 65, 65}, {48, 48, 40, 48}},
    {"DR", {398, 398, 398, 398}, {99, 98, 98, 98}},
    {"GSM", {25, 25, 25, 25}, {224, 224, 224, 224}},
};

TEST_P(GreedyAllBenchmarksTest, ProducesValidSchedules) {
  const workloads::Benchmark bm =
      workloads::allBenchmarks(workloads::Scale::Default)[GetParam()];
  const CoverPin& pin = kCoverPins[GetParam()];
  ASSERT_EQ(bm.name, pin.name);
  for (std::size_t s = 0; s < cut::allCutStrategies().size(); ++s) {
    cut::CutEnumOptions co;
    co.strategy = cut::allCutStrategies()[s];
    SCOPED_TRACE(cut::cutStrategyName(co.strategy));
    const auto db = cut::enumerateCuts(bm.graph, co);
    SdcOptions opts;
    opts.resources = bm.resources;
    SdcResult r;
    for (opts.ii = 1; opts.ii <= 4; ++opts.ii) {
      r = greedyMapSchedule(bm.graph, db, kDm, opts);
      if (r.success) break;
    }
    ASSERT_TRUE(r.success) << bm.name << ": " << r.error;
    const auto diag =
        validateSchedule({bm.graph, db, kDm, bm.resources}, r.schedule);
    EXPECT_EQ(diag, std::nullopt) << bm.name << ": " << *diag;
    int luts = 0;
    for (ir::NodeId v = 0; v < bm.graph.size(); ++v) {
      if (r.schedule.isRoot(v)) {
        luts += db.at(v).cuts[r.schedule.selectedCut[v]].lutCost;
      }
    }
    EXPECT_EQ(db.totalCuts, pin.cuts[s]) << bm.name;
    EXPECT_EQ(luts, pin.luts[s]) << bm.name;
  }
}

INSTANTIATE_TEST_SUITE_P(All, GreedyAllBenchmarksTest, ::testing::Range(0, 9));

TEST(GreedyTest, BeatsSdcOnLogicHeavyKernels) {
  // On XORR / GFMUL the mapped schedule should need no registers at all
  // while SDC (additive) pipelines.
  for (const auto maker : {workloads::makeXorr, workloads::makeGfmul}) {
    const workloads::Benchmark bm = maker(workloads::Scale::Default);
    const auto db = cut::enumerateCuts(bm.graph);
    const auto trivial = cut::trivialCuts(bm.graph);
    const auto sdc = sdcSchedule(bm.graph, trivial, kDm, {});
    const auto greedy = greedyMapSchedule(bm.graph, db, kDm, {});
    ASSERT_TRUE(sdc.success);
    ASSERT_TRUE(greedy.success) << bm.name << ": " << greedy.error;
    const int sdcFfs = map::countRegisterBits(bm.graph, sdc.schedule, kDm);
    const int greedyFfs =
        map::countRegisterBits(bm.graph, greedy.schedule, kDm);
    EXPECT_GT(sdcFfs, 0) << bm.name;
    EXPECT_EQ(greedyFfs, 0) << bm.name;
    EXPECT_EQ(greedy.schedule.latency(bm.graph), 0) << bm.name;
  }
}

TEST(GreedyTest, TrivialCutsDegenerateToMappedSdc) {
  // With only unit cuts the greedy cover selects every node as a root;
  // the schedule must still validate.
  const workloads::Benchmark bm = workloads::makeGsm(workloads::Scale::Default);
  const auto trivial = cut::trivialCuts(bm.graph);
  const auto r = greedyMapSchedule(bm.graph, trivial, kDm, {});
  ASSERT_TRUE(r.success) << r.error;
  const auto diag = validateSchedule({bm.graph, trivial, kDm, {}}, r.schedule);
  EXPECT_EQ(diag, std::nullopt) << *diag;
  for (ir::NodeId v = 0; v < bm.graph.size(); ++v) {
    if (ir::isLutMappable(bm.graph.node(v).kind)) {
      // reachable logic is rooted (dead nodes may stay absorbed)
      if (r.schedule.isRoot(v)) {
        EXPECT_TRUE(trivial.at(v).cuts[r.schedule.selectedCut[v]].isUnit);
      }
    }
  }
}

TEST(GreedyTest, WarmStartAcceptedByMilp) {
  const workloads::Benchmark bm =
      workloads::makeGfmul(workloads::Scale::Default);
  const auto db = cut::enumerateCuts(bm.graph);
  const auto greedy = greedyMapSchedule(bm.graph, db, kDm, {});
  ASSERT_TRUE(greedy.success);

  MilpSchedOptions mo;
  mo.maxLatency = std::max(1, greedy.schedule.latency(bm.graph)) + 1;
  mo.warmStart = &greedy.schedule;
  mo.warmStartSelectsCuts = true;
  mo.solver.maxNodes = 1;  // root only: the incumbent must carry the day
  mo.solver.timeLimitSeconds = 20;
  const auto milp = milpSchedule(bm.graph, db, kDm, mo);
  ASSERT_TRUE(milp.success) << milp.error;
  // The returned incumbent can only be as good or better than the greedy
  // warm start's objective.
  double greedyCost = 0.0;
  for (ir::NodeId v = 0; v < bm.graph.size(); ++v) {
    if (greedy.schedule.isRoot(v)) {
      greedyCost +=
          0.5 * db.at(v).cuts[greedy.schedule.selectedCut[v]].lutCost;
    }
  }
  greedyCost += 0.5 * map::countRegisterBits(bm.graph, greedy.schedule, kDm);
  EXPECT_LE(milp.objective, greedyCost + 1e-6);
}

TEST(GreedyTest, ResourceConstraintsHonored) {
  workloads::Benchmark bm = workloads::makeAes(workloads::Scale::Default);
  bm.resources[ir::ResourceClass::MemPortA] = 2;  // starve the S-boxes
  const auto db = cut::enumerateCuts(bm.graph);
  SdcOptions opts;
  opts.resources = bm.resources;
  SdcResult r;
  for (opts.ii = 1; opts.ii <= 4; ++opts.ii) {
    r = greedyMapSchedule(bm.graph, db, kDm, opts);
    if (r.success) break;
  }
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_GE(r.schedule.ii, 2);  // 4 loads / 2 ports
  const auto diag =
      validateSchedule({bm.graph, db, kDm, bm.resources}, r.schedule);
  EXPECT_EQ(diag, std::nullopt) << *diag;
}

}  // namespace
}  // namespace lamp::sched
