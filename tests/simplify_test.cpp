// Tests for the dataflow-driven graph simplification: targeted rewrites
// (constant-cone folding, width narrowing, identity elimination), the
// old-to-new id mapping, loop-carried safety (registers reset to 0, so
// back-edge operands are never constants), and the differential-
// simulation guarantee over random graphs and all nine paper benchmarks
// — the simplified graph must be bit-identical on every output for every
// simulated iteration — with the cut and MILP sizes it saves pinned.

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <random>
#include <vector>

#include "analyze/dataflow.h"
#include "cut/cut.h"
#include "ir/builder.h"
#include "ir/passes.h"
#include "ir/simplify.h"
#include "sched/milp_sched.h"
#include "sched/sdc.h"
#include "sim/interp.h"
#include "workloads/workloads.h"

namespace lamp::ir {
namespace {

using analyze::analyzeDataflow;
using analyze::toBitFacts;

Graph simplified(const Graph& g, SimplifyStats* st = nullptr,
                 std::vector<NodeId>* map = nullptr) {
  const BitFacts facts = toBitFacts(analyzeDataflow(g));
  return simplify(g, facts, st, map);
}

/// Runs `before` and its simplification `after` on the same input frames
/// (ids routed through `map`); every output must match bit for bit.
void expectSameOutputs(const Graph& before, const Graph& after,
                       const std::vector<NodeId>& map,
                       const std::vector<sim::InputFrame>& frames,
                       const std::function<void(sim::Memory&)>& init = {}) {
  std::vector<sim::InputFrame> routed(frames.size());
  for (std::size_t k = 0; k < frames.size(); ++k) {
    for (const auto& [in, value] : frames[k]) {
      if (map[in] != kNoNode) routed[k][map[in]] = value;
    }
  }
  sim::Interpreter ref(before), simp(after);
  if (init) {
    init(ref.memory());
    init(simp.memory());
  }
  const auto want = ref.run(frames);
  const auto got = simp.run(routed);
  for (std::size_t k = 0; k < want.size(); ++k) {
    for (const auto& [out, value] : want[k]) {
      ASSERT_NE(map[out], kNoNode) << "output " << out << " dropped";
      const auto it = got[k].find(map[out]);
      ASSERT_NE(it, got[k].end());
      EXPECT_EQ(it->second, value) << "iteration " << k << " output " << out;
    }
  }
}

TEST(SimplifyTest, FoldsConstantCone) {
  GraphBuilder b("t");
  Value a = b.input("a", 8);
  Value c = b.bxor(b.constant(0x0F, 8), b.constant(0x35, 8));
  Value s = b.add(c, b.constant(1, 8));
  b.output(b.bxor(a, s), "o");
  SimplifyStats st;
  const Graph g = simplified(b.graph(), &st);
  EXPECT_GE(st.folded, 1);
  EXPECT_FALSE(ir::verify(g).has_value());
  // The xor/add cone collapsed; only input, one const, the xor with the
  // input, and the output remain.
  EXPECT_LT(g.size(), b.graph().size());
}

// FoldTest: the constant-folding and identity-forwarding cases, served
// by ir::simplify (the only graph rewriter).

TEST(FoldTest, FoldsPureConstantExpressions) {
  GraphBuilder b("f");
  Value x = b.bxor(b.constant(0x0F, 8), b.constant(0x35, 8));
  b.output(b.add(x, b.constant(1, 8)), "o");
  const Graph g = simplified(b.graph());
  ASSERT_EQ(g.size(), 2u);  // input-less graph: const + output only
  EXPECT_EQ(g.node(0).kind, OpKind::Const);
  EXPECT_EQ(g.node(0).constValue, ((0x0Fu ^ 0x35u) + 1) & 0xFF);
}

TEST(FoldTest, ForwardsNeutralOps) {
  GraphBuilder b("fwd");
  Value a = b.input("a", 8);
  Value v = b.band(b.bor(a, b.constant(0, 8)), b.constant(0xFF, 8));
  v = b.shl(b.bxor(v, b.constant(0, 8)), 0);
  b.output(b.add(v, b.constant(0, 8)), "o");
  const Graph g = simplified(b.graph());
  ASSERT_EQ(g.size(), 2u);  // input + output
  EXPECT_EQ(g.node(g.outputs()[0]).operands[0].src, g.inputs()[0]);
}

TEST(FoldTest, MuxWithConstantSelectPicksBranch) {
  GraphBuilder b("mux");
  Value a = b.input("a", 8);
  Value c = b.input("c", 8);
  b.output(b.mux(b.constant(1, 1), a, c), "one");
  b.output(b.mux(b.constant(0, 1), a, c), "zero");
  const Graph g = simplified(b.graph());
  ASSERT_EQ(g.size(), 4u);
  EXPECT_EQ(g.node(g.outputs()[0]).operands[0].src, g.inputs()[0]);
  EXPECT_EQ(g.node(g.outputs()[1]).operands[0].src, g.inputs()[1]);
}

// Registers reset to 0, so a loop-carried operand is never a constant:
// next = 0xAA ^ next@1 toggles between 0xAA and 0.
TEST(FoldTest, NeverFoldsThroughLoopCarriedEdges) {
  GraphBuilder b("loop");
  Value ph = b.placeholder(8, "st");
  Value next = b.bxor(b.constant(0xAA, 8), ph.prev(1), "next");
  b.bindPlaceholder(ph, next);
  b.output(next, "o");
  const Graph g = simplified(ir::compact(b.graph()));
  ASSERT_EQ(g.size(), 3u);  // const, xor, output
  sim::Interpreter interp(g);
  const NodeId out = g.outputs()[0];
  EXPECT_EQ(interp.step({}).at(out), 0xAAu);
  EXPECT_EQ(interp.step({}).at(out), 0x00u);
  EXPECT_EQ(interp.step({}).at(out), 0xAAu);
}

// v = x@1 | 0 is an identity of a registered value: forwarding it must
// compose the distance onto v's consumers.
TEST(FoldTest, ForwardsIdentityAcrossLoopEdgeSafely) {
  GraphBuilder b("loopfwd");
  Value x = b.input("x", 8);
  Value ph = b.placeholder(8, "st");
  Value next = b.bxor(x, b.bor(ph.prev(1), b.constant(0, 8)), "next");
  b.bindPlaceholder(ph, next);
  b.output(next, "o");
  const Graph before = ir::compact(b.graph());
  std::vector<NodeId> map;
  const Graph after = simplified(before, nullptr, &map);
  ASSERT_EQ(after.size(), 3u);  // input, xor, output
  std::vector<sim::InputFrame> frames;
  for (std::uint64_t k = 0; k < 6; ++k) {
    frames.push_back({{before.inputs()[0], k * 77 + 5}});
  }
  expectSameOutputs(before, after, map, frames);
}

// a = b@1 | 0 ; b = a@1 | 0 : forwarding both would chase a cycle.
TEST(FoldTest, MutualLoopIdentitiesDoNotCycle) {
  GraphBuilder b("cyc");
  Value pa = b.placeholder(4, "a");
  Value pb = b.placeholder(4, "b");
  Value a = b.bor(pb.prev(1), b.constant(0, 4), "a");
  b.bindPlaceholder(pb, b.bor(pa.prev(1), b.constant(0, 4), "b"));
  b.bindPlaceholder(pa, a);
  b.output(a, "o");
  const Graph g = ir::compact(b.graph());
  ASSERT_EQ(verify(g), std::nullopt);
  EXPECT_EQ(verify(simplified(g)), std::nullopt);
}

class FoldRandomTest : public ::testing::TestWithParam<unsigned> {};

// Random 8-bit graphs rich in constants and a loop-carried accumulator.
TEST_P(FoldRandomTest, SemanticsPreserved) {
  std::mt19937 rng(GetParam() * 77773u + 5);
  GraphBuilder b("rand");
  Value ph = b.placeholder(8, "st");
  std::vector<Value> pool = {b.input("in0", 8), b.input("in1", 8),
                             b.constant(0, 8),  b.constant(0xFF, 8),
                             b.constant(0x0F, 8), b.constant(1, 8),
                             ph.prev(1)};
  for (int i = 0; i < 20; ++i) {
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    Value x = pool[pick(rng)];
    Value y = pool[pick(rng)];
    switch (rng() % 8) {
      case 0: pool.push_back(b.band(x, y)); break;
      case 1: pool.push_back(b.bor(x, y)); break;
      case 2: pool.push_back(b.bxor(x, y)); break;
      case 3: pool.push_back(b.add(x, y)); break;
      case 4: pool.push_back(b.sub(x, y)); break;
      case 5: pool.push_back(b.mux(b.bit(x, rng() % 8), x, y)); break;
      case 6: pool.push_back(b.shr(x, static_cast<int>(rng() % 8))); break;
      default: pool.push_back(b.bnot(x)); break;
    }
  }
  Value next = b.bxor(pool.back(), ph.prev(1));
  b.bindPlaceholder(ph, next);
  b.output(next, "acc");
  b.output(pool[pool.size() / 2], "mid");
  const Graph before = ir::compact(b.graph());
  std::vector<NodeId> map;
  const Graph after = simplified(before, nullptr, &map);
  ASSERT_EQ(verify(after), std::nullopt);
  EXPECT_LE(after.size(), before.size());

  std::vector<sim::InputFrame> frames(9);
  for (std::uint64_t k = 0; k < 9; ++k) {
    std::uint64_t s = GetParam() * 31 + k;
    for (const NodeId in : before.inputs()) frames[k][in] = s = s * 131 + 7;
  }
  expectSameOutputs(before, after, map, frames);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldRandomTest, ::testing::Range(1u, 21u));

TEST(SimplifyTest, MapTracksSurvivingNodes) {
  GraphBuilder b("t");
  Value a = b.input("a", 8);
  Value x = b.bxor(a, b.constant(0x7, 8));
  const NodeId out = b.output(x, "o");
  std::vector<NodeId> map;
  const Graph g = simplified(b.graph(), nullptr, &map);
  ASSERT_EQ(map.size(), b.graph().size());
  ASSERT_NE(map[a.id], kNoNode);
  ASSERT_NE(map[out], kNoNode);
  EXPECT_EQ(g.node(map[a.id]).kind, OpKind::Input);
  EXPECT_EQ(g.node(map[out]).kind, OpKind::Output);
}

// Regression: `a & 0x0F` feeding an Output must NOT forward to `a`.
// The output reads all eight bits; the top nibble is known-zero (so not
// *demanded* — no logic computes it) but it is *live*, and `a`'s raw
// top bits would differ. Forwarding neutrality is judged on the live
// mask for exactly this reason.
TEST(SimplifyTest, MaskedValueFeedingOutputIsNotForwarded) {
  GraphBuilder b("t");
  Value a = b.input("a", 8);
  Value m = b.band(a, b.constant(0x0F, 8));
  b.output(m, "o");
  SimplifyStats st;
  const Graph g = simplified(b.graph(), &st);
  EXPECT_EQ(st.forwarded, 0u);
  EXPECT_EQ(g.size(), b.graph().size());
}

// ...but the same And does forward when a downstream Slice proves the
// top nibble unobservable: only the low four bits are live.
TEST(SimplifyTest, MaskedValueForwardsWhenTopBitsAreDead) {
  GraphBuilder b("t");
  Value a = b.input("a", 8);
  Value m = b.band(a, b.constant(0x0F, 8));
  b.output(b.slice(m, 0, 4), "o");
  SimplifyStats st;
  const Graph g = simplified(b.graph(), &st);
  EXPECT_GE(st.forwarded, 1u);
  EXPECT_LT(g.size(), b.graph().size());
}

TEST(SimplifyTest, SimplifiedGraphVerifies) {
  for (const auto& bm :
       workloads::allBenchmarks(workloads::Scale::Default)) {
    const Graph g = simplified(bm.graph);
    const auto issue = ir::verify(g);
    EXPECT_FALSE(issue.has_value()) << bm.name << ": " << *issue;
  }
}

/// Cut count and mapping-aware MILP variable count of `g`, cuts
/// enumerated with `facts` (none when null). The model is built at the SDC schedule's II
/// with one cycle of latency slack, and not solved.
struct MappedSize {
  std::size_t cuts = 0;
  std::size_t milpVars = 0;
};
MappedSize mappedSize(const Graph& g, const BitFacts* facts,
                      const sched::ResourceLimits& resources) {
  cut::CutEnumOptions co;
  co.facts = facts;
  const cut::CutDatabase db = cut::enumerateCuts(g, co);
  const sched::DelayModel delays;
  sched::SdcOptions so;
  so.resources = resources;
  sched::SdcResult sdc;
  for (so.ii = 1; so.ii <= 8; ++so.ii) {
    sdc = sched::sdcSchedule(g, cut::trivialCuts(g, co), delays, so);
    if (sdc.success) break;
  }
  EXPECT_TRUE(sdc.success);
  sched::MilpSchedOptions mo;
  mo.ii = sdc.schedule.ii;
  mo.maxLatency = sdc.schedule.latency(g) + 1;
  mo.resources = resources;
  std::ostream discard(nullptr);
  mo.dumpModel = &discard;  // build only
  return {db.totalCuts, sched::milpSchedule(g, db, delays, mo).numVars};
}

// What the bit-level analyses buy the solver, per benchmark in
// allBenchmarks() order: cuts and mapping-aware MILP variables on the
// original graph without facts -> on the simplified graph with its own
// facts. XORR has nothing to shrink: nothing is known and every bit is
// demanded.
struct AblationPin {
  const char* name;
  std::size_t cutsOff, cutsOn, varsOff, varsOn;
};
constexpr AblationPin kAblationPins[] = {
    {"CLZ", 513, 410, 1152, 1049}, {"XORR", 34, 34, 110, 110},
    {"GFMUL", 306, 182, 618, 494}, {"CORDIC", 123, 101, 570, 536},
    {"MT", 93, 54, 233, 194},      {"AES", 134, 122, 365, 353},
    {"RS", 65, 53, 168, 156},      {"DR", 398, 212, 950, 749},
    {"GSM", 25, 24, 146, 145},
};

// The core acceptance property: for every benchmark, the original and
// the simplified graph produce bit-identical output streams (the
// rewrites may only touch bits no output can observe). The cut and
// model sizes of the two graphs are pinned exactly.
TEST(SimplifyTest, DifferentialSimulationAllBenchmarks) {
  constexpr int kIterations = 24;
  constexpr std::uint32_t kSeed = 7;
  const auto benchmarks = workloads::allBenchmarks(workloads::Scale::Default);
  ASSERT_EQ(benchmarks.size(), std::size(kAblationPins));
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    const workloads::Benchmark& bm = benchmarks[b];
    const AblationPin& pin = kAblationPins[b];
    SCOPED_TRACE(bm.name);
    ASSERT_EQ(bm.name, pin.name);
    std::vector<NodeId> map;
    const Graph g = simplified(bm.graph, nullptr, &map);
    std::vector<sim::InputFrame> frames;
    for (int k = 0; k < kIterations; ++k) {
      frames.push_back(bm.makeInputs(k, kSeed));
      for (const auto& [in, value] : frames.back()) {
        ASSERT_NE(map[in], kNoNode) << "input " << in << " dropped";
      }
    }
    expectSameOutputs(bm.graph, g, map, frames, bm.initMemory);

    const BitFacts facts = toBitFacts(analyzeDataflow(g));
    const MappedSize off = mappedSize(bm.graph, nullptr, bm.resources);
    const MappedSize on = mappedSize(g, &facts, bm.resources);
    EXPECT_EQ(off.cuts, pin.cutsOff);
    EXPECT_EQ(on.cuts, pin.cutsOn);
    EXPECT_EQ(off.milpVars, pin.varsOff);
    EXPECT_EQ(on.milpVars, pin.varsOn);
  }
}

TEST(SimplifyTest, SecondPassNeverGrows) {
  for (const auto& bm :
       workloads::allBenchmarks(workloads::Scale::Default)) {
    const Graph once = simplified(bm.graph);
    const Graph twice = simplified(once);
    EXPECT_LE(twice.size(), once.size()) << bm.name;
  }
}

}  // namespace
}  // namespace lamp::ir
