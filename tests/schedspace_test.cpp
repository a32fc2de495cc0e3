// Formulation-equivalence suite for the schedule-space analysis
// (src/analyze/schedspace.*): every reduction it feeds the MILP —
// chaining-tightened windows, probed-out assignments, symmetry ordering
// rows, forced-root substitution — must leave the optimal II and
// objective of all nine paper benchmarks unchanged while the model gets
// strictly smaller, plus unit tests for each analysis phase.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analyze/schedspace.h"
#include "cut/cut.h"
#include "ir/builder.h"
#include "sched/milp_sched.h"
#include "sched/sdc.h"
#include "workloads/workloads.h"

namespace lamp::analyze {
namespace {

using ir::GraphBuilder;
using ir::Value;

const sched::DelayModel kDm;

// ---------------------------------------------------------------------------
// The acceptance bar: with the analysis on, the mapping-agnostic MILP of
// every benchmark must solve to the same optimum in a smaller model. The
// model sizes off -> on are pinned exactly (they are deterministic).

struct SizePin {
  const char* name;
  std::size_t varsOff, rowsOff, varsOn, rowsOn;
};
constexpr SizePin kSizePins[] = {
    {"CLZ", 767, 980, 640, 807},    {"XORR", 89, 99, 68, 87},
    {"GFMUL", 364, 368, 278, 305},  {"CORDIC", 522, 663, 377, 537},
    {"MT", 164, 162, 122, 137},     {"AES", 278, 339, 239, 293},
    {"RS", 125, 152, 107, 125},     {"DR", 663, 778, 463, 638},
    {"GSM", 142, 181, 91, 135},
};

TEST(SchedSpaceTest, NineBenchmarksSolveIdenticallyInSmallerModels) {
  const auto benchmarks = workloads::allBenchmarks(workloads::Scale::Default);
  ASSERT_EQ(benchmarks.size(), std::size(kSizePins));
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    const workloads::Benchmark& bm = benchmarks[b];
    const SizePin& pin = kSizePins[b];
    ASSERT_EQ(bm.name, pin.name);
    const cut::CutDatabase trivial = cut::trivialCuts(bm.graph);

    sched::SdcOptions so;
    so.resources = bm.resources;
    sched::SdcResult sdc;
    int ii = 1;
    for (; ii <= 8; ++ii) {
      so.ii = ii;
      sdc = sched::sdcSchedule(bm.graph, trivial, kDm, so);
      if (sdc.success) break;
    }
    ASSERT_TRUE(sdc.success) << bm.name;

    sched::MilpSchedOptions mo;
    mo.ii = ii;
    mo.maxLatency = sdc.schedule.latency(bm.graph) + 1;
    mo.resources = bm.resources;
    mo.solver.timeLimitSeconds = 60;
    mo.warmStart = &sdc.schedule;

    SchedSpaceOptions sso;
    sso.ii = ii;
    sso.maxLatency = mo.maxLatency;
    sso.mappingAware = false;
    sso.resources = bm.resources;
    const SchedSpace ss = computeSchedSpace(bm.graph, kDm, sso);
    ASSERT_TRUE(ss.feasible) << bm.name;
    const sched::ScheduleSpaceHints hints = ss.toHints();

    mo.hints = nullptr;
    const sched::MilpSchedResult off = milpSchedule(bm.graph, trivial, kDm, mo);
    mo.hints = &hints;
    const sched::MilpSchedResult on = milpSchedule(bm.graph, trivial, kDm, mo);

    ASSERT_TRUE(off.success) << bm.name << ": " << off.error;
    ASSERT_TRUE(on.success) << bm.name << ": " << on.error;
    EXPECT_EQ(on.status, off.status) << bm.name;
    EXPECT_EQ(on.status, lp::SolveStatus::Optimal) << bm.name;
    EXPECT_NEAR(on.objective, off.objective,
                1e-6 * std::max(1.0, std::abs(off.objective)))
        << bm.name << ": the analysis must be a pure reduction";
    EXPECT_EQ(on.schedule.ii, off.schedule.ii) << bm.name;
    EXPECT_EQ(off.numVars, pin.varsOff) << bm.name;
    EXPECT_EQ(off.numConstraints, pin.rowsOff) << bm.name;
    EXPECT_EQ(on.numVars, pin.varsOn) << bm.name;
    EXPECT_EQ(on.numConstraints, pin.rowsOn) << bm.name;
  }
}

// ---------------------------------------------------------------------------
// Windows: accumulated intra-cycle delay quantizes into extra whole
// cycles the integer latencies never see. A chain of lat-0 xors at a
// clock just above one LUT level needs one cycle per level.

TEST(SchedSpaceTest, ChainingTightensWindowsBeyondIntegerLatency) {
  GraphBuilder b("chain");
  Value a = b.input("a", 8);
  Value v = a;
  std::vector<Value> nodes;
  for (int i = 0; i < 4; ++i) {
    v = b.bxor(v, a, ("x" + std::to_string(i)).c_str());
    nodes.push_back(v);
  }
  b.output(v, "out");

  SchedSpaceOptions sso;
  sso.tcpNs = 1.5;  // one 1.37 ns xor per cycle
  sso.maxLatency = 16;
  sso.mappingAware = false;
  const SchedSpace ss = computeSchedSpace(b.graph(), kDm, sso);
  ASSERT_TRUE(ss.feasible);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ss.asap[nodes[i].id], i)
        << "level " << i << " needs " << i << " whole cycles of chaining";
  }

  // The mapping-aware arm absorbs combinational chains into cones: no
  // per-level tightening there.
  sso.mappingAware = true;
  const SchedSpace mapped = computeSchedSpace(b.graph(), kDm, sso);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(mapped.asap[nodes[i].id], 0);
}

// ---------------------------------------------------------------------------
// Probing: individually banned (node, cycle) assignments that interval
// propagation alone cannot see. Two chained lat-2 loads on one port at
// II=2: the extreme cycles force both loads onto one modulo slot, so
// probing bans them while the instance stays feasible.

TEST(SchedSpaceTest, ProbingBansResourceConflictingAssignments) {
  GraphBuilder b("probe");
  Value addr = b.input("addr", 10);
  Value l1 = b.load(ir::ResourceClass::MemPortA, addr, 10, "l1");
  Value l2 = b.load(ir::ResourceClass::MemPortA, l1, 10, "l2");
  b.output(l2, "out");
  const ir::Graph& g = b.graph();

  sched::DelayModel dm;
  dm.memReadNs = 20.0;  // lat 2 at the 10 ns clock
  SchedSpaceOptions sso;
  sso.ii = 2;
  sso.maxLatency = 5;  // windows l1 in [0,1], l2 in [2,3]
  sso.mappingAware = false;
  sso.resources[ir::ResourceClass::MemPortA] = 1;
  const SchedSpace ss = computeSchedSpace(g, dm, sso);
  ASSERT_TRUE(ss.feasible);
  EXPECT_TRUE(ss.probeComplete);
  EXPECT_GT(ss.probesRun, 0);
  // The only surviving assignment is l1@0 (slot 0), l2@3 (slot 1); the
  // conflicting extremes are probed out.
  const auto banned = [&](ir::NodeId v, int t) {
    return std::find(ss.forbidden.begin(), ss.forbidden.end(),
                     std::make_pair(v, t)) != ss.forbidden.end();
  };
  EXPECT_TRUE(banned(l2.id, 2));
  EXPECT_TRUE(banned(l1.id, 1));

  // probeBudgetMs <= 0 disables probing entirely.
  sso.probeBudgetMs = 0;
  const SchedSpace off = computeSchedSpace(g, dm, sso);
  EXPECT_EQ(off.probesRun, 0);
  EXPECT_TRUE(off.forbidden.empty());
}

// ---------------------------------------------------------------------------
// Symmetry: a balanced xor tree has cone-isomorphic sibling subtrees.
// Orbits are verified automorphisms, and toHints() renders them as
// consecutive lexicographic ordering pairs.

TEST(SchedSpaceTest, SymmetryOrbitsOnBalancedTree) {
  GraphBuilder b("tree");
  std::vector<Value> in;
  in.reserve(8);
  for (int i = 0; i < 8; ++i) {
    in.push_back(b.input(("i" + std::to_string(i)).c_str(), 8));
  }
  std::vector<Value> lo;
  for (int i = 0; i < 8; i += 2) {
    lo.push_back(b.bxor(in[i], in[i + 1],
                        ("a" + std::to_string(i / 2)).c_str()));
  }
  Value m0 = b.bxor(lo[0], lo[1], "m0");
  Value m1 = b.bxor(lo[2], lo[3], "m1");
  b.output(b.bxor(m0, m1, "root"), "out");

  SchedSpaceOptions sso;
  sso.tcpNs = 1.5;  // spread the tree over several cycles
  sso.maxLatency = 16;
  sso.mappingAware = false;
  const SchedSpace ss = computeSchedSpace(b.graph(), kDm, sso);
  ASSERT_TRUE(ss.feasible);
  ASSERT_FALSE(ss.orbits.empty());

  // Every orbit's members are distinct and sorted; the second-level
  // pair {m0, m1} must be among them (whole-subtree swap).
  bool sawM = false;
  for (const SymmetryOrbit& orbit : ss.orbits) {
    ASSERT_GE(orbit.members.size(), 2u);
    EXPECT_TRUE(std::is_sorted(orbit.members.begin(), orbit.members.end()));
    if (orbit.members == std::vector<ir::NodeId>{m0.id, m1.id}) sawM = true;
  }
  EXPECT_TRUE(sawM) << "m0/m1 swap is a verified automorphism";

  const sched::ScheduleSpaceHints h = ss.toHints();
  std::size_t pairs = 0;
  for (const SymmetryOrbit& orbit : ss.orbits) {
    pairs += orbit.members.size() - 1;
  }
  EXPECT_EQ(h.precede.size(), pairs);

  // A linear xor chain has no swap symmetry: no orbits.
  GraphBuilder c("chain");
  Value a = c.input("a", 8);
  Value v = a;
  for (int i = 0; i < 6; ++i) {
    v = c.bxor(v, c.input(("b" + std::to_string(i)).c_str(), 8),
               ("x" + std::to_string(i)).c_str());
  }
  c.output(v, "out");
  EXPECT_TRUE(computeSchedSpace(c.graph(), kDm, sso).orbits.empty());
}

// ---------------------------------------------------------------------------
// Forced-root substitution: in the mapping-agnostic arm the cover rows
// make every live node a root, so the cut binaries are provably 1 and
// never materialize. Variables drop, the objective does not move.

TEST(SchedSpaceTest, ForcedRootSubstitutionShrinksBaseArm) {
  GraphBuilder b("sub");
  Value a = b.input("a", 8);
  Value x0 = b.bxor(a, a, "x0");
  Value x1 = b.bxor(x0, a, "x1");
  Value x2 = b.add(x1, a, "x2");
  b.output(x2, "out");
  const ir::Graph& g = b.graph();
  const cut::CutDatabase trivial = cut::trivialCuts(g);

  SchedSpaceOptions sso;
  sso.maxLatency = 8;
  sso.mappingAware = false;
  const SchedSpace ss = computeSchedSpace(g, kDm, sso);
  ASSERT_TRUE(ss.feasible);
  const sched::ScheduleSpaceHints hints = ss.toHints();
  ASSERT_EQ(hints.live.size(), g.size());
  EXPECT_TRUE(hints.live[x0.id] != 0 && hints.live[x2.id] != 0);

  sched::MilpSchedOptions mo;
  mo.maxLatency = 8;
  mo.solver.timeLimitSeconds = 30;
  const sched::MilpSchedResult off = milpSchedule(g, trivial, kDm, mo);
  mo.hints = &hints;
  const sched::MilpSchedResult on = milpSchedule(g, trivial, kDm, mo);
  ASSERT_TRUE(off.success);
  ASSERT_TRUE(on.success);
  EXPECT_LT(on.numVars, off.numVars)
      << "live single-cut binaries must be substituted away";
  EXPECT_EQ(on.status, off.status);
  EXPECT_NEAR(on.objective, off.objective, 1e-6);
}

}  // namespace
}  // namespace lamp::analyze
