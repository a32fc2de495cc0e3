// Tests for the pre-solve static analysis engine (src/analyze/): one
// positive test per diagnostic code — a seeded defective graph must
// trigger exactly that code on the expected node set — plus the negative
// guarantee that all nine paper benchmarks analyze clean at their
// Table 1 clock target (10 ns, II=1), the ir::verifyAll accumulation
// contract, diagnostic JSON round-trips, and the flow-level gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/dataflow.h"
#include "flow/flow.h"
#include "flow/flow_json.h"
#include "ir/builder.h"
#include "ir/passes.h"
#include "ir/simplify.h"
#include "workloads/workloads.h"

namespace lamp::analyze {
namespace {

using ir::GraphBuilder;
using ir::Value;

std::vector<const Diagnostic*> withCode(const AnalysisReport& r,
                                        std::string_view code) {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == code) out.push_back(&d);
  }
  return out;
}

bool hasNode(const Diagnostic& d, ir::NodeId id) {
  return std::find(d.nodes.begin(), d.nodes.end(), id) != d.nodes.end();
}

// ---------------------------------------------------------------------------
// Negative guarantee: the paper's nine benchmarks are clean at Table 1
// targets (10 ns clock, II=1) under the flow's own analysis options.

TEST(AnalyzeTest, AllNineBenchmarksAnalyzeCleanAtTableOneTargets) {
  for (auto& bm : workloads::allBenchmarks(workloads::Scale::Default)) {
    for (const flow::Method m :
         {flow::Method::HlsTool, flow::Method::MilpBase, flow::Method::MilpMap}) {
      flow::FlowOptions opts;  // ii=1, tcpNs=10, k=4 — the Table 1 setup
      const AnalysisReport report =
          analyzeGraph(bm.graph, flow::analysisOptions(bm, m, opts));
      EXPECT_FALSE(report.hasErrors()) << bm.name << ": "
                                       << summarizeErrors(report);
      // "Clean" matches lamp-lint's exit-0 contract: no Errors and no
      // Warnings. Info-severity advisories are allowed — e.g. DR's
      // output port legitimately carries provably-zero top bits
      // (LAMP010), which is a tuning hint, not a defect.
      for (const Diagnostic& d : report.diagnostics) {
        EXPECT_LT(d.severity, Severity::Warning)
            << bm.name << " has unexpected findings: "
            << renderReport(bm.graph, report);
      }
      EXPECT_EQ(report.recMii, 1) << bm.name;
    }
  }
}

// ---------------------------------------------------------------------------
// LAMP001 — clock-infeasible node

TEST(AnalyzeTest, ClockInfeasibleNodeIsFlagged) {
  GraphBuilder b("clock");
  Value x = b.input("x", 8);
  Value y = b.input("y", 8);
  Value slow = b.bxor(x, y, "slow");        // LUT root: 1.2 ns
  Value wide = b.add(slow, y, "wide");      // carry: 1.37 + 0.05*8 = 1.77 ns
  Value dsp = b.mul(x, y, 8, "dsp");        // black box: exempt (12 ns)
  b.output(b.bxor(wide, dsp), "out");

  AnalysisOptions opts;
  opts.tcpNs = 1.0;  // below even one LUT level
  const AnalysisReport report = analyzeGraph(b.graph(), opts);
  ASSERT_TRUE(report.hasErrors());
  const auto found = withCode(report, kCodeClockInfeasible);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::Error);
  EXPECT_TRUE(hasNode(*found[0], slow.id));
  EXPECT_TRUE(hasNode(*found[0], wide.id));
  EXPECT_FALSE(hasNode(*found[0], dsp.id)) << "black boxes are pipelined IP";

  // At the Table 1 clock everything fits in a cycle: no finding.
  opts.tcpNs = 10.0;
  EXPECT_TRUE(withCode(analyzeGraph(b.graph(), opts), kCodeClockInfeasible)
                  .empty());
}

// ---------------------------------------------------------------------------
// LAMP002 — recurrence-bound minimum II, with the binding cycle

TEST(AnalyzeTest, RecurrenceMiiReportsBindingCycle) {
  GraphBuilder b("rec");
  Value a = b.input("a", 8);
  Value st = b.placeholder(8, "st");
  Value m1 = b.mul(st.prev(1), a, 8, "m1");
  Value m2 = b.mul(m1, a, 8, "m2");
  b.bindPlaceholder(st, m2);
  b.output(m2, "out");

  AnalysisOptions opts;
  opts.delays.dspMulNs = 20.0;  // 2 whole cycles at 10 ns, no remainder
  const Recurrence rec = recurrenceMii(b.graph(), opts.delays, opts.tcpNs);
  EXPECT_EQ(rec.recMii, 4);  // two lat-2 muls on a dist-1 cycle
  EXPECT_FALSE(rec.cycle.empty());

  // Strict II budget (maxIi == ii): provably unreachable -> Error.
  opts.ii = 1;
  opts.maxIi = 1;
  AnalysisReport report = analyzeGraph(b.graph(), opts);
  EXPECT_EQ(report.recMii, 4);
  auto found = withCode(report, kCodeRecurrenceMii);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::Error);
  EXPECT_TRUE(hasNode(*found[0], m1.id));
  EXPECT_TRUE(hasNode(*found[0], m2.id));

  // Inside the flow's retry window: same bound, only a Warning.
  opts.maxIi = 9;
  report = analyzeGraph(b.graph(), opts);
  found = withCode(report, kCodeRecurrenceMii);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::Warning);
  EXPECT_FALSE(report.hasErrors());

  // Requested II at the bound: clean.
  opts.ii = opts.maxIi = 4;
  EXPECT_TRUE(withCode(analyzeGraph(b.graph(), opts), kCodeRecurrenceMii)
                  .empty());
}

// ---------------------------------------------------------------------------
// LAMP003 — resource-bound minimum II

TEST(AnalyzeTest, ResourceMiiCountsPortPressure) {
  GraphBuilder b("res");
  Value addr = b.input("addr", 10);
  Value l1 = b.load(ir::ResourceClass::MemPortA, addr, 8, "l1");
  Value l2 = b.load(ir::ResourceClass::MemPortA, addr, 8, "l2");
  Value l3 = b.load(ir::ResourceClass::MemPortA, addr, 8, "l3");
  b.output(b.bxor(b.bxor(l1, l2), l3), "out");

  AnalysisOptions opts;
  opts.resources[ir::ResourceClass::MemPortA] = 1;
  opts.ii = 1;
  opts.maxIi = 1;
  const AnalysisReport report = analyzeGraph(b.graph(), opts);
  EXPECT_EQ(report.resMii, 3);
  EXPECT_EQ(resourceMii(b.graph(), opts.resources), 3);
  const auto found = withCode(report, kCodeResourceMii);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::Error);
  EXPECT_EQ(found[0]->nodes.size(), 3u);
  EXPECT_TRUE(hasNode(*found[0], l1.id));
  EXPECT_TRUE(hasNode(*found[0], l2.id));
  EXPECT_TRUE(hasNode(*found[0], l3.id));

  // Two ports -> ceil(3/2) = 2, reachable within the retry window.
  opts.resources[ir::ResourceClass::MemPortA] = 2;
  opts.maxIi = 9;
  const AnalysisReport relaxed = analyzeGraph(b.graph(), opts);
  EXPECT_EQ(relaxed.resMii, 2);
  ASSERT_EQ(withCode(relaxed, kCodeResourceMii).size(), 1u);
  EXPECT_EQ(withCode(relaxed, kCodeResourceMii)[0]->severity,
            Severity::Warning);
}

// ---------------------------------------------------------------------------
// LAMP004 — cone that can never be K-feasible

TEST(AnalyzeTest, UnmappableConeIsFlagged) {
  GraphBuilder b("cone");
  Value sel = b.input("sel", 1);
  Value p = b.input("p", 8);
  Value q = b.input("q", 8);
  // Every cut of the mux keeps sel, p[j], q[j] on its boundary (all
  // three are Inputs) — 3 bits, so K=2 is provably infeasible.
  Value m = b.mux(sel, p, q, "m");
  b.output(m, "out");

  AnalysisOptions opts;
  opts.k = 2;
  opts.mappingAware = true;
  const AnalysisReport report = analyzeGraph(b.graph(), opts);
  const auto found = withCode(report, kCodeUnmappableCone);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::Error);
  EXPECT_TRUE(hasNode(*found[0], m.id));

  // Mapping-agnostic arms use trivial cuts with a carry fallback — the
  // same finding only warns there.
  opts.mappingAware = false;
  const AnalysisReport base = analyzeGraph(b.graph(), opts);
  ASSERT_EQ(withCode(base, kCodeUnmappableCone).size(), 1u);
  EXPECT_EQ(withCode(base, kCodeUnmappableCone)[0]->severity,
            Severity::Warning);

  // At K=4 (the default LUT size) the mux fits: clean.
  opts.k = 4;
  opts.mappingAware = true;
  EXPECT_TRUE(withCode(analyzeGraph(b.graph(), opts), kCodeUnmappableCone)
                  .empty());
}

// ---------------------------------------------------------------------------
// LAMP005 / LAMP006 — dead nodes and unused inputs

TEST(AnalyzeTest, DeadNodesAndUnusedInputsWarn) {
  GraphBuilder b("dead");
  Value a = b.input("a", 8);
  Value unused = b.input("unused", 8);
  Value dead = b.bxor(a, a, "dead");  // never reaches a sink
  b.output(b.bnot(a), "out");
  (void)dead;

  const AnalysisReport report = analyzeGraph(b.graph(), AnalysisOptions{});
  EXPECT_FALSE(report.hasErrors());
  const auto deadFound = withCode(report, kCodeDeadNode);
  ASSERT_EQ(deadFound.size(), 1u);
  EXPECT_EQ(deadFound[0]->severity, Severity::Warning);
  EXPECT_TRUE(hasNode(*deadFound[0], dead.id));
  const auto unusedFound = withCode(report, kCodeUnusedInput);
  ASSERT_EQ(unusedFound.size(), 1u);
  EXPECT_EQ(unusedFound[0]->nodes, std::vector<ir::NodeId>{unused.id});
}

// ---------------------------------------------------------------------------
// LAMP007 — structural violations, all of them, with node identity

TEST(AnalyzeTest, StructuralViolationsAllReportedAndGateLaterPasses) {
  ir::Graph g("broken");
  ir::Node in;
  in.kind = ir::OpKind::Input;
  in.width = 8;
  const ir::NodeId inId = g.add(in);
  ir::Node bad;
  bad.kind = ir::OpKind::Xor;
  bad.width = 4;  // mismatches its 8-bit operands
  bad.operands = {{inId, 0}, {inId, 0}};
  const ir::NodeId badId = g.add(bad);
  ir::Node worse;
  worse.kind = ir::OpKind::And;
  worse.width = 0;  // zero width AND operand mismatch
  worse.operands = {{inId, 0}, {inId, 0}};
  const ir::NodeId worseId = g.add(worse);
  ir::Node out;
  out.kind = ir::OpKind::Output;
  out.width = 4;
  out.operands = {{badId, 0}};
  g.add(out);

  const std::vector<ir::VerifyIssue> issues = ir::verifyAll(g);
  ASSERT_EQ(issues.size(), 3u);  // xor mismatch, and mismatch, and zero-width
  EXPECT_EQ(issues[0].node, badId);
  EXPECT_EQ(issues[1].node, worseId);
  EXPECT_EQ(issues[2].node, worseId);
  // verify() is the accumulating checker's first finding, verbatim.
  ASSERT_TRUE(ir::verify(g).has_value());
  EXPECT_EQ(*ir::verify(g), issues[0].message);
  // Node identity is embedded in every message.
  EXPECT_NE(issues[0].message.find("node 1 (xor)"), std::string::npos)
      << issues[0].message;

  const AnalysisReport report = analyzeGraph(g, AnalysisOptions{});
  EXPECT_FALSE(report.structurallyValid);
  EXPECT_TRUE(report.hasErrors());
  const auto found = withCode(report, kCodeStructural);
  ASSERT_EQ(found.size(), 3u);
  EXPECT_TRUE(hasNode(*found[0], badId));
  // Later passes must not run on a malformed graph: the dead 'and' node
  // would otherwise produce LAMP005.
  EXPECT_TRUE(withCode(report, kCodeDeadNode).empty());
}

// ---------------------------------------------------------------------------
// LAMP008 — constant-foldable islands (transitively)

TEST(AnalyzeTest, ConstantFoldableIslandIsInfo) {
  GraphBuilder b("fold");
  Value x = b.input("x", 8);
  Value c = b.add(b.constant(3, 8), b.constant(4, 8), "c");
  Value c2 = b.bnot(c, "c2");  // constant transitively
  b.output(b.bxor(x, c2), "out");

  const AnalysisReport report = analyzeGraph(b.graph(), AnalysisOptions{});
  EXPECT_FALSE(report.hasErrors());
  const auto found = withCode(report, kCodeConstFoldable);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::Info);
  EXPECT_TRUE(hasNode(*found[0], c.id));
  EXPECT_TRUE(hasNode(*found[0], c2.id));

  // ir::simplify is exactly the fix the hint names: afterwards the
  // island is gone.
  const ir::Graph folded =
      ir::simplify(b.graph(), toBitFacts(analyzeDataflow(b.graph())));
  EXPECT_TRUE(withCode(analyzeGraph(folded, AnalysisOptions{}),
                       kCodeConstFoldable)
                  .empty());
}

// ---------------------------------------------------------------------------
// LAMP009 — no observable sinks

TEST(AnalyzeTest, MissingSinksWarn) {
  GraphBuilder b("sinkless");
  Value x = b.input("x", 8);
  (void)b.bnot(x, "n");

  const AnalysisReport report = analyzeGraph(b.graph(), AnalysisOptions{});
  EXPECT_FALSE(report.hasErrors());
  ASSERT_EQ(withCode(report, kCodeNoSinks).size(), 1u);
  EXPECT_EQ(withCode(report, kCodeNoSinks)[0]->severity, Severity::Warning);
}

// ---------------------------------------------------------------------------
// Registry and serialization plumbing

// ---------------------------------------------------------------------------
// LAMP010-013: seeded positive tests for the bit-level dataflow findings.

TEST(AnalyzeTest, DeadOutputBitsAreFlagged) {
  GraphBuilder b("dead_bits");
  Value a = b.input("a", 4);
  const ir::NodeId out = b.output(b.zext(a, 8), "o");  // top 4 never rise
  const AnalysisReport r = analyzeGraph(b.graph(), AnalysisOptions{});
  const auto found = withCode(r, kCodeDeadOutputBits);
  ASSERT_EQ(found.size(), 1u) << renderReport(b.graph(), r);
  EXPECT_EQ(found[0]->severity, Severity::Info);
  EXPECT_TRUE(hasNode(*found[0], out));
  EXPECT_FALSE(r.hasErrors());
}

TEST(AnalyzeTest, OverflowTruncationIsFlagged) {
  GraphBuilder b("trunc");
  Value a = b.input("a", 8);
  Value set = b.bor(a, b.constant(0x80, 8));  // bit 7 provably 1
  Value low = b.slice(set, 0, 4);             // drops the known-set bit
  b.output(low, "o");
  const ir::NodeId sliceId = low.id;
  const AnalysisReport r = analyzeGraph(b.graph(), AnalysisOptions{});
  const auto found = withCode(r, kCodeOverflowTruncation);
  ASSERT_EQ(found.size(), 1u) << renderReport(b.graph(), r);
  EXPECT_EQ(found[0]->severity, Severity::Warning);
  EXPECT_TRUE(hasNode(*found[0], sliceId));
}

TEST(AnalyzeTest, ConstantCompareIsFlagged) {
  GraphBuilder b("cmp");
  Value a = b.input("a", 4);
  // zext(a) <= 15 < 64: the ranges prove the comparison before any input.
  Value always = b.lt(b.zext(a, 8), b.constant(0x40, 8), false, "always");
  b.output(always, "o");
  const AnalysisReport r = analyzeGraph(b.graph(), AnalysisOptions{});
  const auto found = withCode(r, kCodeConstantCompare);
  ASSERT_EQ(found.size(), 1u) << renderReport(b.graph(), r);
  EXPECT_EQ(found[0]->severity, Severity::Warning);
  EXPECT_TRUE(hasNode(*found[0], always.id));
  EXPECT_NE(found[0]->message.find("always-true"), std::string::npos);
}

TEST(AnalyzeTest, DeadMuxArmIsFlagged) {
  GraphBuilder b("mux_arm");
  Value a = b.input("a", 8);
  Value t = b.input("t", 8);
  Value f = b.input("f", 8);
  Value sel = b.bit(b.bor(a, b.constant(1, 8)), 0);  // provably 1
  Value m = b.mux(sel, t, f);
  b.output(m, "o");
  const AnalysisReport r = analyzeGraph(b.graph(), AnalysisOptions{});
  const auto found = withCode(r, kCodeDeadMuxArm);
  ASSERT_EQ(found.size(), 1u) << renderReport(b.graph(), r);
  EXPECT_EQ(found[0]->severity, Severity::Warning);
  EXPECT_TRUE(hasNode(*found[0], m.id));
}

// The --emit-analysis flow surface: per-node facts ride on FlowResult and
// survive the JSON wire format losslessly.
TEST(AnalyzeTest, FlowEmitAnalysisRoundTrips) {
  GraphBuilder b("emit");
  Value a = b.input("a", 8);
  Value m = b.band(a, b.constant(0x0F, 8));
  b.output(m, "o");
  const workloads::Benchmark bm =
      workloads::benchmarkFromGraph(b.take(), "emit test");

  flow::FlowOptions opts;
  opts.emitAnalysis = true;
  opts.simplify = true;
  opts.solverTimeLimitSeconds = 5.0;
  const flow::FlowResult r = flow::runFlow(bm, flow::Method::MilpMap, opts);
  ASSERT_TRUE(r.success) << r.error;
  ASSERT_FALSE(r.analysis.empty());
  EXPECT_FALSE(r.simplifyMap.empty());

  flow::FlowResult back;
  std::string error;
  ASSERT_TRUE(flow::resultFromJson(flow::resultToJson(r), back, &error))
      << error;
  EXPECT_EQ(back.analysis, r.analysis);
  EXPECT_EQ(back.simplifyMap, r.simplifyMap);
  EXPECT_EQ(flow::resultToJson(back).dump(), flow::resultToJson(r).dump());
}

TEST(AnalyzeTest, PassRegistryCoversEveryDiagnosticCode) {
  std::string allCodes;
  for (const Pass& p : passRegistry()) {
    EXPECT_FALSE(std::string(p.name).empty());
    EXPECT_NE(p.run, nullptr);
    allCodes += p.codes;
    allCodes += ",";
  }
  for (const std::string_view code :
       {kCodeClockInfeasible, kCodeRecurrenceMii, kCodeResourceMii,
        kCodeUnmappableCone, kCodeDeadNode, kCodeUnusedInput, kCodeStructural,
        kCodeConstFoldable, kCodeNoSinks}) {
    EXPECT_NE(allCodes.find(code), std::string::npos)
        << code << " claimed by no pass";
  }
}

TEST(AnalyzeTest, DiagnosticJsonRoundTrips) {
  Diagnostic d;
  d.code = "LAMP002";
  d.severity = Severity::Warning;
  d.message = "a loop-carried recurrence requires II >= 4";
  d.nodes = {3, 7, 12};
  d.hint = "raise ii";

  const util::Json j = diagnosticToJson(d);
  const auto reparsed = util::Json::parse(j.dump());
  ASSERT_TRUE(reparsed.has_value());
  Diagnostic back;
  std::string error;
  ASSERT_TRUE(diagnosticFromJson(*reparsed, back, &error)) << error;
  EXPECT_EQ(back, d);

  // Hint omitted when empty, tolerated when absent.
  d.hint.clear();
  const util::Json noHint = diagnosticToJson(d);
  EXPECT_EQ(noHint.find("hint"), nullptr);
  ASSERT_TRUE(diagnosticFromJson(noHint, back, &error)) << error;
  EXPECT_EQ(back, d);

  // Shape violations are rejected, not silently defaulted.
  util::Json missingCode = util::Json::object();
  missingCode.set("severity", util::Json::string("error"));
  missingCode.set("message", util::Json::string("m"));
  EXPECT_FALSE(diagnosticFromJson(missingCode, back, &error));
  util::Json badSeverity = diagnosticToJson(d);
  badSeverity.set("severity", util::Json::string("fatal"));
  EXPECT_FALSE(diagnosticFromJson(badSeverity, back, &error));

  // List round trip.
  std::vector<Diagnostic> list = {d, d};
  list[1].code = "LAMP005";
  std::vector<Diagnostic> listBack;
  ASSERT_TRUE(diagnosticsFromJson(diagnosticsToJson(list), listBack, &error))
      << error;
  EXPECT_EQ(listBack, list);
}

// ---------------------------------------------------------------------------
// The flow-level gate: runFlow fails fast with diagnostics attached,
// and they survive the flow_json round trip.

TEST(AnalyzeTest, FlowGateFailsFastWithDiagnosticsAttached) {
  GraphBuilder b("gate");
  Value x = b.input("x", 8);
  Value y = b.input("y", 8);
  b.output(b.bxor(x, y, "slow"), "out");
  const workloads::Benchmark bm =
      workloads::benchmarkFromGraph(b.take(), "gate test");

  flow::FlowOptions opts;
  opts.tcpNs = 1.0;  // LAMP001 for the xor (1.2 ns LUT level)
  const flow::FlowResult r = flow::runFlow(bm, flow::Method::MilpMap, opts);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.status, lp::SolveStatus::Infeasible);
  EXPECT_NE(r.error.find("pre-solve analysis"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("LAMP001"), std::string::npos) << r.error;
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics[0].code, kCodeClockInfeasible);
  EXPECT_EQ(r.numVars, 0u) << "the solver must never have been built";

  // Diagnostics are part of the FlowResult wire format.
  flow::FlowResult back;
  std::string error;
  ASSERT_TRUE(flow::resultFromJson(flow::resultToJson(r), back, &error))
      << error;
  EXPECT_EQ(back.diagnostics, r.diagnostics);
  EXPECT_EQ(flow::resultToJson(back).dump(), flow::resultToJson(r).dump());
}

// ---------------------------------------------------------------------------
// LAMP017 — zero-mobility operations on the binding recurrence cycle.
// A lat-2 multiply on a dist-1 self-recurrence, pinned by an exact
// latency budget: the window collapses to a single start cycle.

TEST(AnalyzeTest, ZeroMobilityOnBindingCycleIsReported) {
  GraphBuilder b("pin");
  Value a = b.input("a", 8);
  Value st = b.placeholder(8, "st");
  Value m = b.mul(st.prev(1), a, 8, "m");
  b.bindPlaceholder(st, m);
  b.output(m, "out");

  AnalysisOptions opts;
  opts.ii = 2;
  opts.maxIi = 2;
  opts.mappingAware = false;
  opts.delays.dspMulNs = 20.0;  // lat 2 -> recMII = 2 = II: binding
  opts.maxLatency = 2;          // output at 2 pins the mul at cycle 0
  const AnalysisReport report = analyzeGraph(b.graph(), opts);
  const auto found = withCode(report, kCodeZeroMobility);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::Info);
  EXPECT_TRUE(hasNode(*found[0], m.id));
  EXPECT_FALSE(report.hasErrors());

  // One spare cycle of latency restores mobility: no finding.
  opts.maxLatency = 3;
  EXPECT_TRUE(withCode(analyzeGraph(b.graph(), opts), kCodeZeroMobility)
                  .empty());
}

// ---------------------------------------------------------------------------
// LAMP018 — implication/matching-proved II infeasibility with the
// conflicting resource clique. Two chained lat-2 loads pinned exactly
// two cycles apart by the latency budget land on the same modulo slot
// of the single memory port.

TEST(AnalyzeTest, ResourceConflictCliqueIsReported) {
  GraphBuilder b("clique");
  Value addr = b.input("addr", 10);
  Value l1 = b.load(ir::ResourceClass::MemPortA, addr, 10, "l1");
  Value l2 = b.load(ir::ResourceClass::MemPortA, l1, 10, "l2");
  b.output(l2, "out");

  AnalysisOptions opts;
  opts.ii = 2;
  opts.maxIi = 2;
  opts.mappingAware = false;
  opts.delays.memReadNs = 20.0;  // lat 2 at the 10 ns clock
  opts.resources[ir::ResourceClass::MemPortA] = 1;
  opts.maxLatency = 4;  // pins l1@0, l2@2: both want slot 0 mod 2
  const AnalysisReport strict = analyzeGraph(b.graph(), opts);
  ASSERT_TRUE(strict.hasErrors());
  auto found = withCode(strict, kCodeProbeInfeasible);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::Error);
  EXPECT_TRUE(hasNode(*found[0], l1.id)) << "clique names both loads";
  EXPECT_TRUE(hasNode(*found[0], l2.id));

  // Inside the retry window the conflict dissolves at a larger II
  // (slots 0 and 2 become distinct), so the same finding only warns.
  opts.maxIi = 9;
  const AnalysisReport lax = analyzeGraph(b.graph(), opts);
  found = withCode(lax, kCodeProbeInfeasible);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::Warning);
  EXPECT_FALSE(lax.hasErrors());

  // A second port (or a spare cycle of latency) clears it entirely.
  opts.resources[ir::ResourceClass::MemPortA] = 2;
  EXPECT_TRUE(withCode(analyzeGraph(b.graph(), opts), kCodeProbeInfeasible)
                  .empty());
}

// ---------------------------------------------------------------------------
// LAMP019 — symmetry orbits over interchangeable operations. A balanced
// xor reduction tree: sibling subtrees are cone-isomorphic, so their
// roots form verified swap orbits.

TEST(AnalyzeTest, SymmetryOrbitsAreReported) {
  GraphBuilder b("tree");
  std::vector<Value> leaves;
  leaves.reserve(8);
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(b.input(("i" + std::to_string(i)).c_str(), 8));
  }
  std::vector<Value> level;
  for (int i = 0; i < 8; i += 2) {
    level.push_back(b.bxor(leaves[i], leaves[i + 1],
                           ("a" + std::to_string(i / 2)).c_str()));
  }
  Value m0 = b.bxor(level[0], level[1], "m0");
  Value m1 = b.bxor(level[2], level[3], "m1");
  b.output(b.bxor(m0, m1, "root"), "out");

  AnalysisOptions opts;
  opts.mappingAware = false;
  const AnalysisReport report = analyzeGraph(b.graph(), opts);
  const auto found = withCode(report, kCodeSymmetryOrbits);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::Info);
  // The sibling pairs under shared parents are interchangeable; the
  // second-level roots m0/m1 swap as whole subtrees.
  EXPECT_TRUE(hasNode(*found[0], m0.id));
  EXPECT_TRUE(hasNode(*found[0], m1.id));
  EXPECT_GE(found[0]->nodes.size(), 4u);
  EXPECT_FALSE(report.hasErrors());
}

// ---------------------------------------------------------------------------
// LAMP020 — empty chaining-tightened mobility windows. The same load
// chain needs five start cycles end to end; a latency budget of three
// leaves no legal assignment, and no larger II can help (latency-driven
// emptiness is II-independent), so this is an Error even with retries.

TEST(AnalyzeTest, EmptyWindowsUnderLatencyBudgetAreReported) {
  GraphBuilder b("empty");
  Value addr = b.input("addr", 10);
  Value l1 = b.load(ir::ResourceClass::MemPortA, addr, 10, "l1");
  Value l2 = b.load(ir::ResourceClass::MemPortA, l1, 10, "l2");
  b.output(l2, "out");

  AnalysisOptions opts;
  opts.ii = 2;
  opts.maxIi = 9;
  opts.mappingAware = false;
  opts.delays.memReadNs = 20.0;
  opts.maxLatency = 3;
  const AnalysisReport report = analyzeGraph(b.graph(), opts);
  ASSERT_TRUE(report.hasErrors());
  const auto found = withCode(report, kCodeEmptyWindow);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->severity, Severity::Error);
  EXPECT_FALSE(found[0]->nodes.empty());

  // A feasible budget clears it.
  opts.maxLatency = 5;
  EXPECT_TRUE(withCode(analyzeGraph(b.graph(), opts), kCodeEmptyWindow)
                  .empty());
}

}  // namespace
}  // namespace lamp::analyze
