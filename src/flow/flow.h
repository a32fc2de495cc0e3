#ifndef LAMP_FLOW_FLOW_H
#define LAMP_FLOW_FLOW_H

/// \file flow.h
/// End-to-end experimental flows, one per Table 1 row group:
///
///  - HLS Tool   : SDC heuristic modulo scheduling (additive delays),
///  - MILP-base  : exact MILP over trivial cuts (mapping-agnostic),
///  - MILP-map   : exact MILP over enumerated cuts (mapping-aware),
///
/// each followed by the same downstream evaluator (per-stage remapping,
/// FF counting, achieved CP) and, optionally, functional verification of
/// the schedule against the untimed interpreter.

#include <iosfwd>
#include <optional>
#include <string>

#include "analyze/analyze.h"
#include "analyze/dataflow.h"
#include "cut/cut.h"
#include "map/area.h"
#include "sched/milp_sched.h"
#include "sched/sdc.h"
#include "workloads/workloads.h"

namespace lamp::flow {

enum class Method { HlsTool, MilpBase, MilpMap };

std::string_view methodName(Method m);

/// Short machine token ("hls" | "base" | "map") used by the CLI, the
/// service protocol and cache keys.
std::string_view methodToken(Method m);

/// Parses a methodToken() string; returns false on unknown input.
bool parseMethodToken(std::string_view token, Method& out);

struct FlowOptions {
  int ii = 1;
  double tcpNs = 10.0;
  double alpha = 0.5;
  double beta = 0.5;
  /// Wall-clock cap for the MILP solver (the paper used 60 minutes; the
  /// default here keeps the full Table 1 run laptop-scale).
  double solverTimeLimitSeconds = 20.0;
  /// Extra pipeline-latency slack on top of the SDC schedule's latency.
  int latencyMargin = 1;
  cut::CutEnumOptions cuts;
  /// Race every cut-ranking strategy for the mapping-aware arm: one
  /// enumeration per strategy and flow; at each II the database whose
  /// greedy mapping-aware start costs least (alpha * LUTs + beta *
  /// register bits) wins (Mapping-Fusion style). Ties keep the earliest
  /// strategy in cut::allCutStrategies() order — DepthAware first — so
  /// racing never changes a result unless another strategy strictly
  /// wins. The winner is reported in FlowResult::cutStrategy.
  bool raceCutStrategies = false;
  sched::DelayModel delays;
  /// Verify each schedule functionally against the interpreter using
  /// this many random input frames (0 disables).
  int verifyFrames = 8;
  std::uint32_t verifySeed = 1;
  /// Branch & bound worker threads per MILP solve
  /// (lp::MilpOptions::threads; 0 = auto). Defaults to serial so
  /// experiment flows stay reproducible run to run; lampc --threads and
  /// the LAMP_THREADS bench knob opt in to the parallel solver.
  int solverThreads = 1;
  /// Optional externally supplied incumbent for the MILP arms — the
  /// lampd solution cache passes a previously solved schedule of the
  /// same graph here (near-miss reuse: same instance at a looser clock
  /// target or a different solver time limit). The schedule must index
  /// this graph's nodes and is only adopted when it validates against
  /// the request's constraints and beats the heuristic warm start; its
  /// selectedCut entries are interpreted against the cut database the
  /// chosen method enumerates (deterministic, so indices from an earlier
  /// identical enumeration stay valid). Must outlive the runFlow call.
  const sched::Schedule* warmStartHint = nullptr;
  /// Rewrite the graph with analysis-proven simplifications before
  /// scheduling (constant cones folded, identity ops forwarded,
  /// provably-narrow arithmetic narrowed). The rewrite is checked
  /// against the original by differential simulation; a divergence
  /// fails the flow instead of scheduling a wrong graph. The result's
  /// schedule then indexes FlowResult::simplifiedGraph, not the input
  /// benchmark's graph.
  bool simplify = false;
  /// Attach the per-node bit-level dataflow summary (known bits, range,
  /// demanded bits) of the scheduled graph to FlowResult::analysis.
  bool emitAnalysis = false;
  /// Certified scheduling (MILP arms only): the solver writes a
  /// lampproof derivation log and an independent exact-rational checker
  /// (certify::checkProof) replays every bound derivation, the branching
  /// tree cover, and the incumbent before the result is trusted. The
  /// outcome rides FlowResult::certificate; a rejected or unsupported
  /// certificate raises LAMP014-LAMP016 diagnostics but does not flip
  /// `success` (the float schedule is still returned — the certificate
  /// states exactly how far it can be trusted). Forces a deterministic
  /// serial solve for the MILP (see lp::MilpOptions::proofLog).
  bool certify = false;
  /// Schedule-space analysis (analyze/schedspace.h) ahead of the MILP
  /// arms: chaining-tightened mobility windows, probed-out assignments
  /// and symmetry-orbit ordering rows shrink the model (variables never
  /// created, fixings, lexicographic rows) without changing the optimal
  /// II or objective; an analysis-proved infeasible II is skipped
  /// without building a model. Part of the service cache key.
  bool schedSpace = true;
  /// Wall-clock budget (ms) for implication probing per candidate II;
  /// exceeded budgets keep the (sound) partial results. Part of the
  /// service cache key — it changes the formulation.
  int analyzeBudgetMs = 50;
};

/// Wall-clock seconds per flow phase. Gate, dataflow, simplify and cut
/// enumeration run once per flow; the per-II stages accumulate across
/// the II retry window (a retried phase counts every attempt).
struct PhaseSeconds {
  double analyze = 0.0;   ///< pre-solve gate + per-II schedule space
  double dataflow = 0.0;  ///< bit-level dataflow fixpoint
  double simplify = 0.0;  ///< graph rewrite + differential check
  double cutEnum = 0.0;   ///< cut databases + per-II strategy race
  double milpBuild = 0.0; ///< MILP model construction
  double milpSolve = 0.0; ///< branch & bound
  double validate = 0.0;  ///< schedule validation
  double verify = 0.0;    ///< functional verification vs the interpreter
};

/// Outcome of the exact-arithmetic certificate check (FlowOptions::
/// certify). `ran` is false when certification was not requested or the
/// method has no proof (the heuristic arm). `status` is the checker's
/// verdict: "verified", "rejected", or "unsupported-claim" (the solver
/// produced nothing certifiable — claim "none", or no proof at all).
/// `claim` echoes the solver's claim line ("optimal", "infeasible",
/// "feasible", "none"); a verified "feasible" claim is an incumbent-only
/// certificate — exact feasibility and objective, no optimality (see
/// certify.h). `proof` is the full lampproof text so callers can
/// re-check it offline with lamp-certify.
struct FlowCertificate {
  bool ran = false;
  bool verified = false;
  std::string status;
  std::string detail;
  std::string claim;
  std::int64_t treeNodes = 0;
  std::int64_t checkerMillis = 0;
  std::string proof;
};

struct FlowResult {
  bool success = false;
  /// Accumulated diagnostics, "; "-separated: downstream failures
  /// (validation, functional verification) append to — never overwrite —
  /// earlier solver diagnostics, and the schedule that triggered them
  /// stays populated so callers can surface both.
  std::string error;
  Method method = Method::HlsTool;

  sched::Schedule schedule;
  map::AreaReport area;

  // Solver statistics (zero for the heuristic flow).
  lp::SolveStatus status = lp::SolveStatus::Optimal;
  /// Per-phase timing breakdown (rides the JSON serializers, so cached
  /// daemon hits replay it unchanged).
  PhaseSeconds phases;
  std::int64_t branchNodes = 0;
  std::size_t numVars = 0;
  std::size_t numConstraints = 0;
  std::size_t numCuts = 0;
  double objective = 0.0;

  /// Bounded B&B convergence telemetry of the solve that produced the
  /// returned schedule (the final II attempt; empty for the heuristic
  /// flow). Rides the JSON serializers for tools/lamp-conv.
  std::vector<lp::ConvergenceEvent> convergence;
  std::int64_t convergenceDropped = 0;

  bool functionallyVerified = false;

  /// Cut-ranking strategy whose database produced this result: the
  /// racing winner under FlowOptions::raceCutStrategies, otherwise the
  /// configured CutEnumOptions::strategy (only meaningful for the
  /// mapping-aware arm; the additive arms use unit cuts).
  cut::CutStrategy cutStrategy = cut::CutStrategy::DepthAware;

  /// Findings of the pre-solve static analysis (analyze::analyzeGraph),
  /// always populated — Warnings/Infos on successful runs too. When the
  /// analysis proves the request infeasible, `success` is false, `error`
  /// summarizes the Error findings, and the solver never ran.
  std::vector<analyze::Diagnostic> diagnostics;

  /// Per-node dataflow summary of the scheduled graph
  /// (FlowOptions::emitAnalysis; empty otherwise).
  std::vector<analyze::NodeBits> analysis;

  /// Exact-arithmetic certificate of the MILP solve
  /// (FlowOptions::certify; `ran` false otherwise). Rides the JSON
  /// serializers, so cached daemon hits replay it unchanged.
  FlowCertificate certificate;

  /// When FlowOptions::simplify rewrote the graph, the rewritten graph
  /// that `schedule` and `area` index (empty when simplification was
  /// off), and the original-to-rewritten node map (ir::kNoNode for
  /// nodes folded away). The rewrite is deterministic, so re-running
  /// ir::simplify over the same input reproduces it.
  ir::Graph simplifiedGraph;
  std::vector<ir::NodeId> simplifyMap;

  /// The graph `schedule` refers to: `original` unless simplification
  /// rewrote it. Pass the benchmark graph the flow ran on.
  const ir::Graph& scheduleGraph(const ir::Graph& original) const {
    return simplifiedGraph.size() > 0 ? simplifiedGraph : original;
  }
};

/// The analysis configuration runFlow() gates on, exposed so other
/// admission points (the lampd service) apply the *same* gate and never
/// disagree with the flow about feasibility: requested II with the
/// retry window (+8) as slack, the method's mapping-awareness, and the
/// benchmark's resource limits.
analyze::AnalysisOptions analysisOptions(const workloads::Benchmark& bm,
                                         Method method,
                                         const FlowOptions& opts);

/// Runs one method on one benchmark. If the requested II is infeasible
/// the flow retries with II+1 (up to 8x), like production schedulers do.
FlowResult runFlow(const workloads::Benchmark& bm, Method method,
                   const FlowOptions& opts = {});

/// Writes the MILP runFlow() solves for a MILP arm at `ii` in CPLEX LP
/// format (lampc --emit-lp): the same stages assemble it, so it carries
/// the same cuts, schedule-space reductions and warm-start ordering.
/// Returns why no model exists (the heuristic arm, a gate or baseline
/// failure, an analysis-proved infeasible II), or nullopt once written.
std::optional<std::string> writeMilpModel(std::ostream& os,
                                          const workloads::Benchmark& bm,
                                          Method method,
                                          const FlowOptions& opts, int ii);

/// All three methods on one benchmark: three independent runFlow() calls
/// with the same options.
struct BenchmarkResults {
  FlowResult hls;
  FlowResult milpBase;
  FlowResult milpMap;
};

BenchmarkResults runAllMethods(const workloads::Benchmark& bm,
                               const FlowOptions& opts = {});

/// One (benchmark, method) unit for the concurrent experiment harness.
/// The benchmark must outlive the runFlowJobs call.
struct FlowJob {
  const workloads::Benchmark* benchmark = nullptr;
  Method method = Method::HlsTool;
};

/// Runs independent flow jobs on a util::ThreadPool (`workers <= 0`
/// selects one per hardware thread, capped). Results return in input
/// order. Jobs share nothing, so any interleaving gives the same results
/// as the serial loop. When more than one worker runs, each job's solver
/// is forced to solverThreads == 1: the job-level parallelism already
/// saturates the machine, and nested solver threads would oversubscribe.
std::vector<FlowResult> runFlowJobs(const std::vector<FlowJob>& jobs,
                                    const FlowOptions& opts = {},
                                    int workers = 0);

}  // namespace lamp::flow

#endif  // LAMP_FLOW_FLOW_H
