#ifndef LAMP_ANALYZE_ANALYZE_H
#define LAMP_ANALYZE_ANALYZE_H

/// \file analyze.h
/// Pre-solve static analysis over CDFGs: a registry of cheap passes that
/// predict, in microseconds, whether the MILP of Eqs. 2-15 can possibly
/// succeed — and explain why not in structured form (diagnostics.h).
///
/// The passes check necessary conditions only: a clean report never
/// guarantees the solver succeeds, but an Error-severity finding proves
/// it cannot (at the requested clock/II), so callers — flow::runFlow and
/// the lampd service — fail fast instead of burning a solver deadline.
///
///  - structure:   ir::verifyAll violations (LAMP007) + missing sinks
///                 (LAMP009). Structural errors gate all later passes.
///  - clock:       nodes whose indivisible fabric delay (one LUT level,
///                 a carry chain) exceeds tcpNs; Eq. 8 has no solution
///                 for them. Black boxes are exempt: their multi-cycle
///                 latency is modeled by latencyCycles(). (LAMP001)
///  - recurrence:  recMII = min II admitted by every loop-carried cycle
///                 (Eq. 7 summed around a cycle gives
///                 II >= ceil(sum lat / sum dist)); found by binary
///                 search over Bellman-Ford positive-cycle detection,
///                 reporting the binding cycle. (LAMP002)
///  - resources:   resMII = ceil(#ops / limit) per resource class,
///                 Eq. 14's pigeonhole bound. (LAMP003)
///  - cones:       output bits with more than K *unabsorbable* dependence
///                 bits (inputs, black boxes, loop-carried operands) can
///                 never sit in a K-feasible cut, so MILP-map's cut cover
///                 (Eq. 4) is unsatisfiable for them. (LAMP004)
///  - liveness:    dead nodes / unused inputs. (LAMP005, LAMP006)
///  - fold:        constant islands a front-end should have folded.
///                 (LAMP008)
///  - dataflow:    bit-level findings from the known-bits/range/demanded
///                 fixpoint (dataflow.h): output bits provably zero
///                 (LAMP010), truncations that always drop set bits
///                 (LAMP011), comparisons with a proven constant result
///                 (LAMP012), and mux arms no select value reaches
///                 (LAMP013).
///  - schedspace:  schedule-space analysis (schedspace.h): zero-mobility
///                 ops on a binding recurrence cycle (LAMP017), probing
///                 conflicts proving an II infeasible with the clashing
///                 resource clique (LAMP018), symmetry orbits (LAMP019),
///                 and chaining-tightened windows that are empty
///                 (LAMP020).

#include <span>
#include <string>
#include <vector>

#include "analyze/diagnostics.h"
#include "ir/graph.h"
#include "sched/delay_model.h"
#include "sched/schedule.h"

namespace lamp::analyze {

struct AnalysisOptions {
  /// Requested initiation interval.
  int ii = 1;
  /// Largest II the caller is prepared to fall back to. flow::runFlow
  /// retries II..II+8, so MII bounds inside (ii, maxIi] are Warnings
  /// (the flow will bump II) while bounds above maxIi are Errors.
  int maxIi = 1;
  /// Target clock period (ns).
  double tcpNs = 10.0;
  /// Cut input cap K for the cone-sanity pass.
  int k = 4;
  /// True when the flow will run mapping-aware (MilpMap): unmappable
  /// cones are then Errors; otherwise they only warn.
  bool mappingAware = true;
  sched::DelayModel delays;
  sched::ResourceLimits resources;
  /// Master switch for the schedspace pass (LAMP017-LAMP020). On by
  /// default; `lampc --no-schedspace` turns it off.
  bool schedSpace = true;
  /// Wall-clock budget (ms) for implication probing inside the
  /// schedspace pass; exceeded budgets yield sound partial results
  /// (lampc/lamp-lint --analyze-budget-ms).
  int analyzeBudgetMs = 50;
  /// Hard pipeline-latency bound (cycles) for the schedspace pass.
  /// <= 0 derives the bound from the SDC schedule plus one cycle of
  /// margin, mirroring flow::runFlow's default latencyMargin; a
  /// positive value pins the analysis to a user-imposed latency budget
  /// (lamp-lint --max-latency), which is where zero-mobility (LAMP017)
  /// and empty-window (LAMP020) findings actually bite.
  int maxLatency = 0;
};

struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  /// Recurrence-bound minimum II (1 when no loop-carried cycle binds).
  int recMii = 1;
  /// Resource-bound minimum II.
  int resMii = 1;
  /// False when ir::verifyAll found violations; later passes are then
  /// skipped (their preconditions do not hold on a malformed graph).
  bool structurallyValid = true;

  bool hasErrors() const;
  std::size_t count(Severity s) const;
};

/// One registered pass. `codes` lists the diagnostic codes it may emit.
struct Pass {
  std::string_view name;
  std::string_view codes;
  std::string_view summary;
  void (*run)(const ir::Graph& g, const AnalysisOptions& opts,
              AnalysisReport& report);
};

/// The registry, in execution order. The "structure" pass always runs
/// first; the rest are skipped when it invalidates the graph.
std::span<const Pass> passRegistry();

/// Runs every applicable pass and returns the combined report.
AnalysisReport analyzeGraph(const ir::Graph& g, const AnalysisOptions& opts);

/// The recurrence bound alone: minimum II admitted by every loop-carried
/// cycle under `dm`/`tcpNs` latencies, plus the node list of a binding
/// cycle (empty when recMii == 1). Exposed for tests and tools; equals
/// the recMII the "recurrence" pass reports.
struct Recurrence {
  int recMii = 1;
  std::vector<ir::NodeId> cycle;
};
Recurrence recurrenceMii(const ir::Graph& g, const sched::DelayModel& dm,
                         double tcpNs);

/// The resource bound alone: max over classes of ceil(#ops / limit).
int resourceMii(const ir::Graph& g, const sched::ResourceLimits& limits);

/// "; "-joined messages of all Error diagnostics ("" when none).
std::string summarizeErrors(const AnalysisReport& report);

/// Multi-line human-readable report (used by lamp-lint).
std::string renderReport(const ir::Graph& g, const AnalysisReport& report);

/// Machine-readable report (lamp-lint --json):
/// {"graph":..., "nodes":..., "recMii":..., "resMii":..., "errors":N,
///  "warnings":N, "infos":N, "diagnostics":[...]}
util::Json reportToJson(const ir::Graph& g, const AnalysisReport& report);

}  // namespace lamp::analyze

#endif  // LAMP_ANALYZE_ANALYZE_H
