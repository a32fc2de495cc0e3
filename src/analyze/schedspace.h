#ifndef LAMP_ANALYZE_SCHEDSPACE_H
#define LAMP_ANALYZE_SCHEDSPACE_H

/// \file schedspace.h
/// Pre-solve schedule-space analysis: everything about the MILP's
/// feasible region that follows from the CDFG alone, computed per
/// candidate II before any solver runs (see DESIGN.md §14).
///
///  - mobility windows: ASAP/ALAP per node over the modulo constraint
///    graph (the same Bellman-Ford relaxation sched::computeWindows
///    runs), tightened by chaining-aware longest paths in the ns domain:
///    along any dependence path the model forces
///    T_v >= T_u + lat_u*Tcp + rem_u - II*dist*Tcp (T = S*Tcp + L), and
///    T_v <= S_v*Tcp + (Tcp - rem_v), so accumulated intra-cycle delay
///    quantizes into extra whole cycles integer latencies never see.
///    The rem_u charge is sound only where the formulation always emits
///    it — the mapping-agnostic arm, where the cut-cover rows force
///    every live node to be a root; the mapping-aware arm absorbs
///    combinational chains into cones, so it only gets the latency part
///    (SchedSpaceOptions::mappingAware).
///  - implication probing: fix one binary time assignment s_{v,t} = 1,
///    re-propagate the difference system, and test the modulo resource
///    constraint by bipartite matching (ops x slots with capacities,
///    Hall's condition) over the implied windows. A failed probe bans
///    (v, t) — the variable is never created; a node with every start
///    cycle banned proves the II infeasible, with the conflicting
///    resource clique extracted from the failed matching.
///  - symmetry orbits: verified swap-automorphisms. Candidates are
///    found by a structural hash over fanin cones and each is confirmed
///    by an explicit cone-isomorphism check (injective node map forming
///    disjoint transpositions, literal loop-carried edges, matching
///    consumer-edge multisets), so a hash collision can only lose an
///    orbit, never fabricate one. Any feasible schedule can permute an
///    orbit's start cycles, so lexicographic ordering rows keep exactly
///    one representative per permutation class at unchanged cost.
///
/// Everything computed here is a *pure reduction* of the MILP: at least
/// one optimal solution survives, so optimal II and objective are
/// unchanged (tests/schedspace_test.cpp asserts this on all nine
/// benchmarks). Probing is budgeted; partial results are sound because
/// every individual deduction is.

#include <string>
#include <utility>
#include <vector>

#include "ir/graph.h"
#include "sched/milp_sched.h"
#include "sched/schedule.h"

namespace lamp::analyze {

struct SchedSpaceOptions {
  /// Candidate initiation interval the analysis targets.
  int ii = 1;
  /// Target clock period (ns).
  double tcpNs = 10.0;
  /// Hard pipeline-latency bound (cycles), mirroring
  /// sched::MilpSchedOptions::maxLatency.
  int maxLatency = 16;
  /// True for the mapping-aware arm: combinational remainders can be
  /// absorbed into LUT cones, so the ns-domain tightening only charges
  /// black-box latencies (see file comment).
  bool mappingAware = false;
  sched::ResourceLimits resources;
  /// Wall-clock budget for implication probing in milliseconds; probing
  /// stops at the deadline with SchedSpace::probeComplete = false
  /// (partial results stay sound). <= 0 disables probing.
  int probeBudgetMs = 50;
  /// Master switches for the two optional phases.
  bool probe = true;
  bool symmetry = true;
};

/// One orbit of interchangeable operations, members sorted by NodeId.
struct SymmetryOrbit {
  std::vector<ir::NodeId> members;
};

struct SchedSpace {
  /// False when the analysis *proved* no schedule exists at this
  /// II/latency bound; `infeasibleReason` says why and either
  /// `emptyWindow` or `conflictClique` carries the witness nodes.
  bool feasible = true;
  std::string infeasibleReason;

  /// Tightened windows (graph-sized; meaningful for schedulable nodes).
  std::vector<int> asap;
  std::vector<int> alap;
  /// Nodes whose tightened window is empty (feasible == false then).
  std::vector<ir::NodeId> emptyWindow;

  /// Probed-out (node, cycle) start assignments inside the windows.
  std::vector<std::pair<ir::NodeId, int>> forbidden;
  /// False when the probing budget expired before every candidate
  /// assignment was probed.
  bool probeComplete = true;
  /// Number of individual (node, cycle) probes run.
  int probesRun = 0;
  /// When probing (or the static resource matching) proved the II
  /// infeasible: the mutually conflicting operations of one resource
  /// class (every member needs a modulo slot the class cannot supply).
  std::vector<ir::NodeId> conflictClique;

  /// Schedulable non-input nodes with a single legal start cycle.
  std::vector<ir::NodeId> zeroMobility;

  /// Transitive liveness: fanin closure of Output/Store sinks over
  /// operand edges of any distance (graph-sized). Feeds the MILP's
  /// forced-root substitution (see sched::ScheduleSpaceHints::live).
  std::vector<char> live;

  /// Verified symmetry orbits (size >= 2 each).
  std::vector<SymmetryOrbit> orbits;

  /// Per-node branching priority derived from resource membership and
  /// mobility (graph-sized; see lp::MilpOptions::branchPriority).
  std::vector<double> branchPriority;

  /// Packages the facts for sched::milpSchedule. The returned object is
  /// self-contained (copies, no references into *this).
  sched::ScheduleSpaceHints toHints() const;
};

/// Runs the analysis. Never throws; a graph with no schedulable nodes
/// yields a trivially feasible result.
SchedSpace computeSchedSpace(const ir::Graph& g, const sched::DelayModel& dm,
                             const SchedSpaceOptions& opts);

}  // namespace lamp::analyze

#endif  // LAMP_ANALYZE_SCHEDSPACE_H
