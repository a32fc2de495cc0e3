#include "replay.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "analyze/analyze.h"
#include "analyze/dataflow.h"
#include "analyze/schedspace.h"
#include "flow/flow_json.h"
#include "ir/hash.h"
#include "map/area.h"
#include "sched/sdc.h"
#include "sched/greedy.h"
#include "sim/interp.h"
#include "sim/pipeline_sim.h"
#include "svc/proto.h"
#include "svc/service.h"
#include "util/timer.h"

namespace lampbench {

using lamp::flow::FlowOptions;
using lamp::flow::FlowResult;
using lamp::flow::Method;
using lamp::lp::SolveStatus;
using lamp::workloads::Benchmark;
namespace analyze = lamp::analyze;
namespace cut = lamp::cut;
namespace flow = lamp::flow;
namespace ir = lamp::ir;
namespace map = lamp::map;
namespace sched = lamp::sched;
namespace sim = lamp::sim;
namespace svc = lamp::svc;

Exact exactOf(const FlowResult& r) {
  Exact e;
  e.cuts = static_cast<std::int64_t>(r.numCuts);
  e.vars = static_cast<std::int64_t>(r.numVars);
  e.rows = static_cast<std::int64_t>(r.numConstraints);
  e.nodes = r.branchNodes;
  e.objective = r.objective;
  e.ii = r.schedule.ii;
  return e;
}

void LayerStats::addSolve(const sched::MilpSchedResult& r) {
  ++solves;
  if (r.status == SolveStatus::Optimal) ++optimalSolves;
  nodes += r.branchNodes;
  pruned += r.prunedNodes;
  simplexIters += r.simplexIterations;
  dualPivots += r.dualPivots;
  coldSolves += r.coldSolves;
  vars += static_cast<std::int64_t>(r.numVars);
  rows += static_cast<std::int64_t>(r.numConstraints);
  bool rootSeen = false;
  double lastIncumbent = 0.0;
  for (const lamp::lp::ConvergenceEvent& ev : r.convergence) {
    if (ev.kind == "bound" && !rootSeen) {
      rootSeconds += ev.tSeconds;
      rootSeen = true;
    }
    if (ev.kind == "incumbent") lastIncumbent = ev.tSeconds;
  }
  bestSeconds += lastIncumbent;
  if (r.success && r.status != SolveStatus::Optimal) {
    gapSum += std::max(0.0, r.objective - r.bestBound) /
              std::max(1e-9, std::abs(r.objective));
  }
}

namespace {

/// Everything runFlowAtIi builds ahead of sched::milpSchedule for one
/// II: the cut databases, the SDC baseline, the schedule-space hints and
/// the warm start, wired into `options`. Not movable: `options` points
/// into the members.
struct MilpInput {
  MilpInput() = default;
  MilpInput(const MilpInput&) = delete;
  MilpInput& operator=(const MilpInput&) = delete;

  /// Bit-level facts of the graph; `dbFacts` points here for the
  /// mapping-aware arm (its cuts are masked by them) and is null
  /// otherwise, as in runFlowAtIi.
  lamp::ir::BitFacts facts;
  const lamp::ir::BitFacts* dbFacts = nullptr;
  lamp::cut::CutDatabase db;
  lamp::cut::CutDatabase trivial;
  lamp::sched::SdcResult sdc;
  lamp::sched::SdcResult greedy;
  bool baselineIsGreedy = false;
  lamp::sched::ScheduleSpaceHints hints;
  lamp::sched::MilpSchedOptions options;
  /// Set when the attempt failed before a model could be built.
  std::string error;
  lamp::lp::SolveStatus failStatus = lamp::lp::SolveStatus::Optimal;
};

/// Times sched::milpSchedule as a "sched.build" span followed by an
/// "lp.solve" span (split by the result's own solveSeconds).
sched::MilpSchedResult solveTraced(Spans* spans, LayerStats& stats,
                                   const ir::Graph& g, const MilpInput& in,
                                   const sched::DelayModel& dm) {
  const double t0 = spans != nullptr ? spans->now() : 0.0;
  sched::MilpSchedResult r = sched::milpSchedule(g, in.db, dm, in.options);
  if (spans != nullptr) {
    const double t1 = spans->now();
    const double split = std::max(t0, t1 - r.solveSeconds);
    spans->add("sched.build", "sched::milpSchedule", t0, split);
    spans->add("lp.solve", "lp::MilpSolver::solve", split, t1);
  }
  stats.addSolve(r);
  return r;
}

/// Runs the pipeline simulator and the untimed interpreter on seed-drawn
/// frames; true when their outputs match.
bool verifyPipeline(const Benchmark& bm, const sched::Schedule& s,
                    const cut::CutDatabase& db, const sched::DelayModel& dm,
                    int frames, std::uint32_t seed) {
  if (frames <= 0) return true;
  std::vector<sim::InputFrame> in;
  for (int k = 0; k < frames; ++k) in.push_back(bm.makeInputs(k, seed));
  sim::Interpreter interp(bm.graph);
  if (bm.initMemory) bm.initMemory(interp.memory());
  const auto golden = interp.run(in);
  sim::Memory pipeMem;
  if (bm.initMemory) bm.initMemory(pipeMem);
  const auto run = sim::runPipeline(bm.graph, s, dm, in, &pipeMem, &db);
  return run.ok && run.outputs == golden;
}

void appendError(std::string& error, const std::string& msg) {
  error += error.empty() ? msg : "; " + msg;
}

/// alpha * LUT cost + beta * register bits of a schedule (runFlowAtIi's
/// warm-start ranking).
double scheduleCost(const Benchmark& bm, const sched::Schedule& s,
                    const cut::CutDatabase& cuts, const FlowOptions& opts) {
  double lutCost = 0.0;
  for (ir::NodeId v = 0; v < bm.graph.size(); ++v) {
    if (s.isRoot(v)) lutCost += cuts.at(v).cuts[s.selectedCut[v]].lutCost;
  }
  return opts.alpha * lutCost +
         opts.beta * map::countRegisterBits(bm.graph, s, opts.delays);
}

bool validates(const Benchmark& bm, const MilpInput& in,
               const FlowOptions& opts, const sched::Schedule& s) {
  return sched::validateSchedule(
             {bm.graph, in.db, opts.delays, bm.resources, in.dbFacts}, s) ==
         std::nullopt;
}

/// runFlow's pre-solve gate and dataflow pass; false when the gate
/// reports errors.
bool frontEnd(Spans* spans, const Benchmark& bm, Method method,
              const FlowOptions& opts, ir::BitFacts& facts,
              std::string* error) {
  const analyze::AnalysisReport report =
      timed(spans, "analyze.gate", "analyze::analyzeGraph", [&] {
        return analyze::analyzeGraph(bm.graph,
                                     flow::analysisOptions(bm, method, opts));
      });
  if (report.hasErrors()) {
    *error = "pre-solve analysis: " + analyze::summarizeErrors(report);
    return false;
  }
  facts = timed(spans, "analyze.dataflow", "analyze::analyzeDataflow", [&] {
    return analyze::toBitFacts(analyze::analyzeDataflow(bm.graph));
  });
  return true;
}

/// runFlowAtIi up to (not including) sched::milpSchedule.
std::unique_ptr<MilpInput> attemptAtIi(Spans* spans, LayerStats& stats,
                                       const Benchmark& bm, Method method,
                                       const FlowOptions& opts, int ii,
                                       const ir::BitFacts& facts) {
  auto in = std::make_unique<MilpInput>();
  const bool mapAware = method == Method::MilpMap;
  in->facts = facts;
  in->dbFacts = mapAware ? &in->facts : nullptr;
  cut::CutEnumOptions baseCuts = opts.cuts;
  baseCuts.facts = nullptr;
  cut::CutEnumOptions mapCuts = baseCuts;
  mapCuts.facts = &in->facts;

  timed(spans, "cut.enum",
        mapAware ? "cut::enumerateCuts" : "cut::trivialCuts", [&] {
          if (mapAware) {
            in->db = cut::enumerateCuts(bm.graph, mapCuts);
            in->trivial = cut::trivialCuts(bm.graph, baseCuts);
          } else {
            in->db = cut::trivialCuts(bm.graph, baseCuts);
            in->trivial = in->db;
          }
        });
  stats.cuts += static_cast<std::int64_t>(in->db.totalCuts);

  sched::SdcOptions sdcOpts;
  sdcOpts.ii = ii;
  sdcOpts.tcpNs = opts.tcpNs;
  sdcOpts.resources = bm.resources;
  in->sdc = timed(spans, "sched.sdc", "sched::sdcSchedule", [&] {
    return sched::sdcSchedule(bm.graph, in->trivial, opts.delays, sdcOpts);
  });
  if (!in->sdc.success && mapAware) {
    timed(spans, "sched.greedy", "sched::greedyMapSchedule", [&] {
      in->sdc = sched::greedyMapSchedule(bm.graph, in->db, opts.delays,
                                         sdcOpts);
      if (in->sdc.success && !validates(bm, *in, opts, in->sdc.schedule)) {
        in->sdc.success = false;
      }
    });
    in->baselineIsGreedy = in->sdc.success;
  }
  if (!in->sdc.success) {
    in->error = "baseline scheduling failed: " + in->sdc.error;
    return in;
  }
  if (method == Method::HlsTool) return in;

  sched::MilpSchedOptions& mo = in->options;
  mo.ii = in->sdc.schedule.ii;
  mo.tcpNs = opts.tcpNs;
  mo.alpha = opts.alpha;
  mo.beta = opts.beta;
  mo.maxLatency = in->sdc.schedule.latency(bm.graph) + opts.latencyMargin;
  mo.resources = bm.resources;
  mo.solver.timeLimitSeconds = opts.solverTimeLimitSeconds;
  mo.solver.threads = opts.solverThreads;
  mo.warmStart = &in->sdc.schedule;
  mo.warmStartSelectsCuts = in->baselineIsGreedy;

  if (opts.schedSpace) {
    const bool feasible =
        timed(spans, "analyze.schedspace", "analyze::computeSchedSpace", [&] {
          analyze::SchedSpaceOptions sso;
          sso.ii = mo.ii;
          sso.tcpNs = opts.tcpNs;
          sso.maxLatency = mo.maxLatency;
          sso.mappingAware = mapAware;
          sso.resources = bm.resources;
          sso.probeBudgetMs = opts.analyzeBudgetMs;
          const lamp::util::Stopwatch watch;
          const analyze::SchedSpace space =
              analyze::computeSchedSpace(bm.graph, opts.delays, sso);
          ++stats.schedSpaceCalls;
          stats.schedSpaceMaxSeconds =
              std::max(stats.schedSpaceMaxSeconds, watch.seconds());
          stats.forbidden += static_cast<std::int64_t>(space.forbidden.size());
          if (!space.probeComplete) ++stats.probesIncomplete;
          if (!space.feasible) {
            in->error = "schedule-space analysis: " + space.infeasibleReason;
            return false;
          }
          in->hints = space.toHints();
          return true;
        });
    if (!feasible) {
      in->failStatus = SolveStatus::Infeasible;
      return in;
    }
    mo.hints = &in->hints;
  }

  if (!in->baselineIsGreedy) {
    timed(spans, "sched.greedy", "sched::greedyMapSchedule", [&] {
      sched::SdcOptions go;
      go.ii = in->sdc.schedule.ii;
      go.tcpNs = opts.tcpNs;
      go.resources = bm.resources;
      go.maxLatency = mo.maxLatency;
      in->greedy = sched::greedyMapSchedule(bm.graph, in->db, opts.delays, go);
      if (in->greedy.success && validates(bm, *in, opts, in->greedy.schedule) &&
          scheduleCost(bm, in->greedy.schedule, in->db, opts) <
              scheduleCost(bm, in->sdc.schedule, in->trivial, opts)) {
        mo.warmStart = &in->greedy.schedule;
        mo.warmStartSelectsCuts = true;
      }
    });
  }

  if (opts.warmStartHint != nullptr) {
    timed(spans, "sched.hint", "sched::validateSchedule", [&] {
      const sched::Schedule& hint = *opts.warmStartHint;
      if (hint.ii == mo.ii && hint.cycle.size() == bm.graph.size() &&
          hint.selectedCut.size() == bm.graph.size() &&
          hint.latency(bm.graph) <= mo.maxLatency &&
          validates(bm, *in, opts, hint) &&
          scheduleCost(bm, hint, in->db, opts) <
              scheduleCost(bm, *mo.warmStart,
                           mo.warmStartSelectsCuts ? in->db : in->trivial,
                           opts)) {
        mo.warmStart = &hint;
        mo.warmStartSelectsCuts = true;
      }
    });
  }
  return in;
}

/// runFlow's finish(): validation, area evaluation, functional check.
FlowResult finish(Spans* spans, LayerStats& stats, const Benchmark& bm,
                  FlowResult r, const MilpInput& in, const FlowOptions& opts) {
  const auto diag =
      timed(spans, "sched.validate", "sched::validateSchedule", [&] {
        return sched::validateSchedule(
            {bm.graph, in.db, opts.delays, bm.resources, in.dbFacts},
            r.schedule);
      });
  if (diag) {
    r.success = false;
    appendError(r.error, "schedule validation failed: " + *diag);
    return r;
  }
  map::AreaOptions ao;
  ao.cuts = opts.cuts;
  ao.cuts.facts = nullptr;
  r.area = timed(spans, "map.evaluate", "map::evaluate", [&] {
    return map::evaluate(bm.graph, r.schedule, opts.delays, ao);
  });
  stats.luts += r.area.luts;
  stats.ffs += r.area.ffs;
  r.functionallyVerified = timed(spans, "sim.verify", "sim::runPipeline", [&] {
    return verifyPipeline(bm, r.schedule, in.db, opts.delays,
                          opts.verifyFrames, opts.verifySeed);
  });
  if (opts.verifyFrames > 0 && !r.functionallyVerified) {
    r.success = false;
    appendError(r.error, "pipeline simulation diverged from the reference");
  }
  return r;
}

/// runFlowAtIi, call for call.
FlowResult attemptFlow(Spans* spans, LayerStats& stats, const Benchmark& bm,
                       Method method, const FlowOptions& opts, int ii,
                       const ir::BitFacts& facts) {
  FlowResult r;
  r.method = method;
  const auto in = attemptAtIi(spans, stats, bm, method, opts, ii, facts);
  r.numCuts = in->db.totalCuts;
  if (!in->error.empty()) {
    r.error = in->error;
    r.status = in->failStatus;
    return r;
  }
  if (method == Method::HlsTool) {
    r.schedule = in->sdc.schedule;
    r.status = SolveStatus::Optimal;
    r.success = true;
    return finish(spans, stats, bm, std::move(r), *in, opts);
  }
  const sched::MilpSchedResult milp =
      solveTraced(spans, stats, bm.graph, *in, opts.delays);
  r.status = milp.status;
  r.branchNodes = milp.branchNodes;
  r.numVars = milp.numVars;
  r.numConstraints = milp.numConstraints;
  r.objective = milp.objective;
  r.convergence = milp.convergence;
  if (!milp.success) {
    if (milp.status != SolveStatus::NoSolution) {
      r.error = milp.error;
      return r;
    }
    // The flow's heuristic fallback: the warm start, re-pointed at the
    // unit cuts of `db` when it indexes the trivial database.
    r.schedule = *in->options.warmStart;
    if (!in->options.warmStartSelectsCuts) {
      for (ir::NodeId v = 0; v < bm.graph.size(); ++v) {
        if (r.schedule.selectedCut[v] < 0 || in->db.at(v).cuts.empty()) {
          continue;
        }
        r.schedule.selectedCut[v] = 0;
        for (std::size_t i = 0; i < in->db.at(v).cuts.size(); ++i) {
          if (in->db.at(v).cuts[i].isUnit) {
            r.schedule.selectedCut[v] = static_cast<int>(i);
          }
        }
      }
    }
    r.success = true;
    r.error = milp.error;
    return finish(spans, stats, bm, std::move(r), *in, opts);
  }
  r.schedule = milp.schedule;
  r.success = true;
  return finish(spans, stats, bm, std::move(r), *in, opts);
}

}  // namespace

FlowResult replayFlow(Spans* spans, LayerStats& stats, const Benchmark& bm,
                      Method method, const FlowOptions& opts) {
  FlowResult last;
  last.method = method;
  ir::BitFacts facts;
  if (!frontEnd(spans, bm, method, opts, facts, &last.error)) {
    last.status = SolveStatus::Infeasible;
    return last;
  }
  for (int ii = opts.ii; ii <= opts.ii + 8; ++ii) {
    last = attemptFlow(spans, stats, bm, method, opts, ii, facts);
    if (last.success || last.status == SolveStatus::NoSolution) break;
  }
  return last;
}

RequestReplay replayRequest(Spans* spans, LayerStats& stats,
                            svc::SolutionCache& cache, const std::string& line,
                            double maxTimeLimitSeconds) {
  RequestReplay out;
  std::string error, id;
  const auto req = timed(spans, "util.json_parse", "svc::parseRequest", [&] {
    return svc::parseRequest(line, &error, &id);
  });
  if (!req) {
    out.error = "request parse: " + error;
    return out;
  }
  Benchmark bm;
  const bool resolved =
      timed(spans, req->graphText.empty() ? "svc.resolve" : "ir.read_text",
            "svc::resolveBenchmark",
            [&] { return svc::resolveBenchmark(*req, bm, &error); });
  if (!resolved) {
    out.error = "resolve: " + error;
    return out;
  }
  const analyze::AnalysisReport gate =
      timed(spans, "analyze.gate", "analyze::analyzeGraph", [&] {
        return analyze::analyzeGraph(
            bm.graph, flow::analysisOptions(bm, req->method, req->options));
      });
  if (gate.hasErrors()) {
    out.error = "gate: " + analyze::summarizeErrors(gate);
    return out;
  }

  FlowOptions opts = req->options;
  opts.solverTimeLimitSeconds =
      std::min(opts.solverTimeLimitSeconds, maxTimeLimitSeconds);
  svc::CacheKey key;
  timed(spans, "ir.hash", "ir::canonicalHash", [&] {
    // The coalescing key and the cache key each hash the graph.
    (void)svc::workKey(*req, bm, maxTimeLimitSeconds);
    key.canonical = ir::canonicalHash(bm.graph);
    key.layout = ir::layoutHash(bm.graph);
  });
  svc::SolutionCache::Lookup hit =
      timed(spans, "svc.cache", "svc::SolutionCache::lookup", [&] {
        key.hardKey = flow::hardOptionKey(req->method, opts);
        key.tcpNs = opts.tcpNs;
        key.timeLimitSeconds = opts.solverTimeLimitSeconds;
        return cache.lookup(key);
      });

  FlowResult warmSource;
  if (hit.kind == svc::SolutionCache::Lookup::Kind::Exact) {
    out.cache = "hit";
    ++stats.hits;
    out.result = std::move(hit.result);
  } else {
    if (hit.kind == svc::SolutionCache::Lookup::Kind::Warm) {
      out.cache = "warm";
      ++stats.near;
      warmSource = std::move(hit.result);
      opts.warmStartHint = &warmSource.schedule;
    } else {
      out.cache = "miss";
      ++stats.misses;
    }
    out.result = replayFlow(spans, stats, bm, req->method, opts);
    if (!out.result.success) {
      out.error = "flow: " + out.result.error;
      return out;
    }
    timed(spans, "svc.cache", "svc::SolutionCache::insert",
          [&] { cache.insert(key, out.result); });
  }
  timed(spans, "util.json_render", "svc::resultResponse", [&] {
    return svc::resultResponse(req->id, out.cache, 0.0, 0.0, out.result);
  });
  out.ok = true;
  return out;
}

}  // namespace lampbench
