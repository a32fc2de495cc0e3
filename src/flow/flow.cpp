#include "flow/flow.h"

#include <limits>

#include "analyze/dataflow.h"
#include "analyze/schedspace.h"
#include "certify/certify.h"
#include "ir/simplify.h"
#include "map/area.h"
#include "obs/trace.h"
#include "sched/greedy.h"
#include "sched/schedule.h"
#include "sim/pipeline_sim.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace lamp::flow {

using workloads::Benchmark;

std::string_view methodName(Method m) {
  switch (m) {
    case Method::HlsTool: return "HLS Tool";
    case Method::MilpBase: return "MILP-base";
    case Method::MilpMap: return "MILP-map";
  }
  return "?";
}

std::string_view methodToken(Method m) {
  switch (m) {
    case Method::HlsTool: return "hls";
    case Method::MilpBase: return "base";
    case Method::MilpMap: return "map";
  }
  return "?";
}

bool parseMethodToken(std::string_view token, Method& out) {
  if (token == "hls") {
    out = Method::HlsTool;
  } else if (token == "base") {
    out = Method::MilpBase;
  } else if (token == "map") {
    out = Method::MilpMap;
  } else {
    return false;
  }
  return true;
}

namespace {

/// Mapping-Fusion style strategy racing: one enumeration per ranking
/// strategy, each scored by the cost of its greedy mapping-aware
/// covering at this II (alpha * LUTs + beta * register bits). The
/// cheapest database wins; ties keep the earliest strategy in
/// cut::allCutStrategies() order (DepthAware first), so racing never
/// changes a result unless another ranking strictly improves it.
cut::CutDatabase raceCutStrategyDatabases(const Benchmark& bm,
                                          const FlowOptions& opts,
                                          const cut::CutEnumOptions& mapCuts,
                                          int ii,
                                          cut::CutStrategy& winner) {
  const obs::Span span("cut_strategy_race", "flow");
  cut::CutDatabase best;
  double bestCost = std::numeric_limits<double>::infinity();
  bool haveAny = false;
  for (const cut::CutStrategy s : cut::allCutStrategies()) {
    cut::CutEnumOptions o = mapCuts;
    o.strategy = s;
    cut::CutDatabase db = cut::enumerateCuts(bm.graph, o);
    // Strategies whose greedy covering fails (or fails validation) race
    // with infinite cost: they can still win only if every strategy
    // fails, in which case the first (DepthAware) database is kept and
    // the MILP decides on its own.
    double cost = std::numeric_limits<double>::infinity();
    sched::SdcOptions go;
    go.ii = ii;
    go.tcpNs = opts.tcpNs;
    go.resources = bm.resources;
    const sched::SdcResult greedy =
        sched::greedyMapSchedule(bm.graph, db, opts.delays, go);
    if (greedy.success &&
        sched::validateSchedule(
            {bm.graph, db, opts.delays, bm.resources, mapCuts.facts},
            greedy.schedule) == std::nullopt) {
      double lutCost = 0.0;
      for (ir::NodeId v = 0; v < bm.graph.size(); ++v) {
        if (greedy.schedule.isRoot(v)) {
          lutCost += db.at(v).cuts[greedy.schedule.selectedCut[v]].lutCost;
        }
      }
      cost = opts.alpha * lutCost +
             opts.beta * map::countRegisterBits(bm.graph, greedy.schedule,
                                                opts.delays);
    }
    if (!haveAny || cost < bestCost) {
      haveAny = true;
      bestCost = cost;
      winner = s;
      best = std::move(db);
    }
  }
  return best;
}

/// Keeps every diagnostic: later failures append to earlier ones (e.g.
/// the solver-cap fallback reason) instead of replacing them.
void appendError(std::string& error, std::string msg) {
  if (error.empty()) {
    error = std::move(msg);
  } else {
    error += "; " + msg;
  }
}

/// Functional check of a schedule against the untimed interpreter.
bool verifyFunctionally(const Benchmark& bm, const sched::Schedule& s,
                        const cut::CutDatabase& db, const FlowOptions& opts) {
  if (opts.verifyFrames <= 0) return true;
  std::vector<sim::InputFrame> frames;
  for (int k = 0; k < opts.verifyFrames; ++k) {
    frames.push_back(bm.makeInputs(k, opts.verifySeed));
  }
  sim::Interpreter interp(bm.graph);
  if (bm.initMemory) bm.initMemory(interp.memory());
  const auto golden = interp.run(frames);

  sim::Memory pipeMem;
  if (bm.initMemory) bm.initMemory(pipeMem);
  const auto run =
      sim::runPipeline(bm.graph, s, opts.delays, frames, &pipeMem, &db);
  if (!run.ok || run.outputs.size() != golden.size()) return false;
  for (std::size_t k = 0; k < golden.size(); ++k) {
    if (run.outputs[k] != golden[k]) return false;
  }
  return true;
}

FlowResult finish(const Benchmark& bm, FlowResult r,
                  const cut::CutDatabase& db, const FlowOptions& opts,
                  const ir::BitFacts* facts) {
  {
    const obs::Span span("validate", "flow");
    const util::Stopwatch watch;
    const sched::ValidationInput vin{bm.graph, db, opts.delays, bm.resources,
                                     facts};
    const auto diag = sched::validateSchedule(vin, r.schedule);
    r.phases.validate = watch.seconds();
    if (diag) {
      r.success = false;
      appendError(r.error, "schedule validation failed: " + *diag);
      return r;
    }
  }
  map::AreaOptions ao;
  ao.cuts = opts.cuts;
  // The per-stage evaluator rebuilds graphs with fresh node ids; facts
  // indexed by this graph's ids must not leak into those enumerations.
  ao.cuts.facts = nullptr;
  r.area = map::evaluate(bm.graph, r.schedule, opts.delays, ao);
  {
    const obs::Span span("verify", "flow");
    const util::ScopedTimer t(&r.phases.verify);
    r.functionallyVerified = verifyFunctionally(bm, r.schedule, db, opts);
  }
  if (opts.verifyFrames > 0 && !r.functionallyVerified) {
    // The schedule (and area report) stay populated: callers get both
    // the solve outcome and the verification failure.
    r.success = false;
    appendError(r.error, "pipeline simulation diverged from the reference");
  }
  return r;
}

/// Rewrites NodeId-keyed frames through the simplification node map.
sim::InputFrame remapFrame(const sim::InputFrame& f,
                           const std::vector<ir::NodeId>& oldToNew) {
  sim::InputFrame out;
  for (const auto& [id, v] : f) {
    if (id < oldToNew.size() && oldToNew[id] != ir::kNoNode) {
      out[oldToNew[id]] = v;
    }
  }
  return out;
}

/// Differential simulation of the simplified graph against the original
/// over seeded random frames. Returns a diagnostic on any divergence.
std::optional<std::string> simplifyDivergence(
    const Benchmark& bm, const ir::Graph& simplified,
    const std::vector<ir::NodeId>& oldToNew, const FlowOptions& opts) {
  const int frames = std::max(opts.verifyFrames, 4);
  std::vector<sim::InputFrame> in, inSimp;
  for (int k = 0; k < frames; ++k) {
    in.push_back(bm.makeInputs(k, opts.verifySeed));
    inSimp.push_back(remapFrame(in.back(), oldToNew));
  }
  sim::Interpreter ref(bm.graph);
  if (bm.initMemory) bm.initMemory(ref.memory());
  const auto golden = ref.run(in);
  sim::Interpreter simp(simplified);
  if (bm.initMemory) bm.initMemory(simp.memory());
  const auto got = simp.run(inSimp);
  for (std::size_t k = 0; k < golden.size(); ++k) {
    for (const auto& [id, v] : golden[k]) {
      const ir::NodeId nid = oldToNew[id];
      const auto it = nid == ir::kNoNode ? got[k].end() : got[k].find(nid);
      if (it == got[k].end() || it->second != v) {
        return "output " + bm.graph.node(id).name + " differs at iteration " +
               std::to_string(k);
      }
    }
  }
  return std::nullopt;
}

}  // namespace

namespace {

/// One attempt at a fixed II; runFlow retries at larger IIs on failure.
/// `facts` are bit-level facts of bm.graph; the mapping-aware arm
/// enumerates its cut database under them.
FlowResult runFlowAtIi(const Benchmark& bm, Method method,
                       const FlowOptions& opts, int ii,
                       const ir::BitFacts* facts);

/// Maps the certificate outcome onto the stable diagnostic codes. Run
/// after the analysis diagnostics are installed (they are move-assigned,
/// not appended). A failed certificate never flips FlowResult::success:
/// the float schedule is still returned, and the diagnostic states
/// exactly how far it can be trusted.
void appendCertificateDiagnostics(FlowResult& r, Method method) {
  analyze::Diagnostic d;
  if (!r.certificate.ran) {
    d.code = std::string(analyze::kCodeUncertifiedClaim);
    d.severity = analyze::Severity::Warning;
    d.message = "certification was requested but no solver proof exists "
                "for method '" +
                std::string(methodName(method)) + "'";
    d.hint = "only the MILP arms (base, map) produce certifiable proofs";
  } else if (r.certificate.status == "unsupported-claim") {
    d.code = std::string(analyze::kCodeUncertifiedClaim);
    d.severity = analyze::Severity::Warning;
    d.message = "solver claim '" + r.certificate.claim +
                "' is not certifiable: " + r.certificate.detail;
    d.hint = "raise the solver time limit so the claim becomes "
             "'optimal' or 'infeasible'";
  } else if (r.certificate.status == "rejected") {
    const bool incumbent =
        r.certificate.detail.rfind("incumbent violates", 0) == 0;
    d.code = std::string(incumbent ? analyze::kCodeCertIncumbentInfeasible
                                   : analyze::kCodeCertRejected);
    d.severity = analyze::Severity::Error;
    d.message = (incumbent
                     ? std::string("claimed solution is infeasible under "
                                   "exact arithmetic: ")
                     : std::string("proof derivation does not replay in "
                                   "exact arithmetic: ")) +
                r.certificate.detail;
    d.hint = "do not trust this solve; re-run and file the proof if it "
             "reproduces";
  } else {
    return;  // verified
  }
  r.diagnostics.push_back(std::move(d));
}

}  // namespace

analyze::AnalysisOptions analysisOptions(const Benchmark& bm, Method method,
                                         const FlowOptions& opts) {
  analyze::AnalysisOptions ao;
  ao.ii = opts.ii;
  ao.maxIi = opts.ii + 8;  // matches the retry window in runFlow below
  ao.tcpNs = opts.tcpNs;
  ao.k = opts.cuts.k;
  ao.mappingAware = method == Method::MilpMap;
  ao.delays = opts.delays;
  ao.resources = bm.resources;
  ao.schedSpace = opts.schedSpace;
  ao.analyzeBudgetMs = opts.analyzeBudgetMs;
  return ao;
}

FlowResult runFlow(const Benchmark& bm, Method method,
                   const FlowOptions& opts) {
  if (opts.trace) obs::setTraceEnabled(true);
  const obs::Span flowSpan("flow", "flow");
  PhaseSeconds phases;

  // Pre-solve gate: a request the static analysis proves infeasible
  // (malformed IR, an op slower than the clock, MII beyond the retry
  // window, an unmappable cone) fails fast with structured diagnostics
  // instead of burning the solver time limit. Warnings and infos ride
  // along on whatever result the flow produces.
  analyze::AnalysisReport report;
  {
    const obs::Span span("analyze", "flow");
    const util::Stopwatch watch;
    report = analyze::analyzeGraph(bm.graph, analysisOptions(bm, method, opts));
    phases.analyze = watch.seconds();
  }
  if (report.hasErrors()) {
    FlowResult r;
    r.method = method;
    r.status = lp::SolveStatus::Infeasible;
    r.error = "pre-solve analysis: " + analyze::summarizeErrors(report);
    r.diagnostics = std::move(report.diagnostics);
    r.phases = phases;
    return r;
  }

  // Bit-level dataflow on the input graph: drives the optional rewrite
  // and the mapping-aware arm's masked cut enumeration.
  util::Stopwatch dflowWatch;
  analyze::DataflowResult dflow = analyze::analyzeDataflow(bm.graph);
  ir::BitFacts facts = analyze::toBitFacts(dflow);
  phases.dataflow += dflowWatch.seconds();

  Benchmark work;                // simplified copy, when enabled
  const Benchmark* active = &bm;
  std::vector<ir::NodeId> simplifyMap;
  if (opts.simplify) {
    const obs::Span span("simplify", "flow");
    const util::Stopwatch watch;
    ir::Graph simplified = ir::simplify(bm.graph, facts, nullptr,
                                        &simplifyMap);
    if (const auto diag =
            simplifyDivergence(bm, simplified, simplifyMap, opts)) {
      FlowResult r;
      r.method = method;
      r.error = "simplification diverged from the original graph: " + *diag;
      r.diagnostics = std::move(report.diagnostics);
      phases.simplify = watch.seconds();
      r.phases = phases;
      return r;
    }
    work = bm;
    work.graph = std::move(simplified);
    // Input frames are NodeId-keyed; route them through the node map.
    work.makeInputs = [base = bm.makeInputs, map = simplifyMap](
                          std::uint64_t it, std::uint32_t seed) {
      return remapFrame(base(it, seed), map);
    };
    active = &work;
    phases.simplify = watch.seconds();
    // Facts must index the graph actually enumerated and scheduled.
    dflowWatch.restart();
    dflow = analyze::analyzeDataflow(work.graph);
    facts = analyze::toBitFacts(dflow);
    phases.dataflow += dflowWatch.seconds();
  }

  // Production schedulers bump the II when the recurrence, resources, or
  // (for the additive model) recurrence *chaining* cannot meet it. The
  // mapping-aware arm frequently sustains a smaller II than the additive
  // arms — an effect worth keeping visible, so each arm gets its own
  // smallest feasible II.
  FlowResult last;
  for (int ii = opts.ii; ii <= opts.ii + 8; ++ii) {
    last = runFlowAtIi(*active, method, opts, ii, &facts);
    // Retried attempts accumulate: the breakdown reports what the flow
    // actually spent, not just the final II's share.
    phases.analyze += last.phases.analyze;
    phases.cutEnum += last.phases.cutEnum;
    phases.milpBuild += last.phases.milpBuild;
    phases.milpSolve += last.phases.milpSolve;
    phases.validate += last.phases.validate;
    phases.verify += last.phases.verify;
    if (last.success) break;
    if (last.status == lp::SolveStatus::NoSolution) break;  // cap hit
  }
  last.phases = phases;
  last.diagnostics = std::move(report.diagnostics);
  if (opts.certify) appendCertificateDiagnostics(last, method);
  if (opts.simplify) {
    last.simplifiedGraph = active->graph;
    last.simplifyMap = std::move(simplifyMap);
  }
  if (opts.emitAnalysis) last.analysis = std::move(dflow.bits);
  return last;
}

namespace {

FlowResult runFlowAtIi(const Benchmark& bm, Method method,
                       const FlowOptions& opts, int ii,
                       const ir::BitFacts* facts) {
  FlowResult result;
  result.method = method;

  // Only the mapping-aware enumeration consumes the bit-level facts;
  // the additive arms keep the paper's unit-cut model untouched. Any
  // caller-supplied facts pointer is ignored — it cannot be trusted to
  // index this (possibly rewritten) graph.
  cut::CutEnumOptions baseCuts = opts.cuts;
  baseCuts.facts = nullptr;
  cut::CutEnumOptions mapCuts = baseCuts;
  mapCuts.facts = facts;
  const ir::BitFacts* dbFacts = method == Method::MilpMap ? facts : nullptr;

  const util::Stopwatch cutWatch;
  cut::CutStrategy usedStrategy = mapCuts.strategy;
  const cut::CutDatabase db =
      method == Method::MilpMap
          ? (opts.raceCutStrategies
                 ? raceCutStrategyDatabases(bm, opts, mapCuts, ii,
                                            usedStrategy)
                 : cut::enumerateCuts(bm.graph, mapCuts))
          : cut::trivialCuts(bm.graph, baseCuts);
  result.cutStrategy = usedStrategy;
  const cut::CutDatabase trivial =
      method == Method::MilpMap ? cut::trivialCuts(bm.graph, baseCuts) : db;
  result.phases.cutEnum = cutWatch.seconds();
  result.numCuts = db.totalCuts;

  // The SDC baseline also provides the latency bound and warm start for
  // the MILPs.
  sched::SdcOptions sdcOpts;
  sdcOpts.ii = ii;
  sdcOpts.tcpNs = opts.tcpNs;
  sdcOpts.resources = bm.resources;
  sched::SdcResult sdc = sdcSchedule(bm.graph, trivial, opts.delays, sdcOpts);
  bool baselineIsGreedy = false;

  if (!sdc.success && method == Method::MilpMap) {
    // The additive heuristic can fail an II that mapping-aware schedules
    // meet (shorter recurrence chains): fall back to the greedy
    // mapping-aware schedule for the latency bound and warm start.
    sdc = sched::greedyMapSchedule(bm.graph, db, opts.delays, sdcOpts);
    if (sdc.success &&
        sched::validateSchedule(
            {bm.graph, db, opts.delays, bm.resources, dbFacts},
            sdc.schedule) != std::nullopt) {
      sdc.success = false;
    }
    baselineIsGreedy = sdc.success;
  }
  if (!sdc.success) {
    result.error = "baseline scheduling failed: " + sdc.error;
    return result;
  }

  if (method == Method::HlsTool) {
    result.schedule = sdc.schedule;
    result.status = lp::SolveStatus::Optimal;
    result.success = true;
    return finish(bm, std::move(result), db, opts, dbFacts);
  }

  sched::MilpSchedOptions mo;
  mo.ii = sdc.schedule.ii;
  mo.tcpNs = opts.tcpNs;
  mo.alpha = opts.alpha;
  mo.beta = opts.beta;
  mo.maxLatency = sdc.schedule.latency(bm.graph) + opts.latencyMargin;
  mo.resources = bm.resources;
  mo.solver.timeLimitSeconds = opts.solverTimeLimitSeconds;
  mo.solver.threads = opts.solverThreads;
  mo.warmStart = &sdc.schedule;
  mo.warmStartSelectsCuts = baselineIsGreedy;
  mo.captureProof = opts.certify;

  // Schedule-space analysis: chaining-tightened windows, probed-out
  // assignments and symmetry orbits shrink the model before it is built.
  // Everything passed down is a pure reduction (at least one optimal
  // solution survives), so optimal II and objective are unchanged; an
  // analysis-proved infeasible II is skipped without building a model
  // and the retry loop moves on, exactly as for a solver-proved one.
  analyze::SchedSpace schedSpace;
  sched::ScheduleSpaceHints hints;
  if (opts.schedSpace) {
    const obs::Span span("schedspace", "flow");
    const util::Stopwatch watch;
    analyze::SchedSpaceOptions sso;
    sso.ii = mo.ii;
    sso.tcpNs = opts.tcpNs;
    sso.maxLatency = mo.maxLatency;
    sso.mappingAware = method == Method::MilpMap;
    sso.resources = bm.resources;
    sso.probeBudgetMs = opts.analyzeBudgetMs;
    schedSpace = analyze::computeSchedSpace(bm.graph, opts.delays, sso);
    result.phases.analyze += watch.seconds();
    if (!schedSpace.feasible) {
      result.status = lp::SolveStatus::Infeasible;
      result.error =
          "schedule-space analysis: " + schedSpace.infeasibleReason;
      return result;
    }
    hints = schedSpace.toHints();
    mo.hints = &hints;
  }

  // A mapping-aware greedy schedule (cover first, then list scheduling of
  // the LUT-level netlist) usually beats the SDC start by a wide margin;
  // use it as the incumbent whenever it is valid and cheaper.
  const auto scheduleCost = [&](const sched::Schedule& s,
                                const cut::CutDatabase& cuts) {
    double lutCost = 0.0;
    for (ir::NodeId v = 0; v < bm.graph.size(); ++v) {
      if (s.isRoot(v)) lutCost += cuts.at(v).cuts[s.selectedCut[v]].lutCost;
    }
    return opts.alpha * lutCost +
           opts.beta * map::countRegisterBits(bm.graph, s, opts.delays);
  };
  sched::SdcResult greedy;
  if (!baselineIsGreedy) {
    sched::SdcOptions go;
    go.ii = sdc.schedule.ii;
    go.tcpNs = opts.tcpNs;
    go.resources = bm.resources;
    go.maxLatency = mo.maxLatency;
    greedy = sched::greedyMapSchedule(bm.graph, db, opts.delays, go);
    if (greedy.success &&
        sched::validateSchedule(
            {bm.graph, db, opts.delays, bm.resources, dbFacts},
            greedy.schedule) == std::nullopt &&
        scheduleCost(greedy.schedule, db) <
            scheduleCost(sdc.schedule, baselineIsGreedy ? db : trivial)) {
      mo.warmStart = &greedy.schedule;
      mo.warmStartSelectsCuts = true;
    }
  }

  // A cached incumbent from the service layer (same graph solved before,
  // e.g. at a tighter clock or a shorter time limit) outranks the
  // heuristic starts whenever it is still feasible here and cheaper —
  // branch & bound then begins at the previous solve's upper bound.
  if (opts.warmStartHint != nullptr) {
    const sched::Schedule& hint = *opts.warmStartHint;
    if (hint.ii == mo.ii && hint.cycle.size() == bm.graph.size() &&
        hint.selectedCut.size() == bm.graph.size() &&
        hint.latency(bm.graph) <= mo.maxLatency &&
        sched::validateSchedule(
            {bm.graph, db, opts.delays, bm.resources, dbFacts},
            hint) == std::nullopt &&
        scheduleCost(hint, db) <
            scheduleCost(*mo.warmStart,
                         mo.warmStartSelectsCuts ? db : trivial)) {
      mo.warmStart = &hint;
      mo.warmStartSelectsCuts = true;
    }
  }

  const sched::MilpSchedResult milp =
      sched::milpSchedule(bm.graph, db, opts.delays, mo);

  result.status = milp.status;
  result.phases.milpBuild = milp.buildSeconds;
  result.phases.milpSolve = milp.solveSeconds;
  result.branchNodes = milp.branchNodes;
  result.numVars = milp.numVars;
  result.numConstraints = milp.numConstraints;
  result.objective = milp.objective;
  result.convergence = milp.convergence;
  result.convergenceDropped = milp.convergenceDropped;
  if (opts.certify) {
    FlowCertificate& cert = result.certificate;
    cert.ran = true;
    cert.proof = milp.proof;
    if (milp.proof.empty()) {
      // The solver bailed before constructing (e.g. the model exceeded
      // maxRows); there is no derivation to check.
      cert.status = "unsupported-claim";
      cert.claim = "none";
      cert.detail = "solver produced no proof: " + milp.error;
    } else {
      const certify::CheckResult cr = certify::checkProof(milp.proof);
      cert.verified = cr.verified;
      cert.status = cr.status;
      cert.detail = cr.detail;
      cert.claim = cr.claim;
      cert.treeNodes = cr.treeNodes;
      cert.checkerMillis = cr.checkerMillis;
    }
  }
  if (!milp.success) {
    if (milp.status == lp::SolveStatus::NoSolution) {
      // Instance beyond the exact solver (or no incumbent within the
      // cap): fall back to the best heuristic schedule — the paper's own
      // conclusion that a scalable heuristic must take over at size.
      result.schedule = *mo.warmStart;
      if (!mo.warmStartSelectsCuts) {
        // The schedule's cut indices target the trivial database; remap
        // each materialized node to the unit cut of `db`.
        for (ir::NodeId v = 0; v < bm.graph.size(); ++v) {
          if (result.schedule.selectedCut[v] < 0 || db.at(v).cuts.empty()) {
            continue;
          }
          result.schedule.selectedCut[v] = 0;
          for (std::size_t i = 0; i < db.at(v).cuts.size(); ++i) {
            if (db.at(v).cuts[i].isUnit) {
              result.schedule.selectedCut[v] = static_cast<int>(i);
            }
          }
        }
      }
      result.success = true;
      result.error = milp.error;  // kept as a diagnostic
      return finish(bm, std::move(result), db, opts, dbFacts);
    }
    result.error = milp.error;
    return result;
  }
  result.schedule = milp.schedule;
  result.success = true;
  return finish(bm, std::move(result), db, opts, dbFacts);
}

}  // namespace

BenchmarkResults runAllMethods(const Benchmark& bm, const FlowOptions& opts) {
  BenchmarkResults r;
  r.hls = runFlow(bm, Method::HlsTool, opts);
  r.milpBase = runFlow(bm, Method::MilpBase, opts);
  r.milpMap = runFlow(bm, Method::MilpMap, opts);
  return r;
}

std::vector<FlowResult> runFlowJobs(const std::vector<FlowJob>& jobs,
                                    const FlowOptions& opts, int workers) {
  std::vector<FlowResult> results(jobs.size());
  const int n = workers > 0 ? workers : util::ThreadPool::defaultThreads();
  if (n <= 1 || jobs.size() <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      results[i] = runFlow(*jobs[i].benchmark, jobs[i].method, opts);
    }
    return results;
  }
  FlowOptions jobOpts = opts;
  jobOpts.solverThreads = 1;  // job-level parallelism owns the cores
  util::ThreadPool pool(n);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pool.submit([&, i] {
      results[i] = runFlow(*jobs[i].benchmark, jobs[i].method, jobOpts);
    });
  }
  pool.wait();
  return results;
}

}  // namespace lamp::flow
