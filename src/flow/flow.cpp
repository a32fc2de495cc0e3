#include "flow/flow.h"

#include <limits>
#include <optional>

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
  constexpr std::string_view kNames[] = {"HLS Tool", "MILP-base", "MILP-map"};
  return kNames[static_cast<int>(m)];
}

std::string_view methodToken(Method m) {
  constexpr std::string_view kTokens[] = {"hls", "base", "map"};
  return kTokens[static_cast<int>(m)];
}

bool parseMethodToken(std::string_view token, Method& out) {
  for (const Method m : {Method::HlsTool, Method::MilpBase, Method::MilpMap}) {
    if (methodToken(m) == token) {
      out = m;
      return true;
    }
  }
  return false;
}

namespace {

/// II attempts past the requested one: runFlow's retry window.
constexpr int kIiRetries = 8;

/// State the stages of one flow share: the graph being scheduled (the
/// input, or its rewrite under FlowOptions::simplify), its bit facts, the
/// cut databases and the phase clock.
struct FlowContext {
  FlowContext(const Benchmark& bm, Method m, const FlowOptions& o)
      : input(bm), method(m), opts(o) {}

  const Benchmark& input;
  const Method method;
  const FlowOptions& opts;
  const Benchmark* active = &input;  ///< `input` or `rewritten`
  Benchmark rewritten;
  std::vector<ir::NodeId> simplifyMap;
  analyze::AnalysisReport report;
  analyze::DataflowResult dataflow;  ///< of the active graph
  ir::BitFacts facts;                ///< of the active graph
  /// Unit cuts: the SDC start's database and the additive arms' only one.
  cut::CutDatabase trivial;
  /// Mapping-aware arm: one enumeration under `facts` per raced strategy
  /// (only the configured one unless FlowOptions::raceCutStrategies).
  std::vector<std::pair<cut::CutStrategy, cut::CutDatabase>> mapped;
  PhaseSeconds phases;

  const ir::Graph& graph() const { return active->graph; }
  bool mapAware() const { return method == Method::MilpMap; }
  /// The masks the arm's cuts were enumerated under; validation must
  /// see the same ones.
  const ir::BitFacts* dbFacts() const { return mapAware() ? &facts : nullptr; }
};

/// Runs one stage: opens its span (`span` is null when the callee opens
/// its own) and adds its wall time to `field`.
template <class Fn>
decltype(auto) stage(FlowContext& cx, double PhaseSeconds::*field,
                     const char* span, Fn&& fn) {
  std::optional<obs::Span> s;
  if (span != nullptr) s.emplace(span, "flow");
  const util::ScopedTimer timer(&(cx.phases.*field));
  return fn();
}

/// Keeps every diagnostic: later failures append to earlier ones (e.g.
/// the solver-cap fallback reason) instead of replacing them.
void appendError(std::string& error, const std::string& msg) {
  error += error.empty() ? msg : "; " + msg;
}

std::optional<std::string> validationError(const FlowContext& cx,
                                           const cut::CutDatabase& db,
                                           const sched::Schedule& s) {
  return sched::validateSchedule(
      {cx.graph(), db, cx.opts.delays, cx.active->resources, cx.dbFacts()},
      s);
}

/// The greedy mapping-aware start (cover first, then list scheduling of
/// the LUT-level netlist); a schedule that fails validation is dropped.
sched::SdcResult greedyStart(const FlowContext& cx, const cut::CutDatabase& db,
                             const sched::SdcOptions& so) {
  sched::SdcResult r =
      sched::greedyMapSchedule(cx.graph(), db, cx.opts.delays, so);
  if (const auto diag = r.success ? validationError(cx, db, r.schedule)
                                  : std::nullopt) {
    r.success = false;
    r.error = "greedy schedule failed validation: " + *diag;
  }
  return r;
}

/// Objective (15) of a schedule over `db`: alpha * LUT cost + beta *
/// register bits.
double scheduleCost(const FlowContext& cx, const sched::Schedule& s,
                    const cut::CutDatabase& db) {
  double lutCost = 0.0;
  for (ir::NodeId v = 0; v < cx.graph().size(); ++v) {
    if (s.isRoot(v)) lutCost += db.at(v).cuts[s.selectedCut[v]].lutCost;
  }
  return cx.opts.alpha * lutCost +
         cx.opts.beta * map::countRegisterBits(cx.graph(), s, cx.opts.delays);
}

/// `n` seed-drawn input frames of `bm`.
std::vector<sim::InputFrame> inputFrames(const Benchmark& bm, int n,
                                         std::uint32_t seed) {
  std::vector<sim::InputFrame> frames;
  for (int k = 0; k < n; ++k) frames.push_back(bm.makeInputs(k, seed));
  return frames;
}

/// The untimed interpreter's outputs on `frames`: the reference.
std::vector<sim::OutputFrame> interpret(
    const Benchmark& bm, const std::vector<sim::InputFrame>& frames) {
  sim::Interpreter interp(bm.graph);
  if (bm.initMemory) bm.initMemory(interp.memory());
  return interp.run(frames);
}

/// Functional check of a schedule against the untimed interpreter.
bool verifyFunctionally(const FlowContext& cx, const sched::Schedule& s,
                        const cut::CutDatabase& db) {
  if (cx.opts.verifyFrames <= 0) return true;
  const Benchmark& bm = *cx.active;
  const auto frames = inputFrames(bm, cx.opts.verifyFrames, cx.opts.verifySeed);
  sim::Memory mem;
  if (bm.initMemory) bm.initMemory(mem);
  const auto run =
      sim::runPipeline(bm.graph, s, cx.opts.delays, frames, &mem, &db);
  return run.ok && run.outputs == interpret(bm, frames);
}

/// Differential simulation of the rewritten graph against the input over
/// seeded random frames. Returns a diagnostic on any divergence.
std::optional<std::string> simplifyDivergence(const FlowContext& cx) {
  const int n = std::max(cx.opts.verifyFrames, 4);
  const auto golden =
      interpret(cx.input, inputFrames(cx.input, n, cx.opts.verifySeed));
  const auto got = interpret(
      cx.rewritten, inputFrames(cx.rewritten, n, cx.opts.verifySeed));
  for (std::size_t k = 0; k < golden.size(); ++k) {
    for (const auto& [id, v] : golden[k]) {
      const ir::NodeId nid = cx.simplifyMap[id];
      const auto it = nid == ir::kNoNode ? got[k].end() : got[k].find(nid);
      if (it == got[k].end() || it->second != v) {
        return "output " + cx.input.graph.node(id).name +
               " differs at iteration " + std::to_string(k);
      }
    }
  }
  return std::nullopt;
}

// --- stages that run once per flow ----------------------------------------

/// Pre-solve gate: a request the static analysis proves infeasible
/// (malformed IR, an op slower than the clock, MII beyond the retry
/// window, an unmappable cone) fails fast with structured diagnostics.
/// Warnings and infos ride along on whatever result the flow produces.
bool gate(FlowContext& cx, FlowResult& r) {
  cx.report = stage(cx, &PhaseSeconds::analyze, "analyze", [&] {
    return analyze::analyzeGraph(
        cx.input.graph, analysisOptions(cx.input, cx.method, cx.opts));
  });
  if (!cx.report.hasErrors()) return true;
  r.status = lp::SolveStatus::Infeasible;
  r.error = "pre-solve analysis: " + analyze::summarizeErrors(cx.report);
  return false;
}

/// Bit-level dataflow of the active graph: drives the optional rewrite
/// and the mapping-aware arm's masked cut enumeration.
void dataflow(FlowContext& cx) {
  stage(cx, &PhaseSeconds::dataflow, nullptr, [&] {
    cx.dataflow = analyze::analyzeDataflow(cx.graph());
    cx.facts = analyze::toBitFacts(cx.dataflow);
  });
}

/// Rewrites the graph with the analysis-proven simplifications, checked
/// against the input by differential simulation; a divergence ends the
/// flow instead of scheduling a wrong graph.
bool simplify(FlowContext& cx, FlowResult& r) {
  const auto diverged = stage(cx, &PhaseSeconds::simplify, "simplify", [&] {
    cx.rewritten = cx.input;
    cx.rewritten.graph =
        ir::simplify(cx.input.graph, cx.facts, nullptr, &cx.simplifyMap);
    // Input frames are NodeId-keyed; route them through the node map.
    cx.rewritten.makeInputs = [base = cx.input.makeInputs,
                               map = cx.simplifyMap](std::uint64_t it,
                                                     std::uint32_t seed) {
      sim::InputFrame out;
      for (const auto& [id, v] : base(it, seed)) {
        if (map[id] != ir::kNoNode) out[map[id]] = v;
      }
      return out;
    };
    return simplifyDivergence(cx);
  });
  if (diverged) {
    r.error = "simplification diverged from the original graph: " + *diverged;
    return false;
  }
  cx.active = &cx.rewritten;
  dataflow(cx);  // facts must index the graph actually scheduled
  return true;
}

/// Unit cuts for every arm, plus the mapping-aware arm's enumeration
/// under the bit facts, one per raced strategy. The additive arms keep
/// the paper's unit-cut model, and a caller-supplied facts pointer is
/// ignored: it cannot be trusted to index this (possibly rewritten)
/// graph.
void cutDatabases(FlowContext& cx) {
  stage(cx, &PhaseSeconds::cutEnum, nullptr, [&] {
    cut::CutEnumOptions co = cx.opts.cuts;
    co.facts = nullptr;
    cx.trivial = cut::trivialCuts(cx.graph(), co);
    if (!cx.mapAware()) return;
    co.facts = &cx.facts;
    for (const cut::CutStrategy s : cut::allCutStrategies()) {
      if (!cx.opts.raceCutStrategies && s != cx.opts.cuts.strategy) continue;
      co.strategy = s;
      cx.mapped.emplace_back(s, cut::enumerateCuts(cx.graph(), co));
    }
  });
}

/// gate → dataflow → simplify → cut databases. False when the flow ends
/// here; `r` says why.
bool prepare(FlowContext& cx, FlowResult& r) {
  if (!gate(cx, r)) return false;
  dataflow(cx);
  if (cx.opts.simplify && !simplify(cx, r)) return false;
  cutDatabases(cx);
  return true;
}

// --- stages that run at each II ------------------------------------------

/// What the per-II stages assemble for sched::milpSchedule. Not movable:
/// `options` points into the members.
struct MilpInput {
  MilpInput() = default;
  MilpInput(const MilpInput&) = delete;
  MilpInput& operator=(const MilpInput&) = delete;

  const cut::CutDatabase* db = nullptr;  ///< the arm's cuts at this II
  sched::SdcResult baseline;             ///< SDC start, or greedy fallback
  bool baselineIsGreedy = false;
  sched::SdcResult greedy;
  sched::ScheduleSpaceHints hints;
  sched::MilpSchedOptions options;
};

/// Mapping-Fusion style strategy race: each database is scored by the
/// cost of its greedy start at this II. The cheapest wins; ties keep the
/// earliest strategy in cut::allCutStrategies() order (DepthAware
/// first), so racing never changes a result unless another ranking
/// strictly improves it. A failed greedy start scores infinity: if every
/// strategy fails, the first database is kept and the MILP decides.
std::size_t raceWinner(FlowContext& cx, const sched::SdcOptions& so) {
  if (cx.mapped.size() == 1) return 0;
  return stage(cx, &PhaseSeconds::cutEnum, "cut_strategy_race", [&] {
    std::size_t best = 0;
    double bestCost = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cx.mapped.size(); ++i) {
      const cut::CutDatabase& db = cx.mapped[i].second;
      const sched::SdcResult g = greedyStart(cx, db, so);
      const double cost = g.success ? scheduleCost(cx, g.schedule, db)
                                    : std::numeric_limits<double>::infinity();
      if (cost < bestCost) {
        best = i;
        bestCost = cost;
      }
    }
    return best;
  });
}

/// Schedule-space analysis: chaining-tightened windows, probed-out
/// assignments and symmetry orbits shrink the model before it is built.
/// Everything passed down is a pure reduction (at least one optimal
/// solution survives), so optimal II and objective are unchanged; an
/// analysis-proved infeasible II is skipped without building a model
/// and the retry loop moves on, exactly as for a solver-proved one.
bool scheduleSpace(FlowContext& cx, MilpInput& in, FlowResult& r) {
  const analyze::SchedSpace space =
      stage(cx, &PhaseSeconds::analyze, "schedspace", [&] {
        return analyze::computeSchedSpace(
            cx.graph(), cx.opts.delays,
            {.ii = in.options.ii,
             .tcpNs = cx.opts.tcpNs,
             .maxLatency = in.options.maxLatency,
             .mappingAware = cx.mapAware(),
             .resources = cx.active->resources,
             .probeBudgetMs = cx.opts.analyzeBudgetMs});
      });
  if (!space.feasible) {
    r.status = lp::SolveStatus::Infeasible;
    r.error = "schedule-space analysis: " + space.infeasibleReason;
    return false;
  }
  in.hints = space.toHints();
  in.options.hints = &in.hints;
  return true;
}

/// The MILP's incumbent: the greedy mapping-aware start usually beats the
/// SDC start by a wide margin; a cached incumbent from the service layer
/// (same graph solved before, e.g. at a tighter clock or a shorter time
/// limit) outranks both whenever it is still feasible here and cheaper,
/// so branch & bound begins at the previous solve's upper bound.
void pickWarmStart(const FlowContext& cx, sched::SdcOptions so,
                   MilpInput& in) {
  sched::MilpSchedOptions& mo = in.options;
  const auto adoptIfCheaper = [&](const sched::Schedule& s) {
    if (scheduleCost(cx, s, *in.db) <
        scheduleCost(cx, *mo.warmStart,
                     mo.warmStartSelectsCuts ? *in.db : cx.trivial)) {
      mo.warmStart = &s;
      mo.warmStartSelectsCuts = true;
    }
  };
  if (!in.baselineIsGreedy) {
    so.maxLatency = mo.maxLatency;
    in.greedy = greedyStart(cx, *in.db, so);
    if (in.greedy.success) adoptIfCheaper(in.greedy.schedule);
  }
  const sched::Schedule* hint = cx.opts.warmStartHint;
  const std::size_t n = cx.graph().size();
  if (hint != nullptr && hint->ii == mo.ii && hint->cycle.size() == n &&
      hint->selectedCut.size() == n &&
      hint->latency(cx.graph()) <= mo.maxLatency &&
      !validationError(cx, *in.db, *hint)) {
    adoptIfCheaper(*hint);
  }
}

/// Race → baseline start → schedule space → warm-start pick: everything
/// sched::milpSchedule needs at this II (the heuristic arm stops after
/// the baseline start). False when the attempt ends here; `r` says why.
bool assembleMilpInput(FlowContext& cx, int ii, MilpInput& in,
                       FlowResult& r) {
  const FlowOptions& opts = cx.opts;
  const sched::SdcOptions so{
      .ii = ii, .tcpNs = opts.tcpNs, .resources = cx.active->resources};
  in.db = &cx.trivial;
  r.cutStrategy = opts.cuts.strategy;
  if (cx.mapAware()) {
    const auto& [strategy, db] = cx.mapped[raceWinner(cx, so)];
    in.db = &db;
    r.cutStrategy = strategy;
  }
  r.numCuts = in.db->totalCuts;

  // The SDC baseline also provides the latency bound and warm start for
  // the MILPs. The additive heuristic can fail an II that mapping-aware
  // schedules meet (shorter recurrence chains); the mapping-aware arm
  // then starts from its greedy schedule.
  in.baseline = sched::sdcSchedule(cx.graph(), cx.trivial, opts.delays, so);
  if (!in.baseline.success && cx.mapAware()) {
    in.baseline = greedyStart(cx, *in.db, so);
    in.baselineIsGreedy = in.baseline.success;
  }
  if (!in.baseline.success) {
    r.error = "baseline scheduling failed: " + in.baseline.error;
    return false;
  }
  if (cx.method == Method::HlsTool) return true;

  sched::MilpSchedOptions& mo = in.options;
  mo.ii = ii;
  mo.tcpNs = opts.tcpNs;
  mo.alpha = opts.alpha;
  mo.beta = opts.beta;
  mo.maxLatency =
      in.baseline.schedule.latency(cx.graph()) + opts.latencyMargin;
  mo.resources = cx.active->resources;
  mo.solver.timeLimitSeconds = opts.solverTimeLimitSeconds;
  mo.solver.threads = opts.solverThreads;
  mo.warmStart = &in.baseline.schedule;
  mo.warmStartSelectsCuts = in.baselineIsGreedy;
  mo.captureProof = opts.certify;
  if (opts.schedSpace && !scheduleSpace(cx, in, r)) return false;
  pickWarmStart(cx, so, in);
  return true;
}

/// Replays the solver's proof log in exact arithmetic.
FlowCertificate certificate(const sched::MilpSchedResult& milp) {
  if (milp.proof.empty()) {
    // The solver bailed before constructing (e.g. the model exceeded
    // maxRows); there is no derivation to check.
    return {.ran = true,
            .status = "unsupported-claim",
            .detail = "solver produced no proof: " + milp.error,
            .claim = "none",
            .proof = {}};
  }
  const certify::CheckResult cr = certify::checkProof(milp.proof);
  return {true,     cr.verified,  cr.status,        cr.detail,
          cr.claim, cr.treeNodes, cr.checkerMillis, milp.proof};
}

/// The warm start with its cut indices re-pointed at `db`: a start that
/// does not select cuts indexes the trivial database, so each
/// materialized node moves to the unit cut of `db`.
sched::Schedule fallbackSchedule(const MilpInput& in) {
  sched::Schedule s = *in.options.warmStart;
  if (in.options.warmStartSelectsCuts) return s;
  for (ir::NodeId v = 0; v < s.selectedCut.size(); ++v) {
    const auto& cuts = in.db->at(v).cuts;
    if (s.selectedCut[v] < 0 || cuts.empty()) continue;
    s.selectedCut[v] = 0;
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      if (cuts[i].isUnit) s.selectedCut[v] = static_cast<int>(i);
    }
  }
  return s;
}

/// validate → evaluate → verify.
FlowResult finish(FlowContext& cx, const cut::CutDatabase& db,
                  FlowResult r) {
  if (const auto diag = stage(cx, &PhaseSeconds::validate, "validate", [&] {
        return validationError(cx, db, r.schedule);
      })) {
    r.success = false;
    appendError(r.error, "schedule validation failed: " + *diag);
    return r;
  }
  map::AreaOptions ao;
  ao.cuts = cx.opts.cuts;
  // The per-stage evaluator rebuilds graphs with fresh node ids; facts
  // indexed by this graph's ids must not leak into those enumerations.
  ao.cuts.facts = nullptr;
  r.area = map::evaluate(cx.graph(), r.schedule, cx.opts.delays, ao);
  r.functionallyVerified = stage(cx, &PhaseSeconds::verify, "verify", [&] {
    return verifyFunctionally(cx, r.schedule, db);
  });
  if (cx.opts.verifyFrames > 0 && !r.functionallyVerified) {
    // The schedule (and area report) stay populated: callers get both
    // the solve outcome and the verification failure.
    r.success = false;
    appendError(r.error, "pipeline simulation diverged from the reference");
  }
  return r;
}

/// One attempt at a fixed II: MILP-input assembly → MILP → certificate
/// → finish. runFlow retries at larger IIs on failure.
FlowResult attempt(FlowContext& cx, int ii) {
  FlowResult r;
  r.method = cx.method;
  MilpInput in;
  if (!assembleMilpInput(cx, ii, in, r)) return r;
  if (cx.method == Method::HlsTool) {
    r.schedule = in.baseline.schedule;
    r.success = true;
    return finish(cx, *in.db, std::move(r));
  }
  // The MILP's build and solve spans open inside sched::milpSchedule,
  // and the phases take the solver's own clocks.
  const sched::MilpSchedResult milp =
      sched::milpSchedule(cx.graph(), *in.db, cx.opts.delays, in.options);
  cx.phases.milpBuild += milp.buildSeconds;
  cx.phases.milpSolve += milp.solveSeconds;
  r.status = milp.status;
  r.branchNodes = milp.branchNodes;
  r.numVars = milp.numVars;
  r.numConstraints = milp.numConstraints;
  r.objective = milp.objective;
  r.convergence = milp.convergence;
  r.convergenceDropped = milp.convergenceDropped;
  if (cx.opts.certify) r.certificate = certificate(milp);
  if (milp.success) {
    r.schedule = milp.schedule;
  } else if (milp.status == lp::SolveStatus::NoSolution) {
    // Instance beyond the exact solver (or no incumbent within the cap):
    // fall back to the best heuristic schedule — the paper's own
    // conclusion that a scalable heuristic must take over at size.
    r.schedule = fallbackSchedule(in);
    r.error = milp.error;  // kept as a diagnostic
  } else {
    r.error = milp.error;
    return r;
  }
  r.success = true;
  return finish(cx, *in.db, std::move(r));
}

/// Maps the certificate outcome onto the stable diagnostic codes. Run
/// after the analysis diagnostics are installed (they are move-assigned,
/// not appended). A failed certificate never flips FlowResult::success:
/// the float schedule is still returned, and the diagnostic states
/// exactly how far it can be trusted.
void appendCertificateDiagnostics(FlowResult& r, Method method) {
  const FlowCertificate& c = r.certificate;
  const auto add = [&](std::string_view code, analyze::Severity severity,
                       std::string message, std::string hint) {
    r.diagnostics.push_back({std::string(code), severity, std::move(message),
                             {}, std::move(hint)});
  };
  if (!c.ran) {
    add(analyze::kCodeUncertifiedClaim, analyze::Severity::Warning,
        "certification was requested but no solver proof exists for "
        "method '" + std::string(methodName(method)) + "'",
        "only the MILP arms (base, map) produce certifiable proofs");
  } else if (c.status == "unsupported-claim") {
    add(analyze::kCodeUncertifiedClaim, analyze::Severity::Warning,
        "solver claim '" + c.claim + "' is not certifiable: " + c.detail,
        "raise the solver time limit so the claim becomes 'optimal' or "
        "'infeasible'");
  } else if (c.status == "rejected") {
    const bool incumbent = c.detail.rfind("incumbent violates", 0) == 0;
    add(incumbent ? analyze::kCodeCertIncumbentInfeasible
                  : analyze::kCodeCertRejected,
        analyze::Severity::Error,
        (incumbent ? "claimed solution is infeasible under exact "
                     "arithmetic: "
                   : "proof derivation does not replay in exact "
                     "arithmetic: ") + c.detail,
        "do not trust this solve; re-run and file the proof if it "
        "reproduces");
  }
}

}  // namespace

analyze::AnalysisOptions analysisOptions(const Benchmark& bm, Method method,
                                         const FlowOptions& opts) {
  analyze::AnalysisOptions ao;
  ao.ii = opts.ii;
  ao.maxIi = opts.ii + kIiRetries;
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
  const obs::Span flowSpan("flow", "flow");
  FlowContext cx(bm, method, opts);
  FlowResult r;
  r.method = method;
  const bool prepared = prepare(cx, r);
  // Production schedulers bump the II when the recurrence, resources, or
  // (for the additive model) recurrence *chaining* cannot meet it. The
  // mapping-aware arm frequently sustains a smaller II than the additive
  // arms — an effect worth keeping visible, so each arm gets its own
  // smallest feasible II. NoSolution means the solver cap was hit.
  for (int ii = opts.ii; prepared && ii <= opts.ii + kIiRetries; ++ii) {
    r = attempt(cx, ii);
    if (r.success || r.status == lp::SolveStatus::NoSolution) break;
  }
  r.phases = cx.phases;
  r.diagnostics = std::move(cx.report.diagnostics);
  if (!prepared) return r;
  if (opts.certify) appendCertificateDiagnostics(r, method);
  if (opts.simplify) {
    r.simplifiedGraph = std::move(cx.rewritten.graph);
    r.simplifyMap = std::move(cx.simplifyMap);
  }
  if (opts.emitAnalysis) r.analysis = std::move(cx.dataflow.bits);
  return r;
}

std::optional<std::string> writeMilpModel(std::ostream& os,
                                          const Benchmark& bm, Method method,
                                          const FlowOptions& opts, int ii) {
  if (method == Method::HlsTool) return "the HLS Tool arm builds no MILP";
  FlowContext cx(bm, method, opts);
  FlowResult r;
  MilpInput in;
  if (!prepare(cx, r) || !assembleMilpInput(cx, ii, in, r)) return r.error;
  in.options.dumpModel = &os;
  (void)sched::milpSchedule(cx.graph(), *in.db, opts.delays, in.options);
  return std::nullopt;
}

BenchmarkResults runAllMethods(const Benchmark& bm, const FlowOptions& opts) {
  return {runFlow(bm, Method::HlsTool, opts),
          runFlow(bm, Method::MilpBase, opts),
          runFlow(bm, Method::MilpMap, opts)};
}

std::vector<FlowResult> runFlowJobs(const std::vector<FlowJob>& jobs,
                                    const FlowOptions& opts, int workers) {
  std::vector<FlowResult> results(jobs.size());
  const int n = workers > 0 ? workers : util::ThreadPool::defaultThreads();
  const bool parallel = n > 1 && jobs.size() > 1;
  FlowOptions jobOpts = opts;
  if (parallel) jobOpts.solverThreads = 1;  // jobs own the cores
  const auto run = [&](std::size_t i) {
    results[i] = runFlow(*jobs[i].benchmark, jobs[i].method, jobOpts);
  };
  if (!parallel) {
    for (std::size_t i = 0; i < jobs.size(); ++i) run(i);
    return results;
  }
  util::ThreadPool pool(n);
  for (std::size_t i = 0; i < jobs.size(); ++i) pool.submit([&, i] { run(i); });
  pool.wait();
  return results;
}

}  // namespace lamp::flow
