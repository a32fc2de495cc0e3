// Ablation studies for the design choices DESIGN.md calls out:
//  (a) LUT input count K (the paper notes cut enumeration is exponential
//      in K but fast for K <= 6),
//  (b) the per-node cut cap (our pruning knob; the paper relies on CPLEX
//      presolve instead),
//  (c) the alpha/beta LUT-vs-register trade-off of objective (15),
//  (d) the greedy mapping-aware heuristic (the paper's "future work")
//      versus the exact MILP.

#include <iostream>

#include "bench_util.h"
#include "map/area.h"
#include "report/table.h"
#include "sched/greedy.h"

using namespace lamp;

namespace {

workloads::Benchmark pick(const std::string& name) {
  for (auto& bm : workloads::allBenchmarks(workloads::Scale::Default)) {
    if (bm.name == name) return bm;
  }
  std::abort();
}

}  // namespace

int main() {
  const double cap = bench::envTimeLimit(10.0);

  // --- (a)+(b): K and cut-cap sweep on GFMUL ---------------------------------
  {
    report::Table t({"K", "cut cap", "total cuts", "enum ms", "LUT", "FF",
                     "stages", "MILP status"});
    const workloads::Benchmark bm = pick("GFMUL");
    for (const int k : {3, 4, 6}) {
      for (const int cap2 : {2, 4, 8}) {
        flow::FlowOptions o;
        o.cuts.k = k;
        o.cuts.maxCutsPerNode = cap2;
        o.solverTimeLimitSeconds = cap;
        const flow::FlowResult r = flow::runFlow(bm, flow::Method::MilpMap, o);
        const auto db = cut::enumerateCuts(bm.graph, o.cuts);
        t.addRow({std::to_string(k), std::to_string(cap2),
                  std::to_string(db.totalCuts),
                  report::fixed(db.wallSeconds * 1e3, 2),
                  r.success ? std::to_string(r.area.luts) : "-",
                  r.success ? std::to_string(r.area.ffs) : "-",
                  r.success ? std::to_string(r.area.stages) : "-",
                  std::string(lp::solveStatusName(r.status))});
      }
    }
    std::cout << "\nAblation (a,b): K and cut cap on GFMUL (cap " << cap
              << " s)\n\n";
    t.print(std::cout);
  }

  // --- (c): alpha/beta sweep on XORR ------------------------------------------
  {
    report::Table t({"alpha", "beta", "LUT", "FF", "stages"});
    const workloads::Benchmark bm = pick("XORR");
    for (const auto& [a, b2] : {std::pair{1.0, 0.0}, std::pair{0.5, 0.5},
                                std::pair{0.1, 0.9}, std::pair{0.0, 1.0}}) {
      flow::FlowOptions o;
      o.alpha = a;
      o.beta = b2;
      o.solverTimeLimitSeconds = cap;
      const flow::FlowResult r = flow::runFlow(bm, flow::Method::MilpMap, o);
      t.addRow({report::fixed(a, 1), report::fixed(b2, 1),
                r.success ? std::to_string(r.area.luts) : "-",
                r.success ? std::to_string(r.area.ffs) : "-",
                r.success ? std::to_string(r.area.stages) : "-"});
    }
    std::cout << "\nAblation (c): objective weights on XORR\n\n";
    t.print(std::cout);
  }

  // --- (d): greedy mapping-aware heuristic vs MILP-map -------------------------
  {
    report::Table t({"Design", "Method", "LUT", "FF", "stages", "time (s)"});
    for (const char* name : {"XORR", "GFMUL", "GSM", "RS"}) {
      const workloads::Benchmark bm = pick(name);
      flow::FlowOptions o;
      o.solverTimeLimitSeconds = cap;
      const flow::FlowResult milp = flow::runFlow(bm, flow::Method::MilpMap, o);

      const auto db = cut::enumerateCuts(bm.graph, o.cuts);
      sched::SdcOptions go;
      go.resources = bm.resources;
      const util::Stopwatch greedyWatch;
      sched::SdcResult greedy;
      for (go.ii = 1; go.ii <= 4; ++go.ii) {
        greedy = sched::greedyMapSchedule(bm.graph, db, o.delays, go);
        if (greedy.success) break;
      }
      const double gs = greedyWatch.seconds();
      if (milp.success) {
        t.addRow({bm.name, "MILP-map", std::to_string(milp.area.luts),
                  std::to_string(milp.area.ffs),
                  std::to_string(milp.area.stages),
                  report::fixed(milp.phases.milpSolve, 2)});
      }
      if (greedy.success) {
        const auto rep = map::evaluate(bm.graph, greedy.schedule, o.delays);
        t.addRow({bm.name, "GreedyMap", std::to_string(rep.luts),
                  std::to_string(rep.ffs), std::to_string(rep.stages),
                  report::fixed(gs, 2)});
      }
      t.addRule();
    }
    std::cout << "\nAblation (d): scalable mapping-aware heuristic "
                 "(Section 5 future work)\nvs the exact MILP\n\n";
    t.print(std::cout);
  }
  return 0;
}
