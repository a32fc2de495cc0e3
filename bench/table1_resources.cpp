// Reproduces Table 1 of the paper: CP / LUT / FF for every benchmark
// under the three methods (HLS tool, MILP-base, MILP-map), with
// percentage deltas relative to the HLS tool, followed by the Section
// 4.1/4.2 aggregate claims. Target clock period 10 ns, II = 1.

#include <iostream>

#include "bench_util.h"
#include "report/table.h"

using namespace lamp;

int main() {
  const auto scale = bench::envScale();
  flow::FlowOptions opts;
  opts.solverTimeLimitSeconds = bench::envTimeLimit(20.0);
  opts.solverThreads = bench::envThreads(1);
  const int workers = bench::envJobs();

  report::Table table({"Design", "Domain", "Method", "CP(ns)", "LUT", "LUT%",
                       "FF", "FF%", "Stages", "Status"});

  struct Agg {
    double lutHls = 0, lutBase = 0, lutMap = 0;
    double ffHls = 0, ffBase = 0, ffMap = 0;
    int designs = 0;
  } kernels, apps;

  // Every (benchmark, method) pair is independent: fan the whole grid out
  // on the flow job pool and assemble rows from the ordered results.
  const std::vector<workloads::Benchmark> benchmarks =
      bench::selectedBenchmarks(scale);
  const flow::Method methods[3] = {flow::Method::HlsTool,
                                   flow::Method::MilpBase,
                                   flow::Method::MilpMap};
  std::vector<flow::FlowJob> jobs;
  for (const auto& bm : benchmarks) {
    for (const flow::Method m : methods) jobs.push_back({&bm, m});
  }
  std::cerr << "[table1] running " << benchmarks.size()
            << " benchmarks x 3 methods (LAMP_JOBS="
            << (workers > 0 ? std::to_string(workers) : std::string("auto"))
            << ")...\n";
  const std::vector<flow::FlowResult> all =
      flow::runFlowJobs(jobs, opts, workers);

  bool first = true;
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    const auto& bm = benchmarks[b];
    if (!first) table.addRule();
    first = false;
    flow::BenchmarkResults r;
    r.hls = all[b * 3 + 0];
    r.milpBase = all[b * 3 + 1];
    r.milpMap = all[b * 3 + 2];
    const flow::FlowResult* rows[3] = {&r.hls, &r.milpBase, &r.milpMap};
    for (const flow::FlowResult* f : rows) {
      if (!f->success) {
        table.addRow({bm.name, bm.domain, std::string(methodName(f->method)),
                      "-", "-", "-", "-", "-", "-", "FAILED: " + f->error});
        continue;
      }
      const bool base = f->method == flow::Method::HlsTool;
      table.addRow(
          {bm.name, bm.domain, std::string(methodName(f->method)),
           report::fixed(f->area.cpNs), std::to_string(f->area.luts),
           base ? "" : report::pctDelta(f->area.luts, r.hls.area.luts),
           std::to_string(f->area.ffs),
           base ? "" : report::pctDelta(f->area.ffs, r.hls.area.ffs),
           std::to_string(f->area.stages),
           std::string(lp::solveStatusName(f->status)) +
               (f->functionallyVerified ? " ok" : "")});
    }
    if (r.hls.success && r.milpBase.success && r.milpMap.success) {
      Agg& a = bm.domain == "Kernel" ? kernels : apps;
      a.lutHls += r.hls.area.luts;
      a.lutBase += r.milpBase.area.luts;
      a.lutMap += r.milpMap.area.luts;
      a.ffHls += r.hls.area.ffs;
      a.ffBase += r.milpBase.area.ffs;
      a.ffMap += r.milpMap.area.ffs;
      ++a.designs;
    }
  }

  std::cout << "\nTable 1: resource usage comparison (Tcp = 10 ns, II = 1)\n"
            << "Percentages are relative to the HLS-tool row.\n\n";
  if (bench::envCsv()) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }

  const auto aggregate = [&](const char* label, const Agg& a) {
    if (a.designs == 0) return;
    std::cout << "\n" << label << " (" << a.designs << " designs):\n";
    std::cout << "  MILP-map vs HLS tool:  LUT "
              << report::pctDelta(a.lutMap, a.lutHls) << ", FF "
              << report::pctDelta(a.ffMap, a.ffHls) << "\n";
    std::cout << "  MILP-base vs HLS tool: LUT "
              << report::pctDelta(a.lutBase, a.lutHls) << ", FF "
              << report::pctDelta(a.ffBase, a.ffHls) << "\n";
    std::cout << "  MILP-map vs MILP-base: FF "
              << report::pctDelta(a.ffMap, a.ffBase) << "\n";
  };
  aggregate("Section 4.1 aggregate - kernels", kernels);
  aggregate("Section 4.2 aggregate - applications", apps);

  std::cout << "\nPaper shape check: MILP-map should cut FFs sharply on "
               "every design,\nhold or reduce LUTs, and MILP-base alone "
               "should show little of either.\n";
  return 0;
}
