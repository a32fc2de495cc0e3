// Reproduces Table 2 of the paper: MILP solver runtime per benchmark for
// MILP-base vs MILP-map, plus instance sizes (our analogue of the paper's
// "LLVM Instrs" column is the CDFG node count). The paper capped CPLEX at
// 60 minutes and reported the cap for the hard instances; LAMP_TIME_LIMIT
// plays that role here (MILP-map should be dramatically slower and hit
// the cap on the hard designs — that asymmetry is the claim).

#include <iostream>

#include "bench_util.h"
#include "report/table.h"

using namespace lamp;

int main() {
  const auto scale = bench::envScale();
  flow::FlowOptions opts;
  opts.solverTimeLimitSeconds = bench::envTimeLimit(20.0);
  opts.verifyFrames = 0;  // Table 2 measures solver runtime only
  opts.solverThreads = bench::envThreads(1);
  const int workers = bench::envJobs();

  report::Table table({"Design", "CDFG Nodes", "Cuts", "MILP vars",
                       "MILP rows", "MILP-base (s)", "MILP-map (s)",
                       "base status", "map status"});

  // The base and map arms of every benchmark are independent solver runs:
  // run the whole (benchmark x method) grid on the flow job pool.
  const std::vector<workloads::Benchmark> benchmarks =
      bench::selectedBenchmarks(scale);
  std::vector<flow::FlowJob> jobs;
  for (const auto& bm : benchmarks) {
    jobs.push_back({&bm, flow::Method::MilpBase});
    jobs.push_back({&bm, flow::Method::MilpMap});
  }
  std::cerr << "[table2] running " << benchmarks.size()
            << " benchmarks x 2 MILP arms (LAMP_JOBS="
            << (workers > 0 ? std::to_string(workers) : std::string("auto"))
            << ")...\n";
  const std::vector<flow::FlowResult> all =
      flow::runFlowJobs(jobs, opts, workers);

  double sumBase = 0, sumMap = 0, sumNodes = 0;
  int count = 0;
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    const auto& bm = benchmarks[b];
    const flow::FlowResult& base = all[b * 2 + 0];
    const flow::FlowResult& mapr = all[b * 2 + 1];
    table.addRow({bm.name, std::to_string(bm.graph.size()),
                  std::to_string(mapr.numCuts), std::to_string(mapr.numVars),
                  std::to_string(mapr.numConstraints),
                  report::fixed(base.phases.milpSolve, 1),
                  report::fixed(mapr.phases.milpSolve, 1),
                  std::string(lp::solveStatusName(base.status)),
                  std::string(lp::solveStatusName(mapr.status))});
    sumBase += base.phases.milpSolve;
    sumMap += mapr.phases.milpSolve;
    sumNodes += static_cast<double>(bm.graph.size());
    ++count;
  }
  table.addRule();
  table.addRow({"Mean", report::fixed(sumNodes / count, 1), "", "", "",
                report::fixed(sumBase / count, 1),
                report::fixed(sumMap / count, 1), "", ""});

  std::cout << "\nTable 2: MILP solver runtime per benchmark (cap "
            << opts.solverTimeLimitSeconds << " s, the paper capped CPLEX "
            << "at 3600 s)\n\n";
  if (bench::envCsv()) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nPaper shape check: MILP-map runtime >> MILP-base runtime, "
               "growing with the\nnumber of enumerated cuts; hard instances "
               "hit the cap and return incumbents\n(status 'feasible'), "
               "exactly as the paper's 3600 s rows.\n";
  return 0;
}
