// lamp-lint — standalone pre-solve static analysis of CDFGs.
//
//   lamp-lint [options] <input>
//   lamp-lint --explain LAMPnnn
//
//   <input>          a .lamp graph file (ir::writeText format) or a
//                    built-in benchmark name (CLZ, XORR, GFMUL, CORDIC,
//                    MT, AES, RS, DR, GSM)
//   --ii=N           requested initiation interval (default 1)
//   --max-ii=N       largest II the caller would accept; MII bounds in
//                    (ii, max-ii] are Warnings, beyond it Errors.
//                    Default ii+8, matching flow::runFlow's retry window.
//                    Pass --max-ii equal to --ii for a strict lint.
//   --tcp=NS         target clock period in ns (default 10)
//   --k=K            LUT input count for the cone check (default 4)
//   --base           lint for the mapping-agnostic arms (unmappable
//                    cones downgrade from Error to Warning)
//   --no-schedspace  skip the schedule-space pass (LAMP017-LAMP020)
//   --analyze-budget-ms=N
//                    probing budget for the schedule-space pass in
//                    milliseconds (default 50); partial results are sound
//   --max-latency=N  hard pipeline-latency bound (cycles) for the
//                    schedule-space pass; default derives it from the
//                    SDC schedule plus one cycle of margin
//   --mem-ports=N    cap the MemPortA resource class at N concurrent
//                    ops per II (file inputs carry no limits otherwise)
//   --paper-scale    use paper-sized benchmark instances
//   --json           machine-readable report on stdout
//   --Werror         treat Warning findings as Errors (exit 1)
//   --explain CODE   print the catalog entry for one diagnostic code
//                    (e.g. --explain LAMP018) and exit
//
// --ii, --tcp, --k, --no-schedspace and --analyze-budget-ms come from
// the option table lampd reads requests with (src/flow/flow_json.cpp; a
// bad value is a usage error with lampd's message) and configure the
// passes through flow::analysisOptions, the flow's own gate.
//
// Runs every pass in analyze::passRegistry() and prints the findings.
// Exit codes (CI-friendly, like compilers):
//   0  clean — no Errors and no Warnings (Infos allowed)
//   1  at least one Error-severity finding (or any Warning with --Werror)
//   2  Warnings only, no Errors
//   3  usage / input errors (including an unknown --explain code)
// The same engine gates flow::runFlow and lampd admission, so a clean
// lint means the solver will actually be tried.

#include <iostream>
#include <string>

#include "analyze/analyze.h"
#include "flow/flow.h"
#include "flow/flow_json.h"
#include "util/parse.h"
#include "workloads/workloads.h"

using namespace lamp;

namespace {

struct Args {
  std::string input;
  std::string explainCode;
  /// The flow options the analysis reads (flow::analysisOptions).
  flow::FlowOptions opts;
  int maxIi = -1;  // -1: the flow's retry window, ii + 8
  bool base = false;
  bool paperScale = false;
  bool json = false;
  bool werror = false;
  int maxLatency = 0;  // <= 0: derive from the SDC schedule
  int memPorts = -1;   // < 0: keep the input's own resource limits
};

bool parseArgs(int argc, char** argv, Args& a, std::string& err) {
  util::ArgParser cli;
  flow::addAnalysisFlags(cli, a.opts);
  cli.number("max-ii", a.maxIi);
  cli.flag("base", a.base);
  cli.number("max-latency", a.maxLatency);
  cli.number("mem-ports", a.memPorts);
  cli.flag("paper-scale", a.paperScale);
  cli.flag("json", a.json);
  cli.flag("Werror", a.werror);
  cli.text("explain", a.explainCode, util::FlagValue::Spaced);
  cli.positional(a.input);
  if (!cli.parse(argc, argv, err)) return false;
  if (!a.explainCode.empty()) return true;  // no input needed
  if (a.input.empty()) {
    err = "no input; pass a benchmark name or a .lamp graph file";
    return false;
  }
  if (const auto bad = flow::optionsError(a.opts)) {
    err = *bad;
    return false;
  }
  return true;
}

int explainCode(const std::string& code) {
  const analyze::CodeInfo* info = analyze::findCode(code);
  if (info == nullptr) {
    std::cerr << "lamp-lint: unknown diagnostic code '" << code
              << "'; known codes are LAMP001..LAMP"
              << (analyze::codeCatalog().size() < 10 ? "00" : "0")
              << analyze::codeCatalog().size() << "\n";
    return 3;
  }
  std::cout << info->code << ": " << info->summary << "\n\n"
            << info->description << "\n\nhint: " << info->hint << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::string err;
  if (!parseArgs(argc, argv, a, err)) {
    std::cerr << "lamp-lint: " << err << "\n";
    return 3;
  }
  if (!a.explainCode.empty()) return explainCode(a.explainCode);
  const auto bm = workloads::loadBenchmark(
      a.input,
      a.paperScale ? workloads::Scale::Paper : workloads::Scale::Default, err);
  if (!bm) {
    std::cerr << "lamp-lint: " << err << "\n";
    return 3;
  }

  analyze::AnalysisOptions ao = flow::analysisOptions(
      *bm, a.base ? flow::Method::MilpBase : flow::Method::MilpMap, a.opts);
  if (a.maxIi >= 0) ao.maxIi = a.maxIi;
  if (a.memPorts >= 0) ao.resources[ir::ResourceClass::MemPortA] = a.memPorts;
  ao.maxLatency = a.maxLatency;

  const analyze::AnalysisReport report = analyze::analyzeGraph(bm->graph, ao);
  if (a.json) {
    analyze::reportToJson(bm->graph, report).write(std::cout);
    std::cout << "\n";
  } else {
    std::cout << analyze::renderReport(bm->graph, report);
  }
  const std::size_t warnings = report.count(analyze::Severity::Warning);
  if (report.hasErrors() || (a.werror && warnings > 0)) return 1;
  return warnings > 0 ? 2 : 0;
}
