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
// Runs every pass in analyze::passRegistry() and prints the findings.
// Exit codes (CI-friendly, like compilers):
//   0  clean — no Errors and no Warnings (Infos allowed)
//   1  at least one Error-severity finding (or any Warning with --Werror)
//   2  Warnings only, no Errors
//   3  usage / input errors (including an unknown --explain code)
// The same engine gates flow::runFlow and lampd admission, so a clean
// lint means the solver will actually be tried.

#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "analyze/analyze.h"
#include "ir/passes.h"
#include "util/parse.h"
#include "workloads/workloads.h"

using namespace lamp;

namespace {

struct Args {
  std::string input;
  std::string explainCode;
  int ii = 1;
  int maxIi = -1;  // -1: default to ii + 8
  double tcp = 10.0;
  int k = 4;
  bool mappingAware = true;
  bool paperScale = false;
  bool json = false;
  bool werror = false;
  bool schedSpace = true;
  int analyzeBudgetMs = 50;
  int maxLatency = 0;  // <= 0: derive from the SDC schedule
  int memPorts = -1;   // < 0: keep the input's own resource limits
};

bool parseArgs(int argc, char** argv, Args& a, std::string& err) {
  const auto valueOf = [](const std::string& s) {
    const auto eq = s.find('=');
    return eq == std::string::npos ? std::string() : s.substr(eq + 1);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--ii=", 0) == 0) {
      if (!util::parseFlag(s, a.ii, err)) return false;
    } else if (s.rfind("--max-ii=", 0) == 0) {
      if (!util::parseFlag(s, a.maxIi, err)) return false;
    } else if (s.rfind("--tcp=", 0) == 0) {
      if (!util::parseFlag(s, a.tcp, err)) return false;
    } else if (s.rfind("--k=", 0) == 0) {
      if (!util::parseFlag(s, a.k, err)) return false;
    } else if (s == "--base") {
      a.mappingAware = false;
    } else if (s == "--no-schedspace") {
      a.schedSpace = false;
    } else if (s.rfind("--analyze-budget-ms=", 0) == 0) {
      if (!util::parseFlag(s, a.analyzeBudgetMs, err)) return false;
    } else if (s.rfind("--max-latency=", 0) == 0) {
      if (!util::parseFlag(s, a.maxLatency, err)) return false;
    } else if (s.rfind("--mem-ports=", 0) == 0) {
      if (!util::parseFlag(s, a.memPorts, err)) return false;
    } else if (s == "--paper-scale") {
      a.paperScale = true;
    } else if (s == "--json") {
      a.json = true;
    } else if (s == "--Werror") {
      a.werror = true;
    } else if (s == "--explain") {
      if (i + 1 >= argc) {
        err = "--explain needs a diagnostic code (e.g. LAMP018)";
        return false;
      }
      a.explainCode = argv[++i];
    } else if (s.rfind("--explain=", 0) == 0) {
      a.explainCode = valueOf(s);
    } else if (s.rfind("--", 0) == 0) {
      err = "unknown option " + s;
      return false;
    } else if (a.input.empty()) {
      a.input = s;
    } else {
      err = "multiple inputs given";
      return false;
    }
  }
  if (!a.explainCode.empty()) return true;  // no input needed
  if (a.input.empty()) {
    err = "no input; pass a benchmark name or a .lamp graph file";
    return false;
  }
  if (a.ii < 1) {
    err = "--ii must be >= 1";
    return false;
  }
  return true;
}

std::optional<workloads::Benchmark> loadInput(const Args& a,
                                              std::string& err) {
  const auto scale =
      a.paperScale ? workloads::Scale::Paper : workloads::Scale::Default;
  for (auto& bm : workloads::allBenchmarks(scale)) {
    if (bm.name == a.input) return std::move(bm);
  }
  std::ifstream in(a.input);
  if (!in) {
    err = "'" + a.input + "' is neither a benchmark name nor a readable file";
    return std::nullopt;
  }
  auto g = ir::readText(in, &err);
  if (!g) {
    err = "parse error in " + a.input + ": " + err;
    return std::nullopt;
  }
  return workloads::benchmarkFromGraph(std::move(*g), a.input);
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
  const auto bm = loadInput(a, err);
  if (!bm) {
    std::cerr << "lamp-lint: " << err << "\n";
    return 3;
  }

  analyze::AnalysisOptions ao;
  ao.ii = a.ii;
  ao.maxIi = a.maxIi < 0 ? a.ii + 8 : a.maxIi;
  ao.tcpNs = a.tcp;
  ao.k = a.k;
  ao.mappingAware = a.mappingAware;
  ao.resources = bm->resources;
  if (a.memPorts >= 0) ao.resources[ir::ResourceClass::MemPortA] = a.memPorts;
  ao.schedSpace = a.schedSpace;
  ao.analyzeBudgetMs = a.analyzeBudgetMs;
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
