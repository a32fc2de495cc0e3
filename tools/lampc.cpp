// lampc — command-line driver for the lamp flows.
//
//   lampc [options] <input>
//
//   <input>                a .lamp graph file (ir::writeText format) or a
//                          built-in benchmark name (CLZ, XORR, GFMUL,
//                          CORDIC, MT, AES, RS, DR, GSM)
//   --method=hls|base|map|greedy   scheduling arm (default map)
//   --ii=N                 target initiation interval (default 1)
//   --tcp=NS               target clock period in ns (default 10)
//   --k=K                  LUT input count (default 4)
//   --cut-strategy=S       cut ranking: depth|area|support|balanced
//                          (default depth, the historical ordering)
//   --race-strategies      enumerate once per strategy and keep the
//                          database whose greedy covering costs least
//   --cut-threads=N        worker threads for cut enumeration (0 = one
//                          per hardware thread; output is identical at
//                          any thread count)
//   --alpha=A --beta=B     objective weights (default 0.5 / 0.5)
//   --time-limit=SEC       MILP wall-clock cap (default 20)
//   --threads=N            branch & bound worker threads for the MILP
//                          solver (default 0 = auto: one per hardware
//                          thread, capped at 8; 1 = one deterministic
//                          worker)
//   --emit-verilog[=FILE]  print the scheduled pipeline as Verilog
//   --emit-dot[=FILE]      print the CDFG in GraphViz format
//   --emit-lp[=FILE]       dump the MILP the flow solved at the final II
//                          in CPLEX LP format, built by the flow's own
//                          stages (base and map only; a usage error for
//                          hls and greedy, which solve no MILP)
//   --emit-vcd[=FILE]      simulate 16 iterations and dump a VCD waveform
//   --emit-json[=FILE]     print the flow result as JSON (same serializer
//                          as the lampd service protocol)
//   --emit-schedule        print the per-node schedule
//   --trace-out=FILE       enable the span tracer for the whole run and
//                          write a Chrome trace-event JSON file on exit
//                          (open in Perfetto or chrome://tracing);
//                          LAMP_TRACE=1 enables tracing without a file
//   --export=FILE          write the scheduled graph as .lamp text (the
//                          rewritten graph under --simplify)
//   --simplify             rewrite the graph with bit-level-analysis-proven
//                          simplifications before scheduling (the flow
//                          checks the rewrite by differential simulation;
//                          downstream emitters then describe the
//                          rewritten graph)
//   --emit-analysis[=FILE] print the per-node dataflow summary (known
//                          bits, range, demanded/live masks) as JSON;
//                          also attaches it to --emit-json output
//   --paper-scale          use paper-sized benchmark instances
//   --quiet                suppress the summary report
//   --analyze              run the pre-solve static analysis only (no
//                          solve); exits 1 when it finds Error-severity
//                          diagnostics — see src/analyze/ and lamp-lint
//   --no-schedspace        skip the schedule-space analysis (LAMP017-020
//                          findings and the MILP model reductions); the
//                          solver then builds the full historical model
//   --analyze-budget-ms=N  wall-clock budget for implication probing per
//                          candidate II (default 50); exceeded budgets
//                          keep the sound partial reductions
//   --json                 with --analyze, print the report as JSON
//   --certify              have the MILP solver write a lampproof
//                          derivation log and replay it with the exact
//                          rational checker (src/certify/) before the
//                          result is trusted; the certificate rides
//                          --emit-json output, and the run exits 2 when
//                          the certificate is anything but "verified"
//   --proof-out=FILE       write the lampproof text to FILE (implies
//                          --certify); feed it to lamp-certify to
//                          re-check the solve offline
//
// The flags that set flow options come from the option table lampd
// reads requests with (src/flow/flow_json.cpp): a bad value is a usage
// error with the message lampd answers the request with.
// Exit code 0 on success, 1 on any failure, 2 when --certify could not
// produce a verified certificate.

#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "flow/flow.h"
#include "flow/flow_json.h"
#include "ir/passes.h"
#include "map/area.h"
#include "obs/trace.h"
#include "rtl/verilog.h"
#include "sim/vcd.h"
#include "sched/greedy.h"
#include "util/parse.h"

using namespace lamp;

namespace {

struct Args {
  Args() { opts.solverThreads = 0; }  // auto

  std::string input;
  std::string method = "map";
  /// Flags that map onto the flow's options are parsed straight into it.
  flow::FlowOptions opts;
  std::optional<std::string> emitVerilog, emitDot, emitLp, emitVcd, emitJson;
  std::optional<std::string> emitAnalysis;
  std::optional<std::string> exportGraph;
  std::string traceOut;
  bool emitSchedule = false;
  bool paperScale = false;
  bool quiet = false;
  bool analyze = false;
  bool json = false;
  std::string proofOut;
};

bool parseArgs(int argc, char** argv, Args& a, std::string& err) {
  util::ArgParser cli;
  flow::addFlowFlags(cli, a.opts, &a.emitAnalysis);
  cli.text("method", a.method);
  cli.text("emit-verilog", a.emitVerilog, util::FlagValue::Optional);
  cli.text("emit-dot", a.emitDot, util::FlagValue::Optional);
  cli.text("emit-lp", a.emitLp, util::FlagValue::Optional);
  cli.text("emit-vcd", a.emitVcd, util::FlagValue::Optional);
  cli.text("emit-json", a.emitJson, util::FlagValue::Optional);
  cli.flag("emit-schedule", a.emitSchedule);
  cli.text("trace-out", a.traceOut, util::FlagValue::Path);
  cli.text("export", a.exportGraph);
  cli.flag("paper-scale", a.paperScale);
  cli.flag("quiet", a.quiet);
  cli.flag("analyze", a.analyze);
  cli.flag("json", a.json);
  cli.text("proof-out", a.proofOut, util::FlagValue::Path);
  cli.positional(a.input);
  if (!cli.parse(argc, argv, err)) return false;
  if (!a.proofOut.empty()) a.opts.certify = true;
  if (a.input.empty()) {
    err = "no input; pass a benchmark name or a .lamp graph file";
    return false;
  }
  return true;
}

/// Writes the Chrome trace on every exit path (including early errors),
/// so a failed run still leaves its partial trace behind.
struct TraceDump {
  std::string path;
  ~TraceDump() {
    if (path.empty()) return;
    std::ofstream out(path);
    if (out) {
      obs::writeChromeTrace(out);
    } else {
      std::cerr << "lampc: cannot write trace to '" << path << "'\n";
    }
  }
};

void writeTo(const std::optional<std::string>& path,
             const std::function<void(std::ostream&)>& fn) {
  if (path.has_value() && !path->empty()) {
    std::ofstream out(*path);
    fn(out);
  } else {
    fn(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::string err;
  if (!parseArgs(argc, argv, a, err)) {
    std::cerr << "lampc: " << err << "\n";
    return 1;
  }
  flow::FlowOptions& opts = a.opts;
  if (const auto bad = flow::optionsError(opts)) {
    std::cerr << "lampc: " << *bad << "\n";
    return 1;
  }
  if (a.emitLp && a.method != "base" && a.method != "map") {
    std::cerr << "lampc: --emit-lp needs a MILP method (base or map)\n";
    return 1;
  }

  TraceDump traceDump{a.traceOut};
  if (!a.traceOut.empty()) obs::setTraceEnabled(true);
  if (obs::traceEnabled()) obs::setThreadName("lampc-main");

  auto bm = workloads::loadBenchmark(
      a.input,
      a.paperScale ? workloads::Scale::Paper : workloads::Scale::Default, err);
  if (!bm) {
    std::cerr << "lampc: " << err << "\n";
    return 1;
  }

  if (a.emitDot) {
    writeTo(a.emitDot, [&](std::ostream& os) { ir::writeDot(os, bm->graph); });
    if (a.method.empty()) return 0;
  }

  if (a.analyze) {
    flow::Method m = flow::Method::MilpMap;
    if (a.method != "greedy" && !flow::parseMethodToken(a.method, m)) {
      std::cerr << "lampc: unknown method '" << a.method << "'\n";
      return 1;
    }
    const analyze::AnalysisReport report =
        analyze::analyzeGraph(bm->graph, flow::analysisOptions(*bm, m, opts));
    if (a.json) {
      analyze::reportToJson(bm->graph, report).write(std::cout);
      std::cout << "\n";
    } else {
      std::cout << analyze::renderReport(bm->graph, report);
    }
    return report.hasErrors() ? 1 : 0;
  }

  flow::FlowResult result;
  flow::Method flowMethod = flow::Method::MilpMap;
  if (flow::parseMethodToken(a.method, flowMethod)) {
    result = flow::runFlow(*bm, flowMethod, opts);
  } else if (a.method == "greedy") {
    const auto db = cut::enumerateCuts(bm->graph, opts.cuts);
    sched::SdcOptions go;
    go.tcpNs = opts.tcpNs;
    go.resources = bm->resources;
    sched::SdcResult r;
    for (go.ii = opts.ii; go.ii <= opts.ii + 8; ++go.ii) {
      r = sched::greedyMapSchedule(bm->graph, db, opts.delays, go);
      if (r.success) break;
    }
    if (!r.success) {
      std::cerr << "lampc: greedy scheduling failed: " << r.error << "\n";
      return 1;
    }
    result.success = true;
    result.method = flow::Method::MilpMap;
    result.schedule = r.schedule;
    result.area = map::evaluate(bm->graph, r.schedule, opts.delays);
  } else {
    std::cerr << "lampc: unknown method '" << a.method << "'\n";
    return 1;
  }

  if (!result.success) {
    std::cerr << "lampc: flow failed: " << result.error << "\n";
    return 1;
  }

  // With --simplify the schedule indexes the rewritten graph; every
  // graph-paired emitter below must use it, and NodeId-keyed input
  // frames must be routed through the rewrite's node map.
  const ir::Graph& sg = result.scheduleGraph(bm->graph);
  const auto makeFrames = [&](std::uint64_t count) {
    std::vector<sim::InputFrame> frames(count);
    for (std::uint64_t k = 0; k < count; ++k) {
      for (const auto& [id, v] : bm->makeInputs(k, 1)) {
        const ir::NodeId to =
            result.simplifyMap.empty() ? id : result.simplifyMap[id];
        if (to != ir::kNoNode) frames[k][to] = v;
      }
    }
    return frames;
  };
  if (opts.simplify && !a.quiet) {
    std::cerr << "simplify: " << bm->graph.size() << " -> " << sg.size()
              << " nodes\n";
  }
  if (a.exportGraph) {
    writeTo(a.exportGraph, [&](std::ostream& os) { ir::writeText(os, sg); });
  }

  if (a.emitAnalysis) {
    writeTo(a.emitAnalysis, [&](std::ostream& os) {
      analyze::dataflowToJson(result.analysis).write(os);
      os << "\n";
    });
  }

  if (a.emitJson) {
    util::Json doc = util::Json::object();
    doc.set("benchmark", util::Json::string(bm->name));
    doc.set("method", util::Json::string(a.method));
    doc.set("result", flow::resultToJson(result));
    writeTo(a.emitJson, [&](std::ostream& os) {
      doc.write(os);
      os << "\n";
    });
  }

  if (!a.quiet) {
    std::cout << bm->name << ": " << bm->graph.size() << " nodes, method "
              << a.method << ", II=" << result.schedule.ii << "\n"
              << "  LUTs " << result.area.luts << ", FFs " << result.area.ffs
              << ", stages " << result.area.stages << ", CP "
              << result.area.cpNs << " ns\n";
    if (opts.raceCutStrategies && a.method == "map") {
      std::cout << "  cut strategy: "
                << cut::cutStrategyName(result.cutStrategy)
                << " (won the race)\n";
    }
    if (opts.certify) {
      std::cout << "  certificate: "
                << (result.certificate.ran ? result.certificate.status
                                           : "absent")
                << " (claim " << result.certificate.claim << ", "
                << result.certificate.treeNodes << " tree nodes, checked in "
                << result.certificate.checkerMillis << " ms)\n";
      if (!result.certificate.verified &&
          !result.certificate.detail.empty()) {
        std::cout << "    " << result.certificate.detail << "\n";
      }
    }
    std::cout << map::timingSummary(result.area, opts.tcpNs);
  }
  if (a.emitSchedule) {
    for (ir::NodeId v = 0; v < sg.size(); ++v) {
      const ir::Node& n = sg.node(v);
      if (n.kind == ir::OpKind::Const) continue;
      std::cout << "  n" << v << " " << ir::opKindName(n.kind)
                << (n.name.empty() ? "" : " '" + n.name + "'") << " @ cycle "
                << result.schedule.cycle[v]
                << (result.schedule.isRoot(v) ? " [root]" : "") << "\n";
    }
  }
  if (a.emitVcd) {
    const std::vector<sim::InputFrame> frames = makeFrames(16);
    sim::Memory mem;
    if (bm->initMemory) bm->initMemory(mem);
    std::string vcdErr;
    bool ok = true;
    writeTo(a.emitVcd, [&](std::ostream& os) {
      ok = sim::writeVcd(os, sg, result.schedule, opts.delays, frames,
                         &mem, {}, &vcdErr);
    });
    if (!ok) {
      std::cerr << "lampc: VCD emission failed: " << vcdErr << "\n";
      return 1;
    }
  }
  if (a.emitVerilog) {
    writeTo(a.emitVerilog, [&](std::ostream& os) {
      rtl::emitVerilog(os, sg, result.schedule, opts.delays);
    });
  }
  if (a.emitLp) {
    std::optional<std::string> lpError;
    writeTo(a.emitLp, [&](std::ostream& os) {
      lpError = flow::writeMilpModel(os, *bm, flowMethod, opts,
                                     result.schedule.ii);
    });
    if (lpError) {
      std::cerr << "lampc: --emit-lp: " << *lpError << "\n";
      return 1;
    }
  }
  if (!a.proofOut.empty()) {
    std::ofstream out(a.proofOut);
    if (!out) {
      std::cerr << "lampc: cannot write proof to '" << a.proofOut << "'\n";
      return 1;
    }
    out << result.certificate.proof;
  }
  if (opts.certify && !result.certificate.verified) {
    std::cerr << "lampc: certificate not verified ("
              << (result.certificate.ran ? result.certificate.status
                                         : "absent")
              << "): " << result.certificate.detail << "\n";
    return 2;
  }
  return 0;
}
