// lamp-conv — renders the MILP solver's convergence telemetry as a
// gap-vs-time report.
//
//   lamp-conv FILE [--json]
//   lamp-conv -    [--json]      read the document from stdin
//
// FILE is any JSON document that carries a flow result: the output of
// `lampc --emit-json`, a daemon response line, or a bare
// flow::resultToJson object. The solver's bounded convergence stream
// (result.solver.convergence, recorded by the branch & bound core —
// see lp::ConvergenceEvent) is rendered as a table of incumbent /
// dual-bound improvements over solve time with the optimality gap at
// each step, followed by per-worker steal/prune totals:
//
//       t(s)  event      value           gap%
//     0.0001  incumbent  184.5           --      (warm start)
//     0.0154  incumbent  171.0           --
//     0.0203  bound      158.2           7.49
//     ...
//
// The gap column is (incumbent - bound) / |incumbent|; it is printed
// once both sides exist and never increases on a correct solver run.
// --json emits a machine-readable summary instead of the table.
//
// Exit codes: 0 report rendered; 1 unreadable/unrecognized input;
// 2 the result carries no convergence telemetry (heuristic flow, or a
// result cached before telemetry existed).

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/parse.h"

using namespace lamp;
using util::Json;

namespace {

struct Event {
  double t = 0.0;
  std::string kind;
  double value = 0.0;
  double aux = 0.0;
  int worker = -1;
};

/// Locates the flow-result object inside whatever document shape the
/// caller handed us (CLI emit, daemon response, or the result itself).
const Json* findResult(const Json& doc) {
  if (!doc.isObject()) return nullptr;
  if (const Json* r = doc.find("result"); r != nullptr && r->isObject()) {
    return r;
  }
  if (doc.find("solver") != nullptr) return &doc;
  return nullptr;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool jsonOut = false;
  util::ArgParser cli;
  cli.flag("json", jsonOut);
  cli.positional(path);
  if (std::string err; !cli.parse(argc, argv, err)) {
    std::cerr << "lamp-conv: " << err << "\n";
    return 1;
  }
  if (path.empty()) {
    std::cerr << "usage: lamp-conv FILE|- [--json]\n";
    return 1;
  }

  std::string text;
  if (path == "-") {
    std::stringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "lamp-conv: cannot read " << path << "\n";
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }

  std::string parseError;
  const auto doc = Json::parse(text, &parseError);
  if (!doc) {
    std::cerr << "lamp-conv: " << parseError << "\n";
    return 1;
  }
  const Json* result = findResult(*doc);
  const Json* solver =
      result != nullptr ? result->find("solver") : nullptr;
  if (solver == nullptr || !solver->isObject()) {
    std::cerr << "lamp-conv: no flow result (with a \"solver\" object) in "
              << path << "\n";
    return 1;
  }
  const Json* conv = solver->find("convergence");
  if (conv == nullptr || !conv->isArray() || conv->size() == 0) {
    std::cerr << "lamp-conv: result carries no convergence telemetry "
                 "(heuristic flow, or cached before telemetry existed)\n";
    return 2;
  }

  std::vector<Event> events;
  events.reserve(conv->size());
  for (std::size_t i = 0; i < conv->size(); ++i) {
    const Json& e = conv->at(i);
    if (!e.isObject()) continue;
    Event ev;
    if (const Json* f = e.find("t")) ev.t = f->asDouble();
    if (const Json* f = e.find("kind")) ev.kind = f->asString();
    if (const Json* f = e.find("value")) ev.value = f->asDouble();
    if (const Json* f = e.find("aux")) ev.aux = f->asDouble();
    if (const Json* f = e.find("worker")) {
      ev.worker = static_cast<int>(f->asInt(-1));
    }
    events.push_back(std::move(ev));
  }

  // Walk the stream once, tracking the best incumbent / dual bound seen
  // so far; the gap column exists once both sides do.
  double incumbent = std::nan("");
  double bound = std::nan("");
  int nIncumbents = 0, nBounds = 0, nNodeSamples = 0;
  double finalGap = std::nan("");
  std::vector<Event> workers;

  const auto gapOf = [&]() -> double {
    if (std::isnan(incumbent) || std::isnan(bound)) return std::nan("");
    const double denom = std::max(std::fabs(incumbent), 1e-9);
    return (incumbent - bound) / denom * 100.0;
  };

  if (!jsonOut) {
    std::printf("%10s  %-10s %-14s %8s\n", "t(s)", "event", "value", "gap%");
  }
  for (const Event& ev : events) {
    bool show = !jsonOut;
    if (ev.kind == "incumbent") {
      incumbent = ev.value;
      ++nIncumbents;
    } else if (ev.kind == "bound") {
      bound = ev.value;
      ++nBounds;
    } else if (ev.kind == "nodes") {
      ++nNodeSamples;
      show = false;  // sampled open-node counts stay out of the table
    } else if (ev.kind == "worker") {
      workers.push_back(ev);
      show = false;
    }
    const double gap = gapOf();
    if (!std::isnan(gap)) finalGap = gap;
    if (show) {
      std::printf("%10.4f  %-10s %-14s %8s\n", ev.t, ev.kind.c_str(),
                  fmt(ev.value).c_str(),
                  std::isnan(gap) ? "--" : fmt(gap).c_str());
    }
  }

  const Json* dropped = solver->find("convergenceDropped");
  const std::int64_t nDropped = dropped != nullptr ? dropped->asInt(0) : 0;

  if (jsonOut) {
    Json out = Json::object();
    out.set("events", Json::integer(static_cast<std::int64_t>(events.size())));
    out.set("incumbents", Json::integer(nIncumbents));
    out.set("bounds", Json::integer(nBounds));
    out.set("nodeSamples", Json::integer(nNodeSamples));
    out.set("workers", Json::integer(static_cast<std::int64_t>(workers.size())));
    if (!std::isnan(finalGap)) out.set("finalGapPercent", Json::number(finalGap));
    if (!std::isnan(incumbent)) out.set("incumbent", Json::number(incumbent));
    if (!std::isnan(bound)) out.set("bound", Json::number(bound));
    if (nDropped > 0) out.set("dropped", Json::integer(nDropped));
    std::cout << out.dump() << "\n";
    return 0;
  }

  if (!workers.empty()) {
    std::printf("\nworkers:\n");
    for (const Event& w : workers) {
      std::printf("  worker %d: %s steals, %s pruned (exit %.4fs)\n",
                  w.worker, fmt(w.value).c_str(), fmt(w.aux).c_str(), w.t);
    }
  }
  std::printf("\n%d incumbent(s), %d bound update(s), %d node sample(s)",
              nIncumbents, nBounds, nNodeSamples);
  if (!std::isnan(finalGap)) std::printf(", final gap %s%%", fmt(finalGap).c_str());
  if (nDropped > 0) {
    std::printf(" (%lld events dropped at the recorder cap)",
                static_cast<long long>(nDropped));
  }
  std::printf("\n");
  return 0;
}
