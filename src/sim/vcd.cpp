#include "sim/vcd.h"

#include <cctype>
#include <map>
#include <ostream>

#include "sim/pipeline_sim.h"

namespace lamp::sim {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpKind;
using sched::DelayModel;
using sched::Schedule;

namespace {

std::string vcdId(std::size_t k) {
  std::string id;
  do {
    id += static_cast<char>(33 + (k % 94));
    k /= 94;
  } while (k > 0);
  return id;
}

std::string bin(std::uint64_t v, std::uint16_t width) {
  std::string s = "b";
  for (int b = width - 1; b >= 0; --b) {
    s += ((v >> b) & 1) ? '1' : '0';
  }
  return s;
}

std::string vcdName(const Graph& g, NodeId v) {
  const Node& n = g.node(v);
  std::string name = "n" + std::to_string(v);
  if (!n.name.empty()) {
    name += "_";
    for (const char c : n.name) {
      name += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
    }
  }
  return name;
}

}  // namespace

bool writeVcd(std::ostream& os, const Graph& g, const Schedule& s,
              const DelayModel& dm, const std::vector<InputFrame>& frames,
              Memory* memory, const VcdOptions& opts, std::string* error) {
  // Which nodes appear in the trace.
  std::vector<bool> traced(g.size(), false);
  for (NodeId v = 0; v < g.size(); ++v) {
    const Node& n = g.node(v);
    if (n.kind == OpKind::Const || n.width == 0) continue;
    if (!opts.includeAbsorbed && !s.isRoot(v) && n.kind != OpKind::Input) {
      continue;
    }
    traced[v] = true;
  }

  os << "$timescale " << opts.timescale << " $end\n";
  os << "$scope module " << (g.name().empty() ? "lamp" : g.name())
     << " $end\n";
  std::vector<std::string> idOf(g.size());
  std::size_t counter = 0;
  for (NodeId v = 0; v < g.size(); ++v) {
    if (!traced[v]) continue;
    idOf[v] = vcdId(counter++);
    os << "$var wire " << g.node(v).width << " " << idOf[v] << " "
       << vcdName(g, v) << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";

  // Execute and collect (clock -> value changes) at each value's ready
  // clock: its compute clock plus the node's latency.
  std::map<int, std::vector<std::pair<NodeId, std::uint64_t>>> changes;
  const PipelineRunResult run = runPipeline(
      g, s, dm, frames, memory, nullptr,
      [&](NodeId v, int k, std::uint64_t out) {
        if (!traced[v]) return;
        const int clock =
            k * s.ii +
            (g.node(v).kind == OpKind::Input ? 0 : s.cycle[v]) +
            dm.latencyCycles(g, v, s.tcpNs);
        changes[clock].emplace_back(v, out);
      });
  if (!run.ok) {
    if (error) *error = run.error;
    return false;
  }

  // Emit changes; later writes at the same time win (map preserves clock
  // order, vector preserves production order within a clock).
  std::vector<std::uint64_t> last(g.size(), ~0ull);
  for (const auto& [clock, list] : changes) {
    bool headerWritten = false;
    for (const auto& [v, val] : list) {
      if (last[v] == val) continue;
      if (!headerWritten) {
        os << "#" << clock << "\n";
        headerWritten = true;
      }
      os << bin(val, g.node(v).width) << " " << idOf[v] << "\n";
      last[v] = val;
    }
  }
  os << "#" << ((frames.size()) * s.ii + s.latency(g) + 1) << "\n";
  return true;
}

}  // namespace lamp::sim
