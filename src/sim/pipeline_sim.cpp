#include "sim/pipeline_sim.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "ir/eval.h"
#include "ir/passes.h"

namespace lamp::sim {

using ir::Edge;
using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpKind;
using sched::DelayModel;
using sched::Schedule;

PipelineRunResult runPipeline(const Graph& g, const Schedule& s,
                              const DelayModel& dm,
                              const std::vector<InputFrame>& frames,
                              Memory* memory,
                              const cut::CutDatabase* cuts,
                              const ValueCallback& onValue) {
  PipelineRunResult res;
  const int iterations = static_cast<int>(frames.size());
  const auto order = ir::topologicalOrder(g);

  // Ready clock / finish ns of each node, per the schedule.
  std::vector<int> readyClk(g.size(), 0);
  std::vector<double> finishNs(g.size(), 0.0);
  std::vector<int> startClk(g.size(), 0);
  for (NodeId v = 0; v < g.size(); ++v) {
    const Node& n = g.node(v);
    if (n.kind == OpKind::Const) continue;
    const int cyc = n.kind == OpKind::Input ? 0 : s.cycle[v];
    startClk[v] = cyc;
    readyClk[v] = cyc + dm.latencyCycles(g, v, s.tcpNs);
    finishNs[v] = (n.kind == OpKind::Input ? 0.0 : s.startNs[v]) +
                  dm.remainderNs(g, v, s.tcpNs);
  }

  // Values per (node, iteration). maxDist bounds how far back reads go.
  std::uint32_t maxDist = 0;
  for (NodeId v = 0; v < g.size(); ++v) {
    for (const Edge& e : g.node(v).operands) maxDist = std::max(maxDist, e.dist);
  }
  const std::size_t ring = maxDist + 1;
  std::vector<std::vector<std::uint64_t>> value(
      g.size(), std::vector<std::uint64_t>(ring, 0));

  res.outputs.resize(iterations);
  std::vector<std::uint64_t> ops;

  // Lifetime bookkeeping for peak register pressure: a value produced at
  // clock r and last consumed at clock c occupies r..c-1.
  std::vector<int> lastUseClkRel(g.size(), 0);
  for (NodeId v = 0; v < g.size(); ++v) {
    const Node& n = g.node(v);
    if (n.kind == OpKind::Const) continue;
    for (const Edge& e : n.operands) {
      if (g.node(e.src).kind == OpKind::Const) continue;
      lastUseClkRel[e.src] =
          std::max(lastUseClkRel[e.src],
                   startClk[v] + static_cast<int>(e.dist) * s.ii);
    }
  }
  const int lastClock = (iterations - 1) * s.ii + s.latency(g) + 8;
  std::vector<long long> liveDelta(std::max(lastClock + 2, 0), 0);

  for (int k = 0; k < iterations; ++k) {
    const std::size_t slot = k % ring;
    for (const NodeId v : order) {
      const Node& n = g.node(v);
      if (n.kind == OpKind::Const) {
        value[v][slot] = ir::maskToWidth(n.constValue, n.width);
        continue;
      }
      const int myClock = k * s.ii + startClk[v];
      std::uint64_t out = 0;
      if (n.kind == OpKind::Input) {
        const auto it = frames[k].find(v);
        out = ir::maskToWidth(it == frames[k].end() ? 0 : it->second,
                              n.width);
      } else {
        ops.clear();
        for (const Edge& e : n.operands) {
          const Node& u = g.node(e.src);
          if (u.kind == OpKind::Const) {
            // Reset applies at the edge, Const producers included: a
            // loop-carried read sees 0 until iteration e.dist (matches
            // sim::Interpreter; folding can rewire dist > 0 edges to
            // constants).
            ops.push_back(k < static_cast<int>(e.dist)
                              ? 0
                              : ir::maskToWidth(u.constValue, u.width));
            continue;
          }
          const int prodIter = k - static_cast<int>(e.dist);
          if (prodIter < 0) {
            ops.push_back(0);  // registers reset to 0
            continue;
          }
          // Dynamic readiness check (the hardware-legality assertion).
          const int prodClock = prodIter * s.ii + readyClk[e.src];
          if (prodClock > myClock) {
            std::ostringstream os;
            os << "iteration " << k << ": node " << v << " at clock "
               << myClock << " consumes node " << e.src
               << " not ready until clock " << prodClock;
            res.error = os.str();
            return res;
          }
          ops.push_back(value[e.src][prodIter % ring]);
        }
        out = evalOp(g, v, ops, memory);

        // Same-clock chaining order along selected cut boundaries: the
        // boundary value must be stable before this root's LUT (or port)
        // starts evaluating.
        if (cuts != nullptr && s.isRoot(v)) {
          const cut::Cut& c = cuts->at(v).cuts[s.selectedCut[v]];
          for (const cut::CutElement& e : c.elements) {
            const Node& u = g.node(e.node);
            if (u.kind == OpKind::Const) continue;
            const int prodIter = k - static_cast<int>(e.dist);
            if (prodIter < 0) continue;
            const int prodClock = prodIter * s.ii + readyClk[e.node];
            if (prodClock == myClock &&
                finishNs[e.node] > s.startNs[v] + 1e-6) {
              std::ostringstream os;
              os << "iteration " << k << ": same-clock chaining order "
                 << "violated between nodes " << e.node << " and " << v;
              res.error = os.str();
              return res;
            }
          }
        }
      }
      value[v][slot] = out;
      if (onValue) onValue(v, k, out);
      if (n.kind == OpKind::Output) res.outputs[k][v] = out;

      // Register pressure: live from ready clock to last use.
      if (n.width > 0 && n.kind != OpKind::Output) {
        const int from = k * s.ii + readyClk[v];
        const int to = k * s.ii + lastUseClkRel[v];
        if (to > from && from <= lastClock) {
          liveDelta[from] += n.width;
          liveDelta[std::min(to, lastClock + 1)] -= n.width;
        }
      }
    }
  }

  long long live = 0, peak = 0;
  for (int c = 0; c <= lastClock + 1; ++c) {
    live += liveDelta[c];
    peak = std::max(peak, live);
  }
  res.peakLiveBits = static_cast<int>(peak);
  res.clocksSimulated = lastClock + 1;
  res.ok = true;
  return res;
}

}  // namespace lamp::sim
