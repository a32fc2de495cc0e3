#include "sim/interp.h"

#include <cassert>
#include <stdexcept>

#include "ir/eval.h"
#include "ir/passes.h"

namespace lamp::sim {

using ir::Edge;
using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpKind;

std::uint64_t Memory::read(ir::ResourceClass rc, std::uint64_t addr) const {
  const auto it = banks_.find(rc);
  if (it == banks_.end() || it->second.empty()) return 0;
  return it->second[addr % it->second.size()];
}

void Memory::write(ir::ResourceClass rc, std::uint64_t addr,
                   std::uint64_t value) {
  auto& bank = banks_[rc];
  if (bank.empty()) bank.resize(1024, 0);
  bank[addr % bank.size()] = value;
}

std::uint64_t evalOp(const Graph& g, NodeId v,
                     const std::vector<std::uint64_t>& ops, Memory* mem) {
  const Node& n = g.node(v);
  switch (n.kind) {
    case OpKind::Input:
      throw std::logic_error("evalOp on Input");
    case OpKind::Load:
      return ir::maskToWidth(mem ? mem->read(n.resourceClass(), ops[0]) : 0,
                             n.width);
    case OpKind::Store:
      if (mem) mem->write(n.resourceClass(), ops[0], ops[1]);
      return 0;
    default:
      return *ir::evalPureOp(g, v, ops);
  }
}

Interpreter::Interpreter(const Graph& g)
    : g_(g), order_(ir::topologicalOrder(g)) {
  for (NodeId v = 0; v < g.size(); ++v) {
    for (const Edge& e : g.node(v).operands) {
      maxDist_ = std::max(maxDist_, e.dist);
    }
  }
  reset();
}

void Interpreter::reset() {
  history_.assign(g_.size(),
                  std::vector<std::uint64_t>(maxDist_ + 1, 0));
  iteration_ = 0;
}

OutputFrame Interpreter::step(const InputFrame& inputs) {
  const std::size_t slot = iteration_ % (maxDist_ + 1);
  OutputFrame out;
  std::vector<std::uint64_t> ops;
  for (const NodeId v : order_) {
    const Node& n = g_.node(v);
    std::uint64_t value = 0;
    if (n.kind == OpKind::Input) {
      const auto it = inputs.find(v);
      value =
          ir::maskToWidth(it == inputs.end() ? 0 : it->second, n.width);
    } else {
      ops.clear();
      for (const Edge& e : n.operands) {
        if (e.dist == 0) {
          ops.push_back(history_[e.src][slot]);
        } else if (e.dist > iteration_) {
          ops.push_back(0);  // reset value of the register chain
        } else {
          const std::size_t past =
              (iteration_ - e.dist) % (maxDist_ + 1);
          ops.push_back(history_[e.src][past]);
        }
      }
      value = evalOp(g_, v, ops, &mem_);
    }
    history_[v][slot] = value;
    if (n.kind == OpKind::Output) out[v] = value;
  }
  ++iteration_;
  return out;
}

std::vector<OutputFrame> Interpreter::run(
    const std::vector<InputFrame>& frames) {
  std::vector<OutputFrame> result;
  result.reserve(frames.size());
  for (const InputFrame& f : frames) result.push_back(step(f));
  return result;
}

}  // namespace lamp::sim
