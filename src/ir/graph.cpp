#include "ir/graph.h"

#include <array>
#include <utility>

namespace lamp::ir {

namespace {

struct KindInfo {
  OpKind kind;
  std::string_view name;
  OpClass cls;
};

constexpr std::array<KindInfo, 27> kKindTable = {{
    {OpKind::Input, "input", OpClass::Io},
    {OpKind::Output, "output", OpClass::Io},
    {OpKind::Const, "const", OpClass::Io},
    {OpKind::And, "and", OpClass::Bitwise},
    {OpKind::Or, "or", OpClass::Bitwise},
    {OpKind::Xor, "xor", OpClass::Bitwise},
    {OpKind::Not, "not", OpClass::Bitwise},
    {OpKind::Shl, "shl", OpClass::Shift},
    {OpKind::Shr, "shr", OpClass::Shift},
    {OpKind::AShr, "ashr", OpClass::Shift},
    {OpKind::Slice, "slice", OpClass::Shift},
    {OpKind::Concat, "concat", OpClass::Shift},
    {OpKind::ZExt, "zext", OpClass::Shift},
    {OpKind::SExt, "sext", OpClass::Shift},
    {OpKind::Add, "add", OpClass::Arith},
    {OpKind::Sub, "sub", OpClass::Arith},
    {OpKind::Eq, "eq", OpClass::Arith},
    {OpKind::Ne, "ne", OpClass::Arith},
    {OpKind::Lt, "lt", OpClass::Arith},
    {OpKind::Le, "le", OpClass::Arith},
    {OpKind::Gt, "gt", OpClass::Arith},
    {OpKind::Ge, "ge", OpClass::Arith},
    {OpKind::Mux, "mux", OpClass::Mux},
    {OpKind::Mul, "mul", OpClass::BlackBox},
    {OpKind::Load, "load", OpClass::BlackBox},
    {OpKind::Store, "store", OpClass::BlackBox},
}};

}  // namespace

std::string_view opKindName(OpKind kind) {
  for (const KindInfo& info : kKindTable) {
    if (info.kind == kind) return info.name;
  }
  return "?";
}

bool parseOpKind(std::string_view name, OpKind& out) {
  for (const KindInfo& info : kKindTable) {
    if (info.name == name) {
      out = info.kind;
      return true;
    }
  }
  return false;
}

OpClass opClass(OpKind kind) {
  for (const KindInfo& info : kKindTable) {
    if (info.kind == kind) return info.cls;
  }
  return OpClass::Io;
}

bool isLutMappable(OpKind kind) {
  const OpClass cls = opClass(kind);
  return cls != OpClass::Io && cls != OpClass::BlackBox;
}

bool isBlackBox(OpKind kind) { return opClass(kind) == OpClass::BlackBox; }

std::string_view resourceClassName(ResourceClass rc) {
  switch (rc) {
    case ResourceClass::None: return "none";
    case ResourceClass::MemPortA: return "memA";
    case ResourceClass::MemPortB: return "memB";
    case ResourceClass::Dsp: return "dsp";
  }
  return "?";
}

NodeId Graph::add(Node node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  fanouts_.valid = false;
  return id;
}

std::vector<NodeId> Graph::outputs() const {
  std::vector<NodeId> result;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].kind == OpKind::Output) result.push_back(id);
  }
  return result;
}

std::vector<NodeId> Graph::inputs() const {
  std::vector<NodeId> result;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].kind == OpKind::Input) result.push_back(id);
  }
  return result;
}

const std::vector<std::vector<Graph::Fanout>>& Graph::fanouts() const {
  std::lock_guard<std::mutex> lock(fanouts_.mu);
  if (!fanouts_.valid) {
    fanouts_.lists.assign(nodes_.size(), {});
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      const Node& n = nodes_[id];
      for (std::uint32_t k = 0; k < n.operands.size(); ++k) {
        fanouts_.lists[n.operands[k].src].push_back(Fanout{id, k});
      }
    }
    fanouts_.valid = true;
  }
  return fanouts_.lists;
}

}  // namespace lamp::ir
