#ifndef LAMP_IR_GRAPH_H
#define LAMP_IR_GRAPH_H

/// \file graph.h
/// Word-level control/data-flow graph (CDFG) used by the mapping-aware
/// modulo scheduler. Nodes are word-level operations with bit widths;
/// edges carry an inter-iteration dependence distance (0 = same loop
/// iteration, >0 = value produced `dist` iterations earlier).

#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lamp::ir {

/// Identifier of a node inside one Graph. Stable for the Graph's lifetime
/// (nodes are never removed, only added).
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Word-level operation kinds.
///
/// Three delay/mapping classes exist (see OpClass):
///  - LUT-mappable logic (bitwise, shifts-by-constant, bit rearrangement,
///    narrow arithmetic) — participates in cut enumeration;
///  - arithmetic that maps to carry chains when wide;
///  - black-box operations (memory/DSP) that never map into LUT cones.
enum class OpKind : std::uint8_t {
  // Primary inputs / outputs / constants.
  Input,   ///< primary input (live-in value), no operands
  Output,  ///< primary output marker, one operand, width = operand width
  Const,   ///< compile-time constant, no operands

  // Bitwise logic: out[j] depends on in_i[j] only.
  And,
  Or,
  Xor,
  Not,

  // Shifts by a *constant* amount (attr0 = shift amount):
  // out[j] depends on a single shifted input bit.
  Shl,   ///< logical shift left
  Shr,   ///< logical shift right
  AShr,  ///< arithmetic shift right (sign fill)

  // Bit rearrangement (free wiring on an FPGA, still tracked for deps).
  Slice,   ///< out = in[attr0 + width - 1 : attr0]
  Concat,  ///< out = {op0, op1} with op0 in the high bits
  ZExt,    ///< zero-extend to `width`
  SExt,    ///< sign-extend to `width`

  // Arithmetic: out[j] depends on all bits <= j of both operands.
  Add,
  Sub,

  // Comparisons: 1-bit result depending on (generically) all input bits.
  // Bit-level dependence tracking special-cases sign tests (x < 0, x >= 0)
  // and comparisons against constants.
  Eq,
  Ne,
  Lt,  ///< signedness from Node::isSigned
  Le,
  Gt,
  Ge,

  // Selection: out[j] depends on {sel[0], a[j], b[j]}.
  Mux,  ///< operands: (sel, a, b); out = sel ? a : b

  // Black boxes — never LUT-mapped, may be resource constrained.
  Mul,   ///< DSP multiply
  Load,  ///< memory read  (attr0 = resource class)
  Store, ///< memory write (attr0 = resource class); width 0 result
};

/// Returns a short lowercase mnemonic ("xor", "add", ...).
std::string_view opKindName(OpKind kind);

/// Parses a mnemonic produced by opKindName(); returns false on failure.
bool parseOpKind(std::string_view name, OpKind& out);

/// Coarse classification used by cut enumeration and the delay model.
enum class OpClass : std::uint8_t {
  Io,        ///< Input / Output / Const
  Bitwise,   ///< And/Or/Xor/Not
  Shift,     ///< Shl/Shr/AShr/Slice/Concat/ZExt/SExt — pure bit routing
  Arith,     ///< Add/Sub and comparisons
  Mux,       ///< Mux
  BlackBox,  ///< Mul/Load/Store
};

/// Maps an OpKind to its OpClass.
OpClass opClass(OpKind kind);

/// True for operations that may be absorbed into a LUT cone
/// (everything except Io and BlackBox).
bool isLutMappable(OpKind kind);

/// True for Mul/Load/Store.
bool isBlackBox(OpKind kind);

/// Resource classes for black-box operations (Eq. 14 of the paper).
enum class ResourceClass : std::uint8_t {
  None = 0,     ///< unconstrained
  MemPortA = 1, ///< memory port (one access per cycle per port)
  MemPortB = 2,
  Dsp = 3,      ///< DSP multiplier block
};

/// Returns a short name for a resource class.
std::string_view resourceClassName(ResourceClass rc);

/// One operand reference: producing node plus inter-iteration distance.
struct Edge {
  NodeId src = kNoNode;
  std::uint32_t dist = 0;  ///< 0 = intra-iteration dependence

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// A word-level CDFG node. Plain data; invariants are checked by verify().
struct Node {
  OpKind kind = OpKind::Const;
  std::uint16_t width = 1;      ///< result width in bits (0 for Store)
  bool isSigned = false;        ///< interpretation for AShr/SExt/compares
  std::int32_t attr0 = 0;       ///< shift amount / slice low bit / resource class
  std::uint64_t constValue = 0; ///< value for Const nodes
  std::vector<Edge> operands;
  std::string name;             ///< optional debug name

  /// Resource class for black-box nodes (stored in attr0).
  ResourceClass resourceClass() const {
    return static_cast<ResourceClass>(attr0);
  }
};

/// Word-level CDFG. Nodes are append-only; NodeIds index into nodes().
///
/// The graph represents one iteration of a pipelined loop body (or a
/// straight-line function). Edges with dist > 0 reference values produced
/// by earlier iterations (loop-carried dependences).
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}

  /// Appends a node and returns its id.
  NodeId add(Node node);

  /// Number of nodes.
  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  const Node& node(NodeId id) const { return nodes_[id]; }
  Node& node(NodeId id) { return nodes_[id]; }

  std::span<const Node> nodes() const { return nodes_; }

  const std::string& name() const { return name_; }
  void setName(std::string name) { name_ = std::move(name); }

  /// Ids of all Output nodes, in insertion order.
  std::vector<NodeId> outputs() const;
  /// Ids of all Input nodes, in insertion order.
  std::vector<NodeId> inputs() const;

  /// Fanout adjacency: fanouts()[u] lists every (consumer, operand index).
  /// Recomputed on demand; invalidated by add(). Safe to call from
  /// several threads at once (flow jobs share one benchmark graph).
  struct Fanout {
    NodeId dst;
    std::uint32_t operandIndex;
  };
  const std::vector<std::vector<Fanout>>& fanouts() const;

  /// Count of nodes for which pred(node) holds.
  template <typename Pred>
  std::size_t count(Pred pred) const {
    std::size_t n = 0;
    for (const Node& node : nodes_) {
      if (pred(node)) ++n;
    }
    return n;
  }

 private:
  /// The lazily built fanouts(), read and built under `mu`. A copy
  /// starts empty and rebuilds on demand.
  struct FanoutCache {
    FanoutCache() = default;
    FanoutCache(const FanoutCache&) noexcept {}
    FanoutCache& operator=(const FanoutCache&) noexcept {
      valid = false;
      return *this;
    }
    std::mutex mu;
    bool valid = false;
    std::vector<std::vector<Fanout>> lists;
  };

  std::string name_;
  std::vector<Node> nodes_;
  mutable FanoutCache fanouts_;
};

}  // namespace lamp::ir

#endif  // LAMP_IR_GRAPH_H
