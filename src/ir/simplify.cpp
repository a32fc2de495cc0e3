#include "ir/simplify.h"

#include <algorithm>
#include <bit>

#include "ir/eval.h"
#include "ir/passes.h"

namespace lamp::ir {

namespace {

enum class Act : std::uint8_t { Keep, Fold, Forward, Narrow };

struct Target {
  NodeId node = kNoNode;
  std::uint32_t dist = 0;
};

std::uint64_t fullMask(std::uint16_t width) {
  return width >= 64 ? ~0ull : (1ull << width) - 1;
}

/// Known bits of the value an operand reference reads. Loop-carried
/// edges join with the register reset value 0 (matching the dataflow
/// engine and the interpreter): a known-1 producer bit is unknown
/// through a register, a known-0 bit survives.
struct ReadBits {
  std::uint64_t km = 0;
  std::uint64_t kv = 0;
};

ReadBits readKnown(const BitFacts& f, const Edge& e) {
  ReadBits r{f.knownMask[e.src], f.knownVal[e.src]};
  if (e.dist > 0) {
    r.km &= ~r.kv;
    r.kv = 0;
  }
  return r;
}

}  // namespace

Graph simplify(const Graph& g, const BitFacts& facts, SimplifyStats* stats,
               std::vector<NodeId>* oldToNew) {
  SimplifyStats st;
  if (!facts.compatibleWith(g)) {
    if (oldToNew) {
      oldToNew->resize(g.size());
      for (NodeId v = 0; v < g.size(); ++v) (*oldToNew)[v] = v;
    }
    if (stats) *stats = st;
    return g;
  }

  std::vector<Act> act(g.size(), Act::Keep);
  std::vector<std::uint64_t> foldVal(g.size(), 0);
  std::vector<Target> fwd(g.size());
  std::vector<std::uint16_t> narrowW(g.size(), 0);

  // -------------------------------------------------------------------
  // Decisions: per-node reads of the fixpoint facts, so no propagation
  // order is needed.
  for (NodeId v = 0; v < g.size(); ++v) {
    const Node& n = g.node(v);
    if (!isLutMappable(n.kind)) continue;
    const std::uint64_t mask = fullMask(n.width);
    const std::uint64_t km = facts.knownMask[v];

    // Fold: every demanded bit is known. Undemanded bits take their
    // known value (0 when unknown) — no observer can tell.
    if ((facts.demanded[v] & ~km) == 0) {
      act[v] = Act::Fold;
      foldVal[v] = facts.knownVal[v] & mask;
      ++st.folded;
      continue;
    }

    // Forward: the facts prove the op neutral for one operand — on the
    // LIVE bits only. Dead bits of v are free to change, no observer
    // reads them, so e.g. `x & 0x3F` forwards to `x` whenever only the
    // low six result bits are read downstream. The mask must be `live`,
    // not `demanded`: demanded strips bits the analysis already knows,
    // but observers still read those bits and a substituted value must
    // reproduce them (an Output of `a & 0x0F` sees the known-zero top
    // nibble; forwarding `a` there would expose a's raw top bits).
    const auto forward = [&](std::size_t operand) {
      act[v] = Act::Forward;
      fwd[v] = Target{n.operands[operand].src, n.operands[operand].dist};
      ++st.forwarded;
    };
    const auto readVal = [&](std::size_t i) {
      return readKnown(facts, n.operands[i]);
    };
    const auto fold = [&](std::uint64_t value) {
      act[v] = Act::Fold;
      foldVal[v] = value & mask;
      ++st.folded;
    };
    const auto sameOperand = [&](std::size_t i, std::size_t j) {
      return n.operands[i].src == n.operands[j].src &&
             n.operands[i].dist == n.operands[j].dist;
    };
    const std::uint64_t liv = facts.live[v] & mask;  // != 0 past Fold
    switch (n.kind) {
      case OpKind::And: {
        if (sameOperand(0, 1)) { forward(0); break; }
        const ReadBits a = readVal(0), b = readVal(1);
        if ((a.km & a.kv & liv) == liv) forward(1);
        else if ((b.km & b.kv & liv) == liv) forward(0);
        break;
      }
      case OpKind::Or: {
        if (sameOperand(0, 1)) { forward(0); break; }
        const ReadBits a = readVal(0), b = readVal(1);
        if ((a.km & liv) == liv && (a.kv & liv) == 0) forward(1);
        else if ((b.km & liv) == liv && (b.kv & liv) == 0) forward(0);
        break;
      }
      case OpKind::Xor: {
        if (sameOperand(0, 1)) { fold(0); break; }
        const ReadBits a = readVal(0), b = readVal(1);
        if ((a.km & liv) == liv && (a.kv & liv) == 0) forward(1);
        else if ((b.km & liv) == liv && (b.kv & liv) == 0) forward(0);
        break;
      }
      case OpKind::Add:
      case OpKind::Sub: {
        if (n.kind == OpKind::Sub && sameOperand(0, 1)) { fold(0); break; }
        // Carries only travel upward, so the operand must be known zero
        // on every bit up to the highest live one.
        const std::uint64_t low =
            fullMask(static_cast<std::uint16_t>(std::bit_width(liv)));
        const ReadBits b = readVal(1);
        if ((b.km & low) == low && (b.kv & low) == 0) forward(0);
        else if (n.kind == OpKind::Add) {
          const ReadBits a = readVal(0);
          if ((a.km & low) == low && (a.kv & low) == 0) forward(1);
        }
        break;
      }
      case OpKind::Mux: {
        if (sameOperand(1, 2)) { forward(1); break; }
        const ReadBits sel = readVal(0);
        if ((sel.km & 1) != 0) forward((sel.kv & 1) != 0 ? 1 : 2);
        break;
      }
      case OpKind::Shl:
      case OpKind::Shr:
      case OpKind::AShr:
        if (n.attr0 == 0 && n.width == g.node(n.operands[0].src).width) {
          forward(0);
        }
        break;
      case OpKind::Slice:
        if (n.attr0 == 0 && n.width == g.node(n.operands[0].src).width) {
          forward(0);
        }
        break;
      case OpKind::ZExt:
      case OpKind::SExt:
        if (n.width == g.node(n.operands[0].src).width) forward(0);
        break;
      default:
        break;
    }
  }

  // Break forwarding cycles (mutually-forwarding loop identities):
  // unterminated chains demote to Keep.
  for (NodeId v = 0; v < g.size(); ++v) {
    if (act[v] != Act::Forward) continue;
    std::vector<NodeId> path;
    Target t{v, 0};
    while (act[t.node] == Act::Forward && path.size() <= g.size()) {
      path.push_back(t.node);
      const Target& next = fwd[t.node];
      t = Target{next.node, t.dist + next.dist};
    }
    if (path.size() > g.size()) {
      for (const NodeId p : path) {
        if (act[p] == Act::Forward) {
          act[p] = Act::Keep;
          --st.forwarded;
        }
      }
    }
  }

  const auto resolve = [&](NodeId u, std::uint32_t d) {
    Target t{u, d};
    for (int hops = 0; act[t.node] == Act::Forward; ++hops) {
      if (hops > static_cast<int>(g.size())) break;  // defensive
      const Target& next = fwd[t.node];
      t = Target{next.node, t.dist + next.dist};
    }
    return t;
  };

  // -------------------------------------------------------------------
  // Narrowing: an Add/Sub whose top bits are known zero computes the
  // same word as a narrower Add/Sub zero-extended back (truncation
  // commutes with two's-complement add/sub). Restricted to operands a
  // narrow form exists for without inserting Slice logic: zero-extends
  // (rebuilt at the smaller width) and constants (masked).
  for (NodeId v = 0; v < g.size(); ++v) {
    const Node& n = g.node(v);
    if (act[v] != Act::Keep) continue;
    if (n.kind != OpKind::Add && n.kind != OpKind::Sub) continue;
    const std::uint64_t mask = fullMask(n.width);
    const std::uint64_t knownZero = facts.knownMask[v] & ~facts.knownVal[v];
    // Width of the lowest run covering every bit some observer can see
    // differ: live AND not known zero (truncation commutes with
    // two's-complement add/sub, and the ZExt adapter's zero padding is
    // unobservable on dead bits and correct on known-zero ones; live
    // known-ONE bits keep the width up, since the padding would flip
    // them).
    int w = std::bit_width(mask & ~knownZero & facts.live[v]);
    if (w < 1) w = 1;
    bool eligible = w < n.width;
    for (const Edge& e : n.operands) {
      if (!eligible) break;
      const Target t = resolve(e.src, e.dist);
      const Node& src = g.node(t.node);
      if (act[t.node] == Act::Fold ||
          (src.kind == OpKind::Const && t.dist == 0)) {
        continue;  // constant: masked in place
      }
      if (src.kind == OpKind::ZExt && act[t.node] == Act::Keep) {
        w = std::max(w, static_cast<int>(g.node(src.operands[0].src).width));
        eligible = w < n.width;
        continue;
      }
      eligible = false;
    }
    if (!eligible) continue;
    act[v] = Act::Narrow;
    narrowW[v] = static_cast<std::uint16_t>(w);
    ++st.narrowed;
  }

  // -------------------------------------------------------------------
  // Layout: per old node, how many new nodes it expands to and which of
  // them consumers read. Precomputing every id first lets loop-carried
  // edges point at nodes materialized later.
  std::vector<NodeId> visible(g.size(), kNoNode);
  std::vector<NodeId> base(g.size(), kNoNode);
  {
    NodeId next = 0;
    for (NodeId v = 0; v < g.size(); ++v) {
      if (act[v] == Act::Forward) continue;
      base[v] = next;
      if (act[v] == Act::Narrow) {
        // operand clones, the narrow arith node, the ZExt adapter
        next += static_cast<NodeId>(g.node(v).operands.size()) + 2;
        visible[v] = next - 1;
      } else {
        next += 1;
        visible[v] = base[v];
      }
    }
  }

  const auto newEdge = [&](const Edge& e) {
    const Target t = resolve(e.src, e.dist);
    return Edge{visible[t.node], t.dist};
  };

  Graph out(g.name());
  for (NodeId v = 0; v < g.size(); ++v) {
    const Node& n = g.node(v);
    switch (act[v]) {
      case Act::Forward:
        break;
      case Act::Fold: {
        Node c;
        c.kind = OpKind::Const;
        c.width = n.width;
        c.constValue = foldVal[v];
        c.name = n.name;
        out.add(std::move(c));
        break;
      }
      case Act::Keep: {
        Node copy = n;
        for (Edge& e : copy.operands) e = newEdge(e);
        out.add(std::move(copy));
        break;
      }
      case Act::Narrow: {
        const std::uint16_t w = narrowW[v];
        Node arith = n;
        arith.width = w;
        arith.operands.clear();
        for (const Edge& e : n.operands) {
          const Target t = resolve(e.src, e.dist);
          const Node& src = g.node(t.node);
          Node clone;
          clone.width = w;
          if (act[t.node] == Act::Fold ||
              (src.kind == OpKind::Const && t.dist == 0)) {
            clone.kind = OpKind::Const;
            const std::uint64_t cv =
                act[t.node] == Act::Fold ? foldVal[t.node] : src.constValue;
            clone.constValue = maskToWidth(cv, w);
            // t.dist is preserved: a constant read through registers
            // still resets to 0 on the first t.dist iterations.
            arith.operands.push_back(Edge{out.add(std::move(clone)), t.dist});
          } else {  // ZExt rebuilt at the narrow width (or forwarded away)
            const Edge inner = newEdge(src.operands[0]);
            if (g.node(src.operands[0].src).width == w && t.dist == 0) {
              arith.operands.push_back(inner);  // ZExt became an identity
              Node pad;  // keep the precomputed layout: emit a dead Const
              pad.kind = OpKind::Const;
              pad.width = 1;
              out.add(std::move(pad));
            } else {
              clone.kind = OpKind::ZExt;
              clone.operands.push_back(inner);
              arith.operands.push_back(
                  Edge{out.add(std::move(clone)), t.dist});
            }
          }
        }
        const NodeId arithId = out.add(std::move(arith));
        Node adapter;
        adapter.kind = OpKind::ZExt;
        adapter.width = n.width;
        adapter.name = n.name;
        adapter.operands.push_back(Edge{arithId, 0});
        out.add(std::move(adapter));
        break;
      }
    }
  }

  // Drop the dead padding constants, unreferenced clones and any logic
  // the rewrites orphaned; compose the remapping for the caller.
  std::vector<NodeId> compactMap;
  Graph result = compact(out, oldToNew ? &compactMap : nullptr);
  if (oldToNew) {
    oldToNew->assign(g.size(), kNoNode);
    for (NodeId v = 0; v < g.size(); ++v) {
      Target t{v, 0};
      if (act[v] == Act::Forward) {
        t = resolve(v, 0);
        if (t.dist != 0) continue;  // no same-iteration replacement exists
      }
      if (visible[t.node] != kNoNode) {
        (*oldToNew)[v] = compactMap[visible[t.node]];
      }
    }
  }
  if (stats) *stats = st;
  return result;
}

}  // namespace lamp::ir
