#ifndef LAMP_IR_PASSES_H
#define LAMP_IR_PASSES_H

/// \file passes.h
/// Structural analyses and transforms over CDFGs: verification,
/// topological ordering (back-edge aware), dead-node elimination,
/// GraphViz and text serialization.

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "ir/graph.h"

namespace lamp::ir {

/// Checks structural invariants:
///  - operand ids in range, operand counts/widths legal per OpKind,
///  - shift amounts within width, slices within bounds,
///  - no combinational cycles (cycles through dist=0 edges only),
///  - every Output has exactly one operand,
///  - no surviving placeholder uses.
/// Returns std::nullopt on success, else the first violation found (in
/// node-id order). Use verifyAll() to collect every violation.
std::optional<std::string> verify(const Graph& g);

/// One structural violation, tied to the node it was found on. The
/// message embeds the node's id, kind, and name ("node 3 (xor 'p'): ...").
struct VerifyIssue {
  NodeId node = kNoNode;
  std::string message;
};

/// Accumulating form of verify(): visits every node and returns ALL
/// structural violations instead of stopping at the first. An empty
/// vector means the graph is well-formed. verify() is implemented on top
/// of this, so the two never disagree.
std::vector<VerifyIssue> verifyAll(const Graph& g);

/// Topological order of all nodes over intra-iteration (dist == 0) edges.
/// Loop-carried (dist > 0) edges are ignored, so a verified graph always
/// has such an order. Ties are broken by node id for determinism.
std::vector<NodeId> topologicalOrder(const Graph& g);

/// Dead-node elimination: keeps only nodes reachable (against edges,
/// regardless of distance) from Output and Store nodes. Returns the
/// compacted graph; `oldToNew`, if non-null, receives the id remapping
/// (kNoNode for removed nodes).
Graph compact(const Graph& g, std::vector<NodeId>* oldToNew = nullptr);

/// Longest path length (#edges) from any source over dist=0 edges;
/// a rough "logic depth in operations" measure.
std::size_t combinationalDepth(const Graph& g);

/// Writes a GraphViz dot rendering (for debugging / documentation).
void writeDot(std::ostream& os, const Graph& g);

/// Serializes the graph to a stable line-oriented text format.
void writeText(std::ostream& os, const Graph& g);

/// Parses the format produced by writeText(). Returns std::nullopt and
/// fills `error` on malformed input.
std::optional<Graph> readText(std::istream& is, std::string* error = nullptr);

}  // namespace lamp::ir

#endif  // LAMP_IR_PASSES_H
