#ifndef LAMP_IR_EVAL_H
#define LAMP_IR_EVAL_H

/// \file eval.h
/// Evaluation of pure (side-effect-free, non-port) operations, shared by
/// the simulator and the dataflow analysis (which folds nodes whose
/// operands are all known) so semantics can never diverge.

#include <cstdint>
#include <optional>
#include <span>

#include "ir/graph.h"

namespace lamp::ir {

/// Masks a value to `width` bits.
std::uint64_t maskToWidth(std::uint64_t value, std::uint16_t width);

/// Sign-extends the low `width` bits of v to a signed 64-bit value.
std::int64_t toSignedWidth(std::uint64_t v, std::uint16_t width);

/// Evaluates node `v` on already-width-masked operand values. Returns
/// std::nullopt for Input/Load/Store (ports and side effects) — every
/// other kind, including Const and Mul, is computed.
std::optional<std::uint64_t> evalPureOp(const Graph& g, NodeId v,
                                        std::span<const std::uint64_t> ops);

}  // namespace lamp::ir

#endif  // LAMP_IR_EVAL_H
