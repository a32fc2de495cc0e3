#ifndef LAMP_FLOW_FLOW_JSON_H
#define LAMP_FLOW_FLOW_JSON_H

/// \file flow_json.h
/// The single JSON rendering of flow inputs and outputs, shared by
/// `lampc --emit-json`, the `lampd` service protocol and the on-disk
/// solution cache — one serializer, so the CLI and the daemon cannot
/// drift apart. FlowResult round-trips losslessly: every schedule field
/// (including doubles, written shortest-round-trip) parses back to the
/// identical value, which is what makes cached schedules bit-identical
/// across serve paths and daemon restarts.

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "flow/flow.h"
#include "util/json.h"
#include "util/parse.h"

namespace lamp::flow {

/// Full FlowResult -> JSON (success, error, method token, schedule,
/// area report, solver statistics, verification flag).
util::Json resultToJson(const FlowResult& r);

/// Inverse of resultToJson. Returns false (with `error` filled) on
/// malformed or inconsistent input (e.g. schedule arrays of unequal
/// length).
bool resultFromJson(const util::Json& j, FlowResult& out, std::string* error);

/// One flow option: its request key, CLI flag ("" for protocol-only
/// options), FlowOptions field and numeric range. The field's type is
/// the kind: int/uint32 an integer, double a finite real, bool a switch
/// (true/false/0/1; its flag sets it, or clears it if named "no-..."),
/// CutStrategy a cutStrategyName() token.
struct FlowOption {
  using Field = std::variant<int FlowOptions::*, std::uint32_t FlowOptions::*,
                             double FlowOptions::*, bool FlowOptions::*,
                             int cut::CutEnumOptions::*,
                             cut::CutStrategy cut::CutEnumOptions::*>;
  std::string_view key;
  std::string_view flag;
  Field field;
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  /// Read by analysisOptions(): the flags lamp-lint takes.
  bool analysis = false;
};

/// The option table, the one place each option is named: requests are
/// read through it (optionsFromJson), and so are the flags of lampc,
/// lamp-cli and lamp-lint (addFlowFlags).
std::span<const FlowOption> flowOptions();

/// A number from outside the process: finite, integral when `integer`,
/// inside [min, max].
struct NumberRule {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool integer = false;
};

/// The checked reader of every external number (option values and the
/// request's "shard", "ms", "deadlineMs"): stores `v` in `out`, or
/// returns the violated rule naming `key`.
std::optional<std::string> readNumber(std::string_view key,
                                      const util::Json& v, NumberRule rule,
                                      double& out);

/// Applies a request's "options" object on top of `out` (which callers
/// pre-fill with defaults), each value range-checked by the option
/// table, then optionsError. Unknown keys are rejected — the drift guard
/// for protocol evolution.
bool optionsFromJson(const util::Json& j, FlowOptions& out,
                     std::string* error);

/// The options of `o` that differ from FlowOptions{}, by request key.
util::Json optionsToJson(const FlowOptions& o);

/// Registers the table's flags on `cli`, each read like its request key
/// into `o`. With `analysisFile`, --emit-analysis also takes an
/// optional =FILE (where lampc prints the summary), stored there.
void addFlowFlags(util::ArgParser& cli, FlowOptions& o,
                  std::optional<std::string>* analysisFile = nullptr);

/// Registers only the flags whose options reach analysisOptions().
void addAnalysisFlags(util::ArgParser& cli, FlowOptions& o);

/// The check every front end applies to its options after reading them:
/// tcpNs > 0, the one rule the table's closed ranges cannot state (the
/// table's reader already enforces ii >= 1 and 2 <= k <= 8). Returns the
/// violated rule, or nullopt.
std::optional<std::string> optionsError(const FlowOptions& o);

/// Deterministic key of every option that selects a distinct solution
/// space, *excluding* the soft axes (tcpNs, solverTimeLimitSeconds) the
/// cache treats as near-miss dimensions, and excluding solverThreads
/// (parallelism changes wall-clock, not the solution space). Two
/// requests with equal hardOptionKey + equal graph hashes are the same
/// cache bucket.
std::string hardOptionKey(Method m, const FlowOptions& o);

}  // namespace lamp::flow

#endif  // LAMP_FLOW_FLOW_JSON_H
