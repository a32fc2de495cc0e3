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

#include <optional>
#include <string>

#include "flow/flow.h"
#include "util/json.h"

namespace lamp::flow {

/// Full FlowResult -> JSON (success, error, method token, schedule,
/// area report, solver statistics, verification flag).
util::Json resultToJson(const FlowResult& r);

/// Inverse of resultToJson. Returns false (with `error` filled) on
/// malformed or inconsistent input (e.g. schedule arrays of unequal
/// length).
bool resultFromJson(const util::Json& j, FlowResult& out, std::string* error);

/// Applies a request's "options" object on top of `out` (which callers
/// pre-fill with defaults). Unknown keys are rejected — the drift guard
/// for protocol evolution. Only scalar knobs are exposed; structural
/// fields (delay model, cut caps beyond k) keep their defaults.
bool optionsFromJson(const util::Json& j, FlowOptions& out,
                     std::string* error);

/// The range check every front end applies to its options (lampd through
/// optionsFromJson, lampc on its flags): ii >= 1, tcpNs > 0, 2 <= k <= 8.
/// Returns the violated rule, or nullopt.
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
