#ifndef LAMP_SVC_PROTO_H
#define LAMP_SVC_PROTO_H

/// \file proto.h
/// The lampd wire protocol: newline-delimited JSON, one request and one
/// response per line. Responses carry the request's "id" so clients may
/// pipeline; completion order is not arrival order.
///
/// Request:
///   {"id": "r1",
///    "benchmark": "RS" | "graph": "<ir::writeText text>",
///    "method": "hls" | "base" | "map",           // default "map"
///    "options": {"ii":2, "tcpNs":8.5, "simplify":true, ...},
///                // optional; the keys, the FlowOptions field each sets
///                // and its range are the option table in
///                // src/flow/flow_json.cpp (flow::flowOptions()).
///                // Integers must be integral and in range, reals
///                // finite, switches true/false/0/1; anything else is
///                // a bad_request naming the option.
///    "deadlineMs": 5000,      // optional total budget (queue + solve)
///    "paperScale": true,      // optional, benchmark-name requests only
///    "noCache": true,         // optional, bypass the solution cache
///    "trace": "00-<32hex>-<16hex>-01"}  // optional W3C traceparent
///
/// "trace" carries a W3C-traceparent-style context (obs/trace.h). A
/// daemon with tracing enabled continues the caller's trace: the
/// request's spans adopt the given trace id, parented under the given
/// span id, and the response carries a "trace" object — the trace id
/// plus a "procs" array of per-process span subtrees (and a "log" tail
/// of recent NDJSON records) — that obs::writeMergedChromeTrace merges
/// with the client's own events into one cross-process Chrome trace.
///
/// Control requests: {"cmd": "stats"}, {"cmd": "health"},
/// {"cmd": "drain"}, {"cmd": "resume"}, {"cmd": "dump"} and
/// {"cmd": "sleep", "ms": N} (the latter occupies a worker for at most
/// an hour — a test/diagnostics hook). Control requests may carry
/// {"shard": N}: a fleet router (fleet/router.h) forwards such requests
/// to shard N; a single daemon ignores the key.
///
/// "dump" forces the flight recorder to write an incident file (see
/// svc::Service) regardless of recent errors:
///   {"id":..,"ok":true,"incident":"<path>"}    // or "" when disabled
///
/// "stats" returns one consistent snapshot of the service metrics
/// registry: a "metrics" object with every counter/gauge/histogram
/// (request counters, uptime; histograms carry p50/p95/p99), a
/// "process" object with the process-wide solver registry, and a
/// "stats" object with what the registry does not hold ("draining",
/// "workers", "queueCap" and the "cache" counters). With
/// {"cmd":"stats","format":"prometheus"} the response is instead
/// {"ok":true,"prometheus":"<text exposition>"} — the multi-line
/// Prometheus text rides the NDJSON protocol as one string field.
///
/// "health" is the cheap shard probe the fleet router polls:
///   {"id":..,"ok":true,"health":{"uptimeSeconds":..,"queueDepth":..,
///    "inflight":..,"cacheEntries":..,"cacheResident":..,
///    "draining":false,"workers":N,"queueCap":N}}
///
/// "drain" starts a graceful drain: the daemon stops admitting flow
/// requests (they are rejected with status "draining"), finishes every
/// in-flight request, and flushes any unpersisted cache payloads to the
/// cache directory. Control verbs keep working while draining; "resume"
/// reopens admission. Responses:
///   {"id":..,"ok":true,"draining":true,"inflight":K,"flushed":F}
///   {"id":..,"ok":true,"draining":false}
///
/// Success response:
///   {"id":"r1","ok":true,"cache":"hit"|"warm"|"miss"|"off",
///    "queueMs":..,"wallMs":..,"result":{...flow::resultToJson...}}
/// Success responses served by joining an identical in-flight solve
/// carry "cache":"coalesced" — the daemon (and the fleet router) collapse
/// concurrent equal-work requests into one solve and fan the result back
/// out; a coalesced response's "result" is byte-identical to the
/// leader's.
///
/// Failure response:
///   {"id":"r1","ok":false,"status":"bad_request"|"overloaded"|
///    "deadline_exceeded"|"flow_failed"|"infeasible"|"draining",
///    "error":"...",
///    ["result":{...}],      // flow_failed keeps the partial result
///    ["diagnostics":[{"code":"LAMP001","severity":"error",
///      "message":"...","nodes":[3,7],"hint":"..."}, ...]]}
///
/// "overloaded" is the bounded-admission rejection: the daemon never
/// buffers beyond its queue cap, it sheds load explicitly.
///
/// "infeasible" is the pre-solve static-analysis rejection: the request
/// was proven unsolvable (see analyze::analyzeGraph) and was answered
/// inline — it never occupied a solver worker or a queue slot. The
/// "diagnostics" array explains why, with stable LAMPnnn codes.

#include <optional>
#include <string>

#include "flow/flow.h"
#include "obs/trace.h"

namespace lamp::svc {

struct Request {
  std::string id;                ///< echoed verbatim ("" if absent)
  /// "", "stats", "health", "drain", "resume", "dump", "sleep"
  std::string cmd;
  std::string statsFormat;       ///< "" (JSON) or "prometheus"
  int shard = -1;                ///< router target (control verbs only)
  double sleepMs = 0.0;
  std::string benchmark;         ///< built-in benchmark name, or
  std::string graphText;         ///< inline .lamp graph text
  flow::Method method = flow::Method::MilpMap;
  flow::FlowOptions options;
  double deadlineMs = 0.0;       ///< 0 = no deadline
  bool paperScale = false;
  bool noCache = false;
  /// Parsed "trace" key (invalid() when absent). Never part of any
  /// cache key — telemetry must not change what gets solved.
  obs::TraceContext trace;
};

/// Parses one request line. Unknown top-level or option keys fail the
/// parse (protocol drift guard). On failure returns std::nullopt with
/// `error` and `idOut` (best-effort) filled.
std::optional<Request> parseRequest(const std::string& line,
                                    std::string* error, std::string* idOut);

/// `diagnostics`, when non-null and non-empty, is attached as a
/// top-level "diagnostics" array (used by the "infeasible" status).
std::string errorResponse(
    const std::string& id, std::string_view status, const std::string& message,
    const flow::FlowResult* partial = nullptr,
    const std::vector<analyze::Diagnostic>* diagnostics = nullptr);

std::string resultResponse(const std::string& id, std::string_view cacheState,
                           double queueMs, double wallMs,
                           const flow::FlowResult& result);

}  // namespace lamp::svc

#endif  // LAMP_SVC_PROTO_H
