#ifndef LAMP_FLEET_ROUTER_H
#define LAMP_FLEET_ROUTER_H

/// \file router.h
/// The fleet front door: routes NDJSON requests (svc/proto.h) across N
/// lampd shards over Unix-domain sockets. One router in front of a
/// sharded fleet gives three things a single daemon cannot:
///
///  - *Cache locality under scale.* Flow requests are consistent-hashed
///    by the canonical hash of their svc::cacheKey (fleet/ring.h), so
///    every request for one
///    graph lands on the same shard and that shard's solution cache
///    serves it — adding or removing a shard only remaps the keys the
///    membership change touches, the rest of the fleet stays warm.
///  - *Cross-client coalescing.* Identical in-flight requests from
///    different connections join one upstream solve (fleet/coalesce.h,
///    keyed by svc::workKey) and the response fans back out; followers
///    are answered with the leader's bytes, id swapped, cache tag set to
///    "coalesced" (svc::followerResponse) — "result" stays byte-identical.
///  - *Failure routing.* Per-shard health (learned from "health" probes,
///    forwarding errors, and "draining" rejections) steers the ring walk
///    past down or draining shards; transient connect failures retry
///    with exponential backoff, and a shard that answers again is
///    immediately healthy — no operator intervention.
///
/// Responses from the owning shard pass through *verbatim* (the request
/// line is forwarded untouched, original id included), so a fleet is
/// bit-identical to a single daemon for every successful response. The
/// one deliberate exception is distributed tracing: a request carrying
/// a "trace" context has that one field rewritten so the shard's spans
/// parent under the router's — telemetry is never part of any cache or
/// work key, so the "result" bytes stay bit-identical either way. The
/// router closes its spans and appends its own process subtree to the
/// response's "trace.procs" before answering (see obs/trace.h).
///
/// Protocol extensions at the router (all reuse svc/proto.h forms):
///  - {"cmd":"stats","shard":N} / {"cmd":"health","shard":N} /
///    {"cmd":"drain","shard":N} / {"cmd":"resume","shard":N} /
///    {"cmd":"dump","shard":N} forward to shard N (0-based index into
///    the shard list).
///  - {"cmd":"health"} without a shard answers with the router's fleet
///    view: {"ok":true,"fleet":{"shards":[...],"routed":..,...}}.
///  - {"cmd":"drain"} / {"cmd":"resume"} without a shard broadcast to
///    every shard and aggregate the responses.
///  - {"cmd":"stats"} without a shard is the *fleet-wide* metrics
///    aggregation: every shard's stats verb is scraped in one pass and
///    the response carries {"shards":[{"shard":i,"socket":..,"ok":..,
///    "stats":..,"metrics":..}...]} plus the router's own registry of
///    lamp_router_* counters under "router". With {"format":"prometheus"}
///    the response's "prometheus" field is one merged text exposition:
///    every shard sample re-labelled with shard="i", followed by the
///    router's registry — a single scrape covers the whole fleet.
///  - Requests no shard can serve are answered with status
///    "unavailable" (a router-only status; a single daemon never emits
///    it).
///
/// Thread-safe: submit() may be called from any number of connection
/// threads; it blocks the calling thread for the upstream round-trip
/// (followers of a coalesced flight do not block — they are answered by
/// the leader's thread).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/coalesce.h"
#include "fleet/ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/socket.h"

namespace lamp::fleet {

struct RouterOptions {
  /// Unix-domain socket path per shard; index is the shard id.
  std::vector<std::string> shardSockets;
  int vnodes = 64;             ///< ring points per shard
  int maxAttempts = 3;         ///< connect/exchange attempts per shard
  int retryBackoffMs = 20;     ///< doubles per retry
  int connectTimeoutMs = 2000;
  int ioTimeoutMs = 0;         ///< per read/write; 0 = block (solves are slow)
  bool coalesceEnabled = true;
};

struct ShardHealth {
  std::string socket;
  bool healthy = true;
  bool draining = false;
  double uptimeSeconds = 0.0;
  std::int64_t queueDepth = 0;
  std::int64_t inflight = 0;
  std::int64_t cacheEntries = 0;
};

class Router {
 public:
  explicit Router(RouterOptions opts);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// svc::LineHandler-compatible entry point: exactly one response per
  /// request line. Plugs straight into svc::serveStream / svc::UnixServer.
  void submit(const std::string& line, std::function<void(std::string)> done);

  /// Synchronous convenience wrapper.
  std::string call(const std::string& line);

  /// Probes every shard's "health" verb once, refreshing the health
  /// table this call and returning the fleet view.
  std::vector<ShardHealth> probe();

  /// The shard index a flow request line routes to (-1: not routable —
  /// parse failure or empty ring). Exposed for tests.
  int shardFor(const std::string& line) const;

  /// The router's own registry: the lamp_router_* counters the stats
  /// verb renders (tests and lamp-loadgen read them here).
  const obs::Registry& metrics() const { return metrics_; }
  int shardCount() const { return static_cast<int>(shards_.size()); }

 private:
  struct Shard {
    std::string socket;
    std::atomic<bool> healthy{true};
    std::atomic<bool> draining{false};
    std::mutex poolMu;
    /// Idle pooled connections (request/response lockstep per lease).
    std::vector<std::unique_ptr<util::LineChannel>> idle;
  };

  /// One request/response round-trip against shard `s`, with bounded
  /// reconnect retries. False = transport failure (shard marked down).
  bool exchange(Shard& s, const std::string& line, std::string& response);
  /// Routes one flow (or sleep) request along the ring. `trace`, when
  /// valid and tracing is on, wraps the walk in router spans, reparents
  /// the forwarded line's trace context under them, and appends the
  /// router's span subtree to the response.
  std::string routeFlow(const std::string& line, const std::string& ringKey,
                        const std::string& id,
                        const obs::TraceContext& trace = {});
  /// The ring walk itself (health-aware owner selection, bounded
  /// failover). Runs under routeFlow's trace scope when `traced`.
  std::string walkRing(const std::string& line, const std::string& ringKey,
                       const std::string& id, bool traced);
  /// The bare {"cmd":"stats"} fleet-wide aggregation (JSON or merged
  /// Prometheus exposition, per `format`).
  std::string fleetStats(const std::string& id, const std::string& format);

  RouterOptions opts_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Coalescer coalescer_;

  /// Per-router registry; the pointers alias its counters (constructor).
  obs::Registry metrics_;
  obs::Counter* cRouted_ = nullptr;
  obs::Counter* cCoalesced_ = nullptr;
  obs::Counter* cRetries_ = nullptr;
  obs::Counter* cFailovers_ = nullptr;
  obs::Counter* cUnavailable_ = nullptr;
  obs::Counter* cBadRequests_ = nullptr;
  obs::Counter* cFlights_ = nullptr;
  obs::Counter* cFollowers_ = nullptr;
};

}  // namespace lamp::fleet

#endif  // LAMP_FLEET_ROUTER_H
