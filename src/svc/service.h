#ifndef LAMP_SVC_SERVICE_H
#define LAMP_SVC_SERVICE_H

/// \file service.h
/// The scheduling service: parses protocol requests (proto.h), admits
/// them into a *bounded* queue in front of the PR-1 thread pool, serves
/// repeats from the content-addressed solution cache (cache.h), and
/// renders responses. Transport-agnostic — server.h plugs stdio or a
/// Unix socket in front, tests and benches call it directly.
///
/// Request lifecycle:
///   parse -> drain gate (a draining service rejects new flow requests
///            with status "draining"; control verbs keep working)
///         -> resolve graph + pre-solve static analysis (bad or provably
///            infeasible requests are answered inline with structured
///            diagnostics — they never occupy a queue slot or worker)
///         -> key (cacheKey: the one hash of the graph; the key names
///            the flight below and, at pickup, the cache entry)
///         -> coalesce (a deadline-free flow request identical to one
///            already in flight joins that flight as a *follower*: it
///            occupies no queue slot and no worker, and is answered with
///            the leader's response — id swapped, cache:"coalesced")
///         -> admission (queue depth < queueCap, else "overloaded")
///         -> worker picks up (deadline re-checked; expired requests are
///            answered "deadline_exceeded" without solving)
///         -> cache lookup (exact hit -> cached result verbatim;
///            near miss -> cached schedule becomes the MILP warm-start
///            incumbent; miss -> cold solve)
///         -> successful solves inserted (and persisted) into the cache
///         -> response via the completion callback (a flight leader also
///            fans its raw response out to every follower).
///
/// Back-pressure is explicit: the queue never grows past queueCap, so a
/// traffic burst costs each rejected client one round-trip instead of
/// unbounded daemon memory and unbounded queueing delay for everyone.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/coalesce.h"
#include "obs/metrics.h"
#include "svc/cache.h"
#include "svc/proto.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace lamp::svc {

/// Resolves a request's graph — a built-in benchmark name or an inline
/// .lamp text — into a Benchmark. Pure; returns false with `error` set
/// when the name is unknown or the text does not parse. Shared with the
/// fleet router (fleet/router.h), which must resolve exactly like the
/// daemon so routing keys agree with cache keys.
bool resolveBenchmark(const Request& req, workloads::Benchmark& bm,
                      std::string* error);

/// The cache address of a resolved flow request (graph hashes, hard
/// option key, tcpNs and the time limit clamped to maxTimeLimitSeconds):
/// the one place a request's graph is hashed, for lampd's cache and
/// flights and for lamp-router's ring and flights.
CacheKey cacheKey(const Request& req, const workloads::Benchmark& bm,
                  double maxTimeLimitSeconds);

/// The coalescing work signature: two flow requests with equal work keys
/// are guaranteed byte-identical "result" JSON, so one may be answered
/// with the other's solve: the cache key's text, plus "|nocache" for a
/// noCache request. Only deadline-free requests are coalesced — a
/// deadline changes the effective solver budget per request.
std::string workKey(const CacheKey& key, bool noCache);
std::string workKey(const Request& req, const workloads::Benchmark& bm,
                    double maxTimeLimitSeconds);

struct ServiceOptions {
  /// Worker threads (<= 0: util::ThreadPool::defaultThreads()).
  int workers = 0;
  /// Bounded admission: maximum requests admitted but not yet started.
  /// Beyond it, submissions are rejected with status "overloaded".
  int queueCap = 64;
  /// Solution-cache directory ("" = in-memory cache only).
  std::string cacheDir;
  /// Upper clamp on any request's solver time limit.
  double maxTimeLimitSeconds = 300.0;
  /// Disables the cache entirely (every request solves cold).
  bool cacheEnabled = true;
  /// Bound on result payloads resident in the in-memory cache tier
  /// (0 = unbounded; see SolutionCache).
  std::size_t cacheMemEntries = 0;
  /// Collapses identical concurrent flow requests into one solve.
  bool coalesceEnabled = true;
  /// Black-box flight recorder: when non-empty, a deadline miss, flow
  /// failure or load-shed (or a {"cmd":"dump"} request) writes a
  /// self-contained incident file — the recent-request ring, the trace
  /// buffer and the log tail — into this directory. "" disables.
  std::string incidentDir;
};

/// One flight-recorder entry: the bounded ring of recent request
/// outcomes every Service keeps (snapshotted into incident files; see
/// ServiceOptions::incidentDir).
struct RequestSummary {
  std::string id;
  std::string verb;       ///< "flow" or the control cmd
  std::string benchmark;  ///< benchmark name, or "<graph>" for inline IR
  std::string status;     ///< "ok", "deadline_exceeded", ...
  std::string cache;      ///< "hit"/"warm"/"miss"/"off" ("" for rejections)
  double queueMs = 0.0;
  double wallMs = 0.0;
  double deadlineMs = 0.0;
  std::string traceId;    ///< distributed trace id ("" when untraced)
};

class Service {
 public:
  explicit Service(ServiceOptions opts = {});
  ~Service();  ///< drains all in-flight work
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Asynchronous entry point: parses and admits `line`; `done` receives
  /// exactly one response line, possibly on a worker thread and possibly
  /// before submit returns (rejections respond inline).
  void submit(const std::string& line, std::function<void(std::string)> done);

  /// Synchronous convenience wrapper (waits for the response).
  std::string call(const std::string& line);

  /// Blocks until every admitted request has been answered.
  void drain();

  /// One consistent snapshot of the whole metrics registry (service
  /// counters, latency histograms with p50/p95/p99, cache state, queue
  /// depth and uptime gauges) rendered as the "stats" JSON response.
  /// Unlike the pre-obs implementation, every value comes from the same
  /// registry pass — no counter is read at a different instant than its
  /// neighbors. `id`, when non-empty, is echoed as the response "id"
  /// (protocol pipelining contract).
  std::string statsJson(const std::string& id = {}) const;
  /// Same snapshot in Prometheus text exposition format, concatenated
  /// with the process-global registry (MILP solver telemetry).
  std::string statsPrometheus() const;
  /// The cheap "health" probe response (uptime, queue depth, in-flight
  /// count, cache entries/resident, draining flag, capacity).
  std::string healthJson(const std::string& id = {}) const;
  /// The service's own registry of lamp_svc_* series (tests read their
  /// counters here). Its cache gauges are refreshed by each stats render.
  const obs::Registry& metrics() const { return metrics_; }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  const SolutionCache& cache() const { return cache_; }
  const ServiceOptions& options() const { return opts_; }

  /// The flight recorder's current contents, oldest first (tests,
  /// diagnostics). Bounded — see kFlightRingCap in service.cpp.
  std::vector<RequestSummary> recentRequests() const;
  /// Incident files written so far (the per-run cap bounds disk use).
  int incidentsWritten() const {
    return incidentsWritten_.load(std::memory_order_relaxed);
  }

 private:
  std::string process(const Request& req, const workloads::Benchmark& bm,
                      CacheKey key, double queueMs);
  std::string runFlowRequest(const Request& req,
                             const workloads::Benchmark& bm, CacheKey key,
                             double queueMs);
  /// Refreshes the point-in-time gauges (uptime, cache size and counts)
  /// just before a registry render. Queue depth and in-flight are
  /// event-driven (Gauge::add/sub at the admission/pickup/answer
  /// transitions).
  void refreshGauges() const;
  /// Records one answered request: NDJSON log record, flight-recorder
  /// ring entry, and — for deadline_exceeded/flow_failed/overloaded —
  /// an incident file when the recorder is armed.
  void noteDone(const Request& req, std::string_view status,
                std::string_view cache, double queueMs, double wallMs);
  /// Writes one incident file; returns its path ("" when disabled, the
  /// per-run file cap is reached, or the write fails).
  std::string writeIncident(std::string_view reason);

  ServiceOptions opts_;
  SolutionCache cache_;
  std::atomic<int> queued_{0};
  /// Requests a worker has picked up and not yet answered (the drain
  /// protocol reports queued_ + inflight_ as outstanding work).
  std::atomic<int> inflight_{0};
  std::atomic<bool> draining_{false};
  fleet::Coalescer coalescer_;
  util::Stopwatch uptime_;

  /// Flight recorder: bounded ring of recent request outcomes.
  mutable std::mutex flightMu_;
  std::deque<RequestSummary> flightRing_;
  std::atomic<int> incidentsWritten_{0};
  /// Serializes incident-file writes (and numbers the files).
  std::mutex incidentMu_;

  /// Per-service registry (NOT obs::Registry::global()): tests run
  /// several Services in one process and assert exact counts, so each
  /// instance owns its counters. Pointers below are stable aliases into
  /// the registry, bound once in the constructor.
  mutable obs::Registry metrics_;
  obs::Counter* cReceived_ = nullptr;
  obs::Counter* cServed_ = nullptr;
  obs::Counter* cBadRequests_ = nullptr;
  obs::Counter* cOverloaded_ = nullptr;
  obs::Counter* cDeadlineExceeded_ = nullptr;
  obs::Counter* cFlowFailures_ = nullptr;
  obs::Counter* cInfeasible_ = nullptr;
  obs::Counter* cCoalesced_ = nullptr;
  obs::Counter* cDrainRejected_ = nullptr;
  obs::Counter* cIncidents_ = nullptr;
  obs::Gauge* gQueueDepth_ = nullptr;
  obs::Gauge* gInflight_ = nullptr;
  obs::Gauge* gUptime_ = nullptr;
  obs::Gauge* gCacheEntries_ = nullptr;
  obs::Gauge* gCacheResident_ = nullptr;
  obs::Histogram* hQueueWaitMs_ = nullptr;
  obs::Histogram* hSolveSeconds_ = nullptr;

  /// Declared last: the pool's destructor runs first and joins workers
  /// while the members above are still alive.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace lamp::svc

#endif  // LAMP_SVC_SERVICE_H
