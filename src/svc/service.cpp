#include "svc/service.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "flow/flow_json.h"
#include "ir/passes.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/timer.h"
#include "workloads/workloads.h"

namespace lamp::svc {

using util::Json;

bool resolveBenchmark(const Request& req, workloads::Benchmark& bm,
                      std::string* error) {
  if (!req.benchmark.empty()) {
    auto found = workloads::findBenchmark(
        req.benchmark,
        req.paperScale ? workloads::Scale::Paper : workloads::Scale::Default);
    if (!found) {
      if (error) *error = "unknown benchmark '" + req.benchmark + "'";
      return false;
    }
    bm = std::move(*found);
    return true;
  }
  std::istringstream in(req.graphText);
  std::string parseError;
  auto g = ir::readText(in, &parseError);
  if (!g) {
    if (error) *error = "graph parse error: " + parseError;
    return false;
  }
  bm = workloads::benchmarkFromGraph(std::move(*g), "service request");
  return true;
}

namespace {

/// Shortest round-trippable decimal text — soft axes must key exactly,
/// "10" and "10.0" are the same clock target.
std::string numText(double v) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string workKey(const Request& req, const workloads::Benchmark& bm,
                    double maxTimeLimitSeconds) {
  flow::FlowOptions opts = req.options;
  opts.solverTimeLimitSeconds =
      std::min(opts.solverTimeLimitSeconds, maxTimeLimitSeconds);
  std::string key = ir::canonicalHash(bm.graph).hex();
  key += '|';
  key += ir::layoutHash(bm.graph).hex();
  key += '|';
  key += flow::hardOptionKey(req.method, opts);
  key += "|tcp=" + numText(opts.tcpNs);
  key += "|tl=" + numText(opts.solverTimeLimitSeconds);
  if (req.noCache) key += "|nocache";
  return key;
}

namespace {

/// Flight-recorder ring depth (RequestSummary entries kept).
constexpr std::size_t kFlightRingCap = 256;
/// Per-run cap on incident files — a flapping fleet must not fill the
/// disk with one file per failed request.
constexpr int kMaxIncidentFiles = 32;
/// NDJSON log records snapshotted into each incident file.
constexpr std::size_t kIncidentLogTail = 64;

/// One NDJSON record per answered request (no-op unless a log sink or
/// the log ring is enabled). `deadlineMs <= 0` omits the slack.
void logRequestDone(const Request& req, std::string_view status,
                    std::string_view cache, double queueMs, double wallMs) {
  if (!obs::logEnabled()) return;
  Json f = Json::object();
  f.set("id", Json::string(req.id));
  f.set("status", Json::string(std::string(status)));
  if (!cache.empty()) f.set("cache", Json::string(std::string(cache)));
  f.set("queueMs", Json::number(queueMs));
  f.set("wallMs", Json::number(wallMs));
  if (req.deadlineMs > 0) {
    f.set("deadlineSlackMs",
          Json::number(req.deadlineMs - queueMs - wallMs));
  }
  obs::logEvent("request_done", std::move(f));
}

/// Attaches this process's span subtree (and a log tail) for `traceId`
/// to an already-rendered response line; returns the line unchanged if
/// it does not parse (never corrupts a response over telemetry).
std::string attachTraceToResponse(std::string response,
                                  const std::string& traceId) {
  auto doc = Json::parse(response);
  if (!doc || !doc->isObject()) return response;
  Json trace = Json::object();
  trace.set("traceId", Json::string(traceId));
  Json procs = Json::array();
  procs.push(obs::collectTrace(traceId));
  trace.set("procs", std::move(procs));
  const auto tail = obs::recentLogRecords(16);
  if (!tail.empty()) {
    Json logs = Json::array();
    for (const std::string& line : tail) logs.push(Json::string(line));
    trace.set("log", std::move(logs));
  }
  doc->set("trace", std::move(trace));
  return doc->dump();
}

}  // namespace

Service::Service(ServiceOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cacheDir, opts_.cacheMemEntries) {
  if (opts_.workers <= 0) opts_.workers = util::ThreadPool::defaultThreads();
  if (opts_.queueCap < 1) opts_.queueCap = 1;

  cReceived_ = &metrics_.counter("lamp_svc_requests_received_total",
                                 "requests submitted");
  cServed_ = &metrics_.counter("lamp_svc_requests_served_total",
                               "requests answered ok");
  cBadRequests_ = &metrics_.counter("lamp_svc_bad_requests_total",
                                    "parse/resolve rejections");
  cOverloaded_ = &metrics_.counter("lamp_svc_overloaded_total",
                                   "bounded-admission rejections");
  cDeadlineExceeded_ = &metrics_.counter(
      "lamp_svc_deadline_exceeded_total", "deadlines expired in queue");
  cFlowFailures_ = &metrics_.counter("lamp_svc_flow_failures_total",
                                     "flows that failed to produce a result");
  cInfeasible_ = &metrics_.counter("lamp_svc_infeasible_total",
                                   "pre-solve analysis rejections");
  cCoalesced_ = &metrics_.counter(
      "lamp_svc_coalesced_total",
      "followers answered by joining an in-flight identical solve");
  cDrainRejected_ = &metrics_.counter(
      "lamp_svc_drain_rejected_total",
      "flow requests rejected while draining");
  cIncidents_ = &metrics_.counter("lamp_svc_incidents_total",
                                  "flight-recorder incident files written");
  gQueueDepth_ = &metrics_.gauge("lamp_svc_queue_depth",
                                 "admitted requests not yet started");
  gInflight_ = &metrics_.gauge("lamp_svc_inflight",
                               "requests picked up and not yet answered");
  gUptime_ = &metrics_.gauge("lamp_svc_uptime_seconds",
                             "seconds since service start");
  gCacheEntries_ = &metrics_.gauge("lamp_svc_cache_entries",
                                   "solution cache entries");
  gCacheResident_ = &metrics_.gauge(
      "lamp_svc_cache_resident", "cache payloads resident in memory");
  hQueueWaitMs_ = &metrics_.histogram(
      "lamp_svc_queue_wait_ms", obs::Histogram::exponentialBounds(0.1, 4.0, 10),
      "time between admission and worker pickup");
  hSolveSeconds_ = &metrics_.histogram(
      "lamp_svc_solve_seconds",
      obs::Histogram::exponentialBounds(0.001, 4.0, 12),
      "wall time per flow request (cache hits included)");

  pool_ = std::make_unique<util::ThreadPool>(opts_.workers);
}

Service::~Service() { pool_->wait(); }

void Service::drain() { pool_->wait(); }

void Service::submit(const std::string& line,
                     std::function<void(std::string)> done) {
  cReceived_->inc();

  std::string error, id;
  auto req = parseRequest(line, &error, &id);
  if (!req) {
    cBadRequests_->inc();
    Request rejected;
    rejected.id = id;
    noteDone(rejected, "bad_request", {}, 0.0, 0.0);
    done(errorResponse(id, "bad_request", error));
    return;
  }

  // Distributed tracing: a request carrying a valid traceparent gets its
  // shard-side events attributed to that trace, and its response carries
  // them back (see attachTraceToResponse). Rejections answered inline
  // record an instant so the merged trace shows *why* the shard bounced
  // the request, not just a silent round-trip.
  const bool traced = req->trace.valid() && obs::traceEnabled();
  const auto respondRejection = [&](std::string response) {
    if (traced) {
      obs::ContextScope scope(req->trace);
      obs::instant("svc_rejected", "svc");
      response = attachTraceToResponse(std::move(response),
                                       req->trace.traceId);
    }
    done(std::move(response));
  };

  if (req->cmd == "stats") {  // served inline, never queued
    cServed_->inc();
    if (req->statsFormat == "prometheus") {
      // The multi-line exposition rides the NDJSON protocol as one
      // string field; clients (lamp-cli --format=prometheus) unwrap it.
      Json j = Json::object();
      if (!req->id.empty()) j.set("id", Json::string(req->id));
      j.set("ok", Json::boolean(true));
      j.set("prometheus", Json::string(statsPrometheus()));
      done(j.dump());
      return;
    }
    done(statsJson(req->id));
    return;
  }

  if (req->cmd == "health") {  // the cheap fleet-router probe
    cServed_->inc();
    done(healthJson(req->id));
    return;
  }

  if (req->cmd == "dump") {  // force a flight-recorder incident file
    cServed_->inc();
    Json j = Json::object();
    if (!req->id.empty()) j.set("id", Json::string(req->id));
    j.set("ok", Json::boolean(true));
    j.set("incident", Json::string(writeIncident("dump")));
    done(j.dump());
    return;
  }

  if (req->cmd == "drain" || req->cmd == "resume") {
    cServed_->inc();
    const bool drain = req->cmd == "drain";
    draining_.store(drain, std::memory_order_relaxed);
    Json j = Json::object();
    if (!req->id.empty()) j.set("id", Json::string(req->id));
    j.set("ok", Json::boolean(true));
    j.set("draining", Json::boolean(drain));
    if (drain) {
      // Outstanding work keeps running to completion; the flush makes
      // sure every resident-only cache payload reaches the disk tier
      // before a restart.
      j.set("inflight",
            Json::integer(queued_.load(std::memory_order_relaxed) +
                          inflight_.load(std::memory_order_relaxed)));
      j.set("flushed",
            Json::integer(static_cast<std::int64_t>(cache_.flush())));
    }
    done(j.dump());
    return;
  }

  // Drain gate: a draining daemon stops admitting flow work but keeps
  // serving control verbs and finishes everything already admitted.
  if (req->cmd.empty() && draining_.load(std::memory_order_relaxed)) {
    cDrainRejected_->inc();
    noteDone(*req, "draining", {}, 0.0, 0.0);
    respondRejection(errorResponse(
        req->id, "draining", "daemon is draining; not admitting new work"));
    return;
  }

  // Resolve the graph and run the pre-solve static analysis inline: a
  // request the analysis proves doomed (clock-infeasible op, recurrence
  // MII beyond the retry window, malformed IR, ...) is answered in
  // microseconds with structured diagnostics and never occupies a queue
  // slot or a solver worker — its whole deadline budget stays unspent.
  // The same gate runs again inside flow::runFlow (shared via
  // flow::analysisOptions), so the two layers cannot disagree.
  workloads::Benchmark bm;
  if (req->cmd.empty()) {
    std::string resolveError;
    if (!resolveBenchmark(*req, bm, &resolveError)) {
      cBadRequests_->inc();
      noteDone(*req, "bad_request", {}, 0.0, 0.0);
      respondRejection(errorResponse(req->id, "bad_request", resolveError));
      return;
    }
    analyze::AnalysisReport report = analyze::analyzeGraph(
        bm.graph, flow::analysisOptions(bm, req->method, req->options));
    if (report.hasErrors()) {
      cInfeasible_->inc();
      noteDone(*req, "infeasible", {}, 0.0, 0.0);
      respondRejection(errorResponse(
          req->id, "infeasible",
          "pre-solve analysis: " + analyze::summarizeErrors(report), nullptr,
          &report.diagnostics));
      return;
    }
  }

  // Coalescing: a deadline-free flow request whose work signature equals
  // one already in flight joins that flight as a follower — it occupies
  // no queue slot and no worker, and is answered when the leader
  // publishes. The follower callback rewrites the leader's raw response:
  // id swapped for its own, cache tag set to "coalesced"; the "result"
  // bytes are untouched, so followers are bit-identical to the leader.
  std::string flightKey;
  std::uint64_t flightToken = 0;
  if (opts_.coalesceEnabled && req->cmd.empty() && req->deadlineMs <= 0) {
    flightKey = workKey(*req, bm, opts_.maxTimeLimitSeconds);
    flightToken = coalescer_.beginOrJoin(
        flightKey, [this, id = req->id, done](const std::string& leader) {
          cCoalesced_->inc();
          std::string out;
          bool ok = false;
          if (!leader.empty()) {
            if (auto doc = Json::parse(leader); doc && doc->isObject()) {
              doc->set("id", Json::string(id));
              if (doc->find("cache") != nullptr) {
                doc->set("cache", Json::string("coalesced"));
              }
              const Json* okField = doc->find("ok");
              ok = okField != nullptr && okField->asBool();
              out = doc->dump();
            }
          }
          if (out.empty()) {  // leader abandoned the flight (shutdown path)
            out = errorResponse(id, "flow_failed",
                                "coalesced flight abandoned by its leader");
          }
          if (ok) cServed_->inc();
          done(out);
        });
    if (flightToken == 0) return;  // follower: absorbed into the flight
  }

  // Bounded admission: reject instead of buffering without limit. The
  // counter tracks admitted-but-not-started requests, so the cap bounds
  // queueing delay independently of how long individual solves run.
  int depth = queued_.load(std::memory_order_relaxed);
  do {
    if (depth >= opts_.queueCap) {
      cOverloaded_->inc();
      noteDone(*req, "overloaded", {}, 0.0, 0.0);
      std::string rejection = errorResponse(
          req->id, "overloaded",
          "admission queue full (cap " + std::to_string(opts_.queueCap) + ")");
      // A shed leader sheds its followers too — they would otherwise
      // wait forever on a flight that never runs.
      if (flightToken != 0) {
        coalescer_.publish(flightKey, flightToken, rejection);
      }
      respondRejection(std::move(rejection));
      return;
    }
  } while (!queued_.compare_exchange_weak(depth, depth + 1,
                                          std::memory_order_relaxed));
  gQueueDepth_->add(1.0);

  pool_->submit([this, req = std::move(*req), bm = std::move(bm),
                 done = std::move(done), flightKey = std::move(flightKey),
                 flightToken,
                 enqueued = std::chrono::steady_clock::now()]() mutable {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    gQueueDepth_->sub(1.0);
    inflight_.fetch_add(1, std::memory_order_relaxed);
    gInflight_->add(1.0);
    const double queueMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - enqueued)
            .count();
    std::string response;
    {
      // The root shard-side span: queue wait is its arg, the flow-phase
      // and B&B spans underneath parent to it (through the thread-local
      // context the scope installs). Closed before collection so the
      // attached subtree is complete.
      obs::ContextScope traceScope(req.trace);
      obs::Span span("svc_request", "svc", obs::traceArg("queueMs", queueMs));
      response = process(req, bm, queueMs);
    }
    if (req.trace.valid() && obs::traceEnabled()) {
      response = attachTraceToResponse(std::move(response), req.trace.traceId);
    }
    // Publish before answering the leader: the flight closes as soon as
    // the result exists, so late arrivals start a fresh flight instead
    // of joining one that is already finished.
    if (flightToken != 0) {
      coalescer_.publish(flightKey, flightToken, response);
    }
    done(std::move(response));
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    gInflight_->sub(1.0);
  });
}

std::string Service::call(const std::string& line) {
  std::mutex mu;
  std::condition_variable cv;
  std::string response;
  bool ready = false;
  submit(line, [&](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    response = std::move(r);
    ready = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ready; });
  return response;
}

std::string Service::process(const Request& req,
                             const workloads::Benchmark& bm, double queueMs) {
  hQueueWaitMs_->observe(queueMs);
  if (req.cmd == "sleep") {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(req.sleepMs));
    cServed_->inc();
    Json j = Json::object();
    j.set("id", Json::string(req.id));
    j.set("ok", Json::boolean(true));
    j.set("sleptMs", Json::number(req.sleepMs));
    return j.dump();
  }

  // Deadline check on pickup: a request that spent its whole budget in
  // the queue is answered without burning a solve on it.
  if (req.deadlineMs > 0 && queueMs >= req.deadlineMs) {
    cDeadlineExceeded_->inc();
    noteDone(req, "deadline_exceeded", {}, queueMs, 0.0);
    return errorResponse(req.id, "deadline_exceeded",
                         "deadline of " + std::to_string(req.deadlineMs) +
                             " ms expired after " + std::to_string(queueMs) +
                             " ms in queue");
  }
  return runFlowRequest(req, bm, queueMs);
}

std::string Service::runFlowRequest(const Request& req,
                                    const workloads::Benchmark& bm,
                                    double queueMs) {
  util::Stopwatch wall;

  flow::FlowOptions opts = req.options;
  opts.solverTimeLimitSeconds =
      std::min(opts.solverTimeLimitSeconds, opts_.maxTimeLimitSeconds);
  if (req.deadlineMs > 0) {
    // Leave the remaining budget to the solver; queue time already spent
    // counts against it.
    opts.solverTimeLimitSeconds = std::min(
        opts.solverTimeLimitSeconds, (req.deadlineMs - queueMs) / 1000.0);
  }

  const bool useCache = opts_.cacheEnabled && !req.noCache;
  CacheKey key;
  if (useCache) {
    key.canonical = ir::canonicalHash(bm.graph);
    key.layout = ir::layoutHash(bm.graph);
    key.hardKey = flow::hardOptionKey(req.method, opts);
    // paperScale picks a different graph per name, but the graph hash
    // already separates the two sizes — no need to key on the flag.
    key.tcpNs = opts.tcpNs;
    key.timeLimitSeconds = opts.solverTimeLimitSeconds;
  }

  std::string cacheState = useCache ? "miss" : "off";
  flow::FlowResult warmSource;
  if (useCache) {
    SolutionCache::Lookup hit = cache_.lookup(key);
    if (hit.kind == SolutionCache::Lookup::Kind::Exact) {
      cServed_->inc();
      const double wallMs = wall.seconds() * 1000.0;
      hSolveSeconds_->observe(wall.seconds());
      noteDone(req, "ok", "hit", queueMs, wallMs);
      return resultResponse(req.id, "hit", queueMs, wallMs, hit.result);
    }
    if (hit.kind == SolutionCache::Lookup::Kind::Warm) {
      cacheState = "warm";
      warmSource = std::move(hit.result);
      opts.warmStartHint = &warmSource.schedule;
    }
  }

  const flow::FlowResult result = flow::runFlow(bm, req.method, opts);
  if (useCache && result.success) cache_.insert(key, result);

  const double wallMs = wall.seconds() * 1000.0;
  hSolveSeconds_->observe(wall.seconds());
  if (!result.success) {
    cFlowFailures_->inc();
    noteDone(req, "flow_failed", cacheState, queueMs, wallMs);
    // The partial result rides along: a verification failure after a
    // successful solve still carries its schedule and solver stats.
    return errorResponse(req.id, "flow_failed", result.error, &result);
  }
  cServed_->inc();
  noteDone(req, "ok", cacheState, queueMs, wallMs);
  return resultResponse(req.id, cacheState, queueMs, wallMs, result);
}

ServiceStats Service::stats() const {
  ServiceStats s;
  s.received = cReceived_->value();
  s.served = cServed_->value();
  s.badRequests = cBadRequests_->value();
  s.overloaded = cOverloaded_->value();
  s.deadlineExceeded = cDeadlineExceeded_->value();
  s.flowFailures = cFlowFailures_->value();
  s.infeasible = cInfeasible_->value();
  s.coalesced = cCoalesced_->value();
  s.drainRejected = cDrainRejected_->value();
  return s;
}

std::string Service::healthJson(const std::string& id) const {
  Json j = Json::object();
  if (!id.empty()) j.set("id", Json::string(id));
  j.set("ok", Json::boolean(true));
  Json h = Json::object();
  h.set("uptimeSeconds", Json::number(uptime_.seconds()));
  h.set("queueDepth",
        Json::integer(queued_.load(std::memory_order_relaxed)));
  h.set("inflight",
        Json::integer(inflight_.load(std::memory_order_relaxed)));
  h.set("cacheEntries",
        Json::integer(static_cast<std::int64_t>(cache_.size())));
  h.set("cacheResident",
        Json::integer(static_cast<std::int64_t>(cache_.residentSize())));
  h.set("draining",
        Json::boolean(draining_.load(std::memory_order_relaxed)));
  h.set("workers", Json::integer(opts_.workers));
  h.set("queueCap", Json::integer(opts_.queueCap));
  j.set("health", std::move(h));
  return j.dump();
}

void Service::refreshGauges() const {
  // Queue depth and in-flight are event-driven (Gauge::add/sub at the
  // admission/pickup/answer transitions) — no point-in-time refresh.
  gUptime_->set(uptime_.seconds());
  gCacheEntries_->set(static_cast<double>(cache_.size()));
  gCacheResident_->set(static_cast<double>(cache_.residentSize()));
}

void Service::noteDone(const Request& req, std::string_view status,
                       std::string_view cache, double queueMs, double wallMs) {
  logRequestDone(req, status, cache, queueMs, wallMs);

  RequestSummary s;
  s.id = req.id;
  s.verb = req.cmd.empty() ? "flow" : req.cmd;
  s.benchmark = !req.benchmark.empty()
                    ? req.benchmark
                    : (req.graphText.empty() ? std::string() : "<graph>");
  s.status = std::string(status);
  s.cache = std::string(cache);
  s.queueMs = queueMs;
  s.wallMs = wallMs;
  s.deadlineMs = req.deadlineMs;
  s.traceId = req.trace.valid() ? req.trace.traceId : std::string();
  {
    std::lock_guard<std::mutex> lock(flightMu_);
    flightRing_.push_back(std::move(s));
    while (flightRing_.size() > kFlightRingCap) flightRing_.pop_front();
  }

  if (status == "deadline_exceeded" || status == "flow_failed" ||
      status == "overloaded") {
    writeIncident(status);
  }
}

std::vector<RequestSummary> Service::recentRequests() const {
  std::lock_guard<std::mutex> lock(flightMu_);
  return {flightRing_.begin(), flightRing_.end()};
}

std::string Service::writeIncident(std::string_view reason) {
  if (opts_.incidentDir.empty()) return {};
  if (incidentsWritten_.load(std::memory_order_relaxed) >= kMaxIncidentFiles) {
    return {};
  }

  Json j = Json::object();
  j.set("reason", Json::string(std::string(reason)));
  j.set("pid", Json::integer(static_cast<std::int64_t>(::getpid())));
  j.set("wallUs",
        Json::integer(std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count()));
  j.set("uptimeSeconds", Json::number(uptime_.seconds()));
  Json ring = Json::array();
  {
    std::lock_guard<std::mutex> lock(flightMu_);
    for (const RequestSummary& s : flightRing_) {
      Json e = Json::object();
      e.set("id", Json::string(s.id));
      e.set("verb", Json::string(s.verb));
      if (!s.benchmark.empty()) e.set("benchmark", Json::string(s.benchmark));
      e.set("status", Json::string(s.status));
      if (!s.cache.empty()) e.set("cache", Json::string(s.cache));
      e.set("queueMs", Json::number(s.queueMs));
      e.set("wallMs", Json::number(s.wallMs));
      if (s.deadlineMs > 0) e.set("deadlineMs", Json::number(s.deadlineMs));
      if (!s.traceId.empty()) e.set("traceId", Json::string(s.traceId));
      ring.push(std::move(e));
    }
  }
  j.set("requests", std::move(ring));
  const auto tail = obs::recentLogRecords(kIncidentLogTail);
  Json logs = Json::array();
  for (const std::string& line : tail) logs.push(Json::string(line));
  j.set("log", std::move(logs));
  if (obs::traceEnabled()) {
    // The whole trace buffer (not one trace's subtree): incidents are
    // post-hoc, so the culprit request's trace id may be unknown.
    std::ostringstream tr;
    obs::writeChromeTrace(tr);
    if (auto doc = Json::parse(tr.str())) j.set("trace", std::move(*doc));
  }

  std::lock_guard<std::mutex> lock(incidentMu_);
  const int seq = incidentsWritten_.load(std::memory_order_relaxed);
  if (seq >= kMaxIncidentFiles) return {};
  std::error_code ec;
  std::filesystem::create_directories(opts_.incidentDir, ec);
  std::string path = opts_.incidentDir + "/incident-" + std::to_string(seq) +
                     "-" + std::to_string(::getpid()) + "-" +
                     std::string(reason) + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return {};
  out << j.dump() << "\n";
  out.close();
  if (!out) return {};
  incidentsWritten_.store(seq + 1, std::memory_order_relaxed);
  cIncidents_->inc();
  return path;
}

std::string Service::statsJson(const std::string& id) const {
  refreshGauges();
  // One registry pass: every counter/gauge/histogram below is read in
  // the same locked traversal (obs::Registry::toJson), not one load per
  // field at drifting instants like the pre-obs statsJson.
  util::Json metrics = metrics_.toJson();

  const CacheStats c = cache_.stats();
  Json j = Json::object();
  if (!id.empty()) j.set("id", Json::string(id));
  j.set("ok", Json::boolean(true));
  // What the registry does not hold: drain state, configuration and the
  // cache counters. Request counters live in "metrics" below.
  Json stats = Json::object();
  stats.set("draining",
            Json::boolean(draining_.load(std::memory_order_relaxed)));
  stats.set("workers", Json::integer(opts_.workers));
  stats.set("queueCap", Json::integer(opts_.queueCap));
  Json cache = Json::object();
  cache.set("entries", Json::integer(static_cast<std::int64_t>(cache_.size())));
  cache.set("resident",
            Json::integer(static_cast<std::int64_t>(cache_.residentSize())));
  cache.set("memEntries",
            Json::integer(static_cast<std::int64_t>(cache_.memEntries())));
  cache.set("exactHits",
            Json::integer(static_cast<std::int64_t>(c.exactHits)));
  cache.set("warmHits", Json::integer(static_cast<std::int64_t>(c.warmHits)));
  cache.set("misses", Json::integer(static_cast<std::int64_t>(c.misses)));
  cache.set("inserts", Json::integer(static_cast<std::int64_t>(c.inserts)));
  cache.set("loadedFromDisk",
            Json::integer(static_cast<std::int64_t>(c.loadedFromDisk)));
  cache.set("memHits", Json::integer(static_cast<std::int64_t>(c.memHits)));
  cache.set("diskTierHits",
            Json::integer(static_cast<std::int64_t>(c.diskTierHits)));
  cache.set("evictions",
            Json::integer(static_cast<std::int64_t>(c.evictions)));
  cache.set("evictionsLost",
            Json::integer(static_cast<std::int64_t>(c.evictionsLost)));
  cache.set("dir", Json::string(cache_.directory()));
  stats.set("cache", std::move(cache));
  j.set("stats", std::move(stats));
  // The full registry: counters, gauges and histograms with p50/p95/p99.
  j.set("metrics", std::move(metrics));
  // Process-wide solver telemetry (MILP node/prune/steal counters and
  // solve-latency histogram), shared by every service in the process.
  j.set("process", obs::Registry::global().toJson());
  return j.dump();
}

std::string Service::statsPrometheus() const {
  refreshGauges();
  return metrics_.toPrometheus() + obs::Registry::global().toPrometheus();
}

}  // namespace lamp::svc
