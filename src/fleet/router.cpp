#include "fleet/router.h"

#include <chrono>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "svc/proto.h"
#include "svc/service.h"
#include "util/json.h"

namespace lamp::fleet {

using util::Json;

namespace {

/// The router keys requests without the daemon's time-limit clamp
/// (infinity): keys merge only when the *requested* limits are equal,
/// which is always response-safe.
constexpr double kNoClamp = std::numeric_limits<double>::infinity();

/// Re-renders a request line with its "trace" field reparented under
/// `spanId` — the one field the router ever rewrites on the way up (so
/// the shard's spans nest under the router's; see router.h).
std::string withTraceParent(const std::string& line,
                            const std::string& traceId,
                            std::uint64_t spanId) {
  auto doc = Json::parse(line);
  if (!doc || !doc->isObject()) return line;
  obs::TraceContext ctx;
  ctx.traceId = traceId;
  ctx.spanId = spanId;
  doc->set("trace", Json::string(obs::formatTraceparent(ctx)));
  return doc->dump();
}

/// Appends this process's span subtree for `traceId` to a response's
/// "trace" object (creating the object when the shard attached none —
/// e.g. a shard running with tracing off, or an "unavailable" answer
/// the router itself rendered). Leaves the line untouched if it does
/// not parse.
std::string appendRouterProc(std::string response, const std::string& traceId) {
  auto doc = Json::parse(response);
  if (!doc || !doc->isObject()) return response;
  Json trace = Json::object();
  if (const Json* existing = doc->find("trace");
      existing != nullptr && existing->isObject()) {
    trace = *existing;
  } else {
    trace.set("traceId", Json::string(traceId));
  }
  Json procs = Json::array();
  if (const Json* p = trace.find("procs"); p != nullptr && p->isArray()) {
    procs = *p;
  }
  procs.push(obs::collectTrace(traceId));
  trace.set("procs", std::move(procs));
  doc->set("trace", std::move(trace));
  return doc->dump();
}

/// Injects a shard="i" label into one Prometheus sample line
/// (`name value` or `name{labels} value`). Comment/blank lines pass
/// through untouched.
std::string labelSample(const std::string& line, int shard) {
  if (line.empty() || line[0] == '#') return line;
  const std::size_t space = line.find(' ');
  if (space == std::string::npos) return line;
  const std::string label = "shard=\"" + std::to_string(shard) + "\"";
  const std::size_t brace = line.find('{');
  if (brace != std::string::npos && brace < space) {
    return line.substr(0, brace + 1) + label + "," + line.substr(brace + 1);
  }
  return line.substr(0, space) + "{" + label + "}" + line.substr(space);
}

/// True when a (small) response is the shard's "draining" rejection —
/// the race where a shard started draining after the last probe. Large
/// responses are successful results and skip the parse.
bool isDrainingRejection(const std::string& response) {
  if (response.size() > 4096) return false;
  const auto doc = Json::parse(response);
  if (!doc || !doc->isObject()) return false;
  const Json* ok = doc->find("ok");
  const Json* status = doc->find("status");
  return ok != nullptr && !ok->asBool() && status != nullptr &&
         status->asString() == "draining";
}

}  // namespace

Router::Router(RouterOptions opts)
    : opts_(std::move(opts)), ring_(opts_.vnodes) {
  cRouted_ = &metrics_.counter("lamp_router_routed_total",
                               "requests forwarded upstream");
  cCoalesced_ = &metrics_.counter("lamp_router_coalesced_total",
                                  "answered by joining a router flight");
  cRetries_ = &metrics_.counter("lamp_router_retries_total",
                                "reconnect/re-exchange attempts");
  cFailovers_ = &metrics_.counter("lamp_router_failovers_total",
                                  "served by a non-owner shard");
  cUnavailable_ = &metrics_.counter("lamp_router_unavailable_total",
                                    "no shard could serve");
  cBadRequests_ = &metrics_.counter("lamp_router_bad_requests_total",
                                    "rejected at the router");
  cFlights_ = &metrics_.counter("lamp_router_flights_total",
                                "coalescer flights led");
  cFollowers_ = &metrics_.counter("lamp_router_followers_total",
                                  "coalescer followers joined");
  for (const std::string& socket : opts_.shardSockets) {
    auto shard = std::make_unique<Shard>();
    shard->socket = socket;
    shards_.push_back(std::move(shard));
    ring_.addShard(socket);
  }
}

Router::~Router() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->poolMu);
    for (const auto& conn : shard->idle) util::closeFd(conn->fd());
    shard->idle.clear();
  }
}

bool Router::exchange(Shard& s, const std::string& line,
                      std::string& response) {
  // Stale pooled connections (the shard restarted behind us) are not
  // evidence the shard is down — burn through them without counting
  // attempts, then fall to bounded fresh connects with backoff.
  while (true) {
    std::unique_ptr<util::LineChannel> conn;
    {
      std::lock_guard<std::mutex> lock(s.poolMu);
      if (!s.idle.empty()) {
        conn = std::move(s.idle.back());
        s.idle.pop_back();
      }
    }
    if (!conn) break;
    if (conn->writeLine(line) && conn->readLine(response)) {
      std::lock_guard<std::mutex> lock(s.poolMu);
      s.idle.push_back(std::move(conn));
      s.healthy.store(true, std::memory_order_relaxed);
      return true;
    }
    util::closeFd(conn->fd());
  }

  int backoffMs = opts_.retryBackoffMs;
  for (int attempt = 0; attempt < std::max(1, opts_.maxAttempts); ++attempt) {
    if (attempt > 0) {
      cRetries_->inc();
      std::this_thread::sleep_for(std::chrono::milliseconds(backoffMs));
      backoffMs *= 2;
    }
    std::string err;
    const int fd =
        util::connectUnixSocket(s.socket, err, opts_.connectTimeoutMs);
    if (fd < 0) continue;  // transient: the shard may be restarting
    auto conn = std::make_unique<util::LineChannel>(fd);
    if (opts_.ioTimeoutMs > 0) conn->setTimeoutMs(opts_.ioTimeoutMs);
    if (conn->writeLine(line) && conn->readLine(response)) {
      std::lock_guard<std::mutex> lock(s.poolMu);
      s.idle.push_back(std::move(conn));
      s.healthy.store(true, std::memory_order_relaxed);
      return true;
    }
    util::closeFd(conn->fd());
  }
  s.healthy.store(false, std::memory_order_relaxed);
  return false;
}

std::string Router::routeFlow(const std::string& line,
                              const std::string& ringKey,
                              const std::string& id,
                              const obs::TraceContext& trace) {
  const bool traced = trace.valid() && obs::traceEnabled();
  std::string response;
  {
    // Scope: the router's spans must close before the subtree is
    // collected and appended below.
    obs::ContextScope traceScope(trace);
    obs::Span routeSpan("router_route", "fleet");
    response = walkRing(line, ringKey, id, traced);
  }
  if (traced) response = appendRouterProc(std::move(response), trace.traceId);
  return response;
}

std::string Router::walkRing(const std::string& line,
                             const std::string& ringKey,
                             const std::string& id, bool traced) {
  std::set<std::string> tried;
  const auto shardBySocket = [&](const std::string& socket) -> Shard* {
    for (const auto& s : shards_) {
      if (s->socket == socket) return s.get();
    }
    return nullptr;
  };
  const auto shardIndex = [&](const std::string& socket) -> int {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i]->socket == socket) return static_cast<int>(i);
    }
    return -1;
  };
  bool failedOver = false;
  for (std::size_t hop = 0; hop < shards_.size(); ++hop) {
    // Preferred walk: healthy, not draining, not already tried. When
    // nothing qualifies, retry shards marked unhealthy (they may be
    // back; exchange() re-proves them) — but never a draining shard.
    std::string owner = ring_.owner(ringKey, [&](const std::string& s) {
      Shard* sh = shardBySocket(s);
      return tried.count(s) == 0 && sh != nullptr &&
             sh->healthy.load(std::memory_order_relaxed) &&
             !sh->draining.load(std::memory_order_relaxed);
    });
    if (owner.empty()) {
      owner = ring_.owner(ringKey, [&](const std::string& s) {
        Shard* sh = shardBySocket(s);
        return tried.count(s) == 0 && sh != nullptr &&
               !sh->draining.load(std::memory_order_relaxed);
      });
    }
    if (owner.empty()) break;
    tried.insert(owner);
    Shard& sh = *shardBySocket(owner);
    std::string response;
    bool ok;
    {
      // One span per shard attempt: a failover shows as one closed
      // attempt followed by another on a different shard. The forwarded
      // line's trace context is reparented under this span, so the
      // shard's svc_request subtree nests inside the attempt that
      // actually reached it.
      obs::Span attemptSpan("router_attempt", "fleet",
                            obs::traceArg("shard", shardIndex(owner)));
      std::string fwd = line;
      if (traced && attemptSpan.spanId() != 0) {
        fwd = withTraceParent(line, obs::currentContext().traceId,
                              attemptSpan.spanId());
      }
      ok = exchange(sh, fwd, response);
    }
    if (!ok) {
      if (traced) obs::instant("router_failover", "fleet");
      failedOver = true;
      continue;
    }
    if (isDrainingRejection(response)) {
      if (traced) obs::instant("router_drain_reject", "fleet");
      sh.draining.store(true, std::memory_order_relaxed);
      failedOver = true;
      continue;
    }
    cRouted_->inc();
    if (failedOver) cFailovers_->inc();
    return response;
  }
  cUnavailable_->inc();
  return svc::errorResponse(id, "unavailable",
                            "no shard available for request");
}

void Router::submit(const std::string& line,
                    std::function<void(std::string)> done) {
  std::string error, id;
  auto req = svc::parseRequest(line, &error, &id);
  if (!req) {
    cBadRequests_->inc();
    done(svc::errorResponse(id, "bad_request", error));
    return;
  }

  if (!req->cmd.empty()) {
    if (req->shard >= 0) {  // targeted control verb: forward verbatim
      if (req->shard >= shardCount()) {
        cBadRequests_->inc();
        done(svc::errorResponse(
            req->id, "bad_request",
            "shard " + std::to_string(req->shard) + " out of range (fleet has " +
                std::to_string(shardCount()) + ")"));
        return;
      }
      Shard& sh = *shards_[static_cast<std::size_t>(req->shard)];
      std::string response;
      if (!exchange(sh, line, response)) {
        cUnavailable_->inc();
        done(svc::errorResponse(req->id, "unavailable",
                                "shard " + std::to_string(req->shard) +
                                    " (" + sh.socket + ") unreachable"));
        return;
      }
      if (req->cmd == "drain") sh.draining.store(true, std::memory_order_relaxed);
      if (req->cmd == "resume") sh.draining.store(false, std::memory_order_relaxed);
      cRouted_->inc();
      done(std::move(response));
      return;
    }
    if (req->cmd == "health") {
      const std::vector<ShardHealth> fleet = probe();
      Json j = Json::object();
      if (!req->id.empty()) j.set("id", Json::string(req->id));
      j.set("ok", Json::boolean(true));
      Json f = Json::object();
      Json arr = Json::array();
      for (const ShardHealth& h : fleet) {
        Json s = Json::object();
        s.set("socket", Json::string(h.socket));
        s.set("healthy", Json::boolean(h.healthy));
        s.set("draining", Json::boolean(h.draining));
        s.set("uptimeSeconds", Json::number(h.uptimeSeconds));
        s.set("queueDepth", Json::integer(h.queueDepth));
        s.set("inflight", Json::integer(h.inflight));
        s.set("cacheEntries", Json::integer(h.cacheEntries));
        arr.push(std::move(s));
      }
      f.set("shards", std::move(arr));
      const auto count = [](const obs::Counter* c) {
        return Json::integer(static_cast<std::int64_t>(c->value()));
      };
      f.set("routed", count(cRouted_));
      f.set("coalesced", count(cCoalesced_));
      f.set("failovers", count(cFailovers_));
      f.set("unavailable", count(cUnavailable_));
      j.set("fleet", std::move(f));
      done(j.dump());
      return;
    }
    if (req->cmd == "drain" || req->cmd == "resume") {
      // Broadcast; the aggregate is ok only if every shard was reached.
      const bool drain = req->cmd == "drain";
      int reached = 0;
      std::int64_t flushed = 0;
      for (const auto& shard : shards_) {
        std::string response;
        if (!exchange(*shard, line, response)) continue;
        ++reached;
        shard->draining.store(drain, std::memory_order_relaxed);
        if (const auto doc = Json::parse(response); doc && doc->isObject()) {
          if (const Json* fl = doc->find("flushed"); fl != nullptr) {
            flushed += fl->asInt(0);
          }
        }
      }
      Json j = Json::object();
      if (!req->id.empty()) j.set("id", Json::string(req->id));
      j.set("ok", Json::boolean(reached == shardCount()));
      j.set("draining", Json::boolean(drain));
      j.set("shards", Json::integer(shardCount()));
      j.set("reached", Json::integer(reached));
      if (drain) j.set("flushed", Json::integer(flushed));
      done(j.dump());
      return;
    }
    if (req->cmd == "stats") {  // fleet-wide aggregation (see router.h)
      done(fleetStats(req->id, req->statsFormat));
      return;
    }
    // "sleep": a diagnostics verb with no graph — route by the raw line.
    done(routeFlow(line, line, req->id));
    return;
  }

  // Flow request: resolve and key exactly like a daemon would, so the
  // ring key (the canonical hash) and the coalescing key (workKey) agree
  // with shard cache keys.
  workloads::Benchmark bm;
  std::string resolveError;
  if (!svc::resolveBenchmark(*req, bm, &resolveError)) {
    cBadRequests_->inc();
    done(svc::errorResponse(req->id, "bad_request", resolveError));
    return;
  }
  const svc::CacheKey key = svc::cacheKey(*req, bm, kNoClamp);
  const std::string ringKey = key.canonical.hex();

  if (opts_.coalesceEnabled && req->deadlineMs <= 0) {
    const std::string flightKey = svc::workKey(key, req->noCache);
    const std::uint64_t token = coalescer_.beginOrJoin(
        flightKey, [this, id = req->id, trace = req->trace,
                    done](const std::string& leader) {
          cCoalesced_->inc();
          std::optional<Json> doc = svc::followerResponse(leader, id);
          if (!doc) {  // a shard's bytes are outside input
            doc = Json::parse(svc::errorResponse(
                id, "unavailable", "shard answered with a malformed line"));
          }
          // A traced follower's trace object must be its *own*: the
          // leader's subtree belongs to the leader's trace id. The
          // router records the join under the follower's context and
          // attaches only its own proc, so the follower's merged trace
          // shows client -> router_coalesced and stays one tree.
          if (trace.valid() && obs::traceEnabled()) {
            {
              obs::ContextScope scope(trace);
              obs::instant("router_coalesced", "fleet");
            }
            Json t = Json::object();
            t.set("traceId", Json::string(trace.traceId));
            Json procs = Json::array();
            procs.push(obs::collectTrace(trace.traceId));
            t.set("procs", std::move(procs));
            doc->set("trace", std::move(t));
          }
          done(doc->dump());
        });
    if (token == 0) {  // follower: the leader's thread answers
      cFollowers_->inc();
      return;
    }
    cFlights_->inc();
    std::string response = routeFlow(line, ringKey, req->id, req->trace);
    coalescer_.publish(flightKey, token, response);
    done(std::move(response));
    return;
  }
  done(routeFlow(line, ringKey, req->id, req->trace));
}

std::string Router::call(const std::string& line) {
  return svc::callHandler(std::bind_front(&Router::submit, this), line);
}

std::string Router::fleetStats(const std::string& id,
                               const std::string& format) {
  Json j = Json::object();
  if (!id.empty()) j.set("id", Json::string(id));
  j.set("ok", Json::boolean(true));

  if (format == "prometheus") {
    // One merged exposition: every shard's samples re-labelled with
    // shard="i" (HELP/TYPE headers kept once), then the router's own
    // lamp_router_* series. A single scrape covers the whole fleet.
    std::string text;
    bool headersEmitted = false;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      std::string response;
      if (!exchange(*shards_[i],
                    "{\"cmd\":\"stats\",\"format\":\"prometheus\"}",
                    response)) {
        continue;
      }
      const auto doc = Json::parse(response);
      const Json* p =
          doc && doc->isObject() ? doc->find("prometheus") : nullptr;
      if (p == nullptr || !p->isString()) continue;
      std::istringstream in(p->asString());
      std::string lineText;
      while (std::getline(in, lineText)) {
        if (lineText.empty()) continue;
        if (lineText[0] == '#') {
          if (!headersEmitted) text += lineText + "\n";
        } else {
          text += labelSample(lineText, static_cast<int>(i)) + "\n";
        }
      }
      headersEmitted = true;
    }
    text += metrics_.toPrometheus();
    j.set("prometheus", Json::string(std::move(text)));
    return j.dump();
  }

  // JSON: one scrape per shard, each shard's own stats/metrics snapshot
  // nested under its index, plus the router's registry ("router").
  Json arr = Json::array();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Json s = Json::object();
    s.set("shard", Json::integer(static_cast<std::int64_t>(i)));
    s.set("socket", Json::string(shards_[i]->socket));
    std::string response;
    bool ok = false;
    if (exchange(*shards_[i], "{\"cmd\":\"stats\"}", response)) {
      if (const auto doc = Json::parse(response); doc && doc->isObject()) {
        ok = true;
        if (const Json* st = doc->find("stats")) s.set("stats", *st);
        if (const Json* m = doc->find("metrics")) s.set("metrics", *m);
        if (const Json* pr = doc->find("process")) s.set("process", *pr);
      }
    }
    s.set("ok", Json::boolean(ok));
    arr.push(std::move(s));
  }
  j.set("shards", std::move(arr));
  j.set("router", metrics_.toJson());
  return j.dump();
}

std::vector<ShardHealth> Router::probe() {
  std::vector<ShardHealth> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardHealth h;
    h.socket = shard->socket;
    std::string response;
    if (!exchange(*shard, "{\"cmd\":\"health\"}", response)) {
      h.healthy = false;
      h.draining = shard->draining.load(std::memory_order_relaxed);
      out.push_back(std::move(h));
      continue;
    }
    h.healthy = true;
    if (const auto doc = Json::parse(response); doc && doc->isObject()) {
      if (const Json* health = doc->find("health");
          health != nullptr && health->isObject()) {
        const auto num = [&](const char* k) -> double {
          const Json* v = health->find(k);
          return v != nullptr ? v->asDouble() : 0.0;
        };
        h.uptimeSeconds = num("uptimeSeconds");
        h.queueDepth = static_cast<std::int64_t>(num("queueDepth"));
        h.inflight = static_cast<std::int64_t>(num("inflight"));
        h.cacheEntries = static_cast<std::int64_t>(num("cacheEntries"));
        if (const Json* d = health->find("draining"); d != nullptr) {
          h.draining = d->asBool();
        }
      }
    }
    shard->draining.store(h.draining, std::memory_order_relaxed);
    out.push_back(std::move(h));
  }
  return out;
}

int Router::shardFor(const std::string& line) const {
  std::string error, id;
  const auto req = svc::parseRequest(line, &error, &id);
  if (!req || !req->cmd.empty()) return -1;
  workloads::Benchmark bm;
  if (!svc::resolveBenchmark(*req, bm, nullptr)) return -1;
  const std::string owner =
      ring_.owner(svc::cacheKey(*req, bm, kNoClamp).canonical.hex());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->socket == owner) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace lamp::fleet
