// Tests for the lampd fleet (src/fleet): consistent-hash ring stability
// under shard membership changes, request-coalescing fan-out (one solve,
// N identical responses), the tiered solution cache, the service drain
// protocol (no admitted request is lost), router failover past dead
// shards, and the headline fleet guarantee — a sharded fleet behind
// lamp-router produces byte-identical flow JSON to a single lampd.
//
// The TSan variant (compiled with LAMP_FLEET_TSAN_MIN) keeps only the
// dependency-free concurrency core — the hash ring and the coalescer —
// and hammers them from many threads; everything that needs the solver
// stack is compiled out.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fleet/coalesce.h"
#include "fleet/ring.h"

#ifndef LAMP_FLEET_TSAN_MIN
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>

#include "fleet/router.h"
#include "obs/trace.h"
#include "svc/server.h"
#include "svc/service.h"
#include "util/json.h"
#endif

namespace lamp::fleet {
namespace {

// ---------------------------------------------------------------------------
// Hash ring (compiled in both the full and the TSan-min variant).

TEST(RingHashTest, DeterministicAndSpreading) {
  EXPECT_EQ(ringHash64("CLZ"), ringHash64("CLZ"));
  EXPECT_NE(ringHash64("CLZ"), ringHash64("XORR"));
  // A one-character change must not produce a nearby value (the ring
  // relies on point scatter, not on input locality).
  const std::uint64_t a = ringHash64("shard-0#1");
  const std::uint64_t b = ringHash64("shard-0#2");
  const std::uint64_t delta = a > b ? a - b : b - a;
  EXPECT_GT(delta, std::uint64_t{1} << 32);
}

TEST(HashRingTest, EveryShardOwnsKeys) {
  HashRing ring(64);
  for (int i = 0; i < 4; ++i) ring.addShard("shard-" + std::to_string(i));
  std::map<std::string, int> load;
  for (int k = 0; k < 1000; ++k) {
    load[ring.owner("key-" + std::to_string(k))]++;
  }
  ASSERT_EQ(load.size(), 4u);
  for (const auto& [shard, n] : load) {
    EXPECT_GT(n, 0) << shard;
  }
}

TEST(HashRingTest, MembershipChangeOnlyRemapsAffectedShard) {
  HashRing ring(64);
  for (int i = 0; i < 4; ++i) ring.addShard("shard-" + std::to_string(i));

  std::vector<std::string> keys;
  for (int k = 0; k < 500; ++k) keys.push_back("key-" + std::to_string(k));
  std::map<std::string, std::string> before;
  for (const auto& k : keys) before[k] = ring.owner(k);

  // Removing shard-2 remaps exactly the keys shard-2 owned; every other
  // key keeps its owner (the warm-cache property the fleet relies on).
  ring.removeShard("shard-2");
  for (const auto& k : keys) {
    const std::string after = ring.owner(k);
    if (before[k] == "shard-2") {
      EXPECT_NE(after, "shard-2") << k;
    } else {
      EXPECT_EQ(after, before[k]) << k;
    }
  }

  // Adding it back restores the original assignment exactly.
  ring.addShard("shard-2");
  for (const auto& k : keys) EXPECT_EQ(ring.owner(k), before[k]) << k;

  // Adding a brand-new shard only *gains* keys — no key moves between
  // two pre-existing shards.
  ring.addShard("shard-4");
  for (const auto& k : keys) {
    const std::string after = ring.owner(k);
    if (after != "shard-4") {
      EXPECT_EQ(after, before[k]) << k;
    }
  }
}

TEST(HashRingTest, IdempotentMembershipAndEmptyRing) {
  HashRing ring(16);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.owner("anything"), "");
  ring.addShard("a");
  ring.addShard("a");  // no-op
  EXPECT_EQ(ring.shards(), std::vector<std::string>{"a"});
  EXPECT_EQ(ring.owner("anything"), "a");
  ring.removeShard("a");
  ring.removeShard("a");  // no-op
  EXPECT_TRUE(ring.empty());
}

TEST(HashRingTest, FilteredOwnerSkipsUnusableShards) {
  HashRing ring(64);
  for (int i = 0; i < 3; ++i) ring.addShard("shard-" + std::to_string(i));
  const std::string key = "some-canonical-digest";
  const std::string primary = ring.owner(key);

  // Rejecting the primary owner yields a *different* shard.
  const std::string fallback =
      ring.owner(key, [&](const std::string& s) { return s != primary; });
  EXPECT_FALSE(fallback.empty());
  EXPECT_NE(fallback, primary);

  // The unfiltered walk and an accept-all filter agree.
  EXPECT_EQ(ring.owner(key, [](const std::string&) { return true; }), primary);

  // No usable shard -> "".
  EXPECT_EQ(ring.owner(key, [](const std::string&) { return false; }), "");
}

// ---------------------------------------------------------------------------
// Coalescer (compiled in both variants; the TSan lane hammers it).

TEST(CoalescerTest, LeaderThenFollowersFanOut) {
  Coalescer c;
  std::vector<std::string> delivered;
  const std::uint64_t token = c.beginOrJoin("k", [&](const std::string& r) {
    delivered.push_back("leader-cb:" + r);  // leaders never get callbacks
  });
  ASSERT_NE(token, 0u);
  EXPECT_EQ(c.inFlight(), 1u);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.beginOrJoin(
                  "k", [&](const std::string& r) { delivered.push_back(r); }),
              0u);
  }
  EXPECT_EQ(c.publish("k", token, "response-bytes"), 3u);
  EXPECT_EQ(c.inFlight(), 0u);
  ASSERT_EQ(delivered.size(), 3u);
  for (const auto& r : delivered) EXPECT_EQ(r, "response-bytes");
}

TEST(CoalescerTest, StaleTokenPublishIsNoop) {
  Coalescer c;
  const std::uint64_t first = c.beginOrJoin("k", nullptr);
  ASSERT_NE(first, 0u);
  EXPECT_EQ(c.publish("k", first, "one"), 0u);

  // A new flight under the same key gets a fresh token; publishing with
  // the old token must not close it (or answer its followers).
  const std::uint64_t second = c.beginOrJoin("k", nullptr);
  ASSERT_NE(second, 0u);
  ASSERT_NE(second, first);
  int got = 0;
  EXPECT_EQ(c.beginOrJoin("k", [&](const std::string&) { ++got; }), 0u);
  EXPECT_EQ(c.publish("k", first, "stale"), 0u);
  EXPECT_EQ(got, 0);
  EXPECT_EQ(c.inFlight(), 1u);
  EXPECT_EQ(c.publish("k", second, "fresh"), 1u);
  EXPECT_EQ(got, 1);
}

TEST(CoalescerTest, ConcurrentFlightsHammer) {
  // Many threads race leadership over a small key space. Invariants:
  // every operation is a flight or a follower, every follower callback
  // fires exactly once with the leader's bytes (publish counts each one),
  // and nothing stays open.
  Coalescer c;
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> leaders{0};
  std::atomic<std::uint64_t> followers{0};
  std::atomic<std::uint64_t> fanout{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string key = "key-" + std::to_string((t * 31 + i) % 16);
        const std::uint64_t token =
            c.beginOrJoin(key, [&](const std::string& r) {
              if (r == "done") delivered.fetch_add(1);
            });
        if (token != 0) {
          leaders.fetch_add(1);
          fanout.fetch_add(c.publish(key, token, "done"));
        } else {
          followers.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(leaders.load() + followers.load(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(fanout.load(), followers.load());
  EXPECT_EQ(delivered.load(), followers.load());
  EXPECT_EQ(c.inFlight(), 0u);
}

#ifndef LAMP_FLEET_TSAN_MIN

// ---------------------------------------------------------------------------
// Service-level: coalescing, drain protocol, tiered cache, health verb.

using util::Json;

std::string flowRequest(const std::string& id, const std::string& bench,
                        int timeLimitSeconds = 5) {
  return "{\"id\":\"" + id + "\",\"benchmark\":\"" + bench +
         "\",\"options\":{\"timeLimitSeconds\":" +
         std::to_string(timeLimitSeconds) + "}}";
}

bool responseOk(const std::string& response) {
  const auto doc = Json::parse(response);
  if (!doc || !doc->isObject()) return false;
  const Json* ok = doc->find("ok");
  return ok != nullptr && ok->asBool();
}

std::string field(const std::string& response, const char* key) {
  const auto doc = Json::parse(response);
  if (!doc || !doc->isObject()) return "";
  const Json* v = doc->find(key);
  if (v == nullptr) return "";
  return v->isString() ? v->asString() : v->dump();
}

/// The "result" member's exact bytes — the fleet bit-identity unit.
std::string resultBytes(const std::string& response) {
  return field(response, "result");
}

/// The "result" member with wall-clock solver telemetry zeroed
/// (phaseSeconds, branchNodes, ...). Two *independent* solves of the
/// same instance agree on everything else byte-for-byte — the solver is
/// deterministic — but not on embedded timings; full byte-identity is
/// only guaranteed where bytes are actually replayed (cache hits,
/// router forwarding), and is asserted there with resultBytes().
std::string normalizedResultBytes(const std::string& response) {
  const auto doc = Json::parse(response);
  if (!doc || !doc->isObject()) return "";
  const Json* result = doc->find("result");
  if (result == nullptr || !result->isObject()) return "";
  Json copy = *result;
  if (const Json* solver = copy.find("solver");
      solver != nullptr && solver->isObject()) {
    Json s = *solver;
    s.set("branchNodes", Json::integer(0));
    s.set("phaseSeconds", Json::object());
    // Convergence telemetry is wall-clock-stamped and race-dependent
    // (event order varies between independent solves), like the timings.
    s.set("convergence", Json::array());
    s.set("convergenceDropped", Json::integer(0));
    copy.set("solver", std::move(s));
  }
  return copy.dump();
}

/// The value of counter `name` in `registry`; fails the test when the
/// registry has no such series.
std::int64_t count(const obs::Registry& registry, const std::string& name) {
  const Json all = registry.toJson();
  const Json* series = all.find(name);
  if (series == nullptr) {
    ADD_FAILURE() << "no series " << name;
    return -1;
  }
  return series->find("value")->asInt(-1);
}

std::future<std::string> submitAsync(svc::Service& svc,
                                     const std::string& line) {
  auto prom = std::make_shared<std::promise<std::string>>();
  auto fut = prom->get_future();
  svc.submit(line,
             [prom](std::string r) { prom->set_value(std::move(r)); });
  return fut;
}

std::string makeTempDir(const std::string& tag) {
  std::string tmpl = "/tmp/lamp-" + tag + "-XXXXXX";
  char* p = ::mkdtemp(tmpl.data());
  EXPECT_NE(p, nullptr);
  return p != nullptr ? std::string(p) : std::string();
}

TEST(ServiceFleetTest, HealthVerbReportsLiveState) {
  svc::ServiceOptions opts;
  opts.workers = 1;
  opts.queueCap = 4;
  svc::Service service(opts);

  const std::string response = service.call("{\"id\":\"h\",\"cmd\":\"health\"}");
  ASSERT_TRUE(responseOk(response)) << response;
  const auto doc = Json::parse(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(field(response, "id"), "h");
  const Json* health = doc->find("health");
  ASSERT_NE(health, nullptr);
  ASSERT_TRUE(health->isObject());
  for (const char* key : {"uptimeSeconds", "queueDepth", "inflight",
                          "cacheEntries", "cacheResident", "draining",
                          "workers", "queueCap"}) {
    EXPECT_NE(health->find(key), nullptr) << key;
  }
  EXPECT_FALSE(health->find("draining")->asBool());
  EXPECT_EQ(health->find("workers")->asInt(-1), 1);
  EXPECT_EQ(health->find("queueCap")->asInt(-1), 4);
}

TEST(ServiceFleetTest, CoalescesIdenticalInflightRequests) {
  svc::ServiceOptions opts;
  opts.workers = 1;  // a sleeper pins the only worker
  svc::Service service(opts);

  // Pin the worker so the leader stays in flight while followers join.
  auto sleeper =
      submitAsync(service, "{\"id\":\"z\",\"cmd\":\"sleep\",\"ms\":500}");
  auto leader = submitAsync(service, flowRequest("lead", "GFMUL"));
  std::vector<std::future<std::string>> followers;
  for (int i = 0; i < 3; ++i) {
    followers.push_back(
        submitAsync(service, flowRequest("f" + std::to_string(i), "GFMUL")));
  }

  const std::string leaderResp = leader.get();
  ASSERT_TRUE(responseOk(leaderResp)) << leaderResp;
  EXPECT_EQ(field(leaderResp, "cache"), "miss");
  EXPECT_EQ(field(leaderResp, "id"), "lead");

  for (int i = 0; i < 3; ++i) {
    const std::string resp = followers[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(responseOk(resp)) << resp;
    // One solve, N identical responses: followers carry the leader's
    // result bytes verbatim, only the envelope differs.
    EXPECT_EQ(field(resp, "cache"), "coalesced");
    EXPECT_EQ(field(resp, "id"), "f" + std::to_string(i));
    EXPECT_EQ(resultBytes(resp), resultBytes(leaderResp));
  }
  sleeper.get();

  EXPECT_EQ(count(service.metrics(), "lamp_svc_coalesced_total"), 3);
  EXPECT_EQ(service.cache().stats().inserts, 1u);  // exactly one solve
  EXPECT_EQ(service.cache().stats().misses, 1u);
}

TEST(ServiceFleetTest, DrainFinishesAdmittedWorkAndRejectsNew) {
  svc::ServiceOptions opts;
  opts.workers = 1;
  svc::Service service(opts);

  // Admit work that will still be outstanding when drain lands.
  auto sleeper =
      submitAsync(service, "{\"id\":\"z\",\"cmd\":\"sleep\",\"ms\":300}");
  auto q1 = submitAsync(service, flowRequest("a", "XORR"));
  auto q2 = submitAsync(service, flowRequest("b", "CLZ"));

  const std::string drainResp = service.call("{\"id\":\"d\",\"cmd\":\"drain\"}");
  ASSERT_TRUE(responseOk(drainResp)) << drainResp;
  const auto drainDoc = Json::parse(drainResp);
  ASSERT_TRUE(drainDoc.has_value());
  EXPECT_TRUE(drainDoc->find("draining")->asBool());
  // The sleeper plus the two queued flow requests are outstanding.
  EXPECT_GE(drainDoc->find("inflight")->asInt(0), 2);
  EXPECT_TRUE(service.draining());

  // New flow work is rejected while draining; control verbs still work.
  const std::string rejected = service.call(flowRequest("c", "GFMUL"));
  EXPECT_FALSE(responseOk(rejected));
  EXPECT_EQ(field(rejected, "status"), "draining");
  ASSERT_TRUE(responseOk(service.call("{\"id\":\"s\",\"cmd\":\"stats\"}")));

  // Drain-without-request-loss: every admitted request completes.
  const std::string r1 = q1.get();
  const std::string r2 = q2.get();
  ASSERT_TRUE(responseOk(r1)) << r1;
  ASSERT_TRUE(responseOk(r2)) << r2;
  sleeper.get();

  // Resume reopens admission.
  ASSERT_TRUE(responseOk(service.call("{\"id\":\"r\",\"cmd\":\"resume\"}")));
  EXPECT_FALSE(service.draining());
  const std::string after = service.call(flowRequest("e", "XORR"));
  ASSERT_TRUE(responseOk(after)) << after;
  EXPECT_EQ(field(after, "cache"), "hit");  // solved before the drain

  EXPECT_EQ(count(service.metrics(), "lamp_svc_drain_rejected_total"), 1);
}

TEST(ServiceFleetTest, TieredCacheEvictsToDiskAndReloads) {
  const std::string dir = makeTempDir("tier");
  ASSERT_FALSE(dir.empty());

  svc::ServiceOptions opts;
  opts.workers = 1;
  opts.cacheDir = dir;
  opts.cacheMemEntries = 1;  // one resident payload; the rest on disk
  svc::Service service(opts);

  const std::string first = service.call(flowRequest("a", "XORR"));
  ASSERT_TRUE(responseOk(first)) << first;
  const std::string second = service.call(flowRequest("b", "CLZ"));
  ASSERT_TRUE(responseOk(second)) << second;

  // Both entries stay indexed; only one payload is resident.
  EXPECT_EQ(service.cache().size(), 2u);
  EXPECT_EQ(service.cache().residentSize(), 1u);
  EXPECT_GE(service.cache().stats().evictions, 1u);
  EXPECT_EQ(service.cache().stats().evictionsLost, 0u);

  // The evicted entry is still an exact hit — served via the disk tier,
  // byte-identical to the original solve.
  const std::string again = service.call(flowRequest("a2", "XORR"));
  ASSERT_TRUE(responseOk(again)) << again;
  EXPECT_EQ(field(again, "cache"), "hit");
  EXPECT_EQ(resultBytes(again), resultBytes(first));
  EXPECT_GE(service.cache().stats().diskTierHits, 1u);

  std::filesystem::remove_all(dir);
}

TEST(ServiceFleetTest, MemoryOnlyEvictionBecomesTombstone) {
  svc::ServiceOptions opts;
  opts.workers = 1;
  opts.cacheMemEntries = 1;  // no disk tier: eviction loses the payload
  svc::Service service(opts);

  ASSERT_TRUE(responseOk(service.call(flowRequest("a", "XORR"))));
  ASSERT_TRUE(responseOk(service.call(flowRequest("b", "CLZ"))));
  EXPECT_GE(service.cache().stats().evictionsLost, 1u);
  // The tombstone is excluded from size(); the survivor remains.
  EXPECT_EQ(service.cache().size(), 1u);

  // Re-requesting the evicted instance is a plain miss (re-solved).
  const std::string again = service.call(flowRequest("a2", "XORR"));
  ASSERT_TRUE(responseOk(again)) << again;
  EXPECT_EQ(field(again, "cache"), "miss");
}

// ---------------------------------------------------------------------------
// Fleet-level: in-process shards behind Unix sockets + the real Router.

/// An in-process "shard": a Service behind a UnixServer accept loop —
/// the same wiring lampd --socket uses, without fork/exec.
class InProcShard {
 public:
  bool start(svc::ServiceOptions opts, const std::string& socketPath) {
    service_ = std::make_unique<svc::Service>(std::move(opts));
    server_ = std::make_unique<svc::UnixServer>(svc::serviceHandler(*service_),
                                                socketPath);
    std::string error;
    if (!server_->listen(&error)) {
      ADD_FAILURE() << "shard listen failed: " << error;
      server_.reset();
      service_.reset();
      return false;
    }
    runner_ = std::thread([this] { server_->run(); });
    return true;
  }

  /// Tear down. The Router (whose pooled connections keep this shard's
  /// client threads alive) must already be destroyed.
  void stop() {
    if (server_) {
      server_->requestStop();
      if (runner_.joinable()) runner_.join();
      server_->stop();
      server_.reset();
    }
    service_.reset();
  }

  svc::Service& service() { return *service_; }
  ~InProcShard() { stop(); }

 private:
  std::unique_ptr<svc::Service> service_;
  std::unique_ptr<svc::UnixServer> server_;
  std::thread runner_;
};

/// The nine Table 1 paper benchmarks — the fleet must be transparent for
/// every one of them.
const std::vector<std::string>& paperBenchmarks() {
  static const std::vector<std::string> names = {
      "CLZ", "XORR", "GFMUL", "CORDIC", "MT", "AES", "RS", "DR", "GSM"};
  return names;
}

TEST(FleetTest, BitIdenticalToSingleDaemonAcrossBenchmarks) {
  const std::string dir = makeTempDir("fleet");
  ASSERT_FALSE(dir.empty());

  svc::ServiceOptions shardOpts;
  shardOpts.workers = 2;
  std::vector<std::unique_ptr<InProcShard>> shards;
  std::vector<std::string> sockets;
  for (int i = 0; i < 3; ++i) {
    sockets.push_back(dir + "/shard-" + std::to_string(i) + ".sock");
    shards.push_back(std::make_unique<InProcShard>());
    ASSERT_TRUE(shards.back()->start(shardOpts, sockets.back()));
  }

  // The reference: one plain Service, same options, solved cold.
  svc::Service single(shardOpts);

  {
    RouterOptions ropts;
    ropts.shardSockets = sockets;
    Router router(ropts);

    std::map<int, int> shardLoad;
    std::string firstClzFleetResp;
    for (const std::string& bench : paperBenchmarks()) {
      const std::string line = flowRequest("req-" + bench, bench);
      const int owner = router.shardFor(line);
      ASSERT_GE(owner, 0) << bench;
      ASSERT_LT(owner, 3) << bench;
      shardLoad[owner]++;

      const std::string fleetResp = router.call(line);
      const std::string singleResp = single.call(line);
      ASSERT_TRUE(responseOk(fleetResp)) << bench << ": " << fleetResp;
      ASSERT_TRUE(responseOk(singleResp)) << bench << ": " << singleResp;
      if (bench == "CLZ") firstClzFleetResp = fleetResp;

      // The headline guarantee: the flow JSON a fleet returns is what a
      // single daemon produces — byte-identical up to the embedded
      // wall-clock solver telemetry (which differs between any two
      // solves, fleet or not).
      EXPECT_EQ(normalizedResultBytes(fleetResp),
                normalizedResultBytes(singleResp))
          << bench;
      EXPECT_EQ(field(fleetResp, "id"), "req-" + bench);
      EXPECT_EQ(field(fleetResp, "cache"), field(singleResp, "cache"));
    }

    // Consistent hashing actually spreads the nine graphs.
    EXPECT_GE(shardLoad.size(), 2u);

    const obs::Registry& rm = router.metrics();
    EXPECT_EQ(count(rm, "lamp_router_routed_total"),
              static_cast<std::int64_t>(paperBenchmarks().size()));
    EXPECT_EQ(count(rm, "lamp_router_unavailable_total"), 0);
    EXPECT_EQ(count(rm, "lamp_router_bad_requests_total"), 0);

    // Re-requesting through the router lands on the same shard and is a
    // cache hit there — the cache-locality property of the ring. The hit
    // replays the stored result through the router transport, so here
    // byte-identity holds *exactly* (timings included).
    const std::string repeat = router.call(flowRequest("rep-CLZ", "CLZ"));
    ASSERT_TRUE(responseOk(repeat)) << repeat;
    EXPECT_EQ(field(repeat, "cache"), "hit");
    EXPECT_EQ(resultBytes(repeat), resultBytes(firstClzFleetResp));

    // Fleet health sees every shard healthy and counts their caches.
    const std::string health = router.call("{\"id\":\"h\",\"cmd\":\"health\"}");
    ASSERT_TRUE(responseOk(health)) << health;
    const auto doc = Json::parse(health);
    ASSERT_TRUE(doc.has_value());
    const Json* fleet = doc->find("fleet");
    ASSERT_NE(fleet, nullptr);
    const Json* shardsJson = fleet->find("shards");
    ASSERT_NE(shardsJson, nullptr);
    ASSERT_EQ(shardsJson->size(), 3u);
    std::int64_t cacheEntries = 0;
    for (std::size_t i = 0; i < shardsJson->size(); ++i) {
      const Json& s = shardsJson->at(i);
      EXPECT_TRUE(s.find("healthy")->asBool());
      EXPECT_FALSE(s.find("draining")->asBool());
      cacheEntries += s.find("cacheEntries")->asInt(0);
    }
    EXPECT_EQ(cacheEntries,
              static_cast<std::int64_t>(paperBenchmarks().size()));

    // Targeted control verb: shard 0's own stats come back verbatim.
    const std::string stats0 =
        router.call("{\"id\":\"s0\",\"cmd\":\"stats\",\"shard\":0}");
    ASSERT_TRUE(responseOk(stats0)) << stats0;
    EXPECT_NE(Json::parse(stats0)->find("stats"), nullptr);
  }  // Router destroyed first: pooled connections close, shards can join.

  for (auto& shard : shards) shard->stop();
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, RouterFailsOverPastDeadShard) {
  const std::string dir = makeTempDir("failover");
  ASSERT_FALSE(dir.empty());

  svc::ServiceOptions shardOpts;
  shardOpts.workers = 2;
  auto live = std::make_unique<InProcShard>();
  const std::string liveSock = dir + "/live.sock";
  ASSERT_TRUE(live->start(shardOpts, liveSock));

  {
    RouterOptions ropts;
    // Shard 1 never existed — connects fail instantly (ENOENT), so the
    // ring walk must fail over to the live shard for every key it owned.
    ropts.shardSockets = {liveSock, dir + "/dead.sock"};
    ropts.maxAttempts = 2;
    ropts.retryBackoffMs = 1;
    Router router(ropts);

    int deadOwned = 0;
    for (const char* bench : {"CLZ", "XORR", "GFMUL", "RS"}) {
      const std::string line = flowRequest("req-" + std::string(bench), bench);
      if (router.shardFor(line) == 1) ++deadOwned;
      const std::string resp = router.call(line);
      ASSERT_TRUE(responseOk(resp)) << bench << ": " << resp;
    }
    const obs::Registry& rm = router.metrics();
    EXPECT_EQ(count(rm, "lamp_router_unavailable_total"), 0);
    EXPECT_EQ(count(rm, "lamp_router_routed_total"), 4);
    const std::int64_t failovers = count(rm, "lamp_router_failovers_total");
    if (deadOwned > 0) {
      // The first dead-owned request fails over after exhausting its
      // connect attempts; that marks the shard unhealthy, so later
      // requests steer past it proactively (no failover counted).
      EXPECT_GE(failovers, 1);
      EXPECT_LE(failovers, deadOwned);
      EXPECT_GE(count(rm, "lamp_router_retries_total"), 1);
    } else {
      EXPECT_EQ(failovers, 0);
    }

    // The probe records the dead shard as unhealthy, the live one fine.
    const auto fleet = router.probe();
    ASSERT_EQ(fleet.size(), 2u);
    EXPECT_TRUE(fleet[0].healthy);
    EXPECT_FALSE(fleet[1].healthy);
  }

  live->stop();
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, RouterCoalescesConcurrentIdenticalRequests) {
  const std::string dir = makeTempDir("coalesce");
  ASSERT_FALSE(dir.empty());

  svc::ServiceOptions shardOpts;
  shardOpts.workers = 1;  // a sleeper pins the shard's only worker
  auto shard = std::make_unique<InProcShard>();
  const std::string sock = dir + "/shard.sock";
  ASSERT_TRUE(shard->start(shardOpts, sock));

  {
    RouterOptions ropts;
    ropts.shardSockets = {sock};
    Router router(ropts);

    // Occupy the shard so the leader's solve cannot finish before the
    // second identical request reaches the router.
    std::thread sleeper([&] {
      router.call("{\"id\":\"z\",\"cmd\":\"sleep\",\"ms\":600}");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::string r1, r2;
    std::thread t1([&] { r1 = router.call(flowRequest("one", "CLZ")); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::thread t2([&] { r2 = router.call(flowRequest("two", "CLZ")); });
    t1.join();
    t2.join();
    sleeper.join();

    ASSERT_TRUE(responseOk(r1)) << r1;
    ASSERT_TRUE(responseOk(r2)) << r2;
    EXPECT_EQ(field(r1, "id"), "one");
    EXPECT_EQ(field(r2, "id"), "two");
    // One upstream solve; the follower got the leader's bytes with the
    // coalesced tag. (r1 is the leader by construction: it was submitted
    // while the shard was idle at the router.)
    EXPECT_EQ(field(r2, "cache"), "coalesced");
    EXPECT_EQ(resultBytes(r2), resultBytes(r1));

    EXPECT_EQ(count(router.metrics(), "lamp_router_coalesced_total"), 1);
    // The sleep + the one forwarded solve.
    EXPECT_EQ(count(router.metrics(), "lamp_router_routed_total"), 2);
  }

  EXPECT_EQ(shard->service().cache().stats().inserts, 1u);
  shard->stop();
  std::filesystem::remove_all(dir);
}

// The fleet-wide Prometheus scrape ends with the router's own series,
// each under its name and help text with its count.
TEST(FleetTest, RouterScrapeCarriesEveryRouterSeries) {
  const std::string dir = makeTempDir("router-metrics");
  ASSERT_FALSE(dir.empty());

  svc::ServiceOptions shardOpts;
  shardOpts.workers = 1;  // a sleeper pins the shard's only worker
  auto shard = std::make_unique<InProcShard>();
  const std::string sock = dir + "/shard.sock";
  ASSERT_TRUE(shard->start(shardOpts, sock));

  {
    RouterOptions ropts;
    ropts.shardSockets = {sock};
    Router router(ropts);

    EXPECT_FALSE(responseOk(router.call("not json")));
    // A leader and one follower, kept in flight behind the sleeper.
    std::thread sleeper([&] {
      router.call("{\"id\":\"z\",\"cmd\":\"sleep\",\"ms\":600}");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::string r1, r2;
    std::thread t1([&] { r1 = router.call(flowRequest("one", "XORR")); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::thread t2([&] { r2 = router.call(flowRequest("two", "XORR")); });
    t1.join();
    t2.join();
    sleeper.join();
    ASSERT_TRUE(responseOk(r1)) << r1;
    ASSERT_EQ(field(r2, "cache"), "coalesced") << r2;
    // Drained behind the router's back, the one shard cannot serve.
    ASSERT_TRUE(responseOk(shard->service().call("{\"cmd\":\"drain\"}")));
    EXPECT_EQ(field(router.call(flowRequest("x", "GFMUL")), "status"),
              "unavailable");

    const std::string scrape =
        router.call(R"({"id":"p","cmd":"stats","format":"prometheus"})");
    ASSERT_TRUE(responseOk(scrape)) << scrape;
    const std::string text = field(scrape, "prometheus");
    const struct {
      const char* name;
      const char* help;
      int count;
    } series[] = {
        {"lamp_router_routed_total", "requests forwarded upstream", 2},
        {"lamp_router_coalesced_total", "answered by joining a router flight",
         1},
        {"lamp_router_retries_total", "reconnect/re-exchange attempts", 0},
        {"lamp_router_failovers_total", "served by a non-owner shard", 0},
        {"lamp_router_unavailable_total", "no shard could serve", 1},
        {"lamp_router_bad_requests_total", "rejected at the router", 1},
        {"lamp_router_flights_total", "coalescer flights led", 2},
        {"lamp_router_followers_total", "coalescer followers joined", 1},
    };
    for (const auto& s : series) {
      const std::string name = s.name;
      EXPECT_NE(text.find("# HELP " + name + " " + s.help + "\n# TYPE " +
                          name + " counter\n" + name + " " +
                          std::to_string(s.count) + "\n"),
                std::string::npos)
          << name << " in\n" << text;
    }
    std::size_t samples = 0;
    for (std::size_t at = text.find("\nlamp_router_"); at != std::string::npos;
         at = text.find("\nlamp_router_", at + 1)) {
      ++samples;
    }
    EXPECT_EQ(samples, std::size(series));
  }

  shard->stop();
  std::filesystem::remove_all(dir);
}

TEST(FleetTest, DrainBroadcastStopsAdmissionUntilResume) {
  const std::string dir = makeTempDir("drain");
  ASSERT_FALSE(dir.empty());

  svc::ServiceOptions shardOpts;
  shardOpts.workers = 1;
  auto shard = std::make_unique<InProcShard>();
  const std::string sock = dir + "/shard.sock";
  ASSERT_TRUE(shard->start(shardOpts, sock));

  {
    RouterOptions ropts;
    ropts.shardSockets = {sock};
    Router router(ropts);

    const std::string drainResp =
        router.call("{\"id\":\"d\",\"cmd\":\"drain\"}");
    ASSERT_TRUE(responseOk(drainResp)) << drainResp;
    const auto doc = Json::parse(drainResp);
    EXPECT_EQ(doc->find("reached")->asInt(0), 1);
    EXPECT_TRUE(doc->find("draining")->asBool());

    // Every shard is draining -> the router answers "unavailable"
    // without bothering the fleet (a router-only status).
    const std::string rejected = router.call(flowRequest("x", "CLZ"));
    EXPECT_FALSE(responseOk(rejected));
    EXPECT_EQ(field(rejected, "status"), "unavailable");
    EXPECT_EQ(count(router.metrics(), "lamp_router_unavailable_total"), 1);

    ASSERT_TRUE(responseOk(router.call("{\"id\":\"r\",\"cmd\":\"resume\"}")));
    const std::string served = router.call(flowRequest("y", "CLZ"));
    ASSERT_TRUE(responseOk(served)) << served;
  }

  shard->stop();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Distributed tracing across the fleet. The shards are in-process, so
// every hop shares one trace buffer — which is exactly what lets these
// tests assert the *links*: the parent chain is stitched through the
// traceparent rewriting on the wire, not through shared memory.

std::string tracedFlowRequest(const std::string& id, const std::string& bench,
                              const obs::TraceContext& ctx,
                              int timeLimitSeconds = 5) {
  return "{\"id\":\"" + id + "\",\"benchmark\":\"" + bench +
         "\",\"options\":{\"timeLimitSeconds\":" +
         std::to_string(timeLimitSeconds) + "},\"trace\":\"" +
         obs::formatTraceparent(ctx) + "\"}";
}

/// Span links and instant names harvested from the trace subtree a
/// response carries.
struct SpanSet {
  std::map<std::uint64_t, std::uint64_t> parentOf;
  std::map<std::uint64_t, std::string> nameOf;
  std::vector<std::string> instants;

  std::uint64_t findByName(const std::string& name) const {
    for (const auto& [span, n] : nameOf) {
      if (n == name) return span;
    }
    return 0;
  }

  bool hasInstant(const std::string& name) const {
    for (const std::string& i : instants) {
      if (i == name) return true;
    }
    return false;
  }

  /// Follows parent links upward from `span`; true when `ancestor` is
  /// reached (the connected-tree property across hops).
  bool reaches(std::uint64_t span, std::uint64_t ancestor) const {
    for (int hops = 0; hops < 64 && span != 0; ++hops) {
      if (span == ancestor) return true;
      const auto it = parentOf.find(span);
      if (it == parentOf.end()) return false;
      span = it->second;
    }
    return false;
  }
};

SpanSet gatherSpans(const std::string& response) {
  SpanSet set;
  const auto doc = Json::parse(response);
  if (!doc || !doc->isObject()) return set;
  const Json* trace = doc->find("trace");
  const Json* procs =
      trace != nullptr && trace->isObject() ? trace->find("procs") : nullptr;
  if (procs == nullptr || !procs->isArray()) return set;
  for (std::size_t p = 0; p < procs->size(); ++p) {
    const Json* events = procs->at(p).find("events");
    if (events == nullptr || !events->isArray()) continue;
    for (std::size_t i = 0; i < events->size(); ++i) {
      const Json& e = events->at(i);
      const std::string ph = e.find("ph")->asString();
      if (ph == "i") {
        set.instants.push_back(e.find("name")->asString());
      } else if (ph == "B") {
        const auto span =
            static_cast<std::uint64_t>(e.find("span")->asInt());
        set.parentOf[span] =
            static_cast<std::uint64_t>(e.find("parent")->asInt());
        set.nameOf[span] = e.find("name")->asString();
      }
    }
  }
  return set;
}

/// RAII: tracing on + clean buffers for one test, off afterwards.
struct TraceScope {
  TraceScope() {
    obs::setTraceEnabled(true);
    obs::clearTrace();
  }
  ~TraceScope() {
    obs::setTraceEnabled(false);
    obs::clearTrace();
  }
};

TEST(FleetTraceTest, FailoverKeepsTraceConnected) {
  const std::string dir = makeTempDir("trace-failover");
  ASSERT_FALSE(dir.empty());
  TraceScope tracing;

  svc::ServiceOptions shardOpts;
  shardOpts.workers = 2;
  auto live = std::make_unique<InProcShard>();
  const std::string liveSock = dir + "/live.sock";
  ASSERT_TRUE(live->start(shardOpts, liveSock));

  {
    RouterOptions ropts;
    ropts.shardSockets = {liveSock, dir + "/dead.sock"};
    ropts.maxAttempts = 2;
    ropts.retryBackoffMs = 1;
    Router router(ropts);

    // A benchmark the dead shard owns forces the walk to fail over while
    // the trace is live.
    std::string bench;
    for (const std::string& b : paperBenchmarks()) {
      if (router.shardFor(flowRequest("probe-" + b, b)) == 1) {
        bench = b;
        break;
      }
    }
    if (bench.empty()) bench = "CLZ";  // hashing spared shard 1 every key

    obs::TraceContext root;
    root.traceId = obs::newTraceId();
    std::string resp;
    std::uint64_t clientSpan = 0;
    {
      obs::ContextScope scope(root);
      obs::Span client("client_request", "client");
      clientSpan = client.spanId();
      obs::TraceContext fwd;
      fwd.traceId = root.traceId;
      fwd.spanId = clientSpan;
      resp = router.call(tracedFlowRequest("traced", bench, fwd));
    }
    ASSERT_TRUE(responseOk(resp)) << resp;

    // The response names the trace it carries.
    const auto doc = Json::parse(resp);
    const Json* trace = doc->find("trace");
    ASSERT_NE(trace, nullptr) << resp;
    EXPECT_EQ(trace->find("traceId")->asString(), root.traceId);

    const SpanSet set = gatherSpans(resp);
    const std::uint64_t svcSpan = set.findByName("svc_request");
    ASSERT_NE(svcSpan, 0u) << "shard-side span missing from the trace";
    ASSERT_NE(clientSpan, 0u);
    // One connected tree: the shard's request span chains through the
    // router's attempt span back to the client's root span.
    EXPECT_TRUE(set.reaches(svcSpan, clientSpan));
    EXPECT_NE(set.findByName("router_attempt"), 0u);
    // The flow phases ran under the same trace.
    const std::uint64_t flowSpan = set.findByName("flow");
    ASSERT_NE(flowSpan, 0u);
    EXPECT_TRUE(set.reaches(flowSpan, svcSpan));
    if (router.shardFor(flowRequest("probe-" + bench, bench)) == 1) {
      EXPECT_TRUE(set.hasInstant("router_failover")) << resp;
    }
  }

  live->stop();
  std::filesystem::remove_all(dir);
}

TEST(FleetTraceTest, CoalescedFollowerKeepsItsOwnTraceId) {
  const std::string dir = makeTempDir("trace-coalesce");
  ASSERT_FALSE(dir.empty());
  TraceScope tracing;

  svc::ServiceOptions shardOpts;
  shardOpts.workers = 1;  // a sleeper pins the shard's only worker
  auto shard = std::make_unique<InProcShard>();
  const std::string sock = dir + "/shard.sock";
  ASSERT_TRUE(shard->start(shardOpts, sock));

  {
    RouterOptions ropts;
    ropts.shardSockets = {sock};
    Router router(ropts);

    std::thread sleeper([&] {
      router.call("{\"id\":\"z\",\"cmd\":\"sleep\",\"ms\":600}");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    obs::TraceContext leaderRoot, followerRoot;
    leaderRoot.traceId = obs::newTraceId();
    followerRoot.traceId = obs::newTraceId();
    std::string r1, r2;
    std::thread t1([&] {
      obs::ContextScope scope(leaderRoot);
      obs::Span client("client_request", "client");
      obs::TraceContext fwd;
      fwd.traceId = leaderRoot.traceId;
      fwd.spanId = client.spanId();
      r1 = router.call(tracedFlowRequest("one", "CLZ", fwd));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::thread t2([&] {
      obs::ContextScope scope(followerRoot);
      obs::Span client("client_request", "client");
      obs::TraceContext fwd;
      fwd.traceId = followerRoot.traceId;
      fwd.spanId = client.spanId();
      r2 = router.call(tracedFlowRequest("two", "CLZ", fwd));
    });
    t1.join();
    t2.join();
    sleeper.join();

    ASSERT_TRUE(responseOk(r1)) << r1;
    ASSERT_TRUE(responseOk(r2)) << r2;
    EXPECT_EQ(field(r2, "cache"), "coalesced");

    // The leader's subtree belongs to the leader's trace; the follower's
    // response must carry the *follower's* trace id, not a copy of the
    // leader's attached subtree.
    const auto d1 = Json::parse(r1);
    const auto d2 = Json::parse(r2);
    ASSERT_NE(d1->find("trace"), nullptr) << r1;
    ASSERT_NE(d2->find("trace"), nullptr) << r2;
    EXPECT_EQ(d1->find("trace")->find("traceId")->asString(),
              leaderRoot.traceId);
    EXPECT_EQ(d2->find("trace")->find("traceId")->asString(),
              followerRoot.traceId);

    // The follower's trace still explains what happened to it: the
    // coalesce decision is an instant in *its* tree.
    const SpanSet fset = gatherSpans(r2);
    EXPECT_TRUE(fset.hasInstant("router_coalesced")) << r2;
    EXPECT_NE(fset.findByName("client_request"), 0u);
    // And it contains none of the leader's shard-side work.
    EXPECT_EQ(fset.findByName("svc_request"), 0u);

    // The leader's tree is complete: client -> router -> shard -> flow.
    const SpanSet lset = gatherSpans(r1);
    const std::uint64_t svcSpan = lset.findByName("svc_request");
    ASSERT_NE(svcSpan, 0u);
    EXPECT_TRUE(lset.reaches(svcSpan, lset.findByName("client_request")));
  }

  shard->stop();
  std::filesystem::remove_all(dir);
}

TEST(FleetTraceTest, DrainRejectionIsVisibleInTheTrace) {
  const std::string dir = makeTempDir("trace-drain");
  ASSERT_FALSE(dir.empty());
  TraceScope tracing;

  svc::ServiceOptions shardOpts;
  shardOpts.workers = 1;
  auto shard = std::make_unique<InProcShard>();
  const std::string sock = dir + "/shard.sock";
  ASSERT_TRUE(shard->start(shardOpts, sock));

  {
    RouterOptions ropts;
    ropts.shardSockets = {sock};
    Router router(ropts);

    // Drain the shard *behind the router's back* (directly, not via the
    // drain broadcast): the router must discover the rejection on the
    // wire mid-walk — that discovery is what the instant records.
    ASSERT_TRUE(responseOk(
        shard->service().call("{\"id\":\"d\",\"cmd\":\"drain\"}")));

    obs::TraceContext root;
    root.traceId = obs::newTraceId();
    std::string resp;
    std::uint64_t clientSpan = 0;
    {
      obs::ContextScope scope(root);
      obs::Span client("client_request", "client");
      clientSpan = client.spanId();
      obs::TraceContext fwd;
      fwd.traceId = root.traceId;
      fwd.spanId = clientSpan;
      resp = router.call(tracedFlowRequest("rejected", "CLZ", fwd));
    }
    EXPECT_FALSE(responseOk(resp));
    EXPECT_EQ(field(resp, "status"), "unavailable");

    // Even a rejection explains itself: the drain-reject decision is an
    // instant in the client's trace, and the router's routing span is
    // parented under the client root.
    const SpanSet set = gatherSpans(resp);
    EXPECT_TRUE(set.hasInstant("router_drain_reject")) << resp;
    const std::uint64_t routeSpan = set.findByName("router_route");
    ASSERT_NE(routeSpan, 0u) << resp;
    EXPECT_TRUE(set.reaches(routeSpan, clientSpan));
  }

  shard->stop();
  std::filesystem::remove_all(dir);
}

#endif  // LAMP_FLEET_TSAN_MIN

}  // namespace
}  // namespace lamp::fleet
