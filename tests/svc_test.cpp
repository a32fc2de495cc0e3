// Tests for the lampd scheduling service: lossless FlowResult JSON
// round-trips, solution-cache hit/warm/miss semantics, end-to-end
// request handling (cache hits bit-identical to the first solve),
// bounded-admission overload shedding, deadlines, on-disk persistence
// across service restarts, and warm-start objective parity with cold
// solves.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "analyze/analyze.h"
#include "flow/flow_json.h"
#include "ir/builder.h"
#include "svc/cache.h"
#include "svc/proto.h"
#include "svc/service.h"
#include "util/json.h"
#include "util/parse.h"

namespace lamp::svc {
namespace {

using util::Json;

/// One short GFMUL solve, shared by every test that just needs *a*
/// successful FlowResult (the 5s limit need not prove optimality).
const flow::FlowResult& solveSmall() {
  static const flow::FlowResult r = [] {
    flow::FlowOptions o;
    o.solverTimeLimitSeconds = 5.0;
    return flow::runFlow(
        *workloads::findBenchmark("GFMUL", workloads::Scale::Default),
        flow::Method::MilpMap, o);
  }();
  return r;
}

TEST(FlowJsonTest, ResultRoundTripIsLossless) {
  const flow::FlowResult r = solveSmall();
  ASSERT_TRUE(r.success) << r.error;
  const std::string first = flow::resultToJson(r).dump();

  const auto doc = Json::parse(first);
  ASSERT_TRUE(doc.has_value());
  flow::FlowResult back;
  std::string err;
  ASSERT_TRUE(flow::resultFromJson(*doc, back, &err)) << err;

  // Bit-identity: serialize -> parse -> serialize must reproduce the
  // exact bytes (doubles included) — the cache's core guarantee.
  EXPECT_EQ(flow::resultToJson(back).dump(), first);
  EXPECT_EQ(back.schedule.cycle, r.schedule.cycle);
  EXPECT_EQ(back.schedule.selectedCut, r.schedule.selectedCut);
  EXPECT_EQ(back.area.luts, r.area.luts);
  EXPECT_EQ(back.area.ffs, r.area.ffs);
  EXPECT_EQ(back.objective, r.objective);
  EXPECT_EQ(back.status, r.status);
}

// Records cached while FlowResult still mirrored its phase times into
// solver.solveSeconds/buildSeconds keep loading; the keys are ignored.
TEST(FlowJsonTest, ResultFromJsonIgnoresLegacySecondsKeys) {
  Json doc = flow::resultToJson(flow::FlowResult{});
  const std::string current = doc.dump();
  Json solver = *doc.find("solver");
  solver.set("solveSeconds", Json::number(1.5));
  solver.set("buildSeconds", Json::number(0.25));
  doc.set("solver", std::move(solver));

  flow::FlowResult back;
  std::string err;
  ASSERT_TRUE(flow::resultFromJson(doc, back, &err)) << err;
  EXPECT_EQ(flow::resultToJson(back).dump(), current);
}

TEST(FlowJsonTest, ResultFromJsonRejectsMalformed) {
  flow::FlowResult out;
  std::string err;
  const auto notObject = Json::parse("[1,2,3]");
  ASSERT_TRUE(notObject.has_value());
  EXPECT_FALSE(flow::resultFromJson(*notObject, out, &err));

  // Schedule arrays of unequal length are inconsistent.
  const flow::FlowResult r = solveSmall();
  ASSERT_TRUE(r.success);
  Json doc = flow::resultToJson(r);
  Json* sched = const_cast<Json*>(doc.find("schedule"));
  ASSERT_NE(sched, nullptr);
  Json* cycle = const_cast<Json*>(sched->find("cycle"));
  ASSERT_NE(cycle, nullptr);
  cycle->push(Json::integer(0));
  EXPECT_FALSE(flow::resultFromJson(doc, out, &err));
  EXPECT_FALSE(err.empty());
}

TEST(FlowJsonTest, OptionsRejectUnknownKeys) {
  flow::FlowOptions opts;
  std::string err;
  const auto ok = Json::parse(R"({"ii":2,"tcpNs":8.5,"k":6})");
  ASSERT_TRUE(ok.has_value());
  ASSERT_TRUE(flow::optionsFromJson(*ok, opts, &err)) << err;
  EXPECT_EQ(opts.ii, 2);
  EXPECT_EQ(opts.tcpNs, 8.5);
  EXPECT_EQ(opts.cuts.k, 6);

  const auto bad = Json::parse(R"({"ii":2,"unknownKnob":1})");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(flow::optionsFromJson(*bad, opts, &err));
  EXPECT_NE(err.find("unknownKnob"), std::string::npos);
}

flow::FlowOptions fromJson(const std::string& text) {
  flow::FlowOptions o;
  std::string err;
  const auto doc = Json::parse(text);
  EXPECT_TRUE(doc && flow::optionsFromJson(*doc, o, &err)) << text << err;
  return o;
}

// One table reads both spellings: for every option with a CLI flag, the
// flag and the request key set the same field to the same value (and
// nothing else), so lampc, lamp-cli and lamp-lint run what lampd runs.
TEST(FlowJsonTest, OptionTableFlagsMatchRequestKeys) {
  std::vector<std::string> analysisKeys;
  for (const flow::FlowOption& opt : flow::flowOptions()) {
    if (opt.flag.empty()) continue;
    const std::string key(opt.key), flag = "--" + std::string(opt.flag);
    // A value different from the default: 3 for integers, 2.5 for reals.
    std::string json = "3", arg = flag + "=3";
    if (std::holds_alternative<bool flow::FlowOptions::*>(opt.field)) {
      json = opt.flag.starts_with("no-") ? "false" : "true";
      arg = flag;
    } else if (std::holds_alternative<double flow::FlowOptions::*>(
                   opt.field)) {
      json = "2.5", arg = flag + "=2.5";
    } else if (std::holds_alternative<
                   cut::CutStrategy cut::CutEnumOptions::*>(opt.field)) {
      json = "\"area\"", arg = flag + "=area";
    }
    const flow::FlowOptions viaJson =
        fromJson("{\"" + key + "\":" + json + "}");

    flow::FlowOptions viaFlag;
    util::ArgParser cli;
    flow::addFlowFlags(cli, viaFlag);
    const char* argv[] = {"tool", arg.c_str()};
    std::string err;
    ASSERT_TRUE(cli.parse(2, argv, err)) << arg << ": " << err;

    const Json set = flow::optionsToJson(viaJson);
    EXPECT_EQ(set.members().size(), 1u) << key << " -> " << set.dump();
    EXPECT_NE(set.find(key), nullptr) << key << " -> " << set.dump();
    EXPECT_EQ(flow::optionsToJson(viaFlag).dump(), set.dump()) << arg;
    EXPECT_EQ(flow::hardOptionKey(flow::Method::MilpMap, viaFlag),
              flow::hardOptionKey(flow::Method::MilpMap, viaJson));
    if (opt.analysis) analysisKeys.push_back(key);
  }
  // lamp-lint takes exactly the flags whose options reach the analysis.
  EXPECT_EQ(analysisKeys, (std::vector<std::string>{
                              "ii", "tcpNs", "k", "schedSpace",
                              "analyzeBudgetMs"}));
}

TEST(FlowJsonTest, SwitchesAcceptBooleansAndZeroOne) {
  for (const flow::FlowOption& opt : flow::flowOptions()) {
    if (!std::holds_alternative<bool flow::FlowOptions::*>(opt.field)) {
      continue;
    }
    const std::string k = "{\"" + std::string(opt.key) + "\":";
    EXPECT_EQ(flow::optionsToJson(fromJson(k + "true}")).dump(),
              flow::optionsToJson(fromJson(k + "1}")).dump());
    EXPECT_EQ(flow::optionsToJson(fromJson(k + "false}")).dump(),
              flow::optionsToJson(fromJson(k + "0}")).dump());
    EXPECT_NE(flow::optionsToJson(fromJson(k + "true}")).dump(),
              flow::optionsToJson(fromJson(k + "false}")).dump());
    flow::FlowOptions o;
    std::string err;
    EXPECT_FALSE(flow::optionsFromJson(*Json::parse(k + "2}"), o, &err));
  }
}

// Every external number is checked, never truncated or cast out of
// range, and the rejection names the option.
TEST(FlowJsonTest, OptionsRejectBadNumbersNamingTheKey) {
  for (const char* bad :
       {R"({"ii":2.9})", R"({"ii":4294967297})", R"({"ii":1e300})",
        R"({"ii":1e999})", R"({"tcpNs":1e999})", R"({"alpha":-1e999})",
        R"({"k":4294967300})",
        R"({"cutThreads":-3000})", R"({"solverThreads":-1})",
        R"({"solverThreads":65})", R"({"verifySeed":4294967296})",
        R"({"verifyFrames":-1})", R"({"ii":"3"})"}) {
    const auto doc = Json::parse(bad);
    ASSERT_TRUE(doc.has_value()) << bad;
    const std::string key = doc->members().front().first;
    flow::FlowOptions o;
    std::string err;
    EXPECT_FALSE(flow::optionsFromJson(*doc, o, &err)) << bad;
    EXPECT_NE(err.find(key), std::string::npos) << bad << ": " << err;
  }
  // The bounds themselves are accepted.
  const flow::FlowOptions edge = fromJson(R"({"solverThreads":64,
      "cutThreads":0,"verifySeed":4294967295,"ii":2.0})");
  EXPECT_EQ(edge.solverThreads, 64);
  EXPECT_EQ(edge.cuts.threads, 0);
  EXPECT_EQ(edge.verifySeed, 4294967295u);
  EXPECT_EQ(edge.ii, 2);
}

TEST(FlowJsonTest, RequestLevelNumbersAreChecked) {
  for (const char* bad :
       {R"({"cmd":"sleep","ms":-1})", R"({"cmd":"sleep","ms":1e300})",
        R"({"cmd":"stats","shard":1.5})", R"({"cmd":"stats","shard":-1})",
        R"({"benchmark":"RS","deadlineMs":1e999})",
        R"({"benchmark":"RS","deadlineMs":"5"})"}) {
    std::string err, id;
    EXPECT_FALSE(parseRequest(bad, &err, &id).has_value()) << bad;
    const std::string key = Json::parse(bad)->members().back().first;
    EXPECT_NE(err.find(key), std::string::npos) << bad << ": " << err;
  }
  std::string err, id;
  const auto ok = parseRequest(R"({"cmd":"stats","shard":2})", &err, &id);
  ASSERT_TRUE(ok.has_value()) << err;
  EXPECT_EQ(ok->shard, 2);
}

// On-disk cache records are keyed by hardOptionKey: reading options
// through the table must not change a byte of it.
TEST(FlowJsonTest, HardOptionKeyOfDefaultsIsPinned) {
  EXPECT_EQ(flow::hardOptionKey(flow::Method::MilpMap, fromJson("{}")),
            "v5;m=map;ii=1;a=0.5;b=0.5;k=4;cs=depth;rs=0;lm=1;vf=8;vs=1;"
            "sp=0;ea=0;ce=0;ss=1;ab=50");
}

CacheKey keyFor(const flow::FlowResult& r, double tcpNs, double timeLimit) {
  // The graph hashes only have to be consistent within the test.
  CacheKey key;
  key.canonical = ir::GraphDigest{1, 2};
  key.layout = ir::GraphDigest{3, 4};
  flow::FlowOptions o;
  key.hardKey = flow::hardOptionKey(r.method, o);
  key.tcpNs = tcpNs;
  key.timeLimitSeconds = timeLimit;
  return key;
}

TEST(CacheTest, ExactWarmAndMissSemantics) {
  const flow::FlowResult r = solveSmall();
  ASSERT_TRUE(r.success) << r.error;
  SolutionCache cache;

  const CacheKey base = keyFor(r, 10.0, 20.0);
  EXPECT_EQ(cache.lookup(base).kind, SolutionCache::Lookup::Kind::Miss);
  cache.insert(base, r);
  EXPECT_EQ(cache.size(), 1u);

  // Same soft axes: exact hit, stored result returned verbatim.
  const auto exact = cache.lookup(base);
  EXPECT_EQ(exact.kind, SolutionCache::Lookup::Kind::Exact);
  EXPECT_EQ(flow::resultToJson(exact.result).dump(),
            flow::resultToJson(r).dump());

  // Looser clock target: warm hit (schedule feasible at 10ns stays
  // feasible at 12ns).
  const auto warm = cache.lookup(keyFor(r, 12.0, 20.0));
  EXPECT_EQ(warm.kind, SolutionCache::Lookup::Kind::Warm);

  // Different time limit at the same clock: also a warm hit.
  EXPECT_EQ(cache.lookup(keyFor(r, 10.0, 5.0)).kind,
            SolutionCache::Lookup::Kind::Warm);

  // Tighter clock target: the cached schedule may be infeasible — miss.
  EXPECT_EQ(cache.lookup(keyFor(r, 8.0, 20.0)).kind,
            SolutionCache::Lookup::Kind::Miss);

  // Different hard options: different bucket entirely.
  CacheKey otherOptions = base;
  otherOptions.hardKey += ";ii=999";
  EXPECT_EQ(cache.lookup(otherOptions).kind,
            SolutionCache::Lookup::Kind::Miss);

  // Different graph: different bucket.
  CacheKey otherGraph = base;
  otherGraph.canonical = ir::GraphDigest{99, 99};
  EXPECT_EQ(cache.lookup(otherGraph).kind, SolutionCache::Lookup::Kind::Miss);

  const CacheStats st = cache.stats();
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_EQ(st.exactHits, 1u);
  EXPECT_EQ(st.warmHits, 2u);
  EXPECT_EQ(st.misses, 4u);
}

TEST(CacheTest, WarmPrefersTightestUsableClock) {
  const flow::FlowResult r = solveSmall();
  ASSERT_TRUE(r.success) << r.error;
  SolutionCache cache;
  flow::FlowResult r8 = r, r10 = r;
  r8.objective = 8.0;
  r10.objective = 10.0;
  cache.insert(keyFor(r, 8.0, 20.0), r8);
  cache.insert(keyFor(r, 10.0, 20.0), r10);

  // A request at 11ns can reuse either entry; the one solved at the
  // largest usable tcpNs (closest constraints) wins.
  const auto warm = cache.lookup(keyFor(r, 11.0, 20.0));
  ASSERT_EQ(warm.kind, SolutionCache::Lookup::Kind::Warm);
  EXPECT_EQ(warm.result.objective, 10.0);
}

std::string requestLine(const std::string& id, const std::string& benchmark,
                        double timeLimit = 5.0, double tcpNs = 10.0,
                        bool noCache = false) {
  std::ostringstream os;
  os << "{\"id\":\"" << id << "\",\"benchmark\":\"" << benchmark
     << "\",\"method\":\"map\",\"options\":{\"timeLimitSeconds\":" << timeLimit
     << ",\"tcpNs\":" << tcpNs << "}";
  if (noCache) os << ",\"noCache\":true";
  os << "}";
  return os.str();
}

const Json* field(const Json& doc, const char* key) {
  const Json* f = doc.find(key);
  EXPECT_NE(f, nullptr) << "missing field " << key << " in " << doc.dump();
  return f;
}

TEST(ServiceTest, RepeatedRequestHitsCacheBitIdentically) {
  ServiceOptions so;
  so.workers = 1;
  Service service(so);

  const std::string line = requestLine("a", "GFMUL");
  const std::string first = service.call(line);
  const auto doc1 = Json::parse(first);
  ASSERT_TRUE(doc1.has_value()) << first;
  ASSERT_TRUE(field(*doc1, "ok")->asBool()) << first;
  EXPECT_EQ(field(*doc1, "cache")->asString(), "miss");

  const std::string second = service.call(line);
  const auto doc2 = Json::parse(second);
  ASSERT_TRUE(doc2.has_value()) << second;
  ASSERT_TRUE(field(*doc2, "ok")->asBool()) << second;
  EXPECT_EQ(field(*doc2, "cache")->asString(), "hit");

  // The acceptance bar: a cache hit returns the *bit-identical* result.
  EXPECT_EQ(field(*doc2, "result")->dump(), field(*doc1, "result")->dump());

  EXPECT_EQ(service.cache().stats().exactHits, 1u);
  EXPECT_EQ(service.stats().served, 2u);
}

TEST(ServiceTest, NoCacheRequestsBypassTheCache) {
  ServiceOptions so;
  so.workers = 1;
  Service service(so);
  const std::string line = requestLine("a", "GFMUL", 20.0, 10.0, true);
  service.call(line);
  const std::string second = service.call(line);
  const auto doc = Json::parse(second);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(field(*doc, "cache")->asString(), "off");
  EXPECT_EQ(service.cache().size(), 0u);
}

TEST(ServiceTest, MalformedRequestsAreRejectedInline) {
  Service service;
  for (const char* bad :
       {"not json at all", "{\"id\":\"x\"}",
        "{\"id\":\"x\",\"benchmark\":\"GFMUL\",\"surprise\":1}",
        "{\"id\":\"x\",\"benchmark\":\"NO_SUCH_BENCHMARK\"}",
        "{\"id\":\"x\",\"benchmark\":\"GFMUL\",\"options\":{\"ii\":0}}"}) {
    const std::string resp = service.call(bad);
    const auto doc = Json::parse(resp);
    ASSERT_TRUE(doc.has_value()) << resp;
    EXPECT_FALSE(field(*doc, "ok")->asBool()) << bad;
  }
  EXPECT_EQ(service.stats().badRequests, 5u);
}

TEST(ServiceTest, OverloadShedsExplicitly) {
  ServiceOptions so;
  so.workers = 1;
  so.queueCap = 1;
  Service service(so);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> responses;
  const auto collect = [&](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(std::move(r));
    cv.notify_all();
  };

  // One request occupies the worker (give it time to be picked up), one
  // sits in the queue; every further submission inside the sleep window
  // must be rejected inline with "overloaded".
  const std::string sleeper = R"({"id":"s","cmd":"sleep","ms":800})";
  service.submit(sleeper, collect);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  service.submit(sleeper, collect);
  int overloaded = 0;
  for (int i = 0; i < 4; ++i) {
    const std::string resp = service.call(sleeper);
    if (resp.find("\"overloaded\"") != std::string::npos) ++overloaded;
  }
  EXPECT_GE(overloaded, 3);  // tolerate one slow-machine pickup race
  service.drain();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return responses.size() == 2u; });
  }
  EXPECT_GE(service.stats().overloaded, 3u);
}

TEST(ServiceTest, ExpiredDeadlineSkipsTheSolve) {
  ServiceOptions so;
  so.workers = 1;
  Service service(so);
  std::mutex mu;
  std::vector<std::string> sink;
  service.submit(R"({"id":"s","cmd":"sleep","ms":300})", [&](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    sink.push_back(std::move(r));
  });
  // This request's 50ms budget burns away behind the sleeper; the worker
  // must answer deadline_exceeded without starting the solver.
  const std::string resp = service.call(
      R"({"id":"d","benchmark":"RS","deadlineMs":50})");
  const auto doc = Json::parse(resp);
  ASSERT_TRUE(doc.has_value()) << resp;
  EXPECT_FALSE(field(*doc, "ok")->asBool());
  EXPECT_EQ(field(*doc, "status")->asString(), "deadline_exceeded");
  EXPECT_EQ(service.stats().deadlineExceeded, 1u);
  service.drain();
}

TEST(ServiceTest, DiskCacheSurvivesRestart) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "lamp_svc_cache_test";
  std::filesystem::remove_all(dir);

  const std::string line = requestLine("a", "GFMUL");
  std::string coldResult;
  {
    ServiceOptions so;
    so.workers = 1;
    so.cacheDir = dir.string();
    Service service(so);
    const auto doc = Json::parse(service.call(line));
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(field(*doc, "ok")->asBool());
    coldResult = field(*doc, "result")->dump();
    EXPECT_EQ(service.cache().stats().inserts, 1u);
  }
  {
    // A fresh service over the same directory serves the request from
    // the reloaded cache, bit-identically, without solving.
    ServiceOptions so;
    so.workers = 1;
    so.cacheDir = dir.string();
    Service service(so);
    EXPECT_EQ(service.cache().stats().loadedFromDisk, 1u);
    const auto doc = Json::parse(service.call(line));
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(field(*doc, "ok")->asBool());
    EXPECT_EQ(field(*doc, "cache")->asString(), "hit");
    EXPECT_EQ(field(*doc, "result")->dump(), coldResult);
  }
  std::filesystem::remove_all(dir);
}

TEST(ServiceTest, InlineGraphRequestsAreCachedByContent) {
  // Two textually different graphs (node names, graph name differ) with
  // identical structure must land in the same cache bucket.
  const char* g1 =
      "lampgraph v1 \"parity_a\"\n"
      "n input 8 0 0 0 0 \"x\"\n"
      "n input 8 0 0 0 0 \"y\"\n"
      "n xor 8 0 0 0 2 0:0 1:0 \"p\"\n"
      "n output 8 0 0 0 1 2:0 \"o\"\n"
      "end\n";
  const char* g2 =
      "lampgraph v1 \"parity_b\"\n"
      "n input 8 0 0 0 0 \"u\"\n"
      "n input 8 0 0 0 0 \"v\"\n"
      "n xor 8 0 0 0 2 0:0 1:0 \"q\"\n"
      "n output 8 0 0 0 1 2:0 \"z\"\n"
      "end\n";
  ServiceOptions so;
  so.workers = 1;
  Service service(so);
  const auto lineFor = [](const char* text) {
    Json req = Json::object();
    req.set("id", Json::string("g"));
    req.set("graph", Json::string(text));
    req.set("options", *Json::parse(R"({"timeLimitSeconds":5})"));
    return req.dump();
  };
  const auto doc1 = Json::parse(service.call(lineFor(g1)));
  ASSERT_TRUE(doc1.has_value());
  ASSERT_TRUE(field(*doc1, "ok")->asBool()) << service.call(lineFor(g1));
  const auto doc2 = Json::parse(service.call(lineFor(g2)));
  ASSERT_TRUE(doc2.has_value());
  ASSERT_TRUE(field(*doc2, "ok")->asBool());
  EXPECT_EQ(field(*doc2, "cache")->asString(), "hit");
  EXPECT_EQ(field(*doc2, "result")->dump(), field(*doc1, "result")->dump());
}

// Warm starts must never hurt: the hint only seeds the incumbent, so a
// warm solve's objective is never worse than the cold solve's under the
// same budget, and exactly equal whenever both prove optimality. (On
// time-limit-truncated instances warm can end strictly BETTER — the
// inherited incumbent prunes subtrees the cold search wastes its budget
// in.) Checked on three benchmarks by default; LAMP_SVC_FULL_PARITY=1
// widens the sweep to all nine workloads (minutes of solver time).
TEST(ServiceTest, WarmStartReachesColdObjective) {
  std::vector<std::string> names = {"CLZ", "XORR", "GFMUL"};
  if (const char* full = std::getenv("LAMP_SVC_FULL_PARITY");
      full != nullptr && full[0] == '1') {
    names = {"CLZ", "XORR", "GFMUL", "CORDIC", "MT", "AES", "RS", "DR", "GSM"};
  }
  ServiceOptions so;
  so.workers = 1;
  Service service(so);
  for (const std::string& name : names) {
    // Solve at a tight clock, then request a looser clock: the second
    // solve warm-starts from the first solve's schedule.
    const auto seedDoc =
        Json::parse(service.call(requestLine("seed-" + name, name, 20, 10)));
    ASSERT_TRUE(seedDoc.has_value());
    ASSERT_TRUE(field(*seedDoc, "ok")->asBool()) << name;

    const std::string warmLine = requestLine("warm-" + name, name, 20, 12);
    const auto warmDoc = Json::parse(service.call(warmLine));
    ASSERT_TRUE(warmDoc.has_value());
    ASSERT_TRUE(field(*warmDoc, "ok")->asBool()) << name;
    EXPECT_EQ(field(*warmDoc, "cache")->asString(), "warm") << name;

    const std::string coldLine =
        requestLine("cold-" + name, name, 20, 12, /*noCache=*/true);
    const auto coldDoc = Json::parse(service.call(coldLine));
    ASSERT_TRUE(coldDoc.has_value());
    ASSERT_TRUE(field(*coldDoc, "ok")->asBool()) << name;

    const Json* warmSolver = field(*field(*warmDoc, "result"), "solver");
    const Json* coldSolver = field(*field(*coldDoc, "result"), "solver");
    const double warmObj = warmSolver->find("objective")->asDouble();
    const double coldObj = coldSolver->find("objective")->asDouble();
    EXPECT_LE(warmObj, coldObj + 1e-6) << name;
    if (warmSolver->find("status")->asString() == "optimal" &&
        coldSolver->find("status")->asString() == "optimal") {
      EXPECT_NEAR(warmObj, coldObj, 1e-6) << name;
    }
  }
}

// The "infeasible" status carries the analyzer's structured diagnostics
// and they survive the wire format losslessly.
TEST(ProtoTest, InfeasibleResponseCarriesDiagnosticsLosslessly) {
  std::vector<analyze::Diagnostic> diags(2);
  diags[0].code = std::string(analyze::kCodeClockInfeasible);
  diags[0].severity = analyze::Severity::Error;
  diags[0].message = "1 operation slower than tcpNs=1";
  diags[0].nodes = {2, 5};
  diags[0].hint = "raise tcpNs above 1.77 ns";
  diags[1].code = std::string(analyze::kCodeRecurrenceMii);
  diags[1].severity = analyze::Severity::Warning;
  diags[1].message = "recMII=5 exceeds the requested II";
  diags[1].nodes = {7, 8, 9};

  const std::string line = errorResponse(
      "req-1", "infeasible", "pre-solve analysis: ...", nullptr, &diags);
  const auto doc = Json::parse(line);
  ASSERT_TRUE(doc.has_value()) << line;
  EXPECT_FALSE(field(*doc, "ok")->asBool());
  EXPECT_EQ(field(*doc, "id")->asString(), "req-1");
  EXPECT_EQ(field(*doc, "status")->asString(), "infeasible");

  std::vector<analyze::Diagnostic> back;
  std::string err;
  ASSERT_TRUE(analyze::diagnosticsFromJson(*field(*doc, "diagnostics"), back,
                                           &err))
      << err;
  EXPECT_EQ(back, diags);

  // An empty diagnostic list is omitted, not serialized as [].
  const std::vector<analyze::Diagnostic> none;
  const auto bare =
      Json::parse(errorResponse("x", "bad_request", "m", nullptr, &none));
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->find("diagnostics"), nullptr);
}

// An analysis-infeasible request must be answered inline by submit() —
// never occupying a queue slot or a solver worker. With the only worker
// pinned by a sleeper, the response still arrives immediately.
TEST(ServiceTest, InfeasibleRequestAnsweredWithoutWorker) {
  ServiceOptions so;
  so.workers = 1;
  Service service(so);

  std::mutex mu;
  std::vector<std::string> sink;
  service.submit(R"({"id":"s","cmd":"sleep","ms":800})", [&](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    sink.push_back(std::move(r));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // tcpNs=1 is below a single LUT level: provably infeasible (LAMP001).
  const std::string resp = service.call(
      R"({"id":"i","benchmark":"GFMUL","options":{"tcpNs":1.0}})");
  {
    // The sleeper (800ms) has not finished, so the worker never served
    // this request — it was answered from the admission path.
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(sink.empty()) << "response waited behind the busy worker";
  }
  const auto doc = Json::parse(resp);
  ASSERT_TRUE(doc.has_value()) << resp;
  EXPECT_FALSE(field(*doc, "ok")->asBool());
  EXPECT_EQ(field(*doc, "status")->asString(), "infeasible");
  std::vector<analyze::Diagnostic> diags;
  std::string err;
  ASSERT_TRUE(analyze::diagnosticsFromJson(*field(*doc, "diagnostics"), diags,
                                           &err))
      << err;
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].code, analyze::kCodeClockInfeasible);
  EXPECT_EQ(diags[0].severity, analyze::Severity::Error);
  EXPECT_FALSE(diags[0].nodes.empty());

  EXPECT_EQ(service.stats().infeasible, 1u);
  EXPECT_EQ(service.stats().flowFailures, 0u);
  EXPECT_EQ(service.cache().size(), 0u);
  service.drain();
}

// Acceptance bar for the recurrence pass: on a loop-carried multiply the
// analyzer's recMII equals the II the MILP proves optimal. dspMulNs=20
// at a 10ns clock gives the multiplier exactly 2 cycles with no
// combinational remainder, so the dist-1 cycle forces II >= 2 and the
// solver can achieve it exactly.
TEST(ServiceTest, AnalyzerRecMiiMatchesMilpProvenOptimalIi) {
  ir::GraphBuilder b("recurrence");
  ir::Value a = b.input("a", 8);
  ir::Value st = b.placeholder(8, "st");
  ir::Value m = b.mul(st.prev(1), a, 8, "m");
  b.bindPlaceholder(st, m);
  b.output(m, "out");
  const workloads::Benchmark bm =
      workloads::benchmarkFromGraph(b.take(), "recMII acceptance");

  flow::FlowOptions opts;
  opts.delays.dspMulNs = 20.0;
  opts.solverTimeLimitSeconds = 10.0;

  const analyze::AnalysisReport report = analyze::analyzeGraph(
      bm.graph, flow::analysisOptions(bm, flow::Method::MilpMap, opts));
  EXPECT_EQ(report.recMii, 2);
  // Within runFlow's retry window: a Warning, not an Error — the flow
  // may proceed and settle at II=2.
  EXPECT_FALSE(report.hasErrors()) << analyze::summarizeErrors(report);

  const flow::FlowResult r = flow::runFlow(bm, flow::Method::MilpMap, opts);
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(r.schedule.ii, report.recMii);
  // The successful result still carries the LAMP002 warning.
  bool sawRecWarning = false;
  for (const analyze::Diagnostic& d : r.diagnostics) {
    if (d.code == analyze::kCodeRecurrenceMii) {
      sawRecWarning = true;
      EXPECT_EQ(d.severity, analyze::Severity::Warning);
    }
  }
  EXPECT_TRUE(sawRecWarning);
}

}  // namespace
}  // namespace lamp::svc
