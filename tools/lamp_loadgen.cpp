// lamp-loadgen — SLO harness for a sharded lampd fleet.
//
// Spawns N lampd shards, fronts them with an in-process fleet::Router
// (the same code lamp-router serves), replays a benchmark-derived
// request mix at a paced rate, and asserts service-level objectives from
// the shards' metrics registries (queue-wait p99, solve-latency p99,
// shed rate) plus harness-side measurements (cache hit rate per pass,
// coalesce rate, client-observed latency percentiles). Writes one
// BENCH_fleet.json for tools/check-bench-regression.py --fleet.
//
//   lamp-loadgen --exec=PATH/TO/lampd --dir=SCRATCH [options]
//
//   --shards=N             lampd shards to spawn (default 3)
//   --workers=N            solver workers per shard (default 2)
//   --cache-mem-entries=N  per-shard in-memory cache bound (default 0)
//   --benchmarks=A,B,...   request mix (default: the nine paper
//                          benchmarks CLZ,XORR,GFMUL,CORDIC,MT,AES,RS,DR,GSM)
//   --duplicates=K         identical copies of each request per pass
//                          (default 2 — exercises coalescing: identical
//                          in-flight digests must collapse to one solve)
//   --passes=N             full replays of the mix (default 2; from pass
//                          2 on, every request should be a cache hit)
//   --qps=Q                paced request rate (default 50)
//   --concurrency=C        client threads (default 8)
//   --time-limit=S         per-request solver time limit (default 5)
//   --out=FILE             BENCH_fleet.json path (default ./BENCH_fleet.json)
//   --trace-out=FILE       distributed-tracing smoke: enable tracing on
//                          every shard (LAMP_TRACE=1) and the harness,
//                          send one traced request through the router
//                          before the paced passes, and write the merged
//                          client+router+shard Chrome trace to FILE
//   --incident-dir=DIR     arm each shard's flight recorder here
//                          (default SCRATCH/incidents); incident files
//                          found after shutdown are counted into the
//                          BENCH JSON
//
//   SLO assertions (any violation exits 1 after writing the JSON):
//   --assert-final-hit-rate=R   final-pass hit+coalesced rate >= R
//   --assert-max-shed-rate=R    fleet overloaded/received <= R
//   --assert-queue-p99-ms=X     max shard queue-wait p99 <= X ms
//   --assert-solve-p99-s=X      max shard solve p99 <= X s
//   --assert-min-coalesced=N    >= N responses tagged "coalesced"
//   --assert-max-incidents=N    <= N incident files written fleet-wide
//
// The harness talks only to the router; per-shard metrics are scraped
// through it with {"cmd":"stats","shard":i}. Client-observed latency is
// recorded per verb (flow / stats / drain) and emitted as histograms in
// the BENCH JSON.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/router.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/parse.h"
#include "util/socket.h"

using namespace lamp;
using util::Json;

namespace {

struct Args {
  std::string execPath;
  std::string dir;
  int shards = 3;
  int workers = 2;
  long cacheMemEntries = 0;
  std::vector<std::string> benchmarks = {"CLZ", "XORR", "GFMUL", "CORDIC",
                                         "MT",  "AES",  "RS",    "DR",
                                         "GSM"};
  int duplicates = 2;
  int passes = 2;
  double qps = 50.0;
  int concurrency = 8;
  double timeLimit = 5.0;
  std::string outPath = "BENCH_fleet.json";
  std::string traceOut;
  std::string incidentDir;  // defaulted to dir + "/incidents" after parse
  double assertFinalHitRate = -1.0;
  double assertMaxShedRate = -1.0;
  double assertQueueP99Ms = -1.0;
  double assertSolveP99S = -1.0;
  long assertMinCoalesced = -1;
  long assertMaxIncidents = -1;
  bool quiet = false;
};

bool parseArgs(int argc, char** argv, Args& a, std::string& err) {
  util::ArgParser cli;
  cli.text("exec", a.execPath);
  cli.text("dir", a.dir);
  cli.number("shards", a.shards);
  cli.number("workers", a.workers);
  cli.number("cache-mem-entries", a.cacheMemEntries);
  cli.add("benchmarks", util::FlagValue::Required,
          [&a](std::string_view v, std::string&) {
            a.benchmarks.clear();
            std::stringstream ss{std::string(v)};
            for (std::string tok; std::getline(ss, tok, ',');) {
              if (!tok.empty()) a.benchmarks.push_back(tok);
            }
            return true;
          });
  cli.number("duplicates", a.duplicates);
  cli.number("passes", a.passes);
  cli.number("qps", a.qps);
  cli.number("concurrency", a.concurrency);
  cli.number("time-limit", a.timeLimit);
  cli.text("out", a.outPath);
  cli.text("trace-out", a.traceOut, util::FlagValue::Path);
  cli.text("incident-dir", a.incidentDir, util::FlagValue::Path);
  cli.number("assert-final-hit-rate", a.assertFinalHitRate);
  cli.number("assert-max-shed-rate", a.assertMaxShedRate);
  cli.number("assert-queue-p99-ms", a.assertQueueP99Ms);
  cli.number("assert-solve-p99-s", a.assertSolveP99S);
  cli.number("assert-min-coalesced", a.assertMinCoalesced);
  cli.number("assert-max-incidents", a.assertMaxIncidents);
  cli.flag("quiet", a.quiet);
  if (!cli.parse(argc, argv, err)) return false;
  if (a.execPath.empty() || a.dir.empty()) {
    err = "--exec=PATH/TO/lampd and --dir=SCRATCH are required";
    return false;
  }
  if (a.shards < 1 || a.benchmarks.empty() || a.passes < 1 ||
      a.duplicates < 1 || a.concurrency < 1 || a.qps <= 0) {
    err = "invalid shard/mix/rate configuration";
    return false;
  }
  if (a.incidentDir.empty()) a.incidentDir = a.dir + "/incidents";
  return true;
}

struct ShardProc {
  pid_t pid = -1;
  std::string socket;
};

bool spawnShard(const Args& a, int index, ShardProc& shard, std::string& err) {
  shard.socket = a.dir + "/shard-" + std::to_string(index) + ".sock";
  const std::string cacheDir = a.dir + "/cache-" + std::to_string(index);
  const pid_t pid = fork();
  if (pid < 0) {
    err = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    std::vector<std::string> argvStr = {
        a.execPath, "--socket=" + shard.socket, "--cache-dir=" + cacheDir,
        "--workers=" + std::to_string(a.workers), "--quiet",
        "--incident-dir=" + a.incidentDir};
    if (a.cacheMemEntries > 0) {
      argvStr.push_back("--cache-mem-entries=" +
                        std::to_string(a.cacheMemEntries));
    }
    // Shards inherit tracing through the environment rather than
    // --trace-dir: we want the request-scoped subtrees that ride the
    // responses, not per-shard shutdown dumps.
    if (!a.traceOut.empty()) setenv("LAMP_TRACE", "1", 1);
    std::vector<char*> argvRaw;
    for (std::string& s : argvStr) argvRaw.push_back(s.data());
    argvRaw.push_back(nullptr);
    execv(a.execPath.c_str(), argvRaw.data());
    std::perror("lamp-loadgen: execv");
    _exit(127);
  }
  shard.pid = pid;
  return true;
}

bool waitForSocket(const std::string& socket, int timeoutMs) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeoutMs);
  while (std::chrono::steady_clock::now() < deadline) {
    std::string err;
    const int fd = util::connectUnixSocket(socket, err, 200);
    if (fd >= 0) {
      util::closeFd(fd);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

/// Client-observed latency samples bucketed by request verb (flow /
/// stats / drain), rendered as per-verb histograms in the BENCH JSON.
class LatencyRecorder {
 public:
  void add(const std::string& verb, double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[verb].push_back(ms);
  }

  Json toJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    Json out = Json::object();
    for (const auto& [verb, xs] : samples_) {
      Json h = Json::object();
      h.set("count", Json::integer(static_cast<std::int64_t>(xs.size())));
      h.set("p50Ms", Json::number(percentile(xs, 0.50)));
      h.set("p90Ms", Json::number(percentile(xs, 0.90)));
      h.set("p99Ms", Json::number(percentile(xs, 0.99)));
      h.set("maxMs",
            Json::number(*std::max_element(xs.begin(), xs.end())));
      out.set(verb, std::move(h));
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

struct Sample {
  bool ok = false;
  std::string cache;  // "hit"/"warm"/"miss"/"off"/"coalesced"/"" (error)
  double latencyMs = 0.0;
};

struct PassResult {
  int pass = 0;
  std::size_t requests = 0, ok = 0, hits = 0, coalesced = 0, warm = 0,
              miss = 0, errors = 0;
  double latencyP50Ms = 0.0, latencyP99Ms = 0.0, wallSeconds = 0.0,
         achievedQps = 0.0;
};

/// One paced replay of the mix: requests fire at t0 + i/qps, pulled by
/// `concurrency` client threads through the router.
PassResult runPass(fleet::Router& router, const std::vector<std::string>& mix,
                   int pass, double qps, int concurrency,
                   LatencyRecorder& lat) {
  std::vector<Sample> samples(mix.size());
  std::atomic<std::size_t> next{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(concurrency));
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= mix.size()) return;
        const auto fireAt =
            t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(i) / qps));
        std::this_thread::sleep_until(fireAt);
        const auto start = std::chrono::steady_clock::now();
        const std::string response = router.call(mix[i]);
        samples[i].latencyMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        lat.add("flow", samples[i].latencyMs);
        if (const auto doc = Json::parse(response); doc && doc->isObject()) {
          const Json* ok = doc->find("ok");
          samples[i].ok = ok != nullptr && ok->asBool();
          if (const Json* cache = doc->find("cache"); cache != nullptr) {
            samples[i].cache = cache->asString();
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  PassResult r;
  r.pass = pass;
  r.requests = mix.size();
  r.wallSeconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  r.achievedQps = r.wallSeconds > 0
                      ? static_cast<double>(mix.size()) / r.wallSeconds
                      : 0.0;
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  for (const Sample& s : samples) {
    latencies.push_back(s.latencyMs);
    if (!s.ok) {
      ++r.errors;
      continue;
    }
    ++r.ok;
    if (s.cache == "hit") ++r.hits;
    else if (s.cache == "coalesced") ++r.coalesced;
    else if (s.cache == "warm") ++r.warm;
    else ++r.miss;
  }
  r.latencyP50Ms = percentile(latencies, 0.50);
  r.latencyP99Ms = percentile(latencies, 0.99);
  return r;
}

/// Shard-side SLO inputs scraped through the router.
struct ShardScrape {
  bool ok = false;
  double queueWaitP99Ms = 0.0;
  double solveP99S = 0.0;
  std::int64_t received = 0, served = 0, overloaded = 0, coalesced = 0;
  std::int64_t cacheEntries = 0, cacheResident = 0, evictions = 0;
};

ShardScrape scrapeShard(fleet::Router& router, int index,
                        LatencyRecorder& lat) {
  ShardScrape s;
  const auto start = std::chrono::steady_clock::now();
  const std::string response = router.call(
      "{\"id\":\"scrape\",\"cmd\":\"stats\",\"shard\":" +
      std::to_string(index) + "}");
  lat.add("stats", std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count());
  const auto doc = Json::parse(response);
  if (!doc || !doc->isObject()) return s;
  const Json* stats = doc->find("stats");
  const Json* metrics = doc->find("metrics");
  if (stats == nullptr || metrics == nullptr) return s;
  // A counter's "value" or a histogram's "p99".
  const auto metric = [&](const char* name, const char* field) -> double {
    const Json* m = metrics->find(name);
    const Json* v = m != nullptr ? m->find(field) : nullptr;
    return v != nullptr ? v->asDouble() : 0.0;
  };
  const auto counter = [&](const char* name) {
    return static_cast<std::int64_t>(metric(name, "value"));
  };
  s.ok = true;
  s.received = counter("lamp_svc_requests_received_total");
  s.served = counter("lamp_svc_requests_served_total");
  s.overloaded = counter("lamp_svc_overloaded_total");
  s.coalesced = counter("lamp_svc_coalesced_total");
  s.queueWaitP99Ms = metric("lamp_svc_queue_wait_ms", "p99");
  s.solveP99S = metric("lamp_svc_solve_seconds", "p99");
  if (const Json* cache = stats->find("cache");
      cache != nullptr && cache->isObject()) {
    const auto c = [&](const char* k) -> std::int64_t {
      const Json* v = cache->find(k);
      return v != nullptr ? v->asInt(0) : 0;
    };
    s.cacheEntries = c("entries");
    s.cacheResident = c("resident");
    s.evictions = c("evictions");
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::string err;
  if (!parseArgs(argc, argv, a, err)) {
    std::cerr << "lamp-loadgen: " << err << "\n";
    return 1;
  }

  // The fleet: N lampd shards, each with its own socket and cache dir.
  std::vector<ShardProc> procs(static_cast<std::size_t>(a.shards));
  const auto killFleet = [&] {
    for (ShardProc& p : procs) {
      if (p.pid > 0) kill(p.pid, SIGTERM);
    }
    for (ShardProc& p : procs) {
      if (p.pid > 0) {
        int status = 0;
        waitpid(p.pid, &status, 0);
        p.pid = -1;
      }
    }
  };
  for (int i = 0; i < a.shards; ++i) {
    if (!spawnShard(a, i, procs[static_cast<std::size_t>(i)], err)) {
      std::cerr << "lamp-loadgen: " << err << "\n";
      killFleet();
      return 1;
    }
  }
  for (const ShardProc& p : procs) {
    if (!waitForSocket(p.socket, 10000)) {
      std::cerr << "lamp-loadgen: shard socket " << p.socket
                << " never came up\n";
      killFleet();
      return 1;
    }
  }

  fleet::RouterOptions ropts;
  for (const ShardProc& p : procs) ropts.shardSockets.push_back(p.socket);
  // Held by pointer so the router (and its pooled shard connections) can
  // be destroyed *before* killFleet() reaps the shards: a lampd joins
  // its connection threads on shutdown, and those only exit once the
  // router's pooled sockets close.
  auto router = std::make_unique<fleet::Router>(ropts);
  LatencyRecorder lat;

  // Distributed-tracing smoke: one traced request through the router
  // before the paced passes. Its time limit differs from the mix's, so
  // its work key is unique — it must miss every cache and run the full
  // flow + branch & bound, making the merged trace cross client →
  // router → shard queue → flow phases → solver workers.
  bool traceFailed = false;
  if (!a.traceOut.empty()) {
    obs::setTraceEnabled(true);
    obs::setThreadName("loadgen-client");
    const std::string traceId = obs::newTraceId();
    Json req = Json::object();
    req.set("id", Json::string("traced-0"));
    req.set("benchmark", Json::string(a.benchmarks.front()));
    Json options = Json::object();
    options.set("timeLimitSeconds", Json::number(a.timeLimit + 0.125));
    req.set("options", std::move(options));
    std::string response;
    {
      obs::TraceContext root;
      root.traceId = traceId;
      obs::ContextScope scope(root);
      obs::Span span("client_request", "client");
      obs::TraceContext fwd;
      fwd.traceId = traceId;
      fwd.spanId = span.spanId();
      req.set("trace", Json::string(obs::formatTraceparent(fwd)));
      const auto start = std::chrono::steady_clock::now();
      response = router->call(req.dump());
      lat.add("flow", std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    }
    Json merged = Json::object();
    merged.set("traceId", Json::string(traceId));
    Json procs = Json::array();
    const auto rdoc = Json::parse(response);
    const Json* trace =
        rdoc && rdoc->isObject() ? rdoc->find("trace") : nullptr;
    const Json* remoteProcs =
        trace != nullptr && trace->isObject() ? trace->find("procs") : nullptr;
    if (remoteProcs != nullptr && remoteProcs->isArray()) {
      for (std::size_t i = 0; i < remoteProcs->size(); ++i) {
        procs.push(remoteProcs->at(i));
      }
    } else {
      std::cerr << "lamp-loadgen: traced response carried no trace procs\n";
      traceFailed = true;
    }
    // The client proc goes last: it shares the router's pid (the router
    // is in-process here) and the merger keeps the last — and therefore
    // most complete — proc per pid.
    procs.push(obs::collectTrace(traceId));
    merged.set("procs", std::move(procs));
    std::ofstream out(a.traceOut, std::ios::trunc);
    std::string terr;
    if (!out || !obs::writeMergedChromeTrace(out, merged, &terr)) {
      std::cerr << "lamp-loadgen: cannot write merged trace to "
                << a.traceOut << (terr.empty() ? "" : ": " + terr) << "\n";
      traceFailed = true;
    } else if (!a.quiet) {
      std::cerr << "lamp-loadgen: wrote merged trace " << a.traceOut
                << " (trace " << traceId << ")\n";
    }
  }

  // The mix: `duplicates` identical copies of each benchmark request per
  // pass. Duplicate requests are byte-identical except for their ids, so
  // concurrent copies must coalesce (pass 1) or hit the cache (later).
  std::vector<PassResult> passResults;
  for (int pass = 1; pass <= a.passes; ++pass) {
    std::vector<std::string> mix;
    for (const std::string& bench : a.benchmarks) {
      for (int d = 0; d < a.duplicates; ++d) {
        Json req = Json::object();
        req.set("id", Json::string("p" + std::to_string(pass) + "-" + bench +
                                   "-" + std::to_string(d)));
        req.set("benchmark", Json::string(bench));
        Json options = Json::object();
        options.set("timeLimitSeconds", Json::number(a.timeLimit));
        req.set("options", std::move(options));
        mix.push_back(req.dump());
      }
    }
    const PassResult r =
        runPass(*router, mix, pass, a.qps, a.concurrency, lat);
    if (!a.quiet) {
      std::cerr << "lamp-loadgen: pass " << pass << "/" << a.passes << ": "
                << r.ok << "/" << r.requests << " ok, " << r.hits << " hit, "
                << r.coalesced << " coalesced, " << r.warm << " warm, "
                << r.miss << " miss, " << r.errors << " errors, p99 "
                << r.latencyP99Ms << " ms, " << r.achievedQps << " qps\n";
    }
    passResults.push_back(r);
  }

  // Scrape every shard through the router, then drain the fleet (which
  // also flushes shard caches) before shutdown.
  std::vector<ShardScrape> scrapes;
  for (int i = 0; i < a.shards; ++i) {
    scrapes.push_back(scrapeShard(*router, i, lat));
  }
  const fleet::RouterStats rs = router->stats();
  {
    const auto start = std::chrono::steady_clock::now();
    router->call("{\"id\":\"drain\",\"cmd\":\"drain\"}");
    lat.add("drain", std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  }
  router.reset();  // closes pooled connections; shards can now join
  killFleet();

  // The flight recorders have flushed by now: count the incident files
  // the fleet left behind (none on a healthy run).
  std::int64_t incidents = 0;
  {
    std::error_code ec;
    std::filesystem::directory_iterator it(a.incidentDir, ec), end;
    for (; !ec && it != end; it.increment(ec)) {
      const std::string name = it->path().filename().string();
      if (name.rfind("incident-", 0) == 0 &&
          name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
        ++incidents;
      }
    }
  }

  std::int64_t received = 0, overloaded = 0, shardCoalesced = 0;
  double maxQueueP99 = 0.0, maxSolveP99 = 0.0;
  for (const ShardScrape& s : scrapes) {
    received += s.received;
    overloaded += s.overloaded;
    shardCoalesced += s.coalesced;
    maxQueueP99 = std::max(maxQueueP99, s.queueWaitP99Ms);
    maxSolveP99 = std::max(maxSolveP99, s.solveP99S);
  }
  const double shedRate =
      received > 0 ? static_cast<double>(overloaded) /
                         static_cast<double>(received)
                   : 0.0;
  const PassResult& finalPass = passResults.back();
  const double finalHitRate =
      finalPass.requests > 0
          ? static_cast<double>(finalPass.hits + finalPass.coalesced) /
                static_cast<double>(finalPass.requests)
          : 0.0;
  std::size_t coalescedTotal = 0;
  for (const PassResult& r : passResults) coalescedTotal += r.coalesced;

  // BENCH_fleet.json — consumed by check-bench-regression.py --fleet.
  Json doc = Json::object();
  doc.set("bench", Json::string("fleet"));
  Json config = Json::object();
  config.set("shards", Json::integer(a.shards));
  config.set("workersPerShard", Json::integer(a.workers));
  config.set("passes", Json::integer(a.passes));
  config.set("duplicates", Json::integer(a.duplicates));
  config.set("qps", Json::number(a.qps));
  config.set("concurrency", Json::integer(a.concurrency));
  config.set("timeLimitSeconds", Json::number(a.timeLimit));
  Json benchArr = Json::array();
  for (const std::string& b : a.benchmarks) benchArr.push(Json::string(b));
  config.set("benchmarks", std::move(benchArr));
  doc.set("config", std::move(config));
  Json slo = Json::object();
  slo.set("queueWaitP99Ms", Json::number(maxQueueP99));
  slo.set("solveP99Seconds", Json::number(maxSolveP99));
  slo.set("shedRate", Json::number(shedRate));
  slo.set("finalPassHitRate", Json::number(finalHitRate));
  slo.set("coalescedResponses",
          Json::integer(static_cast<std::int64_t>(coalescedTotal)));
  slo.set("clientP99Ms", Json::number(finalPass.latencyP99Ms));
  slo.set("incidents", Json::integer(incidents));
  doc.set("slo", std::move(slo));
  doc.set("latency", lat.toJson());
  Json passArr = Json::array();
  for (const PassResult& r : passResults) {
    Json p = Json::object();
    p.set("pass", Json::integer(r.pass));
    p.set("requests", Json::integer(static_cast<std::int64_t>(r.requests)));
    p.set("ok", Json::integer(static_cast<std::int64_t>(r.ok)));
    p.set("hits", Json::integer(static_cast<std::int64_t>(r.hits)));
    p.set("coalesced",
          Json::integer(static_cast<std::int64_t>(r.coalesced)));
    p.set("warm", Json::integer(static_cast<std::int64_t>(r.warm)));
    p.set("miss", Json::integer(static_cast<std::int64_t>(r.miss)));
    p.set("errors", Json::integer(static_cast<std::int64_t>(r.errors)));
    p.set("latencyP50Ms", Json::number(r.latencyP50Ms));
    p.set("latencyP99Ms", Json::number(r.latencyP99Ms));
    p.set("achievedQps", Json::number(r.achievedQps));
    passArr.push(std::move(p));
  }
  doc.set("passes", std::move(passArr));
  Json shardArr = Json::array();
  for (std::size_t i = 0; i < scrapes.size(); ++i) {
    const ShardScrape& s = scrapes[i];
    Json sh = Json::object();
    sh.set("shard", Json::integer(static_cast<std::int64_t>(i)));
    sh.set("scraped", Json::boolean(s.ok));
    sh.set("received", Json::integer(s.received));
    sh.set("served", Json::integer(s.served));
    sh.set("overloaded", Json::integer(s.overloaded));
    sh.set("coalesced", Json::integer(s.coalesced));
    sh.set("queueWaitP99Ms", Json::number(s.queueWaitP99Ms));
    sh.set("solveP99Seconds", Json::number(s.solveP99S));
    sh.set("cacheEntries", Json::integer(s.cacheEntries));
    sh.set("cacheResident", Json::integer(s.cacheResident));
    sh.set("evictions", Json::integer(s.evictions));
    shardArr.push(std::move(sh));
  }
  doc.set("shards", std::move(shardArr));
  Json routerStats = Json::object();
  routerStats.set("routed",
                  Json::integer(static_cast<std::int64_t>(rs.routed)));
  routerStats.set("coalesced",
                  Json::integer(static_cast<std::int64_t>(rs.coalesced)));
  routerStats.set("retries",
                  Json::integer(static_cast<std::int64_t>(rs.retries)));
  routerStats.set("failovers",
                  Json::integer(static_cast<std::int64_t>(rs.failovers)));
  routerStats.set("unavailable",
                  Json::integer(static_cast<std::int64_t>(rs.unavailable)));
  routerStats.set(
      "shardCoalesced",
      Json::integer(static_cast<std::int64_t>(shardCoalesced)));
  doc.set("router", std::move(routerStats));

  {
    std::ofstream out(a.outPath, std::ios::trunc);
    if (!out) {
      std::cerr << "lamp-loadgen: cannot write " << a.outPath << "\n";
      return 1;
    }
    doc.write(out);
    out << "\n";
  }
  if (!a.quiet) {
    std::cerr << "lamp-loadgen: wrote " << a.outPath << " (queue p99 "
              << maxQueueP99 << " ms, solve p99 " << maxSolveP99
              << " s, shed rate " << shedRate << ", final-pass hit rate "
              << finalHitRate << ", " << coalescedTotal << " coalesced, "
              << incidents << " incidents)\n";
  }

  // SLO gate.
  int violations = 0;
  const auto fail = [&](const std::string& msg) {
    std::cerr << "lamp-loadgen: SLO violation: " << msg << "\n";
    ++violations;
  };
  for (const PassResult& r : passResults) {
    if (r.errors > 0) {
      fail("pass " + std::to_string(r.pass) + " had " +
           std::to_string(r.errors) + " failed requests");
    }
  }
  if (a.assertFinalHitRate >= 0 && finalHitRate + 1e-9 < a.assertFinalHitRate) {
    fail("final-pass hit rate " + std::to_string(finalHitRate) + " < " +
         std::to_string(a.assertFinalHitRate));
  }
  if (a.assertMaxShedRate >= 0 && shedRate > a.assertMaxShedRate + 1e-9) {
    fail("shed rate " + std::to_string(shedRate) + " > " +
         std::to_string(a.assertMaxShedRate));
  }
  if (a.assertQueueP99Ms >= 0 && maxQueueP99 > a.assertQueueP99Ms) {
    fail("queue-wait p99 " + std::to_string(maxQueueP99) + " ms > " +
         std::to_string(a.assertQueueP99Ms));
  }
  if (a.assertSolveP99S >= 0 && maxSolveP99 > a.assertSolveP99S) {
    fail("solve p99 " + std::to_string(maxSolveP99) + " s > " +
         std::to_string(a.assertSolveP99S));
  }
  if (a.assertMinCoalesced >= 0 &&
      static_cast<long>(coalescedTotal) < a.assertMinCoalesced) {
    fail("only " + std::to_string(coalescedTotal) +
         " coalesced responses, expected >= " +
         std::to_string(a.assertMinCoalesced));
  }
  if (a.assertMaxIncidents >= 0 && incidents > a.assertMaxIncidents) {
    fail(std::to_string(incidents) + " incident files written, expected <= " +
         std::to_string(a.assertMaxIncidents));
  }
  if (traceFailed) {
    fail("traced request did not produce a merged trace");
  }
  return violations == 0 ? 0 : 1;
}
