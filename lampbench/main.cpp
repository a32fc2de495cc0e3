/// \file main.cpp
/// lampbench: the end-to-end benchmark of the lamp toolchain.
///
///   lampbench --workload proven|svc_replay --seed N --seconds S
///             --trace 0|1 [--trace-out trace.json]
///
/// Untraced runs (--trace 0) measure the public entry points from outside
/// the program — flow::runFlow and svc::Service — for about --seconds, in
/// whole passes (at least kMinPasses), and print the end-to-end metrics
/// of each request's fastest time over the passes, or of the fastest
/// pass. Traced runs (--trace 1) run one untraced pass, then replay
/// every request layer by layer through the public functions (replay.h)
/// twice — traced, then untraced —, check that the replay solved the
/// same program and that its exact counters repeat, and print the
/// per-layer metrics and the tracing overhead. Every pass checks the program's outputs; any failed check
/// makes the exit code non-zero. The last stdout line is the JSON result.
///
/// --seed changes only generated inputs: the verification frames, the
/// service request order and the node order of inline graphs. It never
/// changes which instances are solved.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow.h"
#include "flow/flow_json.h"
#include "ir/passes.h"
#include "replay.h"
#include "spans.h"
#include "svc/service.h"
#include "util/json.h"
#include "util/timer.h"
#include "workloads/workloads.h"

namespace lampbench {
namespace {

using lamp::flow::FlowOptions;
using lamp::flow::FlowResult;
using lamp::flow::Method;
using lamp::lp::SolveStatus;
using lamp::util::Json;
using lamp::util::Stopwatch;
using lamp::workloads::Benchmark;
namespace flow = lamp::flow;
namespace ir = lamp::ir;
namespace svc = lamp::svc;

/// Set-up is repeated for at least this long before the passes and again
/// after them; setup_s is the total time over the number of set-ups. One
/// set-up takes microseconds to milliseconds, far too little to time
/// steadily on its own, and machine speed drifts over seconds, so the two
/// slices sample it at both ends of the run.
constexpr double kSetupSliceSeconds = 0.75;
/// Solver wall-clock cap, far above any solve here: the clock must never
/// decide a result (a solve that stops on it counts as failed).
constexpr double kWallCapSeconds = 3600.0;
/// Untraced runs make at least this many passes, even past --seconds: a
/// request's time is its fastest over the passes, and a single pass of
/// multi-second flows lands whole in one of the machine's slow phases.
constexpr std::size_t kMinPasses = 2;
/// A flow shorter than this is repeated back to back within a pass until
/// its runs add up to it, and the pass keeps the fastest run: one short
/// run samples only a fraction of a second of machine speed.
constexpr double kMinRequestSeconds = 1.0;

// ---------------------------------------------------------------- stats

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double logSum = 0.0;
  for (const double x : v) logSum += std::log(std::max(x, 1e-12));
  return std::exp(logSum / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- checks

/// Every output check reports here. An operation with any problem counts
/// once in `failed`; run-level checks (replay match, determinism) count
/// as one failed operation each.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void record(const std::string& label,
              const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const std::string& p : problems) {
      std::cerr << "lampbench: FAIL " << label << ": " << p << '\n';
    }
  }
};

bool sameObjective(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(a));
}

/// Names of the exact counters on which `a` and `b` differ.
std::vector<std::string> exactDiff(const Exact& a, const Exact& b) {
  std::vector<std::string> out;
  const auto cmp = [&](const char* name, std::int64_t x, std::int64_t y) {
    if (x != y) {
      out.push_back(std::string(name) + " " + std::to_string(x) + " vs " +
                    std::to_string(y));
    }
  };
  cmp("cut.cuts", a.cuts, b.cuts);
  cmp("sched.vars", a.vars, b.vars);
  cmp("sched.rows", a.rows, b.rows);
  cmp("lp.nodes", a.nodes, b.nodes);
  cmp("ii", a.ii, b.ii);
  if (!sameObjective(a.objective, b.objective)) {
    std::ostringstream os;
    os.precision(17);
    os << "objective " << a.objective << " vs " << b.objective;
    out.push_back(os.str());
  }
  return out;
}

/// A solve that ended neither optimal nor at its node budget stopped on
/// the wall clock; its result depends on machine load.
std::string clockMessage(SolveStatus status) {
  return "solve stopped by the wall clock (status " +
         std::string(lamp::lp::solveStatusName(status)) + ")";
}

/// Schedule-space probing runs under a wall-clock budget; probing that
/// stopped early changes the forbidden pairs, and with them the model.
void checkProbes(const LayerStats& stats, Ledger& ledger) {
  std::vector<std::string> problems;
  if (stats.probesIncomplete > 0) {
    problems.push_back(std::to_string(stats.probesIncomplete) +
                       " probe run(s) stopped on the wall clock");
  }
  ledger.record("schedule-space probing ran to completion", problems);
}

// ---------------------------------------------------------------- passes

/// One untraced pass over a workload's requests.
struct Pass {
  double wall = 0.0;
  std::vector<double> requestSeconds;  ///< every request, in request order
  std::vector<double> missMs;          ///< requests that ran the solver
  std::vector<double> hitMs;           ///< exact cache hits
  std::vector<double> queueMs;         ///< service queue wait
  double objectiveSum = 0.0;
  std::int64_t solves = 0;
  std::int64_t optimal = 0;
  std::vector<Exact> exact;  ///< per request (zero for cache hits)
  std::vector<std::string> cache;  ///< per request (service only)
};

/// One replay of the same requests, traced or not.
struct Traced {
  double wall = 0.0;
  Spans spans;
  LayerStats stats;
  std::vector<Exact> exact;
  std::vector<std::string> cache;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input a pass needs; timed as setup_s.
  virtual void setup(Ledger& ledger) = 0;
  virtual Pass run(Ledger& ledger) = 0;
  /// Replays every request layer by layer; spans only when `record`.
  virtual Traced replay(Ledger& ledger, bool record) = 0;
  /// Per-request labels, in pass order.
  const std::vector<std::string>& labels() const { return labels_; }
  /// True when a pass runs its requests one after another, so that the
  /// sum of their times is the time of a pass.
  virtual bool sequential() const { return false; }

 protected:
  std::vector<std::string> labels_;
};

std::vector<Benchmark> pickBenchmarks(const std::vector<std::string>& names) {
  std::vector<Benchmark> all =
      lamp::workloads::allBenchmarks(lamp::workloads::Scale::Default);
  std::vector<Benchmark> out;
  for (const std::string& name : names) {
    for (Benchmark& bm : all) {
      if (bm.name == name) out.push_back(std::move(bm));
    }
  }
  return out;
}

FlowOptions solverFlowOptions(std::uint32_t seed) {
  FlowOptions o;
  o.solverTimeLimitSeconds = kWallCapSeconds;
  o.solverThreads = 1;
  o.verifySeed = seed;
  return o;
}

// ------------------------------------------------------------ proven

/// flow::runFlow(MilpMap) on the benchmarks whose mapping-aware MILP is
/// proved optimal; each flow must reproduce the pinned optimum.
class Proven final : public Workload {
 public:
  struct Pinned {
    const char* name;
    double objective;
    int ii;
  };
  static constexpr Pinned kPinned[] = {{"GSM", 168.5, 1},
                                       {"CORDIC", 399.0, 1},
                                       {"MT", 71.5, 1},
                                       {"AES", 44.0, 1},
                                       {"RS", 36.0, 1}};

  explicit Proven(std::uint32_t seed) : opts_(solverFlowOptions(seed)) {
    for (const Pinned& p : kPinned) {
      labels_.push_back(std::string(p.name) + "/map");
    }
  }

  bool sequential() const override { return true; }

  void setup(Ledger&) override {
    std::vector<std::string> names;
    for (const Pinned& p : kPinned) names.emplace_back(p.name);
    benches_ = pickBenchmarks(names);
  }

  Pass run(Ledger& ledger) override {
    Pass pass;
    const Stopwatch wall;
    for (std::size_t i = 0; i < benches_.size(); ++i) {
      FlowResult r;
      double s = 0.0;
      const Stopwatch slot;
      for (;;) {
        const Stopwatch watch;
        r = flow::runFlow(benches_[i], Method::MilpMap, opts_);
        const double run = watch.seconds();
        s = s > 0.0 ? std::min(s, run) : run;
        if (slot.seconds() >= kMinRequestSeconds) break;
        // Repeats are checked too; the last run is checked below.
        ledger.record(labels_[i], check(r, kPinned[i]));
      }
      pass.requestSeconds.push_back(s);
      pass.missMs.push_back(s * 1e3);
      pass.objectiveSum += r.objective;
      ++pass.solves;
      if (r.status == SolveStatus::Optimal) ++pass.optimal;
      pass.exact.push_back(exactOf(r));
      ledger.record(labels_[i], check(r, kPinned[i]));
    }
    pass.wall = wall.seconds();
    return pass;
  }

  Traced replay(Ledger&, bool record) override {
    Traced t;
    Spans* spans = record ? &t.spans : nullptr;
    const Stopwatch wall;
    for (std::size_t i = 0; i < benches_.size(); ++i) {
      if (spans) spans->beginRequest(static_cast<std::int64_t>(i), labels_[i]);
      const FlowResult r =
          replayFlow(spans, t.stats, benches_[i], Method::MilpMap, opts_);
      if (spans) spans->endRequest();
      t.exact.push_back(exactOf(r));
    }
    t.wall = wall.seconds();
    return t;
  }

 private:
  static std::vector<std::string> check(const FlowResult& r, const Pinned& p) {
    std::vector<std::string> problems;
    if (!r.success) problems.push_back("flow failed: " + r.error);
    if (!r.functionallyVerified) {
      problems.push_back("pipeline simulation did not match the interpreter");
    }
    if (r.status != SolveStatus::Optimal) {
      problems.push_back(clockMessage(r.status));
    }
    if (!sameObjective(r.objective, p.objective)) {
      problems.push_back("objective " + std::to_string(r.objective) +
                         " != pinned " + std::to_string(p.objective));
    }
    if (r.schedule.ii != p.ii) {
      problems.push_back("II " + std::to_string(r.schedule.ii) +
                         " != pinned " + std::to_string(p.ii));
    }
    return problems;
  }

  FlowOptions opts_;
  std::vector<Benchmark> benches_;
};

// ------------------------------------------------------------ svc_replay

/// An in-process svc::Service (memory-only cache) fed a seeded,
/// mostly-hit request mix by one closed-loop generator. A pass runs three
/// phases on a fresh service: cold misses (named hls/base requests and
/// inline permuted graphs), near misses (a looser clock, warm-started
/// from the phase-1 entry), then exact hits of every phase-1/2 key.
class SvcReplay final : public Workload {
 public:
  static constexpr const char* kSolved[] = {"XORR", "GFMUL", "MT",
                                            "AES",  "RS",    "GSM"};
  /// Their hls arm is a millisecond-scale miss too. With them the miss
  /// latency median sits inside the cluster of fast misses instead of on
  /// the edge between fast and slow ones, where it jumps run to run.
  static constexpr const char* kHlsOnly[] = {"CLZ", "CORDIC", "DR"};
  static constexpr const char* kNear[] = {"GFMUL", "MT", "AES", "GSM"};
  static constexpr const char* kInline[] = {"XORR", "GFMUL", "RS"};
  static constexpr double kTcpNs = 10.0;
  static constexpr double kLooserTcpNs = 12.5;
  static constexpr int kHitRepeats = 56;
  static constexpr int kWorkers = 2;
  static constexpr int kInFlight = 4;  ///< closed-loop cap in the hit phase
  static constexpr double kTimeLimitSeconds = 60.0;

  explicit SvcReplay(std::uint32_t seed) : seed_(seed) {}

  void setup(Ledger&) override {
    std::vector<std::string> names(std::begin(kSolved), std::end(kSolved));
    names.insert(names.end(), std::begin(kHlsOnly), std::end(kHlsOnly));
    const std::vector<Benchmark> benches = pickBenchmarks(names);
    std::mt19937 rng(seed_);
    requests_.clear();
    labels_.clear();
    phases_.assign(3, {});

    // `source` is "benchmark" (a built-in name) or "graph" (.lamp text).
    const auto add = [&](int phase, std::string label, const char* source,
                         std::string target, const char* method,
                         double tcpNs) {
      Request r;
      r.expect = phase == 0 ? "miss" : "warm";
      r.fill = static_cast<int>(requests_.size());
      Json j = Json::object();
      j.set("id", Json::string("r" + std::to_string(requests_.size())));
      j.set(source, Json::string(std::move(target)));
      j.set("method", Json::string(method));
      Json o = Json::object();
      o.set("tcpNs", Json::number(tcpNs));
      o.set("timeLimitSeconds", Json::number(kTimeLimitSeconds));
      o.set("solverThreads", Json::integer(1));
      o.set("verifySeed", Json::integer(seed_));
      j.set("options", std::move(o));
      r.line = j.dump();
      phases_[static_cast<std::size_t>(phase)].push_back(requests_.size());
      labels_.push_back(std::move(label));
      requests_.push_back(std::move(r));
    };

    for (const Benchmark& bm : benches) {
      add(0, bm.name + "/hls", "benchmark", bm.name, "hls", kTcpNs);
    }
    for (const char* name : kSolved) {
      add(0, std::string(name) + "/base", "benchmark", name, "base", kTcpNs);
    }
    for (const char* name : kInline) {
      const Benchmark& bm = byName(benches, name);
      std::ostringstream text;
      ir::writeText(text,
                    permuted(bm.graph, randomTopologicalOrder(bm.graph, rng)));
      add(0, bm.name + "/inline/base", "graph", text.str(), "base", kTcpNs);
    }
    for (const char* name : kNear) {
      add(1, std::string(name) + "/base/looser-clock", "benchmark", name,
          "base", kLooserTcpNs);
    }
    // Exact hits: every filled key, repeated.
    std::vector<std::size_t> keys;
    for (const int phase : {0, 1}) {
      for (const std::size_t i : phases_[static_cast<std::size_t>(phase)]) {
        for (int k = 0; k < kHitRepeats; ++k) keys.push_back(i);
      }
    }
    for (const std::size_t i : keys) {
      Request hit = requests_[i];
      hit.expect = "hit";
      hit.fill = static_cast<int>(i);
      phases_[2].push_back(requests_.size());
      labels_.push_back(labels_[i] + "/hit");
      requests_.push_back(std::move(hit));
    }
    for (auto& phase : phases_) std::shuffle(phase.begin(), phase.end(), rng);
    startService();
  }

  Pass run(Ledger& ledger) override {
    if (!service_) startService();
    const std::size_t n = requests_.size();
    std::vector<std::string> responses(n);
    std::vector<double> latencyMs(n, 0.0);
    std::mutex mu;
    std::condition_variable cv;
    int inflight = 0;

    Pass pass;
    const Stopwatch wall;
    for (const auto& phase : phases_) {
      // Misses run one at a time, so a miss's latency is its own work,
      // not a queue position or a share of the core another miss runs
      // on; the hit phase keeps more in flight.
      const int limit = &phase == &phases_.back() ? kInFlight : 1;
      for (const std::size_t i : phase) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return inflight < limit; });
          ++inflight;
        }
        const auto t0 = std::chrono::steady_clock::now();
        service_->submit(requests_[i].line, [&, i, t0](std::string response) {
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
          const std::lock_guard<std::mutex> lock(mu);
          responses[i] = std::move(response);
          latencyMs[i] = ms;
          --inflight;
          cv.notify_all();
        });
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return inflight == 0; });
    }
    pass.wall = wall.seconds();
    service_.reset();

    // Output checks, in request order: fills precede their hits.
    std::vector<std::string> fillResult(n);
    std::vector<double> fillObjective(n, 0.0);
    pass.exact.assign(n, Exact{});
    pass.cache.assign(n, "");
    for (const double ms : latencyMs) pass.requestSeconds.push_back(ms / 1e3);
    for (const auto& phase : phases_) {
      for (const std::size_t i : phase) {
        const Request& req = requests_[i];
        std::vector<std::string> problems;
        const auto doc = Json::parse(responses[i]);
        const Json* ok = doc ? doc->find("ok") : nullptr;
        const Json* cache = doc ? doc->find("cache") : nullptr;
        const Json* queue = doc ? doc->find("queueMs") : nullptr;
        if (ok == nullptr || !ok->asBool() || cache == nullptr) {
          ledger.record(labels_[i], {"request failed: " + responses[i]});
          continue;
        }
        // Concurrent hits on one key may coalesce: the follower gets the
        // leader's (hit) response bytes, so it counts as a hit.
        pass.cache[i] =
            cache->asString() == "coalesced" ? "hit" : cache->asString();
        if (pass.cache[i] != req.expect) {
          problems.push_back("cache state " + pass.cache[i] + ", expected " +
                             req.expect);
        }
        if (queue != nullptr) pass.queueMs.push_back(queue->asDouble());
        const std::string raw = rawResult(responses[i]);
        if (req.expect == "hit") {
          pass.hitMs.push_back(latencyMs[i]);
          const auto f = static_cast<std::size_t>(req.fill);
          if (raw != fillResult[f]) {
            problems.push_back(
                "hit result differs from the miss that filled it");
          }
          pass.objectiveSum += fillObjective[f];
        } else {
          pass.missMs.push_back(latencyMs[i]);
          FlowResult r;
          std::string error;
          const Json* result = doc->find("result");
          if (result == nullptr ||
              !flow::resultFromJson(*result, r, &error)) {
            problems.push_back("unreadable result: " + error);
          } else {
            if (!r.success) problems.push_back("flow failed: " + r.error);
            if (!r.functionallyVerified) {
              problems.push_back(
                  "pipeline simulation did not match the interpreter");
            }
            ++pass.solves;
            if (r.status == SolveStatus::Optimal) {
              ++pass.optimal;
            } else {
              problems.push_back(clockMessage(r.status));
            }
            pass.exact[i] = exactOf(r);
            fillObjective[i] = r.objective;
            pass.objectiveSum += r.objective;
          }
          fillResult[i] = raw;
        }
        ledger.record(labels_[i], problems);
      }
    }
    return pass;
  }

  Traced replay(Ledger& ledger, bool record) override {
    Traced t;
    Spans* spans = record ? &t.spans : nullptr;
    svc::SolutionCache cache;
    t.exact.assign(requests_.size(), Exact{});
    t.cache.assign(requests_.size(), "");
    const Stopwatch wall;
    for (const auto& phase : phases_) {
      for (const std::size_t i : phase) {
        if (spans) spans->beginRequest(static_cast<std::int64_t>(i), labels_[i]);
        const RequestReplay rr = replayRequest(
            spans, t.stats, cache, requests_[i].line,
            svc::ServiceOptions{}.maxTimeLimitSeconds);
        if (spans) spans->endRequest();
        if (!rr.ok) ledger.record(labels_[i], {"replay: " + rr.error});
        t.cache[i] = rr.cache;
        if (rr.ok && rr.cache != "hit") t.exact[i] = exactOf(rr.result);
      }
    }
    t.wall = wall.seconds();
    return t;
  }

 private:
  struct Request {
    std::string line;
    std::string expect;  ///< cache state the service must report
    int fill = 0;        ///< request whose response this one must repeat
  };

  static const Benchmark& byName(const std::vector<Benchmark>& benches,
                                 const std::string& name) {
    return *std::find_if(benches.begin(), benches.end(),
                         [&](const Benchmark& b) { return b.name == name; });
  }

  /// A seeded node renumbering (perm[old] = new) that keeps every
  /// dist-0 operand ahead of its consumer, as the .lamp text format
  /// requires: Kahn's algorithm with a random pick among ready nodes.
  static std::vector<ir::NodeId> randomTopologicalOrder(const ir::Graph& g,
                                                        std::mt19937& rng) {
    std::vector<int> pending(g.size(), 0);
    std::vector<std::vector<ir::NodeId>> users(g.size());
    for (ir::NodeId v = 0; v < g.size(); ++v) {
      for (const ir::Edge& e : g.node(v).operands) {
        if (e.dist != 0) continue;
        ++pending[v];
        users[e.src].push_back(v);
      }
    }
    std::vector<ir::NodeId> ready;
    for (ir::NodeId v = 0; v < g.size(); ++v) {
      if (pending[v] == 0) ready.push_back(v);
    }
    std::vector<ir::NodeId> perm(g.size());
    ir::NodeId next = 0;
    while (!ready.empty()) {
      const std::size_t pick =
          std::uniform_int_distribution<std::size_t>(0, ready.size() - 1)(rng);
      const ir::NodeId v = ready[pick];
      ready[pick] = ready.back();
      ready.pop_back();
      perm[v] = next++;
      for (const ir::NodeId u : users[v]) {
        if (--pending[u] == 0) ready.push_back(u);
      }
    }
    return perm;
  }

  /// Rebuilds `g` with node ids renumbered by `perm` (perm[old] = new).
  static ir::Graph permuted(const ir::Graph& g,
                            const std::vector<ir::NodeId>& perm) {
    std::vector<ir::NodeId> inverse(perm.size());
    for (ir::NodeId old = 0; old < g.size(); ++old) inverse[perm[old]] = old;
    ir::Graph out(g.name());
    for (ir::NodeId id = 0; id < g.size(); ++id) {
      ir::Node node = g.node(inverse[id]);
      for (ir::Edge& e : node.operands) e.src = perm[e.src];
      out.add(std::move(node));
    }
    return out;
  }

  /// The "result" member's bytes, as rendered (it is the last member of
  /// svc::resultResponse's object).
  static std::string rawResult(const std::string& response) {
    const std::size_t at = response.find("\"result\":");
    if (at == std::string::npos || response.empty()) return {};
    return response.substr(at, response.size() - 1 - at);
  }

  void startService() {
    svc::ServiceOptions o;
    o.workers = kWorkers;
    service_ = std::make_unique<svc::Service>(o);
  }

  std::uint32_t seed_;
  std::vector<Request> requests_;
  std::vector<std::vector<std::size_t>> phases_;
  std::unique_ptr<svc::Service> service_;
};

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string traceOut;
};

bool parseArgs(int argc, char** argv, Args& a, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      error = "missing value for " + key;
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        error = "bad --seed " + value;
        return false;
      }
      a.seed = static_cast<std::uint32_t>(v);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
        error = "bad --seconds " + value;
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        error = "bad --trace " + value;
        return false;
      }
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.traceOut = value;
    } else {
      error = "unknown argument " + key;
      return false;
    }
  }
  return true;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint32_t seed) {
  if (name == "proven") return std::make_unique<Proven>(seed);
  if (name == "svc_replay") return std::make_unique<SvcReplay>(seed);
  return nullptr;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    Json m = Json::object();
    m.set("value", Json::number(std::isfinite(value) ? value : 0.0));
    m.set("unit", Json::string(unit));
    doc_.set(name, std::move(m));
  }
  Json take() { return std::move(doc_); }

 private:
  Json doc_ = Json::object();
};

/// Exact counters of the solving requests of a pass, on stderr.
void printRequests(const Workload& wl, const Pass& pass) {
  for (std::size_t i = 0; i < pass.exact.size(); ++i) {
    if (!pass.cache.empty() && pass.cache[i] == "hit") continue;
    const Exact& e = pass.exact[i];
    std::cerr << "  " << wl.labels()[i] << ": " << pass.requestSeconds[i]
              << " s, cuts " << e.cuts << ", vars " << e.vars << ", rows "
              << e.rows << ", nodes " << e.nodes << ", objective "
              << e.objective << ", II " << e.ii << '\n';
  }
}

/// Passes of one run must agree on every exact counter and objective.
void checkPassesAgree(const Workload& wl, const std::vector<Pass>& passes,
                      Ledger& ledger) {
  for (std::size_t p = 1; p < passes.size(); ++p) {
    std::vector<std::string> problems;
    for (std::size_t i = 0; i < passes[0].exact.size(); ++i) {
      for (const std::string& d :
           exactDiff(passes[0].exact[i], passes[p].exact[i])) {
        problems.push_back(wl.labels()[i] + " " + d);
      }
    }
    ledger.record("pass " + std::to_string(p) + " vs pass 0", problems);
  }
}

/// Each request's fastest time over the passes. Timing noise on a shared
/// machine only ever adds time and comes in slow phases lasting seconds,
/// so the fastest of several passes is the steadiest estimate.
std::vector<double> fastestPerRequest(const std::vector<Pass>& passes,
                                      std::vector<double> Pass::*times) {
  std::vector<double> best = passes.front().*times;
  for (const Pass& p : passes) {
    for (std::size_t k = 0; k < best.size() && k < (p.*times).size(); ++k) {
      best[k] = std::min(best[k], (p.*times)[k]);
    }
  }
  return best;
}

/// wall_s is the fastest pass, except on a sequential workload, where it
/// is the sum of the requests' fastest times: a pass at each request's
/// fastest, which varies less from run to run than the fastest whole pass.
void endToEndMetrics(const Workload& wl, const std::vector<Pass>& passes,
                     double setupSeconds, Metrics& m) {
  const std::vector<double> request =
      fastestPerRequest(passes, &Pass::requestSeconds);
  double wall = passes.front().wall;
  for (const Pass& p : passes) wall = std::min(wall, p.wall);
  if (wl.sequential()) {
    wall = std::accumulate(request.begin(), request.end(), 0.0);
  }
  m.add("setup_s", setupSeconds, "s");
  m.add("wall_s", wall, "s");
  m.add("flow_s_geomean", geomean(request), "s");
  m.add("objective_sum", passes.front().objectiveSum, "objective");
  m.add("peak_rss_mb", peakRssMb(), "MB");
  m.add("miss_ms_p50", median(fastestPerRequest(passes, &Pass::missMs)),
        "ms");
  m.add("req_per_s", ratio(static_cast<double>(request.size()), wall), "1/s");
}

/// The traced replay must solve the program the untraced pass measured.
void checkReplayMatches(const Workload& wl, const Pass& base, const Traced& t,
                        Ledger& ledger) {
  std::vector<std::string> problems;
  for (std::size_t i = 0; i < base.exact.size(); ++i) {
    const std::string& label = wl.labels()[i];
    if (!base.cache.empty() && base.cache[i] != t.cache[i]) {
      problems.push_back(label + " cache state " + t.cache[i] + " vs " +
                         base.cache[i]);
    }
    for (const std::string& d :
         exactDiff(t.exact[i], base.exact[i])) {
      problems.push_back(label + " " + d);
    }
  }
  ledger.record("replay matches the untraced run", problems);
}

/// The traced and the untraced replay must repeat every exact counter.
void checkDeterminism(const Workload& wl, const Traced& a, const Traced& b,
                      Ledger& ledger) {
  std::vector<std::string> problems;
  const auto cmp = [&](const char* name, std::int64_t x, std::int64_t y) {
    if (x != y) {
      problems.push_back(std::string(name) + " " + std::to_string(x) +
                         " vs " + std::to_string(y));
    }
  };
  cmp("lp.nodes", a.stats.nodes, b.stats.nodes);
  cmp("lp.simplex_iters", a.stats.simplexIters, b.stats.simplexIters);
  cmp("lp.dual_pivots", a.stats.dualPivots, b.stats.dualPivots);
  cmp("lp.cold_solves", a.stats.coldSolves, b.stats.coldSolves);
  cmp("sched.vars", a.stats.vars, b.stats.vars);
  cmp("sched.rows", a.stats.rows, b.stats.rows);
  cmp("cut.cuts", a.stats.cuts, b.stats.cuts);
  for (std::size_t i = 0; i < a.exact.size(); ++i) {
    for (const std::string& d : exactDiff(a.exact[i], b.exact[i])) {
      problems.push_back(wl.labels()[i] + " " + d);
    }
  }
  ledger.record("replays agree", problems);
}

void perLayerMetrics(const Pass& base, const Traced& t, double overheadSeconds,
                     const Ledger& ledger, Metrics& m) {
  const LayerStats& s = t.stats;
  const Spans& sp = t.spans;
  const double solveS = sp.total("lp.solve");
  const auto nodes = static_cast<double>(s.nodes);
  const auto pivots = static_cast<double>(s.simplexIters);
  const auto pruned = static_cast<double>(s.pruned);
  m.add("lp.solve_s", solveS, "s");
  m.add("lp.nodes", nodes, "count");
  m.add("lp.pruned", pruned, "count");
  m.add("lp.prune_ratio", ratio(pruned, nodes + pruned), "frac");
  m.add("lp.simplex_iters", pivots, "count");
  m.add("lp.dual_pivots", static_cast<double>(s.dualPivots), "count");
  m.add("lp.cold_solves", static_cast<double>(s.coldSolves), "count");
  m.add("lp.ms_per_node", ratio(solveS * 1e3, nodes), "ms");
  m.add("lp.us_per_pivot", ratio(solveS * 1e6, pivots), "us");
  m.add("lp.pivots_per_node", ratio(pivots, nodes), "count");
  m.add("lp.root_s", s.rootSeconds, "s");
  m.add("lp.t_best_s", s.bestSeconds, "s");
  m.add("lp.gap", ratio(s.gapSum, static_cast<double>(s.solves)), "frac");

  m.add("sched.sdc_s", sp.total("sched.sdc"), "s");
  m.add("sched.greedy_s", sp.total("sched.greedy"), "s");
  m.add("sched.build_s", sp.total("sched.build"), "s");
  m.add("sched.vars", static_cast<double>(s.vars), "count");
  m.add("sched.rows", static_cast<double>(s.rows), "count");
  m.add("sched.validate_s", sp.total("sched.validate"), "s");

  m.add("analyze.gate_s", sp.total("analyze.gate"), "s");
  m.add("analyze.dataflow_s", sp.total("analyze.dataflow"), "s");
  m.add("analyze.schedspace_s", sp.total("analyze.schedspace"), "s");
  m.add("analyze.forbidden", static_cast<double>(s.forbidden), "count");

  m.add("cut.enum_s", sp.total("cut.enum"), "s");
  m.add("cut.cuts", static_cast<double>(s.cuts), "count");

  m.add("map.evaluate_s", sp.total("map.evaluate"), "s");
  m.add("map.luts", static_cast<double>(s.luts), "count");
  m.add("map.ffs", static_cast<double>(s.ffs), "count");
  m.add("sim.verify_s", sp.total("sim.verify"), "s");

  const auto requests =
      static_cast<double>(s.hits + s.near + s.misses);
  m.add("ir.read_text_s", sp.total("ir.read_text"), "s");
  m.add("ir.hash_s", sp.total("ir.hash"), "s");
  m.add("svc.queue_ms_p50", median(base.queueMs), "ms");
  m.add("svc.hits", static_cast<double>(s.hits), "count");
  m.add("svc.near", static_cast<double>(s.near), "count");
  m.add("svc.misses", static_cast<double>(s.misses), "count");
  m.add("svc.hit_ratio", ratio(static_cast<double>(s.hits), requests), "frac");
  m.add("util.json_parse_s", sp.total("util.json_parse"), "s");
  m.add("util.json_render_s", sp.total("util.json_render"), "s");

  m.add("hit_ms_p50", median(base.hitMs), "ms");
  m.add("hit_ms_p99", quantile(base.hitMs, 0.99), "ms");
  m.add("failed_frac",
        ratio(static_cast<double>(ledger.failed),
              static_cast<double>(ledger.attempted)),
        "frac");
  m.add("proven_frac",
        ratio(static_cast<double>(base.optimal),
              static_cast<double>(base.solves)),
        "frac");

  const auto self = sp.selfSeconds();
  const double total = sp.requestSeconds();
  for (const std::string_view layer : kLayers) {
    m.add("self." + std::string(layer), ratio(self.find(layer)->second, total),
          "frac");
  }
  m.add("trace.wall_s", t.wall, "s");
  m.add("trace.overhead_s", overheadSeconds, "s");
}

/// Total seconds and count of repeated set-ups.
struct SetupTime {
  double seconds = 0.0;
  std::int64_t setups = 0;
};

/// Repeats the set-up for at least kSetupSliceSeconds and adds to `time`;
/// `ledger` keeps the checks of the last set-up.
void timeSetup(Workload& wl, Ledger& ledger, SetupTime& time) {
  const Stopwatch watch;
  do {
    ledger = Ledger{};
    wl.setup(ledger);
    ++time.setups;
  } while (watch.seconds() < kSetupSliceSeconds);
  time.seconds += watch.seconds();
}

int run(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parseArgs(argc, argv, args, error)) {
    std::cerr << "lampbench: " << error << '\n';
    return 2;
  }
  const std::unique_ptr<Workload> wl = makeWorkload(args.workload, args.seed);
  if (!wl) {
    std::cerr << "lampbench: unknown workload '" << args.workload
              << "' (proven, svc_replay)\n";
    return 2;
  }

  Ledger ledger;
  SetupTime setupTime;
  timeSetup(*wl, ledger, setupTime);

  Metrics metrics;
  if (!args.trace) {
    std::vector<Pass> passes;
    const Stopwatch clock;
    do {
      passes.push_back(wl->run(ledger));
      // Whole passes only: past the minimum, stop when another would
      // overrun --seconds.
    } while (passes.size() < kMinPasses ||
             clock.seconds() *
                     (1.0 + 1.0 / static_cast<double>(passes.size())) <=
                 args.seconds);
    Ledger again;
    timeSetup(*wl, again, setupTime);
    ledger.attempted += again.attempted;
    ledger.failed += again.failed;
    const double setupSeconds =
        setupTime.seconds / static_cast<double>(setupTime.setups);
    checkPassesAgree(*wl, passes, ledger);
    endToEndMetrics(*wl, passes, setupSeconds, metrics);
    std::cerr << "lampbench: " << args.workload << ": set-up " << setupSeconds
              << " s; pass walls (s):";
    for (const Pass& p : passes) std::cerr << ' ' << p.wall;
    std::cerr << '\n';
    printRequests(*wl, passes.front());
  } else {
    const Pass base = wl->run(ledger);
    // A traced and an untraced replay of the same calls: the overhead
    // compares like with like, and the counters, which come from the
    // results and not from the spans, must repeat.
    const Traced first = wl->replay(ledger, true);
    const Traced plain = wl->replay(ledger, false);
    checkReplayMatches(*wl, base, first, ledger);
    checkDeterminism(*wl, first, plain, ledger);
    for (const Traced* t : {&first, &plain}) {
      checkProbes(t->stats, ledger);
    }
    if (first.stats.schedSpaceCalls > 0) {
      std::cerr << "lampbench: analyze::computeSchedSpace: "
                << first.stats.schedSpaceCalls << " call(s), slowest "
                << first.stats.schedSpaceMaxSeconds * 1e3
                << " ms (probe budget " << FlowOptions{}.analyzeBudgetMs
                << " ms)\n";
    }
    if (!args.traceOut.empty() &&
        !first.spans.writeChromeTrace(args.traceOut)) {
      std::cerr << "lampbench: cannot write " << args.traceOut << '\n';
    }
    perLayerMetrics(base, first, first.wall - plain.wall, ledger, metrics);
  }

  Json out = Json::object();
  out.set("correct", Json::boolean(ledger.failed == 0));
  out.set("attempted", Json::integer(ledger.attempted));
  out.set("failed", Json::integer(ledger.failed));
  out.set("metrics", metrics.take());
  std::cout << out.dump() << std::endl;
  return ledger.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lampbench

int main(int argc, char** argv) { return lampbench::run(argc, argv); }
