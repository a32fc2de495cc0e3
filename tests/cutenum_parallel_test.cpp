// Determinism of parallel cut enumeration: the database must be
// bit-identical at every thread count — requested counts (which the
// engine may clamp to the machine) and exact counts via the negative
// testing hook (which force real workers even on one core, so this
// file doubles as the ThreadSanitizer workload for the enumerator).
//
// LAMP_CUTENUM_TSAN_MIN builds the sanitizer variant: synthetic graphs
// only, no workloads/flow dependencies (mirrors milp_parallel_tsan_test
// — TSan needs the whole object chain instrumented, so the target
// recompiles the cut/ir/obs/util sources it runs).

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cut/cut.h"
#include "ir/builder.h"

#ifndef LAMP_CUTENUM_TSAN_MIN
#include "analyze/dataflow.h"
#include "flow/flow.h"
#include "flow/flow_json.h"
#include "workloads/workloads.h"
#endif

using namespace lamp;

namespace {

/// FNV-1a over every observable field of every cut: any divergence in
/// ordering, feasibility, costs or bit-level supports changes it.
std::uint64_t digest(const cut::CutDatabase& db) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    h = (h ^ x) * 1099511628211ull;
  };
  mix(db.cutsOf.size());
  for (const cut::CutSet& cs : db.cutsOf) {
    mix(cs.cuts.size());
    for (const cut::Cut& c : cs.cuts) {
      mix(static_cast<std::uint64_t>(c.kind));
      mix(c.isUnit ? 1 : 0);
      mix(static_cast<std::uint64_t>(c.lutCost));
      mix(static_cast<std::uint64_t>(c.maxSupport));
      mix(c.elements.size());
      for (const cut::CutElement& e : c.elements) {
        mix((static_cast<std::uint64_t>(e.node) << 32) | e.dist);
      }
      mix(c.coneNodes.size());
      for (const ir::NodeId n : c.coneNodes) mix(n);
      mix(c.bitSupport.size());
      for (const cut::SupportSet& s : c.bitSupport) {
        mix(s.size());
        for (const cut::BitKey k : s) mix(k);
      }
      mix(c.bitIsWire.size());
      for (const bool w : c.bitIsWire) mix(w ? 1 : 0);
    }
  }
  return h;
}

/// Requested counts (clamped to the machine) plus exact counts through
/// the negative hook — the latter spawn real workers everywhere.
constexpr int kThreadCounts[] = {1, 2, 8, -2, -8};

void expectIdenticalAcrossThreads(const ir::Graph& g,
                                  cut::CutEnumOptions opts,
                                  const std::string& tag) {
  opts.threads = 1;
  const cut::CutDatabase ref = cut::enumerateCuts(g, opts);
  const std::uint64_t want = digest(ref);
  for (const int t : kThreadCounts) {
    opts.threads = t;
    const cut::CutDatabase db = cut::enumerateCuts(g, opts);
    EXPECT_EQ(digest(db), want) << tag << " diverges at threads=" << t;
    EXPECT_EQ(db.totalCuts, ref.totalCuts) << tag << " threads=" << t;
    EXPECT_EQ(db.memoHits, ref.memoHits) << tag << " threads=" << t;
    EXPECT_EQ(db.nodesComputed, ref.nodesComputed) << tag << " threads=" << t;
    // The arena peak is a max over nodes, so it is partition-invariant.
    EXPECT_EQ(db.arenaPeakBytes, ref.arenaPeakBytes)
        << tag << " threads=" << t;
  }
}

/// Wide xor-reduction tree: many same-level nodes per wave, so every
/// worker gets a chunk.
ir::Graph xorTree(int leaves, int width) {
  ir::GraphBuilder b("tree");
  std::vector<ir::Value> layer;
  for (int i = 0; i < leaves; ++i) {
    layer.push_back(b.input("i" + std::to_string(i),
                            static_cast<std::uint16_t>(width)));
  }
  while (layer.size() > 1) {
    std::vector<ir::Value> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(b.bxor(layer[i], layer[i + 1]));
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  b.output(layer[0], "o");
  return b.take();
}

/// Parallel accumulator lanes with loop-carried feedback: exercises the
/// back-edge revisit pass (changed producers behind the wave front).
ir::Graph feedbackLanes(int lanes) {
  ir::GraphBuilder b("lanes");
  std::vector<ir::Value> accs;
  for (int i = 0; i < lanes; ++i) {
    const ir::Value x = b.input("x" + std::to_string(i), 8);
    const ir::Value acc = b.placeholder(8, "acc" + std::to_string(i));
    const ir::Value nxt = b.bxor(b.add(acc.prev(1), x), b.shl(x, 1));
    b.bindPlaceholder(acc, nxt);
    accs.push_back(nxt);
  }
  ir::Value sum = accs[0];
  for (int i = 1; i < lanes; ++i) sum = b.bxor(sum, accs[i]);
  b.output(sum, "o");
  return b.take();
}

TEST(CutEnumParallelTest, SyntheticGraphsBitIdenticalAcrossThreadCounts) {
  expectIdenticalAcrossThreads(xorTree(96, 12), {}, "xorTree");
  cut::CutEnumOptions k6;
  k6.k = 6;
  expectIdenticalAcrossThreads(xorTree(48, 16), k6, "xorTree/k6");
  expectIdenticalAcrossThreads(feedbackLanes(24), {}, "feedbackLanes");
  for (const cut::CutStrategy s : cut::allCutStrategies()) {
    cut::CutEnumOptions opts;
    opts.strategy = s;
    expectIdenticalAcrossThreads(
        xorTree(64, 8), opts,
        std::string("xorTree/") + std::string(cut::cutStrategyName(s)));
  }
}

// Concurrent flows share one benchmark graph (flow::runFlowJobs), so
// their first reads of its lazily built fanout index meet. Enumerations
// started together on a fresh graph must each match a private copy's
// database; the ThreadSanitizer variant fails on any unordered access.
TEST(CutEnumParallelTest, ConcurrentEnumerationsShareOneGraph) {
  cut::CutEnumOptions opts;
  opts.threads = 1;
  const std::uint64_t want =
      digest(cut::enumerateCuts(feedbackLanes(24), opts));
  const ir::Graph shared = feedbackLanes(24);
  std::vector<std::uint64_t> got(4, 0);
  {
    std::vector<std::jthread> readers;
    for (std::uint64_t& d : got) {
      readers.emplace_back(
          [&] { d = digest(cut::enumerateCuts(shared, opts)); });
    }
  }
  for (const std::uint64_t d : got) EXPECT_EQ(d, want);
}

#ifndef LAMP_CUTENUM_TSAN_MIN

TEST(CutEnumParallelTest, NineBenchmarksBitIdenticalAcrossThreadCounts) {
  for (const auto& bm : workloads::allBenchmarks(workloads::Scale::Default)) {
    expectIdenticalAcrossThreads(bm.graph, {}, bm.name);
    // Masked enumeration too: the facts digest feeds the memo key.
    const auto dflow = analyze::analyzeDataflow(bm.graph);
    const ir::BitFacts facts = analyze::toBitFacts(dflow);
    cut::CutEnumOptions masked;
    masked.facts = &facts;
    expectIdenticalAcrossThreads(bm.graph, masked, bm.name + "/facts");
  }
}

TEST(CutEnumParallelTest, FlowJsonBitIdenticalAcrossCutThreads) {
  for (const auto& bm : workloads::allBenchmarks(workloads::Scale::Default)) {
    if (bm.name != "XORR" && bm.name != "RS") continue;
    std::string want;
    for (const int t : {1, 2, 8}) {
      flow::FlowOptions opts;
      opts.cuts.threads = t;
      opts.solverTimeLimitSeconds = 60.0;
      flow::FlowResult r = flow::runFlow(bm, flow::Method::MilpMap, opts);
      ASSERT_TRUE(r.success) << bm.name << " threads=" << t << ": " << r.error;
      // Timing (and the wall-clock-stamped convergence stream riding
      // with it) is the one legitimately nondeterministic part;
      // everything else must serialize byte-identically.
      r.phases = {};
      r.convergence.clear();
      r.convergenceDropped = 0;
      std::ostringstream os;
      flow::resultToJson(r).write(os);
      if (t == 1) {
        want = os.str();
      } else {
        EXPECT_EQ(os.str(), want)
            << bm.name << ": flow JSON diverges at cut threads=" << t;
      }
    }
  }
}

#endif  // LAMP_CUTENUM_TSAN_MIN

}  // namespace
