// Whole-database pins for cut enumeration: an FNV-1a digest over every
// field of every cut, for synthetic graphs, for the nine benchmarks
// with and without bit facts and for CLZ at paper scale and at K=6/8,
// plus two map flows end to end. Any change to ordering, feasibility,
// costs or bit-level supports moves a digest; a change meant to alter
// the databases re-pins them on purpose. The test names date from when
// the enumerator also ran on a thread pool and these cases compared
// thread counts; the pinned digests are the databases every thread
// count produced then.
//
// ConcurrentEnumerationsShareOneGraph enumerates one graph from several
// threads at once, as flow::runFlowJobs does. LAMP_CUTENUM_TSAN_MIN
// builds its ThreadSanitizer variant: synthetic graphs only, no
// workloads/flow dependencies (mirrors milp_parallel_tsan_test — TSan
// needs the whole object chain instrumented, so the target recompiles
// the cut/ir/obs/util sources it runs).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
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

std::string hex(std::uint64_t x) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

void expectPinned(const ir::Graph& g, const cut::CutEnumOptions& opts,
                  std::uint64_t want, const std::string& tag) {
  EXPECT_EQ(hex(digest(cut::enumerateCuts(g, opts))), hex(want)) << tag;
}

/// Wide xor-reduction tree: many independent nodes per level.
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

/// Parallel accumulator lanes with loop-carried feedback: each lane's
/// cones stop at its dist-1 register boundary.
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
  expectPinned(xorTree(96, 12), {}, 0x769918620c7a2a84ull, "xorTree");
  cut::CutEnumOptions k6;
  k6.k = 6;
  expectPinned(xorTree(48, 16), k6, 0x10ae25ae3609c9bdull, "xorTree/k6");
  expectPinned(feedbackLanes(24), {}, 0x28255387a707a960ull,
               "feedbackLanes");
  // depth, area, support, balanced (allCutStrategies() order).
  const std::uint64_t byStrategy[] = {
      0xf90981c2ae9f207cull, 0xf90981c2ae9f207cull, 0x9b4ddbbb79770980ull,
      0xf90981c2ae9f207cull};
  for (std::size_t i = 0; i < cut::allCutStrategies().size(); ++i) {
    cut::CutEnumOptions opts;
    opts.strategy = cut::allCutStrategies()[i];
    expectPinned(xorTree(64, 8), opts, byStrategy[i],
                 "xorTree/" + std::string(cut::cutStrategyName(opts.strategy)));
  }
}

// Concurrent flows share one benchmark graph (flow::runFlowJobs), so
// their first reads of its lazily built fanout index meet. Enumerations
// started together on a fresh graph must each match a private copy's
// database; the ThreadSanitizer variant fails on any unordered access.
TEST(CutEnumParallelTest, ConcurrentEnumerationsShareOneGraph) {
  const cut::CutEnumOptions opts;
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
  // {plain, with bit facts} per benchmark.
  const std::map<std::string, std::array<std::uint64_t, 2>> pins = {
      {"CLZ", {0x4358c8c86a0d5bc3ull, 0x7202945cf807d571ull}},
      {"XORR", {0x2c1582d83de0d0d6ull, 0x2c1582d83de0d0d6ull}},
      {"GFMUL", {0x68e9643e5051421cull, 0x10ed627ee11d3889ull}},
      {"CORDIC", {0x8f41353bb551b884ull, 0xbd2ba514e44d96f2ull}},
      {"MT", {0xc6b0fdbd02472496ull, 0x010e78a728ed0d15ull}},
      {"AES", {0x0967d66924275634ull, 0x1b381dbd376b3adeull}},
      {"RS", {0xbb5e0f7a5a86f738ull, 0xfad1920cfd8aa490ull}},
      {"DR", {0x7fb68815cdbfbd65ull, 0x7543fdb93e1a2c5cull}},
      {"GSM", {0x0d35f3f617048982ull, 0x9fd2fcac61290377ull}},
  };
  std::size_t seen = 0;
  for (const auto& bm : workloads::allBenchmarks(workloads::Scale::Default)) {
    const auto it = pins.find(bm.name);
    ASSERT_NE(it, pins.end()) << bm.name;
    ++seen;
    expectPinned(bm.graph, {}, it->second[0], bm.name);
    const auto dflow = analyze::analyzeDataflow(bm.graph);
    const ir::BitFacts facts = analyze::toBitFacts(dflow);
    cut::CutEnumOptions masked;
    masked.facts = &facts;
    expectPinned(bm.graph, masked, it->second[1], bm.name + "/facts");
  }
  EXPECT_EQ(seen, pins.size());

  // CLZ's cones have the most candidate cuts of the nine (up to 729
  // fanin-cut combinations at one node): pin it also at paper scale and
  // at K=6 and K=8.
  struct ClzPin {
    workloads::Scale scale;
    int k;
    bool facts;
    std::uint64_t want;
    const char* tag;
  };
  const ClzPin clzPins[] = {
      {workloads::Scale::Paper, 4, false, 0x17dfb7d335474f44ull, "CLZ/paper"},
      {workloads::Scale::Paper, 4, true, 0x4aa0bb0e627daaf3ull,
       "CLZ/paper/facts"},
      {workloads::Scale::Default, 6, true, 0x843e8c2b20395efdull,
       "CLZ/k6/facts"},
      {workloads::Scale::Default, 8, true, 0x9db2aba7ba1a6beaull,
       "CLZ/k8/facts"},
  };
  for (const ClzPin& pin : clzPins) {
    const auto bm = workloads::findBenchmark("CLZ", pin.scale);
    ASSERT_TRUE(bm.has_value()) << pin.tag;
    const ir::BitFacts facts =
        analyze::toBitFacts(analyze::analyzeDataflow(bm->graph));
    cut::CutEnumOptions opts;
    opts.k = pin.k;
    if (pin.facts) opts.facts = &facts;
    expectPinned(bm->graph, opts, pin.want, pin.tag);
  }
}

// The map flow end to end: two runs serialize byte-identically, and the
// cut count the MILP selected from is pinned.
TEST(CutEnumParallelTest, FlowJsonBitIdenticalAcrossCutThreads) {
  const std::map<std::string, std::size_t> numCuts = {{"XORR", 34},
                                                      {"RS", 53}};
  for (const auto& [name, cuts] : numCuts) {
    const auto bm = workloads::findBenchmark(name, workloads::Scale::Default);
    ASSERT_TRUE(bm.has_value()) << name;
    std::string want;
    for (int run = 0; run < 2; ++run) {
      flow::FlowOptions opts;
      opts.solverTimeLimitSeconds = 60.0;
      flow::FlowResult r = flow::runFlow(*bm, flow::Method::MilpMap, opts);
      ASSERT_TRUE(r.success) << name << " run " << run << ": " << r.error;
      EXPECT_EQ(r.numCuts, cuts) << name;
      // Timing (and the wall-clock-stamped convergence stream riding
      // with it) is the one legitimately nondeterministic part;
      // everything else must serialize byte-identically.
      r.phases = {};
      r.convergence.clear();
      r.convergenceDropped = 0;
      std::ostringstream os;
      flow::resultToJson(r).write(os);
      if (run == 0) {
        want = os.str();
      } else {
        EXPECT_EQ(os.str(), want) << name << ": flow JSON differs between runs";
      }
    }
  }
}

#endif  // LAMP_CUTENUM_TSAN_MIN

}  // namespace
