// Functional validation of every benchmark DFG against its C++ golden
// reference via the untimed interpreter, plus structural sanity checks
// (verified graphs, no combinational cycles, plausible op counts).

#include <gtest/gtest.h>

#include <optional>

#include "ir/hash.h"
#include "ir/passes.h"
#include "sim/interp.h"
#include "workloads/workloads.h"

namespace lamp::workloads {
namespace {

using sim::InputFrame;
using sim::Interpreter;
using sim::OutputFrame;

class AllBenchmarksTest : public ::testing::TestWithParam<int> {};

TEST_P(AllBenchmarksTest, GraphVerifiesAndHasIo) {
  for (const Scale scale : {Scale::Default, Scale::Paper}) {
    const Benchmark bm = allBenchmarks(scale)[GetParam()];
    const auto diag = ir::verify(bm.graph);
    EXPECT_EQ(diag, std::nullopt) << bm.name << ": " << *diag;
    EXPECT_FALSE(bm.graph.inputs().empty()) << bm.name;
    EXPECT_FALSE(bm.graph.outputs().empty()) << bm.name;
    EXPECT_GE(bm.graph.size(), 10u) << bm.name;
  }
}

TEST_P(AllBenchmarksTest, PaperScaleIsLarger) {
  const Benchmark d = allBenchmarks(Scale::Default)[GetParam()];
  const Benchmark p = allBenchmarks(Scale::Paper)[GetParam()];
  EXPECT_GT(p.graph.size(), d.graph.size()) << d.name;
}

TEST_P(AllBenchmarksTest, FindBenchmarkBuildsTheNamedOne) {
  for (const Scale scale : {Scale::Default, Scale::Paper}) {
    const Benchmark bm = allBenchmarks(scale)[GetParam()];
    const std::optional<Benchmark> found = findBenchmark(bm.name, scale);
    ASSERT_TRUE(found.has_value()) << bm.name;
    EXPECT_EQ(found->name, bm.name);
    EXPECT_EQ(ir::canonicalHash(found->graph), ir::canonicalHash(bm.graph))
        << bm.name;
  }
  EXPECT_FALSE(findBenchmark("NO_SUCH_BENCHMARK", Scale::Default));
}

INSTANTIATE_TEST_SUITE_P(All, AllBenchmarksTest, ::testing::Range(0, 9));

// --- golden-vs-interpreter checks, one per benchmark ------------------------

TEST(ClzTest, MatchesReference) {
  const Benchmark bm = makeClz(Scale::Default);
  Interpreter interp(bm.graph);
  const ir::NodeId in = bm.graph.inputs()[0];
  const ir::NodeId out = bm.graph.outputs()[0];
  for (std::uint64_t v :
       {0ull, 1ull, 0xFFFFFFFFull, 0x80000000ull, 0x00010000ull, 0x7ull,
        0x0000FFFFull, 0x12345678ull, 0x00000001ull, 0x40000000ull}) {
    interp.reset();
    const OutputFrame f = interp.step({{in, v}});
    EXPECT_EQ(f.at(out), static_cast<std::uint64_t>(clzRef(v, 32)))
        << "v=" << std::hex << v;
  }
}

TEST(ClzTest, PaperScaleMatchesReference64) {
  const Benchmark bm = makeClz(Scale::Paper);
  Interpreter interp(bm.graph);
  const ir::NodeId in = bm.graph.inputs()[0];
  const ir::NodeId out = bm.graph.outputs()[0];
  for (std::uint64_t v : {0ull, 1ull, ~0ull, 0x8000000000000000ull,
                          0x0000000100000000ull, 0x00FF00FF00FF00FFull}) {
    interp.reset();
    EXPECT_EQ(interp.step({{in, v}}).at(out),
              static_cast<std::uint64_t>(clzRef(v, 64)));
  }
}

TEST(XorrTest, MatchesReference) {
  const Benchmark bm = makeXorr(Scale::Default);
  Interpreter interp(bm.graph);
  const ir::NodeId out = bm.graph.outputs()[0];
  for (std::uint32_t seed = 1; seed <= 5; ++seed) {
    const InputFrame f = bm.makeInputs(seed * 3, seed);
    std::uint64_t expected = 0;
    for (const auto& [id, v] : f) expected ^= v & 0xFFFFFFFFull;
    interp.reset();
    EXPECT_EQ(interp.step(f).at(out), expected);
  }
}

TEST(GfmulTest, MatchesReferenceExhaustiveSample) {
  const Benchmark bm = makeGfmul(Scale::Default);
  Interpreter interp(bm.graph);
  const auto ins = bm.graph.inputs();
  const ir::NodeId out = bm.graph.outputs()[0];
  for (int a = 0; a < 256; a += 7) {
    for (int c = 0; c < 256; c += 11) {
      interp.reset();
      const OutputFrame f = interp.step(
          {{ins[0], static_cast<std::uint64_t>(a)},
           {ins[1], static_cast<std::uint64_t>(c)}});
      EXPECT_EQ(f.at(out), gfmulRef(static_cast<std::uint8_t>(a),
                                    static_cast<std::uint8_t>(c)))
          << a << "*" << c;
    }
  }
}

TEST(CordicTest, MatchesStepReference) {
  const Benchmark bm = makeCordic(Scale::Default);
  Interpreter interp(bm.graph);
  const auto ins = bm.graph.inputs();
  const auto outs = bm.graph.outputs();
  constexpr std::uint16_t kAtan[12] = {12868, 7596, 4014, 2037, 1023, 512,
                                       256,   128,  64,   32,   16,   8};
  // 14-bit two's-complement arithmetic mirroring the graph.
  const auto sex = [](std::uint64_t v) {
    return static_cast<std::int32_t>((v & 0x2000) ? (v | ~0x3FFFu) : v);
  };
  const auto wrap = [](std::int32_t v) {
    return static_cast<std::uint16_t>(v & 0x3FFF);
  };
  const auto ref = [&](std::uint16_t x0, std::uint16_t y0, std::uint16_t z0) {
    std::int32_t x = sex(x0), y = sex(y0), z = sex(z0);
    for (int i = 0; i < 6; ++i) {
      const bool d = z >= 0;
      const std::int32_t xs = x >> i;
      const std::int32_t ys = y >> i;
      const std::int32_t at = kAtan[i] >> 2;
      const std::int32_t xn = d ? x - ys : x + ys;
      const std::int32_t yn = d ? y + xs : y - xs;
      const std::int32_t zn = d ? z - at : z + at;
      x = sex(wrap(xn)); y = sex(wrap(yn)); z = sex(wrap(zn));
    }
    return std::array<std::uint16_t, 3>{wrap(x), wrap(y), wrap(z)};
  };
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    const InputFrame f = bm.makeInputs(seed, seed * 3);
    interp.reset();
    const OutputFrame o = interp.step(f);
    const auto expect = ref(static_cast<std::uint16_t>(f.at(ins[0])),
                            static_cast<std::uint16_t>(f.at(ins[1])),
                            static_cast<std::uint16_t>(f.at(ins[2])));
    EXPECT_EQ(o.at(outs[0]), expect[0]);
    EXPECT_EQ(o.at(outs[1]), expect[1]);
    EXPECT_EQ(o.at(outs[2]), expect[2]);
  }
}

TEST(MtTest, MatchesReference) {
  const Benchmark bm = makeMt(Scale::Default);
  Interpreter interp(bm.graph);
  bm.initMemory(interp.memory());
  const ir::NodeId in = bm.graph.inputs()[0];
  const ir::NodeId out = bm.graph.outputs()[0];
  // Rebuild the same bank to fetch expected words.
  std::vector<std::uint64_t> bank(1024);
  std::uint32_t s = 19650218u;
  for (auto& w : bank) {
    s = 1812433253u * (s ^ (s >> 30)) + 1;
    w = s;
  }
  for (std::uint64_t idx : {0ull, 5ull, 123ull, 599ull}) {
    interp.reset();
    const OutputFrame f = interp.step({{in, idx}});
    EXPECT_EQ(f.at(out),
              mtStepRef(static_cast<std::uint32_t>(bank[idx]),
                        static_cast<std::uint32_t>(bank[idx + 1]),
                        static_cast<std::uint32_t>(bank[idx + 397])));
  }
}

TEST(AesTest, MatchesColumnReference) {
  const Benchmark bm = makeAes(Scale::Default);
  Interpreter interp(bm.graph);
  bm.initMemory(interp.memory());
  const auto ins = bm.graph.inputs();
  const auto outs = bm.graph.outputs();
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    const InputFrame f = bm.makeInputs(seed, seed * 7);
    std::array<std::uint8_t, 4> sIn{}, kIn{};
    for (int i = 0; i < 4; ++i) {
      sIn[i] = static_cast<std::uint8_t>(f.at(ins[i]));
      kIn[i] = static_cast<std::uint8_t>(f.at(ins[4 + i]));
    }
    interp.reset();
    const OutputFrame o = interp.step(f);
    const auto expect = aesColumnRef(sIn, kIn);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(o.at(outs[i]), expect[i]) << "byte " << i;
    }
  }
}

TEST(RsTest, MatchesSyndromeRecurrence) {
  const Benchmark bm = makeRs(Scale::Default);
  Interpreter interp(bm.graph);
  const ir::NodeId in = bm.graph.inputs()[0];
  const auto outs = bm.graph.outputs();
  std::array<std::uint8_t, 3> syn{};
  for (std::uint64_t iter = 0; iter < 20; ++iter) {
    const std::uint8_t r = static_cast<std::uint8_t>(iter * 37 + 5);
    const OutputFrame f = interp.step({{in, r}});
    std::uint8_t any = 0;
    for (int j = 0; j < 3; ++j) {
      syn[j] = static_cast<std::uint8_t>(gfmulByXkRef(syn[j], j) ^ r);
      any |= syn[j];
      EXPECT_EQ(f.at(outs[j]), syn[j]) << "iter " << iter << " syn " << j;
    }
    EXPECT_EQ(f.at(outs[3]), any != 0 ? 1u : 0u) << "iter " << iter;
  }
}

TEST(DrTest, MatchesKnnReference) {
  const Benchmark bm = makeDr(Scale::Default);
  Interpreter interp(bm.graph);
  bm.initMemory(interp.memory());
  const auto ins = bm.graph.inputs();
  const auto outs = bm.graph.outputs();
  // Mirror of initMemory's bank.
  std::vector<std::uint64_t> bank(1024);
  std::uint64_t s = 0x1234567890ABCDEFull;
  for (auto& wd : bank) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    wd = (s >> 8) & ((1ull << 25) - 1);
  }
  std::uint64_t best = 0;
  std::uint64_t bestIdx = 0;
  bool seen = false;
  for (std::uint64_t iter = 0; iter < 30; ++iter) {
    const InputFrame f = bm.makeInputs(iter, 3);
    const std::uint64_t test = f.at(ins[0]) & ((1ull << 25) - 1);
    const std::uint64_t idx = f.at(ins[1]);
    const std::uint64_t dist = popcountRef(test ^ bank[idx]);
    if (!seen || dist < best) {
      best = dist;
      bestIdx = idx;
      seen = true;
    }
    const OutputFrame o = interp.step(f);
    EXPECT_EQ(o.at(outs[0]), best) << "iter " << iter;
    EXPECT_EQ(o.at(outs[1]), bestIdx) << "iter " << iter;
  }
}

TEST(GsmTest, MatchesWindowMaxReference) {
  const Benchmark bm = makeGsm(Scale::Default);
  Interpreter interp(bm.graph);
  const ir::NodeId in = bm.graph.inputs()[0];
  const auto outs = bm.graph.outputs();
  std::vector<std::uint64_t> absHist;
  for (std::uint64_t iter = 0; iter < 25; ++iter) {
    const InputFrame f = bm.makeInputs(iter, 9);
    const std::int16_t x = static_cast<std::int16_t>(f.at(in));
    const std::uint16_t a =
        static_cast<std::uint16_t>(x < 0 ? -static_cast<std::int32_t>(x) : x);
    absHist.push_back(a);
    std::uint64_t mx = 0;
    for (int d = 0; d < 5; ++d) {
      const std::int64_t k = static_cast<std::int64_t>(iter) - d;
      const std::uint64_t tap = k < 0 ? 0 : absHist[k];
      mx = std::max(mx, tap);
    }
    const OutputFrame o = interp.step(f);
    EXPECT_EQ(o.at(outs[0]), mx) << "iter " << iter;
  }
}


// --- paper-scale golden checks ------------------------------------------------

TEST(PaperScaleTest, XorrMatchesReference) {
  const Benchmark bm = makeXorr(Scale::Paper);
  Interpreter interp(bm.graph);
  const ir::NodeId out = bm.graph.outputs()[0];
  const InputFrame f = bm.makeInputs(5, 9);
  std::uint64_t expected = 0;
  for (const auto& [id, v] : f) expected ^= v & 0xFFFFFFFFull;
  EXPECT_EQ(interp.step(f).at(out), expected);
}

TEST(PaperScaleTest, GfmulBothLanesMatchReference) {
  const Benchmark bm = makeGfmul(Scale::Paper);
  Interpreter interp(bm.graph);
  const auto ins = bm.graph.inputs();
  const auto outs = bm.graph.outputs();
  ASSERT_EQ(ins.size(), 4u);
  ASSERT_EQ(outs.size(), 2u);
  const OutputFrame f = interp.step(
      {{ins[0], 0x57}, {ins[1], 0x83}, {ins[2], 0xCA}, {ins[3], 0x35}});
  EXPECT_EQ(f.at(outs[0]), gfmulRef(0x57, 0x83));
  EXPECT_EQ(f.at(outs[1]), gfmulRef(0xCA, 0x35));
}

TEST(PaperScaleTest, AesAllFourColumnsMatchReference) {
  const Benchmark bm = makeAes(Scale::Paper);
  Interpreter interp(bm.graph);
  bm.initMemory(interp.memory());
  const auto ins = bm.graph.inputs();
  const auto outs = bm.graph.outputs();
  ASSERT_EQ(ins.size(), 32u);
  ASSERT_EQ(outs.size(), 16u);
  const InputFrame f = bm.makeInputs(3, 11);
  const OutputFrame o = interp.step(f);
  for (int c = 0; c < 4; ++c) {
    std::array<std::uint8_t, 4> sIn{}, kIn{};
    for (int i = 0; i < 4; ++i) {
      sIn[i] = static_cast<std::uint8_t>(f.at(ins[c * 4 + i]));
      kIn[i] = static_cast<std::uint8_t>(f.at(ins[16 + c * 4 + i]));
    }
    const auto expect = aesColumnRef(sIn, kIn);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(o.at(outs[c * 4 + i]), expect[i]) << "col " << c;
    }
  }
}

TEST(PaperScaleTest, RsSixSyndromesMatchRecurrence) {
  const Benchmark bm = makeRs(Scale::Paper);
  Interpreter interp(bm.graph);
  const ir::NodeId in = bm.graph.inputs()[0];
  const auto outs = bm.graph.outputs();
  std::array<std::uint8_t, 6> syn{};
  for (std::uint64_t iter = 0; iter < 12; ++iter) {
    const std::uint8_t r = static_cast<std::uint8_t>(iter * 41 + 3);
    const OutputFrame f = interp.step({{in, r}});
    for (int j = 0; j < 6; ++j) {
      syn[j] = static_cast<std::uint8_t>(gfmulByXkRef(syn[j], j) ^ r);
      EXPECT_EQ(f.at(outs[j]), syn[j]) << "iter " << iter << " syn " << j;
    }
  }
}

TEST(PaperScaleTest, GsmWindowEight) {
  const Benchmark bm = makeGsm(Scale::Paper);
  Interpreter interp(bm.graph);
  const ir::NodeId in = bm.graph.inputs()[0];
  const auto outs = bm.graph.outputs();
  std::vector<std::uint64_t> absHist;
  for (std::uint64_t iter = 0; iter < 20; ++iter) {
    const InputFrame f = bm.makeInputs(iter, 4);
    const std::int16_t x = static_cast<std::int16_t>(f.at(in));
    absHist.push_back(static_cast<std::uint16_t>(
        x < 0 ? -static_cast<std::int32_t>(x) : x));
    std::uint64_t mx = 0;
    for (int d = 0; d < 8; ++d) {
      const std::int64_t k = static_cast<std::int64_t>(iter) - d;
      mx = std::max(mx, k < 0 ? 0 : absHist[k]);
    }
    EXPECT_EQ(interp.step(f).at(outs[0]), mx) << "iter " << iter;
  }
}

}  // namespace
}  // namespace lamp::workloads
