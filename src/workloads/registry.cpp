#include "workloads/workloads.h"

#include <fstream>

#include "ir/passes.h"

namespace lamp::workloads {

namespace {

/// Every benchmark's maker under its name, in Table 1 order.
constexpr std::pair<std::string_view, Benchmark (*)(Scale)> kBenchmarks[] = {
    {"CLZ", makeClz}, {"XORR", makeXorr}, {"GFMUL", makeGfmul},
    {"CORDIC", makeCordic}, {"MT", makeMt}, {"AES", makeAes},
    {"RS", makeRs}, {"DR", makeDr}, {"GSM", makeGsm},
};

}  // namespace

Benchmark benchmarkFromGraph(ir::Graph g, std::string description) {
  Benchmark bm;
  bm.name = g.name();
  bm.domain = "User";
  bm.description = std::move(description);
  bm.graph = std::move(g);
  const std::vector<ir::NodeId> ins = bm.graph.inputs();
  bm.makeInputs = [ins](std::uint64_t iter, std::uint32_t seed) {
    sim::InputFrame f;
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + iter;
    for (const ir::NodeId id : ins) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      f[id] = state >> 13;
    }
    return f;
  };
  return bm;
}

std::vector<Benchmark> allBenchmarks(Scale scale) {
  std::vector<Benchmark> result;
  for (const auto& [name, make] : kBenchmarks) result.push_back(make(scale));
  return result;
}

std::optional<Benchmark> findBenchmark(std::string_view name, Scale scale) {
  for (const auto& [known, make] : kBenchmarks) {
    if (known == name) return make(scale);
  }
  return std::nullopt;
}

std::optional<Benchmark> loadBenchmark(const std::string& input, Scale scale,
                                       std::string& err) {
  if (auto bm = findBenchmark(input, scale)) return bm;
  std::ifstream in(input);
  if (!in) {
    err = "'" + input + "' is neither a benchmark name nor a readable file";
    return std::nullopt;
  }
  auto g = ir::readText(in, &err);
  if (!g) {
    err = "parse error in " + input + ": " + err;
    return std::nullopt;
  }
  return benchmarkFromGraph(std::move(*g), input);
}

}  // namespace lamp::workloads
