#ifndef LAMP_WORKLOADS_WORKLOADS_H
#define LAMP_WORKLOADS_WORKLOADS_H

/// \file workloads.h
/// The paper's benchmark suite (Table 1), rebuilt as CDFG generators with
/// golden C++ references. Kernels: CLZ, XORR, GFMUL. Applications:
/// CORDIC, MT, AES, RS, DR, GSM.
///
/// Two sizes exist per benchmark: Scale::Default keeps MILP instances
/// laptop-scale (the paper capped CPLEX at 60 minutes on 2015 hardware;
/// we cap at seconds); Scale::Paper approaches the paper's op counts and
/// is expected to hit the solver cap, reproducing the Table 2 behaviour.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/graph.h"
#include "sched/schedule.h"
#include "sim/interp.h"

namespace lamp::workloads {

enum class Scale { Default, Paper };

/// A ready-to-run benchmark.
struct Benchmark {
  std::string name;
  std::string domain;       ///< Table 1 "Domain" column
  std::string description;  ///< Table 1 "Description" column
  ir::Graph graph;
  sched::ResourceLimits resources;
  /// Fills ROM/RAM banks (e.g. the AES S-box) before simulation.
  std::function<void(sim::Memory&)> initMemory;
  /// Draws one iteration's input frame from a PRNG (for validation runs).
  std::function<sim::InputFrame(std::uint64_t iteration, std::uint32_t seed)>
      makeInputs;
};

// --- kernels -----------------------------------------------------------------

/// Count leading zeros (paper: 64-bit). Built as the classic pairwise
/// (zero-flag, count) reduction tree — richly LUT-packable.
Benchmark makeClz(Scale scale);
/// XOR reduction over an array of elements (chain form after the HLS
/// front-end's naive unroll).
Benchmark makeXorr(Scale scale);
/// Galois-field GF(2^8) multiplication via shift/xor/conditional-reduce.
Benchmark makeGfmul(Scale scale);

// --- applications --------------------------------------------------------------

/// CORDIC rotation iterations (scientific computing).
Benchmark makeCordic(Scale scale);
/// Mersenne Twister: state mix + tempering, state in BRAM (black boxes).
Benchmark makeMt(Scale scale);
/// AES round column(s): S-box ROM loads, MixColumns, AddRoundKey.
Benchmark makeAes(Scale scale);
/// Reed-Solomon decoder syndrome cells with loop-carried accumulators.
Benchmark makeRs(Scale scale);
/// Digit recognition (kNN): Hamming distance popcount + running minimum.
Benchmark makeDr(Scale scale);
/// GSM: sliding-window maximum of |sample| (RPE block normalization).
Benchmark makeGsm(Scale scale);

/// All nine, in Table 1 order.
std::vector<Benchmark> allBenchmarks(Scale scale);

/// The benchmark called `name` (CLZ, XORR, ..., GSM), built alone;
/// nullopt for any other name.
std::optional<Benchmark> findBenchmark(std::string_view name, Scale scale);

/// Wraps a user-supplied CDFG as a runnable Benchmark: deterministic
/// PRNG input frames, no memory init, no resource limits. Shared by the
/// lampc file loader and the lampd service so external graphs get
/// identical verification behaviour everywhere.
Benchmark benchmarkFromGraph(ir::Graph g, std::string description = "");

/// A command-line input: a benchmark name (findBenchmark), else a .lamp
/// graph file (ir::writeText format) wrapped by benchmarkFromGraph.
/// Returns nullopt with `err` set when it is neither.
std::optional<Benchmark> loadBenchmark(const std::string& input, Scale scale,
                                       std::string& err);

// --- golden references (for tests) ---------------------------------------------

/// Leading zeros of the low `width` bits of v (width if zero).
int clzRef(std::uint64_t v, int width);
/// GF(2^8) product modulo x^8+x^4+x^3+x+1 (0x11B).
std::uint8_t gfmulRef(std::uint8_t a, std::uint8_t b);
/// xtime chain: a * (x^k) in GF(2^8).
std::uint8_t gfmulByXkRef(std::uint8_t a, int k);
/// The AES S-box.
const std::array<std::uint8_t, 256>& aesSbox();
/// MixColumns on one column (after SubBytes), plus AddRoundKey.
std::array<std::uint8_t, 4> aesColumnRef(const std::array<std::uint8_t, 4>& s,
                                         const std::array<std::uint8_t, 4>& k);
/// Mersenne Twister reference: one state-mix + temper step.
std::uint32_t mtStepRef(std::uint32_t mtI, std::uint32_t mtI1,
                        std::uint32_t mtI397);
/// Population count.
int popcountRef(std::uint64_t v);

}  // namespace lamp::workloads

#endif  // LAMP_WORKLOADS_WORKLOADS_H
