// Reproduces Figure 2: word-level cut enumeration on the Reed-Solomon
// encoder kernel at 2-bit width with 4-input LUTs, showing (a) the
// shift-routed dependence of A, (b) the bitwise dependence of B, (c) the
// sign-test collapse of C = (B >= 0) to a single bit, and (d) cut sets
// that remain well-defined across the loop-carried cycle through D and E.

#include <iostream>

#include "cut/cut.h"
#include "cut/dep.h"
#include "fig_common.h"

using namespace lamp;

int main() {
  const bench::FigKernel k = bench::figureKernel();
  const ir::Graph& g = k.graph;

  cut::CutEnumOptions opts;
  opts.k = 4;
  const cut::CutDatabase db = cut::enumerateCuts(g, opts);

  std::cout << "Figure 2: word-level cut enumeration for the Reed-Solomon "
               "encoder\n(2-bit operations, K = 4)\n\n";

  // Bit-level dependence tracking highlights from the figure's narrative.
  std::cout << "DEP highlights:\n";
  for (std::uint16_t bit = 0; bit < 2; ++bit) {
    const auto deps = cut::depBits(g, k.a, bit);
    std::cout << "  A[" << bit << "] (shift)   depends on "
              << deps.size() << " bit(s) of s\n";
  }
  for (std::uint16_t bit = 0; bit < 2; ++bit) {
    const auto deps = cut::depBits(g, k.b, bit);
    std::cout << "  B[" << bit << "] (xor)     depends on " << deps.size()
              << " bits (one of t, one of A)\n";
  }
  {
    const auto deps = cut::depBits(g, k.c, 0);
    std::cout << "  C (B >= 0)    depends on " << deps.size()
              << " bit only - the sign bit of B (bit " << deps[0].bit
              << ")\n";
  }
  std::cout << "\nEnumerated cut sets:\n";
  for (const ir::NodeId v : {k.a, k.b, k.c, k.d, k.e}) {
    std::cout << "  CUT(" << g.node(v).name << "):\n";
    for (const cut::Cut& c : db.at(v).cuts) {
      std::cout << "    " << c.str(g) << (c.isUnit ? "  [unit]" : "") << "\n";
    }
  }

  std::cout << "\nTotals: " << db.totalCuts << " cuts across " << g.size()
            << " nodes, " << db.wallSeconds * 1e3 << " ms\n";
  std::cout << "\nPaper shape check: C's cuts reach through B thanks to the "
               "sign-bit collapse,\nand D/E carry cuts whose elements "
               "include E from the previous iteration\n(E@-1), the "
               "loop-carried boundary of Section 3.1.\n";
  return 0;
}
