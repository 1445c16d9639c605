// Quickstart: compute the exact Pareto frontier of one net and print every
// (wirelength, delay) tradeoff with its tree.
//
//   $ ./quickstart
//
// This is the 60-second tour of the public API; see net_explorer.cpp and
// global_router.cpp for realistic scenarios.  The knee tree's SVG lands in
// examples/out/ under the working directory, created on first use.
#include <cstdio>
#include <filesystem>

#include "patlabor/patlabor.hpp"

int main() {
  using namespace patlabor;

  // A degree-7 net with a rich wirelength/delay tradeoff: source first,
  // then six sinks (database units).
  geom::Net net;
  net.name = "quickstart";
  net.pins = {{2000, 5700}, {5100, 5100}, {5600, 2200}, {1600, 700},
              {5200, 1500}, {6000, 2900}, {4200, 1300}};

  // PatLabor: for small nets this is the exact Pareto frontier.  Passing a
  // lookup table (lut::LookupTable::generate) makes it faster; without one
  // it transparently falls back to the exact Pareto-DW.
  const core::PatLaborResult result = core::patlabor(net);

  std::printf("net '%s', degree %zu\n", net.name.c_str(), net.degree());
  std::printf("RSMT wirelength (FLUTE role): %lld\n",
              static_cast<long long>(rsmt::rsmt(net).wirelength()));
  std::printf("arborescence delay (CL role): %lld\n\n",
              static_cast<long long>(rsma::star_delay(net)));

  std::printf("Pareto frontier: %zu solutions\n", result.frontier.size());
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    const auto& s = result.frontier[i];
    const auto& t = result.trees[i];
    std::printf("  #%zu  w = %6lld   d = %6lld   (%zu nodes, %zu Steiner)\n",
                i, static_cast<long long>(s.w), static_cast<long long>(s.d),
                t.num_nodes(), t.num_nodes() - t.num_pins());
  }

  // Pick the knee: the solution maximizing hypervolume against the
  // objective-space corner, then render it.
  const pareto::Objective ref{result.frontier.back().w * 2,
                              result.frontier.front().d * 2};
  std::size_t knee = 0;
  double best = -1.0;
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    const double hv = pareto::hypervolume(
        std::vector<pareto::Objective>{result.frontier[i]}, ref);
    if (hv > best) {
      best = hv;
      knee = i;
    }
  }
  std::filesystem::create_directories("examples/out");
  io::write_file("examples/out/quickstart_knee.svg",
                 io::tree_svg(result.trees[knee]));
  std::printf("\nknee solution #%zu rendered to "
              "examples/out/quickstart_knee.svg\n",
              knee);
  return 0;
}
