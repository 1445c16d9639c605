// Theorem 1 / Fig. 4: worst-case instances have exponentially large Pareto
// frontiers.
//
// Prints, per degree, the frontier size of the adversarial instance bank
// (mined by Pareto-DW-guided local search, the in-repo stand-in for the
// paper's S-gadget construction — the figure fixing the 11-pin gadget is
// not reproducible from the text) against the maximum frontier over random
// uniform instances.  Set PATLABOR_MINE=<iterations> to re-mine instances.
#include "common.hpp"

namespace {

using namespace patlabor;

std::size_t frontier_size(const geom::Net& net) {
  dw::ParetoDwOptions o;
  o.want_trees = false;
  return dw::pareto_dw(net, o).frontier.size();
}

}  // namespace

int main() {
  const int mine_iters = bench::env_int("PATLABOR_MINE", 0);
  util::Rng rng(2025);

  io::AsciiTable table(
      {"Degree", "Adversarial |S|", "Uniform max |S|", "Ratio"});
  io::CsvWriter csv(bench::out_path("theorem1.csv"),
                    {"degree", "adversarial", "uniform_max", "ratio"});

  const std::size_t random_nets = util::scaled_count(60);
  std::printf("Theorem 1: adversarial vs. typical Pareto frontier sizes "
              "(%zu random nets per degree)\n",
              random_nets);

  for (int degree = 5; degree <= 10; ++degree) {
    geom::Net adv = netgen::theorem1_instance(degree - 1);
    std::size_t adv_size = frontier_size(adv);

    if (mine_iters > 0) {
      // Optional re-mining: hill-climb the instance bank further.
      geom::Net cur = adv;
      for (int it = 0; it < mine_iters; ++it) {
        geom::Net cand = cur;
        const std::size_t i = rng.index(cand.pins.size());
        cand.pins[i] = geom::Point{rng.uniform_int(0, 64),
                                   rng.uniform_int(0, 64)};
        const std::size_t f = frontier_size(cand);
        if (f >= adv_size) {
          adv_size = f;
          cur = cand;
        }
      }
    }

    std::size_t uniform_max = 0;
    for (std::size_t i = 0; i < random_nets; ++i)
      uniform_max = std::max(
          uniform_max, frontier_size(netgen::uniform_net(
                           rng, static_cast<std::size_t>(degree), 64)));

    const double ratio = uniform_max == 0
                             ? 0.0
                             : static_cast<double>(adv_size) /
                                   static_cast<double>(uniform_max);
    table.add_row({std::to_string(degree), std::to_string(adv_size),
                   std::to_string(uniform_max), util::fixed(ratio, 2)});
    csv.row({std::to_string(degree), std::to_string(adv_size),
             std::to_string(uniform_max), io::CsvWriter::num(ratio)});
  }

  table.print("\n[Theorem 1] frontier sizes, adversarial vs uniform");
  std::printf("\nPaper: worst-case frontier is 2^Omega(n) (Theorem 1) while "
              "smoothed instances stay polynomial (Theorem 2).\n"
              "Adversarial sizes should grow sharply with degree and exceed "
              "the uniform maxima.\nCSV: %s\n",
              bench::out_path("theorem1.csv").c_str());
  return 0;
}
