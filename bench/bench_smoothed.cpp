// Theorem 2: kappa-smoothed instances have small (polynomial) expected
// Pareto frontiers; the expectation grows with kappa and (mildly) with n.
//
// Prints E[|frontier|] per (degree, kappa) over REPRO_SCALE-scaled samples.
#include "common.hpp"

int main() {
  using namespace patlabor;
  util::Rng rng(7);
  const std::size_t samples = util::scaled_count(120);
  const std::vector<double> kappas{1.0, 2.0, 4.0, 8.0, 16.0};

  std::vector<std::string> header{"Degree \\ kappa"};
  for (double k : kappas) header.push_back(util::fixed(k, 0));
  header.push_back("max seen");
  io::AsciiTable table(header);
  io::CsvWriter csv(bench::out_path("smoothed.csv"),
                    {"degree", "kappa", "mean_frontier", "max_frontier"});

  dw::ParetoDwOptions opts;
  opts.want_trees = false;

  for (std::size_t degree = 5; degree <= 9; ++degree) {
    std::vector<std::string> row{std::to_string(degree)};
    std::size_t max_seen = 0;
    for (double kappa : kappas) {
      double sum = 0.0;
      std::size_t max_k = 0;
      for (std::size_t s = 0; s < samples; ++s) {
        const geom::Net net = netgen::smoothed_net(rng, degree, kappa);
        const std::size_t f = dw::pareto_dw(net, opts).frontier.size();
        sum += static_cast<double>(f);
        max_k = std::max(max_k, f);
      }
      const double mean = sum / static_cast<double>(samples);
      row.push_back(util::fixed(mean, 2));
      csv.row({std::to_string(degree), io::CsvWriter::num(kappa),
               io::CsvWriter::num(mean), std::to_string(max_k)});
      max_seen = std::max(max_seen, max_k);
    }
    row.push_back(std::to_string(max_seen));
    table.add_row(std::move(row));
  }

  table.print("\n[Theorem 2] mean Pareto frontier size, " +
              std::to_string(samples) + " kappa-smoothed nets per cell");
  std::printf("\nPaper: E[|frontier|] = O(n^3 * kappa) — growth in every "
              "row (kappa) and column (n) should look polynomial, nowhere "
              "near the adversarial sizes of bench_theorem1.\n"
              "CSV: %s\n",
              bench::out_path("smoothed.csv").c_str());
  return 0;
}
