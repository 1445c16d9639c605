// Figure 6: maximum Pareto frontier size vs. net degree on ICCAD-15-like
// nets, with the linear fit the paper reports (y = 2.85x - 10.9, max 16 at
// degree 9 over 1.3M nets; our sample is REPRO_SCALE-scaled, so maxima are
// commensurately smaller but the near-linear growth reproduces).
#include "common.hpp"

int main() {
  using namespace patlabor;
  util::Rng rng(42);
  const std::size_t nets_per_degree = util::scaled_count(1500);

  eval::FrontierSizeStats stats;
  dw::ParetoDwOptions opts;
  opts.want_trees = false;

  const lut::LookupTable table = bench::cached_lut(6);
  for (std::size_t degree = 4; degree <= 9; ++degree) {
    for (std::size_t i = 0; i < nets_per_degree; ++i) {
      const geom::Net net = netgen::clustered_net(rng, degree);
      const std::size_t f = table.covers(degree)
                                ? table.query(net).frontier.size()
                                : dw::pareto_dw(net, opts).frontier.size();
      stats.add(degree, f);
    }
  }

  std::vector<double> xs, ys;
  io::AsciiTable out({"Degree", "Max |frontier|", "Mean", "Paper fit"});
  io::CsvWriter csv(bench::out_path("frontier_size.csv"),
                    {"degree", "max_frontier", "mean_frontier"});
  for (std::size_t degree = 4; degree <= 9; ++degree) {
    const auto mx = stats.max_by_degree().at(degree);
    xs.push_back(static_cast<double>(degree));
    ys.push_back(static_cast<double>(mx));
    out.add_row({std::to_string(degree), std::to_string(mx),
                 util::fixed(stats.mean(degree), 2),
                 util::fixed(2.85 * static_cast<double>(degree) - 10.9, 1)});
    csv.row({std::to_string(degree), std::to_string(mx),
             io::CsvWriter::num(stats.mean(degree))});
  }
  const auto fit = eval::fit_line(xs, ys);

  out.print("\n[Figure 6] max frontier size over " +
            std::to_string(nets_per_degree) + " ICCAD-like nets per degree");
  std::printf("\nLinear fit: y = %.2f x %+.1f   (paper: y = 2.85x - 10.9 on "
              "1.3M nets; slope shape is the claim, absolute maxima scale "
              "with sample size)\nCSV: %s\n",
              fit.slope, fit.intercept,
              bench::out_path("frontier_size.csv").c_str());
  return 0;
}
