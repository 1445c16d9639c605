// Table III: the ratio of non-optimal nets for degree <= 9.
//
// A method is non-optimal on a net when its parameter sweep finds NO point
// of the true Pareto frontier.  PatLabor is exact on these degrees (lookup
// table / Pareto-DW), so its row is 0% by construction — the experiment
// verifies that and measures how YSD and SALT degrade with degree.
#include "common.hpp"

int main() {
  using namespace patlabor;
  const std::size_t nets = util::scaled_count(220);
  const lut::LookupTable table = bench::cached_lut(6);
  std::printf("[Table III] running small-degree study (base %zu nets at "
              "degree 4, Table III proportions)...\n",
              nets);
  std::fflush(stdout);
  const auto study = bench::run_small_degree_study(nets, table);

  struct PaperRow {
    const char* ysd;
    const char* salt;
  };
  const PaperRow paper[] = {{"0.0%", "0.0%"},   {"0.3%", "0.9%"},
                            {"7.8%", "11.9%"},  {"23.3%", "24.3%"},
                            {"36.0%", "34.7%"}, {"49.5%", "45.4%"}};

  io::AsciiTable out({"n", "#Net", "PatLabor", "YSD*", "SALT", "paper YSD",
                      "paper SALT"});
  io::CsvWriter csv(bench::out_path("table3.csv"),
                    {"degree", "nets", "patlabor_nonopt", "ysd_nonopt",
                     "salt_nonopt"});
  std::size_t total_nets = 0, total_ysd = 0, total_salt = 0, total_pl = 0;
  for (std::size_t degree = 4; degree <= 9; ++degree) {
    const auto& rp = study.patlabor.rows().at(degree);
    const auto& ry = study.ysd.rows().at(degree);
    const auto& rs = study.salt.rows().at(degree);
    out.add_row({std::to_string(degree), std::to_string(rp.nets),
                 util::percent(study.patlabor.non_optimal_ratio(degree)),
                 util::percent(study.ysd.non_optimal_ratio(degree)),
                 util::percent(study.salt.non_optimal_ratio(degree)),
                 paper[degree - 4].ysd, paper[degree - 4].salt});
    csv.row({std::to_string(degree), std::to_string(rp.nets),
             std::to_string(rp.non_optimal), std::to_string(ry.non_optimal),
             std::to_string(rs.non_optimal)});
    total_nets += rp.nets;
    total_pl += rp.non_optimal;
    total_ysd += ry.non_optimal;
    total_salt += rs.non_optimal;
  }
  out.add_separator();
  auto pct = [&](std::size_t x) {
    return util::percent(static_cast<double>(x) /
                         static_cast<double>(total_nets));
  };
  out.add_row({"Total", std::to_string(total_nets), pct(total_pl),
               pct(total_ysd), pct(total_salt), "8.0%", "8.4%"});

  out.print("\n[Table III] ratio of non-optimal nets, n <= 9");
  std::printf("\n* YSD is the weighted-sum stand-in of DESIGN.md §6 (no "
              "GPU/NN offline).\nExpected shape: PatLabor exactly 0%%; "
              "baselines degrade with degree.\nRuntime: PatLabor %.1fs, "
              "YSD %.1fs, SALT %.1fs.\nCSV: %s\n",
              study.patlabor_seconds, study.ysd_seconds, study.salt_seconds,
              bench::out_path("table3.csv").c_str());
  return 0;
}
