// Ablation: the pruning lemmas of Section V-A.
//
// Part 1 — lookup-table generation at degree 5 with each technique
// disabled in turn: Lemma 1 (exact LP pruning), Lemma 2 (corner nodes),
// Lemma 3 (bounding boxes), Lemma 4 (boundary arcs).  Reported: time,
// stored topologies, LP calls.  Correctness is identical by construction
// (tests assert it); only cost changes.
//
// Part 2 — numeric Pareto-DW on degree-8 nets with Lemmas 2/3 toggled.
#include "common.hpp"

int main() {
  using namespace patlabor;
  const int degree = std::min(6, std::max(4, bench::env_int(
                                                 "PATLABOR_ABL_DEG", 5)));

  struct Variant {
    const char* name;
    lut::ParamDwOptions opts;
  };
  std::vector<Variant> variants;
  variants.push_back({"all lemmas on", {}});
  {
    lut::ParamDwOptions o;
    o.exact_pruning = false;
    variants.push_back({"no Lemma 1 (LP off)", o});
  }
  {
    lut::ParamDwOptions o;
    o.corner_pruning = false;
    variants.push_back({"no Lemma 2 (corners)", o});
  }
  {
    lut::ParamDwOptions o;
    o.bbox_restriction = false;
    variants.push_back({"no Lemma 3 (bbox)", o});
  }
  {
    lut::ParamDwOptions o;
    o.boundary_arcs = false;
    variants.push_back({"no Lemma 4 (arcs)", o});
  }

  io::AsciiTable table({"Variant", "Time", "Stored topos", "DP solutions",
                        "LP calls"});
  io::CsvWriter csv(bench::out_path("ablation_pruning.csv"),
                    {"variant", "seconds", "topologies", "dp_solutions",
                     "lp_calls"});
  for (const Variant& v : variants) {
    lut::LookupTable lut;
    util::Timer timer;
    lut.generate_degree(degree, v.opts);
    const double secs = timer.seconds();
    const auto& st = lut.stats().at(degree);
    table.add_row({v.name, util::format_duration(secs),
                   util::with_commas(static_cast<std::int64_t>(st.topologies)),
                   util::with_commas(
                       static_cast<std::int64_t>(st.dp_solutions)),
                   util::with_commas(st.lp_calls)});
    csv.row({v.name, io::CsvWriter::num(secs),
             std::to_string(st.topologies), std::to_string(st.dp_solutions),
             std::to_string(st.lp_calls)});
  }
  table.print("\n[Ablation] LUT generation at degree " +
              std::to_string(degree) + " with pruning lemmas toggled");

  // Part 2: numeric DW pruning.
  util::Rng rng(77);
  io::AsciiTable dwt({"Pareto-DW variant", "ms/net (degree 8)"});
  for (const bool corner : {true, false}) {
    for (const bool bbox : {true, false}) {
      dw::ParetoDwOptions o;
      o.corner_pruning = corner;
      o.bbox_restriction = bbox;
      o.want_trees = false;
      util::Rng local(99);
      util::Timer timer;
      const std::size_t reps = util::scaled_count(40);
      for (std::size_t i = 0; i < reps; ++i)
        dw::pareto_dw(netgen::clustered_net(local, 8), o);
      dwt.add_row({std::string("corner=") + (corner ? "on" : "off") +
                       " bbox=" + (bbox ? "on" : "off"),
                   util::fixed(timer.millis() / static_cast<double>(reps),
                               2)});
    }
  }
  dwt.print("\n[Ablation] numeric Pareto-DW cost, Lemmas 2/3");
  std::printf("\nExpected: every lemma strictly reduces time and/or table "
              "size; results are provably identical (see "
              "tests/test_lut.cpp, tests/test_dw.cpp).\n"
              "CSV: %s\n",
              bench::out_path("ablation_pruning.csv").c_str());
  return 0;
}
