// Section VI-B speed claim: topology generation throughput.
//
// The paper compares its generator (1.7e8 topologies in 49.9 CPU-hours,
// i.e. ~946 topologies/s/core) against FLUTE's reported table generation
// (4.5e5 topologies in 58.2 h, ~2.1 topologies/s) and concludes ~441x.
// FLUTE's generator is not available offline, so we measure OUR per-core
// throughput and report the ratio against FLUTE's published rate — the
// same cross-paper comparison the authors make.
//
// Each degree is generated twice — on a 1-thread pool and on a
// PATLABOR_BENCH_JOBS-thread pool (default 4) — to measure the parallel
// LUT-generation speedup; the two tables must hash identically (the
// determinism contract of src/patlabor/par/).
//
// The 1-job run also counts heap allocations (alloc_hook.hpp) and reports
// allocs-per-topology plus peak RSS.  The arena-backed DP is held to a
// regression bar: allocs/topology must stay below
// PATLABOR_MAX_ALLOCS_PER_TOPO (default 600 — the pre-arena storage ran at
// ~2300-5800, the arena refactor at ~40-150).
#include "alloc_hook.hpp"
#include "common.hpp"

int main() {
  using namespace patlabor;
  const int max_degree =
      std::min(7, std::max(5, bench::env_int("PATLABOR_SPEED_MAXDEG", 6)));
  const auto bench_jobs = static_cast<std::size_t>(
      std::max(1, bench::env_int("PATLABOR_BENCH_JOBS", 4)));
  const double max_allocs_per_topo =
      bench::env_int("PATLABOR_MAX_ALLOCS_PER_TOPO", 600);

  io::AsciiTable table({"Degree", "Topologies", "T(1 job)",
                        "T(" + std::to_string(bench_jobs) + " jobs)",
                        "Speedup", "Topo/s", "x FLUTE rate", "Allocs/topo"});
  io::CsvWriter csv(bench::out_path("lutgen_speed.csv"),
                    {"degree", "topologies", "seconds", "topo_per_sec",
                     "seconds_par", "jobs", "speedup", "dp_allocs",
                     "allocs_per_topo", "peak_rss_kb"});
  bench::BenchJsonWriter json("lutgen_speed");

  constexpr double kFluteRate = 4.5e5 / (58.2 * 3600.0);  // topologies/s

  par::ThreadPool pool1(1);
  par::ThreadPool poolN(bench_jobs);

  double total_topos = 0, total_time1 = 0, total_timeN = 0;
  bool deterministic = true;
  bool alloc_bar_ok = true;
  for (int degree = 5; degree <= max_degree; ++degree) {
    lut::LookupTable seq;
    const unsigned long long allocs0 = bench::alloc_count();
    util::Timer t1;
    seq.generate_degree(degree, {}, &pool1);
    const double secs1 = t1.seconds();
    const auto dp_allocs =
        static_cast<double>(bench::alloc_count() - allocs0);

    lut::LookupTable par_lut;
    util::Timer tn;
    par_lut.generate_degree(degree, {}, &poolN);
    const double secsN = tn.seconds();

    deterministic &= seq.content_hash() == par_lut.content_hash();

    const auto& st = seq.stats().at(degree);
    const double rate = static_cast<double>(st.topologies) / secs1;
    const double speedup = secs1 / secsN;
    const double allocs_per_topo =
        st.topologies > 0 ? dp_allocs / static_cast<double>(st.topologies)
                          : 0.0;
    const auto rss_kb = static_cast<double>(bench::peak_rss_kb());
    if (allocs_per_topo > max_allocs_per_topo) alloc_bar_ok = false;
    table.add_row({std::to_string(degree),
                   util::with_commas(static_cast<std::int64_t>(st.topologies)),
                   util::format_duration(secs1),
                   util::format_duration(secsN), util::fixed(speedup, 2),
                   util::fixed(rate, 1), util::fixed(rate / kFluteRate, 0),
                   util::fixed(allocs_per_topo, 1)});
    csv.row({std::to_string(degree), std::to_string(st.topologies),
             io::CsvWriter::num(secs1), io::CsvWriter::num(rate),
             io::CsvWriter::num(secsN),
             std::to_string(bench_jobs), io::CsvWriter::num(speedup),
             io::CsvWriter::num(dp_allocs),
             io::CsvWriter::num(allocs_per_topo),
             io::CsvWriter::num(rss_kb)});
    json.add_run("deg" + std::to_string(degree) + "_jobs1", 1, secs1, 0,
                 {{"degree", degree}, {"topologies",
                   static_cast<double>(st.topologies)},
                  {"dp_allocs", dp_allocs},
                  {"allocs_per_topo", allocs_per_topo},
                  {"peak_rss_kb", rss_kb}});
    json.add_run("deg" + std::to_string(degree) + "_jobs" +
                     std::to_string(bench_jobs),
                 bench_jobs, secsN, 0,
                 {{"degree", degree}, {"speedup", speedup}});
    total_topos += static_cast<double>(st.topologies);
    total_time1 += secs1;
    total_timeN += secsN;
  }
  table.add_separator();
  const double rate = total_topos / total_time1;
  table.add_row({"Total", util::with_commas(
                     static_cast<std::int64_t>(total_topos)),
                 util::format_duration(total_time1),
                 util::format_duration(total_timeN),
                 util::fixed(total_time1 / total_timeN, 2),
                 util::fixed(rate, 1), util::fixed(rate / kFluteRate, 0),
                 ""});

  table.print("\n[Sec VI-B] lookup-table generation throughput (1 thread "
              "vs " + std::to_string(bench_jobs) +
              ") vs FLUTE's published 2.1 topologies/s");
  std::printf("\nTables bit-identical across thread counts: %s\n",
              deterministic ? "yes" : "NO — DETERMINISM VIOLATION");
  std::printf("Allocation bar (<= %.0f allocs/topology, 1-job DP): %s\n",
              max_allocs_per_topo,
              alloc_bar_ok ? "ok" : "EXCEEDED — ALLOCATION REGRESSION");
  std::printf("Peak RSS: %ld KiB\n", bench::peak_rss_kb());
  std::printf("Paper claims ~441x per-topology speedup over FLUTE "
              "(its own table is richer per entry: source-dependent, "
              "bi-objective).\nCSV: %s\n",
              bench::out_path("lutgen_speed.csv").c_str());
  json.write();
  return deterministic && alloc_bar_ok ? 0 : 1;
}
