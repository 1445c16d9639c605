// Frontier-cache effectiveness: the engine serving path on a netlist with
// repeated canonical shapes (the global-router situation: standard-cell
// pin patterns recur across the die under translation and mirroring).
//
// Three measured passes over the same netlist:
//   cold    — fresh engine, cache on: every canonical shape computed once,
//             repeats within the list already served from the cache,
//   warm    — same engine again: everything served from the cache,
//   nocache — cache disabled: every net computed.
// All three must be bit-identical (frontiers, tree structural hashes,
// iteration counts) — the bench exits 1 on any divergence.
#include "common.hpp"

#include "patlabor/geom/canonical.hpp"

int main() {
  using namespace patlabor;
  const auto bench_jobs = static_cast<std::size_t>(
      std::max(1, bench::env_int("PATLABOR_BENCH_JOBS", 1)));
  const std::size_t lambda = 7;  // subnets hit the cached degree-6 table

  const lut::LookupTable table = bench::cached_lut(6);

  // Netlist: small exact-regime nets each repeated under 3 random
  // isometries, plus local-search nets each appearing twice verbatim.
  // Well over half the list repeats an already-seen canonical shape.
  std::vector<geom::Net> nets;
  util::Rng rng(59);
  const std::size_t small = util::scaled_count(16);
  const std::size_t large = util::scaled_count(6);
  for (std::size_t i = 0; i < small; ++i) {
    const geom::Net base = netgen::clustered_net(rng, 4 + i % 3);
    nets.push_back(base);
    for (int copy = 0; copy < 3; ++copy) {
      geom::Isometry iso = geom::symmetry(static_cast<int>(rng.index(8)));
      iso.t = geom::Point{rng.uniform_int(-50000, 50000),
                          rng.uniform_int(-50000, 50000)};
      geom::Net moved;
      moved.name = base.name;
      for (const geom::Point& p : base.pins) moved.pins.push_back(iso.apply(p));
      nets.push_back(std::move(moved));
    }
  }
  for (std::size_t i = 0; i < large; ++i) {
    const geom::Net base = netgen::clustered_net(rng, 12 + (i * 3) % 9);
    nets.push_back(base);
    nets.push_back(base);  // literal repeat: the local-search cache key
  }
  rng.shuffle(nets);

  engine::EngineOptions on_opt;
  on_opt.table = &table;
  on_opt.lambda = lambda;
  on_opt.jobs = bench_jobs;
  on_opt.cache.enabled = true;
  const engine::Engine cached(on_opt);

  engine::EngineOptions off_opt = on_opt;
  off_opt.cache.enabled = false;
  const engine::Engine uncached(off_opt);

  const auto measure = [&](const engine::Engine& eng) {
    util::Timer timer;
    auto results = eng.route_batch(nets);
    return std::make_pair(std::move(results), timer.seconds());
  };

  auto [cold, cold_s] = measure(cached);
  const engine::CacheStats cold_stats = cached.cache_stats();
  auto [warm, warm_s] = measure(cached);
  const engine::CacheStats warm_stats = cached.cache_stats();
  auto [off, off_s] = measure(uncached);

  bool identical =
      cold.size() == warm.size() && warm.size() == off.size();
  for (std::size_t i = 0; identical && i < cold.size(); ++i) {
    identical = cold[i].frontier == warm[i].frontier &&
                cold[i].frontier == off[i].frontier &&
                cold[i].iterations == off[i].iterations &&
                cold[i].trees.size() == off[i].trees.size();
    for (std::size_t t = 0; identical && t < cold[i].trees.size(); ++t)
      identical = cold[i].trees[t].structural_hash() ==
                      warm[i].trees[t].structural_hash() &&
                  cold[i].trees[t].structural_hash() ==
                      off[i].trees[t].structural_hash();
  }

  const auto rate = [&](const engine::CacheStats& s) {
    const std::uint64_t total = s.hits + s.misses;
    return total == 0 ? 0.0 : static_cast<double>(s.hits) /
                                  static_cast<double>(total);
  };
  const double cold_hit_rate = rate(cold_stats);
  const double warm_hit_rate =
      warm_stats.hits + warm_stats.misses == cold_stats.hits + cold_stats.misses
          ? 0.0
          : static_cast<double>(warm_stats.hits - cold_stats.hits) /
                static_cast<double>(warm_stats.hits + warm_stats.misses -
                                    cold_stats.hits - cold_stats.misses);
  const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;

  io::AsciiTable out({"Pass", "Nets", "Wall", "Nets/s", "Hit rate"});
  const auto row = [&](const char* label, double secs, double hit_rate) {
    out.add_row({label, std::to_string(nets.size()),
                 util::format_duration(secs),
                 util::fixed(static_cast<double>(nets.size()) / secs, 2),
                 util::fixed(100.0 * hit_rate, 1) + "%"});
  };
  row("cold (cache on)", cold_s, cold_hit_rate);
  row("warm (cache on)", warm_s, warm_hit_rate);
  row("cache off", off_s, 0.0);
  out.print("\nEngine frontier cache (lambda=" + std::to_string(lambda) +
            ", jobs=" + std::to_string(bench_jobs) + ")");
  std::printf("\nwarm-over-cold speedup: %.2fx   cache entries: %zu   "
              "evictions: %llu\n",
              speedup, warm_stats.entries,
              static_cast<unsigned long long>(warm_stats.evictions));
  std::printf("cold/warm/nocache bit-identical: %s\n",
              identical ? "yes" : "NO — DETERMINISM VIOLATION");

  io::CsvWriter csv(bench::out_path("engine_cache.csv"),
                    {"pass", "nets", "seconds", "hit_rate"});
  csv.row({"cold", std::to_string(nets.size()), io::CsvWriter::num(cold_s),
           io::CsvWriter::num(cold_hit_rate)});
  csv.row({"warm", std::to_string(nets.size()), io::CsvWriter::num(warm_s),
           io::CsvWriter::num(warm_hit_rate)});
  csv.row({"nocache", std::to_string(nets.size()), io::CsvWriter::num(off_s),
           io::CsvWriter::num(0.0)});

  bench::BenchJsonWriter json("engine_cache");
  json.add_run("cold", bench_jobs, cold_s, nets.size(),
               {{"hit_rate", cold_hit_rate}});
  json.add_run("warm", bench_jobs, warm_s, nets.size(),
               {{"hit_rate", warm_hit_rate}, {"speedup_over_cold", speedup}});
  json.add_run("nocache", bench_jobs, off_s, nets.size());
  json.write();
  bench::emit_obs_report("engine_cache");
  return identical ? 0 : 1;
}
