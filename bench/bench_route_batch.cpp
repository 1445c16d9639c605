// Batch-routing throughput: the multi-net serving path (engine::Engine).
//
// Routes one mixed-degree netlist — the shape of a global-router handoff:
// mostly small nets, a tail of high-degree local-search nets — on a
// 1-thread pool and on a PATLABOR_BENCH_JOBS-thread pool (default 4), and
// checks the two frontier sets are bit-identical (the determinism contract
// of src/patlabor/par/).
//
// A fourth pass re-routes with a JSONL event sink attached
// (bench/out/route_batch.events.jsonl) to measure the emission overhead —
// the acceptance bar is <= 3% over the silent run — and the BENCH json
// records total normalized hypervolume alongside the walls, so the perf
// trajectory across PRs carries a quality trajectory too (diff event files
// across checkouts with tools/patlabor_obsdiff).
// With --scaling-sweep the harness instead routes the same netlist at
// jobs in {1,2,4,8} with telemetry on, records per-worker timelines, lock
// waits, steal counts, cache shard skew and per-thread allocation deltas,
// decomposes each wall clock into serial / execute / imbalance / lock-wait
// / residual, and writes BENCH_route_batch_scaling.json for
// tools/patlabor_scaling to fit and gate on (see DESIGN.md §6.2).
// `--scaling-sweep --large` swaps in the 10k-net workload the speedup gate
// is calibrated against (workload "large" in the JSON; the analyzer only
// enforces the speedup bar on that workload, on hosts with >= 4 cores).
#include "common.hpp"

#include <cinttypes>
#include <cstring>
#include <limits>
#include <thread>

#include "alloc_hook.hpp"
#include "patlabor/obs/events.hpp"
#include "patlabor/obs/trace.hpp"

namespace {

using namespace patlabor;

// Mixed workload: degree-degree proportions loosely following Table III
// (small nets dominate), plus local-search nets up to degree 24.
std::vector<geom::Net> make_netlist() {
  std::vector<geom::Net> nets;
  util::Rng rng(41);
  const std::size_t small = util::scaled_count(24);
  const std::size_t large = util::scaled_count(12);
  for (std::size_t i = 0; i < small; ++i)
    nets.push_back(netgen::clustered_net(rng, 4 + i % 6));  // degrees 4..9
  for (std::size_t i = 0; i < large; ++i)
    nets.push_back(netgen::clustered_net(rng, 12 + (i * 4) % 13));
  return nets;
}

// 10k-net workload for the scaling gate: the degree histogram of a
// global-router handoff (~96% table-covered degrees 4..6, ~3% degree-7
// nets that run the numeric Pareto-DW because the cached table stops at
// degree 6, ~1% local-search tail), with roughly a third of the nets
// repeats — translated (same canonical key, exact regime) or verbatim —
// so the frontier cache sees realistic hit traffic under concurrency.
std::vector<geom::Net> make_large_netlist() {
  std::vector<geom::Net> nets;
  util::Rng rng(1337);
  const std::size_t total = util::scaled_count(10000);
  nets.reserve(total);
  while (nets.size() < total) {
    const std::size_t roll = rng.index(100);
    std::size_t degree = 0;
    if (roll < 96)
      degree = 4 + rng.index(3);  // 4..6: LUT-covered exact regime
    else if (roll < 99)
      degree = 7;  // exact regime past the table: numeric DW
    else
      degree = 10 + rng.index(6);  // local-search regime
    nets.push_back(netgen::clustered_net(rng, degree));
    if (nets.size() < total && rng.index(3) == 0) {
      geom::Net copy = nets.back();
      if (rng.index(2) == 0) {
        const auto dx = static_cast<geom::Coord>(rng.uniform_int(-5000, 5000));
        const auto dy = static_cast<geom::Coord>(rng.uniform_int(-5000, 5000));
        for (geom::Point& p : copy.pins) {
          p.x += dx;
          p.y += dy;
        }
      }
      nets.push_back(std::move(copy));
    }
  }
  return nets;
}

/// Raw telemetry + derived decomposition of one sweep point.
struct SweepPoint {
  std::size_t jobs = 0;
  std::uint64_t wall_us = 0;
  std::uint64_t batch_wall_us = 0;
  std::vector<par::WorkerStats> workers;
  par::PoolLockStats pool_lock;
  engine::CacheStats cache;
  unsigned long long allocs = 0;
  std::vector<unsigned long long> thread_allocs;  // per-thread deltas
  // Decomposition (categories sum to wall_us exactly; residual is signed).
  std::uint64_t serial_us = 0;
  std::uint64_t exec_us = 0;
  std::uint64_t imbalance_us = 0;
  std::uint64_t lock_us = 0;
  std::int64_t residual_us = 0;
};

SweepPoint run_sweep_point(std::size_t jobs, const lut::LookupTable& table,
                          const std::vector<geom::Net>& nets,
                          std::vector<engine::RouteResponse>* results_out) {
  engine::EngineOptions eopt;
  eopt.table = &table;
  eopt.lambda = 7;
  eopt.jobs = jobs;
  eopt.cache.enabled = true;  // fresh engine: all misses, shard locks hot
  engine::Engine eng(eopt);

  // The previous point's private pool is gone; reap its dead counter slots
  // so thread_allocs below lists only threads alive in *this* point.
  bench::compact_dead_thread_slots();
  const auto alloc0 = bench::alloc_count();
  const auto threads0 = bench::thread_alloc_counts();
  obs::clear_trace();
  eng.pool()->reset_stats();

  const std::uint64_t t0 = obs::now_us();
  auto results = eng.route_batch(nets);
  const std::uint64_t t1 = obs::now_us();
  if (results.size() != nets.size()) std::abort();
  if (results_out != nullptr) *results_out = std::move(results);

  SweepPoint p;
  p.jobs = jobs;
  p.wall_us = t1 - t0;
  p.batch_wall_us = eng.pool()->batch_wall_us();
  p.workers = eng.pool()->worker_stats();
  p.pool_lock = eng.pool()->lock_stats();
  p.cache = eng.cache_stats();
  p.allocs = bench::alloc_count() - alloc0;
  const auto threads1 = bench::thread_alloc_counts();
  for (std::size_t i = 0; i < threads1.size(); ++i)
    p.thread_allocs.push_back(threads1[i] -
                              (i < threads0.size() ? threads0[i] : 0));

  // Wall-clock decomposition.  Lane busy time is wall time inside task
  // bodies, so cache-shard lock waits (taken inside tasks) are carved out
  // of execute; pool queue-lock waits happen outside task bodies.  The
  // residual absorbs scheduling/wakeup overhead and is the only signed
  // category — everything sums back to wall_us by construction.
  const std::size_t n = p.workers.empty() ? 1 : p.workers.size();
  std::uint64_t busy_sum = 0, busy_max = 0;
  for (const auto& w : p.workers) {
    busy_sum += w.busy_us;
    busy_max = std::max(busy_max, w.busy_us);
  }
  std::uint64_t cache_wait = 0;
  for (const auto& sh : p.cache.shards) cache_wait += sh.lock.wait_us;
  const std::uint64_t busy_mean = busy_sum / n;
  const std::uint64_t cache_wait_mean = cache_wait / n;
  const std::uint64_t lock_mean = (cache_wait + p.pool_lock.wait_us) / n;
  p.serial_us = p.wall_us > p.batch_wall_us ? p.wall_us - p.batch_wall_us : 0;
  p.exec_us = busy_mean > cache_wait_mean ? busy_mean - cache_wait_mean : 0;
  p.imbalance_us = busy_max - busy_mean;
  p.lock_us = lock_mean;
  p.residual_us = static_cast<std::int64_t>(p.wall_us) -
                  static_cast<std::int64_t>(p.serial_us + p.exec_us +
                                            p.imbalance_us + p.lock_us);
  return p;
}

int run_scaling_sweep(bool large) {
  if (!obs::compiled_in()) {
    std::printf("scaling sweep needs a PATLABOR_OBS=ON build; skipping\n");
    return 0;
  }
  obs::set_enabled(true);
  const lut::LookupTable table = bench::cached_lut(6);
  const std::vector<geom::Net> nets =
      large ? make_large_netlist() : make_netlist();
  const char* workload = large ? "large" : "smoke";
  const unsigned host_cores = std::thread::hardware_concurrency();

  // Instrumentation overhead at jobs=1.  One untimed pass primes the
  // allocator, the LUT cache and the page tables, then the two switch
  // states are timed *interleaved* (one off + one on per round, best of
  // three rounds) so clock drift and cache warmth hit both sides equally
  // — timing all the off passes first systematically inflates the colder
  // side and used to report negative overhead.
  auto timed_run = [&](bool obs_on) {
    obs::set_enabled(obs_on);
    if (obs_on) obs::clear_trace();  // the "on" side records spans too
    engine::EngineOptions eopt;
    eopt.table = &table;
    eopt.lambda = 7;
    eopt.jobs = 1;
    eopt.cache.enabled = true;
    engine::Engine eng(eopt);
    const std::uint64_t t0 = obs::now_us();
    auto r = eng.route_batch(nets);
    const std::uint64_t t1 = obs::now_us();
    if (r.size() != nets.size()) std::abort();
    return t1 - t0;
  };
  (void)timed_run(false);  // warm-up, untimed
  std::uint64_t off_us = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t on_us = std::numeric_limits<std::uint64_t>::max();
  for (int round = 0; round < 3; ++round) {
    off_us = std::min(off_us, timed_run(false));
    on_us = std::min(on_us, timed_run(true));
  }
  const double overhead_pct =
      static_cast<double>(on_us) / static_cast<double>(off_us) * 100.0 -
      100.0;
  obs::set_enabled(true);

  const std::size_t jobs_list[] = {1, 2, 4, 8};
  std::vector<SweepPoint> points;
  std::vector<engine::RouteResponse> golden;  // jobs=1 results
  bool identical = true;
  for (const std::size_t j : jobs_list) {
    std::vector<engine::RouteResponse> results;
    points.push_back(run_sweep_point(j, table, nets, &results));
    if (j == 1) {
      golden = std::move(results);
    } else {
      // The determinism contract holds inside the sweep too: stealing,
      // sharding and cache hits must not perturb a single frontier.
      bool same = results.size() == golden.size();
      for (std::size_t i = 0; same && i < results.size(); ++i)
        same = results[i].frontier == golden[i].frontier &&
               results[i].iterations == golden[i].iterations;
      if (!same) {
        std::printf("DETERMINISM VIOLATION at jobs=%zu\n", j);
        identical = false;
      }
    }
    if (j == 4)  // one per-worker-lane trace as a browsable artifact
      obs::write_trace_json(
          bench::out_path("route_batch_scaling.trace.json"),
          obs::drain_trace());
  }

  io::AsciiTable out({"Jobs", "Wall", "Serial", "Exec", "Imbal", "Lock",
                      "Residual", "Steals", "Speedup"});
  const double base = static_cast<double>(points.front().wall_us);
  const auto signed_dur = [](std::int64_t us) {
    const std::string s = util::format_duration(std::abs(us) * 1e-6);
    return us < 0 ? "-" + s : s;
  };
  for (const SweepPoint& p : points) {
    std::uint64_t steals = 0;
    for (const auto& w : p.workers) steals += w.steals;
    out.add_row({std::to_string(p.jobs),
                 util::format_duration(p.wall_us * 1e-6),
                 util::format_duration(p.serial_us * 1e-6),
                 util::format_duration(p.exec_us * 1e-6),
                 util::format_duration(p.imbalance_us * 1e-6),
                 util::format_duration(p.lock_us * 1e-6),
                 signed_dur(p.residual_us), std::to_string(steals),
                 util::fixed(base / static_cast<double>(p.wall_us), 2)});
  }
  out.print("\nScaling sweep (" + std::to_string(nets.size()) + " nets [" +
            workload + "], cache on, telemetry on, " +
            std::to_string(host_cores) + " host cores)");
  std::printf("Instrumentation overhead at jobs=1: %+.2f%% "
              "(obs on %s vs off %s)\n",
              overhead_pct, util::format_duration(on_us * 1e-6).c_str(),
              util::format_duration(off_us * 1e-6).c_str());

  const std::string path = bench::out_path("BENCH_route_batch_scaling.json");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::printf("[bench] cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"route_batch_scaling\",\n"
               "  \"workload\": \"%s\",\n  \"host_cores\": %u,\n"
               "  \"net_count\": %zu,\n  \"obs_overhead_pct\": %.4f,\n"
               "  \"identical_across_jobs\": %s,\n"
               "  \"sweep\": [",
               workload, host_cores, nets.size(), overhead_pct,
               identical ? "true" : "false");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(f,
                 "%s\n    {\"jobs\": %zu, \"wall_us\": %" PRIu64
                 ", \"batch_wall_us\": %" PRIu64 ",\n     \"workers\": [",
                 i == 0 ? "" : ",", p.jobs, p.wall_us, p.batch_wall_us);
    for (std::size_t w = 0; w < p.workers.size(); ++w)
      std::fprintf(f,
                   "%s{\"tasks\": %" PRIu64 ", \"busy_us\": %" PRIu64
                   ", \"queue_wait_us\": %" PRIu64 ", \"steals\": %" PRIu64
                   ", \"stolen_tasks\": %" PRIu64 "}",
                   w == 0 ? "" : ", ", p.workers[w].tasks,
                   p.workers[w].busy_us, p.workers[w].queue_wait_us,
                   p.workers[w].steals, p.workers[w].stolen_tasks);
    std::fprintf(f,
                 "],\n     \"pool_lock\": {\"acquisitions\": %" PRIu64
                 ", \"contentions\": %" PRIu64 ", \"wait_us\": %" PRIu64
                 "},\n     \"cache\": {\"hits\": %" PRIu64
                 ", \"misses\": %" PRIu64 ", \"entries\": %zu, "
                 "\"shards\": [",
                 p.pool_lock.acquisitions, p.pool_lock.contentions,
                 p.pool_lock.wait_us, p.cache.hits, p.cache.misses,
                 p.cache.entries);
    for (std::size_t s = 0; s < p.cache.shards.size(); ++s) {
      const engine::ShardStats& sh = p.cache.shards[s];
      std::fprintf(f,
                   "%s{\"entries\": %zu, \"hits\": %" PRIu64
                   ", \"misses\": %" PRIu64 ", \"lock_wait_us\": %" PRIu64
                   ", \"lock_contentions\": %" PRIu64 "}",
                   s == 0 ? "" : ", ", sh.entries, sh.hits, sh.misses,
                   sh.lock.wait_us, sh.lock.contentions);
    }
    std::fprintf(f, "]},\n     \"allocs\": %llu, \"thread_allocs\": [",
                 p.allocs);
    for (std::size_t t = 0; t < p.thread_allocs.size(); ++t)
      std::fprintf(f, "%s%llu", t == 0 ? "" : ", ", p.thread_allocs[t]);
    std::fprintf(f,
                 "],\n     \"decomposition\": {\"serial_us\": %" PRIu64
                 ", \"exec_us\": %" PRIu64 ", \"imbalance_us\": %" PRIu64
                 ", \"lock_us\": %" PRIu64 ", \"residual_us\": %" PRId64
                 "}}",
                 p.serial_us, p.exec_us, p.imbalance_us, p.lock_us,
                 p.residual_us);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("Scaling JSON: %s\n", path.c_str());
  std::printf("Outputs bit-identical across jobs 1/2/4/8: %s\n",
              identical ? "yes" : "NO — DETERMINISM VIOLATION");
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--scaling-sweep") == 0) {
    const bool large =
        argc > 2 && std::strcmp(argv[2], "--large") == 0;
    return run_scaling_sweep(large);
  }
  const auto bench_jobs = static_cast<std::size_t>(
      std::max(1, bench::env_int("PATLABOR_BENCH_JOBS", 4)));
  const std::size_t lambda = 7;  // subnets hit the cached degree-6 table

  const lut::LookupTable table = bench::cached_lut(6);

  std::vector<geom::Net> nets = make_netlist();

  auto route_all = [&](std::size_t jobs, obs::EventSink* events) {
    engine::EngineOptions eopt;
    eopt.table = &table;
    eopt.lambda = lambda;
    eopt.jobs = jobs;
    eopt.cache.enabled = false;  // measure routing, not replay
    eopt.events = events;
    engine::Engine eng(eopt);
    util::Timer timer;
    auto results = eng.route_batch(nets);
    return std::make_pair(std::move(results), timer.seconds());
  };

  auto [seq, secs1] = route_all(1, nullptr);
  auto [par_r, secsN] = route_all(bench_jobs, nullptr);
  // Second N-thread pass: run-to-run stability, not just 1-vs-N.
  auto [par2, secsN2] = route_all(bench_jobs, nullptr);

  // Events passes: same pool size, sink attached.  Best-of-two on both
  // sides — at the default scale a single pass is tens of milliseconds, so
  // scheduling noise would otherwise dwarf the emission cost under test.
  const std::string events_path = bench::out_path("route_batch.events.jsonl");
  double secs_ev = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    obs::EventSink sink(events_path);
    obs::RunManifest manifest;
    manifest.tool = "bench_route_batch";
    manifest.method = "patlabor";
    manifest.input = "netgen(seed=41)";
    manifest.lambda = lambda;
    manifest.jobs = bench_jobs;
    manifest.seed = 41;
    sink.write_manifest(manifest);
    auto [ev_r, s] = route_all(bench_jobs, &sink);
    secs_ev = pass == 0 ? s : std::min(secs_ev, s);
    if (ev_r.size() != seq.size()) return 1;
  }
  const double silent = std::min(secsN, secsN2);
  const double overhead_pct = secs_ev / silent * 100.0 - 100.0;

  bool identical = seq.size() == par_r.size() && par_r.size() == par2.size();
  std::size_t points = 0;
  double total_hv = 0.0;
  for (std::size_t i = 0; identical && i < seq.size(); ++i) {
    identical = seq[i].frontier == par_r[i].frontier &&
                seq[i].frontier == par2[i].frontier &&
                seq[i].iterations == par_r[i].iterations;
    points += seq[i].frontier.size();
    total_hv += eval::net_hypervolume(seq[i].frontier, nets[i]);
  }

  const double speedup = secs1 / secsN;
  io::AsciiTable out({"Jobs", "Nets", "Frontier pts", "Wall", "Nets/s",
                      "Speedup"});
  out.add_row({"1", std::to_string(nets.size()), std::to_string(points),
               util::format_duration(secs1),
               util::fixed(static_cast<double>(nets.size()) / secs1, 2),
               "1.00"});
  out.add_row({std::to_string(bench_jobs), std::to_string(nets.size()),
               std::to_string(points), util::format_duration(secsN),
               util::fixed(static_cast<double>(nets.size()) / secsN, 2),
               util::fixed(speedup, 2)});
  out.print("\nBatch routing throughput (engine::Engine, lambda=" +
            std::to_string(lambda) + ")");
  std::printf("\nOutputs bit-identical across jobs 1/%zu/%zu(rerun): %s\n",
              bench_jobs, bench_jobs,
              identical ? "yes" : "NO — DETERMINISM VIOLATION");
  std::printf("Total normalized hypervolume: %.6f over %zu nets\n", total_hv,
              nets.size());
  std::printf("Event emission: %s in %s (%+.2f%% vs silent %s)\n",
              events_path.c_str(), util::format_duration(secs_ev).c_str(),
              overhead_pct, util::format_duration(silent).c_str());

  io::CsvWriter csv(bench::out_path("route_batch.csv"),
                    {"jobs", "nets", "frontier_points", "seconds",
                     "nets_per_sec"});
  csv.row({"1", std::to_string(nets.size()), std::to_string(points),
           io::CsvWriter::num(secs1),
           io::CsvWriter::num(static_cast<double>(nets.size()) / secs1)});
  csv.row({std::to_string(bench_jobs), std::to_string(nets.size()),
           std::to_string(points), io::CsvWriter::num(secsN),
           io::CsvWriter::num(static_cast<double>(nets.size()) / secsN)});

  bench::BenchJsonWriter json("route_batch");
  json.add_run("jobs1", 1, secs1, nets.size(), {{"total_hv", total_hv}});
  json.add_run("jobs" + std::to_string(bench_jobs), bench_jobs, secsN,
               nets.size(), {{"speedup", speedup}, {"total_hv", total_hv}});
  json.add_run("jobs" + std::to_string(bench_jobs) + "_rerun", bench_jobs,
               secsN2, nets.size());
  json.add_run("jobs" + std::to_string(bench_jobs) + "_events", bench_jobs,
               secs_ev, nets.size(),
               {{"events_overhead_pct", overhead_pct},
                {"total_hv", total_hv}});
  json.write();
  bench::emit_obs_report("route_batch");
  return identical ? 0 : 1;
}
