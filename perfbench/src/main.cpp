// perfbench: runs one workload of the repository benchmark in this process
// and prints its metrics (see perfbench/README.md for every definition).
//
//   perfbench --workload handoff|deep|serve --seed N --seconds S
//             --trace 0|1 --table PATH --scratch DIR
//   perfbench --make-table PATH
//
// Untraced runs (--trace 0) report the end-to-end metrics.  Traced runs
// (--trace 1) spend half the time on the same untraced measurement and half
// on a traced one — the obs runtime on, allocation counting on, per-call
// timers around the benchmark's own calls into each layer — and report the
// per-layer metrics plus the difference between the halves as
// trace.overhead_pct.
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "patlabor/core/patlabor.hpp"
#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/engine/engine.hpp"
#include "patlabor/eval/metrics.hpp"
#include "patlabor/geom/canonical.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/obs/stats.hpp"
#include "patlabor/par/pool.hpp"
#include "patlabor/serve/client.hpp"
#include "patlabor/serve/server.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace patlabor;
using perfbench::Clock;
using perfbench::Report;
using perfbench::seconds_between;

/// Content hash of the degree-6 table at λ = 9 with default generation
/// options: the check of every generated table and of the attached one.
constexpr std::uint64_t kTableHash = 0x1aabbb2b4012047cULL;
constexpr int kTableDegree = 6;
/// handoff cycles through four netlists of 25k nets, 100k per cycle: a
/// batch is short enough that a run holds a few dozen of them.
constexpr std::size_t kHandoffNets = 25000;
constexpr std::uint64_t kHandoffLists = 4;
constexpr std::size_t kDeepExact = 180;  // degree 7..9
constexpr std::size_t kDeepLocal = 180;  // degree 10..24
/// deep cycles through this many netlists: a net's cost is heavy-tailed,
/// so one list's total work would swing with the seed.
constexpr std::uint64_t kDeepLists = 4;
/// Routing set-ups (table open + engine and pool construction) are sampled
/// this many at a time: once before the first batch and again after every
/// timed batch, so their median spans the run, not its first instant.
constexpr int kSetupsPerRound = 5;
/// serve: fixed absolute offered rates (requests/s) and the p99 limit that
/// defines max_rps.  Never derived from a capacity measured in the run.
constexpr double kLowRate = 200.0;
constexpr double kHighRate = 500.0;
constexpr double kLadder[] = {400, 450,  510,  580,  650,  740,  830,  940,
                              1060, 1200, 1350, 1530, 1730, 1950, 2200, 2500};
constexpr double kP99LimitMs = 300.0;
/// Extra readings of each rung that brackets max_rps (three in all).
constexpr int kBracketRepeats = 2;
/// Serve set-ups sampled before the first phase; one more follows each
/// phase, so the median spans the run.
constexpr int kServeSetups = 4;
/// The high rate runs as this many slices spread over the run (each of at
/// least 1000 requests, so ten samples lie beyond its p99).
constexpr int kHighSlices = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string table;
  std::string scratch = ".";
};

std::size_t bench_jobs() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, hc == 0 ? 1 : hc);
}

double ms(double s) { return s * 1e3; }
double us_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e6;
}

/// Host capacity calibration: `lanes` threads each run a fixed integer
/// kernel; the wall of the slowest shows how much CPU the host gives.
double spin_calibration_ms(std::size_t lanes) {
  std::atomic<std::uint64_t> sink{0};  // keeps the kernel's result observable
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t l = 0; l < lanes; ++l)
    threads.emplace_back([&sink, l] {
      std::uint64_t x = 88172645463325252ULL + l;
      for (int i = 0; i < 20000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink.fetch_xor(x, std::memory_order_relaxed);
    });
  for (auto& t : threads) t.join();
  return ms(seconds_between(t0, Clock::now()));
}

// ---- output checks ---------------------------------------------------------

/// Every tree validates, spans the net's pins in order and evaluates to its
/// frontier point; the frontier is non-empty.
bool response_ok(const geom::Net& net, const pareto::SolutionSet& frontier,
                 const std::vector<tree::RoutingTree>& trees) {
  if (frontier.empty() || trees.size() != frontier.size()) return false;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    const tree::RoutingTree& t = trees[i];
    if (!t.validate().empty() || t.num_pins() != net.degree()) return false;
    for (std::size_t p = 0; p < net.degree(); ++p)
      if (!(t.node(p) == net.pins[p])) return false;
    if (!(t.objective() == frontier[i])) return false;
  }
  return true;
}

bool same_frontier(const pareto::SolutionSet& a, const pareto::SolutionSet& b) {
  const auto x = a.objectives();
  const auto y = b.objectives();
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

std::uint64_t frontier_digest(const std::vector<engine::RouteResponse>& rs) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& r : rs) {
    mix(r.frontier.size());
    for (const auto& o : r.frontier) {
      mix(static_cast<std::uint64_t>(o.w));
      mix(static_cast<std::uint64_t>(o.d));
    }
    for (const auto& t : r.trees) mix(t.structural_hash());
  }
  return h;
}

// ---- routing set-up --------------------------------------------------------

struct Routing {
  std::unique_ptr<lut::LookupTable> table;
  std::unique_ptr<engine::Engine> engine;
};

/// Timed set-ups: seconds to ready, and the table open within each.
struct SetupTimes {
  std::vector<double> setup_s, open_ms;
};

/// Opens the table and builds the engine (and its pool), timing both.
Routing set_up_routing(const Args& a, std::size_t jobs, SetupTimes& times) {
  Routing r;
  const auto t0 = Clock::now();
  r.table = std::make_unique<lut::LookupTable>(lut::LookupTable::open(a.table));
  const auto t1 = Clock::now();
  engine::EngineOptions eo;
  eo.table = r.table.get();
  eo.jobs = jobs;
  r.engine = std::make_unique<engine::Engine>(eo);
  times.setup_s.push_back(seconds_between(t0, Clock::now()));
  times.open_ms.push_back(ms(seconds_between(t0, t1)));
  return r;
}

/// kSetupsPerRound more set-up samples, each torn down untimed.
void sample_setups(const Args& a, std::size_t jobs, SetupTimes& times) {
  for (int i = 0; i < kSetupsPerRound; ++i) (void)set_up_routing(a, jobs, times);
}

// ---- handoff / deep ----------------------------------------------------------

/// Pool, cache, CPU and allocation telemetry summed over traced batches.
struct BatchTelemetry {
  int batches = 0;
  double busy_s = 0, queue_wait_ms = 0, imbalance_s = 0, steals = 0,
         lock_wait_ms = 0, cpu_s = 0, allocs = 0;
  double hits = 0, misses = 0, evictions = 0, cache_lock_ms = 0;
};

double cache_lock_us(const engine::CacheStats& s) {
  double us = 0;
  for (const auto& sh : s.shards) us += static_cast<double>(sh.lock.wait_us);
  return us;
}

/// One timed Engine::route_batch over `nets` from an empty cache.  With
/// `tel`, the pool/cache/CPU/allocation counters around it are added in.
std::vector<engine::RouteResponse> timed_batch(engine::Engine& eng,
                                               const std::vector<geom::Net>& nets,
                                               double& wall_s,
                                               BatchTelemetry* tel) {
  eng.clear_cache();
  par::ThreadPool* pool = eng.pool();
  const engine::CacheStats c0 = eng.cache_stats();
  double cpu0 = 0;
  std::uint64_t a0 = 0;
  if (tel != nullptr) {
    pool->reset_stats();
    cpu0 = perfbench::process_cpu_s();
    a0 = perfbench::alloc_count();
  }
  const auto t0 = Clock::now();
  auto out = eng.route_batch(nets);
  wall_s = seconds_between(t0, Clock::now());
  if (tel != nullptr) {
    tel->cpu_s += perfbench::process_cpu_s() - cpu0;
    tel->allocs += static_cast<double>(perfbench::alloc_count() - a0);
    double busy_us = 0;
    for (const auto& w : pool->worker_stats()) {
      busy_us += static_cast<double>(w.busy_us);
      tel->queue_wait_ms += static_cast<double>(w.queue_wait_us) * 1e-3;
      tel->steals += static_cast<double>(w.steals);
    }
    tel->busy_s += busy_us * 1e-6;
    tel->imbalance_s += (static_cast<double>(pool->size()) *
                             static_cast<double>(pool->batch_wall_us()) -
                         busy_us) * 1e-6;
    tel->lock_wait_ms += static_cast<double>(pool->lock_stats().wait_us) * 1e-3;
    const engine::CacheStats c1 = eng.cache_stats();
    tel->hits += static_cast<double>(c1.hits - c0.hits);
    tel->misses += static_cast<double>(c1.misses - c0.misses);
    tel->evictions += static_cast<double>(c1.evictions - c0.evictions);
    tel->cache_lock_ms += (cache_lock_us(c1) - cache_lock_us(c0)) * 1e-3;
    ++tel->batches;
  }
  return out;
}

/// The netlists a batch workload cycles through, with the digest of each
/// list's first batch and the hypervolume summed over those first batches.
struct Netlists {
  std::vector<std::vector<geom::Net>> lists;
  std::vector<std::uint64_t> digests;  // 0 until the list's first batch
  double hv_total = 0;
};

/// Repeats timed batches, cycling through the netlists, until `budget_s` of
/// wall (checks included) would be exceeded, and at least once per list and
/// three times in all.  A list's first batch is checked in full; later ones
/// must reproduce its digest.  `between` runs after each batch, untimed.
/// Returns the batch walls.
std::vector<double> batch_reps(engine::Engine& eng, Netlists& nl,
                               double budget_s, BatchTelemetry* tel,
                               Report& rep,
                               const std::function<void()>& between = {}) {
  std::vector<double> walls;
  const std::size_t min_reps = std::max<std::size_t>(3, nl.lists.size());
  const auto start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const std::size_t l = k % nl.lists.size();
    const std::vector<geom::Net>& nets = nl.lists[l];
    double wall = 0;
    const auto rs = timed_batch(eng, nets, wall, tel);
    walls.push_back(wall);
    rep.attempted += nets.size();
    if (nl.digests[l] == 0) {
      std::uint64_t bad = 0;
      for (std::size_t i = 0; i < nets.size(); ++i) {
        if (!response_ok(nets[i], rs[i].frontier, rs[i].trees)) ++bad;
        nl.hv_total += eval::net_hypervolume(rs[i].frontier, nets[i]);
      }
      rep.fail(bad, "routed tree invalid or off its frontier point");
      nl.digests[l] = frontier_digest(rs);
    } else if (frontier_digest(rs) != nl.digests[l]) {
      rep.fail(nets.size(), "batch differs from the first batch of its list");
    }
    if (between) between();
    const double elapsed = seconds_between(start, Clock::now());
    if (walls.size() >= min_reps && elapsed + perfbench::median(walls) > budget_s)
      break;
  }
  return walls;
}

/// Exact-regime sample (degree <= 9) against dw::pareto_dw, which shares no
/// code with the table query; returns each solve's time by degree.
std::map<std::size_t, std::vector<double>> dw_sample_check(
    engine::Engine& eng, const std::vector<geom::Net>& nets,
    const std::vector<std::size_t>& sample, Report& rep,
    std::vector<double>* records) {
  std::map<std::size_t, std::vector<double>> solve_us;
  std::uint64_t bad = 0;
  for (std::size_t i : sample) {
    const geom::Net& net = nets[i];
    const auto t0 = Clock::now();
    const dw::ParetoDwResult ref = dw::pareto_dw(net);
    solve_us[net.degree()].push_back(us_since(t0));
    if (records != nullptr)
      records->push_back(static_cast<double>(ref.solutions_created));
    const engine::RouteResponse got = eng.route(net);
    ++rep.attempted;
    if (!same_frontier(ref.frontier, got.frontier) ||
        !response_ok(net, got.frontier, got.trees))
      ++bad;
  }
  rep.fail(bad, "exact frontier differs from dw::pareto_dw");
  return solve_us;
}

void add_zero_layers(Report& rep);
void lutgen_probe(const Args& a, par::ThreadPool& pool, Report& rep);

Report run_batch_workload(const Args& a, bool deep) {
  Report rep;
  const std::size_t jobs = bench_jobs();
  Netlists nl;
  if (deep) {
    for (std::uint64_t l = 0; l < kDeepLists; ++l)
      nl.lists.push_back(perfbench::deep_nets(a.seed, kDeepExact, kDeepLocal, l));
  } else {
    for (std::uint64_t l = 0; l < kHandoffLists; ++l)
      nl.lists.push_back(perfbench::handoff_nets(a.seed, kHandoffNets, l));
  }
  nl.digests.assign(nl.lists.size(), 0);
  const std::vector<geom::Net>& nets = nl.lists.front();  // checks and probes

  SetupTimes setups;
  sample_setups(a, jobs, setups);
  Routing r = set_up_routing(a, jobs, setups);
  ++rep.attempted;
  rep.fail(r.table->content_hash() != kTableHash ? 1 : 0,
           "attached table content hash");
  engine::Engine& eng = *r.engine;

  std::vector<std::size_t> exact_idx;
  for (std::size_t i = 0; i < nets.size(); ++i)
    if (nets[i].degree() <= 9) exact_idx.push_back(i);
  std::vector<std::size_t> sample;
  for (std::size_t k : perfbench::sample_indices(a.seed, exact_idx.size(),
                                                 deep ? 36 : 300))
    sample.push_back(exact_idx[k]);

  // Warm-up: one untimed batch, so the first timed one does not pay for
  // the pool's first wake-ups and the allocator's first growth.
  eng.clear_cache();
  (void)eng.route_batch(nets);

  const double budget = a.trace ? a.seconds / 2 : a.seconds;
  const engine::CacheStats c0 = eng.cache_stats();
  const std::vector<double> walls = batch_reps(eng, nl, budget, nullptr, rep,
                                               [&] { sample_setups(a, jobs, setups); });
  const double wall = perfbench::median(walls);
  std::string list;
  for (double w : walls) list += " " + std::to_string(w).substr(0, 5);
  std::printf("[%s] batch walls (s):%s\n", deep ? "deep" : "handoff", list.c_str());
  const engine::CacheStats cs = eng.cache_stats();
  std::printf("[%s] %zu lists of %zu nets, %zu batches, median batch %.3f s, "
              "cache hits %.0f / misses %.0f per batch\n",
              deep ? "deep" : "handoff", nl.lists.size(), nets.size(),
              walls.size(), wall,
              static_cast<double>(cs.hits - c0.hits) / walls.size(),
              static_cast<double>(cs.misses - c0.misses) / walls.size());

  std::vector<double> records;
  const auto solve_us = dw_sample_check(eng, nets, sample, rep, &records);

  if (!a.trace) {
    rep.set("setup_s", perfbench::median(setups.setup_s), "s");
    rep.set("rate_per_s", static_cast<double>(nets.size()) / wall, "1/s");
    rep.set("latency_ms", ms(wall), "ms");
    rep.set("hv_total", nl.hv_total, "hv");
    return rep;
  }

  // Traced half: obs runtime on (pool and lock timelines), allocations
  // counted, CPU from getrusage.
  add_zero_layers(rep);
  obs::set_enabled(true);
  perfbench::set_alloc_counting(true);
  BatchTelemetry tel;
  const std::vector<double> traced = batch_reps(eng, nl, budget, &tel, rep);
  perfbench::set_alloc_counting(false);
  obs::set_enabled(false);
  const double n_b = tel.batches;
  const double twall = perfbench::median(traced);
  rep.set("trace.overhead_pct", (twall / wall - 1.0) * 100.0, "%");
  rep.set("par.busy_s", tel.busy_s / n_b, "s");
  rep.set("par.queue_wait_ms", tel.queue_wait_ms / n_b, "ms");
  rep.set("par.imbalance_s", tel.imbalance_s / n_b, "s");
  rep.set("par.steals", tel.steals / n_b, "count");
  rep.set("par.lock_wait_ms", tel.lock_wait_ms / n_b, "ms");
  rep.set("proc.cpu_s", tel.cpu_s / n_b, "s");
  rep.set("alloc.per_net", tel.allocs / n_b / static_cast<double>(nets.size()),
          "count");
  rep.set("engine.cache.hits", tel.hits / n_b, "count");
  rep.set("engine.cache.misses", tel.misses / n_b, "count");
  rep.set("engine.cache.hit_ratio", tel.hits / std::max(1.0, tel.hits + tel.misses),
          "ratio");
  rep.set("engine.cache.evictions", tel.evictions / n_b, "count");
  rep.set("engine.cache.lock_wait_ms", tel.cache_lock_ms / n_b, "ms");
  rep.set("lut.open_ms", perfbench::median(setups.open_ms), "ms");

  if (deep) {
    for (std::size_t d = 7; d <= 9; ++d) {
      const auto it = solve_us.find(d);
      rep.set("dw.solve_us.d" + std::to_string(d),
              it == solve_us.end() ? 0.0 : perfbench::median(it->second), "us");
    }
    double rsum = 0;
    for (double x : records) rsum += x;
    rep.set("dw.records", records.empty() ? 0.0 : rsum / records.size(), "count");
    // The local search called directly on degree >= 10 nets, candidate
    // evaluation on the engine's pool as Engine::route does.
    core::PatLaborOptions po;
    po.table = r.table.get();
    po.pool = eng.pool();
    std::vector<double> local_us;
    double iters = 0, points = 0;
    const auto t_probe = Clock::now();
    for (const geom::Net& net : nets) {
      if (net.degree() < 10) continue;
      const auto t0 = Clock::now();
      const core::PatLaborResult res = core::patlabor(net, po);
      local_us.push_back(us_since(t0));
      iters += res.iterations;
      points += static_cast<double>(res.frontier.size());
      if (seconds_between(t_probe, Clock::now()) > a.seconds / 4) break;
    }
    const double n_local = static_cast<double>(local_us.size());
    rep.set("core.local_us.p50", perfbench::percentile(local_us, 50), "us");
    rep.set("core.local_us.p99", perfbench::percentile(local_us, 99), "us");
    rep.set("core.iterations", iters / std::max(1.0, n_local), "count");
    rep.set("core.frontier_points", points / std::max(1.0, n_local), "count");
    std::printf("[deep] core probe: %zu nets\n", local_us.size());
    lutgen_probe(a, *eng.pool(), rep);
    return rep;
  }

  // handoff probes on a prefix of the netlist: Engine::route per net from
  // an empty cache, the core call on each miss, canonicalize, table query.
  const std::size_t probe = std::min<std::size_t>(nets.size(), 20000);
  core::PatLaborOptions po;
  po.table = r.table.get();
  po.pool = &par::inline_pool();
  std::vector<double> route_us, self_us, canon_us, query_us;
  eng.clear_cache();
  for (std::size_t i = 0; i < probe; ++i) {
    const geom::Net& net = nets[i];
    auto t0 = Clock::now();
    const engine::RouteResponse got = eng.route(net);
    const double r_us = us_since(t0);
    route_us.push_back(r_us);
    if (!got.cache_hit) {
      t0 = Clock::now();
      const core::PatLaborResult core_res = core::patlabor(net, po);
      self_us.push_back(r_us - us_since(t0));
    }
    t0 = Clock::now();
    const geom::CanonicalNet canon = geom::canonicalize(net);
    canon_us.push_back(us_since(t0));
    t0 = Clock::now();
    const auto q = r.table->query(net);
    query_us.push_back(us_since(t0));
  }
  double self_sum = 0;
  for (double x : self_us) self_sum += x;
  rep.set("engine.route_us.p50", perfbench::percentile(route_us, 50), "us");
  rep.set("engine.route_us.p99", perfbench::percentile(route_us, 99), "us");
  rep.set("engine.self_us.mean",
          self_us.empty() ? 0.0 : self_sum / static_cast<double>(self_us.size()),
          "us");
  rep.set("geom.canonicalize_us.p50", perfbench::percentile(canon_us, 50), "us");
  rep.set("lut.query_us.p50", perfbench::percentile(query_us, 50), "us");
  rep.set("lut.query_us.p99", perfbench::percentile(query_us, 99), "us");
  return rep;
}

// ---- lutgen ------------------------------------------------------------------

/// The offline table generation, timed once per degree on the engine's
/// pool, saved and reopened; both tables must hash to kTableHash.
void lutgen_probe(const Args& a, par::ThreadPool& pool, Report& rep) {
  const std::string path =
      a.scratch + "/lutgen-" + std::to_string(::getpid()) + ".bin";
  perfbench::set_alloc_counting(true);
  const std::uint64_t a0 = perfbench::alloc_count();
  lut::LookupTable t;
  for (int d = 4; d <= kTableDegree; ++d) {
    const auto g0 = Clock::now();
    t.generate_degree(d, {}, &pool);
    rep.set("lut.gen_s.d" + std::to_string(d), seconds_between(g0, Clock::now()), "s");
  }
  t.save(path);
  const double allocs = static_cast<double>(perfbench::alloc_count() - a0);
  perfbench::set_alloc_counting(false);
  const lut::LookupTable reopened = lut::LookupTable::open(path);
  std::remove(path.c_str());
  rep.attempted += 2;
  rep.fail(t.content_hash() != kTableHash ? 1 : 0, "generated table hash");
  rep.fail(reopened.content_hash() != kTableHash ? 1 : 0, "reopened table hash");
  double patterns = 0, topologies = 0, lp_calls = 0;
  for (const auto& [d, st] : t.stats()) {
    patterns += static_cast<double>(st.patterns);
    topologies += static_cast<double>(st.topologies);
    lp_calls += static_cast<double>(st.lp_calls);
  }
  rep.set("lut.patterns", patterns, "count");
  rep.set("lut.topologies", topologies, "count");
  rep.set("exactlp.lp_calls", lp_calls, "count");
  rep.set("exactlp.lp_calls_per_pattern", lp_calls / std::max(1.0, patterns), "count");
  rep.set("alloc.per_topology", allocs / std::max(1.0, topologies), "count");
}

// ---- serve -------------------------------------------------------------------

/// Client-side outcome of one open-loop phase.
struct PhaseResult {
  std::vector<double> latency_ms;  // from each request's due time
  std::vector<double> late_ms;     // send time - due time
  std::vector<pareto::SolutionSet> replies;
  std::size_t errors = 0;
};

/// Sends `ph` on one pipelined connection at its due times (open loop: a
/// late send is never skipped and still counts from its due time) while a
/// receiver thread collects replies.
PhaseResult run_phase(const std::string& socket, const perfbench::Phase& ph) {
  serve::Client client(socket);
  const std::size_t n = ph.nets.size();
  PhaseResult out;
  out.latency_ms.assign(n, 0.0);
  out.late_ms.assign(n, 0.0);
  out.replies.resize(n);
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, std::size_t> index_of;
  std::size_t receiver_errors = 0;
  const auto t0 = Clock::now();
  std::thread receiver([&] {
    for (std::size_t done = 0; done < n; ++done) {
      std::uint64_t id = 0;
      serve::WireRouteResponse resp;
      try {
        auto reply = client.read_route_reply();
        id = reply.first;
        resp = std::move(reply.second);
      } catch (const std::exception&) {
        receiver_errors += n - done;
        return;
      }
      const double now = seconds_between(t0, Clock::now());
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return index_of.count(id) != 0; });
      const std::size_t i = index_of[id];
      out.latency_ms[i] = ms(now - ph.due_s[i]);
      out.replies[i] = std::move(resp.frontier);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    const double lead = ph.due_s[i] - seconds_between(t0, Clock::now());
    if (lead > 0) std::this_thread::sleep_for(std::chrono::duration<double>(lead));
    out.late_ms[i] = ms(seconds_between(t0, Clock::now()) - ph.due_s[i]);
    const std::uint64_t id = client.send_route(ph.nets[i], {});
    {
      std::lock_guard<std::mutex> lock(mu);
      index_of[id] = i;
    }
    cv.notify_all();
  }
  receiver.join();
  out.errors = receiver_errors;
  return out;
}

/// Requests of a phase: the rate times its share of the run, and never
/// fewer than needed for ten samples beyond the p99.
std::size_t phase_requests(double rate, double seconds) {
  return std::max(perfbench::samples_needed(99.0),
                  static_cast<std::size_t>(rate * seconds));
}

Report run_serve(const Args& a) {
  Report rep;
  const std::size_t jobs = bench_jobs();
  // A daemon always records its serve.* stats (patlabord does the same).
  obs::set_enabled(true);
  const std::string socket =
      a.scratch + "/serve-" + std::to_string(::getpid()) + ".sock";

  // A set-up binds a server on `path` (which opens the table and builds
  // the engine) and pre-warms a hot set pipelined, as a client filling the
  // cache would: the hot set goes out at once and coalesces into one
  // batch.  Each set-up draws its own hot set from the seed, so the median
  // does not hang on the few nets of one draw.  The phases run on the
  // first server with its hot set; the other samples bind a socket of
  // their own and are torn down untimed.
  std::vector<double> setups;
  std::uint64_t draw = 0;
  const auto set_up = [&](const std::string& path, std::vector<geom::Net>& hot) {
    hot = perfbench::serve_hot_set(a.seed, draw++);
    const auto t0 = Clock::now();
    serve::ServerOptions so;
    so.socket_path = path;
    so.lut_path = a.table;
    so.engine.jobs = jobs;
    auto srv = std::make_unique<serve::Server>(so);
    serve::Client warm(path);
    for (const geom::Net& net : hot) (void)warm.send_route(net, {});
    for (std::size_t k = 0; k < hot.size(); ++k) (void)warm.read_route_reply();
    setups.push_back(seconds_between(t0, Clock::now()));
    return srv;
  };
  std::vector<geom::Net> hot;
  const std::unique_ptr<serve::Server> server = set_up(socket, hot);
  const auto sample_setup = [&] {
    std::vector<geom::Net> other;
    (void)set_up(socket + ".setup", other);
  };
  for (int i = 1; i < kServeSetups; ++i) sample_setup();

  // Ground truth from a direct engine with the same table and λ, computed
  // after each phase (outside its timed window).
  const lut::LookupTable table = lut::LookupTable::open(a.table);
  engine::EngineOptions eo;
  eo.table = &table;
  eo.jobs = jobs;
  const engine::Engine direct(eo);
  double hv_total = 0;
  const auto verify = [&](const perfbench::Phase& ph, const PhaseResult& res,
                          bool add_hv) {
    const auto expect = direct.route_batch(ph.nets);
    std::uint64_t bad = res.errors;
    for (std::size_t i = 0; i < ph.nets.size(); ++i) {
      if (!same_frontier(expect[i].frontier, res.replies[i])) ++bad;
      if (add_hv && !ph.hot[i])
        hv_total += eval::net_hypervolume(res.replies[i], ph.nets[i]);
    }
    rep.attempted += ph.nets.size();
    rep.fail(bad, "serve reply differs from a direct Engine::route");
    sample_setup();
  };

  struct Rated {
    double p50 = 0, p99 = 0, late99 = 0, last = 0;
    std::size_t n = 0;
  };
  const auto summarize = [](const PhaseResult& res) {
    Rated r;
    r.p50 = perfbench::percentile(res.latency_ms, 50);
    r.p99 = perfbench::percentile(res.latency_ms, 99);
    r.late99 = perfbench::percentile(res.late_ms, 99);
    r.last = res.latency_ms.empty() ? 0 : res.latency_ms.back();
    r.n = res.latency_ms.size();
    return r;
  };
  const double low_s = a.trace ? a.seconds / 4 : a.seconds * 0.15;
  const double high_s = a.trace ? a.seconds / 4 : a.seconds * 0.45;
  std::uint64_t phase_seed = a.seed;
  const auto phase_at = [&](double rate, double secs) {
    return perfbench::serve_phase(phase_seed++, rate, phase_requests(rate, secs), hot);
  };

  // The high-rate slices are spread over the run (between ladder steps), so
  // a slow stretch of a shared host moves one slice's p99, not the
  // reading: the reported latency is the median of the slices' p99s.
  PhaseResult high_res;
  std::vector<double> slice_p99;
  const auto high_slice = [&] {
    if (slice_p99.size() == static_cast<std::size_t>(kHighSlices)) return;
    const perfbench::Phase ph = phase_at(kHighRate, high_s / kHighSlices);
    const PhaseResult res = run_phase(socket, ph);
    verify(ph, res, true);
    slice_p99.push_back(perfbench::percentile(res.latency_ms, 99));
    high_res.latency_ms.insert(high_res.latency_ms.end(), res.latency_ms.begin(),
                               res.latency_ms.end());
    high_res.late_ms.insert(high_res.late_ms.end(), res.late_ms.begin(),
                            res.late_ms.end());
    high_res.errors += res.errors;
  };

  high_slice();
  const perfbench::Phase low = phase_at(kLowRate, low_s);
  const PhaseResult low_res = run_phase(socket, low);
  verify(low, low_res, true);
  high_slice();
  Rated lo, hi;
  const auto report_rates = [&] {
    lo = summarize(low_res);
    hi = summarize(high_res);
    std::printf("[serve] low %.0f rps: p50 %.2f ms p99 %.2f ms (n=%zu, gen late "
                "p99 %.3f ms)\n", kLowRate, lo.p50, lo.p99, lo.n, lo.late99);
    std::printf("[serve] high %.0f rps: p50 %.2f ms p99 %.2f ms, median slice p99 "
                "%.2f ms (n=%zu, gen late p99 %.3f ms)\n", kHighRate, hi.p50, hi.p99,
                perfbench::median(slice_p99), hi.n, hi.late99);
  };
  if (!a.trace) {
    // max_rps: binary search over the fixed ladder.  A rate passes when its
    // p99 and its last request's latency (which a growing backlog inflates)
    // stay within the limit; the crossing is interpolated in p99 between
    // the highest passing and the lowest failing rate.
    const int steps = static_cast<int>(std::size(kLadder));
    const double step_s = a.seconds * 0.2 / 5;
    std::map<int, std::vector<double>> p99s;  // every reading of a rung
    const auto trial = [&](int rung) {
      high_slice();
      const perfbench::Phase ph = phase_at(kLadder[rung], step_s);
      const PhaseResult res = run_phase(socket, ph);
      verify(ph, res, false);
      const Rated r = summarize(res);
      std::printf("[serve] ladder %.0f rps: p99 %.2f ms last %.2f ms (n=%zu)\n",
                  kLadder[rung], r.p99, r.last, r.n);
      p99s[rung].push_back(r.p99);
      return r.p99 <= kP99LimitMs && r.last <= kP99LimitMs && res.errors == 0;
    };
    int pass = -1, fail = steps;
    while (fail - pass > 1) {
      const int mid = (pass + fail) / 2;
      (trial(mid) ? pass : fail) = mid;
    }
    // One reading of a rung near capacity is noisy: the two rungs the
    // crossing is interpolated between are read kBracketRepeats more times
    // and each taken at its median p99.
    for (int i = 0; i < kBracketRepeats; ++i)
      for (const int rung : {pass, fail})
        if (rung >= 0 && rung < steps) (void)trial(rung);
    const auto p99_at = [&](int rung) { return perfbench::median(p99s[rung]); };
    while (slice_p99.size() < static_cast<std::size_t>(kHighSlices)) high_slice();
    report_rates();
    double max_rps = 0;
    if (pass < 0) {
      max_rps = kLadder[0] * std::min(1.0, kP99LimitMs / p99_at(0));
    } else if (fail >= steps || p99_at(fail) <= std::max(kP99LimitMs, p99_at(pass))) {
      max_rps = kLadder[pass];
    } else {
      max_rps = kLadder[pass] + (kLadder[fail] - kLadder[pass]) *
                                    (kP99LimitMs - p99_at(pass)) /
                                    (p99_at(fail) - p99_at(pass));
    }
    server->stop();
    rep.set("setup_s", perfbench::median(setups), "s");
    rep.set("rate_per_s", max_rps, "1/s");
    rep.set("latency_ms", perfbench::median(slice_p99), "ms");
    rep.set("hv_total", hv_total, "hv");
    std::printf("[serve] max_rps %.1f at p99 <= %.0f ms\n", max_rps, kP99LimitMs);
    return rep;
  }

  while (slice_p99.size() < static_cast<std::size_t>(kHighSlices)) high_slice();
  report_rates();

  // Traced half: the two rates again, each bracketed by a registry reset
  // and a wire_stats() read so the server's stage quantiles are per rate.
  add_zero_layers(rep);
  std::vector<double> opens;
  for (int i = 0; i < 25; ++i) {
    const auto t0 = Clock::now();
    const lut::LookupTable t = lut::LookupTable::open(a.table);
    opens.push_back(ms(seconds_between(t0, Clock::now())));
  }
  rep.set("lut.open_ms", perfbench::median(opens), "ms");
  double traced_high_p50 = 0;
  for (const auto& [label, rate] :
       {std::pair<std::string, double>{"low", kLowRate}, {"high", kHighRate}}) {
    obs::StatsRegistry::instance().reset();
    const serve::Server::Stats s0 = server->stats();
    const perfbench::Phase ph = phase_at(rate, label == "low" ? low_s : high_s);
    const PhaseResult res = run_phase(socket, ph);
    const serve::WireStats ws = server->wire_stats();
    const serve::Server::Stats s1 = server->stats();
    verify(ph, res, false);
    const Rated r = summarize(res);
    if (label == "high") traced_high_p50 = r.p50;
    const std::string p = "serve." + label + ".";
    rep.set(p + "p50_ms", label == "low" ? lo.p50 : hi.p50, "ms");
    rep.set(p + "p99_ms", label == "low" ? lo.p99 : hi.p99, "ms");
    rep.set(p + "gen_late_ms.p99", label == "low" ? lo.late99 : hi.late99, "ms");
    rep.set(p + "samples", static_cast<double>(label == "low" ? lo.n : hi.n), "count");
    rep.set(p + "queue_wait_ms.p50", ws.queue_wait.p50_us * 1e-3, "ms");
    rep.set(p + "queue_wait_ms.p99", ws.queue_wait.p99_us * 1e-3, "ms");
    rep.set(p + "route_ms.p50", ws.route.p50_us * 1e-3, "ms");
    rep.set(p + "route_ms.p99", ws.route.p99_us * 1e-3, "ms");
    rep.set(p + "write_ms.p50", ws.write.p50_us * 1e-3, "ms");
    rep.set(p + "write_ms.p99", ws.write.p99_us * 1e-3, "ms");
    const double batches = static_cast<double>(s1.batches - s0.batches);
    rep.set(p + "batches", batches, "count");
    rep.set(p + "batch_size.mean",
            static_cast<double>(s1.responses - s0.responses) / std::max(1.0, batches),
            "count");
    rep.set(p + "errors", static_cast<double>(s1.errors - s0.errors), "count");
  }
  server->stop();
  rep.set("trace.overhead_pct", (traced_high_p50 / hi.p50 - 1.0) * 100.0, "%");
  return rep;
}

/// Every per-layer metric a traced run reports, at zero until the workload
/// sets it: a layer the workload does not reach reports no work.
void add_zero_layers(Report& rep) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"engine.route_us.p50", "us"}, {"engine.route_us.p99", "us"},
      {"engine.self_us.mean", "us"}, {"engine.cache.hits", "count"},
      {"engine.cache.misses", "count"}, {"engine.cache.hit_ratio", "ratio"},
      {"engine.cache.evictions", "count"}, {"engine.cache.lock_wait_ms", "ms"},
      {"geom.canonicalize_us.p50", "us"}, {"par.busy_s", "s"},
      {"par.queue_wait_ms", "ms"}, {"par.imbalance_s", "s"},
      {"par.steals", "count"}, {"par.lock_wait_ms", "ms"}, {"proc.cpu_s", "s"},
      {"lut.open_ms", "ms"}, {"lut.query_us.p50", "us"},
      {"lut.query_us.p99", "us"}, {"lut.gen_s.d4", "s"}, {"lut.gen_s.d5", "s"},
      {"lut.gen_s.d6", "s"}, {"lut.patterns", "count"},
      {"lut.topologies", "count"}, {"exactlp.lp_calls", "count"},
      {"exactlp.lp_calls_per_pattern", "count"}, {"dw.solve_us.d7", "us"},
      {"dw.solve_us.d8", "us"}, {"dw.solve_us.d9", "us"},
      {"dw.records", "count"}, {"core.local_us.p50", "us"},
      {"core.local_us.p99", "us"}, {"core.iterations", "count"},
      {"core.frontier_points", "count"}, {"alloc.per_net", "count"},
      {"alloc.per_topology", "count"}, {"trace.overhead_pct", "%"}};
  for (const auto& [name, unit] : kLayers) rep.set(name, 0.0, unit);
  for (const char* rate : {"low", "high"}) {
    const std::string p = std::string("serve.") + rate + ".";
    for (const char* m : {"p50_ms", "p99_ms", "gen_late_ms.p99", "queue_wait_ms.p50",
                          "queue_wait_ms.p99", "route_ms.p50", "route_ms.p99",
                          "write_ms.p50", "write_ms.p99"})
      rep.set(p + m, 0.0, "ms");
    for (const char* m : {"samples", "batches", "batch_size.mean", "errors"})
      rep.set(p + m, 0.0, "count");
  }
}

int make_table(const std::string& path) {
  par::ThreadPool pool(bench_jobs());
  const lut::LookupTable t = lut::LookupTable::generate(kTableDegree, {}, &pool);
  if (t.content_hash() != kTableHash) {
    std::fprintf(stderr, "perfbench: generated table hash %016" PRIx64
                         " != expected %016" PRIx64 "\n",
                 t.content_hash(), kTableHash);
    return 1;
  }
  t.save(path);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload handoff|deep|serve --seed N "
               "--seconds S --trace 0|1 --table PATH [--scratch DIR]\n"
               "       perfbench --make-table PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string k = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (k == "--make-table") return make_table(v);
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = v == "1";
      else if (k == "--table") a.table = v;
      else if (k == "--scratch") a.scratch = v;
      else return usage();
    }
    if (a.seconds <= 0) return usage();
    if (a.table.empty()) return usage();

    Report rep;
    rep.record["seed"] = std::to_string(a.seed);
    rep.record["nproc"] = std::to_string(std::thread::hardware_concurrency());
    rep.record["jobs"] = std::to_string(bench_jobs());
    rep.record["build_type"] = PERFBENCH_BUILD_TYPE;
    char spin[32];
    std::snprintf(spin, sizeof spin, "%.2f", spin_calibration_ms(bench_jobs()));
    rep.record["spin_ms"] = spin;

    Report out;
    if (a.workload == "handoff") out = run_batch_workload(a, false);
    else if (a.workload == "deep") out = run_batch_workload(a, true);
    else if (a.workload == "serve") out = run_serve(a);
    else return usage();
    out.record = rep.record;
    if (!a.trace) out.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    out.print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
