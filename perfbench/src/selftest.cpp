// Self-tests of the benchmark's own helpers: nearest-rank percentiles, the
// "ten samples beyond" rule, and seeded generator determinism.  Exit 0 =
// pass.  (The quartile helper lives in spread.py; run.py --selftest checks
// it.)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// Order-sensitive digest of a net list (degrees and coordinates).
std::uint64_t nets_digest(const std::vector<patlabor::geom::Net>& nets) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& n : nets) {
    mix(n.pins.size());
    for (const auto& p : n.pins) {
      mix(static_cast<std::uint64_t>(p.x));
      mix(static_cast<std::uint64_t>(p.y));
    }
  }
  return h;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest rank: rank = ceil(p/100 * n), always an observed sample.
  check(near(percentile({4, 1, 3, 2}, 50), 2), "p50 of 1..4 is 2");
  check(near(percentile({4, 1, 3, 2}, 100), 4), "p100 is the maximum");
  check(near(percentile({7}, 99), 7), "single sample");
  check(near(percentile({}, 50), 0), "empty sample reads 0");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(near(percentile(hundred, 99), 99), "p99 of 1..100 is 99");
  check(near(percentile(hundred, 1), 1), "p1 of 1..100 is 1");

  // The ten-samples-beyond rule.
  check(samples_beyond(1000, 99) == 10, "p99 of 1000 has 10 beyond");
  check(samples_beyond(999, 99) == 9, "p99 of 999 has 9 beyond");
  check(samples_needed(99) == 1000, "p99 needs 1000 samples");
  check(samples_needed(50) == 20, "p50 needs 20 samples");
  check(samples_beyond(0, 99) == 0, "empty sample has none beyond");

  // Generators: one seed, one input; another seed, another input.
  check(nets_digest(handoff_nets(7, 3000)) == nets_digest(handoff_nets(7, 3000)),
        "handoff deterministic");
  check(nets_digest(handoff_nets(7, 3000)) != nets_digest(handoff_nets(8, 3000)),
        "handoff varies with the seed");
  check(nets_digest(handoff_nets(7, 3000, 0)) != nets_digest(handoff_nets(7, 3000, 1)),
        "handoff lists of one seed differ");
  check(nets_digest(deep_nets(7, 9, 9)) == nets_digest(deep_nets(7, 9, 9)),
        "deep deterministic");
  check(nets_digest(deep_nets(7, 9, 9)) != nets_digest(deep_nets(8, 9, 9)),
        "deep varies with the seed");
  check(nets_digest(deep_nets(7, 9, 9, 0)) != nets_digest(deep_nets(7, 9, 9, 1)),
        "deep lists of one seed differ");
  const auto hot = serve_hot_set(7);
  check(nets_digest(hot) == nets_digest(serve_hot_set(7)), "hot set deterministic");
  check(nets_digest(hot) != nets_digest(serve_hot_set(7, 1)),
        "hot-set draws of one seed differ");
  const Phase a = serve_phase(7, 500, 400, hot);
  const Phase b = serve_phase(7, 500, 400, hot);
  check(nets_digest(a.nets) == nets_digest(b.nets) && a.due_s == b.due_s,
        "serve phase deterministic");
  check(nets_digest(a.nets) != nets_digest(serve_phase(8, 500, 400, hot).nets),
        "serve phase varies with the seed");
  check(sample_indices(3, 100, 10) == sample_indices(3, 100, 10),
        "sample deterministic");

  // Input properties the workloads promise.
  const auto h = handoff_nets(11, 30000);
  std::size_t repeats = 0;
  bool degrees_ok = true;
  {
    std::vector<std::uint64_t> seen;
    for (const auto& n : h) {
      degrees_ok = degrees_ok && n.degree() >= 2 && n.degree() <= 6;
      seen.push_back(nets_digest({n}));
    }
    std::vector<std::uint64_t> sorted = seen;
    std::sort(sorted.begin(), sorted.end());
    repeats = static_cast<std::size_t>(
        sorted.end() - std::unique(sorted.begin(), sorted.end()));
  }
  check(degrees_ok, "handoff degrees in 2..6");
  // A third repeat, half of those translated (so distinct coordinates).
  check(repeats > 3000 && repeats < 7000, "handoff verbatim repeats near 1/6");
  bool deep_ok = true;
  const auto d = deep_nets(5, 30, 30);
  for (std::size_t i = 0; i < d.size(); ++i)
    deep_ok = deep_ok && (i % 2 == 0 ? d[i].degree() >= 7 && d[i].degree() <= 9
                                     : d[i].degree() >= 10 && d[i].degree() <= 24);
  check(deep_ok && d.size() == 60, "deep alternates degrees 7..9 and 10..24");
  check(a.due_s.size() == 400 && std::is_sorted(a.due_s.begin(), a.due_s.end()),
        "serve due times ascending");
  // Poisson arrivals at 500/s: 400 requests span about 0.8 s.
  check(a.due_s.back() > 0.6 && a.due_s.back() < 1.0, "serve phase rate");

  if (g_failures != 0) {
    std::printf("%d self-test(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
