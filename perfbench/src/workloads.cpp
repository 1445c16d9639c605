#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "patlabor/netgen/netgen.hpp"
#include "patlabor/util/rng.hpp"

namespace perfbench {

using patlabor::geom::Coord;
using patlabor::geom::Net;
using patlabor::util::Rng;

namespace {
/// Repeats re-submit one of the most recent unique nets (a router revisits
/// the region it just routed), so most of them fall inside the default
/// frontier-cache capacity.
constexpr std::size_t kRepeatWindow = 2048;
}  // namespace

std::vector<Net> handoff_nets(std::uint64_t seed, std::size_t count,
                              std::uint64_t list) {
  Rng rng((seed ^ 0x68616e646f6666ULL) + 0x9E3779B97F4A7C15ULL * list);
  std::vector<Net> nets;
  std::vector<std::size_t> uniques;  // indices of first occurrences
  nets.reserve(count);
  while (nets.size() < count) {
    if (!uniques.empty() && rng.index(3) == 0) {
      const std::size_t window = std::min(uniques.size(), kRepeatWindow);
      Net copy = nets[uniques[uniques.size() - 1 - rng.index(window)]];
      if (rng.index(2) == 0) {
        const auto dx = static_cast<Coord>(rng.uniform_int(-5000, 5000));
        const auto dy = static_cast<Coord>(rng.uniform_int(-5000, 5000));
        for (auto& p : copy.pins) {
          p.x += dx;
          p.y += dy;
        }
      }
      nets.push_back(std::move(copy));
    } else {
      uniques.push_back(nets.size());
      nets.push_back(
          patlabor::netgen::clustered_net(rng, 2 + rng.index(5)));
    }
  }
  return nets;
}

std::vector<Net> deep_nets(std::uint64_t seed, std::size_t exact,
                           std::size_t local, std::uint64_t list) {
  Rng rng((seed ^ 0x64656570ULL) + 0x9E3779B97F4A7C15ULL * list);
  std::vector<Net> nets;
  nets.reserve(exact + local);
  // The two regimes alternate through the list, so every contiguous share
  // of it (the pool hands each lane one) carries the same mix of work.
  for (std::size_t e = 0, l = 0; e < exact || l < local;) {
    if (e < exact && (l >= local || e * local <= l * exact))
      nets.push_back(patlabor::netgen::clustered_net(rng, 7 + e++ % 3));
    else
      nets.push_back(patlabor::netgen::clustered_net(rng, 10 + l++ % 15));
  }
  return nets;
}

std::vector<Net> serve_hot_set(std::uint64_t seed, std::uint64_t draw) {
  Rng rng((seed ^ 0x686f74ULL) + 0x9E3779B97F4A7C15ULL * draw);
  std::vector<Net> hot;
  for (std::size_t i = 0; i < 16; ++i)
    hot.push_back(patlabor::netgen::clustered_net(rng, 5 + i % 5));
  return hot;
}

Phase serve_phase(std::uint64_t seed, double rate, std::size_t requests,
                  const std::vector<Net>& hot_set) {
  Rng rng(seed ^ 0x73657276ULL ^ static_cast<std::uint64_t>(rate * 1000.0));
  Phase ph;
  ph.rate = rate;
  double t = 0.0;
  for (std::size_t i = 0; i < requests; ++i) {
    t += -std::log(1.0 - rng.uniform01()) / rate;
    ph.due_s.push_back(t);
    // Exactly half hot, and cold degrees cycle 5..9, so every phase (and
    // every seed) carries the same degree mix.
    const bool hot = i % 2 == 0;
    ph.hot.push_back(hot);
    ph.nets.push_back(hot ? hot_set[rng.index(hot_set.size())]
                          : patlabor::netgen::clustered_net(rng, 5 + (i / 2) % 5));
  }
  return ph;
}

std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t k) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  Rng rng(seed ^ 0x73616d706c65ULL);
  rng.shuffle(all);
  all.resize(std::min(n, k));
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace perfbench
