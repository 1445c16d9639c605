// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <vector>

#include "patlabor/geom/net.hpp"
#include "patlabor/tree/routing_tree.hpp"
#include "patlabor/util/rng.hpp"

namespace patlabor::testing {

/// A random net with pins on an integer window, distinct coordinates
/// (general position) unless allow_ties.
inline geom::Net random_net(util::Rng& rng, std::size_t degree,
                            geom::Coord window = 1000,
                            bool allow_ties = false) {
  geom::Net net;
  net.pins.reserve(degree);
  std::vector<geom::Coord> xs, ys;
  while (net.pins.size() < degree) {
    const geom::Coord x = rng.uniform_int(0, window);
    const geom::Coord y = rng.uniform_int(0, window);
    if (!allow_ties) {
      bool clash = false;
      for (const auto& p : net.pins)
        if (p.x == x || p.y == y) clash = true;
      if (clash) continue;
    }
    net.pins.push_back(geom::Point{x, y});
  }
  return net;
}

/// FNV-1a over 64-bit words, for golden digests of solver outputs: a
/// moved tie-break anywhere in a solver changes some tree, hence the value.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void mix(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  }
  void mix(const tree::RoutingTree& t) {
    mix(t.num_nodes());
    mix(static_cast<std::uint64_t>(t.wirelength()));
    mix(static_cast<std::uint64_t>(t.delay()));
    mix(t.structural_hash());
  }
};

}  // namespace patlabor::testing
