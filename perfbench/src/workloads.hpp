// Seeded input generators of the three perfbench workloads.  Every input is
// a pure function of the seed (and of the run length for serve, whose
// request counts follow the fixed rates), so one seed gives one input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "patlabor/geom/net.hpp"

namespace perfbench {

/// handoff: a one-shot global-router handoff.  `count` nets of degree
/// 2..6; each net after the first repeats one of the 2048 most recent
/// unique nets with probability 1/3, half of those verbatim and half
/// translated; `list` picks one of several independent netlists of the
/// same seed.
std::vector<patlabor::geom::Net> handoff_nets(std::uint64_t seed,
                                              std::size_t count,
                                              std::uint64_t list = 0);

/// deep: unique nets past the table's depth — `exact` nets of degree 7..9
/// (numeric Pareto-DW) interleaved with `local` nets of degree 10..24
/// (λ = 9 local search).  Degrees cycle, so every seed has the same degree
/// mix; `list` picks one of several independent netlists of the same seed.
std::vector<patlabor::geom::Net> deep_nets(std::uint64_t seed,
                                           std::size_t exact,
                                           std::size_t local,
                                           std::uint64_t list = 0);

/// serve: a 16-net hot set of degree 5..9 that set-up pre-warms; `draw`
/// picks one of several independent hot sets of the same seed.
std::vector<patlabor::geom::Net> serve_hot_set(std::uint64_t seed,
                                               std::uint64_t draw = 0);

/// One open-loop phase: requests with their due times (seconds from the
/// phase start, Poisson arrivals at `rate`): every other request is drawn
/// from the hot set, the rest are unique cold nets of degree 5..9.
struct Phase {
  double rate = 0.0;
  std::vector<patlabor::geom::Net> nets;
  std::vector<double> due_s;
  std::vector<bool> hot;
};

Phase serve_phase(std::uint64_t seed, double rate, std::size_t requests,
                  const std::vector<patlabor::geom::Net>& hot_set);

/// Seeded sample of `k` distinct indices in [0, n), ascending.
std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t k);

}  // namespace perfbench
