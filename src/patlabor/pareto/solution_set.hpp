// SolutionSet: the first-class carrier of a Pareto frontier.
//
// Invariant (the "staircase"): objectives are sorted by w strictly
// ascending and d strictly descending — i.e. a nondominated antichain with
// no duplicates, exactly the shape Eq. (1)'s Pareto(·) produces.  Every
// result type of the repository (Pareto-DW, lookup-table queries, PatLabor,
// Pareto-KS, the engine cache) carries its frontier as a SolutionSet, so
// the invariant is established once at the producer and every consumer can
// rely on front() being the min-wirelength point and back() the min-delay
// point without re-filtering.
//
// A set optionally carries *payload indices*: when built with select(),
// payload()[k] is the index of the k-th surviving objective in the
// original candidate array, so parallel arrays (trees, labels) can be
// gathered through take_payload() without re-sorting them.
//
// The three frontier operations of Eq. (1) exist as in-place kernels —
// filter (Pareto(·)), shift (S + x), merge (S ⊕ S') — reusing
// caller-provided FilterScratch buffers, so DP inner loops run without
// per-call heap allocations.  OnlineStaircase is the streaming form of
// filter for DP steps whose candidates are mostly dominated: it keeps the
// same survivors without materializing or sorting the candidate list.
// The pure functions in pareto_set.hpp remain as reference
// implementations (and are cross-checked against these kernels by
// randomized property tests).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "patlabor/pareto/pareto_set.hpp"

namespace patlabor::pareto {

/// Reusable buffers for the in-place kernels.  One instance per solver /
/// thread; contents are meaningless between calls but capacity persists,
/// so steady-state filtering performs no heap allocations.
struct FilterScratch {
  std::vector<std::uint32_t> order;  ///< candidate indices, sorted
  std::vector<std::uint32_t> kept;   ///< surviving indices, objective order
  ObjVec tmp_objs;                   ///< gather buffer for filter()
  std::vector<std::uint32_t> tmp_payload;
};

/// Allocation-free index form of Pareto(·): fills `scratch.kept` with the
/// indices (into 0..n-1) of a maximal nondominated subset, ordered by
/// objective, keeping the lowest index among duplicates.  `obj_at(i)` must
/// return the i-th candidate objective.  Identical tie-breaking to
/// pareto_indices(), so solvers migrated onto this kernel keep bit-exact
/// survivor sets.
template <typename ObjAt>
std::span<const std::uint32_t> filter_indices(std::size_t n, ObjAt&& obj_at,
                                              FilterScratch& scratch) {
  scratch.order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) scratch.order[i] = i;
  std::sort(scratch.order.begin(), scratch.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const Objective& oa = obj_at(a);
              const Objective& ob = obj_at(b);
              if (oa == ob) return a < b;  // stable for duplicates
              return oa < ob;
            });
  scratch.kept.clear();
  Length best_d = std::numeric_limits<Length>::max();
  for (std::uint32_t i : scratch.order) {
    if (obj_at(i).d < best_d) {
      scratch.kept.push_back(i);
      best_d = obj_at(i).d;
    }
  }
  return scratch.kept;
}

/// Online form of Pareto(·): a staircase that takes candidates one at a
/// time instead of sorting a list of them.  Each candidate carries a key
/// and a payload.  After any sequence of insert() calls the set holds
/// exactly the points filter_indices() would keep over the same
/// candidates, in the same (staircase) order, and each survivor is the
/// candidate of lowest key among equal objectives — so with keys that
/// follow candidate order the two kernels agree survivor for survivor,
/// whatever order the candidates arrive in.  Both insert() and
/// dominated() binary-search the staircase; most candidates of a DP step
/// are rejected there without touching the set.  clear() keeps capacity,
/// so a reused instance allocates nothing at steady state.
template <typename Payload>
class OnlineStaircase {
 public:
  struct Entry {
    Objective obj;
    std::uint64_t key = 0;
    Payload payload{};
  };

  void clear() { entries_.clear(); }
  /// Survivors in staircase order (w strictly ascending, d descending).
  std::span<const Entry> entries() const { return entries_; }

  /// True when some point of the set dominates `c` (is no worse in both
  /// coordinates and differs from it): inserting `c`, or any point no
  /// better than `c` in both coordinates, would then change nothing.
  bool dominated(const Objective& c) const {
    // The last point with w <= c.w has the least d among all of them.
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), c.w,
        [](Length w, const Entry& e) { return w < e.obj.w; });
    if (it == entries_.begin()) return false;
    --it;
    return it->obj.d < c.d || (it->obj.d == c.d && it->obj.w < c.w);
  }

  /// Offers one candidate.  It is rejected when a point of the set
  /// dominates it; an equal point keeps whichever of the two has the lower
  /// key; otherwise it enters at its place and evicts the points it
  /// dominates.
  void insert(const Objective& obj, std::uint64_t key,
              const Payload& payload) {
    auto first = std::lower_bound(
        entries_.begin(), entries_.end(), obj.w,
        [](const Entry& e, Length w) { return e.obj.w < w; });
    // The predecessor has the least d among the points of smaller w.
    if (first != entries_.begin() && std::prev(first)->obj.d <= obj.d)
      return;
    if (first != entries_.end() && first->obj.w == obj.w) {
      if (first->obj.d < obj.d) return;
      if (first->obj.d == obj.d) {
        if (key < first->key) {
          first->key = key;
          first->payload = payload;
        }
        return;
      }
    }
    // Every point from `first` on has w >= obj.w; the run of those with
    // d >= obj.d is exactly what `obj` dominates.
    auto last = first;
    while (last != entries_.end() && last->obj.d >= obj.d) ++last;
    if (first == last) {
      entries_.insert(first, Entry{obj, key, payload});
    } else {
      *first = Entry{obj, key, payload};
      entries_.erase(first + 1, last);
    }
  }

 private:
  std::vector<Entry> entries_;
};

class SolutionSet {
 public:
  SolutionSet() = default;

  /// Pareto-filters arbitrary points into a set (no payload).
  static SolutionSet of(ObjVec points) {
    SolutionSet s;
    s.objs_ = pareto_filter(std::move(points));
    return s;
  }

  /// Pareto-filters candidates, recording each survivor's index into the
  /// input as payload (for gathering parallel arrays; see take_payload).
  /// The scratch form reuses caller-owned buffers (e.g. a worker thread's
  /// FilterScratch) so selection allocates only the result.
  static SolutionSet select(std::span<const Objective> candidates,
                            FilterScratch& scratch) {
    SolutionSet s;
    const auto kept = filter_indices(
        candidates.size(), [&](std::uint32_t i) -> const Objective& {
          return candidates[i];
        },
        scratch);
    s.objs_.reserve(kept.size());
    s.payload_.reserve(kept.size());
    for (std::uint32_t i : kept) {
      s.objs_.push_back(candidates[i]);
      s.payload_.push_back(i);
    }
    return s;
  }

  static SolutionSet select(std::span<const Objective> candidates) {
    FilterScratch scratch;
    return select(candidates, scratch);
  }

  /// Adopts points already in staircase order (debug-asserted).  Producers
  /// whose construction guarantees the invariant — e.g. a DP whose final
  /// state is filtered in objective order — use this to skip a re-sort.
  static SolutionSet adopt_staircase(ObjVec points) {
    SolutionSet s;
    s.objs_ = std::move(points);
    assert(s.invariant_ok());
    return s;
  }

  // ---- container view (read) ----
  std::size_t size() const { return objs_.size(); }
  bool empty() const { return objs_.empty(); }
  const Objective& operator[](std::size_t i) const { return objs_[i]; }
  const Objective& front() const { return objs_.front(); }
  const Objective& back() const { return objs_.back(); }
  ObjVec::const_iterator begin() const { return objs_.begin(); }
  ObjVec::const_iterator end() const { return objs_.end(); }
  std::span<const Objective> objectives() const { return objs_; }
  /// Seamless interop with every span-taking consumer (covers, hypervolume,
  /// normalize, eval::*, ...).
  operator std::span<const Objective>() const { return objs_; }  // NOLINT

  std::span<const std::uint32_t> payload() const { return payload_; }
  bool has_payload() const { return !payload_.empty(); }
  void strip_payload() { payload_.clear(); }

  // ---- mutation ----
  void clear() {
    objs_.clear();
    payload_.clear();
  }
  void reserve(std::size_t n) { objs_.reserve(n); }

  /// Appends without filtering; the caller re-establishes the invariant via
  /// filter() (or appends in staircase order).
  void append_raw(const Objective& obj) { objs_.push_back(obj); }
  void append_raw(const Objective& obj, std::uint32_t tag) {
    objs_.push_back(obj);
    payload_.push_back(tag);
  }

  /// In-place S + x of Eq. (1): both coordinates shift by an edge length.
  /// The staircase is translation-invariant, so no re-filter is needed.
  void shift(Length x) {
    for (Objective& o : objs_) {
      o.w += x;
      o.d += x;
    }
  }

  /// In-place Pareto(·) of Eq. (1): drops dominated/duplicate points and
  /// sorts survivors into staircase order, carrying payload along.  No
  /// allocations once the scratch capacity has warmed up.
  void filter(FilterScratch& scratch) {
    const auto kept = filter_indices(
        objs_.size(),
        [&](std::uint32_t i) -> const Objective& { return objs_[i]; },
        scratch);
    scratch.tmp_objs.clear();
    for (std::uint32_t i : kept) scratch.tmp_objs.push_back(objs_[i]);
    objs_.swap(scratch.tmp_objs);
    if (!payload_.empty()) {
      scratch.tmp_payload.clear();
      for (std::uint32_t i : kept) scratch.tmp_payload.push_back(payload_[i]);
      payload_.swap(scratch.tmp_payload);
    }
  }

  /// Convenience filter with a throwaway scratch (cold paths).
  void filter() {
    FilterScratch scratch;
    filter(scratch);
  }

  /// S ⊕ S' of Eq. (1) into `out` (which must not alias a or b):
  /// wirelengths add, delays take the max, then Pareto-filter.  Payload is
  /// not propagated (a merged point has two parents).
  static void merge(const SolutionSet& a, const SolutionSet& b,
                    SolutionSet& out, FilterScratch& scratch) {
    assert(&out != &a && &out != &b);
    out.clear();
    out.reserve(a.size() * b.size());
    for (const Objective& pa : a.objs_)
      for (const Objective& pb : b.objs_)
        out.objs_.push_back(Objective{pa.w + pb.w, std::max(pa.d, pb.d)});
    out.filter(scratch);
  }

  /// Checks the staircase invariant (w strictly ascending, d strictly
  /// descending) and payload alignment.  O(n); used by asserts and tests.
  bool invariant_ok() const {
    if (!payload_.empty() && payload_.size() != objs_.size()) return false;
    for (std::size_t i = 1; i < objs_.size(); ++i)
      if (objs_[i].w <= objs_[i - 1].w || objs_[i].d >= objs_[i - 1].d)
        return false;
    return true;
  }

  /// Surrenders the objective storage (e.g. to feed a pure function that
  /// takes ObjVec by value).
  ObjVec release() {
    payload_.clear();
    return std::move(objs_);
  }

  friend bool operator==(const SolutionSet& a, const SolutionSet& b) {
    return a.objs_ == b.objs_;
  }
  /// Heterogeneous compare against a raw frontier (C++20 synthesizes the
  /// reversed form) — lets existing golden tests keep their ObjVec side.
  friend bool operator==(const SolutionSet& a, const ObjVec& b) {
    return a.objs_ == b;
  }

  friend std::ostream& operator<<(std::ostream& os, const SolutionSet& s) {
    os << "SolutionSet{";
    for (std::size_t i = 0; i < s.objs_.size(); ++i)
      os << (i == 0 ? "" : ", ") << "(" << s.objs_[i].w << ","
         << s.objs_[i].d << ")";
    return os << "}";
  }

 private:
  ObjVec objs_;
  std::vector<std::uint32_t> payload_;
};

/// Gathers the payload-selected entries out of `items` (moving them),
/// returning the compacted vector parallel to `set`, and strips the
/// payload — after this the set and the returned vector line up index for
/// index.  A set without payload means "items are already parallel": they
/// are returned unchanged.
template <typename T>
std::vector<T> take_payload(SolutionSet& set, std::vector<T>&& items) {
  if (!set.has_payload()) return std::move(items);
  std::vector<T> out;
  out.reserve(set.size());
  for (std::uint32_t i : set.payload()) out.push_back(std::move(items[i]));
  set.strip_payload();
  return out;
}

}  // namespace patlabor::pareto
