// Streaming ordered flush for parallel producers.
//
// Workers complete items out of index order; OrderedSink releases them to a
// consumer callback strictly in index order, holding out-of-order items in
// a pending map until the contiguous prefix is complete.  Used by the
// engine to flush per-net telemetry events in net order under --jobs N
// (the file layout becomes scheduling-independent) without waiting for the
// whole batch.
//
// The callback runs under the sink's mutex — it must be fast and must not
// re-enter put().  Memory is bounded by the out-of-order window.  Fed from
// par::parallel_transform, that window can span most of a batch: a lane's
// results wait until every lower-indexed range has finished.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <utility>

namespace patlabor::par {

template <typename T>
class OrderedSink {
 public:
  /// `consume` receives every item exactly once, in ascending index order
  /// starting at `start`.
  explicit OrderedSink(std::function<void(T&&)> consume,
                       std::size_t start = 0)
      : consume_(std::move(consume)), next_(start) {}

  /// Hands item `index` to the sink.  Each index must be put exactly once;
  /// the contiguous prefix is flushed before returning.
  void put(std::size_t index, T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (index != next_) {
      pending_.emplace(index, std::move(item));
      return;
    }
    consume_(std::move(item));
    ++next_;
    auto it = pending_.begin();
    while (it != pending_.end() && it->first == next_) {
      consume_(std::move(it->second));
      it = pending_.erase(it);
      ++next_;
    }
  }

  /// Next index the sink is waiting for (== items flushed when started
  /// at 0).
  std::size_t flushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_;
  }

  /// Items held back waiting for the prefix (0 once every index arrived).
  std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }

 private:
  mutable std::mutex mu_;
  std::function<void(T&&)> consume_;
  std::size_t next_;
  std::map<std::size_t, T> pending_;
};

}  // namespace patlabor::par
