#include "patlabor/par/pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "patlabor/obs/obs.hpp"
#include "patlabor/obs/timed_mutex.hpp"
#include "patlabor/obs/trace.hpp"
#include "patlabor/util/str.hpp"

namespace patlabor::par {

namespace {

/// The worker lane of the current thread, valid for the pool whose Impl
/// pointer matches t_worker_pool (workers never migrate between pools).
thread_local const void* t_worker_pool = nullptr;
thread_local std::size_t t_worker_lane = 0;

#if PATLABOR_OBS_ENABLED
/// Task-nesting depth on this thread.  A task that submits a nested batch
/// executes inner tasks inside its own timed window, so lane busy time is
/// accumulated only at depth 0 — otherwise nested work would be counted
/// twice and per-lane busy could exceed wall clock.
thread_local int t_task_depth = 0;

/// run() nesting depth on this thread; only depth-1 non-worker batches
/// count toward ThreadPool::batch_wall_us().
thread_local int t_run_depth = 0;

/// RAII accumulator for the top-level batch wall clock.
class BatchWallScope {
 public:
  BatchWallScope(std::atomic<std::uint64_t>& wall, bool top_candidate,
                 bool recording) {
    ++t_run_depth;
    if (recording && top_candidate && t_run_depth == 1) {
      acc_ = &wall;
      t0_ = obs::now_us();
    }
  }
  ~BatchWallScope() {
    --t_run_depth;
    if (acc_ != nullptr)
      acc_->fetch_add(obs::now_us() - t0_, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>* acc_ = nullptr;
  std::uint64_t t0_ = 0;
};
#endif  // PATLABOR_OBS_ENABLED

}  // namespace

/// One submitted batch of n index-tasks, drained cooperatively by workers
/// and the submitting thread: one ShardRange per lane, owners popping the
/// front and thieves chunk-stealing from the tail.
struct ThreadPool::Batch {
  /// One lane's contiguous index range, packed {head:32, tail:32} into a
  /// single atomic so owner pops and tail steals serialize through one CAS.
  /// Indices in [head, tail) are unclaimed.
  struct alignas(64) ShardRange {
    std::atomic<std::uint64_t> range{0};
  };
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
  static constexpr std::uint64_t pack(std::uint64_t head,
                                      std::uint64_t tail) noexcept {
    return (head << 32) | tail;
  }

  Batch(const std::function<void(std::size_t)>& f, std::size_t count,
        std::size_t lanes)
      : fn(&f),
        n(count),
        shards(std::make_unique<ShardRange[]>(lanes)),
        num_shards(lanes) {
    for (std::size_t k = 0; k < lanes; ++k)
      shards[k].range.store(pack(k * n / lanes, (k + 1) * n / lanes),
                            std::memory_order_relaxed);
  }

  const std::function<void(std::size_t)>* fn;
  std::size_t n;
  /// Whether the obs runtime was on at submit; lane timings follow it.
  bool timed = false;
  /// Submission timestamp (obs::now_us) when timed.
  std::uint64_t submit_us = 0;
  std::unique_ptr<ShardRange[]> shards;
  std::size_t num_shards;
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  // First (lowest-index) exception wins so failures are deterministic.
  std::exception_ptr err;
  std::size_t err_index = npos;

  /// True once every index has been claimed (not necessarily finished);
  /// the batch can then leave the pool queue.
  bool fully_claimed() const noexcept {
    for (std::size_t s = 0; s < num_shards; ++s) {
      const std::uint64_t r = shards[s].range.load(std::memory_order_relaxed);
      if ((r >> 32) < (r & 0xFFFFFFFFu)) return false;
    }
    return true;
  }

  /// Owner-side pop: claims the lowest unclaimed index of `shard`, or npos.
  static std::size_t claim_front(ShardRange& shard) noexcept {
    std::uint64_t cur = shard.range.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t head = cur >> 32;
      const std::uint64_t tail = cur & 0xFFFFFFFFu;
      if (head >= tail) return npos;
      if (shard.range.compare_exchange_weak(cur, pack(head + 1, tail),
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed))
        return static_cast<std::size_t>(head);
    }
  }

  /// Thief-side chunk steal: detaches the upper half (at least one index)
  /// of `shard`'s remainder.  Returns {begin, end}, empty when nothing is
  /// left.  Stealing from the tail keeps the owner's front pops and the
  /// thief's range disjoint by construction.
  static std::pair<std::size_t, std::size_t> steal_back(
      ShardRange& shard) noexcept {
    std::uint64_t cur = shard.range.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t head = cur >> 32;
      const std::uint64_t tail = cur & 0xFFFFFFFFu;
      if (head >= tail) return {0, 0};
      const std::uint64_t take = (tail - head + 1) / 2;
      if (shard.range.compare_exchange_weak(cur, pack(head, tail - take),
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed))
        return {static_cast<std::size_t>(tail - take),
                static_cast<std::size_t>(tail)};
    }
  }

  /// Runs fn(i) under the per-task accounting every path shares, the
  /// inline one included; `lane` is null when the obs runtime was off at
  /// submit.  Exceptions propagate.
  static void run_task(const std::function<void(std::size_t)>& fn,
                       std::size_t i, LaneStats* lane,
                       std::uint64_t& wait_from) {
#if PATLABOR_OBS_ENABLED
    // Unwinds with a throwing task too.  The pool.task span opens before
    // the body, so spans the body records nest under it in phase tables.
    struct Scope {
      explicit Scope(LaneStats* l)
          : lane(l),
            outermost(t_task_depth++ == 0),
            t0(l != nullptr ? obs::now_us() : 0) {}
      ~Scope() {
        --t_task_depth;
        if (lane == nullptr) return;
        if (outermost)
          lane->busy_us.fetch_add(obs::now_us() - t0,
                                  std::memory_order_relaxed);
        lane->tasks.fetch_add(1, std::memory_order_relaxed);
      }
      LaneStats* lane;
      bool outermost;
      std::uint64_t t0;
      obs::TraceSpan span{"pool.task"};
    } scope(lane);
    // Per-lane handoff latency: batch submit -> this lane's first claim.
    if (lane != nullptr && wait_from != 0) {
      if (scope.t0 > wait_from)
        lane->queue_wait_us.fetch_add(scope.t0 - wait_from,
                                      std::memory_order_relaxed);
      wait_from = 0;
    }
#else
    (void)lane;
    (void)wait_from;
#endif
    fn(i);
  }

  /// Runs task i, keeps the lowest-index exception, and wakes the
  /// submitter once the last task finished.
  void run_one(std::size_t i, LaneStats* timing, std::uint64_t& wait_from) {
    try {
      run_task(*fn, i, timing, wait_from);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (i < err_index) {
        err_index = i;
        err = std::current_exception();
      }
    }
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
    }
  }

  /// Drain for the lane `self`: exhaust the own range first, then scan the
  /// other lanes round-robin and steal chunks until every shard is empty.
  /// Stolen chunks run in ascending index order; which lane ran an index
  /// never affects the output (results land by index, events are
  /// re-ordered by par::OrderedSink), so stealing preserves determinism.
  void drain(std::size_t self, LaneStats& lane) {
    LaneStats* timing = timed ? &lane : nullptr;
    std::uint64_t wait_from = submit_us;
    for (std::size_t i; (i = claim_front(shards[self])) != npos;)
      run_one(i, timing, wait_from);
    for (;;) {
      bool stole = false;
      for (std::size_t off = 1; off <= num_shards; ++off) {
        const std::size_t victim = (self + off) % num_shards;
        const auto [begin, end] = steal_back(shards[victim]);
        if (begin == end) continue;
        stole = true;
        // Steal events are scheduler facts, not timings: always counted.
        lane.steals.fetch_add(1, std::memory_order_relaxed);
        lane.stolen_tasks.fetch_add(end - begin, std::memory_order_relaxed);
        PL_COUNT("par.pool.steals", 1);
        PL_COUNT("par.pool.stolen_tasks", end - begin);
        for (std::size_t i = begin; i < end; ++i)
          run_one(i, timing, wait_from);
        break;  // restart the scan so the nearest loaded lane is preferred
      }
      if (!stole) return;
    }
  }
};

struct ThreadPool::Impl {
  /// Batch-queue lock; wait accounting surfaces scheduler contention as
  /// the par.pool.lock.* metric family (see DESIGN.md §6.2).
  obs::TimedMutex mu{"par.pool.lock"};
  std::condition_variable_any cv;
  std::deque<std::shared_ptr<Batch>> queue;
  bool stop = false;
  std::vector<std::thread> workers;
  LaneStats* lanes = nullptr;  // borrowed from the owning pool

  void worker_main(std::size_t index) {
    obs::set_thread_name("pool.worker-" + std::to_string(index));
    t_worker_pool = this;
    t_worker_lane = index;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<obs::TimedMutex> lock(mu);
        cv.wait(lock, [&] { return stop || !queue.empty(); });
        if (stop && queue.empty()) return;
        batch = queue.front();
        // Leave the batch visible until exhausted so every idle worker can
        // join it; drop it once all of its indices have been claimed.
        if (batch->fully_claimed()) queue.pop_front();
      }
      batch->drain(index, lanes[index]);
      std::lock_guard<obs::TimedMutex> lock(mu);
      if (!queue.empty() && queue.front() == batch && batch->fully_claimed())
        queue.pop_front();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads == 0 ? 1 : threads),
      lanes_(std::make_unique<LaneStats[]>(size_)) {
  PL_GAUGE_SET("par.pool.size", size_);
  if (size_ == 1) return;  // inline fallback: no workers, no queue
  impl_ = new Impl;
  impl_->lanes = lanes_.get();
  impl_->workers.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i)
    impl_->workers.emplace_back([this, i] { impl_->worker_main(i); });
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<obs::TimedMutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

std::size_t ThreadPool::lane_of_caller() const noexcept {
  if (impl_ != nullptr && t_worker_pool == impl_) return t_worker_lane;
  return size_ - 1;
}

void ThreadPool::run(std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("ThreadPool::run: " + std::to_string(n) +
                            " tasks, the limit is 2^32 - 1");
  if (n == 0) return;
  const std::size_t lane = lane_of_caller();
  LaneStats* timing = nullptr;
#if PATLABOR_OBS_ENABLED
  const bool rec = obs::enabled();
  if (rec) timing = &lanes_[lane];
  BatchWallScope wall(batch_wall_us_, lane == size_ - 1, rec);
#endif
  // The inline fallback and 1-task batches have nothing to share or steal.
  if (impl_ == nullptr || n == 1) {
    std::uint64_t no_wait = 0;
    for (std::size_t i = 0; i < n; ++i)
      Batch::run_task(fn, i, timing, no_wait);
    return;
  }
  auto batch = std::make_shared<Batch>(fn, n, size_);
  if (timing != nullptr) {
    batch->timed = true;
    batch->submit_us = obs::now_us();
  }
  [[maybe_unused]] std::size_t depth = 0;  // read by PL_GAUGE_SET only
  {
    std::lock_guard<obs::TimedMutex> lock(impl_->mu);
    impl_->queue.push_back(batch);
    depth = impl_->queue.size();
  }
  // Sampled on every submit: how many batches were pending at that moment.
  PL_GAUGE_SET("par.pool.queue_depth", depth);
  impl_->cv.notify_all();
  // The submitting thread is a full participant.
  batch->drain(lane, lanes_[lane]);
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->n;
    });
  }
  PL_COUNT("par.pool.batches", 1);
  PL_COUNT("par.pool.tasks", n);
  PL_HIST("par.pool.batch_tasks", n);
  if (batch->err) std::rethrow_exception(batch->err);
}

std::vector<WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out[i].tasks = lanes_[i].tasks.load(std::memory_order_relaxed);
    out[i].busy_us = lanes_[i].busy_us.load(std::memory_order_relaxed);
    out[i].queue_wait_us =
        lanes_[i].queue_wait_us.load(std::memory_order_relaxed);
    out[i].steals = lanes_[i].steals.load(std::memory_order_relaxed);
    out[i].stolen_tasks =
        lanes_[i].stolen_tasks.load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t ThreadPool::batch_wall_us() const {
  return batch_wall_us_.load(std::memory_order_relaxed);
}

PoolLockStats ThreadPool::lock_stats() const {
  PoolLockStats out;
  if (impl_ == nullptr) return out;
  const obs::LockStats s = impl_->mu.stats();
  out.acquisitions = s.acquisitions;
  out.contentions = s.contentions;
  out.wait_us = s.wait_us;
  return out;
}

void ThreadPool::reset_stats() {
  for (std::size_t i = 0; i < size_; ++i) {
    lanes_[i].tasks.store(0, std::memory_order_relaxed);
    lanes_[i].busy_us.store(0, std::memory_order_relaxed);
    lanes_[i].queue_wait_us.store(0, std::memory_order_relaxed);
    lanes_[i].steals.store(0, std::memory_order_relaxed);
    lanes_[i].stolen_tasks.store(0, std::memory_order_relaxed);
  }
  batch_wall_us_.store(0, std::memory_order_relaxed);
  if (impl_ != nullptr) impl_->mu.reset_stats();
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
std::size_t g_jobs = 0;  // 0 = unresolved

std::size_t resolve_default_jobs() {
  if (const char* env = std::getenv("PATLABOR_JOBS")) {
    const auto v = util::parse_u64(env);
    if (v && *v >= 1) return static_cast<std::size_t>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

std::size_t jobs() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_jobs == 0) g_jobs = resolve_default_jobs();
  return g_jobs;
}

void set_jobs(std::size_t n) {
  if (n == 0) n = 1;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_jobs = n;
  if (g_pool != nullptr && g_pool->size() != n) g_pool.reset();
}

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_jobs == 0) g_jobs = resolve_default_jobs();
  if (g_pool == nullptr) g_pool = std::make_unique<ThreadPool>(g_jobs);
  return *g_pool;
}

ThreadPool& inline_pool() {
  static ThreadPool pool(1);
  return pool;
}

std::uint64_t task_seed(std::uint64_t base_seed,
                        std::uint64_t task_index) noexcept {
  // splitmix64 finalizer over the pair; full avalanche keeps neighbouring
  // task indices statistically independent.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace patlabor::par
