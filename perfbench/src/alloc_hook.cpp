// Counting replacement of the global operator new, in the style of
// bench/alloc_hook.hpp but with per-thread slots that are plain relaxed
// stores: a shared atomic counter would put one contended cache line on
// every allocation of every pool worker and slow the routing it measures.
// Counting is off until set_alloc_counting(true), so an untraced run pays
// one well-predicted branch per allocation.
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#include "bench_util.hpp"

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};

/// One thread's counter.  Slots are never freed: a pool worker that exits
/// keeps its count in the sum.
struct Slot {
  std::atomic<std::uint64_t> count{0};
};

struct Registry {
  std::mutex mu;
  std::vector<Slot*> slots;
};

Registry& registry() {
  // Immortal (worker threads may outlive static destruction) and built by
  // placement new, so its initialization never re-enters operator new.
  alignas(Registry) static unsigned char storage[sizeof(Registry)];
  static Registry* r = ::new (static_cast<void*>(storage)) Registry;
  return *r;
}

Slot* local_slot() {
  thread_local Slot* slot = nullptr;
  thread_local bool registering = false;
  if (slot == nullptr && !registering) {
    registering = true;  // the registration below allocates
    auto* s = new Slot;
    Registry& r = registry();
    {
      std::lock_guard<std::mutex> lock(r.mu);
      r.slots.push_back(s);
    }
    slot = s;
    registering = false;
  }
  return slot;
}

}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t sum = 0;
  for (const Slot* s : r.slots) sum += s->count.load(std::memory_order_relaxed);
  return sum;
}

}  // namespace perfbench

namespace {

void count_one() {
  if (!perfbench::g_counting.load(std::memory_order_relaxed)) return;
  if (auto* s = perfbench::local_slot()) {
    // Only the owning thread writes its slot: load + store, no RMW.
    s->count.store(s->count.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  }
}

void* allocate(std::size_t n) {
  count_one();
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  count_one();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count_one();
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  count_one();
  return std::malloc(n != 0 ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
