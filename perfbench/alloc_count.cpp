// Counting replacement for the global operator new.  The array and
// nothrow forms in libstdc++ forward to these two, and the matching
// operator delete forms free() what malloc / aligned_alloc returned, so
// only the allocating side is replaced.
//
// Each thread counts into its own cache line (threads share a line only
// past kSlots threads), so the campaign's pool threads do not contend on
// one counter.  Nothing here allocates.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace {

constexpr unsigned kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
thread_local const unsigned t_slot =
    g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;

void count_one() noexcept {
  g_slots[t_slot].count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

namespace perfbench {

bool heap_counting() noexcept { return true; }

std::uint64_t heap_allocations() noexcept {
  std::uint64_t sum = 0;
  for (const auto& slot : g_slots) {
    sum += slot.count.load(std::memory_order_relaxed);
  }
  return sum;
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  count_one();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  count_one();
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
