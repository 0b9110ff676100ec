/// Replacement global operator new/delete for the benchmark binary: plain
/// malloc/free plus a call counter that is live only while the traced run
/// turns counting on. The simulator's own sources are compiled unchanged;
/// the replacement reaches them because it is linked into this executable.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

inline void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
}

void* checked_malloc(std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n != 0 ? n : 1))
    return p;
  throw std::bad_alloc();
}

void* checked_aligned(std::size_t n, std::align_val_t al) {
  note_alloc();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;  // aligned_alloc wants a multiple
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a))
    return p;
  throw std::bad_alloc();
}
}  // namespace

namespace rb::alloc {
void set_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t count() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace rb::alloc

void* operator new(std::size_t n) { return checked_malloc(n); }
void* operator new[](std::size_t n) { return checked_malloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) { return checked_aligned(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return checked_aligned(n, al); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
