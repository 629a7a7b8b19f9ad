// 64-byte-aligned storage for the engine's SoA gather columns.
//
// The vectorized trial kernel (src/core/batch_simd.hpp) issues wide loads
// and gathers against the compact resolution columns
// (data::CompactResolvedYelt), the ELT mean column and the scenario mask
// columns.
// Aligning those allocations to the cache line guarantees a vector load of
// the column head never straddles a line and keeps gather bases on the
// layout the wide ISAs are happiest with. The allocator is a drop-in
// std::vector policy, so every existing span/data() consumer is unchanged.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

namespace riskan::util {

/// Alignment of the engine's gather columns (one x86 cache line; ≥ any
/// vector width the kernels use).
inline constexpr std::size_t kColumnAlign = 64;

/// Minimal aligned-new allocator: std::allocator semantics with every
/// allocation on an `Align` boundary.
template <typename T, std::size_t Align = kColumnAlign>
class AlignedAllocator {
 public:
  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of two");
  static_assert(Align >= alignof(T), "alignment must not weaken the type's own");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{Align}));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U, Align>&) const noexcept {
    return false;
  }
};

/// std::vector with cache-line-aligned storage — the type of every SoA
/// gather column.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

inline bool is_aligned(const void* p, std::size_t align = kColumnAlign) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & (align - 1)) == 0;
}

}  // namespace riskan::util

/// Debug-build check that a column's storage landed on the alignment the
/// vector kernels assume (empty vectors may hand out null/unaligned data()).
#ifndef NDEBUG
#define RISKAN_DEBUG_ASSERT_ALIGNED(ptr) \
  assert(((ptr) == nullptr || ::riskan::util::is_aligned(ptr)) && "column not 64-byte aligned")
#else
#define RISKAN_DEBUG_ASSERT_ALIGNED(ptr) ((void)0)
#endif
