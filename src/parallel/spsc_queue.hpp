// Bounded single-producer / single-consumer ring buffer.
//
// The handoff of data::ChunkedFileSource's prefetch pipeline: its one
// prefetch thread pushes decoded trial blocks and the engine pops them. The
// implementation is the classic Lamport ring with C++20 atomics:
// wait-free for both sides, one cache line per index to avoid false sharing.
#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <optional>
#include <vector>

#include "util/require.hpp"

namespace riskan {

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to a power of two (mask indexing).
  explicit SpscQueue(std::size_t capacity) {
    RISKAN_REQUIRE(capacity >= 2, "queue capacity must be at least 2");
    std::size_t pow2 = 2;
    while (pow2 < capacity) {
      pow2 <<= 1;
    }
    buffer_.resize(pow2);
    mask_ = pow2 - 1;
  }

  /// Attempts to enqueue; returns false when full.
  bool try_push(T value) {
    const auto head = head_.load(std::memory_order_relaxed);
    const auto tail = tail_.load(std::memory_order_acquire);
    if (head - tail > mask_) {
      return false;
    }
    buffer_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Attempts to dequeue; returns nullopt when empty.
  std::optional<T> try_pop() {
    const auto tail = tail_.load(std::memory_order_relaxed);
    const auto head = head_.load(std::memory_order_acquire);
    if (tail == head) {
      return std::nullopt;
    }
    T value = std::move(buffer_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  bool empty() const {
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  // 64 bytes covers current x86/ARM cache lines; the dynamic
  // hardware_destructive_interference_size constant is deliberately not
  // used (gcc warns that it is ABI-unstable across -mtune values).
  static constexpr std::size_t kCacheLine = 64;

  std::vector<T> buffer_;
  std::size_t mask_ = 0;
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
};

}  // namespace riskan
