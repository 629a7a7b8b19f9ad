// Chunked data-parallel loops over index ranges.
//
// parallel_for / parallel_reduce split [begin, end) into grains and run them
// on a ThreadPool. The grain is the "chunk" of the paper's chunking
// discussion: each task touches a contiguous slab of the columnar tables, so
// memory is streamed, not random-accessed. Grain size is an explicit
// parameter so bench_e4_chunking can sweep it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/require.hpp"

namespace riskan {

struct ParallelConfig {
  /// Pool to run on; nullptr means ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// Indices per task; 0 lets the library pick (range / (8 * threads),
  /// clamped to at least 1).
  std::size_t grain = 0;
};

namespace detail {

inline std::size_t resolve_grain(std::size_t range, std::size_t threads, std::size_t grain) {
  if (grain > 0) {
    return grain;
  }
  const std::size_t tasks = threads * 8;
  return std::max<std::size_t>(1, range / std::max<std::size_t>(1, tasks));
}

/// How parallel_for / parallel_reduce cut a range of `range` indices under
/// `cfg`: the pool the chunks run on — null when the range runs inline as
/// one chunk, without touching (or lazily constructing) any pool, which
/// sequential callers rely on — and the indices per chunk.
struct Split {
  ThreadPool* pool = nullptr;
  std::size_t grain = 0;
};

inline Split split(std::size_t range, const ParallelConfig& cfg) {
  if (cfg.grain >= range) {
    return {nullptr, range};
  }
  ThreadPool& pool = cfg.pool ? *cfg.pool : ThreadPool::shared();
  const std::size_t grain = resolve_grain(range, pool.thread_count(), cfg.grain);
  if (range <= grain || pool.thread_count() == 1) {
    return {nullptr, range};
  }
  return {&pool, grain};
}

/// Blocks until `remaining` reaches zero. A tiny latch (std::latch needs a
/// fixed count at construction, which the chunk loop computes anyway, but
/// this version also lets the caller run chunks inline when the pool is the
/// calling thread's own).
class TaskGate {
 public:
  explicit TaskGate(std::size_t count) : remaining_(count) {}

  void done() {
    std::lock_guard lock(mutex_);
    if (--remaining_ == 0) {
      cv_.notify_all();
    }
  }

  void wait() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t remaining_;
};

}  // namespace detail

/// Runs body(chunk_begin, chunk_end) for consecutive chunks of [begin, end).
/// The body must be safe to call concurrently on disjoint chunks.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  ParallelConfig cfg = {}) {
  RISKAN_REQUIRE(begin <= end, "parallel_for range is inverted");
  if (begin == end) {
    return;
  }
  const std::size_t range = end - begin;
  const auto [pool, grain] = detail::split(range, cfg);
  if (pool == nullptr) {
    body(begin, end);
    return;
  }

  const std::size_t chunks = (range + grain - 1) / grain;
  detail::TaskGate gate(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = std::min(end, lo + grain);
    pool->submit([&body, &gate, lo, hi] {
      body(lo, hi);
      gate.done();
    });
  }
  gate.wait();
}

/// Parallel reduction: `chunk_fn(lo, hi)` produces a partial of type T for
/// each chunk; partials are combined left-to-right with `combine` (chunk
/// order, so floating-point reductions are deterministic for a fixed grain).
template <typename T, typename ChunkFn, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T identity, const ChunkFn& chunk_fn,
                  const Combine& combine, ParallelConfig cfg = {}) {
  RISKAN_REQUIRE(begin <= end, "parallel_reduce range is inverted");
  if (begin == end) {
    return identity;
  }
  const std::size_t range = end - begin;
  const auto [pool, grain] = detail::split(range, cfg);
  if (pool == nullptr) {
    return combine(std::move(identity), chunk_fn(begin, end));
  }

  const std::size_t chunks = (range + grain - 1) / grain;
  std::vector<T> partials(chunks, identity);
  detail::TaskGate gate(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * grain;
    const std::size_t hi = std::min(end, lo + grain);
    pool->submit([&chunk_fn, &partials, &gate, c, lo, hi] {
      partials[c] = chunk_fn(lo, hi);
      gate.done();
    });
  }
  gate.wait();

  T result = std::move(identity);
  for (auto& partial : partials) {
    result = combine(std::move(result), std::move(partial));
  }
  return result;
}

}  // namespace riskan
