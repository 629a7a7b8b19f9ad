// Process-unique identity of an immutable table, for caches keyed on it.
#pragma once

#include <atomic>
#include <cstdint>

namespace riskan::util {

/// A table's generation: a number no other live table holds. Every
/// constructed or copied table draws a fresh one from one process-wide
/// counter; a move hands the number to the destination and gives the
/// moved-from table a fresh one. A cache keyed on generations
/// (data::ResolverCache) therefore never mistakes a new table for a freed
/// one whose address, shape or sampled contents it happens to share,
/// while a table that is only moved (into a contract, a container, a
/// return value) keeps hitting.
class Generation {
 public:
  Generation() noexcept : value_(next()) {}
  Generation(const Generation&) noexcept : value_(next()) {}
  Generation(Generation&& other) noexcept : value_(other.value_) { other.value_ = next(); }
  Generation& operator=(const Generation&) noexcept {
    value_ = next();
    return *this;
  }
  Generation& operator=(Generation&& other) noexcept {
    value_ = other.value_;
    other.value_ = next();
    return *this;
  }

  std::uint64_t value() const noexcept { return value_; }

 private:
  static std::uint64_t next() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::uint64_t value_;
};

}  // namespace riskan::util
