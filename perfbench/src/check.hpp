// Output checks: bit-for-bit comparison of loss columns, and fingerprints
// for references too large to keep once per scenario.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/aggregate_engine.hpp"

namespace perfbench {

inline constexpr std::uint64_t kFingerprintSeed = 14695981039346656037ull;

/// FNV-1a style mix over the 64-bit patterns of `values`, chained from `h`.
/// Any changed bit (including +0.0 vs -0.0) changes the result with
/// overwhelming probability; the column length is mixed in too.
inline std::uint64_t fingerprint(std::span<const double> values,
                                 std::uint64_t h = kFingerprintSeed) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  h = (h ^ values.size()) * kPrime;
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * kPrime;
    h ^= h >> 29;
  }
  return h;
}

/// True when both columns hold exactly the same bits.
inline bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// Every loss column an engine run returns, in a fixed order.
inline std::vector<std::span<const double>> columns(const riskan::core::EngineResult& r) {
  std::vector<std::span<const double>> out = {r.portfolio_ylt.losses(),
                                              r.portfolio_occurrence_ylt.losses(),
                                              r.reinstatement_premium.losses()};
  for (const auto& ylt : r.contract_ylts) {
    out.push_back(ylt.losses());
  }
  return out;
}

inline std::uint64_t fingerprint(const riskan::core::EngineResult& r) {
  std::uint64_t h = kFingerprintSeed;
  for (const auto column : columns(r)) {
    h = fingerprint(column, h);
  }
  return h;
}

inline bool same_bits(const riskan::core::EngineResult& a, const riskan::core::EngineResult& b) {
  const auto ca = columns(a);
  const auto cb = columns(b);
  if (ca.size() != cb.size()) {
    return false;
  }
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (!same_bits(ca[i], cb[i])) {
      return false;
    }
  }
  return true;
}

/// Flips the lowest mantissa bit of the first loss: a deliberately
/// corrupted reference, for showing that the checks can fail.
inline void corrupt(riskan::core::EngineResult& r) {
  auto losses = r.portfolio_ylt.mutable_losses();
  if (!losses.empty()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &losses[0], sizeof bits);
    bits ^= 1u;
    std::memcpy(&losses[0], &bits, sizeof bits);
  }
}

}  // namespace perfbench
