#include "core/adaptive/stratified.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/portfolio_batch.hpp"
#include "core/secondary.hpp"
#include "obs/obs.hpp"
#include "util/alias_table.hpp"
#include "util/distributions.hpp"
#include "util/prng.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::core::adaptive {

namespace {

/// Golden-ratio stream split: distinct, deterministic sub-seeds for the
/// per-stratum shuffles and per-round interleaves.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed + 0x9e3779b97f4a7c15ull * (stream + 1);
}

/// Seeded Fisher-Yates: the stratum's deterministic without-replacement
/// draw order.
void shuffle_members(std::vector<TrialId>& members, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  for (std::size_t i = members.size(); i > 1; --i) {
    std::swap(members[i - 1], members[sample_index(rng, i)]);
  }
}

}  // namespace

void validate_stratified_config(const StratifiedConfig& config) {
  RISKAN_REQUIRE(config.strata >= 1 && config.strata <= 4096,
                 "stratified sampling needs between 1 and 4096 strata");
  RISKAN_REQUIRE(config.pilot_per_stratum >= 2 &&
                     config.pilot_per_stratum <= (TrialId{1} << 20),
                 "pilot_per_stratum must be in [2, 2^20] (variance needs 2 draws)");
  RISKAN_REQUIRE(config.round_trials >= 1, "round_trials must be positive");
  RISKAN_REQUIRE(config.max_trials >= 1, "max_trials must be positive");
  RISKAN_REQUIRE(config.target_rel_err >= 0.0 && config.target_rel_err < 1.0,
                 "target_rel_err must be in [0, 1)");
  RISKAN_REQUIRE(config.confidence > 0.5 && config.confidence < 1.0,
                 "confidence must be in (0.5, 1)");
}

StrataPartition StrataPartition::build(const data::YearEventLossTable& yelt,
                                       std::size_t strata) {
  RISKAN_REQUIRE(strata >= 1, "need at least one stratum");
  const TrialId trials = yelt.trials();
  RISKAN_REQUIRE(trials > 0, "cannot stratify an empty table");
  const auto offsets = yelt.offsets();

  // Histogram of occurrence counts; cuts go between distinct counts only,
  // so equal-frequency trials can never split across strata.
  std::vector<std::uint64_t> counts(trials);
  std::uint64_t max_count = 0;
  for (TrialId t = 0; t < trials; ++t) {
    counts[t] = offsets[t + 1] - offsets[t];
    max_count = std::max(max_count, counts[t]);
  }
  std::vector<TrialId> histogram(max_count + 1, 0);
  for (const std::uint64_t c : counts) {
    ++histogram[c];
  }

  StrataPartition part;
  const TrialId target = (trials + static_cast<TrialId>(strata) - 1) /
                         static_cast<TrialId>(strata);
  std::uint64_t lo = 0;
  TrialId in_stratum = 0;
  for (std::uint64_t c = 0; c <= max_count; ++c) {
    in_stratum += histogram[c];
    const bool last = c == max_count;
    if (in_stratum == 0 && !last) {
      continue;  // leading empty counts fold into the next stratum
    }
    if (in_stratum >= target || last ||
        part.lo_.size() + 1 == strata) {  // the final stratum takes the rest
      if (part.lo_.size() + 1 == strata || last) {
        // Close out at max_count below.
        if (!last) {
          continue;
        }
      }
      part.lo_.push_back(lo);
      part.hi_.push_back(c);
      lo = c + 1;
      in_stratum = 0;
    }
  }
  RISKAN_ENSURE(!part.lo_.empty() && part.hi_.back() == max_count,
                "strata failed to cover the occurrence-count range");

  part.members_.resize(part.lo_.size());
  for (TrialId t = 0; t < trials; ++t) {
    part.members_[part.stratum_of(counts[t])].push_back(t);
  }
  return part;
}

std::size_t StrataPartition::stratum_of(std::uint64_t occurrences) const {
  // hi_ is ascending; the owning stratum is the first with hi >= count.
  const auto it = std::lower_bound(hi_.begin(), hi_.end(), occurrences);
  RISKAN_REQUIRE(it != hi_.end(), "occurrence count beyond the partition's range");
  return static_cast<std::size_t>(it - hi_.begin());
}

const std::vector<TrialId>& StrataPartition::members(std::size_t h) const {
  RISKAN_REQUIRE(h < members_.size(), "stratum index out of range");
  return members_[h];
}

std::uint64_t StrataPartition::min_occurrences(std::size_t h) const {
  RISKAN_REQUIRE(h < lo_.size(), "stratum index out of range");
  return lo_[h];
}

std::uint64_t StrataPartition::max_occurrences(std::size_t h) const {
  RISKAN_REQUIRE(h < hi_.size(), "stratum index out of range");
  return hi_[h];
}

std::vector<TrialId> neyman_allocation(std::span<const TrialId> population,
                                       std::span<const TrialId> sampled,
                                       std::span<const double> stddev,
                                       TrialId budget) {
  const std::size_t strata = population.size();
  RISKAN_REQUIRE(sampled.size() == strata && stddev.size() == strata,
                 "neyman_allocation spans must be parallel");
  std::vector<TrialId> alloc(strata, 0);
  std::vector<TrialId> capacity(strata);
  TrialId total_capacity = 0;
  for (std::size_t h = 0; h < strata; ++h) {
    RISKAN_REQUIRE(sampled[h] <= population[h],
                   "stratum has more samples than population");
    RISKAN_REQUIRE(stddev[h] >= 0.0, "stddev must be non-negative");
    capacity[h] = population[h] - sampled[h];
    total_capacity += capacity[h];
  }
  TrialId remaining = std::min(budget, total_capacity);

  // Largest-remainder rounding against the Neyman weights, re-run on the
  // still-capacitated strata until the budget is placed (caps can push a
  // stratum's share onto the others). Each pass places >= 1 draw, so the
  // loop is bounded.
  while (remaining > 0) {
    double weight_sum = 0.0;
    for (std::size_t h = 0; h < strata; ++h) {
      if (alloc[h] < capacity[h]) {
        weight_sum += static_cast<double>(population[h]) * stddev[h];
      }
    }
    std::vector<double> share(strata, 0.0);
    double active_sum = 0.0;
    for (std::size_t h = 0; h < strata; ++h) {
      if (alloc[h] >= capacity[h]) {
        continue;
      }
      // All-zero variances (the pilot round) degrade to proportional.
      share[h] = weight_sum > 0.0
                     ? static_cast<double>(population[h]) * stddev[h] / weight_sum
                     : static_cast<double>(population[h]);
      active_sum += share[h];
    }
    RISKAN_ENSURE(active_sum > 0.0, "no stratum left to allocate to");

    TrialId placed = 0;
    std::vector<std::pair<double, std::size_t>> remainder;
    for (std::size_t h = 0; h < strata; ++h) {
      if (share[h] <= 0.0) {
        continue;
      }
      const double target =
          static_cast<double>(remaining) * share[h] / active_sum;
      const TrialId whole = std::min<TrialId>(capacity[h] - alloc[h],
                                              static_cast<TrialId>(target));
      alloc[h] += whole;
      placed += whole;
      if (alloc[h] < capacity[h]) {
        remainder.emplace_back(target - static_cast<double>(whole), h);
      }
    }
    // Leftover from the floors: one draw each, largest remainder first,
    // ties by lowest stratum index (sort is total, so deterministic).
    std::sort(remainder.begin(), remainder.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) {
                  return a.first > b.first;
                }
                return a.second < b.second;
              });
    for (const auto& [frac, h] : remainder) {
      if (placed >= remaining) {
        break;
      }
      if (alloc[h] < capacity[h]) {
        ++alloc[h];
        ++placed;
      }
    }
    remaining -= placed;
  }
  return alloc;
}

StratifiedResult run_stratified_mean(const finance::Portfolio& portfolio,
                                     const data::YearEventLossTable& yelt,
                                     const EngineConfig& engine,
                                     const StratifiedConfig& config) {
  validate_engine_config(engine);
  validate_stratified_config(config);
  RISKAN_REQUIRE(!portfolio.empty(), "portfolio must contain contracts");
  RISKAN_REQUIRE(yelt.trials() > 0, "stratified sampling needs trials");
  obs::Timer watch("adaptive.stratified_run");

  const TrialId trials = yelt.trials();
  StrataPartition part = StrataPartition::build(yelt, config.strata);
  const std::size_t strata = part.size();

  // ---- Per-trial evaluator: the one trial kernel, one trial at a time.
  // Lookup slots exactly like run_aggregate_analysis builds, so a drawn
  // trial's loss is bit-identical to the same trial of a full run (the
  // sampling streams are keyed by trial_base + t, not by draw order).
  std::vector<SecondarySampler> samplers;
  if (engine.secondary_uncertainty) {
    samplers.reserve(portfolio.size());
    for (const auto& contract : portfolio.contracts()) {
      samplers.emplace_back(contract.elt());
    }
  }
  std::vector<Money> portfolio_losses(trials, 0.0);
  std::vector<Money> reinstatement_prem(trials, 0.0);
  std::vector<batch::Slot> slots;
  slots.reserve(portfolio.layer_count());
  for (std::size_t c = 0; c < portfolio.size(); ++c) {
    const auto& contract = portfolio.contract(c);
    for (const auto& layer : contract.layers()) {
      batch::Slot slot;
      slot.gather = batch::Gather::Lookup;
      slot.events = yelt.events().data();
      slot.elt = &contract.elt();
      slot.means = contract.elt().mean_loss().data();
      slot.sampler = engine.secondary_uncertainty ? &samplers[c] : nullptr;
      slot.contract_id = contract.id();
      slot.terms = layer.terms;
      slot.reinstatements = layer.reinstatements;
      slot.upfront_premium = layer.upfront_premium;
      slot.portfolio_losses = portfolio_losses;
      slot.reinstatement_prem = reinstatement_prem;
      slots.push_back(slot);
    }
  }
  const auto groups = batch::group_slots(slots);
  std::vector<Money> annual_scratch(slots.size());
  const Philox4x32 philox(engine.seed);
  const auto yelt_offsets = yelt.offsets();

  StratifiedResult result;
  result.trials_available = trials;

  // ---- Draw state: seeded per-stratum shuffles are the without-
  // replacement order; OnlineStats accumulate each stratum's drawn losses.
  std::vector<std::vector<TrialId>> order(strata);
  std::vector<std::size_t> next(strata, 0);
  std::vector<OnlineStats> stats(strata);
  for (std::size_t h = 0; h < strata; ++h) {
    order[h] = part.members(h);
    shuffle_members(order[h], sub_seed(engine.seed, h));
  }
  const auto draw = [&](std::size_t h) {
    const TrialId t = order[h][next[h]++];
    batch::process_trials(slots, groups, yelt_offsets, philox,
                          engine.secondary_uncertainty, engine.trial_base, t,
                          t + 1, annual_scratch, {});
    stats[h].add(portfolio_losses[t]);
    result.samples.push_back({t, portfolio_losses[t]});
  };

  const double total = static_cast<double>(trials);
  const double z = normal_quantile(0.5 + config.confidence / 2.0);
  const auto estimate = [&]() {
    double mean = 0.0;
    double variance = 0.0;
    for (std::size_t h = 0; h < strata; ++h) {
      const double weight = static_cast<double>(part.members(h).size()) / total;
      const double n = static_cast<double>(stats[h].count());
      const double population = static_cast<double>(part.members(h).size());
      if (n > 0.0) {
        mean += weight * stats[h].mean();
      }
      if (n >= 1.0 && n < population) {
        // Finite-population correction: a fully-drawn stratum contributes
        // zero sampling variance.
        variance += weight * weight * (1.0 - n / population) *
                    stats[h].sample_variance() / n;
      }
    }
    result.mean = mean;
    result.half_width = z * std::sqrt(variance);
  };
  const auto converged = [&]() {
    if (config.target_rel_err <= 0.0) {
      return false;
    }
    const double scale = std::abs(result.mean);
    return scale > 0.0 && result.half_width / scale <= config.target_rel_err;
  };

  // ---- Pilot: equal per-stratum draws seed the variance estimates.
  TrialId budget = std::min(config.max_trials, trials);
  for (std::size_t h = 0; h < strata && budget > 0; ++h) {
    const TrialId pilot = std::min<TrialId>(
        config.pilot_per_stratum, static_cast<TrialId>(order[h].size()));
    for (TrialId i = 0; i < pilot && budget > 0; ++i, --budget) {
      draw(h);
    }
  }
  estimate();

  // ---- Neyman rounds: reallocate what the variances earned, interleave
  // the draws across strata through a seeded alias table over the round's
  // allocations (stream order is deterministic and estimate-neutral — the
  // loss of trial t does not depend on when t is drawn).
  std::vector<TrialId> population(strata);
  std::vector<TrialId> sampled(strata);
  std::vector<double> stddev(strata);
  for (std::size_t h = 0; h < strata; ++h) {
    population[h] = static_cast<TrialId>(part.members(h).size());
  }
  std::uint64_t round = 0;
  while (budget > 0 && !converged()) {
    for (std::size_t h = 0; h < strata; ++h) {
      sampled[h] = static_cast<TrialId>(stats[h].count());
      stddev[h] = stats[h].stdev();
    }
    const auto alloc = neyman_allocation(
        population, sampled, stddev, std::min(config.round_trials, budget));
    TrialId round_total = 0;
    std::vector<double> weights(strata);
    for (std::size_t h = 0; h < strata; ++h) {
      round_total += alloc[h];
      weights[h] = static_cast<double>(alloc[h]);
    }
    if (round_total == 0) {
      break;  // every stratum exhausted
    }
    AliasTable interleave(weights);
    Xoshiro256ss pick(sub_seed(engine.seed, 0x5157 + round));
    std::vector<TrialId> left = alloc;
    for (TrialId drawn = 0; drawn < round_total; ++drawn) {
      std::size_t h = interleave.sample(pick);
      while (left[h] == 0) {
        h = (h + 1) % strata;  // alias picked a spent stratum: next live one
      }
      draw(h);
      --left[h];
    }
    budget -= round_total;
    ++round;
    estimate();
  }

  result.converged = converged();
  result.trials_sampled = static_cast<TrialId>(result.samples.size());
  result.strata.resize(strata);
  for (std::size_t h = 0; h < strata; ++h) {
    StratumSummary& s = result.strata[h];
    s.min_occurrences = part.min_occurrences(h);
    s.max_occurrences = part.max_occurrences(h);
    s.population = population[h];
    s.sampled = static_cast<TrialId>(stats[h].count());
    s.mean = stats[h].mean();
    s.variance = stats[h].sample_variance();
  }
  result.seconds = watch.stop();
  return result;
}

}  // namespace riskan::core::adaptive
