// Year-Event-Loss Table (YELT) — the pre-simulated "consistent lens" of
// stage 2.
//
// The paper: "rather than using random values generated on-the-fly, a
// pre-simulated Year-Event-Loss Table containing between several thousand
// and millions of alternative views of a single contractual year is used."
//
// Each trial is one alternative realisation of the contractual year: an
// ordered sequence of (event id, day) occurrences. Storage is CSR-style
// columnar: an offsets array of length trials()+1 plus parallel columns for
// event ids and days. Aggregate analysis scans a trial's slice start to
// finish — this is the access pattern the whole paper's "scan, don't seek"
// argument is about, and the layout makes the scan a linear walk of two
// arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/generation.hpp"
#include "util/prng.hpp"
#include "util/types.hpp"

namespace riskan::data {

/// One event occurrence inside a trial year.
struct YeltEntry {
  EventId event_id = 0;
  std::uint16_t day = 0;  ///< day of the contractual year, 0..364
};

class YearEventLossTable {
 public:
  /// Incremental builder: append trials in order.
  class Builder {
   public:
    explicit Builder(TrialId expected_trials = 0);

    /// Starts the next trial; occurrences are appended to it until the next
    /// begin_trial / finish.
    void begin_trial();
    void add(EventId event, std::uint16_t day);

    YearEventLossTable finish();

   private:
    std::vector<std::uint64_t> offsets_;
    std::vector<EventId> events_;
    std::vector<std::uint16_t> days_;
    bool open_ = false;
  };

  YearEventLossTable() = default;

  TrialId trials() const noexcept {
    return offsets_.empty() ? 0 : static_cast<TrialId>(offsets_.size() - 1);
  }

  /// Total occurrences across all trials (the table's row count).
  std::uint64_t entries() const noexcept { return events_.size(); }

  /// Occurrence slice of one trial, as parallel spans.
  std::span<const EventId> trial_events(TrialId t) const;
  std::span<const std::uint16_t> trial_days(TrialId t) const;
  std::size_t trial_size(TrialId t) const;

  std::span<const std::uint64_t> offsets() const noexcept { return offsets_; }
  std::span<const EventId> events() const noexcept { return events_; }
  std::span<const std::uint16_t> days() const noexcept { return days_; }

  /// Bytes occupied by the columns; E1 accounting.
  std::size_t byte_size() const noexcept;

  /// Mean occurrences per trial year.
  double mean_events_per_trial() const noexcept;

  /// Process-unique identity (util::Generation): fresh on construction,
  /// decode and copy, carried by a move. data::ResolverCache keys on it.
  std::uint64_t generation() const noexcept { return generation_.value(); }

 private:
  friend class Builder;

  // offsets_[t]..offsets_[t+1] delimit trial t's occurrences.
  std::vector<std::uint64_t> offsets_;
  std::vector<EventId> events_;
  std::vector<std::uint16_t> days_;
  util::Generation generation_;
};

/// Parameters for synthetic YELT generation. Event occurrence counts per
/// trial are Poisson with the catalogue's total annual rate; which events
/// occur is sampled proportional to per-event annual rates.
struct YeltGenConfig {
  TrialId trials = 10'000;
  std::uint64_t seed = 42;
  /// Target mean number of event occurrences per trial year. The paper's
  /// catastrophe treaties see O(10) qualifying events per year.
  double mean_events_per_year = 10.0;
  /// Order each trial's occurrences by day of year — the "in which order
  /// they occur within a contractual year" the paper's aggregate analysis
  /// tracks (it matters when reinstatement timing or inuring cascades are
  /// modelled). Flat occurrence/aggregate terms are order-independent, so
  /// the default stays unsorted for generator-compatibility.
  bool sort_by_day = false;
  /// Over-dispersion of annual event counts. 0 = pure Poisson
  /// (variance = mean). Positive values mix the Poisson rate with a
  /// Gamma(1/d, d) factor, giving negative-binomial counts with
  /// variance = mean * (1 + d * mean) — the clustered "active season"
  /// behaviour real hurricane catalogues calibrate to.
  double dispersion = 0.0;
};

/// Generates a YELT over a catalogue of `catalog_events` event ids
/// [0, catalog_events). Per-event relative rates follow a truncated
/// power law (a few frequent perils, many rare ones), matching how real
/// catalogues skew. Deterministic in the seed.
YearEventLossTable generate_yelt(EventId catalog_events, const YeltGenConfig& config);

}  // namespace riskan::data
