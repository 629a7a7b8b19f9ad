#include "program_reference.hpp"

#include <algorithm>
#include <optional>

#include "core/secondary.hpp"
#include "finance/terms.hpp"
#include "obs/obs.hpp"
#include "util/require.hpp"

namespace riskan::core {

ProgramResult run_program(const finance::Contract& contract,
                          const data::YearEventLossTable& yelt,
                          const ProgramConfig& config) {
  RISKAN_REQUIRE(yelt.trials() > 0, "YELT must contain trials");
  obs::Timer watch("program.run");

  const auto& layers = contract.layers();
  const auto& elt = contract.elt();
  const TrialId trials = yelt.trials();

  std::optional<SecondarySampler> sampler;
  if (config.secondary_uncertainty) {
    sampler.emplace(elt);
  }
  const Philox4x32 philox(config.seed);

  ProgramResult result;
  result.layer_ylts.reserve(layers.size());
  for (const auto& layer : layers) {
    result.layer_ylts.emplace_back(trials, "layer-" + std::to_string(layer.id));
  }
  result.gross_ylt = data::YearLossTable(trials, "gross");
  result.retained_ylt = data::YearLossTable(trials, "retained");

  const auto offsets = yelt.offsets();
  const auto events = yelt.events();
  const auto means = elt.mean_loss();

  // Per-layer running annual occurrence sums for the current trial.
  std::vector<Money> annual(layers.size());

  for (TrialId t = 0; t < trials; ++t) {
    std::fill(annual.begin(), annual.end(), 0.0);
    Money gross_year = 0.0;

    const std::uint64_t begin = offsets[t];
    const std::uint64_t end = offsets[t + 1];
    for (std::uint64_t i = begin; i < end; ++i) {
      const auto row = elt.find(events[i]);
      if (row == data::EventLossTable::npos) {
        continue;
      }
      Money ground_up;
      if (sampler) {
        auto stream = occurrence_stream(philox, contract.id(), t,
                                        static_cast<std::uint32_t>(i - begin));
        ground_up = sampler->sample(row, stream);
      } else {
        ground_up = means[row];
      }
      gross_year += ground_up;

      // Cascade: each layer sees the loss net of prior recoveries (or the
      // full ground-up when inuring is off).
      Money remaining = ground_up;
      for (std::size_t l = 0; l < layers.size(); ++l) {
        const Money subject = config.inuring ? remaining : ground_up;
        const Money occ = finance::apply_occurrence(layers[l].terms, subject);
        annual[l] += occ;
        if (config.inuring) {
          remaining = std::max(Money{0.0}, remaining - occ);
        }
      }
    }

    Money recovered_year = 0.0;
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const Money net =
          finance::apply_aggregate(layers[l].terms, annual[l]) * layers[l].terms.share;
      result.layer_ylts[l][t] = net;
      recovered_year += net;
    }
    result.gross_ylt[t] = gross_year;
    // Aggregate terms can only shrink recoveries, so retained stays >= 0
    // when inuring; without inuring overlapping layers may recover more
    // than gross (double counting is the point of the comparison).
    result.retained_ylt[t] = gross_year - recovered_year;
  }

  result.seconds = watch.stop();
  return result;
}

}  // namespace riskan::core
