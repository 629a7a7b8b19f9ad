// Micro-benchmarks (google-benchmark) for the hot kernels behind E2-E5:
// counter-based RNG, secondary-uncertainty sampling, ELT lookup variants,
// columnar scans, and financial-term application. These are the ablation
// data for DESIGN.md's design choices (Philox vs xoshiro, binary search vs
// dense LUT, metering overhead).
#include <benchmark/benchmark.h>

#include "core/batch_simd.hpp"
#include "core/secondary.hpp"
#include "data/scan.hpp"
#include "data/volcano.hpp"
#include "finance/terms.hpp"
#include "util/aligned.hpp"
#include "util/distributions.hpp"
#include "util/prng.hpp"

namespace riskan {
namespace {

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256ss rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_PhiloxBlock(benchmark::State& state) {
  const Philox4x32 philox(1);
  std::uint64_t ctr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(philox.block(7, ctr++));
  }
}
BENCHMARK(BM_PhiloxBlock);

void BM_PhiloxStreamUniform(benchmark::State& state) {
  const Philox4x32 philox(1);
  PhiloxStream stream(philox, 1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(to_unit_double(stream()));
  }
}
BENCHMARK(BM_PhiloxStreamUniform);

void BM_SecondarySample(benchmark::State& state) {
  const auto elt = data::EventLossTable::from_rows({{1, 400.0, 120.0, 1000.0}});
  const core::SecondarySampler sampler(elt);
  const Philox4x32 philox(3);
  TrialId trial = 0;
  for (auto _ : state) {
    auto stream = core::occurrence_stream(philox, 0, trial++, 0);
    benchmark::DoNotOptimize(sampler.sample(0, stream));
  }
}
BENCHMARK(BM_SecondarySample);

// Batched Philox: the scalar block loop vs the dispatched lane engine over
// one counter batch — the raw-uniform-generation surface of E17. On scalar
// builds the lane call falls back to the same loop, so the pair reads as a
// no-op there.
void BM_PhiloxBlocksScalar(benchmark::State& state) {
  const Philox4x32 philox(9);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::AlignedVector<std::uint64_t> hi(n);
  util::AlignedVector<std::uint64_t> lo(n);
  for (std::size_t i = 0; i < n; ++i) {
    hi[i] = i;
    lo[i] = i * 31;
  }
  util::AlignedVector<std::uint64_t> out(2 * n);
  for (auto _ : state) {
    philox_blocks_scalar(philox, hi.data(), lo.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PhiloxBlocksScalar)->Arg(64)->Arg(256)->Arg(4'096);

void BM_PhiloxBlocksLanes(benchmark::State& state) {
  const Philox4x32 philox(9);
  const PhiloxLanes lanes(philox);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::AlignedVector<std::uint64_t> hi(n);
  util::AlignedVector<std::uint64_t> lo(n);
  for (std::size_t i = 0; i < n; ++i) {
    hi[i] = i;
    lo[i] = i * 31;
  }
  util::AlignedVector<std::uint64_t> out(2 * n);
  for (auto _ : state) {
    lanes.blocks(hi.data(), lo.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["lane_width"] = static_cast<double>(lanes.width());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PhiloxBlocksLanes)->Arg(64)->Arg(256)->Arg(4'096);

// Batched secondary sampling vs the per-occurrence scalar loop, on two
// parameter regimes: well-conditioned rows where the Marsaglia–Tsang first
// attempt almost always accepts (the fast path carries the batch), and
// high-CV rows (both beta shapes < 1) where the scalar rejection-tail
// fallback fires often. The fast-path hit rate is reported as a counter —
// it is the number that decides whether batching pays.
data::EventLossTable sampler_elt(bool rejection_heavy) {
  std::vector<data::EltRow> rows;
  for (EventId e = 0; e < 64; ++e) {
    if (rejection_heavy) {
      const Money mean = 1e5 + 3e4 * static_cast<Money>(e % 10);
      rows.push_back({e, mean, 2.2 * mean, 4e6});
    } else {
      rows.push_back({e, 1.6e6 + 1e4 * static_cast<Money>(e), 4e5, 4e6});
    }
  }
  return data::EventLossTable::from_rows(std::move(rows));
}

void run_sample_lanes(benchmark::State& state, bool rejection_heavy) {
  const auto elt = sampler_elt(rejection_heavy);
  const core::SecondarySampler sampler(elt);
  const Philox4x32 philox(11);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::AlignedVector<std::uint32_t> rows(n);
  util::AlignedVector<std::uint64_t> lo(n);
  util::AlignedVector<Money> out(n);
  std::uint64_t trial = 0;
  std::uint64_t fast = 0;
  std::uint64_t tail = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      rows[i] = static_cast<std::uint32_t>(i % sampler.size());
      lo[i] = ((trial + i) << 20) | (i & 0xF);
    }
    trial += n;
    sampler.sample_lanes(philox, /*hi_key=*/(1u << 16) | 1u, rows.data(), lo.data(), n,
                         out.data(), fast, tail);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["fast_hit_rate"] =
      fast + tail == 0 ? 0.0
                       : static_cast<double>(fast) / static_cast<double>(fast + tail);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_SampleLanesFastPath(benchmark::State& state) {
  run_sample_lanes(state, /*rejection_heavy=*/false);
}
BENCHMARK(BM_SampleLanesFastPath)->Arg(256)->Arg(4'096);

void BM_SampleLanesRejectionHeavy(benchmark::State& state) {
  run_sample_lanes(state, /*rejection_heavy=*/true);
}
BENCHMARK(BM_SampleLanesRejectionHeavy)->Arg(256)->Arg(4'096);

void run_sample_scalar(benchmark::State& state, bool rejection_heavy) {
  const auto elt = sampler_elt(rejection_heavy);
  const core::SecondarySampler sampler(elt);
  const Philox4x32 philox(11);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::AlignedVector<Money> out(n);
  std::uint64_t trial = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      PhiloxStream stream(philox, (1u << 16) | 1u, ((trial + i) << 20) | (i & 0xF));
      out[i] = sampler.sample(i % sampler.size(), stream);
    }
    trial += n;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_SampleScalarFastParams(benchmark::State& state) {
  run_sample_scalar(state, /*rejection_heavy=*/false);
}
BENCHMARK(BM_SampleScalarFastParams)->Arg(256)->Arg(4'096);

void BM_SampleScalarRejectionHeavy(benchmark::State& state) {
  run_sample_scalar(state, /*rejection_heavy=*/true);
}
BENCHMARK(BM_SampleScalarRejectionHeavy)->Arg(256)->Arg(4'096);

data::EventLossTable bench_elt(std::size_t rows) {
  std::vector<data::EltRow> out;
  out.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    out.push_back({static_cast<EventId>(i * 7), 100.0, 20.0, 500.0});
  }
  return data::EventLossTable::from_rows(std::move(out));
}

void BM_EltBinarySearch(benchmark::State& state) {
  const auto elt = bench_elt(static_cast<std::size_t>(state.range(0)));
  Xoshiro256ss rng(4);
  const EventId max_event = static_cast<EventId>(state.range(0) * 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(elt.find(static_cast<EventId>(sample_index(rng, max_event))));
  }
}
BENCHMARK(BM_EltBinarySearch)->Arg(100)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_HashIndexProbe(benchmark::State& state) {
  const auto elt = bench_elt(static_cast<std::size_t>(state.range(0)));
  const data::RowElt row_elt(elt);
  Xoshiro256ss rng(5);
  const EventId max_event = static_cast<EventId>(state.range(0) * 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        row_elt.index().find(sample_index(rng, max_event)));
  }
}
BENCHMARK(BM_HashIndexProbe)->Arg(100)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_DenseLutLookup(benchmark::State& state) {
  const auto elt = bench_elt(10'000);
  const auto lut = data::build_dense_loss_lut(elt, 70'001);
  Xoshiro256ss rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut[sample_index(rng, lut.size())]);
  }
}
BENCHMARK(BM_DenseLutLookup);

void BM_ScanAggregateDense(benchmark::State& state) {
  data::YeltGenConfig yg;
  yg.trials = 10'000;
  const auto yelt = data::generate_yelt(10'000, yg);
  const auto elt = bench_elt(1'000);
  const auto lut = data::build_dense_loss_lut(elt, 10'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::scan_aggregate_dense(yelt, lut));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(yelt.entries()));
}
BENCHMARK(BM_ScanAggregateDense);

void BM_ScanAggregateSorted(benchmark::State& state) {
  data::YeltGenConfig yg;
  yg.trials = 10'000;
  const auto yelt = data::generate_yelt(10'000, yg);
  const auto elt = bench_elt(1'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::scan_aggregate_sorted(yelt, elt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(yelt.entries()));
}
BENCHMARK(BM_ScanAggregateSorted);

void BM_ApplyOccurrence(benchmark::State& state) {
  const auto terms = finance::LayerTerms::typical();
  double loss = 1e6;
  for (auto _ : state) {
    loss = loss * 1.0000001;
    benchmark::DoNotOptimize(finance::apply_occurrence(terms, loss));
  }
}
BENCHMARK(BM_ApplyOccurrence);

// Scalar loop vs the dispatched lane kernel over one occurrence buffer —
// the E16 micro-surface. Without a wide ISA the lane call falls back to the
// same scalar loop, so the pair reads as a no-op there (which is the point:
// the delta IS the vectorization win).
util::AlignedVector<Money> occurrence_buffer(std::size_t n) {
  util::AlignedVector<Money> gu(n);
  Xoshiro256ss rng(7);
  for (auto& g : gu) {
    g = 2e6 * to_unit_double(rng());
  }
  return gu;
}

void BM_ApplyOccurrenceScalarBuffer(benchmark::State& state) {
  const auto terms = finance::LayerTerms::typical();
  const auto gu = occurrence_buffer(static_cast<std::size_t>(state.range(0)));
  util::AlignedVector<Money> occ(gu.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < gu.size(); ++i) {
      occ[i] = finance::apply_occurrence(terms, gu[i]);
    }
    benchmark::DoNotOptimize(occ.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(gu.size()));
}
BENCHMARK(BM_ApplyOccurrenceScalarBuffer)->Arg(64)->Arg(1'024)->Arg(16'384);

void BM_ApplyOccurrenceLanes(benchmark::State& state) {
  const auto terms = finance::LayerTerms::typical();
  const auto gu = occurrence_buffer(static_cast<std::size_t>(state.range(0)));
  util::AlignedVector<Money> occ(gu.size());
  for (auto _ : state) {
    core::batch::apply_occurrence_lanes(terms, gu.data(), gu.size(), occ.data());
    benchmark::DoNotOptimize(occ.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(gu.size()));
}
BENCHMARK(BM_ApplyOccurrenceLanes)->Arg(64)->Arg(1'024)->Arg(16'384);

// The compact kernel's structure at micro scale: gather means by row index,
// then the occurrence algebra. Fused scalar loop vs gather-into-scratch +
// lane apply (the shape the vector kernel uses).
void BM_GatherApplyScalarFused(benchmark::State& state) {
  const auto terms = finance::LayerTerms::typical();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto means = occurrence_buffer(4'096);
  util::AlignedVector<std::uint32_t> rows(n);
  Xoshiro256ss rng(8);
  for (auto& r : rows) {
    r = static_cast<std::uint32_t>(sample_index(rng, means.size()));
  }
  util::AlignedVector<Money> occ(n);
  for (auto _ : state) {
    for (std::size_t k = 0; k < n; ++k) {
      occ[k] = finance::apply_occurrence(terms, means[rows[k]]);
    }
    benchmark::DoNotOptimize(occ.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GatherApplyScalarFused)->Arg(1'024)->Arg(16'384);

void BM_GatherApplyLanes(benchmark::State& state) {
  const auto terms = finance::LayerTerms::typical();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto means = occurrence_buffer(4'096);
  util::AlignedVector<std::uint32_t> rows(n);
  Xoshiro256ss rng(8);
  for (auto& r : rows) {
    r = static_cast<std::uint32_t>(sample_index(rng, means.size()));
  }
  util::AlignedVector<Money> gu(n);
  util::AlignedVector<Money> occ(n);
  for (auto _ : state) {
    for (std::size_t k = 0; k < n; ++k) {
      gu[k] = means[rows[k]];
    }
    core::batch::apply_occurrence_lanes(terms, gu.data(), n, occ.data());
    benchmark::DoNotOptimize(occ.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GatherApplyLanes)->Arg(1'024)->Arg(16'384);

void BM_NormalInvCdf(benchmark::State& state) {
  double p = 0.0001;
  for (auto _ : state) {
    p += 1e-7;
    if (p >= 0.9999) {
      p = 0.0001;
    }
    benchmark::DoNotOptimize(normal_inv_cdf(p));
  }
}
BENCHMARK(BM_NormalInvCdf);

}  // namespace
}  // namespace riskan

BENCHMARK_MAIN();
