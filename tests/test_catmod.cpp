// Stage-1 substrate: catalogue, exposure, hazard, vulnerability, financial
// module, full pipeline, and the catalogue->YELT bridge.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "catmod/event_catalog.hpp"
#include "catmod/exposure.hpp"
#include "catmod/financial.hpp"
#include "catmod/hazard.hpp"
#include "catmod/pipeline.hpp"
#include "catmod/vulnerability.hpp"
#include "catmod/yelt_bridge.hpp"
#include "stage1_reference.hpp"
#include "util/require.hpp"

namespace riskan::catmod {
namespace {

TEST(EventCatalog, GeneratesRequestedShape) {
  CatalogConfig config;
  config.events = 2'000;
  config.seed = 1;
  const auto catalog = EventCatalog::generate(config);
  EXPECT_EQ(catalog.size(), 2'000u);
  for (const auto& event : catalog.events()) {
    EXPECT_GE(event.magnitude, config.min_magnitude);
    EXPECT_LE(event.magnitude, config.max_magnitude);
    EXPECT_GE(event.x, 0.0);
    EXPECT_LE(event.x, 10.0);
    EXPECT_GT(event.annual_rate, 0.0);
  }
  EXPECT_GT(catalog.total_annual_rate(), 0.0);
}

TEST(EventCatalog, GutenbergRichterShape) {
  CatalogConfig config;
  config.events = 20'000;
  config.gr_b_value = 1.0;
  const auto catalog = EventCatalog::generate(config);
  // With b = 1, each whole magnitude unit should thin counts ~10x.
  int m5 = 0;
  int m6 = 0;
  for (const auto& event : catalog.events()) {
    if (event.magnitude >= 5.0 && event.magnitude < 6.0) {
      ++m5;
    }
    if (event.magnitude >= 6.0 && event.magnitude < 7.0) {
      ++m6;
    }
  }
  ASSERT_GT(m6, 0);
  EXPECT_NEAR(static_cast<double>(m5) / m6, 10.0, 2.5);
}

TEST(EventCatalog, BigEventsAreRarer) {
  CatalogConfig config;
  config.events = 5'000;
  const auto catalog = EventCatalog::generate(config);
  double small_rate = 0.0;
  double big_rate = 0.0;
  int small_n = 0;
  int big_n = 0;
  for (const auto& event : catalog.events()) {
    if (event.magnitude < 5.5) {
      small_rate += event.annual_rate;
      ++small_n;
    } else if (event.magnitude > 7.0) {
      big_rate += event.annual_rate;
      ++big_n;
    }
  }
  ASSERT_GT(small_n, 0);
  ASSERT_GT(big_n, 0);
  EXPECT_GT(small_rate / small_n, 10.0 * (big_rate / big_n));
}

TEST(EventCatalog, AccessorBounds) {
  CatalogConfig config;
  config.events = 10;
  const auto catalog = EventCatalog::generate(config);
  EXPECT_EQ(catalog.event(3).id, 3u);
  EXPECT_THROW((void)catalog.event(10), ContractViolation);
}

TEST(Exposure, GeneratesRequestedShape) {
  ExposureConfig config;
  config.sites = 500;
  const auto db = ExposureDatabase::generate(config);
  EXPECT_EQ(db.size(), 500u);
  EXPECT_GT(db.total_insured_value(), 0.0);
  for (const auto& site : db.sites()) {
    EXPECT_GT(site.value, 0.0);
    EXPECT_GT(site.site_deductible, 0.0);
    EXPECT_LT(site.site_deductible, site.value);
    EXPECT_LE(site.site_limit, site.value);
    EXPECT_GE(site.x, 0.0);
    EXPECT_LE(site.x, 10.0);
  }
  EXPECT_THROW((void)db.site(500), ContractViolation);
}

TEST(Exposure, SitesClusterAroundCities) {
  ExposureConfig config;
  config.sites = 2'000;
  config.cities = 3;
  config.city_spread = 0.2;
  const auto db = ExposureDatabase::generate(config);
  // With 3 tight cities, pairwise distances should be strongly bimodal:
  // many pairs within 4 spreads, many near inter-city distances. Proxy: the
  // fraction of sites within 0.6 of some other site is high.
  int clustered = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    const auto& a = db.site(static_cast<LocationId>(i));
    for (std::size_t j = 0; j < db.size(); ++j) {
      if (i == j) {
        continue;
      }
      const auto& b = db.site(static_cast<LocationId>(j));
      if (grid_distance(a.x, a.y, b.x, b.y) < 0.6) {
        ++clustered;
        break;
      }
    }
  }
  EXPECT_GT(clustered, 190);
}

TEST(Hazard, IntensityDecaysWithDistance) {
  CatalogEvent event;
  event.peril = Peril::Earthquake;
  event.magnitude = 7.0;
  event.x = 5.0;
  event.y = 5.0;

  Site near;
  near.x = 5.1;
  near.y = 5.0;
  Site mid;
  mid.x = 6.5;
  mid.y = 5.0;
  Site far;
  far.x = 9.5;
  far.y = 9.5;  // beyond cutoff

  const double i_near = local_intensity(event, near);
  const double i_mid = local_intensity(event, mid);
  const double i_far = local_intensity(event, far);
  EXPECT_GT(i_near, i_mid);
  EXPECT_GT(i_mid, 0.0);
  EXPECT_DOUBLE_EQ(i_far, 0.0);
}

TEST(Hazard, IntensityGrowsWithMagnitude) {
  Site site;
  site.x = 5.5;
  site.y = 5.0;
  CatalogEvent small;
  small.magnitude = 5.0;
  small.x = 5.0;
  small.y = 5.0;
  CatalogEvent big = small;
  big.magnitude = 8.0;
  for (const Peril p : {Peril::Earthquake, Peril::Hurricane, Peril::Flood}) {
    small.peril = p;
    big.peril = p;
    EXPECT_GT(local_intensity(big, site), local_intensity(small, site))
        << to_string(p);
  }
}

TEST(Hazard, GridDistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(grid_distance(0, 0, 3, 4), 5.0);
  EXPECT_DOUBLE_EQ(grid_distance(1, 1, 1, 1), 0.0);
}

TEST(Vulnerability, CurvesAreMonotoneInIntensity) {
  for (int t = 0; t < kConstructionCount; ++t) {
    const auto type = static_cast<ConstructionType>(t);
    double prev = -1.0;
    for (double intensity = 0.5; intensity < 12.0; intensity += 0.5) {
      const auto damage = damage_from_intensity(intensity, type);
      EXPECT_GE(damage.mean_damage_ratio, prev) << to_string(type);
      EXPECT_GE(damage.mean_damage_ratio, 0.0);
      EXPECT_LE(damage.mean_damage_ratio, 1.0);
      EXPECT_GE(damage.sigma_damage_ratio, 0.0);
      prev = damage.mean_damage_ratio;
    }
  }
}

TEST(Vulnerability, WoodFailsBeforeSteel) {
  const double intensity = 5.5;
  const auto wood = damage_from_intensity(intensity, ConstructionType::Wood);
  const auto steel = damage_from_intensity(intensity, ConstructionType::Steel);
  EXPECT_GT(wood.mean_damage_ratio, steel.mean_damage_ratio);
}

TEST(Vulnerability, ZeroIntensityMeansNoDamage) {
  const auto damage = damage_from_intensity(0.0, ConstructionType::Masonry);
  EXPECT_DOUBLE_EQ(damage.mean_damage_ratio, 0.0);
  EXPECT_DOUBLE_EQ(damage.sigma_damage_ratio, 0.0);
}

TEST(Financial, SiteLossAppliesTerms) {
  Site site;
  site.value = 1'000.0;
  site.site_deductible = 50.0;
  site.site_limit = 600.0;

  DamageEstimate none;
  EXPECT_DOUBLE_EQ(site_loss(site, none).mean, 0.0);

  DamageEstimate light;
  light.mean_damage_ratio = 0.04;  // 40 gross, below deductible
  EXPECT_DOUBLE_EQ(site_loss(site, light).mean, 0.0);

  DamageEstimate moderate;
  moderate.mean_damage_ratio = 0.30;  // 300 gross -> 250 net
  moderate.sigma_damage_ratio = 0.10;
  const auto loss = site_loss(site, moderate);
  EXPECT_DOUBLE_EQ(loss.mean, 250.0);
  EXPECT_GT(loss.sigma, 0.0);
  EXPECT_DOUBLE_EQ(loss.max, 600.0);

  DamageEstimate total;
  total.mean_damage_ratio = 1.0;  // 1000 gross -> capped at 600
  EXPECT_DOUBLE_EQ(site_loss(site, total).mean, 600.0);
}

TEST(Financial, AccumulatorAddsVariances) {
  EventLossAccumulator acc(42);
  EXPECT_FALSE(acc.has_loss());
  acc.add(SiteLoss{30.0, 3.0, 100.0});
  acc.add(SiteLoss{40.0, 4.0, 200.0});
  acc.add(SiteLoss{0.0, 9.0, 50.0});  // ignored: zero mean
  EXPECT_TRUE(acc.has_loss());
  EXPECT_EQ(acc.sites_hit(), 2u);
  const auto row = acc.row();
  EXPECT_EQ(row.event_id, 42u);
  EXPECT_DOUBLE_EQ(row.mean_loss, 70.0);
  EXPECT_DOUBLE_EQ(row.sigma_loss, 5.0);  // sqrt(9+16)
  EXPECT_DOUBLE_EQ(row.exposure, 300.0);
}

class PipelineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    CatalogConfig cc;
    cc.events = 400;
    cc.seed = 5;
    catalog_ = EventCatalog::generate(cc);
    ExposureConfig ec;
    ec.sites = 300;
    ec.seed = 6;
    exposure_ = ExposureDatabase::generate(ec);
  }

  EventCatalog catalog_;
  ExposureDatabase exposure_;
};

TEST_F(PipelineFixture, ProducesNonTrivialElt) {
  PipelineStats stats;
  const auto elt = run_cat_model(catalog_, exposure_, {}, &stats);
  EXPECT_GT(elt.size(), 0u);
  EXPECT_LE(elt.size(), catalog_.size());
  EXPECT_EQ(stats.event_exposure_pairs, 400u * 300u);
  EXPECT_GT(stats.pairs_with_loss, 0u);
  EXPECT_EQ(stats.elt_rows, elt.size());
  for (std::size_t i = 0; i < elt.size(); ++i) {
    EXPECT_GT(elt.mean_loss()[i], 0.0);
    EXPECT_GE(elt.exposure()[i], elt.mean_loss()[i]);
  }
}

TEST_F(PipelineFixture, ParallelMatchesSequential) {
  PipelineConfig sequential;
  sequential.parallel = false;
  PipelineConfig parallel;
  parallel.parallel = true;
  const auto a = run_cat_model(catalog_, exposure_, sequential);
  const auto b = run_cat_model(catalog_, exposure_, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.event_ids()[i], b.event_ids()[i]);
    ASSERT_DOUBLE_EQ(a.mean_loss()[i], b.mean_loss()[i]);
    ASSERT_DOUBLE_EQ(a.sigma_loss()[i], b.sigma_loss()[i]);
  }
}

TEST_F(PipelineFixture, MinLossFloorFilters) {
  PipelineConfig low;
  low.min_mean_loss = 1.0;
  PipelineConfig high;
  high.min_mean_loss = 1e7;
  const auto all = run_cat_model(catalog_, exposure_, low);
  const auto filtered = run_cat_model(catalog_, exposure_, high);
  EXPECT_LT(filtered.size(), all.size());
}

TEST(Pipeline, EqualsThePerPairDefinition) {
  // Site counts straddle the tile (1024 sites): one site, a ragged part
  // tile, a tile and a half, and three tiles minus change.
  const LocationId site_counts[] = {1, 37, 500, 3000};
  struct Geometry {
    const char* name;
    int cities;
    double city_spread;
    double sigma_log_value;
  };
  const Geometry geometries[] = {
      {"default", 12, 0.4, 1.2},
      {"one city", 1, 0.4, 1.2},
      {"tight cities", 12, 0.05, 1.2},
      {"wide cities", 12, 3.0, 1.2},
      {"wide value spread", 12, 0.4, 3.5},
  };
  int compared = 0;
  for (const std::uint64_t seed : {3u, 19u, 71u, 404u}) {
    CatalogConfig cc;
    cc.events = 200;
    cc.seed = seed;
    const auto catalog = EventCatalog::generate(cc);
    for (const auto& geometry : geometries) {
      for (const LocationId sites : site_counts) {
        ExposureConfig ec;
        ec.sites = sites;
        ec.seed = seed * 31 + sites;
        ec.cities = geometry.cities;
        ec.city_spread = geometry.city_spread;
        ec.sigma_log_value = geometry.sigma_log_value;
        const auto exposure = ExposureDatabase::generate(ec);
        const auto reference = stage1_reference::run(catalog, exposure);

        PipelineConfig sequential;
        sequential.parallel = false;
        std::vector<PipelineConfig> configs = {sequential};
        for (const std::size_t grain : {1u, 7u, 64u}) {
          PipelineConfig parallel;
          parallel.event_grain = grain;
          configs.push_back(parallel);
        }
        for (const auto& config : configs) {
          PipelineStats stats;
          const auto elt = run_cat_model(catalog, exposure, config, &stats);
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << ", " << geometry.name << ", " << sites
                       << " sites, parallel " << config.parallel << ", grain "
                       << config.event_grain);
          ASSERT_TRUE(stage1_reference::same_bits(elt, reference.elt));
          ASSERT_EQ(stats.event_exposure_pairs, reference.event_exposure_pairs);
          ASSERT_EQ(stats.pairs_with_loss, reference.pairs_with_loss);
          ASSERT_EQ(stats.elt_rows, elt.size());
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 4 * 5 * 4 * 4);
}

TEST(Pipeline, NoIntensityUnderTheZeroLossFloorLoses) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double ratios[] = {1e-300, 1e-9, 0.01, 0.05, 0.5, 1.0 - 1e-15, 1.0, 2.0};
  std::uint64_t below = 0;
  for (int type = 0; type < kConstructionCount; ++type) {
    for (const double ratio : ratios) {
      for (const bool limited : {false, true}) {
        for (int v = 0; v < 64; ++v) {
          Site site;
          site.construction = static_cast<ConstructionType>(type);
          // 1 to about 1e10, with irregular mantissas.
          site.value = std::exp(0.37 * v) * (1.0 + 0.0137 * v);
          site.site_deductible = ratio * site.value;
          site.site_limit = limited ? 0.73 * site.value : 0.0;
          const auto loss_at = [&](double intensity) {
            return site_loss(site, damage_from_intensity(intensity, site.construction)).mean;
          };
          SCOPED_TRACE(::testing::Message() << to_string(site.construction) << ", ratio "
                                            << ratio << ", value " << site.value
                                            << ", limited " << limited);
          const double floor = zero_loss_floor(site);
          if (site.site_deductible >= site.value) {
            ASSERT_EQ(floor, kInf);  // the deductible absorbs every loss
            for (const double intensity : {0.5, 5.0, 50.0, 5e3}) {
              ASSERT_EQ(loss_at(intensity), 0.0);
            }
            continue;
          }
          ASSERT_TRUE(std::isfinite(floor));
          double intensity = floor;
          for (int step = 0; step < 64; ++step) {
            intensity = std::nextafter(intensity, -kInf);
            ASSERT_EQ(loss_at(intensity), 0.0) << "at " << step + 1 << " ulps under";
            ++below;
          }
          const double band = 1e-5 * (1.0 + std::abs(floor));
          for (int j = 1; j <= 256; ++j) {
            ASSERT_EQ(loss_at(floor - band * j / 256.0), 0.0) << "band point " << j;
            ++below;
          }
          if (ratio >= 0.01 && ratio <= 0.5) {
            // The floor is tight: a hair above it the site already loses,
            // so a floor that skips nothing cannot pass.
            EXPECT_GT(loss_at(floor + 1e-4 * (1.0 + std::abs(floor))), 0.0);
          }
        }
      }
    }
  }
  EXPECT_EQ(below, 4u * 6u * 2u * 64u * (64u + 256u));

  // Where nothing bounds the loss, nothing is skipped.
  Site free;
  free.value = 1e6;
  EXPECT_EQ(zero_loss_floor(free), -kInf);  // no deductible
  free.site_deductible = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(zero_loss_floor(free), -kInf);
  free.site_deductible = 1e4;
  free.value = kInf;
  EXPECT_EQ(zero_loss_floor(free), -kInf);
  free.value = 0.0;
  EXPECT_EQ(zero_loss_floor(free), -kInf);
}

TEST_F(PipelineFixture, YeltBridgeMatchesCatalogueRates) {
  CatalogYeltConfig config;
  config.trials = 4'000;
  const auto yelt = simulate_yelt(catalog_, config);
  EXPECT_EQ(yelt.trials(), 4'000u);
  EXPECT_NEAR(yelt.mean_events_per_trial(), catalog_.total_annual_rate(),
              0.1 * catalog_.total_annual_rate());
  for (const auto event : yelt.events()) {
    EXPECT_LT(event, catalog_.size());
  }
}

TEST_F(PipelineFixture, YeltBridgeRateMultiplierScales) {
  CatalogYeltConfig base;
  base.trials = 2'000;
  CatalogYeltConfig active = base;
  active.rate_multiplier = 2.0;
  const auto quiet = simulate_yelt(catalog_, base);
  const auto busy = simulate_yelt(catalog_, active);
  EXPECT_NEAR(busy.mean_events_per_trial() / quiet.mean_events_per_trial(), 2.0, 0.2);
}

TEST_F(PipelineFixture, FrequentEventsAppearMoreOften) {
  CatalogYeltConfig config;
  config.trials = 5'000;
  const auto yelt = simulate_yelt(catalog_, config);
  // Find the highest- and lowest-rate events and compare occurrence counts.
  EventId hot = 0;
  EventId cold = 0;
  for (EventId e = 1; e < catalog_.size(); ++e) {
    if (catalog_.event(e).annual_rate > catalog_.event(hot).annual_rate) {
      hot = e;
    }
    if (catalog_.event(e).annual_rate < catalog_.event(cold).annual_rate) {
      cold = e;
    }
  }
  std::uint64_t hot_count = 0;
  std::uint64_t cold_count = 0;
  for (const auto event : yelt.events()) {
    if (event == hot) {
      ++hot_count;
    }
    if (event == cold) {
      ++cold_count;
    }
  }
  EXPECT_GT(hot_count, cold_count);
}

}  // namespace
}  // namespace riskan::catmod
