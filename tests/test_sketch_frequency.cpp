// Tests for the frequency-attribute baseline sketches: CountMin,
// CountSketch, MRAC.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.hpp"
#include "sketch/count_min.hpp"
#include "sketch/count_sketch.hpp"
#include "sketch/mrac.hpp"

namespace flymon::sketch {
namespace {

std::vector<std::uint8_t> key(std::uint64_t id) {
  std::vector<std::uint8_t> k(8);
  for (int i = 0; i < 8; ++i) k[i] = static_cast<std::uint8_t>(id >> (8 * i));
  return k;
}

/// Synthetic workload: `n` flows, flow i gets (i % 37) + 1 updates.
std::map<std::uint64_t, std::uint32_t> workload(std::size_t n) {
  std::map<std::uint64_t, std::uint32_t> w;
  for (std::uint64_t i = 0; i < n; ++i) w[i] = static_cast<std::uint32_t>(i % 37) + 1;
  return w;
}

// -------- CountMin --------

TEST(CountMin, RejectsZeroGeometry) {
  EXPECT_THROW(CountMin(0, 8), std::invalid_argument);
  EXPECT_THROW(CountMin(3, 0), std::invalid_argument);
}

TEST(CountMin, ExactAtLowLoad) {
  CountMin cms(3, 4096);
  for (const auto& [id, cnt] : workload(50)) {
    for (std::uint32_t j = 0; j < cnt; ++j) cms.update(key(id));
  }
  for (const auto& [id, cnt] : workload(50)) EXPECT_EQ(cms.query(key(id)), cnt);
}

TEST(CountMin, NeverUnderestimates) {
  CountMin cms(3, 64);  // heavy collisions on purpose
  const auto w = workload(2000);
  for (const auto& [id, cnt] : w) cms.update(key(id), cnt);
  for (const auto& [id, cnt] : w) EXPECT_GE(cms.query(key(id)), cnt);
}

TEST(CountMin, WithMemorySizesWidth) {
  const auto cms = CountMin::with_memory(3, 12 * 1024);
  EXPECT_EQ(cms.width(), 1024u);
  EXPECT_EQ(cms.memory_bytes(), 12u * 1024);
}

TEST(CountMin, ClearResets) {
  CountMin cms(2, 128);
  cms.update(key(1), 100);
  cms.clear();
  EXPECT_EQ(cms.query(key(1)), 0u);
}

TEST(CountMin, SaturatesInsteadOfWrapping) {
  CountMin cms(1, 1);
  cms.update(key(0), 0xFFFF'FFF0u);
  cms.update(key(0), 0x100u);
  EXPECT_EQ(cms.query(key(0)), 0xFFFF'FFFFu);
}

// -------- CountSketch --------

TEST(CountSketch, UnbiasedishAtLowLoad) {
  CountSketch cs(5, 4096);
  for (const auto& [id, cnt] : workload(50)) cs.update(key(id), cnt);
  for (const auto& [id, cnt] : workload(50)) {
    EXPECT_EQ(cs.query(key(id)), static_cast<std::int64_t>(cnt));
  }
}

TEST(CountSketch, F2Estimate) {
  CountSketch cs(5, 8192);
  double f2 = 0;
  for (const auto& [id, cnt] : workload(300)) {
    cs.update(key(id), cnt);
    f2 += static_cast<double>(cnt) * cnt;
  }
  EXPECT_NEAR(cs.f2_estimate(), f2, 0.2 * f2);
}

// -------- MRAC --------

TEST(Mrac, FlowCountEstimate) {
  Mrac m(16384);
  for (std::uint64_t i = 0; i < 1000; ++i) m.update(key(i));
  EXPECT_NEAR(m.estimate_flow_count(), 1000.0, 100.0);
}

TEST(Mrac, SizeDistributionAtLowLoad) {
  Mrac m(65536);
  // 200 flows of size 3, 100 flows of size 8.
  for (std::uint64_t i = 0; i < 200; ++i) m.update(key(i), 3);
  for (std::uint64_t i = 200; i < 300; ++i) m.update(key(i), 8);
  const auto dist = m.estimate_size_distribution();
  EXPECT_NEAR(dist.at(3), 200.0, 30.0);
  EXPECT_NEAR(dist.at(8), 100.0, 20.0);
}

TEST(Mrac, EntropyCloseToTruth) {
  Mrac m(32768);
  Rng rng(17);
  std::map<std::uint64_t, std::uint64_t> truth;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t id = rng.next_below(5000);
    truth[id] += 1;
    m.update(key(id));
  }
  double n = 0;
  for (const auto& [id, c] : truth) n += static_cast<double>(c);
  double h = 0;
  for (const auto& [id, c] : truth) {
    const double p = static_cast<double>(c) / n;
    h -= p * std::log(p);
  }
  EXPECT_NEAR(m.estimate_entropy(), h, 0.15 * h);
}

TEST(Mrac, EntropyOfDistributionHelper) {
  // 4 flows of size 1 => uniform over 4 packets => ln 4.
  std::map<std::uint32_t, double> dist{{1, 4.0}};
  EXPECT_NEAR(Mrac::entropy_of_distribution(dist), std::log(4.0), 1e-9);
}

// -------- parameterized sweeps --------

struct CmsGeom {
  unsigned d;
  std::uint32_t w;
};

class CmsGeometry : public ::testing::TestWithParam<CmsGeom> {};

TEST_P(CmsGeometry, NoUnderestimateInvariant) {
  const auto [d, w] = GetParam();
  CountMin cms(d, w);
  Rng rng(d * 1000 + w);
  std::map<std::uint64_t, std::uint64_t> truth;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t id = rng.next_below(800);
    truth[id] += 1;
    cms.update(key(id));
  }
  for (const auto& [id, cnt] : truth) EXPECT_GE(cms.query(key(id)), cnt);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CmsGeometry,
                         ::testing::Values(CmsGeom{1, 16}, CmsGeom{2, 64},
                                           CmsGeom{3, 256}, CmsGeom{4, 1024},
                                           CmsGeom{5, 64}, CmsGeom{8, 32}));

}  // namespace
}  // namespace flymon::sketch
