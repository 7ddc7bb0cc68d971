// Integration tests: every built-in algorithm end-to-end through the CMU
// data plane with accuracy assertions against exact ground truth.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/metrics.hpp"
#include "control/controller.hpp"
#include "packet/trace_gen.hpp"

namespace flymon {
namespace {

struct World {
  FlyMonDataPlane dp{9};
  control::Controller ctl{dp};
  std::vector<Packet> trace;

  explicit World(std::size_t flows = 3000, std::size_t pkts = 150'000,
                 double alpha = 1.05, std::uint64_t seed = 1) {
    TraceConfig cfg;
    cfg.num_flows = flows;
    cfg.num_packets = pkts;
    cfg.zipf_alpha = alpha;
    cfg.seed = seed;
    trace = TraceGenerator::generate(cfg);
  }

  void run() { dp.process_batch(trace); }
};

TEST(Integration, CmsPerFlowByteCounts) {
  World w;
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.param = ParamSpec::metadata(MetaField::kWireBytes);
  s.memory_buckets = 32768;
  s.rows = 3;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  w.run();
  const FreqMap truth = ExactStats::frequency(w.trace, s.key, MetaField::kWireBytes);
  const double are = analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
    return w.ctl.query_value(r.task_id, packet_from_candidate_key(k.bytes));
  });
  EXPECT_LT(are, 0.02);
}

TEST(Integration, SuMaxSumMoreAccurateThanCmsAtTightMemory) {
  World w;
  TaskSpec cms;
  cms.key = FlowKeySpec::five_tuple();
  cms.attribute = AttributeKind::kFrequency;
  cms.algorithm = Algorithm::kCms;
  cms.memory_buckets = 1024;  // deliberately tight
  cms.rows = 3;
  const auto rc = w.ctl.add_task(cms);
  ASSERT_TRUE(rc.ok);

  FlyMonDataPlane dp2(9);
  control::Controller ctl2(dp2);
  TaskSpec su = cms;
  su.algorithm = Algorithm::kSuMaxSum;
  const auto rs = ctl2.add_task(su);
  ASSERT_TRUE(rs.ok) << rs.error;

  w.run();
  dp2.process_batch(w.trace);

  // The paper's claim (Fig 14a) is about heavy-hitter F1, where the
  // conservative update's damped over-counts matter most.
  const FreqMap truth = ExactStats::frequency(w.trace, cms.key);
  const auto hh_true = ExactStats::over_threshold(truth, 512);
  std::vector<FlowKeyValue> candidates;
  for (const auto& [k, f] : truth) candidates.push_back(k);
  const auto f1 = [&](control::Controller& c, std::uint32_t id) {
    return analysis::score_detection(hh_true,
                                     c.detect_over_threshold(id, candidates, 512))
        .f1();
  };
  EXPECT_GE(f1(ctl2, rs.task_id), f1(w.ctl, rc.task_id))
      << "conservative update must not lose under pressure";
}

TEST(Integration, TowerSketchFrequency) {
  World w;
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.algorithm = Algorithm::kTowerSketch;
  s.memory_buckets = 32768;
  s.rows = 3;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  w.run();
  const FreqMap truth = ExactStats::frequency(w.trace, s.key);
  // Mice flows (small counts) are the tower's specialty.
  double are_small = 0;
  unsigned n = 0;
  for (const auto& [k, f] : truth) {
    if (f > 50) continue;
    const auto est = w.ctl.query_value(r.task_id, packet_from_candidate_key(k.bytes));
    are_small += std::abs(static_cast<double>(est) - static_cast<double>(f)) /
                 static_cast<double>(f);
    ++n;
  }
  EXPECT_LT(are_small / n, 0.2);
}

TEST(Integration, CounterBraidsTotalCounts) {
  World w(500, 50'000);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.algorithm = Algorithm::kCounterBraids;
  s.memory_buckets = 16384;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  w.run();
  const FreqMap truth = ExactStats::frequency(w.trace, s.key);
  const double are = analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
    return w.ctl.query_value(r.task_id, packet_from_candidate_key(k.bytes));
  });
  // Single-row braids keep ~3% of flows in collision; their inflated
  // estimates dominate the ARE, so the bound is looser than d=3 sketches.
  EXPECT_LT(are, 0.2) << "layer-1 + layer-2 must reconstruct counts";
}

/// `n` copies of one five-tuple flow.
std::vector<Packet> one_flow(std::size_t n) {
  Packet p;
  p.ft = {0x0A000001, 0x0A000002, 1234, 80, 6};
  p.wire_bytes = 64;
  return std::vector<Packet>(n, p);
}

TEST(Integration, TowerSkipsSaturatedRow) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.algorithm = Algorithm::kTowerSketch;
  s.memory_buckets = 4096;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  const auto trace = one_flow(300);
  dp.process_batch(trace);
  // Rows are {32, 16, 8} bits wide: the 8-bit row pins at 255 and must
  // be skipped, not taken as the minimum.
  EXPECT_EQ(ctl.query_value(r.task_id, trace[0]), 300u);
}

TEST(Integration, CounterBraidsCarriesPastLayer1Cap) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.algorithm = Algorithm::kCounterBraids;
  s.memory_buckets = 4096;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  const auto trace = one_flow(3000);
  dp.process_batch(trace);
  // Layer 1 stops at its 1024 cap; layer 2 carries the other 1976.
  EXPECT_EQ(ctl.query_value(r.task_id, trace[0]), 3000u);
}

TEST(Integration, LinearCountingCardinality) {
  // A bit-packed bucket sets one of its 32 bits; an unpacked one only ever
  // holds 0 or 1, so it is one bit of the bitmap.
  for (const bool packed : {true, false}) {
    SCOPED_TRACE(packed ? "bit-packed" : "unpacked");
    World w(20'000, 60'000, 0.3);
    TaskSpec s;
    s.attribute = AttributeKind::kDistinct;
    s.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
    s.algorithm = Algorithm::kLinearCounting;
    s.bloom_bit_packed = packed;
    s.memory_buckets = packed ? 4096 : 16384;  // 131072 or 16384 bits
    const auto r = w.ctl.add_task(s);
    ASSERT_TRUE(r.ok) << r.error;
    w.run();
    const double truth = static_cast<double>(
        ExactStats::cardinality(w.trace, FlowKeySpec::five_tuple()));
    EXPECT_LT(analysis::relative_error(truth, w.ctl.estimate_cardinality(r.task_id)),
              0.05);
  }
}

TEST(Integration, LinearCountingSaturatedBitmapReportsMLnM) {
  // A 1024-bucket register lets the task take a 32-bucket (1024-bit)
  // partition, far fewer bits than the trace's distinct flows.
  FlyMonDataPlane dp(1, CmuGroupConfig{.register_buckets = 1024});
  control::Controller ctl(dp);
  TaskSpec s;
  s.attribute = AttributeKind::kDistinct;
  s.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  s.algorithm = Algorithm::kLinearCounting;
  s.memory_buckets = 32;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  TraceConfig cfg;
  cfg.num_flows = 20'000;
  cfg.num_packets = 60'000;
  cfg.zipf_alpha = 0.3;
  dp.process_batch(TraceGenerator::generate(cfg));
  const std::uint32_t buckets = ctl.task(r.task_id)->rows.at(0).units.at(0).partition.size;
  ASSERT_EQ(buckets, 32u);
  const double m = 32.0 * buckets;
  // With no zero bit left the estimator's upper end is m ln m: the value
  // at one zero bit.  Returning m would make the estimate fall ~ln m-fold
  // as the last bit fills.
  EXPECT_DOUBLE_EQ(ctl.estimate_cardinality(r.task_id), m * std::log(m));
}

TEST(Integration, MracSizeDistributionAndEntropy) {
  World w(5000, 200'000, 1.0);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.algorithm = Algorithm::kMrac;
  s.memory_buckets = 65536;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  w.run();
  const FreqMap truth = ExactStats::frequency(w.trace, s.key);
  const double h_true = ExactStats::flow_entropy(truth);
  EXPECT_LT(analysis::relative_error(h_true, w.ctl.estimate_entropy(r.task_id)), 0.1);

  const auto dist = w.ctl.estimate_size_distribution(r.task_id);
  const auto exact_dist = ExactStats::size_distribution(truth);
  // Singleton-flow count is the hardest part of the distribution.
  ASSERT_TRUE(dist.count(1));
  EXPECT_NEAR(dist.at(1), static_cast<double>(exact_dist.at(1)),
              0.25 * static_cast<double>(exact_dist.at(1)));
}

TEST(Integration, MaxQueueLengthPerFlow) {
  World w;
  TaskSpec s;
  s.key = FlowKeySpec::ip_pair();
  s.attribute = AttributeKind::kMax;
  s.param = ParamSpec::metadata(MetaField::kQueueLen);
  s.memory_buckets = 32768;
  s.rows = 3;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  w.run();
  const FreqMap truth = ExactStats::max_value(w.trace, s.key, MetaField::kQueueLen);
  unsigned exact = 0, total = 0;
  for (const auto& [k, mx] : truth) {
    const auto est = w.ctl.query_value(r.task_id, packet_from_candidate_key(k.bytes));
    EXPECT_GE(est, mx) << "Max attribute collisions only inflate";
    exact += (est == mx);
    ++total;
  }
  EXPECT_GT(static_cast<double>(exact) / total, 0.95);
}

TEST(Integration, MaxInterarrivalEndToEnd) {
  World w(2000, 100'000);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kMax;
  s.algorithm = Algorithm::kMaxInterarrival;
  s.memory_buckets = 65536;
  s.rows = 3;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  w.run();
  const FreqMap truth = ExactStats::max_interarrival(w.trace, s.key);
  std::vector<std::pair<double, double>> pairs;
  for (const auto& [k, gap] : truth) {
    if (gap == 0) continue;
    pairs.emplace_back(static_cast<double>(gap),
                       static_cast<double>(w.ctl.query_max_interarrival_ns(
                           r.task_id, packet_from_candidate_key(k.bytes))));
  }
  EXPECT_LT(analysis::average_relative_error(pairs), 0.25);
}

TEST(Integration, ConcurrentTasksDoNotInterfere) {
  World w;
  TaskSpec a;
  a.filter = TaskFilter::src(0x0A000000, 9);  // half the 10/8 space
  a.key = FlowKeySpec::five_tuple();
  a.attribute = AttributeKind::kFrequency;
  a.memory_buckets = 16384;
  a.rows = 3;
  const auto ra = w.ctl.add_task(a);
  ASSERT_TRUE(ra.ok);

  TaskSpec b;
  b.filter = TaskFilter::src(0x0A800000, 9);  // the other half
  b.key = FlowKeySpec::five_tuple();
  b.attribute = AttributeKind::kFrequency;
  b.memory_buckets = 16384;
  b.rows = 3;
  const auto rb = w.ctl.add_task(b);
  ASSERT_TRUE(rb.ok) << rb.error;

  w.run();

  // Each task must be accurate on its own slice.
  for (const auto& [spec, id] : {std::pair{a, ra.task_id}, std::pair{b, rb.task_id}}) {
    FreqMap truth;
    for (const Packet& p : w.trace) {
      if (spec.filter.matches(p.ft)) truth[extract_flow_key(p, spec.key)] += 1;
    }
    ASSERT_FALSE(truth.empty());
    const double are = analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
      return w.ctl.query_value(id, packet_from_candidate_key(k.bytes));
    });
    EXPECT_LT(are, 0.05);
  }
}

TEST(Integration, ProbabilisticTasksShareOneCmu) {
  FlyMonDataPlane dp(1);
  control::Controller ctl(dp);
  // Two wildcard tasks with sampling: legal on the same group/CMUs.
  TaskSpec a;
  a.key = FlowKeySpec::five_tuple();
  a.attribute = AttributeKind::kFrequency;
  a.memory_buckets = 16384;
  a.rows = 3;
  a.sample_probability = 0.5;
  const auto ra = ctl.add_task(a);
  TaskSpec b = a;
  const auto rb = ctl.add_task(b);
  ASSERT_TRUE(ra.ok) << ra.error;
  ASSERT_TRUE(rb.ok) << rb.error;

  TraceConfig cfg;
  cfg.num_flows = 500;
  cfg.num_packets = 100'000;
  const auto trace = TraceGenerator::generate(cfg);
  dp.process_batch(trace);

  // Each task sees roughly half the packets: estimates scale by ~p.
  const FreqMap truth = ExactStats::frequency(trace, a.key);
  double ratio_sum = 0;
  unsigned n = 0;
  for (const auto& [k, f] : truth) {
    if (f < 200) continue;
    const auto est = ctl.query_value(ra.task_id, packet_from_candidate_key(k.bytes));
    ratio_sum += static_cast<double>(est) / static_cast<double>(f);
    ++n;
  }
  ASSERT_GT(n, 0u);
  EXPECT_NEAR(ratio_sum / n, 0.5, 0.1);
}

TEST(Integration, EpochReuseAfterClear) {
  World w(1000, 30'000);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 16384;
  s.rows = 3;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok);
  w.run();
  w.dp.clear_registers();
  w.run();  // second epoch over the same trace
  const FreqMap truth = ExactStats::frequency(w.trace, s.key);
  const double are = analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
    return w.ctl.query_value(r.task_id, packet_from_candidate_key(k.bytes));
  });
  EXPECT_LT(are, 0.02) << "state after clear must match a fresh epoch";
}

}  // namespace
}  // namespace flymon
