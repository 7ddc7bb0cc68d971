// Control-plane tests: task compilation, placement, resource management,
// lifecycle, and readout plumbing.
#include <gtest/gtest.h>

#include "control/controller.hpp"
#include "packet/trace_gen.hpp"

namespace flymon::control {
namespace {

TaskSpec freq_spec(std::uint32_t buckets = 8192, unsigned rows = 3) {
  TaskSpec s;
  s.key = FlowKeySpec::src_ip();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = buckets;
  s.rows = rows;
  return s;
}

TEST(Controller, DeploysEveryAlgorithm) {
  const Algorithm algos[] = {
      Algorithm::kCms,        Algorithm::kSuMaxSum,       Algorithm::kMrac,
      Algorithm::kTowerSketch, Algorithm::kCounterBraids, Algorithm::kBeauCoup,
      Algorithm::kHyperLogLog, Algorithm::kLinearCounting, Algorithm::kBloomFilter,
      Algorithm::kSuMaxMax,   Algorithm::kMaxInterarrival};
  for (Algorithm a : algos) {
    FlyMonDataPlane dp(9);
    Controller ctl(dp);
    TaskSpec s;
    s.algorithm = a;
    s.memory_buckets = 8192;
    s.rows = 3;
    s.report_threshold = 512;
    switch (a) {
      case Algorithm::kBeauCoup:
        s.key = FlowKeySpec::dst_ip();
        s.attribute = AttributeKind::kDistinct;
        s.param = ParamSpec::compressed(FlowKeySpec::src_ip());
        break;
      case Algorithm::kHyperLogLog:
      case Algorithm::kLinearCounting:
        s.attribute = AttributeKind::kDistinct;
        s.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
        break;
      case Algorithm::kBloomFilter:
        s.key = FlowKeySpec::five_tuple();
        s.attribute = AttributeKind::kExistence;
        s.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
        break;
      case Algorithm::kSuMaxMax:
      case Algorithm::kMaxInterarrival:
        s.key = FlowKeySpec::five_tuple();
        s.attribute = AttributeKind::kMax;
        s.param = ParamSpec::metadata(MetaField::kQueueLen);
        break;
      default:
        s.key = FlowKeySpec::five_tuple();
        s.attribute = AttributeKind::kFrequency;
    }
    const auto r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << to_string(a) << ": " << r.error;
    EXPECT_GT(r.report.table_rules, 0u) << to_string(a);
    EXPECT_GT(r.report.delay_ms(), 0.0) << to_string(a);
  }
}

TEST(Controller, AutoSelectsAlgorithmPerAttribute) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec s = freq_spec();
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(ctl.task(r.task_id)->algorithm, Algorithm::kCms);

  TaskSpec d;
  d.key = FlowKeySpec::dst_ip();
  d.attribute = AttributeKind::kDistinct;
  d.param = ParamSpec::compressed(FlowKeySpec::src_ip());
  d.filter = TaskFilter::src(0x0B000000, 8);
  d.memory_buckets = 4096;
  const auto r2 = ctl.add_task(d);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(ctl.task(r2.task_id)->algorithm, Algorithm::kBeauCoup);
}

TEST(Controller, RejectsEmptyKey) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec s;
  s.attribute = AttributeKind::kFrequency;  // no key, no key-valued param
  const auto r = ctl.add_task(s);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(Controller, GreedyKeyReuseAvoidsMaskRules) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec a = freq_spec(4096, 1);
  a.filter = TaskFilter::src(0x0A000000, 8);
  const auto r1 = ctl.add_task(a);
  ASSERT_TRUE(r1.ok);
  EXPECT_EQ(r1.report.hash_mask_rules, 1u);

  TaskSpec b = freq_spec(4096, 1);
  b.filter = TaskFilter::src(0x0B000000, 8);  // disjoint filter, same key
  const auto r2 = ctl.add_task(b);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r2.report.hash_mask_rules, 0u) << "second task reuses the compressed key";
}

TEST(Controller, ComposesIpPairFromExistingKeys) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec a = freq_spec(4096, 1);
  a.key = FlowKeySpec::src_ip();
  a.filter = TaskFilter::src(0x0A000000, 8);
  ASSERT_TRUE(ctl.add_task(a).ok);

  TaskSpec b = freq_spec(4096, 1);
  b.key = FlowKeySpec::ip_pair();
  b.filter = TaskFilter::src(0x0B000000, 8);
  const auto r = ctl.add_task(b);
  ASSERT_TRUE(r.ok);
  // Only DstIP needs a new mask; SrcIP is reused via XOR.
  EXPECT_EQ(r.report.hash_mask_rules, 1u);
}

TEST(Controller, MemoryExhaustionReported) {
  FlyMonDataPlane dp(1);
  Controller ctl(dp);
  TaskSpec big = freq_spec(65536, 3);  // consumes all three CMUs entirely
  ASSERT_TRUE(ctl.add_task(big).ok);
  TaskSpec more = freq_spec(4096, 1);
  more.filter = TaskFilter::src(0x0C000000, 8);
  const auto r = ctl.add_task(more);
  EXPECT_FALSE(r.ok);
}

TEST(Controller, IntersectingWildcardTasksLandOnDifferentCmus) {
  FlyMonDataPlane dp(1);
  Controller ctl(dp);
  // Two wildcard single-row tasks: same group is fine, same CMU is not.
  const auto r1 = ctl.add_task(freq_spec(4096, 1));
  const auto r2 = ctl.add_task(freq_spec(4096, 1));
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  const auto* t1 = ctl.task(r1.task_id);
  const auto* t2 = ctl.task(r2.task_id);
  EXPECT_NE(t1->rows[0].units[0].cmu, t2->rows[0].units[0].cmu);
}

TEST(Controller, RemoveReleasesMemoryAndKeys) {
  FlyMonDataPlane dp(1);
  Controller ctl(dp);
  const std::uint32_t total = dp.group(0).config().register_buckets;
  const auto r = ctl.add_task(freq_spec(total, 3));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(ctl.free_buckets(0, 0), 0u);
  ASSERT_TRUE(ctl.remove_task(r.task_id));
  EXPECT_EQ(ctl.free_buckets(0, 0), total);
  // The compressed key unit was garbage-collected: redeploying needs a mask.
  const auto r2 = ctl.add_task(freq_spec(4096, 1));
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r2.report.hash_mask_rules, 1u);
}

TEST(Controller, ResizeKeepsMeasuring) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto r = ctl.add_task(freq_spec(4096, 3));
  ASSERT_TRUE(r.ok);
  const auto r2 = ctl.resize_task(r.task_id, 16384);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.task_id, r.task_id);
  EXPECT_EQ(ctl.task(r2.task_id)->buckets, 16384u);
  EXPECT_EQ(ctl.num_tasks(), 1u);
  EXPECT_FALSE(ctl.resize_task(9999, 1024).ok);
  // Shrinking works too, and the id still sticks.
  const auto r3 = ctl.resize_task(r.task_id, 4096);
  ASSERT_TRUE(r3.ok) << r3.error;
  EXPECT_EQ(r3.task_id, r.task_id);
  EXPECT_EQ(ctl.task(r.task_id)->buckets, 4096u);
}

TEST(Controller, QuantizesMemoryByMode) {
  FlyMonDataPlane dp(9);
  Controller ctl_acc(dp, TranslationStrategy::kTcam, AllocMode::kAccurate);
  const auto r = ctl_acc.add_task(freq_spec(5000, 1));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(ctl_acc.task(r.task_id)->buckets, 8192u);

  FlyMonDataPlane dp2(9);
  Controller ctl_eff(dp2, TranslationStrategy::kTcam, AllocMode::kEfficient);
  const auto r2 = ctl_eff.add_task(freq_spec(5000, 1));
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(ctl_eff.task(r2.task_id)->buckets, 4096u);
}

TEST(Controller, ShiftStrategyUsesFewerTableRules) {
  FlyMonDataPlane dp(9);
  Controller tcam_ctl(dp, TranslationStrategy::kTcam);
  const auto rt = tcam_ctl.add_task(freq_spec(2048, 3));  // 1/32 partition
  ASSERT_TRUE(rt.ok);

  FlyMonDataPlane dp2(9);
  Controller shift_ctl(dp2, TranslationStrategy::kShift);
  const auto rs = shift_ctl.add_task(freq_spec(2048, 3));
  ASSERT_TRUE(rs.ok);
  EXPECT_LT(rs.report.table_rules, rt.report.table_rules);
}

TEST(Controller, ClearTaskStateZeroesPartitions) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto r = ctl.add_task(freq_spec(4096, 3));
  ASSERT_TRUE(r.ok);
  TraceConfig cfg;
  cfg.num_flows = 100;
  cfg.num_packets = 1000;
  const auto trace = TraceGenerator::generate(cfg);
  dp.process_batch(trace);
  EXPECT_GT(ctl.query_value(r.task_id, trace[0]), 0u);
  ctl.clear_task_state(r.task_id);
  EXPECT_EQ(ctl.query_value(r.task_id, trace[0]), 0u);
}

TEST(Controller, ChainedAlgorithmsSpanDistinctGroups) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.algorithm = Algorithm::kSuMaxSum;
  s.memory_buckets = 8192;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  const auto* t = ctl.task(r.task_id);
  ASSERT_EQ(t->rows.size(), 1u);
  ASSERT_EQ(t->rows[0].units.size(), 3u);
  EXPECT_LT(t->rows[0].units[0].group, t->rows[0].units[1].group);
  EXPECT_LT(t->rows[0].units[1].group, t->rows[0].units[2].group);
}

TEST(Controller, MaxInterarrivalUsesThreeCmusPerRow) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kMax;
  s.algorithm = Algorithm::kMaxInterarrival;
  s.memory_buckets = 8192;
  s.rows = 2;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  const auto* t = ctl.task(r.task_id);
  EXPECT_EQ(t->rows.size(), 2u);
  for (const auto& row : t->rows) EXPECT_EQ(row.units.size(), 3u);
}

TEST(Controller, QueriesRejectUnknownTask) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  Packet p;
  EXPECT_THROW(ctl.query_value(7, p), std::out_of_range);
  EXPECT_THROW(ctl.estimate_cardinality(7), std::out_of_range);
}

TEST(Controller, TaskIdsEnumerate) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto a = ctl.add_task(freq_spec(4096, 1));
  TaskSpec other = freq_spec(4096, 1);
  other.filter = TaskFilter::src(0x0D000000, 8);
  const auto b = ctl.add_task(other);
  ASSERT_TRUE(a.ok && b.ok);
  const auto ids = ctl.task_ids();
  EXPECT_EQ(ids.size(), 2u);
}

TEST(Controller, NinetySixTasksOnOneGroup) {
  FlyMonDataPlane dp(1);
  Controller ctl(dp);
  const std::uint32_t slice = dp.group(0).config().register_buckets / 32;
  unsigned deployed = 0;
  for (unsigned i = 0; i < 96; ++i) {
    TaskSpec t;
    t.filter = TaskFilter::src(0x0A000000u | (i << 16), 16);
    t.key = FlowKeySpec::five_tuple();
    t.attribute = AttributeKind::kFrequency;
    t.memory_buckets = slice;
    t.rows = 1;
    if (ctl.add_task(t).ok) ++deployed;
  }
  EXPECT_EQ(deployed, 96u);
}

}  // namespace
}  // namespace flymon::control
