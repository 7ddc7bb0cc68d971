// Tests for the multi-core sharded execution engine:
//   - golden equivalence: a 4-worker parallel run over a mergeable mix must
//     leave byte-identical registers, identical telemetry counts and
//     identical query results vs the sequential compiled path;
//   - compile-time mergeability: plans with register-derived chain outputs
//     or capped Cond-ADDs are flagged and the pool falls back sequentially
//     (still exact, recorded in the stats);
//   - merge-on-demand: controller readouts and telemetry collection fold
//     outstanding shard deltas without an explicit merge call;
//   - epoch integration: EpochRunner sees post-merge registers at readout;
//   - reconfigure-while-processing churn (the interesting assertions fire
//     under TSan: publish fencing vs in-flight parallel batches).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "control/controller.hpp"
#include "control/epoch.hpp"
#include "exec/exec_plan.hpp"
#include "exec/worker_pool.hpp"
#include "packet/trace_gen.hpp"
#include "telemetry/telemetry.hpp"

namespace flymon {
namespace {

struct EnabledGuard {
  explicit EnabledGuard(bool on) : prev_(telemetry::enabled()) {
    telemetry::set_enabled(on);
  }
  ~EnabledGuard() { telemetry::set_enabled(prev_); }
  bool prev_;
};

/// A pipeline + controller bound to a private registry, so counter
/// comparisons between worlds are not polluted by other tests.
struct World {
  telemetry::Registry registry;
  FlyMonDataPlane dp{9};
  control::Controller ctl{dp};

  World() {
    dp.bind_telemetry(registry);
    ctl.bind_telemetry(registry);
  }
};

std::vector<Packet> make_trace(std::size_t flows, std::size_t pkts,
                               std::uint64_t seed = 7) {
  TraceConfig cfg;
  cfg.num_flows = flows;
  cfg.num_packets = pkts;
  cfg.zipf_alpha = 1.05;
  cfg.seed = seed;
  return TraceGenerator::generate(cfg);
}

struct MixIds {
  std::uint32_t cms = 0;
  std::uint32_t bloom = 0;
  std::uint32_t beaucoup = 0;
  std::uint32_t maxq = 0;
};

/// The mergeable mix: every exact-merge op kind (Cond-ADD sum via CMS, OR
/// via Bloom and BeauCoup coupons, MAX via queue depth), plus a sampled and
/// a filtered task.  Deliberately no chained/composite algorithms — those
/// are the fallback test's job.
MixIds deploy_mergeable_mix(control::Controller& ctl) {
  MixIds ids;
  {
    TaskSpec s;
    s.name = "cms";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 8192;
    s.rows = 3;
    const auto r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << "cms: " << r.error;
    ids.cms = r.task_id;
  }
  {
    TaskSpec s;
    s.name = "bloom";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kExistence;
    s.memory_buckets = 8192;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << "bloom: " << r.error;
    ids.bloom = r.task_id;
  }
  {
    TaskSpec s;
    s.name = "beaucoup";
    s.key = FlowKeySpec::dst_ip();
    s.attribute = AttributeKind::kDistinct;
    s.param = ParamSpec::compressed(FlowKeySpec::src_ip());
    s.algorithm = Algorithm::kBeauCoup;
    s.report_threshold = 100;
    s.memory_buckets = 8192;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << "beaucoup: " << r.error;
    ids.beaucoup = r.task_id;
  }
  {
    TaskSpec s;
    s.name = "maxq";
    s.key = FlowKeySpec::ip_pair();
    s.attribute = AttributeKind::kMax;
    s.param = ParamSpec::metadata(MetaField::kQueueLen);
    s.memory_buckets = 4096;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << "maxq: " << r.error;
    ids.maxq = r.task_id;
  }
  {
    TaskSpec s;
    s.name = "sampled";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 4096;
    s.rows = 1;
    s.sample_probability = 0.5;
    const auto r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << "sampled: " << r.error;
  }
  {
    TaskSpec s;
    s.name = "filtered";
    s.filter = TaskFilter::src(0x0A000000, 8);
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 4096;
    s.rows = 1;
    const auto r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << "filtered: " << r.error;
  }
  return ids;
}

void expect_identical_registers(const FlyMonDataPlane& a,
                                const FlyMonDataPlane& b, const char* what) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (unsigned g = 0; g < a.num_groups(); ++g) {
    ASSERT_EQ(a.group(g).num_cmus(), b.group(g).num_cmus());
    for (unsigned c = 0; c < a.group(g).num_cmus(); ++c) {
      const auto& ra = a.group(g).cmu(c).reg();
      const auto& rb = b.group(g).cmu(c).reg();
      ASSERT_EQ(ra.size(), rb.size());
      EXPECT_EQ(ra.read_range(0, ra.size()), rb.read_range(0, rb.size()))
          << what << ": registers differ at group " << g << " cmu " << c;
    }
  }
}

void expect_identical_counters(World& a, World& b, const char* what) {
  const auto eq = [&](const std::string& name,
                      const telemetry::Labels& labels) {
    EXPECT_EQ(a.registry.counter(name, labels).value(),
              b.registry.counter(name, labels).value())
        << what << ": counter " << name << " differs";
  };
  eq("flymon_packets_total", {});
  for (unsigned g = 0; g < a.dp.num_groups(); ++g) {
    const telemetry::Labels gl = {{"group", std::to_string(g)}};
    eq("flymon_group_packets_total", gl);
    eq("flymon_hash_invocations_total", gl);
    for (unsigned c = 0; c < a.dp.group(g).num_cmus(); ++c) {
      const telemetry::Labels cl = {{"group", std::to_string(g)},
                                    {"cmu", std::to_string(c)}};
      eq("flymon_cmu_updates_total", cl);
      eq("flymon_cmu_sampled_out_total", cl);
      eq("flymon_cmu_prep_aborts_total", cl);
      for (const dataplane::StatefulOp op :
           {dataplane::StatefulOp::kNop, dataplane::StatefulOp::kCondAdd,
            dataplane::StatefulOp::kMax, dataplane::StatefulOp::kAndOr,
            dataplane::StatefulOp::kXor}) {
        eq("flymon_salu_op_total",
           {{"group", std::to_string(g)},
            {"cmu", std::to_string(c)},
            {"op", dataplane::to_string(op)}});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden equivalence: 4 workers vs the sequential compiled path.
// ---------------------------------------------------------------------------

TEST(ShardedGolden, FourWorkersMatchSequentialByteForByte) {
  EnabledGuard on(true);
  const std::vector<Packet> trace = make_trace(2000, 40'000);

  World ws, wp;
  const MixIds seq_ids = deploy_mergeable_mix(ws.ctl);
  const MixIds par_ids = deploy_mergeable_mix(wp.ctl);

  ASSERT_NE(ws.dp.current_plan(), nullptr);
  ASSERT_TRUE(ws.dp.current_plan()->shard_mergeable())
      << "mergeable mix unexpectedly blocked: "
      << ws.dp.current_plan()->merge_blockers().front();
  ASSERT_FALSE(ws.dp.current_plan()->merge_regions().empty());

  const std::uint64_t seq_gen = ws.dp.process_batch(trace);
  EXPECT_GT(seq_gen, 0u);

  wp.dp.enable_parallel(4);
  EXPECT_EQ(wp.dp.parallel_workers(), 4u);
  const std::uint64_t par_gen = wp.dp.process_batch(trace);
  EXPECT_EQ(par_gen, wp.dp.plan_generation());
  wp.dp.merge_shards();

  const exec::ParallelStats stats = wp.dp.parallel_stats();
  EXPECT_EQ(stats.parallel_batches, 1u);
  EXPECT_EQ(stats.fallback_batches, 0u);
  EXPECT_GE(stats.chunks, trace.size() / exec::kDefaultBatchChunk);
  EXPECT_GE(stats.merges, 1u);

  EXPECT_EQ(ws.dp.packets_processed(), trace.size());
  EXPECT_EQ(wp.dp.packets_processed(), trace.size());
  expect_identical_registers(ws.dp, wp.dp, "sequential vs 4-worker");
  expect_identical_counters(ws, wp, "sequential vs 4-worker");

  // Query results are identical too (registers are, so this is a sanity
  // check that the readout paths behave with a pool attached).
  for (std::size_t i = 0; i < trace.size(); i += 977) {
    const Packet& probe = trace[i];
    EXPECT_EQ(ws.ctl.query_value(seq_ids.cms, probe),
              wp.ctl.query_value(par_ids.cms, probe));
    EXPECT_EQ(ws.ctl.query_existence(seq_ids.bloom, probe),
              wp.ctl.query_existence(par_ids.bloom, probe));
    EXPECT_EQ(ws.ctl.query_value(seq_ids.maxq, probe),
              wp.ctl.query_value(par_ids.maxq, probe));
    EXPECT_DOUBLE_EQ(ws.ctl.estimate_distinct(seq_ids.beaucoup, probe),
                     wp.ctl.estimate_distinct(par_ids.beaucoup, probe));
  }

  // Repeated merges are idempotent: no shard is dirty, registers hold.
  wp.dp.merge_shards();
  expect_identical_registers(ws.dp, wp.dp, "merge idempotence");
}

// The same equivalence across several batches with reconfiguration fences
// in between (resize republishes the plan; the fence merges first).
TEST(ShardedGolden, EquivalenceSurvivesReconfigurationFences) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(500, 12'000, 21);

  World ws, wp;
  const MixIds seq_ids = deploy_mergeable_mix(ws.ctl);
  const MixIds par_ids = deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(3);

  const auto third = trace.size() / 3;
  ws.dp.process_batch(std::span<const Packet>(trace).subspan(0, third));
  wp.dp.process_batch(
      std::span<const Packet>(trace).subspan(0, third));

  // Fence mid-stream: both worlds resize the same task identically.
  ASSERT_TRUE(ws.ctl.resize_task(seq_ids.maxq, 8192).ok);
  ASSERT_TRUE(wp.ctl.resize_task(par_ids.maxq, 8192).ok);

  ws.dp.process_batch(std::span<const Packet>(trace).subspan(third));
  wp.dp.process_batch(
      std::span<const Packet>(trace).subspan(third));
  wp.dp.merge_shards();

  expect_identical_registers(ws.dp, wp.dp, "across reconfiguration fence");
}

// Publish-veto x fence: a reconfiguration whose compiled plan is vetoed
// must still run the fence first — outstanding shard deltas fold under the
// plan they were produced under — and must leave the interpreted path
// serving.  Register equality against an all-sequential world proves no
// delta was lost or folded under the wrong plan (the model checker proves
// the same property over the bounded protocol; this is the end-to-end
// instance).
TEST(ShardedVeto, VetoedRepublishStillFencesOutstandingDeltas) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(400, 10'000, 33);

  World ws, wp;
  const MixIds seq_ids = deploy_mergeable_mix(ws.ctl);
  const MixIds par_ids = deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(3);

  const auto half = trace.size() / 2;
  ws.dp.process_batch(std::span<const Packet>(trace).subspan(0, half));
  wp.dp.process_batch(
      std::span<const Packet>(trace).subspan(0, half));
  // wp's shards now hold unmerged deltas produced under the current plan.

  // Veto every publish from here on: the reconfiguration fence must still
  // fold those deltas under the OLD plan before the veto unpublishes it.
  wp.dp.set_plan_validator([](const FlyMonDataPlane&, const exec::ExecPlan&) {
    return std::string("synthetic veto");
  });
  ASSERT_TRUE(ws.ctl.resize_task(seq_ids.maxq, 8192).ok);
  ASSERT_TRUE(wp.ctl.resize_task(par_ids.maxq, 8192).ok);
  EXPECT_EQ(wp.dp.last_publish_veto(), "synthetic veto");
  EXPECT_EQ(wp.dp.current_plan(), nullptr);  // interpreted path serves
  expect_identical_registers(ws.dp, wp.dp, "deltas folded at the veto fence");

  // Traffic keeps flowing while vetoed (pool falls back to interpreted
  // execution) and the worlds stay byte-identical.
  ws.dp.process_batch(std::span<const Packet>(trace).subspan(half));
  wp.dp.process_batch(std::span<const Packet>(trace).subspan(half));
  wp.dp.merge_shards();
  EXPECT_EQ(wp.dp.packets_processed(), trace.size());
  expect_identical_registers(ws.dp, wp.dp, "interpreted service under veto");

  // Lifting the veto republishes and parallel processing resumes exactly.
  wp.dp.set_plan_validator({});
  EXPECT_GT(wp.dp.republish_plan(), 0u);
  EXPECT_TRUE(wp.dp.last_publish_veto().empty());
  ASSERT_NE(wp.dp.current_plan(), nullptr);
  ws.dp.process_batch(std::span<const Packet>(trace).subspan(0, half));
  wp.dp.process_batch(
      std::span<const Packet>(trace).subspan(0, half));
  wp.dp.merge_shards();
  expect_identical_registers(ws.dp, wp.dp, "parallel resumes after veto");
}

// ---------------------------------------------------------------------------
// Mergeability analysis + sequential fallback.
// ---------------------------------------------------------------------------

/// A max-interarrival task: its chained timestamp blocks the shard merge.
void deploy_chained(control::Controller& ctl) {
  TaskSpec s;
  s.name = "maxgap";
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kMax;
  s.algorithm = Algorithm::kMaxInterarrival;
  s.memory_buckets = 16384;
  s.rows = 1;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
}

TEST(ShardedFallback, ChainedPlansAreFlaggedAndFallBackSequentially) {
  EnabledGuard on(false);
  World ws, wp;
  ASSERT_NO_FATAL_FAILURE(deploy_chained(ws.ctl));
  ASSERT_NO_FATAL_FAILURE(deploy_chained(wp.ctl));

  const auto plan = wp.dp.current_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_FALSE(plan->shard_mergeable());
  ASSERT_FALSE(plan->merge_blockers().empty());
  EXPECT_NE(plan->merge_blockers().front().find("chain"), std::string::npos)
      << plan->merge_blockers().front();

  const std::vector<Packet> trace = make_trace(200, 5000, 13);
  ws.dp.process_batch(trace);
  wp.dp.enable_parallel(4);
  wp.dp.process_batch(trace);
  wp.dp.merge_shards();

  const exec::ParallelStats stats = wp.dp.parallel_stats();
  EXPECT_EQ(stats.parallel_batches, 0u);
  EXPECT_EQ(stats.fallback_batches, 1u);
  expect_identical_registers(ws.dp, wp.dp, "unmergeable fallback");
}

// process_batch is the only entry point: on a pool-enabled plane it runs
// sharded, and each sequential fallback runs to completion (the pool must
// not re-enter process_batch) and is counted once under its cause.
TEST(ShardedFallback, ProcessBatchOnPoolShardsAndCountsEachFallbackCause) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(500, 12'000, 43);
  const std::size_t q = trace.size() / 4;
  World ws, wp;
  deploy_mergeable_mix(ws.ctl);
  deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(3);
  const auto feed = [&](std::size_t i) {
    for (World* w : {&ws, &wp}) {
      w->dp.process_batch(std::span<const Packet>(trace).subspan(i * q, q));
    }
  };

  feed(0);  // mergeable plan, no tracer: sharded
  telemetry::PacketTracer ts(64, 16), tp(64, 16);
  ws.dp.set_tracer(&ts);
  wp.dp.set_tracer(&tp);
  feed(1);
  ws.dp.set_tracer(nullptr);
  wp.dp.set_tracer(nullptr);
  EXPECT_GT(tp.records_taken(), 0u);
  EXPECT_EQ(ts.records_taken(), tp.records_taken());
  ASSERT_NO_FATAL_FAILURE(deploy_chained(ws.ctl));
  ASSERT_NO_FATAL_FAILURE(deploy_chained(wp.ctl));
  feed(2);
  ws.dp.unpublish_plan();
  wp.dp.unpublish_plan();
  feed(3);

  const exec::ParallelStats stats = wp.dp.parallel_stats();
  EXPECT_EQ(stats.parallel_batches, 1u);
  EXPECT_EQ(stats.fallback_tracer, 1u);
  EXPECT_EQ(stats.fallback_unmergeable, 1u);
  EXPECT_EQ(stats.fallback_no_plan, 1u);
  EXPECT_EQ(stats.fallback_batches, 3u);
  wp.dp.merge_shards();
  EXPECT_EQ(wp.dp.packets_processed(), 4 * q);
  expect_identical_registers(ws.dp, wp.dp, "process_batch on a pool");
  expect_identical_counters(ws, wp, "process_batch on a pool");
}

// ---------------------------------------------------------------------------
// Merge-on-demand: query and telemetry paths fold shards implicitly.
// ---------------------------------------------------------------------------

TEST(ShardedMerge, ControllerQueriesMergeOnDemand) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(300, 6000, 5);

  World ws, wp;
  const MixIds seq_ids = deploy_mergeable_mix(ws.ctl);
  const MixIds par_ids = deploy_mergeable_mix(wp.ctl);

  ws.dp.process_batch(trace);
  wp.dp.enable_parallel(4);
  wp.dp.process_batch(trace);

  // No explicit merge_shards(): the readout path must fold the shards.
  for (std::size_t i = 0; i < trace.size(); i += 499) {
    EXPECT_EQ(ws.ctl.query_value(seq_ids.cms, trace[i]),
              wp.ctl.query_value(par_ids.cms, trace[i]))
        << "query path did not merge outstanding shard deltas";
  }
  expect_identical_registers(ws.dp, wp.dp, "merge-on-query");
}

TEST(ShardedMerge, TelemetryCollectionMergesCounters) {
  EnabledGuard on(true);
  const std::vector<Packet> trace = make_trace(100, 2000, 17);

  World w;
  deploy_mergeable_mix(w.ctl);
  w.dp.enable_parallel(2);
  w.dp.process_batch(trace);

  // Pipeline total is maintained by the pool; per-group counters travel
  // through the shard blocks and appear only after a merge point.
  EXPECT_EQ(w.registry.counter("flymon_packets_total").value(), trace.size());
  collect_dataplane_telemetry(w.dp, w.registry);  // non-const overload merges
  EXPECT_EQ(w.registry
                .counter("flymon_group_packets_total", {{"group", "0"}})
                .value(),
            trace.size());
}

TEST(ShardedMerge, ClearRegistersDiscardsShardDeltas) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(100, 2000, 19);

  World w;
  const MixIds ids = deploy_mergeable_mix(w.ctl);
  w.dp.enable_parallel(3);
  w.dp.process_batch(trace);
  w.dp.clear_registers();  // epoch boundary: shard deltas die with the epoch

  // A later merge point must not resurrect pre-clear state.
  EXPECT_EQ(w.ctl.query_value(ids.cms, trace.front()), 0u);
  for (unsigned g = 0; g < w.dp.num_groups(); ++g) {
    for (unsigned c = 0; c < w.dp.group(g).num_cmus(); ++c) {
      const auto& reg = w.dp.group(g).cmu(c).reg();
      for (const std::uint32_t v : reg.read_range(0, reg.size())) {
        ASSERT_EQ(v, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Epoch integration: parallel epochs produce sequential readouts.
// ---------------------------------------------------------------------------

TEST(ShardedEpoch, EpochRunnerReadoutsMatchSequential) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(400, 10'000, 29);

  World ws, wp;
  const MixIds seq_ids = deploy_mergeable_mix(ws.ctl);
  const MixIds par_ids = deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(4);

  const std::uint64_t span_ns =
      trace.back().ts_ns - trace.front().ts_ns + 1;
  const std::uint64_t window = span_ns / 4 + 1;

  std::vector<std::uint64_t> seq_values, par_values;
  control::EpochRunner seq_runner(ws.dp, window);
  seq_runner.run(trace, [&](unsigned, std::span<const Packet> pkts) {
    for (const Packet& p : pkts) {
      seq_values.push_back(ws.ctl.query_value(seq_ids.cms, p));
    }
  });
  control::EpochRunner par_runner(wp.dp, window);
  par_runner.run(trace, [&](unsigned, std::span<const Packet> pkts) {
    for (const Packet& p : pkts) {
      par_values.push_back(wp.ctl.query_value(par_ids.cms, p));
    }
  });

  EXPECT_EQ(seq_values, par_values);
}

// ---------------------------------------------------------------------------
// Pool lifecycle.
// ---------------------------------------------------------------------------

TEST(ShardedLifecycle, DisableParallelMergesOutstandingDeltas) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(200, 4000, 31);

  World ws, wp;
  const MixIds seq_ids = deploy_mergeable_mix(ws.ctl);
  const MixIds par_ids = deploy_mergeable_mix(wp.ctl);

  ws.dp.process_batch(trace);
  wp.dp.enable_parallel(4);
  wp.dp.process_batch(trace);
  wp.dp.disable_parallel();
  EXPECT_EQ(wp.dp.parallel_workers(), 0u);

  expect_identical_registers(ws.dp, wp.dp, "disable merges");
  EXPECT_EQ(ws.ctl.query_value(seq_ids.cms, trace.front()),
            wp.ctl.query_value(par_ids.cms, trace.front()));

  // With the pool gone, process_batch runs the sequential path again.
  EXPECT_GT(wp.dp.process_batch(trace), 0u);
  EXPECT_EQ(wp.dp.packets_processed(), 2 * trace.size());
}

TEST(ShardedLifecycle, SingleWorkerPoolSpawnsNoThreadsAndStaysExact) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(200, 4000, 37);

  World ws, wp;
  deploy_mergeable_mix(ws.ctl);
  deploy_mergeable_mix(wp.ctl);

  ws.dp.process_batch(trace);
  wp.dp.enable_parallel(1);
  EXPECT_EQ(wp.dp.parallel_workers(), 1u);
  wp.dp.process_batch(trace);
  wp.dp.merge_shards();
  expect_identical_registers(ws.dp, wp.dp, "single-worker pool");
}

// ---------------------------------------------------------------------------
// CI smoke (also wired into the TSan workflow leg): 2-thread equivalence,
// sized to finish quickly under sanitizers.
// ---------------------------------------------------------------------------

TEST(ShardedSmoke, TwoThreadEquivalence) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(300, 8000, 41);

  World ws, wp;
  deploy_mergeable_mix(ws.ctl);
  deploy_mergeable_mix(wp.ctl);

  ws.dp.process_batch(trace);
  wp.dp.enable_parallel(2);
  wp.dp.process_batch(trace);
  wp.dp.merge_shards();

  const exec::ParallelStats stats = wp.dp.parallel_stats();
  EXPECT_EQ(stats.fallback_batches, 0u);
  EXPECT_EQ(stats.parallel_batches, 1u);
  expect_identical_registers(ws.dp, wp.dp, "2-thread smoke");
}

// ---------------------------------------------------------------------------
// Churn: reconfigure while parallel batches are in flight.  The publish
// fence serialises against submissions, so every batch executes one
// coherent plan and every shard delta merges under the plan it was
// produced with.  TSan is the referee.
// ---------------------------------------------------------------------------

TEST(ShardedChurn, ReconfigureWhileProcessingIsRaceFree) {
  EnabledGuard on(false);
  World w;
  deploy_mergeable_mix(w.ctl);
  w.dp.enable_parallel(3);
  const std::vector<Packet> trace = make_trace(256, 2048, 9);

  std::atomic<bool> stop{false};
  std::uint64_t batches = 0;
  bool generations_ok = true;
  std::thread proc([&] {
    std::uint64_t last_gen = 0;
    while (true) {
      const std::uint64_t gen = w.dp.process_batch(trace);
      if (gen < last_gen) {
        generations_ok = false;
        break;
      }
      last_gen = gen;
      ++batches;
      if (stop.load(std::memory_order_acquire) && batches >= 8) break;
    }
  });

  constexpr int kChurn = 20;
  for (int i = 0; i < kChurn; ++i) {
    TaskSpec s;
    s.name = "churn";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 2048;
    s.rows = 1;
    const auto r = w.ctl.add_task(s);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(w.ctl.remove_task(r.task_id));
  }
  stop.store(true, std::memory_order_release);
  proc.join();
  w.dp.merge_shards();

  EXPECT_TRUE(generations_ok)
      << "parallel path observed a decreasing plan generation";
  EXPECT_GE(batches, 8u);
  EXPECT_EQ(w.dp.packets_processed(), batches * trace.size());
}

}  // namespace
}  // namespace flymon
