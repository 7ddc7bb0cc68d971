// Tests for the compiled ExecPlan hot path:
//   - golden equivalence: the interpreted per-packet path, the compiled
//     per-packet path and the compiled batched path must leave byte-identical
//     register state and identical telemetry counts for the same trace;
//   - tracer fallback: traced packets run the interpreted slow path even
//     when a plan is published, producing the same trace records;
//   - plan generations across controller reconfiguration;
//   - RCU snapshot swap under a concurrent reconfiguration thread (the
//     interesting assertions fire under TSan: no data race, no torn plan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/crc_kernels.hpp"
#include "control/controller.hpp"
#include "exec/exec_plan.hpp"
#include "exec/worker_pool.hpp"
#include "packet/trace_gen.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_ring.hpp"
#include "trace/stage_profiler.hpp"
#include "verify/planner.hpp"

namespace flymon {
namespace {

/// Flip the global telemetry switch for one test, restoring on exit.
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

/// The golden mix: every stateful op, both gated preparations, composite
/// chains (SuMax(sum), max inter-arrival, Counter Braids), a sampled task
/// and a filtered task.  Deployed in the same order
/// everywhere so public task ids (and thus sampling seeds) line up.
void deploy_mix(control::Controller& ctl) {
  {
    TaskSpec s;
    s.name = "cms";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 8192;
    s.rows = 3;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "cms: " << r.error;
  }
  {
    TaskSpec s;
    s.name = "bloom";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kExistence;
    s.memory_buckets = 8192;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "bloom: " << r.error;
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
    ASSERT_TRUE(r.ok) << "beaucoup: " << r.error;
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
    ASSERT_TRUE(r.ok) << "maxq: " << r.error;
  }
  {
    TaskSpec s;
    s.name = "maxgap";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kMax;
    s.algorithm = Algorithm::kMaxInterarrival;
    s.memory_buckets = 16384;
    s.rows = 1;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "maxgap: " << r.error;
  }
  {
    TaskSpec s;
    s.name = "sumax-sum";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.algorithm = Algorithm::kSuMaxSum;
    s.memory_buckets = 4096;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "sumax-sum: " << r.error;
  }
  {
    TaskSpec s;
    s.name = "braids";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.algorithm = Algorithm::kCounterBraids;
    s.memory_buckets = 8192;
    s.rows = 1;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "braids: " << r.error;
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
    ASSERT_TRUE(r.ok) << "sampled: " << r.error;
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
    ASSERT_TRUE(r.ok) << "filtered: " << r.error;
  }
}

void deploy_cms(control::Controller& ctl, const char* name = "cms") {
  TaskSpec s;
  s.name = name;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 4096;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
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

/// Compare every hot-path counter series by direct registry lookup (lookups
/// auto-register a zero-valued series, so eager registration on the
/// compiled path vs lazy on the interpreted path cannot skew the result).
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
// Golden equivalence: interpreted vs compiled vs compiled-batched.
// ---------------------------------------------------------------------------

TEST(ExecGolden, CompiledAndBatchedMatchInterpretedByteForByte) {
  EnabledGuard on(true);
  const std::vector<Packet> trace = make_trace(2000, 40'000);

  World wi, wc, wb;
  ASSERT_NO_FATAL_FAILURE(deploy_mix(wi.ctl));
  ASSERT_NO_FATAL_FAILURE(deploy_mix(wc.ctl));
  ASSERT_NO_FATAL_FAILURE(deploy_mix(wb.ctl));

  // World A: interpreted per-packet path (plan dropped).
  wi.dp.unpublish_plan();
  ASSERT_EQ(wi.dp.plan_generation(), 0u);
  for (const Packet& p : trace) wi.dp.process_batch({&p, 1});

  // World B: compiled path, one packet at a time.
  ASSERT_GT(wc.dp.plan_generation(), 0u);
  for (const Packet& p : trace) wc.dp.process_batch({&p, 1});

  // World C: compiled path, whole trace as one batch.
  const std::uint64_t gen = wb.dp.process_batch(trace);
  EXPECT_GT(gen, 0u);
  EXPECT_EQ(gen, wb.dp.plan_generation());

  EXPECT_EQ(wi.dp.packets_processed(), trace.size());
  EXPECT_EQ(wc.dp.packets_processed(), trace.size());
  EXPECT_EQ(wb.dp.packets_processed(), trace.size());

  expect_identical_registers(wi.dp, wc.dp, "interpreted vs compiled");
  expect_identical_registers(wi.dp, wb.dp, "interpreted vs batched");
  expect_identical_counters(wi, wc, "interpreted vs compiled");
  expect_identical_counters(wi, wb, "interpreted vs batched");
}

// ---------------------------------------------------------------------------
// Shape matrix: every CMU shape the batch path specialises (one unsampled,
// chain-free entry: each op x prep in {none, coupon, bit-select} x param
// source) and the shapes that must keep the generic first-match walk
// (multi-entry filtered CMUs, sampling, chain readers/writers, the golden
// mix) leave
// identical registers and counters on the interpreted, batched, profiled
// batched and sharded(2) executors, at the dispatched and the forced-scalar
// CRC level.
// ---------------------------------------------------------------------------

/// Force one CRC implementation level for a scope.
struct CrcImplGuard {
  explicit CrcImplGuard(CrcImpl impl) { crc_set_impl_override(impl); }
  ~CrcImplGuard() { crc_set_impl_override(crc_supported_impl()); }
};

struct Shape {
  dataplane::StatefulOp op;
  PrepFn prep;
  ParamSelect::Source p1;
  ParamSelect::Source p2;
  bool filtered;
};

ParamSelect shape_param(ParamSelect::Source src, std::uint32_t const_value) {
  switch (src) {
    case ParamSelect::Source::kMeta:
      return ParamSelect::metadata(MetaField::kWireBytes);
    case ParamSelect::Source::kCompressedKey:
      return ParamSelect::compressed({1, 2}, KeySlice{3, 20});
    default:
      return ParamSelect::constant(const_value);
  }
}

/// Mirrors the plan compiler's merge blockers for one single-entry shape.
bool shape_mergeable(const Shape& sh) {
  const bool one_hot = sh.prep != PrepFn::kNone;
  switch (sh.op) {
    case dataplane::StatefulOp::kCondAdd:
      return !one_hot && sh.p2 == ParamSelect::Source::kConst;
    case dataplane::StatefulOp::kAndOr:
      return one_hot || sh.p2 == ParamSelect::Source::kConst;
    default:
      return true;
  }
}

/// Every single-entry shape, split into chunks of at most 27 (one per CMU
/// of a 9-group plane) that are all mergeable or all not, so the sharded
/// executor really shards every mergeable shape.
std::vector<std::vector<Shape>> specialised_shape_chunks() {
  using dataplane::StatefulOp;
  using Src = ParamSelect::Source;
  std::vector<Shape> merge, gated;
  unsigned i = 0;
  for (const StatefulOp op : {StatefulOp::kNop, StatefulOp::kCondAdd,
                              StatefulOp::kMax, StatefulOp::kAndOr,
                              StatefulOp::kXor}) {
    for (const PrepFn prep : {PrepFn::kNone, PrepFn::kCouponOneHot,
                              PrepFn::kBitSelectOneHot}) {
      for (const Src p1 : {Src::kConst, Src::kMeta, Src::kCompressedKey}) {
        for (const Src p2 : {Src::kConst, Src::kMeta, Src::kCompressedKey}) {
          const Shape sh{op, prep, p1, p2, ++i % 4 == 0};
          (shape_mergeable(sh) ? merge : gated).push_back(sh);
        }
      }
    }
  }
  std::vector<std::vector<Shape>> chunks;
  for (const std::vector<Shape>* set : {&merge, &gated}) {
    for (std::size_t b = 0; b < set->size(); b += 27) {
      chunks.emplace_back(set->begin() + static_cast<std::ptrdiff_t>(b),
                          set->begin() + static_cast<std::ptrdiff_t>(
                                             std::min(b + 27, set->size())));
    }
  }
  return chunks;
}

void configure_units(FlyMonDataPlane& dp) {
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    CompressionStage& comp = dp.group(g).compression();
    comp.configure(0, FlowKeySpec::five_tuple());
    comp.configure(1, FlowKeySpec::src_ip());
    comp.configure(2, FlowKeySpec::dst_ip());
  }
}

/// An unfiltered, unsampled entry keyed on the five-tuple unit: p1 = 1,
/// p2 = all ones, partition [0, 4096).
CmuTaskEntry plain_entry(std::uint32_t id, dataplane::StatefulOp op) {
  CmuTaskEntry e;
  e.task_id = id;
  e.key_sel = {0, -1};
  e.key_slice = {0, 16};
  e.partition = {0, 4096};
  e.op = op;
  e.p1 = ParamSelect::constant(1);
  e.p2 = ParamSelect::constant(0xFFFF'FFFFu);
  return e;
}

/// One entry per CMU, shape k on group k / 3, CMU k % 3.
void install_shapes(FlyMonDataPlane& dp, const std::vector<Shape>& shapes) {
  configure_units(dp);
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    const Shape& sh = shapes[k];
    Cmu& cmu = dp.group(static_cast<unsigned>(k / 3))
                   .cmu(static_cast<unsigned>(k % 3));
    if (sh.op == dataplane::StatefulOp::kNop ||
        sh.op == dataplane::StatefulOp::kXor) {
      cmu.preload_op(sh.op);
    }
    CmuTaskEntry e = plain_entry(static_cast<std::uint32_t>(100 + k), sh.op);
    if (sh.filtered) e.filter = TaskFilter::src(0x0A000000, 9);
    e.partition = {1024, 4096};
    e.prep = sh.prep;
    e.coupon = {16, 1.0 / 32};
    e.p1 = shape_param(sh.p1, 0x9E37);
    e.p2 = shape_param(sh.p2, sh.op == dataplane::StatefulOp::kAndOr
                                  ? 1u
                                  : 0xFFFF'FFFFu);
    cmu.install(e);
  }
}

/// Shapes that keep the generic walk, installed directly: a CMU with two
/// disjoint filtered entries, a sampled entry over an unsampled one, a lone
/// sampled entry, and a coupon entry whose aborts end the CMU's walk ahead
/// of a second entry.
void install_generic_shapes(FlyMonDataPlane& dp) {
  configure_units(dp);
  CmuTaskEntry low = plain_entry(1, dataplane::StatefulOp::kCondAdd);
  low.filter = TaskFilter::src(0x0A000000, 9);
  CmuTaskEntry high = plain_entry(2, dataplane::StatefulOp::kMax);
  high.filter = TaskFilter::src(0x0A800000, 9);
  high.partition = {4096, 4096};
  high.p1 = ParamSelect::metadata(MetaField::kWireBytes);
  dp.group(0).cmu(0).install(low);
  dp.group(0).cmu(0).install(high);

  CmuTaskEntry sampled = plain_entry(3, dataplane::StatefulOp::kCondAdd);
  sampled.sample_probability = 0.5;
  sampled.priority = 10;
  CmuTaskEntry fallback = plain_entry(4, dataplane::StatefulOp::kCondAdd);
  fallback.partition = {4096, 4096};
  dp.group(0).cmu(1).install(sampled);
  dp.group(0).cmu(1).install(fallback);

  CmuTaskEntry lone = plain_entry(5, dataplane::StatefulOp::kCondAdd);
  lone.sample_probability = 0.25;
  dp.group(0).cmu(2).install(lone);

  CmuTaskEntry coupon = plain_entry(6, dataplane::StatefulOp::kAndOr);
  coupon.filter = TaskFilter::src(0x0A000000, 9);
  coupon.prep = PrepFn::kCouponOneHot;
  coupon.coupon = {16, 1.0 / 32};
  coupon.p1 = ParamSelect::compressed({1, -1});
  CmuTaskEntry after = plain_entry(7, dataplane::StatefulOp::kCondAdd);
  after.filter = TaskFilter::src(0x0A800000, 9);
  after.partition = {4096, 4096};
  dp.group(1).cmu(0).install(coupon);
  dp.group(1).cmu(0).install(after);
}

/// Single-entry CMUs that read a chain channel without writing one (p2
/// gates a Cond-ADD, p1 feeds a MAX), behind a Cond-ADD that writes it.
void install_chain_readers(FlyMonDataPlane& dp) {
  configure_units(dp);
  CmuTaskEntry writer = plain_entry(1, dataplane::StatefulOp::kCondAdd);
  writer.chain_out = 5;
  CmuTaskEntry gated = plain_entry(2, dataplane::StatefulOp::kCondAdd);
  gated.p2 = ParamSelect::chain(5);
  CmuTaskEntry fed = plain_entry(3, dataplane::StatefulOp::kMax);
  fed.p1 = ParamSelect::chain(5);
  dp.group(0).cmu(0).install(writer);
  dp.group(1).cmu(0).install(gated);
  dp.group(1).cmu(1).install(fed);
}

std::uint64_t sum_cmu_counter(World& w, const std::string& name) {
  std::uint64_t total = 0;
  for (unsigned g = 0; g < w.dp.num_groups(); ++g) {
    for (unsigned c = 0; c < w.dp.group(g).num_cmus(); ++c) {
      total += w.registry
                   .counter(name, {{"group", std::to_string(g)},
                                   {"cmu", std::to_string(c)}})
                   .value();
    }
  }
  return total;
}

/// Run `trace` through four worlds built by `deploy` — interpreted, batched,
/// batched with the stage profiler on every batch, sharded(2) — and require
/// identical registers and counters.  With `expect_mergeable` the sharded
/// world must really shard (no fallback batch).
template <typename Deploy>
void expect_executors_agree(const std::vector<Packet>& trace, Deploy deploy,
                            bool expect_mergeable, const std::string& what) {
  SCOPED_TRACE(what);
  World wi, wb, wp, ws;
  for (World* w : {&wi, &wb, &wp, &ws}) {
    ASSERT_NO_FATAL_FAILURE(deploy(*w));
    ASSERT_NE(w->dp.current_plan(), nullptr);
  }
  ASSERT_EQ(ws.dp.current_plan()->shard_mergeable(), expect_mergeable);

  wi.dp.unpublish_plan();
  for (const Packet& p : trace) wi.dp.process_batch({&p, 1});

  wb.dp.process_batch(trace);

  auto& prof = trace::StageProfiler::global();
  prof.set_enabled(true);
  prof.set_sample_every(1);
  prof.reset();
  wp.dp.process_batch(trace);
  prof.set_enabled(false);
  // One SALU lap per CMU loop, booking every entry that ran or aborted.
  EXPECT_EQ(prof.snapshot()[static_cast<std::size_t>(trace::Stage::kSalu)].items,
            sum_cmu_counter(wp, "flymon_cmu_updates_total") +
                sum_cmu_counter(wp, "flymon_cmu_prep_aborts_total"));

  ws.dp.enable_parallel(2);
  ws.dp.process_batch(trace);
  ws.dp.merge_shards();
  if (expect_mergeable) {
    EXPECT_EQ(ws.dp.parallel_stats().fallback_batches, 0u);
  }

  EXPECT_GT(sum_cmu_counter(wi, "flymon_cmu_updates_total"), 0u);
  expect_identical_registers(wi.dp, wb.dp, "interpreted vs batched");
  expect_identical_registers(wi.dp, wp.dp, "interpreted vs profiled");
  expect_identical_registers(wi.dp, ws.dp, "interpreted vs sharded");
  expect_identical_counters(wi, wb, "interpreted vs batched");
  expect_identical_counters(wi, wp, "interpreted vs profiled");
  expect_identical_counters(wi, ws, "interpreted vs sharded");
}

TEST(ExecShapeMatrix, SpecialisedShapesMatchEveryExecutor) {
  EnabledGuard on(true);
  const std::vector<Packet> trace = make_trace(1500, 4000, 11);
  const auto chunks = specialised_shape_chunks();
  ASSERT_EQ(chunks.size(), 6u);  // 135 shapes: 105 mergeable, 30 gated
  for (const CrcImpl impl : {crc_supported_impl(), CrcImpl::kScalar}) {
    CrcImplGuard crc(impl);
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      const auto& shapes = chunks[k];
      expect_executors_agree(
          trace,
          [&](World& w) {
            install_shapes(w.dp, shapes);
            w.dp.republish_plan(std::span<const exec::EntryOwnership>{});
          },
          shape_mergeable(shapes.front()),
          std::string("crc ") + to_string(impl) + ", chunk " +
              std::to_string(k));
    }
  }
}

TEST(ExecShapeMatrix, GenericShapesMatchEveryExecutor) {
  EnabledGuard on(true);
  const std::vector<Packet> trace = make_trace(1500, 4000, 12);
  for (const CrcImpl impl : {crc_supported_impl(), CrcImpl::kScalar}) {
    CrcImplGuard crc(impl);
    const std::string level = std::string("crc ") + to_string(impl);
    expect_executors_agree(
        trace,
        [](World& w) {
          install_generic_shapes(w.dp);
          w.dp.republish_plan(std::span<const exec::EntryOwnership>{});
        },
        true, level + ", filtered/sampled");
    expect_executors_agree(
        trace,
        [](World& w) {
          install_chain_readers(w.dp);
          w.dp.republish_plan(std::span<const exec::EntryOwnership>{});
        },
        false, level + ", chain readers");
    expect_executors_agree(
        trace, [](World& w) { deploy_mix(w.ctl); }, false,
        level + ", golden mix");
  }
}

// ---------------------------------------------------------------------------
// Tracer fallback: traced packets take the interpreted slow path and record
// the same PHV transformations as a fully interpreted run.
// ---------------------------------------------------------------------------

TEST(ExecTracer, TracedPacketsFallBackToInterpretedPath) {
  EnabledGuard on(true);
  const std::vector<Packet> trace = make_trace(50, 200, 3);

  World wi, wb;
  ASSERT_NO_FATAL_FAILURE(deploy_cms(wi.ctl));
  ASSERT_NO_FATAL_FAILURE(deploy_cms(wb.ctl));

  telemetry::PacketTracer ti(256, 4), tb(256, 4);
  wi.dp.set_tracer(&ti);
  wi.dp.unpublish_plan();
  for (const Packet& p : trace) wi.dp.process_batch({&p, 1});

  wb.dp.set_tracer(&tb);
  ASSERT_GT(wb.dp.process_batch(trace), 0u);

  EXPECT_EQ(ti.packets_seen(), tb.packets_seen());
  EXPECT_EQ(ti.records_taken(), tb.records_taken());
  EXPECT_GT(tb.records_taken(), 0u);
  expect_identical_registers(wi.dp, wb.dp, "tracer fallback");

  const auto ra = ti.records();
  const auto rb = tb.records();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].seq, rb[i].seq);
    ASSERT_EQ(ra[i].steps.size(), rb[i].steps.size());
    for (std::size_t j = 0; j < ra[i].steps.size(); ++j) {
      const auto& sa = ra[i].steps[j];
      const auto& sb = rb[i].steps[j];
      EXPECT_EQ(sa.group, sb.group);
      EXPECT_EQ(sa.cmu, sb.cmu);
      EXPECT_EQ(sa.task_id, sb.task_id);
      EXPECT_EQ(sa.selected_key, sb.selected_key);
      EXPECT_EQ(sa.sliced_key, sb.sliced_key);
      EXPECT_EQ(sa.address, sb.address);
      EXPECT_STREQ(sa.op, sb.op);
      EXPECT_EQ(sa.p1, sb.p1);
      EXPECT_EQ(sa.p2, sb.p2);
      EXPECT_EQ(sa.result, sb.result);
      EXPECT_EQ(sa.aborted, sb.aborted);
    }
  }
}

// ---------------------------------------------------------------------------
// Plan lifecycle: generations advance with every reconfiguration, unpublish
// reverts to interpreted execution.
// ---------------------------------------------------------------------------

TEST(ExecPlanApi, GenerationAdvancesAcrossReconfiguration) {
  World w;
  EXPECT_EQ(w.dp.plan_generation(), 0u);
  EXPECT_EQ(w.dp.current_plan(), nullptr);

  ASSERT_NO_FATAL_FAILURE(deploy_cms(w.ctl, "first"));
  const std::uint64_t g1 = w.dp.plan_generation();
  ASSERT_GT(g1, 0u);

  const std::shared_ptr<const exec::ExecPlan> plan = w.dp.current_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->generation(), g1);
  EXPECT_GT(plan->num_entries(), 0u);
  ASSERT_FALSE(plan->ownership().empty());
  bool named = false;
  for (const std::string& line : plan->signature()) {
    if (line.find("\"first\"") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named) << "signature lines carry the owning task name";

  TaskSpec s;
  s.name = "second";
  s.key = FlowKeySpec::src_ip();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 2048;
  s.rows = 1;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  const std::uint64_t g2 = w.dp.plan_generation();
  EXPECT_GT(g2, g1);

  const auto rr = w.ctl.resize_task(r.task_id, 4096);
  ASSERT_TRUE(rr.ok) << rr.error;
  const std::uint64_t g3 = w.dp.plan_generation();
  EXPECT_GT(g3, g2);

  ASSERT_TRUE(w.ctl.remove_task(rr.task_id));
  const std::uint64_t g4 = w.dp.plan_generation();
  EXPECT_GT(g4, g3);

  // The old snapshot is immutable: its generation is untouched by later
  // publishes, readers holding it keep a consistent view.
  EXPECT_EQ(plan->generation(), g1);

  w.dp.unpublish_plan();
  EXPECT_EQ(w.dp.plan_generation(), 0u);
  const std::vector<Packet> trace = make_trace(10, 32, 5);
  EXPECT_EQ(w.dp.process_batch(trace), 0u);  // interpreted fallback
  EXPECT_EQ(w.dp.packets_processed(), trace.size());

  EXPECT_GT(w.dp.republish_plan(), g4);
}

// ---------------------------------------------------------------------------
// RCU snapshot swap: a processing thread hammers process_batch while the
// controller thread reconfigures.  Under TSan this is the no-data-race /
// no-torn-read regression test; everywhere it checks generations observed
// by the packet path are monotone (read-read coherence on the plan cell).
// ---------------------------------------------------------------------------

TEST(ExecRcu, PlanSwapUnderConcurrentReconfigIsRaceFree) {
  World w;
  ASSERT_NO_FATAL_FAILURE(deploy_cms(w.ctl, "base"));
  const std::vector<Packet> trace = make_trace(256, 2048, 9);

  std::atomic<bool> stop{false};
  std::uint64_t last_gen = 0;
  std::uint64_t batches = 0;
  bool monotone = true;
  std::thread proc([&] {
    while (true) {
      const std::uint64_t gen = w.dp.process_batch(trace);
      if (gen == 0 || gen < last_gen) {
        monotone = false;
        break;
      }
      last_gen = gen;
      ++batches;
      if (stop.load(std::memory_order_acquire) && batches >= 8) break;
    }
  });

  constexpr int kChurn = 25;
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

  EXPECT_TRUE(monotone) << "packet path observed a zero or decreasing "
                           "plan generation";
  EXPECT_GE(batches, 8u);
  // Deploy + kChurn * (add publish + remove publish) at minimum.
  EXPECT_GE(w.dp.plan_generation(), 1u + 2u * kChurn);
  EXPECT_EQ(w.dp.packets_processed(), batches * trace.size());
}

// ---------------------------------------------------------------------------
// Concurrent publishers: republish_plan from several threads must keep the
// published generation strictly monotone (publish_mu_ serialises compiles;
// PlanCell::store_if_newer is the belt-and-braces ordering check) and land
// on exactly initial + publishers * publishes.
// ---------------------------------------------------------------------------

TEST(ExecRcu, ConcurrentPublishersKeepGenerationsMonotone) {
  World w;
  ASSERT_NO_FATAL_FAILURE(deploy_cms(w.ctl, "base"));
  const std::uint64_t start = w.dp.plan_generation();
  ASSERT_GT(start, 0u);

  constexpr unsigned kPublishers = 4;
  constexpr unsigned kPublishes = 50;
  std::atomic<bool> stop{false};
  std::atomic<bool> monotone{true};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t gen = w.dp.plan_generation();
      if (gen < last) {
        monotone.store(false, std::memory_order_relaxed);
        break;
      }
      last = gen;
    }
  });
  std::vector<std::thread> publishers;
  for (unsigned t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&] {
      for (unsigned i = 0; i < kPublishes; ++i) w.dp.republish_plan();
    });
  }
  for (std::thread& t : publishers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_TRUE(monotone.load()) << "a reader observed a decreasing generation";
  EXPECT_EQ(w.dp.plan_generation(), start + kPublishers * kPublishes);
}

// ---------------------------------------------------------------------------
// Dry-run plan diff: a staged batch reports exactly which compiled entries
// it would add/remove, without touching the live pipeline.
// ---------------------------------------------------------------------------

TEST(ExecPlanDiff, StagedBatchReportsCompiledEntryChanges) {
  World w;
  ASSERT_NO_FATAL_FAILURE(deploy_cms(w.ctl, "keep"));
  TaskSpec s;
  s.name = "drop";
  s.key = FlowKeySpec::src_ip();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 2048;
  s.rows = 2;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  const std::uint64_t live_gen = w.dp.plan_generation();

  const auto res = w.ctl.plan({control::PlanOp::remove(r.task_id)});
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.compiled_before.size(), w.dp.current_plan()->num_entries());
  EXPECT_LT(res.compiled_after.size(), res.compiled_before.size());

  const std::string diff =
      verify::format_plan_diff(res.compiled_before, res.compiled_after);
  EXPECT_NE(diff.find("\"drop\""), std::string::npos) << diff;
  EXPECT_EQ(diff.find("+ "), std::string::npos) << "removal adds nothing";

  // Dry run: the live plan was not republished.
  EXPECT_EQ(w.dp.plan_generation(), live_gen);

  // An empty batch diffs to no changes.
  const auto noop = w.ctl.plan({});
  ASSERT_TRUE(noop.ok) << noop.error;
  const std::string nodiff =
      verify::format_plan_diff(noop.compiled_before, noop.compiled_after);
  EXPECT_NE(nodiff.find("no compiled-entry changes"), std::string::npos)
      << nodiff;
}

}  // namespace
}  // namespace flymon
