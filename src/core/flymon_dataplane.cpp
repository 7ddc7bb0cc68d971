#include "core/flymon_dataplane.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "exec/exec_plan.hpp"
#include "exec/worker_pool.hpp"
#include "ingest/packet_source.hpp"
#include "trace/span.hpp"
#include "trace/stage_profiler.hpp"

namespace flymon {

FlyMonDataPlane::FlyMonDataPlane(unsigned num_groups, const CmuGroupConfig& cfg)
    : scratch_(std::make_unique<exec::BatchScratch>()) {
  groups_.reserve(num_groups);
  for (unsigned g = 0; g < num_groups; ++g) groups_.emplace_back(g, cfg);
  bind_telemetry(telemetry::Registry::global());
}

FlyMonDataPlane::~FlyMonDataPlane() = default;

void FlyMonDataPlane::bind_telemetry(telemetry::Registry& registry) {
  registry_ = &registry;
  packets_counter_ = &registry.counter("flymon_packets_total");
  for (CmuGroup& g : groups_) g.bind_telemetry(registry);
  if (pool_ != nullptr) pool_->bind_telemetry(&registry);
  // A published plan caches counter handles: recompile it against the new
  // registry so compiled execution keeps feeding the bound counters.
  if (plan_.load() != nullptr) republish_plan();
}

std::uint64_t FlyMonDataPlane::republish_plan(
    std::span<const exec::EntryOwnership> owners) {
  trace::Span span("exec.publish");
  common::MutexLock publish(publish_mu_);
  // Fence the pool across compile+publish: block submissions and fold
  // outstanding shard deltas under the OLD plan, so no shard ever holds
  // deltas produced under a plan that is no longer the merge target.
  std::optional<exec::WorkerPool::Fence> fence;
  if (pool_ != nullptr) fence.emplace(*pool_);
  auto plan = exec::PlanCompiler::compile(*this, owners, ++next_generation_);
  const std::uint64_t generation = plan->generation();
  if (validator_) {
    std::string veto = validator_(*this, *plan);
    if (!veto.empty()) {
      // Refuse the miscompiled plan AND the previously published one (it
      // describes a deployment that no longer exists): the interpreted
      // path — the semantic ground truth the validator compared against —
      // serves traffic until a clean compile publishes.
      last_publish_veto_ = std::move(veto);
      plan_.store(nullptr);
      span.set_arg(0);
      trace::instant("exec.plan_vetoed", generation);
      return 0;
    }
    last_publish_veto_.clear();
  }
  plan_.store_if_newer(std::move(plan));
  span.set_arg(generation);
  trace::instant("exec.plan_published", generation);
  return generation;
}

std::uint64_t FlyMonDataPlane::republish_plan() {
  const auto cur = plan_.load();
  return republish_plan(cur != nullptr
                            ? std::span<const exec::EntryOwnership>(cur->ownership())
                            : std::span<const exec::EntryOwnership>{});
}

void FlyMonDataPlane::unpublish_plan() noexcept {
  trace::Span span("exec.unpublish");
  common::MutexLock publish(publish_mu_);
  // Merge under the plan the deltas belong to before it goes away.
  std::optional<exec::WorkerPool::Fence> fence;
  if (pool_ != nullptr) fence.emplace(*pool_);
  plan_.store(nullptr);
}

void FlyMonDataPlane::set_plan_validator(PlanValidator validator) {
  common::MutexLock publish(publish_mu_);
  validator_ = std::move(validator);
  last_publish_veto_.clear();
}

std::string FlyMonDataPlane::last_publish_veto() const {
  common::MutexLock publish(publish_mu_);
  return last_publish_veto_;
}

std::shared_ptr<const exec::ExecPlan> FlyMonDataPlane::current_plan() const noexcept {
  return plan_.load();
}

std::uint64_t FlyMonDataPlane::plan_generation() const noexcept {
  const auto plan = plan_.load();
  return plan != nullptr ? plan->generation() : 0;
}

void FlyMonDataPlane::interpret(const Packet& pkt, bool traced) {
  PhvContext ctx;
  if (traced) ctx.trace = tracer_->begin(pkt);
  for (CmuGroup& g : groups_) g.process(pkt, ctx);
  if (ctx.trace != nullptr) tracer_->commit();
  packets_.fetch_add(1, std::memory_order_relaxed);
  packets_counter_->inc();
}

void FlyMonDataPlane::run_plan(const exec::ExecPlan& plan,
                               std::span<const Packet> pkts) {
  if (pkts.empty()) return;
  // Bounded chunks keep the scratch (hash lanes, chain channels) hot in
  // cache for arbitrarily long traces.  Same size as the sharded pool's
  // work-queue chunk, so the two paths process equal-sized units of work.
  constexpr std::size_t chunk = exec::kDefaultBatchChunk;
  for (std::size_t off = 0; off < pkts.size(); off += chunk) {
    plan.run_batch(pkts.subspan(off, std::min(chunk, pkts.size() - off)),
                   *scratch_);
  }
  packets_.fetch_add(pkts.size(), std::memory_order_relaxed);
  packets_counter_->inc(pkts.size());
}

std::uint64_t FlyMonDataPlane::process_batch(std::span<const Packet> pkts) {
  if (pool_ != nullptr) return pool_->process(pkts);
  return run_sequential(pkts);
}

std::uint64_t FlyMonDataPlane::run_sequential(std::span<const Packet> pkts) {
  const auto plan = plan_.load();
  if (plan == nullptr) {
    for (const Packet& p : pkts) {
      interpret(p, tracer_ != nullptr && tracer_->should_sample());
    }
    return 0;
  }
  if (tracer_ == nullptr) {
    run_plan(*plan, pkts);
    return plan->generation();
  }
  // Tracer attached: consume the sampling sequence packet-by-packet (same
  // records as per-packet processing) and split the batch around traced
  // packets, which run the interpreted slow path to record their steps.
  std::size_t run_start = 0;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (tracer_->should_sample()) {
      run_plan(*plan, pkts.subspan(run_start, i - run_start));
      interpret(pkts[i], true);
      run_start = i + 1;
    }
  }
  run_plan(*plan, pkts.subspan(run_start));
  return plan->generation();
}

void FlyMonDataPlane::clear_registers() {
  if (pool_ != nullptr) pool_->discard_shards();
  for (CmuGroup& g : groups_) {
    for (unsigned i = 0; i < g.num_cmus(); ++i) g.cmu(i).reg().clear();
  }
}

void FlyMonDataPlane::enable_parallel(unsigned num_workers) {
  disable_parallel();
  pool_ = std::make_unique<exec::WorkerPool>(*this, num_workers);
  if (registry_ != nullptr) pool_->bind_telemetry(registry_);
}

void FlyMonDataPlane::disable_parallel() {
  if (pool_ == nullptr) return;
  pool_->quiesce_and_merge();
  pool_.reset();
}

unsigned FlyMonDataPlane::parallel_workers() const noexcept {
  return pool_ != nullptr ? pool_->num_workers() : 0;
}

void FlyMonDataPlane::merge_shards() {
  if (pool_ != nullptr) pool_->quiesce_and_merge();
}

FlyMonDataPlane::DrainStats FlyMonDataPlane::drain(ingest::PacketSource& source) {
  trace::Span span("ingest.drain");
  DrainStats stats;
  // One pool job per drained batch: size it chunk x executors x 8 so the
  // per-job submit/claim overhead amortises to the batched path's (the
  // streaming-vs-batched throughput gate in CI depends on this).
  const std::size_t executors =
      pool_ != nullptr ? pool_->num_workers() : 1;
  std::vector<Packet> buf(exec::kDefaultBatchChunk * executors * 8);
  auto& prof = trace::StageProfiler::global();
  for (;;) {
    const std::uint64_t c0 = trace::now_cycles();
    const std::size_t n = source.pull(buf);
    if (prof.enabled()) {
      prof.record(trace::Stage::kIngest, trace::now_cycles() - c0, n);
    }
    if (n == 0) {
      if (source.done()) break;
      std::this_thread::yield();  // live source, temporarily dry
      continue;
    }
    stats.last_generation =
        process_batch(std::span<const Packet>(buf.data(), n));
    stats.packets += n;
    ++stats.batches;
  }
  span.set_arg(stats.packets);
  return stats;
}

exec::ParallelStats FlyMonDataPlane::parallel_stats() const {
  return pool_ != nullptr ? pool_->stats() : exec::ParallelStats{};
}

void FlyMonDataPlane::note_parallel_batch(std::size_t packets) noexcept {
  packets_.fetch_add(packets, std::memory_order_relaxed);
  packets_counter_->inc(packets);
}

void collect_dataplane_telemetry(const FlyMonDataPlane& dp,
                                 telemetry::Registry& registry) {
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    const CmuGroup& grp = dp.group(g);
    unsigned configured = 0;
    for (unsigned u = 0; u < grp.compression().num_units(); ++u) {
      if (grp.compression().spec_of(u)) ++configured;
    }
    registry.gauge("flymon_group_hash_units_configured",
                   {{"group", std::to_string(g)}})
        .set(configured);
    for (unsigned c = 0; c < grp.num_cmus(); ++c) {
      const telemetry::Labels labels = {{"group", std::to_string(g)},
                                        {"cmu", std::to_string(c)}};
      registry.gauge("flymon_cmu_register_occupancy", labels)
          .set(grp.cmu(c).register_occupancy());
      registry.gauge("flymon_cmu_tasks_installed", labels)
          .set(static_cast<double>(grp.cmu(c).entries().size()));
    }
  }
  registry.gauge("flymon_dataplane_groups").set(dp.num_groups());
}

void collect_dataplane_telemetry(FlyMonDataPlane& dp,
                                 telemetry::Registry& registry) {
  dp.merge_shards();
  collect_dataplane_telemetry(static_cast<const FlyMonDataPlane&>(dp),
                              registry);
}

}  // namespace flymon
