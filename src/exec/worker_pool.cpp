#include "exec/worker_pool.hpp"

#include <algorithm>

#include "core/flymon_dataplane.hpp"
#include "trace/span.hpp"
#include "trace/stage_profiler.hpp"

namespace flymon::exec {

WorkerPool::WorkerPool(FlyMonDataPlane& dp, unsigned num_workers)
    : dp_(&dp), num_executors_(std::max(1u, num_workers)) {
  workers_.reserve(num_executors_);
  for (unsigned i = 0; i < num_executors_; ++i) {
    workers_.push_back(std::make_unique<Worker>(dp));
  }
  threads_.reserve(num_executors_ - 1);
  for (unsigned i = 0; i + 1 < num_executors_; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    common::MutexLock lk(job_mu_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::uint64_t WorkerPool::process(std::span<const Packet> pkts) {
  common::MutexLock submit(submit_mu_);
  if (pkts.empty()) return dp_->plan_generation();

  // One snapshot per job: every chunk of this batch executes the same
  // plan, and a concurrent publisher fences on submit_mu_, so shard deltas
  // never straddle a reconfiguration.
  std::shared_ptr<const ExecPlan> plan = dp_->current_plan();
  // The fallback stays under submit_mu_: a concurrent Fence merge writes
  // the same live registers the sequential runner does.
  if (plan == nullptr || !plan->shard_mergeable() || dp_->tracer() != nullptr) {
    count_fallback(plan.get());
    return dp_->run_sequential(pkts);
  }

  auto job = std::make_shared<Job>();
  job->plan = plan;
  job->pkts = pkts;
  job->num_chunks = (pkts.size() + kDefaultBatchChunk - 1) / kDefaultBatchChunk;
  job->ctl.arm(job->num_chunks);

  {
    common::MutexLock lk(job_mu_);
    job_ = job;
    ++job_seq_;
  }
  job_cv_.notify_all();

  // The caller is the last executor, on its own shard.
  run_chunks(*job, num_executors_ - 1);

  {
    common::MutexLock lk(done_mu_);
    while (!job->ctl.all_done()) done_cv_.wait(done_mu_);
  }
  {
    common::MutexLock lk(job_mu_);
    job_.reset();  // stragglers keep the Job alive via their own ref
  }

  parallel_batches_.fetch_add(1, std::memory_order_relaxed);
  chunks_.fetch_add(job->num_chunks, std::memory_order_relaxed);
  dp_->note_parallel_batch(pkts.size());
  return plan->generation();
}

void WorkerPool::worker_main(std::size_t shard_idx) {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      common::MutexLock lk(job_mu_);
      while (!stop_ && job_seq_ == seen) job_cv_.wait(job_mu_);
      if (stop_) return;
      seen = job_seq_;
      job = job_;
    }
    if (job != nullptr) run_chunks(*job, shard_idx);
  }
}

void WorkerPool::run_chunks(Job& job, std::size_t shard_idx) {
  Worker& w = *workers_[shard_idx];
  const ShardBinding binding = w.shard.binding();
  trace::StageProfiler& prof = trace::StageProfiler::global();
  const bool profiled = prof.enabled();
  for (;;) {
    const std::uint64_t t0 = profiled ? trace::now_cycles() : 0;
    const std::size_t i = job.ctl.claim();
    if (i >= job.num_chunks) return;  // nothing claimed: no completion debt
    const std::size_t begin = i * kDefaultBatchChunk;
    const std::size_t len =
        std::min(kDefaultBatchChunk, job.pkts.size() - begin);
    const std::uint64_t t1 = profiled ? trace::now_cycles() : 0;
    {
      trace::Span span("exec.chunk", job.plan->generation());
      job.plan->run_batch_sharded(job.pkts.subspan(begin, len), w.scratch,
                                  binding);
    }
    if (profiled) {
      const std::uint64_t t2 = trace::now_cycles();
      prof.record(trace::Stage::kClaim, t1 - t0, 1);
      prof.record(trace::Stage::kExecute, t2 - t1, len);
    }
    w.shard.mark_dirty();
    // ctl.complete() releases this executor's shard writes to whoever
    // observes the count hit zero (see protocol.hpp for the contract).
    if (job.ctl.complete()) {
      common::MutexLock lk(done_mu_);
      done_cv_.notify_all();
    }
  }
}

void WorkerPool::quiesce_and_merge() {
  common::MutexLock submit(submit_mu_);
  merge_locked();
}

void WorkerPool::discard_shards() {
  common::MutexLock submit(submit_mu_);
  for (auto& w : workers_) w->shard.discard();
}

void WorkerPool::merge_locked() {
  trace::Span span("exec.merge_shards");
  trace::StageProfiler& prof = trace::StageProfiler::global();
  const bool profiled = prof.enabled();
  const std::uint64_t t0 = trace::monotonic_now_ns();
  const std::uint64_t c0 = profiled ? trace::now_cycles() : 0;
  std::shared_ptr<const ExecPlan> plan = dp_->current_plan();
  std::vector<RegisterShard*> shards;
  shards.reserve(workers_.size());
  for (auto& w : workers_) shards.push_back(&w->shard);
  // The fold itself is the shared protocol core (exercised under the
  // model checker's fence invariants); see protocol.hpp.
  const std::size_t folded =
      fold_dirty_shards<RegisterShard, ExecPlan>(shards, plan.get());
  const bool any = folded > 0;
  if (any) {
    merges_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t dt = trace::monotonic_now_ns() - t0;
    if (shard_merge_us_ != nullptr) {
      shard_merge_us_->observe(static_cast<double>(dt) / 1000.0);
    }
    if (profiled) {
      prof.record(trace::Stage::kMerge, trace::now_cycles() - c0, folded);
    }
  }
}

WorkerPool::Fence::Fence(WorkerPool& pool) : pool_(pool) {
  trace::Span span("exec.fence");
  const std::uint64_t t0 = trace::monotonic_now_ns();
  pool_.submit_mu_.lock();
  pool_.note_fence_wait(trace::monotonic_now_ns() - t0);
  pool_.merge_locked();
}

WorkerPool::Fence::~Fence() { pool_.submit_mu_.unlock(); }

void WorkerPool::note_fence_wait(std::uint64_t wait_ns) {
  if (fence_wait_us_ != nullptr) {
    fence_wait_us_->observe(static_cast<double>(wait_ns) / 1000.0);
  }
}

void WorkerPool::count_fallback(const ExecPlan* plan) {
  // Cause precedence mirrors the process() guard: a null plan is reported
  // as no_plan even if a tracer is also attached; a mergeable plan can
  // only have fallen back because of the tracer.
  const std::size_t cause =
      plan == nullptr ? 0 : !plan->shard_mergeable() ? 1 : 2;
  fallbacks_[cause].fetch_add(1, std::memory_order_relaxed);
  if (fallback_counters_[cause] != nullptr) fallback_counters_[cause]->inc();
  if (cause == 1) {
    for (MergeBlockerKind k : plan->merge_blocker_kinds()) {
      telemetry::Counter* c = blocker_counters_[static_cast<std::size_t>(k)];
      if (c != nullptr) c->inc();
    }
  }
}

void WorkerPool::bind_telemetry(telemetry::Registry* registry) {
  common::MutexLock submit(submit_mu_);
  if (registry == nullptr) {
    for (auto*& c : fallback_counters_) c = nullptr;
    for (auto*& c : blocker_counters_) c = nullptr;
    fence_wait_us_ = nullptr;
    shard_merge_us_ = nullptr;
    return;
  }
  static const char* kReasons[3] = {"no_plan", "unmergeable", "tracer"};
  for (std::size_t i = 0; i < 3; ++i) {
    fallback_counters_[i] = &registry->counter("flymon_sharded_fallback_total",
                                               {{"reason", kReasons[i]}});
  }
  for (std::size_t i = 0; i < 4; ++i) {
    blocker_counters_[i] = &registry->counter(
        "flymon_sharded_merge_blocker_total",
        {{"kind", to_string(static_cast<MergeBlockerKind>(i))}});
  }
  // 0.25us .. ~4s, same spacing as the span-duration histograms.
  const auto bounds = telemetry::Histogram::exponential_bounds(0.25, 4.0, 17);
  fence_wait_us_ = &registry->histogram("flymon_fence_wait_us", {}, bounds);
  shard_merge_us_ = &registry->histogram("flymon_shard_merge_us", {}, bounds);
}

ParallelStats WorkerPool::stats() const noexcept {
  ParallelStats s;
  s.parallel_batches = parallel_batches_.load(std::memory_order_relaxed);
  s.chunks = chunks_.load(std::memory_order_relaxed);
  s.merges = merges_.load(std::memory_order_relaxed);
  s.fallback_no_plan = fallbacks_[0].load(std::memory_order_relaxed);
  s.fallback_unmergeable = fallbacks_[1].load(std::memory_order_relaxed);
  s.fallback_tracer = fallbacks_[2].load(std::memory_order_relaxed);
  s.fallback_batches =
      s.fallback_no_plan + s.fallback_unmergeable + s.fallback_tracer;
  return s;
}

}  // namespace flymon::exec
