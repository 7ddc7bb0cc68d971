// Persistent worker pool for multi-core packet processing.
//
// N executors = N-1 spawned threads plus the calling thread, each owning a
// private RegisterShard and BatchScratch.  process() publishes one Job —
// the acquired ExecPlan snapshot plus a packet span — and all executors
// claim fixed-size chunks from it with a lock-free fetch_add cursor, so
// load balances itself and no shared state is written on the hot path
// except the claim/completion atomics.
//
// Reconfiguration safety: the plan is acquired ONCE per job (not per
// chunk), and Fence serialises against process() while folding every dirty
// shard into the live registers — FlyMonDataPlane holds a Fence across
// compile+publish, so a shard never carries deltas across a plan change
// (the invariant RegisterShard::merge_into relies on).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/annotated_mutex.hpp"
#include "common/thread_annotations.hpp"
#include "exec/exec_plan.hpp"
#include "exec/protocol.hpp"
#include "exec/sharded_runtime.hpp"
#include "packet/packet.hpp"

namespace flymon {
class FlyMonDataPlane;
}  // namespace flymon

namespace flymon::exec {

/// Pool observability (all monotonic since enable_parallel).
struct ParallelStats {
  std::uint64_t parallel_batches = 0;  ///< batches executed across shards
  std::uint64_t fallback_batches = 0;  ///< sequential fallbacks: the sum of the three causes below
  std::uint64_t chunks = 0;            ///< work-queue chunks claimed
  std::uint64_t merges = 0;            ///< quiesce/fence merges that folded a dirty shard
  // Fallback causes: a silent sequential run is indistinguishable from a
  // fast parallel one without these.
  std::uint64_t fallback_no_plan = 0;      ///< no compiled plan published
  std::uint64_t fallback_unmergeable = 0;  ///< plan has merge blockers
  std::uint64_t fallback_tracer = 0;       ///< packet tracer attached
};

class WorkerPool {
 public:
  /// Spawns `num_workers - 1` threads (the caller is the last executor);
  /// `num_workers` is clamped to at least 1.
  WorkerPool(FlyMonDataPlane& dp, unsigned num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned num_workers() const noexcept { return num_executors_; }

  /// Process a batch across all executors against the current plan
  /// snapshot (FlyMonDataPlane::process_batch dispatches here when a pool
  /// is enabled).  Falls back to the data plane's private sequential
  /// runner, still under the submission lock, when no plan is published,
  /// the plan is not shard-mergeable, or a tracer is attached, counting
  /// the fallback under its cause.  Returns the generation the batch
  /// executed under (0 = interpreted fallback).
  std::uint64_t process(std::span<const Packet> pkts);

  /// Block new submissions, wait out the in-flight job, and fold every
  /// dirty shard into the live registers under the current plan.
  void quiesce_and_merge();

  /// Drop all shard state without merging (epoch clear).
  void discard_shards();

  ParallelStats stats() const noexcept;

  /// Cache handles into `registry` (fallback-reason counters, fence-wait
  /// and shard-merge histograms) so the pool reports without per-event
  /// registry lookups.  Pass nullptr to detach.  Serialises on the
  /// submission lock, so it is safe against in-flight process() calls.
  void bind_telemetry(telemetry::Registry* registry);

  /// RAII reconfiguration fence: holds the submission lock and merges all
  /// dirty shards under the (old) published plan, so the holder can
  /// compile and publish a new plan with no deltas straddling the change.
  /// Records the lock-wait time (how long the reconfiguration stalled on
  /// in-flight traffic) and emits an "exec.fence" span.
  class FLYMON_SCOPED_CAPABILITY Fence {
   public:
    explicit Fence(WorkerPool& pool) FLYMON_ACQUIRE(pool.submit_mu_);
    ~Fence() FLYMON_RELEASE();

   private:
    WorkerPool& pool_;
  };

 private:
  friend class Fence;

  struct Job {
    std::shared_ptr<const ExecPlan> plan;
    std::span<const Packet> pkts;
    std::size_t num_chunks = 0;
    /// Claim cursor + completion count; the memory-order contract lives
    /// with the template (protocol.hpp), shared with the model checker.
    JobControl<common::StdSync> ctl;
  };

  struct Worker {
    explicit Worker(const FlyMonDataPlane& dp) : shard(dp) {}
    RegisterShard shard;
    BatchScratch scratch;
  };

  void worker_main(std::size_t shard_idx);
  void run_chunks(Job& job, std::size_t shard_idx);
  void merge_locked() FLYMON_REQUIRES(submit_mu_);
  void note_fence_wait(std::uint64_t wait_ns) FLYMON_REQUIRES(submit_mu_);
  void count_fallback(const ExecPlan* plan) FLYMON_REQUIRES(submit_mu_);

  FlyMonDataPlane* dp_;
  unsigned num_executors_;
  std::vector<std::unique_ptr<Worker>> workers_;  ///< one per executor
  std::vector<std::thread> threads_;              ///< num_executors_ - 1

  /// Serialises process() / quiesce / Fence.  Acquired after
  /// FlyMonDataPlane::publish_mu_ and before everything the pool takes
  /// while holding it: job_mu_, done_mu_, the PlanCell mutex, the
  /// telemetry registry and the span collector (see publish_mu_ for the
  /// whole order).
  common::Mutex submit_mu_;

  // Job hand-off: the submitter publishes job_/job_seq_ under job_mu_ and
  // wakes every worker; each worker copies the shared_ptr once per
  // sequence number.  Annotated now that common::CondVar keeps the
  // capability visible across the wait.
  common::Mutex job_mu_;
  common::CondVar job_cv_;
  std::shared_ptr<Job> job_ FLYMON_GUARDED_BY(job_mu_);  ///< workers copy the ref
  std::uint64_t job_seq_ FLYMON_GUARDED_BY(job_mu_) = 0;  ///< bumped per job
  bool stop_ FLYMON_GUARDED_BY(job_mu_) = false;

  common::Mutex done_mu_;
  common::CondVar done_cv_;

  std::atomic<std::uint64_t> parallel_batches_{0};
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> merges_{0};
  std::atomic<std::uint64_t> fallbacks_[3] = {};  ///< indexed like fallback_counters_

  // Telemetry handles, cached under submit_mu_ (written only by
  // bind_telemetry; read only by code already holding the lock).
  telemetry::Counter* fallback_counters_[3] FLYMON_GUARDED_BY(submit_mu_) =
      {};  ///< no_plan, unmergeable, tracer
  telemetry::Counter* blocker_counters_[4] FLYMON_GUARDED_BY(submit_mu_) =
      {};  ///< per MergeBlockerKind
  telemetry::Histogram* fence_wait_us_ FLYMON_GUARDED_BY(submit_mu_) = nullptr;
  telemetry::Histogram* shard_merge_us_ FLYMON_GUARDED_BY(submit_mu_) = nullptr;
};

}  // namespace flymon::exec
