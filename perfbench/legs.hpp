// The benchmark's legs.  Each leg builds its own deployed data plane
// (timed as set-up), runs whole passes over the workload's packets, checks
// every pass against the sequential reference, and keeps its samples.
// Only public entry points of the model are driven; timing is taken
// outside the calls.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "accounting.hpp"
#include "control/controller.hpp"
#include "core/flymon_dataplane.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Executors of every parallel leg: the submitting thread plus one worker.
/// With the ingest pump that is three busy threads.
inline constexpr unsigned kExecutors = 2;

/// Control operations that take longer than this (from their scheduled
/// time) count as failed: the paper's bound on a deploy.
inline constexpr std::int64_t kControlDeadlineNs = 100'000'000;

/// One add -> resize -> remove cycle of churn_task() per period.  A cycle
/// with its three readouts takes about 15 ms; at a 20 ms period cycles
/// queue behind each other and the latency tail follows the queue, not
/// the operations.
inline constexpr std::int64_t kChurnPeriodNs = 50'000'000;

/// Buckets per row churn_task() is resized to.
inline constexpr std::uint32_t kChurnResizeBuckets = 8192;

/// Probes in one control-leg readout.  Every query_value folds dirty
/// shards first, so a readout costs up to this many merges.
inline constexpr std::size_t kReadoutProbes = 4;

/// Batch handed to each process_batch / process_batch_parallel call.
/// Large, so the sharded leg measures execution rather than the wake-up
/// of an idle executor once per batch.
inline constexpr std::size_t kSubmitBatch = 65536;

/// One deployed data plane with its controller.
struct Instance {
  std::unique_ptr<flymon::FlyMonDataPlane> dp;
  std::unique_ptr<flymon::control::Controller> ctl;
  std::vector<std::uint32_t> task_ids;  ///< standing tasks, in workload order
};

/// What a correct pass must reproduce: the sequential replay's registers
/// and readout answers.
struct Reference {
  std::uint64_t registers = 0;  ///< checksum over every CMU register
  std::uint64_t standing = 0;   ///< checksum over the standing tasks' partitions
  std::vector<double> answers;  ///< every standing task x every probe
};

/// Drain- and pump-side observations of one streaming leg (traced run).
struct StreamStats {
  double drain_exec_ns = 0;  ///< between a pull's return and the next pull
  double drain_pull_ns = 0;  ///< inside non-empty RingSource pulls
  std::uint64_t drain_packets = 0;
  std::uint64_t drain_pulls = 0;
  std::uint64_t drain_dry_pulls = 0;
  double ring_occupancy_sum = 0;  ///< ring depth summed over pulls
  double pump_life_ns = 0;
  double pump_source_ns = 0;  ///< pump time inside its source pulls
};

/// Per-layer observations gathered along the legs (traced run).
struct LayerStats {
  std::vector<double> merge_ms;
  double merge_cells = 0;
  double merge_cells_changed = 0;
  // Pool counters: fallbacks over every parallel leg, chunks and batches
  // of the sharded leg.
  std::uint64_t fallback_batches = 0;
  std::uint64_t sharded_batches = 0;
  std::uint64_t sharded_chunks = 0;
  StreamStats asap;   ///< the streamed leg
  StreamStats paced;  ///< the paced leg
  std::vector<double> pace_lag_us;
  std::uint64_t dropped = 0;
  // Control leg.
  std::vector<double> add_ms, resize_ms, remove_ms, fence_ms, query_us;
  std::vector<double> modelled_delay_ms;
  // Batched leg, traced passes against untraced ones.
  std::vector<double> untraced_mpps, traced_mpps;
};

struct LegContext {
  const Workload& w;
  Tally& tally;
  SpanLog& spans;
  LayerStats& layers;
  std::vector<double>& setup_s;  ///< one sample per instance built
};

/// Build the workload's deployment (optionally with a worker pool) and
/// record the elapsed time as a set-up sample.  Failed deploys are tallied.
Instance build_instance(LegContext& ctx, unsigned executors);

/// Build and tear down `count` pool-enabled instances: set-up samples only.
void setup_leg(LegContext& ctx, unsigned count);

/// Minimum time a leg runs passes in one turn of a round.
inline constexpr std::int64_t kLegTurnNs = 800'000'000;

/// Packets per window of the paced leg's latency percentiles.
inline constexpr std::size_t kLatencyWindow = 10'000;

/// Packets per window of the streamed and churn legs' throughput samples:
/// as many as one sharded call takes, so every leg's samples are as short.
inline constexpr std::size_t kThroughputWindow = kSubmitBatch;

/// One leg: its own deployed instance plus its samples.  Legs take turns
/// in rounds, each running passes for at least kLegTurnNs per turn, so
/// every leg's samples spread over the same stretch of host conditions.
class Leg {
 public:
  Leg(LegContext& ctx, const Reference& ref, const char* name, unsigned executors);
  /// Close the leg's span and account its worker pool.
  void finish();

 protected:
  LegContext& ctx_;
  const Reference& ref_;
  const char* name_;
  Instance inst_;
  std::uint64_t span_;
  std::size_t passes_ = 0;  ///< passes started
};

/// Sequential batched replay, one throughput sample per process_batch
/// call.  Its first pass, from fresh registers, defines the reference;
/// later passes must reproduce it.
class BatchedLeg : public Leg {
 public:
  BatchedLeg(LegContext& ctx, Reference& ref);
  void pass();
  Throughput rate;

 private:
  Reference& ref_out_;
};

/// process_batch_parallel at kExecutors, up to and including the final
/// merge_shards: one throughput sample per call, carrying its share of
/// the merge.
class ShardedLeg : public Leg {
 public:
  ShardedLeg(LegContext& ctx, const Reference& ref);
  void pass();
  /// Leg::finish plus the pool's chunk and batch counts.
  void finish();
  Throughput rate;
};

/// MemorySource -> IngestPump (ASAP, blocking) -> RingSource -> drain at
/// kExecutors; one throughput sample per kThroughputWindow drained packets,
/// the first window timed from the pump's start.
class StreamedLeg : public Leg {
 public:
  StreamedLeg(LegContext& ctx, const Reference& ref);
  void pass();
  Throughput rate;
};

/// Open-loop replay paced at the workload's offered rate; source-to-
/// register latency from each packet's due time, summarised per window of
/// kLatencyWindow consecutive packets.  A run reports the upper decile of
/// the windows' values, like every other timing (accounting.hpp).
class PacedLeg : public Leg {
 public:
  PacedLeg(LegContext& ctx, const Reference& ref);
  void pass();
  std::vector<double> window_p50_us, window_tail_us;
  double tail_q = 0;  ///< percentile of window_tail_us
  std::size_t samples = 0;
};

/// The ASAP stream of StreamedLeg plus a control thread that, every
/// kChurnPeriodNs, adds, resizes and removes churn_task() with a
/// readout of the standing CMS task after each operation.  Each operation
/// has a kControlDeadlineNs deadline from its scheduled time; an overdue
/// one counts as failed, and the drain backs off until it returns so the
/// pass still ends.
///
/// Known defect this leg exposes: a back-to-back process_batch_parallel
/// submitter (8K batches) starved add_task for over 30 s, and a 50 us gap
/// between batches unblocks it.  drain() escapes today because its source
/// pull between batches leaves such a gap (deploys take milliseconds
/// during an ASAP stream); a zero-copy drain could close that window, and
/// this leg's deadline failures would then show it.
class ChurnLeg : public Leg {
 public:
  ChurnLeg(LegContext& ctx, const Reference& ref);
  void pass();
  Throughput rate;
  std::vector<double> reconfig_ms;
  std::vector<double> query_us;

 private:
  std::uint32_t readout_id_;
};

/// Per-call costs of single layers, timed around public calls on a fresh
/// instance (traced run only).  Fills `out` with metric name -> value.
void layer_probes(LegContext& ctx, std::vector<std::pair<std::string, double>>& out);

}  // namespace perfbench
