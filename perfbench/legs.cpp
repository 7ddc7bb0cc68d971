#include "legs.hpp"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/crc_kernels.hpp"
#include "common/hash.hpp"
#include "exec/exec_plan.hpp"
#include "exec/sharded_runtime.hpp"
#include "exec/worker_pool.hpp"
#include "ingest/packet_source.hpp"
#include "ingest/pump.hpp"

namespace perfbench {

using flymon::FlyMonDataPlane;
using flymon::Packet;

namespace {

/// Keeps the layer probes' results observable so no timed loop is elided.
volatile std::uint64_t probe_sink = 0;

double seconds_of(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double mpps_of(std::size_t packets, std::int64_t ns) {
  return static_cast<double>(packets) / (static_cast<double>(ns) / 1e3);
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ull;
}

/// Checksum over every non-zero cell of every CMU register.
std::uint64_t register_checksum(const FlyMonDataPlane& dp) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
      const auto& reg = dp.group(g).cmu(c).reg();
      for (std::uint32_t a = 0; a < reg.size(); ++a) {
        const std::uint32_t v = reg.load_relaxed(a);
        if (v == 0) continue;
        fnv(h, (std::uint64_t{g} << 56) | (std::uint64_t{c} << 48) | a);
        fnv(h, v);
      }
    }
  }
  return h;
}

/// Checksum over the register partitions of the standing tasks only.
std::uint64_t standing_checksum(const Instance& inst) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint32_t id : inst.task_ids) {
    const flymon::control::DeployedTask* t = inst.ctl->task(id);
    if (t == nullptr) continue;
    for (const auto& row : t->rows) {
      for (const auto& u : row.units) {
        const auto& reg = inst.dp->group(u.group).cmu(u.cmu).reg();
        for (std::uint32_t a = u.partition.base; a < u.partition.end(); ++a) {
          fnv(h, reg.load_relaxed(a));
        }
      }
    }
  }
  return h;
}

double answer(const flymon::control::Controller& ctl, std::uint32_t id,
              const flymon::TaskSpec& spec, const Packet& probe) {
  switch (spec.attribute) {
    case flymon::AttributeKind::kDistinct:
      return ctl.estimate_distinct(id, probe);
    case flymon::AttributeKind::kExistence:
      return ctl.query_existence(id, probe) ? 1.0 : 0.0;
    default:
      return static_cast<double>(ctl.query_value(id, probe));
  }
}

/// Every standing task's answer to every probe (merges shards first).
std::vector<double> answers(const Workload& w, const Instance& inst) {
  std::vector<double> out;
  for (std::size_t t = 0; t < inst.task_ids.size(); ++t) {
    for (const Packet& p : w.probes) {
      out.push_back(answer(*inst.ctl, inst.task_ids[t], w.tasks[t], p));
    }
  }
  return out;
}

/// Compare a finished pass against the sequential reference.  `standing`
/// restricts the register comparison to the standing tasks' partitions.
void check_pass(LegContext& ctx, const Instance& inst, const Reference& ref,
                const std::string& leg, bool standing) {
  inst.dp->merge_shards();
  const bool regs_ok = standing ? standing_checksum(inst) == ref.standing
                                : register_checksum(*inst.dp) == ref.registers;
  ctx.tally.check(leg + ".registers", regs_ok);
  ctx.tally.check(leg + ".answers", answers(ctx.w, inst) == ref.answers);
}

/// Pump-side wrapper of the replayed trace: anchors the pacing schedule at
/// the pump's first pull, measures time inside source pulls and, for paced
/// replays, how late each batch was published against its due time.
class PumpProbe final : public flymon::ingest::PacketSource {
 public:
  PumpProbe(const std::vector<Packet>& pkts, double time_scale, bool paced)
      : inner_(std::span<const Packet>(pkts)), pkts_(pkts),
        time_scale_(time_scale), paced_(paced) {}

  const char* name() const noexcept override { return "perfbench"; }

  std::size_t pull(std::span<Packet> out) override {
    const std::int64_t t0 = now_ns();
    if (first_ns_ == 0) first_ns_ = t0;
    // The pump published the previous batch just before this pull.
    if (paced_ && prev_n_ > 0) {
      lag_us_.push_back(static_cast<double>(t0 - due_ns(prev_first_)) / 1e3);
    }
    prev_first_ = static_cast<std::size_t>(inner_.produced());
    const std::size_t n = inner_.pull(out);
    prev_n_ = n;
    source_ns_ += now_ns() - t0;
    return n;
  }
  bool done() const override { return inner_.done(); }
  std::uint64_t produced() const override { return inner_.produced(); }

  /// Wall-clock time packet `i` is due under the pump's pacing.
  std::int64_t due_ns(std::size_t i) const {
    return first_ns_ + static_cast<std::int64_t>(flymon::ingest::pace_delay_ns(
                           pkts_.front().ts_ns, pkts_[i].ts_ns, time_scale_));
  }
  std::int64_t first_ns() const { return first_ns_; }
  double source_ns() const { return static_cast<double>(source_ns_); }
  const std::vector<double>& lag_us() const { return lag_us_; }

 private:
  flymon::ingest::MemorySource inner_;
  const std::vector<Packet>& pkts_;
  double time_scale_;
  bool paced_;
  std::int64_t first_ns_ = 0;
  std::int64_t source_ns_ = 0;
  std::size_t prev_first_ = 0;
  std::size_t prev_n_ = 0;
  std::vector<double> lag_us_;
};

/// Drain-side wrapper of the ring: stamps batch retirement, times pulls
/// and the drain work between them (traced run; spans when `spans` is
/// set), and holds the drain back while a control operation is past its
/// deadline.
class DrainProbe final : public flymon::ingest::PacketSource {
 public:
  DrainProbe(flymon::ingest::IngestPump& pump, bool timed, RetireStamps& stamps,
             const std::atomic<std::int64_t>* overdue_from, SpanLog* spans,
             std::uint64_t parent)
      : ring_(pump), pump_(pump), timed_(timed), stamps_(stamps),
        overdue_from_(overdue_from), spans_(spans), parent_(parent) {}

  const char* name() const noexcept override { return "perfbench-drain"; }

  std::size_t pull(std::span<Packet> out) override {
    if (overdue_from_ != nullptr) {
      const std::int64_t due = overdue_from_->load(std::memory_order_acquire);
      if (due != 0 && now_ns() - due > kControlDeadlineNs) {
        return 0;  // back off until the overdue operation returns
      }
    }
    const std::int64_t t0 = now_ns();
    stamps_.on_pull(t0);
    if (timed_ && last_n_ > 0) {
      exec_ns_ += t0 - last_return_;
      if (spans_ != nullptr) spans_->add("core.drain_exec", last_return_, t0, parent_, batch_);
    }
    const std::size_t occ = timed_ ? pump_.ring().occupancy() : 0;
    const std::size_t n = ring_.pull(out);
    const std::int64_t t1 = now_ns();
    stamps_.on_batch(n);
    if (timed_) {
      ++pulls_;
      occupancy_sum_ += static_cast<double>(occ);
      if (n == 0) {
        ++dry_;
      } else {
        ++batch_;
        pull_ns_ += t1 - t0;
        packets_ += n;
        if (spans_ != nullptr) spans_->add("ingest.ring_pull", t0, t1, parent_, batch_);
      }
      last_return_ = t1;
      last_n_ = n;
    }
    return n;
  }
  bool done() const override { return ring_.done(); }
  std::uint64_t produced() const override { return ring_.produced(); }

  void add_to(StreamStats& l) const {
    l.drain_exec_ns += static_cast<double>(exec_ns_);
    l.drain_pull_ns += static_cast<double>(pull_ns_);
    l.drain_packets += packets_;
    l.drain_pulls += pulls_;
    l.drain_dry_pulls += dry_;
    l.ring_occupancy_sum += occupancy_sum_;
  }
 private:
  flymon::ingest::RingSource ring_;
  flymon::ingest::IngestPump& pump_;
  bool timed_;
  RetireStamps& stamps_;
  const std::atomic<std::int64_t>* overdue_from_;
  SpanLog* spans_;
  std::uint64_t parent_;
  std::int64_t last_return_ = 0;
  std::size_t last_n_ = 0;
  std::int64_t exec_ns_ = 0;
  std::int64_t pull_ns_ = 0;
  std::uint64_t packets_ = 0, pulls_ = 0, dry_ = 0, batch_ = 0;
  double occupancy_sum_ = 0;
};

flymon::ingest::PumpConfig pump_config(const Workload& w, bool paced) {
  flymon::ingest::PumpConfig pc;
  pc.ring_capacity = 1u << 16;
  pc.on_full = flymon::ingest::PumpConfig::FullPolicy::kBlock;
  pc.source_label = "perfbench";
  if (paced) {
    // Small pump batches: the pump paces each batch by its first packet.
    pc.batch = 64;
    pc.pace = flymon::ingest::PumpConfig::Pace::kReal;
    pc.time_scale = w.time_scale;
  } else {
    pc.batch = 1024;
  }
  return pc;
}

/// One stream of the workload's packets through pump, ring and drain:
/// when it started and when each drained batch retired.
struct StreamPass {
  std::int64_t start_ns = 0;
  RetireStamps stamps;
};

StreamPass stream_pass(LegContext& ctx, Instance& inst, PumpProbe& src, bool paced,
                       const std::atomic<std::int64_t>* overdue_from, StreamStats* stats,
                       std::uint64_t parent, const std::string& leg) {
  const bool timed = ctx.spans.enabled() && stats != nullptr;
  StreamPass sp;
  flymon::ingest::IngestPump pump(src, pump_config(ctx.w, paced));
  // Per-batch spans only for ASAP streams: a paced stream pulls a few
  // dozen packets at a time, and its spans would run to millions.
  DrainProbe drain(pump, timed, sp.stamps, overdue_from, paced ? nullptr : &ctx.spans,
                   parent);
  sp.start_ns = now_ns();
  pump.start();
  const auto ds = inst.dp->drain(drain);
  const std::int64_t t1 = now_ns();
  pump.stop();
  const flymon::ingest::PumpStats ps = pump.stats();
  const std::size_t n = ctx.w.packets.size();
  ctx.tally.attempt(leg + ".packets", n);
  ctx.tally.fail(leg + ".packets", ps.dropped + (n - std::min<std::uint64_t>(n, ds.packets)));
  ctx.layers.dropped += ps.dropped;
  if (timed) {
    drain.add_to(*stats);
    stats->pump_life_ns += static_cast<double>(t1 - src.first_ns());
    stats->pump_source_ns += src.source_ns();
  }
  return sp;
}

}  // namespace

Instance build_instance(LegContext& ctx, unsigned executors) {
  Instance inst;
  const std::int64_t t0 = now_ns();
  inst.dp = std::make_unique<FlyMonDataPlane>();
  inst.ctl = std::make_unique<flymon::control::Controller>(*inst.dp);
  for (const flymon::TaskSpec& spec : ctx.w.tasks) {
    const flymon::control::DeployResult r = inst.ctl->add_task(spec);
    if (!ctx.tally.check("deploy", r.ok)) {
      throw std::runtime_error("deploy of '" + spec.name + "' failed: " + r.error);
    }
    inst.task_ids.push_back(r.task_id);
  }
  if (executors > 0) inst.dp->enable_parallel(executors);
  ctx.setup_s.push_back(seconds_of(now_ns() - t0));
  const auto plan = inst.dp->current_plan();
  ctx.tally.check("plan_published", plan != nullptr);
  if (executors > 0) {
    ctx.tally.check("plan_mergeable", plan != nullptr && plan->shard_mergeable());
  }
  return inst;
}

void setup_leg(LegContext& ctx, unsigned count) {
  for (unsigned i = 0; i < count; ++i) build_instance(ctx, kExecutors);
}

Leg::Leg(LegContext& ctx, const Reference& ref, const char* name, unsigned executors)
    : ctx_(ctx), ref_(ref), name_(name), inst_(build_instance(ctx, executors)),
      span_(ctx.spans.open(std::string("leg.") + name, now_ns())) {}

void Leg::finish() {
  ctx_.spans.finish(span_, now_ns());
  if (inst_.dp->parallel_workers() == 0) return;
  // Every parallel batch must really have run sharded.
  const flymon::exec::ParallelStats s = inst_.dp->parallel_stats();
  const std::string kind = std::string(name_) + ".parallel_batches";
  ctx_.layers.fallback_batches += s.fallback_batches;
  ctx_.tally.attempt(kind, s.parallel_batches + s.fallback_batches);
  ctx_.tally.fail(kind, s.fallback_batches);
}

BatchedLeg::BatchedLeg(LegContext& ctx, Reference& ref)
    : Leg(ctx, ref, "batched", 0), ref_out_(ref) {}

void BatchedLeg::pass() {
  const std::size_t index = passes_++;
  FlyMonDataPlane& dp = *inst_.dp;
  const std::vector<Packet>& pk = ctx_.w.packets;
  dp.clear_registers();
  // Traced runs alternate untraced and traced passes: the difference is
  // the tracing overhead.
  const bool traced = ctx_.spans.enabled() && index % 2 == 1;
  const std::int64_t t0 = now_ns();
  const std::uint64_t pass_span = ctx_.spans.open("batched.pass", t0, span_, index);
  for (std::size_t off = 0; off < pk.size(); off += kSubmitBatch) {
    const std::size_t n = std::min(kSubmitBatch, pk.size() - off);
    const std::int64_t b0 = now_ns();
    dp.process_batch(std::span<const Packet>(pk.data() + off, n));
    const std::int64_t b1 = now_ns();
    rate.add(n, b1 - b0);
    if (traced) ctx_.spans.add("core.process_batch", b0, b1, pass_span, off / kSubmitBatch);
  }
  const std::int64_t t1 = now_ns();
  ctx_.spans.finish(pass_span, t1);
  if (ctx_.spans.enabled()) {
    (traced ? ctx_.layers.traced_mpps : ctx_.layers.untraced_mpps)
        .push_back(mpps_of(pk.size(), t1 - t0));
  }
  ctx_.tally.attempt("batched.packets", pk.size());
  if (index == 0) {
    ref_out_.registers = register_checksum(dp);
    ref_out_.standing = standing_checksum(inst_);
    ref_out_.answers = answers(ctx_.w, inst_);
  } else {
    check_pass(ctx_, inst_, ref_, "batched", false);
  }
}

ShardedLeg::ShardedLeg(LegContext& ctx, const Reference& ref)
    : Leg(ctx, ref, "sharded", kExecutors) {}

void ShardedLeg::pass() {
  const std::size_t index = passes_++;
  FlyMonDataPlane& dp = *inst_.dp;
  const std::vector<Packet>& pk = ctx_.w.packets;
  dp.clear_registers();
  const std::int64_t t0 = now_ns();
  const std::uint64_t pass_span = ctx_.spans.open("sharded.pass", t0, span_, index);
  std::vector<std::int64_t> call_ns;
  for (std::size_t off = 0; off < pk.size(); off += kSubmitBatch) {
    const std::size_t n = std::min(kSubmitBatch, pk.size() - off);
    const std::int64_t b0 = now_ns();
    dp.process_batch_parallel(std::span<const Packet>(pk.data() + off, n));
    const std::int64_t b1 = now_ns();
    call_ns.push_back(b1 - b0);
    if (ctx_.spans.enabled()) {
      ctx_.spans.add("core.process_batch_parallel", b0, b1, pass_span, off / kSubmitBatch);
    }
  }
  const std::int64_t m0 = now_ns();
  dp.merge_shards();
  const std::int64_t t1 = now_ns();
  ctx_.spans.add("exec.merge_shards", m0, t1, pass_span, index);
  ctx_.spans.finish(pass_span, t1);
  // One sample per call, each carrying its share of the pass's final
  // merge, so the rate still runs until results are queryable.
  for (std::size_t i = 0; i < call_ns.size(); ++i) {
    const std::size_t n = std::min(kSubmitBatch, pk.size() - i * kSubmitBatch);
    rate.add(n, call_ns[i] + (t1 - m0) * static_cast<std::int64_t>(n) /
                                 static_cast<std::int64_t>(pk.size()));
  }
  ctx_.layers.merge_ms.push_back(static_cast<double>(t1 - m0) / 1e6);
  ctx_.tally.attempt("sharded.packets", pk.size());
  const auto plan = dp.current_plan();
  if (ctx_.spans.enabled() && plan != nullptr) {
    // Live registers are clear at the pass start and parallel batches
    // write only the shards, so every non-zero live cell in a merge
    // region is one the merge changed.
    double walked = 0, changed = 0;
    for (const auto& region : plan->merge_regions()) {
      walked += static_cast<double>(region.size) * kExecutors;
      const auto* live = plan->live_register(region.cmu);
      for (std::uint32_t a = region.base; a < region.base + region.size; ++a) {
        changed += live->load_relaxed(a) != 0 ? 1.0 : 0.0;
      }
    }
    ctx_.layers.merge_cells = walked;
    ctx_.layers.merge_cells_changed = changed;
  }
  check_pass(ctx_, inst_, ref_, "sharded", false);
}

void ShardedLeg::finish() {
  Leg::finish();
  const flymon::exec::ParallelStats s = inst_.dp->parallel_stats();
  ctx_.layers.sharded_batches += s.parallel_batches;
  ctx_.layers.sharded_chunks += s.chunks;
}

StreamedLeg::StreamedLeg(LegContext& ctx, const Reference& ref)
    : Leg(ctx, ref, "streamed", kExecutors) {}

void StreamedLeg::pass() {
  const std::size_t index = passes_++;
  inst_.dp->clear_registers();
  PumpProbe src(ctx_.w.packets, 1.0, false);
  const std::uint64_t pass_span = ctx_.spans.open("streamed.pass", now_ns(), span_, index);
  const StreamPass sp = stream_pass(ctx_, inst_, src, false, nullptr, &ctx_.layers.asap,
                                    pass_span, "streamed");
  ctx_.spans.finish(pass_span, now_ns());
  add_windows(rate, sp.stamps.batches(), sp.start_ns, kThroughputWindow);
  check_pass(ctx_, inst_, ref_, "streamed", false);
}

PacedLeg::PacedLeg(LegContext& ctx, const Reference& ref)
    : Leg(ctx, ref, "paced", kExecutors) {}

void PacedLeg::pass() {
  const std::size_t index = passes_++;
  inst_.dp->clear_registers();
  PumpProbe src(ctx_.w.packets, ctx_.w.time_scale, true);
  const std::uint64_t pass_span = ctx_.spans.open("paced.pass", now_ns(), span_, index);
  const StreamPass sp = stream_pass(ctx_, inst_, src, true, nullptr, &ctx_.layers.paced,
                                    pass_span, "paced");
  ctx_.spans.finish(pass_span, now_ns());
  const std::vector<double> lat =
      sp.stamps.latencies_ns([&src](std::size_t i) { return src.due_ns(i); });
  for (std::size_t off = 0; off + kLatencyWindow <= lat.size(); off += kLatencyWindow) {
    const Percentiles p = percentiles(std::vector<double>(
        lat.begin() + static_cast<std::ptrdiff_t>(off),
        lat.begin() + static_cast<std::ptrdiff_t>(off + kLatencyWindow)));
    window_p50_us.push_back(p.p50 / 1e3);
    window_tail_us.push_back(p.tail / 1e3);
    tail_q = p.tail_q;
  }
  samples += lat.size();
  ctx_.layers.pace_lag_us.insert(ctx_.layers.pace_lag_us.end(), src.lag_us().begin(),
                                 src.lag_us().end());
  check_pass(ctx_, inst_, ref_, "paced", false);
}

namespace {

/// The control thread of the churn leg: one add -> resize -> remove cycle
/// of the churn task per period and a readout of the standing CMS task
/// after each operation.
class ControlLoop {
 public:
  ControlLoop(LegContext& ctx, Instance& inst, std::uint32_t readout_id,
              std::uint64_t parent)
      : ctx_(ctx), inst_(inst), readout_id_(readout_id), parent_(parent) {}

  /// Run cycles until stop() is called; always finishes the cycle it is in.
  void run() {
    const std::int64_t t0 = now_ns();
    for (std::int64_t k = 0;; ++k) {
      const std::int64_t due = t0 + k * kChurnPeriodNs;
      {
        std::unique_lock<std::mutex> lock(mu_);
        const auto wait = std::chrono::nanoseconds(std::max<std::int64_t>(0, due - now_ns()));
        if (cv_.wait_for(lock, wait, [this] { return stop_; })) return;
      }
      cycle(due, static_cast<std::uint64_t>(k));
    }
  }
  void stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }

  std::atomic<std::int64_t> overdue_from{0};  ///< due time of the op in flight
  Tally tally;
  std::vector<double> reconfig_ms, query_us;
  std::vector<double> add_ms, resize_ms, remove_ms, fence_ms, modelled_ms;

 private:
  /// One control operation, timed from `due`.  Traced runs first time a
  /// merge_shards() fence of their own; its duration is left out of the
  /// operation's latency.
  template <class Call>
  bool op(const char* kind, std::int64_t due, std::uint64_t cycle_span,
          std::uint64_t k, std::vector<double>& call_ms, Call&& call) {
    overdue_from.store(due, std::memory_order_release);
    std::int64_t fence_ns = 0;
    if (ctx_.spans.enabled()) {
      const std::int64_t f0 = now_ns();
      inst_.dp->merge_shards();
      fence_ns = now_ns() - f0;
      ctx_.spans.add("control.fence", f0, f0 + fence_ns, cycle_span, k);
      fence_ms.push_back(static_cast<double>(fence_ns) / 1e6);
    }
    const std::int64_t c0 = now_ns();
    const bool ok = call();
    const std::int64_t t1 = now_ns();
    overdue_from.store(0, std::memory_order_release);
    ctx_.spans.add(std::string("control.") + kind, c0, t1, cycle_span, k);
    const std::int64_t latency = t1 - due - fence_ns;
    reconfig_ms.push_back(static_cast<double>(latency) / 1e6);
    call_ms.push_back(static_cast<double>(t1 - c0) / 1e6);
    tally.check(std::string("control.") + kind, ok);
    tally.check("control.deadline", latency <= kControlDeadlineNs);
    return ok;
  }

  void readout(std::uint64_t cycle_span, std::uint64_t k) {
    const std::int64_t q0 = now_ns();
    const std::size_t n = std::min(kReadoutProbes, ctx_.w.probes.size());
    for (std::size_t i = 0; i < n; ++i) inst_.ctl->query_value(readout_id_, ctx_.w.probes[i]);
    const std::int64_t q1 = now_ns();
    ctx_.spans.add("control.query", q0, q1, cycle_span, k);
    query_us.push_back(static_cast<double>(q1 - q0) / 1e3);
  }

  /// Whether a deploy succeeded; a successful one must also model an
  /// install delay under the paper's 100 ms.
  bool deployed(const flymon::control::DeployResult& r) {
    if (r.ok) {
      modelled_ms.push_back(r.report.delay_ms());
      tally.check("control.modelled_delay_under_100ms", r.report.delay_ms() < 100.0);
    }
    return r.ok;
  }

  void cycle(std::int64_t due, std::uint64_t k) {
    auto& ctl = *inst_.ctl;
    const std::uint64_t cycle_span = ctx_.spans.open("control.cycle", due, parent_, k);
    std::uint32_t id = 0;
    const bool added = op("add_task", due, cycle_span, k, add_ms, [&] {
      const auto r = ctl.add_task(churn_task());
      id = r.task_id;
      return deployed(r);
    });
    readout(cycle_span, k);
    if (added) {
      op("resize_task", now_ns(), cycle_span, k, resize_ms, [&] {
        return deployed(ctl.resize_task(id, kChurnResizeBuckets));
      });
      readout(cycle_span, k);
      op("remove_task", now_ns(), cycle_span, k, remove_ms,
         [&] { return ctl.remove_task(id); });
      readout(cycle_span, k);
    }
    ctx_.spans.finish(cycle_span, now_ns());
  }

  LegContext& ctx_;
  Instance& inst_;
  std::uint32_t readout_id_;
  std::uint64_t parent_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace

ChurnLeg::ChurnLeg(LegContext& ctx, const Reference& ref)
    : Leg(ctx, ref, "churn", kExecutors), readout_id_(inst_.task_ids.front()) {
  // Readouts go to the first standing Frequency task.
  for (std::size_t t = 0; t < ctx.w.tasks.size(); ++t) {
    if (ctx.w.tasks[t].attribute == flymon::AttributeKind::kFrequency) {
      readout_id_ = inst_.task_ids[t];
      break;
    }
  }
}

void ChurnLeg::pass() {
  const std::size_t index = passes_++;
  inst_.dp->clear_registers();
  PumpProbe src(ctx_.w.packets, 1.0, false);
  const std::uint64_t pass_span = ctx_.spans.open("churn.pass", now_ns(), span_, index);
  ControlLoop control(ctx_, inst_, readout_id_, pass_span);
  std::thread control_thread([&control] { control.run(); });
  StreamPass sp;
  try {
    sp = stream_pass(ctx_, inst_, src, false, &control.overdue_from, nullptr, pass_span,
                     "churn");
  } catch (...) {
    control.stop();
    control_thread.join();
    throw;
  }
  control.stop();
  control_thread.join();
  ctx_.spans.finish(pass_span, now_ns());
  add_windows(rate, sp.stamps.batches(), sp.start_ns, kThroughputWindow);
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(reconfig_ms, control.reconfig_ms);
  append(query_us, control.query_us);
  append(ctx_.layers.add_ms, control.add_ms);
  append(ctx_.layers.resize_ms, control.resize_ms);
  append(ctx_.layers.remove_ms, control.remove_ms);
  append(ctx_.layers.fence_ms, control.fence_ms);
  append(ctx_.layers.query_us, control.query_us);
  append(ctx_.layers.modelled_delay_ms, control.modelled_ms);
  ctx_.tally.merge(control.tally);
  check_pass(ctx_, inst_, ref_, "churn", true);
}

void layer_probes(LegContext& ctx, std::vector<std::pair<std::string, double>>& out) {
  Instance inst = build_instance(ctx, kExecutors);
  FlyMonDataPlane& dp = *inst.dp;
  const auto plan = dp.current_plan();
  const std::vector<Packet>& pk = ctx.w.packets;
  const std::uint64_t leg_span = ctx.spans.open("leg.layer_probes", now_ns());
  constexpr int kReps = 5;
  std::uint64_t sink = 0;

  auto timed = [&](const char* name, auto&& body) {
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
      const std::int64_t t0 = now_ns();
      body();
      const std::int64_t t1 = now_ns();
      ctx.spans.add(name, t0, t1, leg_span, static_cast<std::uint64_t>(r));
      ns.push_back(static_cast<double>(t1 - t0));
    }
    return median(ns);
  };

  // CRC kernel over the workload's keys and the plan's installed masks.
  const std::size_t nkeys = std::min<std::size_t>(pk.size(), 65536);
  std::vector<flymon::CandidateKey> keys(nkeys);
  for (std::size_t i = 0; i < nkeys; ++i) keys[i] = flymon::serialize_candidate_key(pk[i]);
  const std::size_t masks = plan->hash_slots().size() - 1;  // slot 0 is the zero lane
  const double crc_ns = timed("common.crc_masked17", [&] {
    for (std::size_t s = 1; s < plan->hash_slots().size(); ++s) {
      const auto& unit = plan->hash_slots()[s].unit;
      const flymon::CrcKernel& kernel =
          flymon::crc_kernel_for(flymon::crc_polynomial(unit.unit_index()));
      for (const auto& k : keys) {
        sink += kernel.compute_masked17(k.data(), unit.mask().data(), 0xFFFFFFFFu);
      }
    }
  });
  out.emplace_back("common.crc_masked17_ns",
                   crc_ns / static_cast<double>(nkeys * std::max<std::size_t>(masks, 1)));

  const double ser_ns = timed("packet.serialize_key", [&] {
    for (const Packet& p : pk) {
      const flymon::CandidateKey k = flymon::serialize_candidate_key(p);
      for (const std::uint8_t b : k) sink += b;
    }
  });
  out.emplace_back("packet.serialize_key_ns", ser_ns / static_cast<double>(pk.size()));

  flymon::exec::BatchScratch scratch;
  const double run_ns = timed("exec.run_batch", [&] {
    for (std::size_t off = 0; off < pk.size(); off += kSubmitBatch) {
      plan->run_batch(std::span<const Packet>(pk.data() + off,
                                              std::min(kSubmitBatch, pk.size() - off)),
                      scratch);
    }
  });
  out.emplace_back("exec.run_batch_ns_per_pkt", run_ns / static_cast<double>(pk.size()));

  flymon::exec::RegisterShard shard(dp);
  const double shard_ns = timed("exec.run_batch_sharded", [&] {
    shard.mark_dirty();
    shard.discard();
    const flymon::exec::ShardBinding binding = shard.binding();
    for (std::size_t off = 0; off < pk.size(); off += kSubmitBatch) {
      plan->run_batch_sharded(
          std::span<const Packet>(pk.data() + off, std::min(kSubmitBatch, pk.size() - off)),
          scratch, binding);
    }
  });
  out.emplace_back("exec.run_batch_sharded_ns_per_pkt",
                   shard_ns / static_cast<double>(pk.size()));

  std::uint64_t gen = plan->generation() + 1000;
  const double compile_ns = timed("exec.compile", [&] {
    sink += flymon::exec::PlanCompiler::compile(dp, plan->ownership(), ++gen)->num_entries();
  });
  out.emplace_back("exec.compile_us", compile_ns / 1e3);

  dp.merge_shards();
  const double publish_ns = timed("exec.publish", [&] { sink += dp.republish_plan(); });
  out.emplace_back("exec.publish_us", publish_ns / 1e3);

  ctx.spans.finish(leg_span, now_ns());
  probe_sink = sink;
}

}  // namespace perfbench
