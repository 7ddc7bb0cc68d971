// Paper Figure 12b: impact of reconfiguration events on measurement
// accuracy.  Task A (per-SrcIP frequency) runs for 20 epochs; a traffic
// spike (+30K flows) hits epochs 6-15.  FlyMon inserts/removes a second
// task (epochs 3/10) and grows/shrinks task A's memory (epochs 6/16) on
// the fly; the static deployment cannot adapt without reloading.
#include "bench/bench_util.hpp"
#include "ingest/gen_source.hpp"
#include "sketch/count_min.hpp"

using namespace flymon;

namespace {

double epoch_are_flymon(control::Controller& ctl, std::uint32_t task_id,
                        const std::vector<Packet>& epoch, const TaskFilter& filter) {
  FreqMap truth;
  for (const Packet& p : epoch) {
    if (filter.matches(p.ft)) truth[extract_flow_key(p, FlowKeySpec::src_ip())] += 1;
  }
  return analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
    return ctl.query_value(task_id, packet_from_candidate_key(k.bytes));
  });
}

double epoch_are_static(const sketch::CountMin& cms, const std::vector<Packet>& epoch,
                        const TaskFilter& filter) {
  FreqMap truth;
  for (const Packet& p : epoch) {
    if (filter.matches(p.ft)) truth[extract_flow_key(p, FlowKeySpec::src_ip())] += 1;
  }
  return analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
    return cms.query({k.bytes.data(), k.bytes.size()});
  });
}

}  // namespace

int main() {
  bench::header("Figure 12b",
                "Task-A ARE across 20 epochs with a traffic spike (epochs 6-15)");

  constexpr unsigned kEpochs = 20;
  constexpr std::uint64_t kEpochNs = 1'000'000'000;
  constexpr std::uint32_t kSmall = 8192, kLarge = 65536;

  // Per-epoch traces from the shared workload definition: 10K base flows;
  // +30K spike flows in epochs 6..15 (ingest::fig12b_epoch is the single
  // source of truth — the streaming GeneratorSource plays the same one).
  std::vector<std::vector<Packet>> epochs;
  for (unsigned e = 0; e < kEpochs; ++e) {
    epochs.push_back(ingest::materialize(ingest::fig12b_epoch(e, kEpochNs)));
  }

  // FlyMon: task A per-SrcIP counts on 10/8 traffic.
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  TaskSpec a;
  a.name = "task A";
  a.filter = TaskFilter::src(0x0A00'0000, 8);
  a.key = FlowKeySpec::src_ip();
  a.attribute = AttributeKind::kFrequency;
  a.memory_buckets = kSmall;
  a.rows = 3;
  auto ha = ctl.add_task(a);
  if (!ha.ok) {
    std::fprintf(stderr, "task A failed: %s\n", ha.error.c_str());
    return 1;
  }
  std::uint32_t a_id = ha.task_id;
  std::uint32_t b_id = 0;

  // Static deployment: same initial memory, immutable.
  sketch::CountMin static_cms(3, kSmall);

  std::printf("%6s %14s %14s %10s\n", "epoch", "FlyMon ARE", "Static ARE", "events");
  for (unsigned e = 0; e < kEpochs; ++e) {
    std::string events;
    if (e == 3) {  // insert task B in the same CMU Group (disjoint filter)
      TaskSpec b;
      b.name = "task B";
      b.filter = TaskFilter::src(0x2D00'0000, 8);
      b.key = FlowKeySpec::five_tuple();
      b.attribute = AttributeKind::kFrequency;
      b.memory_buckets = kSmall;
      b.rows = 3;
      const auto hb = ctl.add_task(b);
      if (hb.ok) b_id = hb.task_id;
      events += "+B ";
    }
    if (e == 6) {  // grow task A for the spike
      const auto r = ctl.resize_task(a_id, kLarge);
      if (r.ok) a_id = r.task_id;
      events += "A:mem+ ";
    }
    if (e == 10 && b_id != 0) {
      ctl.remove_task(b_id);
      events += "-B ";
    }
    if (e == 16) {  // shrink back after the spike
      const auto r = ctl.resize_task(a_id, kSmall);
      if (r.ok) a_id = r.task_id;
      events += "A:mem- ";
    }

    // Fresh epoch: clear data-plane state, then measure.
    dp.clear_registers();
    static_cms.clear();
    dp.process_batch(epochs[e]);
    for (const Packet& p : epochs[e]) {
      if (a.filter.matches(p.ft)) {
        const FlowKeyValue k = extract_flow_key(p, FlowKeySpec::src_ip());
        static_cms.update({k.bytes.data(), k.bytes.size()});
      }
    }

    std::printf("%6u %14.4f %14.4f %10s%s\n", e,
                epoch_are_flymon(ctl, a_id, epochs[e], a.filter),
                epoch_are_static(static_cms, epochs[e], a.filter),
                e >= 6 && e <= 15 ? "[spike]" : "", events.c_str());
  }
  std::printf("\n(paper: task insert/remove does not disturb task A; during the "
              "spike the static method's ARE is ~15x higher than FlyMon's)\n");
  return 0;
}
