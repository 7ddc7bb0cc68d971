// Multitasking stress (paper §5.1): split each CMU into 32 memory
// partitions and run up to 96 isolated measurement tasks concurrently on a
// single CMU Group, deploying and retiring tasks at the millisecond level.
#include <cstdio>
#include <vector>

#include "control/controller.hpp"
#include "packet/trace_gen.hpp"

using namespace flymon;

int main() {
  // One CMU Group only: the paper's claim is 96 tasks on a single group.
  FlyMonDataPlane dataplane(1);
  control::Controller controller(dataplane);

  // 96 single-row tasks, each with a disjoint /16-within-/8 source filter
  // so they can share CMUs (one memory access per packet per CMU).
  const std::uint32_t total = dataplane.group(0).config().register_buckets;
  const std::uint32_t buckets = total / 32;  // 32 partitions per CMU
  std::vector<std::uint32_t> ids;
  double total_delay = 0;
  for (unsigned i = 0; i < 96; ++i) {
    TaskSpec t;
    t.name = "slice-" + std::to_string(i);
    t.filter = TaskFilter::src(0x0A00'0000u | (static_cast<std::uint32_t>(i) << 16), 16);
    t.key = FlowKeySpec::five_tuple();
    t.attribute = AttributeKind::kFrequency;
    t.memory_buckets = buckets;
    t.rows = 1;
    const auto r = controller.add_task(t);
    if (!r.ok) {
      std::printf("task %u failed: %s\n", i, r.error.c_str());
      break;
    }
    ids.push_back(r.task_id);
    total_delay += r.report.delay_ms();
  }
  std::printf("deployed %zu concurrent isolated tasks on 1 CMU Group\n", ids.size());
  std::printf("mean deployment delay: %.2f ms\n",
              ids.empty() ? 0.0 : total_delay / ids.size());
  for (unsigned c = 0; c < 3; ++c) {
    std::printf("CMU %u free buckets: %u / %u\n", c, controller.free_buckets(0, c), total);
  }

  // Traffic across all 96 slices.
  TraceConfig cfg;
  cfg.num_flows = 9600;
  cfg.num_packets = 300'000;
  cfg.src_ip_base = 0x0A00'0000;  // 10.x covers all slice filters
  const auto trace = TraceGenerator::generate(cfg);
  dataplane.process_batch(trace);

  // Spot-check isolation: each task only sees its own slice.
  unsigned checked = 0, correct = 0;
  const FreqMap truth = ExactStats::frequency(trace, FlowKeySpec::five_tuple());
  for (const auto& [key, count] : truth) {
    const Packet p = packet_from_candidate_key(key.bytes);
    const unsigned slice = (p.ft.src_ip >> 16) & 0xFF;
    if (slice >= ids.size()) continue;
    const std::uint64_t est = controller.query_value(ids[slice], p);
    ++checked;
    if (est >= count && est <= count + 64) ++correct;  // small collision slack
    if (checked == 2000) break;
  }
  std::printf("isolation spot-check: %u/%u flows within tolerance\n", correct, checked);

  // Retire half the tasks; memory coalesces back.
  for (unsigned i = 0; i < ids.size(); i += 2) controller.remove_task(ids[i]);
  std::printf("after retiring half: %zu tasks, CMU0 free %u buckets\n",
              controller.num_tasks(), controller.free_buckets(0, 0));
  return 0;
}
