// Quickstart: deploy one measurement task at runtime, stream a trace
// through the FlyMon data plane, and read the results back.
//
//   $ ./quickstart
//
// The public API in a nutshell:
//   1. FlyMonDataPlane  — the CMU Groups (compiled once, never reloaded)
//   2. Controller       — installs runtime rules for new tasks
//   3. query_*          — control-plane readout / estimation
#include <cstdio>
#include <vector>

#include "control/controller.hpp"
#include "packet/trace_gen.hpp"

using namespace flymon;

int main() {
  // A Tofino pipe's worth of CMU Groups: 9 groups x 3 CMUs.
  FlyMonDataPlane dataplane(9);
  control::Controller controller(dataplane);

  // Define a task: per-source-IP packet counts, 3 rows of 16K buckets.
  TaskSpec task;
  task.name = "per-srcip frequency";
  task.key = FlowKeySpec::src_ip();
  task.attribute = AttributeKind::kFrequency;
  task.param = ParamSpec::constant(1);  // count packets; use kWireBytes for bytes
  task.memory_buckets = 16384;
  task.rows = 3;

  const auto deployed = controller.add_task(task);
  if (!deployed.ok) {
    std::fprintf(stderr, "deployment failed: %s\n", deployed.error.c_str());
    return 1;
  }
  std::printf("deployed task #%u: %u table rules, %u hash-mask rules, %.2f ms\n",
              deployed.task_id, deployed.report.table_rules,
              deployed.report.hash_mask_rules, deployed.report.delay_ms());

  // Stream a synthetic trace through the data plane (in production this is
  // the switch ASIC forwarding real traffic).
  TraceConfig cfg;
  cfg.num_flows = 5000;
  cfg.num_packets = 200'000;
  const std::vector<Packet> trace = TraceGenerator::generate(cfg);
  dataplane.process_batch(trace);
  std::printf("processed %llu packets\n",
              static_cast<unsigned long long>(dataplane.packets_processed()));

  // Read back: compare a few flows against ground truth.
  const FreqMap truth = ExactStats::frequency(trace, task.key);
  std::printf("%-18s %10s %10s\n", "flow (srcip)", "true", "estimate");
  unsigned shown = 0;
  for (const auto& [key, count] : truth) {
    if (count < 1000) continue;  // show the big ones
    const Packet probe = packet_from_candidate_key(key.bytes);
    const std::uint64_t est = controller.query_value(deployed.task_id, probe);
    std::printf("%3u.%u.%u.%u          %10llu %10llu\n", probe.ft.src_ip >> 24,
                (probe.ft.src_ip >> 16) & 255, (probe.ft.src_ip >> 8) & 255,
                probe.ft.src_ip & 255, static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(est));
    if (++shown == 10) break;
  }
  return 0;
}
