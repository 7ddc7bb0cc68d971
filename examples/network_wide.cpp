// Network-wide measurement: deploy one task across a fleet of FlyMon
// switches, ECMP the traffic, and merge the per-switch readouts — the
// software-defined-measurement pattern (DREAM/SCREAM) the paper positions
// FlyMon's data plane under.
#include <cstdio>

#include "analysis/metrics.hpp"
#include "control/network.hpp"
#include "packet/trace_gen.hpp"

using namespace flymon;

int main() {
  control::NetworkFlyMon net(4);  // a 4-switch leaf layer
  std::printf("fleet: %u switches x 9 CMU Groups\n", net.num_switches());

  // Network-wide heavy hitters.
  TaskSpec hh;
  hh.name = "net-wide heavy hitters";
  hh.key = FlowKeySpec::five_tuple();
  hh.attribute = AttributeKind::kFrequency;
  hh.memory_buckets = 16384;
  hh.rows = 3;
  const auto hh_task = net.deploy_everywhere(hh);
  if (!hh_task.ok) {
    std::fprintf(stderr, "deploy failed: %s\n", hh_task.error.c_str());
    return 1;
  }
  std::printf("heavy-hitter task live on all switches (worst deploy %.2f ms)\n",
              hh_task.worst_deploy_ms);

  // Network-wide cardinality (per-switch HLLs, summed over the ECMP
  // partition of the flow space).
  TaskSpec card;
  card.name = "net-wide cardinality";
  card.attribute = AttributeKind::kDistinct;
  card.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  card.algorithm = Algorithm::kHyperLogLog;
  card.memory_buckets = 4096;
  const auto card_task = net.deploy_everywhere(card);
  if (!card_task.ok) {
    std::fprintf(stderr, "deploy failed: %s\n", card_task.error.c_str());
    return 1;
  }

  TraceConfig cfg;
  cfg.num_flows = 20'000;
  cfg.num_packets = 500'000;
  const auto trace = TraceGenerator::generate(cfg);
  net.process_batch(trace);
  std::printf("processed %zu packets across the fabric\n", trace.size());

  const FreqMap truth = ExactStats::frequency(trace, hh.key);
  const auto hh_true = ExactStats::over_threshold(truth, 1024);
  std::vector<FlowKeyValue> candidates;
  for (const auto& [k, f] : truth) candidates.push_back(k);
  const auto reported = net.detect_over_threshold(hh_task, candidates, 1024);
  const auto score = analysis::score_detection(hh_true, reported);
  std::printf("network-wide heavy hitters: %zu reported, %zu true, F1 %.3f\n",
              reported.size(), hh_true.size(), score.f1());

  const double card_truth =
      static_cast<double>(ExactStats::cardinality(trace, FlowKeySpec::five_tuple()));
  std::printf("network-wide cardinality: %.0f estimated vs %.0f true (RE %.3f)\n",
              net.estimate_cardinality_sum(card_task), card_truth,
              analysis::relative_error(card_truth, net.estimate_cardinality_sum(card_task)));
  return 0;
}
