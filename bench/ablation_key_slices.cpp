// Ablation (paper §3.2): CMUs of one group slice overlapping sub-parts of
// a single compressed key instead of computing d independent hashes.  The
// paper claims this SketchLib-style strategy has negligible accuracy
// impact; we compare FlyMon-CMS (sliced) against an ideal software CMS
// (independent 64-bit hashes) at identical geometry.
#include "bench/bench_util.hpp"
#include "sketch/count_min.hpp"

using namespace flymon;

int main() {
  bench::header("Ablation: key slices",
                "Sliced compressed key (FlyMon) vs independent hashes (ideal CMS)");

  TraceConfig cfg;
  cfg.num_flows = 20'000;
  cfg.num_packets = 600'000;
  const auto trace = TraceGenerator::generate(cfg);
  const FreqMap truth = ExactStats::frequency(trace, FlowKeySpec::five_tuple());

  std::printf("%12s %16s %18s %10s\n", "buckets/row", "FlyMon (sliced)",
              "CMS (independent)", "ratio");
  for (std::uint32_t buckets : {2048u, 4096u, 8192u, 16384u, 32768u}) {
    TaskSpec spec;
    spec.key = FlowKeySpec::five_tuple();
    spec.attribute = AttributeKind::kFrequency;
    spec.memory_buckets = buckets;
    spec.rows = 3;
    auto inst = bench::deploy_flymon(spec);
    inst.dp->process_batch(trace);
    const double are_sliced =
        analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
          return inst.ctl->query_value(inst.task_id, packet_from_candidate_key(k.bytes));
        });

    sketch::CountMin cms(3, buckets);
    for (const Packet& p : trace) {
      const FlowKeyValue k = extract_flow_key(p, FlowKeySpec::five_tuple());
      cms.update({k.bytes.data(), k.bytes.size()});
    }
    const double are_ind = analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
      return cms.query({k.bytes.data(), k.bytes.size()});
    });

    std::printf("%12u %16.4f %18.4f %10.2f\n", buckets, are_sliced, are_ind,
                are_ind > 0 ? are_sliced / are_ind : 0.0);
  }
  std::printf("\n(paper: the sub-slice strategy has negligible impact on accuracy)\n");
  return 0;
}
