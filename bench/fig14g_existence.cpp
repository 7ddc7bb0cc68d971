// Paper Figure 14g: existence check (Bloom filter) false-positive rate vs
// memory, before and after the bit-packing optimisation that uses every
// bit of the uniform 32-bit CMU buckets (§4).
#include "bench/bench_util.hpp"

using namespace flymon;

namespace {

double existence_fp(bool bit_packed, std::size_t mem_bytes,
                    const std::vector<Packet>& members,
                    const std::vector<Packet>& non_members) {
  TaskSpec spec;
  spec.key = FlowKeySpec::five_tuple();
  spec.attribute = AttributeKind::kExistence;
  spec.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  spec.rows = 3;
  spec.bloom_bit_packed = bit_packed;
  spec.memory_buckets =
      static_cast<std::uint32_t>(std::max<std::size_t>(32, mem_bytes / (4 * spec.rows)));
  auto inst = bench::deploy_flymon(spec);
  if (!inst.ok) return -1;
  inst.dp->process_batch(members);

  // No false negatives allowed.
  for (std::size_t i = 0; i < members.size(); i += 37) {
    if (!inst.ctl->query_existence(inst.task_id, members[i])) return -2;
  }
  std::size_t fp = 0;
  for (const Packet& p : non_members) fp += inst.ctl->query_existence(inst.task_id, p);
  return analysis::false_positive_rate(fp, non_members.size());
}

}  // namespace

int main() {
  bench::header("Figure 14g", "Existence check: false positives vs memory");

  // 20K inserted keys; ~95K probes of which 75K are not in the set.
  TraceConfig in_cfg;
  in_cfg.num_flows = 20'000;
  in_cfg.num_packets = 20'000;
  in_cfg.zipf_alpha = 0.0;
  const auto members = TraceGenerator::generate(in_cfg);

  TraceConfig out_cfg = in_cfg;
  out_cfg.num_flows = 75'000;
  out_cfg.num_packets = 75'000;
  out_cfg.seed = 77;
  out_cfg.src_ip_base = 0x2F00'0000;  // disjoint pool: guaranteed non-members
  const auto non_members = TraceGenerator::generate(out_cfg);

  std::printf("%10s %14s %14s\n", "memory", "w/o Opt", "w/ Opt");
  for (std::size_t kb : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    const std::size_t bytes = kb * 1024;
    std::printf("%10s %14.4f %14.4f\n", bench::fmt_mem(bytes).c_str(),
                existence_fp(false, bytes, members, non_members),
                existence_fp(true, bytes, members, non_members));
  }
  std::printf("\n(paper: the optimised filter reaches FP < 0.1%% while the "
              "1-bit-per-bucket variant wastes 31/32 of the memory)\n");
  return 0;
}
