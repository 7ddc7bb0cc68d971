#include "workloads.hpp"

#include <stdexcept>

#include "ingest/gen_source.hpp"
#include "packet/trace_gen.hpp"

namespace perfbench {

using flymon::Algorithm;
using flymon::AttributeKind;
using flymon::FlowKeySpec;
using flymon::MetaField;
using flymon::Packet;
using flymon::ParamSpec;
using flymon::TaskSpec;

namespace {

TaskSpec task(const char* name, FlowKeySpec key, AttributeKind attr,
              Algorithm algo, std::uint32_t buckets,
              ParamSpec param = ParamSpec::constant(1)) {
  TaskSpec t;
  t.name = name;
  t.key = key;
  t.attribute = attr;
  t.algorithm = algo;
  t.param = param;
  t.memory_buckets = buckets;
  t.rows = 3;
  return t;
}

/// The micro mix: one task per attribute family, 3 rows x 16K buckets each
/// (about 576 KB of registers, resident in a 2 MiB L2).
std::vector<TaskSpec> mix_tasks() {
  TaskSpec d = task("distinct-dst", FlowKeySpec::dst_ip(), AttributeKind::kDistinct,
                    Algorithm::kBeauCoup, 16384,
                    ParamSpec::compressed(FlowKeySpec::src_ip()));
  d.report_threshold = 512;
  return {
      task("cms-5tuple", FlowKeySpec::five_tuple(), AttributeKind::kFrequency,
           Algorithm::kCms, 16384),
      d,
      task("max-queue", FlowKeySpec::ip_pair(), AttributeKind::kMax,
           Algorithm::kSuMaxMax, 16384, ParamSpec::metadata(MetaField::kQueueLen)),
  };
}

std::vector<Packet> zipf(std::size_t flows, std::size_t pkts, double alpha,
                         std::uint64_t seed) {
  flymon::TraceConfig cfg;
  cfg.num_flows = flows;
  cfg.num_packets = pkts;
  cfg.zipf_alpha = alpha;
  cfg.seed = seed;
  cfg.duration_ns = 1'000'000'000;
  return flymon::TraceGenerator::generate(cfg);
}

/// Every 16th distinct flow of the first packets: a fixed probe set that
/// hits heavy and light flows alike.
std::vector<Packet> probe_set(const std::vector<Packet>& pkts, std::size_t n) {
  std::vector<Packet> out;
  std::vector<flymon::FiveTuple> seen;
  for (const Packet& p : pkts) {
    bool dup = false;
    for (const auto& ft : seen) dup = dup || ft == p.ft;
    if (dup) continue;
    seen.push_back(p.ft);
    if (seen.size() % 16 == 1) out.push_back(p);
    if (out.size() == n) break;
  }
  return out;
}

}  // namespace

TaskSpec churn_task() {
  return task("churn-srcip", FlowKeySpec::src_ip(), AttributeKind::kFrequency,
              Algorithm::kCms, 16384);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.tasks = mix_tasks();
  if (name == "mix_l2") {
    w.packets = zipf(10'000, 1'000'000, 1.05, 0x5EED'0000u + seed);
  } else if (name == "fig12b_stream") {
    // The paper's Fig 12b scenario: 20 one-second epochs, a 10K-flow
    // background and a +30K-flow spike in epochs 6..15 (3.0M packets),
    // with every component's seed offset by the workload seed.
    flymon::ingest::GeneratorConfig cfg = flymon::ingest::fig12b_scenario();
    for (auto& phase : cfg.phases) {
      for (auto& c : phase.components) c.seed += seed * 100'003u;
    }
    w.packets = flymon::ingest::materialize(cfg);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.probes = probe_set(w.packets, 16);
  const double span_us =
      static_cast<double>(w.packets.back().ts_ns - w.packets.front().ts_ns) / 1e3;
  // Capture-time rate (packets/us) scaled up to the offered rate.
  w.time_scale = kOfferedMpps / (static_cast<double>(w.packets.size()) / span_us);
  return w;
}

}  // namespace perfbench
