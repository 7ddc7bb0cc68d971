#include "control/network.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace flymon::control {

NetworkFlyMon::NetworkFlyMon(unsigned num_switches, unsigned groups_per_switch,
                             const CmuGroupConfig& cfg) {
  if (num_switches == 0) throw std::invalid_argument("NetworkFlyMon: zero switches");
  nodes_.reserve(num_switches);
  for (unsigned i = 0; i < num_switches; ++i) {
    Node n;
    n.dp = std::make_unique<FlyMonDataPlane>(groups_per_switch, cfg);
    n.ctl = std::make_unique<Controller>(*n.dp);
    nodes_.push_back(std::move(n));
  }
}

NetworkFlyMon::NetworkTask NetworkFlyMon::deploy_everywhere(const TaskSpec& spec) {
  NetworkTask t;
  t.spec = spec;
  for (unsigned i = 0; i < nodes_.size(); ++i) {
    const DeployResult r = nodes_[i].ctl->add_task(spec);
    if (!r.ok) {
      t.error = "switch " + std::to_string(i) + ": " + r.error;
      // All-or-nothing: roll back the switches already configured.
      for (unsigned j = 0; j < i; ++j) nodes_[j].ctl->remove_task(t.per_switch_id[j]);
      t.per_switch_id.clear();
      return t;
    }
    t.per_switch_id.push_back(r.task_id);
    t.worst_deploy_ms = std::max(t.worst_deploy_ms, r.report.delay_ms());
  }
  t.ok = true;
  return t;
}

void NetworkFlyMon::remove_everywhere(const NetworkTask& t) {
  for (unsigned i = 0; i < t.per_switch_id.size() && i < nodes_.size(); ++i) {
    nodes_[i].ctl->remove_task(t.per_switch_id[i]);
  }
}

unsigned NetworkFlyMon::route(const Packet& p) const noexcept {
  return static_cast<unsigned>(hash64_value(p.ft, 0xEC3Full) % nodes_.size());
}

void NetworkFlyMon::process_batch(std::span<const Packet> trace) {
  for (const Packet& p : trace) nodes_[route(p)].dp->process_batch({&p, 1});
}

void NetworkFlyMon::clear_all_registers() {
  for (auto& n : nodes_) n.dp->clear_registers();
}

std::uint64_t NetworkFlyMon::query_value_sum(const NetworkTask& t,
                                             const Packet& probe) const {
  std::uint64_t sum = 0;
  for (unsigned i = 0; i < nodes_.size(); ++i) {
    sum += nodes_[i].ctl->query_value(t.per_switch_id[i], probe);
  }
  return sum;
}

std::uint64_t NetworkFlyMon::query_value_max(const NetworkTask& t,
                                             const Packet& probe) const {
  std::uint64_t best = 0;
  for (unsigned i = 0; i < nodes_.size(); ++i) {
    best = std::max(best, nodes_[i].ctl->query_value(t.per_switch_id[i], probe));
  }
  return best;
}

bool NetworkFlyMon::query_existence_any(const NetworkTask& t, const Packet& probe) const {
  for (unsigned i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].ctl->query_existence(t.per_switch_id[i], probe)) return true;
  }
  return false;
}

double NetworkFlyMon::estimate_cardinality_sum(const NetworkTask& t) const {
  double sum = 0;
  for (unsigned i = 0; i < nodes_.size(); ++i) {
    sum += nodes_[i].ctl->estimate_cardinality(t.per_switch_id[i]);
  }
  return sum;
}

bool NetworkFlyMon::distinct_over_threshold_any(const NetworkTask& t,
                                                const Packet& probe) const {
  for (unsigned i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].ctl->distinct_over_threshold(t.per_switch_id[i], probe)) return true;
  }
  return false;
}

std::vector<FlowKeyValue> NetworkFlyMon::detect_over_threshold(
    const NetworkTask& t, const std::vector<FlowKeyValue>& candidates,
    std::uint64_t threshold) const {
  std::vector<FlowKeyValue> out;
  for (const FlowKeyValue& k : candidates) {
    const Packet probe = packet_from_candidate_key(k.bytes);
    const bool hit = t.spec.algorithm == Algorithm::kBeauCoup
                         ? distinct_over_threshold_any(t, probe)
                         : query_value_sum(t, probe) >= threshold;
    if (hit) out.push_back(k);
  }
  return out;
}

}  // namespace flymon::control
