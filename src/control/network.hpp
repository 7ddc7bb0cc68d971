// Network-wide measurement (paper §3.4 / §7: FlyMon supplies the flexible
// hardware data plane for software-defined-measurement controllers such as
// DREAM/SCREAM).  This layer manages a fleet of FlyMon switches, deploys a
// task on all of them, ECMP-routes traffic, and merges per-switch readouts
// into network-wide answers.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "control/controller.hpp"

namespace flymon::control {

class NetworkFlyMon {
 public:
  explicit NetworkFlyMon(unsigned num_switches, unsigned groups_per_switch = 9,
                         const CmuGroupConfig& cfg = {});

  unsigned num_switches() const noexcept { return static_cast<unsigned>(nodes_.size()); }
  Controller& controller(unsigned i) { return *nodes_.at(i).ctl; }
  FlyMonDataPlane& switch_at(unsigned i) { return *nodes_.at(i).dp; }

  /// A task instantiated on every switch.
  struct NetworkTask {
    bool ok = false;
    std::string error;
    TaskSpec spec;
    std::vector<std::uint32_t> per_switch_id;
    double worst_deploy_ms = 0;
  };

  /// Deploy `spec` on all switches; all-or-nothing.
  NetworkTask deploy_everywhere(const TaskSpec& spec);
  void remove_everywhere(const NetworkTask& t);

  /// ECMP: a flow (5-tuple) is pinned to one switch by hash.
  unsigned route(const Packet& p) const noexcept;
  /// Run each packet through the data plane of its ECMP switch.
  void process_batch(std::span<const Packet> trace);
  void clear_all_registers();

  // ---- merged network-wide readout ----
  /// Frequency: a flow's packets live on its ECMP switch; summing the
  /// per-switch estimates covers multi-path deployments too.
  std::uint64_t query_value_sum(const NetworkTask& t, const Packet& probe) const;
  /// Max attribute: maximum across switches.
  std::uint64_t query_value_max(const NetworkTask& t, const Packet& probe) const;
  /// Existence: present anywhere.
  bool query_existence_any(const NetworkTask& t, const Packet& probe) const;
  /// Cardinality: ECMP partitions the flow space, so per-switch
  /// cardinalities add up.
  double estimate_cardinality_sum(const NetworkTask& t) const;
  /// Distinct-count report (DDoS victims): reported by any switch.
  bool distinct_over_threshold_any(const NetworkTask& t, const Packet& probe) const;
  /// Network-wide heavy hitters over a candidate set.
  std::vector<FlowKeyValue> detect_over_threshold(
      const NetworkTask& t, const std::vector<FlowKeyValue>& candidates,
      std::uint64_t threshold) const;

 private:
  struct Node {
    std::unique_ptr<FlyMonDataPlane> dp;
    std::unique_ptr<Controller> ctl;
  };
  std::vector<Node> nodes_;
};

}  // namespace flymon::control
