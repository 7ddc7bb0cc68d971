// The benchmark's workloads: the standing deployment, the packets it
// receives (built from the seed before any timing starts) and the probe set
// for readouts.  Both workloads share the deployment and differ in traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/task.hpp"
#include "packet/packet.hpp"

namespace perfbench {

/// Offered rate of the open-loop paced leg, packets per microsecond.
inline constexpr double kOfferedMpps = 1.5;

struct Workload {
  std::string name;
  std::vector<flymon::TaskSpec> tasks;  ///< the standing deployment
  std::vector<flymon::Packet> packets;  ///< time-sorted input stream
  std::vector<flymon::Packet> probes;   ///< fixed readout probe set
  /// Pump time_scale that replays `packets` at kOfferedMpps.
  double time_scale = 1.0;
};

/// Build `name` ("mix_l2" or "fig12b_stream") from `seed`; throws
/// std::invalid_argument on another name.  The same (name, seed) yields the
/// same inputs.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The task the control leg adds, resizes and removes: 3-row SrcIP CMS.
flymon::TaskSpec churn_task();

}  // namespace perfbench
