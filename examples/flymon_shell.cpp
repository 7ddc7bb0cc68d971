// Interactive control plane: type `help` for the command set.  Traffic can
// be injected between commands with `traffic <flows> <packets>` so the
// whole measure-query loop is explorable from a terminal:
//
//   $ ./flymon_shell
//   flymon> add key=SrcIP attr=Frequency mem=16384 rows=3
//   task 1 deployed: 21 table rules, 1 hash masks, 3 CMUs, 29.4 ms
//   flymon> traffic 5000 200000
//   processed 200000 packets (5000 flows)
//   flymon> query 1 src=10.1.2.3
//   value 137
#include <cstdio>
#include <iostream>
#include <string>

#include "control/shell.hpp"
#include "packet/trace_gen.hpp"
#include "telemetry/telemetry.hpp"

using namespace flymon;

int main() {
  telemetry::init_from_env();  // FLYMON_TELEMETRY=1 enables counters
  FlyMonDataPlane dataplane(9);
  control::Controller controller(dataplane);
  control::Shell shell(controller);

  std::printf("FlyMon interactive control plane -- 'help' for commands, "
              "'traffic N M' to inject a trace, 'quit' to exit\n");
  std::string line;
  std::uint64_t seed = 1;
  while (true) {
    std::printf("flymon> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line == "quit" || line == "exit") break;
    if (line.rfind("traffic", 0) == 0) {
      std::size_t flows = 5000, packets = 100'000;
      std::sscanf(line.c_str(), "traffic %zu %zu", &flows, &packets);
      TraceConfig cfg;
      cfg.num_flows = flows;
      cfg.num_packets = packets;
      cfg.seed = seed++;
      dataplane.process_batch(TraceGenerator::generate(cfg));
      std::printf("processed %zu packets (%zu flows)\n", packets, flows);
      continue;
    }
    if (line == "clear") {
      dataplane.clear_registers();
      std::printf("registers cleared\n");
      continue;
    }
    const std::string out = shell.execute(line);
    if (!out.empty()) std::printf("%s\n", out.c_str());
  }
  return 0;
}
