// The RCU cell holding the published ExecPlan: the production
// instantiation of exec::BasicPlanCell (see protocol.hpp for the full
// protocol rationale — why it is a mutex and not
// std::atomic<std::shared_ptr>, and why the displaced snapshot dies
// outside the lock).
#pragma once

#include "exec/protocol.hpp"

namespace flymon::exec {

class ExecPlan;

class PlanCell : public BasicPlanCell<common::StdSync, const ExecPlan> {};

}  // namespace flymon::exec
