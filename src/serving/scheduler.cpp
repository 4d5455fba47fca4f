#include "serving/scheduler.h"

#include <utility>

#include "serving/fleet.h"
#include "serving/replica.h"

namespace streamtensor {
namespace serving {

namespace {

/** The one-replica fleet a Scheduler runs as: no faults, so the
 *  retry, balancer and reload machinery never engages. */
FleetOptions
oneReplicaFleet(const SchedulerOptions &options)
{
    FleetOptions fleet;
    fleet.num_replicas = 1;
    fleet.replica = options;
    return fleet;
}

/** The replica's result with the fleet-level data folded in: the
 *  fleet rejects TooLong and already-expired arrivals before they
 *  reach the engine, and owns the step limit. */
ServingResult
replicaView(FleetResult fleet)
{
    ServingResult result = std::move(fleet.replicas[0]);
    result.rejected = std::move(fleet.rejected);
    result.metrics.rejected_too_long = fleet.metrics.rejected_too_long;
    result.metrics.expired_deadline = fleet.metrics.expired_deadline;
    result.hit_step_limit = fleet.hit_step_limit;
    return result;
}

} // namespace

Scheduler::Scheduler(SchedulerOptions options, StepCostModel &cost)
    : options_(std::move(options)), cost_(cost)
{
    validateSchedulerOptions(options_);
}

ServingResult
Scheduler::run(std::vector<Request> trace)
{
    FleetScheduler fleet(oneReplicaFleet(options_), cost_);
    return replicaView(fleet.run(std::move(trace)));
}

ServingResult
Scheduler::run(TraceGenerator &trace)
{
    FleetScheduler fleet(oneReplicaFleet(options_), cost_);
    return replicaView(fleet.run(trace));
}

} // namespace serving
} // namespace streamtensor
