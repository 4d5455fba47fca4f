/**
 * @file
 * Reference fleet: a plain serving loop that wakes at every step end,
 * every arrival, every fault, every reload window's end and every
 * retry-buffer instant, written from the rules documented in
 * serving/scheduler.h, replica.h, kv_pool.h and fleet.h. It is the
 * differential oracle of FleetScheduler, whose decode runs skip the
 * instants where only a repeated decode step completes.
 *
 * It shares no code with the serving loop it checks: no
 * ReplicaEngine, RequestQueue, KvPool, FaultInjector or
 * FleetScheduler. It reuses only the data types (Request, FaultPlan,
 * FleetOptions and the result structs, whose
 * ServingMetrics::recordCompletion / merge / countRejection build the
 * aggregates), the StepCostModel it is handed, the models bucketing
 * functions and WeightStreamPlan::gatedComputeEndMs. Its KV pool
 * follows vTensor's mapping model: a shared prefix page is one
 * physical page that many sequences map, counted once. Slow but
 * simple enough to trust; not used outside the tests.
 */

#ifndef STREAMTENSOR_SERVING_REFERENCE_FLEET_H
#define STREAMTENSOR_SERVING_REFERENCE_FLEET_H

#include <vector>

#include "serving/fleet.h"

namespace streamtensor {
namespace serving {

/** Serve @p trace under @p options (fault plan included) one step end
 *  at a time. @p degraded_cost, when non-null, costs steps on a
 *  replica under DegradeStart. FleetResult::rounds counts the instants
 *  the loop woke at. The trace must be valid (sortAndValidateTrace's
 *  rules); it is served in (arrival, id) order. */
FleetResult runReferenceFleet(const FleetOptions &options,
                              StepCostModel &cost,
                              StepCostModel *degraded_cost,
                              std::vector<Request> trace);

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_REFERENCE_FLEET_H
