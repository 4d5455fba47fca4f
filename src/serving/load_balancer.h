/**
 * @file
 * Pluggable request routing for the replicated serving tier. A
 * LoadBalancer sees only a per-replica status snapshot (up,
 * draining, queue depth, resident count, KV occupancy) and picks
 * the replica a request is dispatched to. Down and draining
 * replicas are never eligible.
 *
 * Three policies:
 *  - RoundRobin: rotate over eligible replicas — the baseline that
 *    ignores load entirely.
 *  - LeastKvLoad: the eligible replica holding the fewest KV
 *    tokens (ties: shallower queue, then lower id) — balances the
 *    resource that actually gates admission.
 *  - PrefixAffinity: requests naming a shared prefix hash to a
 *    stable eligible replica so its paged pool keeps one hot copy
 *    of the prefix pages (failover rehashes over the survivors);
 *    prefix-less requests fall back to LeastKvLoad.
 *
 * Policies are deterministic functions of (request, snapshot) plus
 * their own internal cursor state — no randomness, no wall clock —
 * so fleet runs replay bit-identically.
 */

#ifndef STREAMTENSOR_SERVING_LOAD_BALANCER_H
#define STREAMTENSOR_SERVING_LOAD_BALANCER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "serving/request.h"

namespace streamtensor {
namespace serving {

/** Point-in-time view of one replica, as much as a frontend
 *  router could observe. */
struct ReplicaStatus
{
    int id = 0;
    bool up = true;
    bool draining = false;
    int64_t queue_depth = 0;
    int64_t active_seqs = 0;

    /** KV tokens currently held (active pages × page_tokens) plus
     *  the queued requests' prefill demand — commitment and
     *  backlog in one signal. */
    int64_t kv_load_tokens = 0;

    bool eligible() const { return up && !draining; }
};

/** Routing policy selector (FleetOptions knob). */
enum class LbPolicy
{
    RoundRobin,
    LeastKvLoad,
    PrefixAffinity,
};

/** Stable lower-case name (bench labels, logs). */
const char *lbPolicyName(LbPolicy policy);

class LoadBalancer
{
  public:
    virtual ~LoadBalancer() = default;

    /** Replica id to dispatch @p r to, or -1 when no replica is
     *  eligible. Must be deterministic in (r, replicas) and the
     *  balancer's own state. */
    virtual int pick(const Request &r,
                     const std::vector<ReplicaStatus> &replicas)
        = 0;
};

std::unique_ptr<LoadBalancer> makeLoadBalancer(LbPolicy policy);

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_LOAD_BALANCER_H
