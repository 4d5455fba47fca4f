/**
 * @file
 * Cycle-level dataflow accelerator simulator — the on-board
 * measurement substitute.
 *
 * Executes one fused group's component graph at token granularity:
 * every component is a process that fires once per output token,
 * blocking on empty input FIFOs and full output FIFOs
 * (back-pressure), with its pace set by the profiled initial delay
 * and II. Reproduces the overlapped schedule of paper Fig. 1(c)
 * and the token dynamics of Fig. 8, detects deadlocks caused by
 * undersized FIFOs on reconvergent paths, and reports per-FIFO
 * peak occupancy so LP sizing can be validated against observed
 * behaviour. Channels crossing a die boundary (die partitioning's
 * Channel::inter_die) execute the platform's link model: pushes
 * become visible to the consumer link_latency cycles late, pop
 * credits return to the producer link_latency cycles late, and
 * crossing endpoints pace at II + link_ii_penalty — so placement
 * changes predicted cycles, not just crossing counts.
 *
 * The production simulator (this header) advances by *leap-ahead
 * batched firing*: whenever a component's input occupancies and
 * output headroom admit k consecutive firings at its own pace --
 * computable in closed form from cumulativeTokens inverses, channel
 * capacities, and the committed firing schedules of its channel
 * counterparts -- it commits all k in one heap event and reschedules
 * itself at t + k*II. Steady-state streaming (the paper's dominant
 * regime) therefore costs events proportional to the number of
 * *blocking episodes*, not the number of firings. The retired
 * per-firing implementation is kept verbatim as the test-only
 * oracle tests/oracles/sim/reference_simulator.h and pitted against
 * this one in a
 * randomized differential suite; both derive firing times from the
 * same window-anchored expression, so cycles, finish times, firings
 * and channel push/pop counts agree bit-for-bit.
 */

#ifndef STREAMTENSOR_SIM_SIMULATOR_H
#define STREAMTENSOR_SIM_SIMULATOR_H

#include <cstdint>
#include <vector>

#include "dataflow/graph.h"

namespace streamtensor {
namespace sim {

/** Per-component simulation stats. */
struct ComponentStats
{
    double finish_time = 0.0;
    int64_t firings = 0;
    double stall_cycles = 0.0;
};

/** Per-channel simulation stats. */
struct ChannelStats
{
    /** Peak occupancy. The leap-ahead simulator reports a tight
     *  upper bound (pops committed after a producer's batch can
     *  retroactively lower the true interleaved peak); the bound
     *  never exceeds the channel capacity. */
    int64_t max_occupancy = 0;
    int64_t pushes = 0;
    int64_t pops = 0;
};

/** Result of simulating one group. */
struct SimResult
{
    /** True deadlock: no component can ever make progress again
     *  (undersized FIFOs on reconvergent paths). */
    bool deadlock = false;

    /** The simulation was cut off at SimOptions::max_cycles while
     *  components could still make progress. Distinct from
     *  deadlock: a timed-out group is merely slow (or max_cycles is
     *  merely tight), not wedged. */
    bool timed_out = false;

    double cycles = 0.0;

    /** Cycle at which the group produced its first output token
     *  into a store DMA (time-to-first-token inside the group). */
    double first_output_cycle = 0.0;

    /** Heap events processed. The leap-ahead simulator completes an
     *  unblocked pipeline in O(components) events; the per-firing
     *  reference pays O(total firings). */
    int64_t events = 0;

    /** Channels of this group crossing a die boundary
     *  (Channel::inter_die, written by die partitioning). */
    int64_t crossing_channels = 0;

    /** Stall cycles of blocking episodes that involved at least
     *  one inter-die channel (attribution: an episode blocked on
     *  both a local and a crossing FIFO counts fully). The two
     *  engines account episodes at slightly different boundaries,
     *  so this is reporting, not part of the bit-exact
     *  differential contract. */
    double crossing_stall_cycles = 0.0;

    std::vector<ComponentStats> components;
    std::vector<ChannelStats> channels;

    /** Components still blocked when a deadlock was declared.
     *  Populated only for real deadlocks, never on timeout. */
    std::vector<int64_t> blocked_components;
};

/** Simulation controls. */
struct SimOptions
{
    /** Abort (as timed_out) beyond this many cycles. */
    double max_cycles = 4.0e12;

    /** Worker threads for simulateAll's per-group parallelism:
     *  0 = the process-wide pool shared with the runtime executor,
     *  1 = sequential, n > 1 = a dedicated pool of n threads.
     *  Groups are independent, so results are identical (bitwise)
     *  for every setting. */
    int64_t threads = 0;
};

/** Simulate one fused group of @p g. */
SimResult simulateGroup(const dataflow::ComponentGraph &g,
                        int64_t group, const SimOptions &options = {});

/** Simulate every group; returns per-group results. Independent
 *  groups run in parallel on the shared thread pool (see
 *  SimOptions::threads). */
std::vector<SimResult>
simulateAll(const dataflow::ComponentGraph &g,
            const SimOptions &options = {});

/** Steady-state rerun interval of a simulated group in cycles:
 *  the busy time (initial delay + firings at its II, i.e.
 *  finish_time - stall_cycles) of the bottleneck component.
 *  Back-to-back reruns of the group pipeline behind that
 *  component at exactly this pace; always in (0, cycles]. */
double steadyIntervalCycles(const SimResult &r);

/** Batch-cost query for the serving layer: cycles for @p batch
 *  back-to-back runs of the same group pipeline (weights stay
 *  resident, consecutive runs overlap in the pipeline). The first
 *  run pays the full fill latency, each further run one steady
 *  interval: cycles + (batch - 1) * steadyIntervalCycles. */
double batchedCycles(const SimResult &r, int64_t batch);

} // namespace sim
} // namespace streamtensor

#endif // STREAMTENSOR_SIM_SIMULATOR_H
