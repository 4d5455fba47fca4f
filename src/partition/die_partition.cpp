#include "partition/die_partition.h"

#include <algorithm>

#include "hls/resource.h"
#include "solver/ilp.h"
#include "support/error.h"
#include "support/flat_index.h"

namespace streamtensor {
namespace partition {

namespace {

/** Shared epilogue of every partitioner path: tally per-die LUTs,
 *  then stamp each group channel with the crossing flag and the
 *  platform's inter-die link cost (cleared when co-located, so
 *  re-partitioning never leaves stale link costs behind). */
void
finishPartition(dataflow::ComponentGraph &g, int64_t group,
                const hls::FpgaPlatform &platform,
                PartitionResult &result)
{
    result.crossings = 0;
    result.die_luts.assign(platform.num_dies > 0
                               ? platform.num_dies
                               : 1,
                           0.0);
    for (int64_t id : g.groupComponents(group)) {
        const dataflow::Component &c = g.component(id);
        ST_ASSERT(c.die >= 0 && c.die <
                      static_cast<int64_t>(result.die_luts.size()),
                  "partition: die out of range");
        result.die_luts[c.die] += hls::estimateComponent(c).luts;
    }
    for (int64_t ch_id : g.groupChannels(group)) {
        dataflow::Channel &ch = g.channel(ch_id);
        bool crosses =
            g.component(ch.src).die != g.component(ch.dst).die;
        ch.inter_die = crosses;
        ch.link_latency =
            crosses ? platform.inter_die_latency_cycles : 0.0;
        ch.link_ii_penalty =
            crosses ? platform.inter_die_ii_penalty : 0.0;
        if (crosses)
            ++result.crossings;
    }
}

/** Greedy fallback: walk the topological order, filling die 0,
 *  then die 1, ... whenever the running resource share exceeds an
 *  even split. Keeps chains contiguous, which minimises crossings
 *  for pipeline-shaped graphs. */
PartitionResult
greedyPartition(dataflow::ComponentGraph &g, int64_t group,
                const hls::FpgaPlatform &platform)
{
    PartitionResult result;
    result.used_ilp = false;
    result.die_of.assign(g.numComponents(), 0);

    auto order = g.groupTopoOrder(group);
    double total_luts = 0.0;
    for (int64_t id : order)
        total_luts += hls::estimateComponent(g.component(id)).luts;
    double per_die = total_luts /
                     static_cast<double>(platform.num_dies);

    double acc = 0.0;
    int64_t die = 0;
    for (int64_t id : order) {
        acc += hls::estimateComponent(g.component(id)).luts;
        g.component(id).die = die;
        result.die_of[id] = die;
        if (acc > per_die * (die + 1) &&
            die + 1 < platform.num_dies) {
            ++die;
        }
    }
    finishPartition(g, group, platform, result);
    return result;
}

} // namespace

PartitionResult
partitionGroup(dataflow::ComponentGraph &g, int64_t group,
               const hls::FpgaPlatform &platform,
               const PartitionOptions &options)
{
    auto members = g.groupComponents(group);
    int64_t n = static_cast<int64_t>(members.size());
    int64_t dies = platform.num_dies;
    if (n == 0) {
        PartitionResult empty;
        empty.crossings = 0;
        empty.used_ilp = false;
        empty.die_luts.assign(dies > 0 ? dies : 1, 0.0);
        return empty;
    }
    if (dies <= 1 ||
        options.strategy == PartitionStrategy::Greedy ||
        n > options.max_ilp_components)
        return greedyPartition(g, group, platform);

    // Prime with the greedy assignment: it is already applied to
    // the graph, its objective becomes the branch-and-bound
    // cutoff (subtrees that cannot beat it are pruned at the
    // root), and it is the answer whenever the ILP finds nothing
    // strictly better within its node budget.
    PartitionResult greedy = greedyPartition(g, group, platform);

    // Dense index of members (sorted-vector lookup) and the
    // group's internal channels.
    support::FlatIndex idx = support::FlatIndex::positionsOf(members);
    auto channels = g.groupChannels(group);
    int64_t m = static_cast<int64_t>(channels.size());

    // Variables: x[i][d] (n*dies binaries, task i on die d), then
    // y[e][d] (m*dies crossing indicators), then one imbalance
    // variable z.
    auto xvar = [&](int64_t i, int64_t d) { return i * dies + d; };
    auto yvar = [&](int64_t e, int64_t d) {
        return n * dies + e * dies + d;
    };
    int64_t zvar = n * dies + m * dies;
    solver::IlpProblem ilp(zvar + 1);

    for (int64_t i = 0; i < n; ++i)
        for (int64_t d = 0; d < dies; ++d)
            ilp.setBinary(xvar(i, d));

    // Exactly one die per task.
    for (int64_t i = 0; i < n; ++i) {
        std::vector<int64_t> vars;
        std::vector<double> ones(dies, 1.0);
        for (int64_t d = 0; d < dies; ++d)
            vars.push_back(xvar(i, d));
        ilp.lp().addSparseConstraint(vars, ones,
                                     solver::Relation::EQ, 1.0);
    }

    // Crossing linearisation: y[e][d] >= x[src][d] - x[dst][d]
    // and y[e][d] >= x[dst][d] - x[src][d]. The sum over d of
    // y[e][d] is 0 when co-located and 2 when split.
    for (int64_t e = 0; e < m; ++e) {
        const auto &ch = g.channel(channels[e]);
        int64_t si = idx.at(ch.src), di = idx.at(ch.dst);
        for (int64_t d = 0; d < dies; ++d) {
            ilp.lp().addSparseConstraint(
                {yvar(e, d), xvar(si, d), xvar(di, d)},
                {1.0, -1.0, 1.0}, solver::Relation::GE, 0.0);
            ilp.lp().addSparseConstraint(
                {yvar(e, d), xvar(di, d), xvar(si, d)},
                {1.0, -1.0, 1.0}, solver::Relation::GE, 0.0);
        }
    }

    // Imbalance: z >= luts(die d) - total/dies for every die.
    std::vector<double> luts(n, 0.0);
    double total_luts = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        luts[i] = hls::estimateComponent(
                      g.component(members[i]))
                      .luts;
        total_luts += luts[i];
    }
    for (int64_t d = 0; d < dies; ++d) {
        std::vector<int64_t> vars{zvar};
        std::vector<double> coeffs{1.0};
        for (int64_t i = 0; i < n; ++i) {
            vars.push_back(xvar(i, d));
            coeffs.push_back(-luts[i]);
        }
        ilp.lp().addSparseConstraint(vars, coeffs,
                                     solver::Relation::GE,
                                     -total_luts / dies);
    }

    // Objective: crossings + weighted imbalance (normalised).
    for (int64_t e = 0; e < m; ++e)
        for (int64_t d = 0; d < dies; ++d)
            ilp.lp().setObjective(yvar(e, d), 0.5);
    // Weight of the resource-imbalance term vs crossings.
    constexpr double kImbalanceWeight = 0.25;
    double z_scale =
        kImbalanceWeight / std::max(total_luts / dies, 1.0);
    ilp.lp().setObjective(zvar, z_scale);

    // The greedy assignment's objective value, in the ILP's own
    // terms (a split edge's crossing indicators sum to 2 x 0.5;
    // the optimal z is the max die load's excess over the even
    // share), primes the branch-and-bound as its cutoff.
    double max_die_luts = *std::max_element(
        greedy.die_luts.begin(), greedy.die_luts.end());
    constexpr int64_t kMaxIlpNodes = 20000; // branch-and-bound budget
    solver::IlpOptions ilp_options;
    ilp_options.max_nodes = kMaxIlpNodes;
    ilp_options.cutoff = static_cast<double>(greedy.crossings) +
                         z_scale * (max_die_luts - total_luts / dies);
    solver::IlpSolution sol = solveIlp(ilp, ilp_options);
    if (!sol.optimal())
        return greedy; // nothing strictly better found

    PartitionResult result;
    result.used_ilp = true;
    result.die_of.assign(g.numComponents(), 0);
    for (int64_t i = 0; i < n; ++i) {
        for (int64_t d = 0; d < dies; ++d) {
            if (sol.values[xvar(i, d)] > 0.5) {
                g.component(members[i]).die = d;
                result.die_of[members[i]] = d;
            }
        }
    }
    finishPartition(g, group, platform, result);
    return result;
}

} // namespace partition
} // namespace streamtensor
