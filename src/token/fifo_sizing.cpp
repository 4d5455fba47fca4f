#include "token/fifo_sizing.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "solver/lp.h"
#include "support/error.h"
#include "support/logging.h"

namespace streamtensor {
namespace token {

namespace {

/** Topological order of the edge list; fatal on cycles. */
std::vector<int64_t>
topoSort(int64_t n, const std::vector<FifoSizingProblem::Edge> &edges)
{
    std::vector<int64_t> indeg(n, 0);
    std::vector<std::vector<int64_t>> succ(n);
    for (const auto &e : edges) {
        succ[e.src].push_back(e.dst);
        ++indeg[e.dst];
    }
    std::vector<int64_t> order;
    std::vector<int64_t> ready;
    for (int64_t i = 0; i < n; ++i)
        if (indeg[i] == 0)
            ready.push_back(i);
    while (!ready.empty()) {
        int64_t u = ready.back();
        ready.pop_back();
        order.push_back(u);
        for (int64_t v : succ[u])
            if (--indeg[v] == 0)
                ready.push_back(v);
    }
    ST_CHECK(static_cast<int64_t>(order.size()) == n,
             "FIFO sizing graph must be a DAG");
    return order;
}

/**
 * Enumerate all paths (as edge-id lists) in the DAG, up to
 * @p max_paths; returns false when the cap is hit.
 */
bool
enumeratePaths(int64_t n,
               const std::vector<FifoSizingProblem::Edge> &edges,
               int64_t max_paths,
               std::vector<std::vector<int64_t>> &paths)
{
    std::vector<std::vector<int64_t>> out_edges(n);
    for (int64_t e = 0; e < static_cast<int64_t>(edges.size()); ++e)
        out_edges[edges[e].src].push_back(e);

    std::vector<int64_t> stack;
    struct Frame
    {
        int64_t node;
        size_t next;
    };
    for (int64_t start = 0; start < n; ++start) {
        std::vector<Frame> dfs{{start, 0}};
        stack.clear();
        while (!dfs.empty()) {
            Frame &f = dfs.back();
            if (f.next < out_edges[f.node].size()) {
                int64_t e = out_edges[f.node][f.next++];
                stack.push_back(e);
                paths.push_back(stack);
                if (static_cast<int64_t>(paths.size()) > max_paths)
                    return false;
                dfs.push_back({edges[e].dst, 0});
            } else {
                dfs.pop_back();
                if (!stack.empty())
                    stack.pop_back();
            }
        }
    }
    return true;
}

} // namespace

int64_t
FifoSizingProblem::addNode(const NodeTiming &timing)
{
    ST_CHECK(timing.total_cycles > 0,
             "node total cycles must be positive");
    ST_CHECK(timing.initial_delay >= 0,
             "node initial delay must be >= 0");
    ST_CHECK(timing.ii_penalty >= 0,
             "node II penalty must be >= 0");
    nodes_.push_back(timing);
    return numNodes() - 1;
}

int64_t
FifoSizingProblem::addEdge(int64_t src, int64_t dst, int64_t tokens,
                           double link_latency)
{
    ST_CHECK(src >= 0 && src < numNodes(), "edge src out of range");
    ST_CHECK(dst >= 0 && dst < numNodes(), "edge dst out of range");
    ST_CHECK(src != dst, "self edges are not allowed");
    ST_CHECK(tokens >= 1, "edges must carry >= 1 tokens");
    ST_CHECK(link_latency >= 0.0, "link latency must be >= 0");
    edges_.push_back({src, dst, tokens, link_latency});
    return numEdges() - 1;
}

const NodeTiming &
FifoSizingProblem::node(int64_t i) const
{
    ST_ASSERT(i >= 0 && i < numNodes(), "node id out of range");
    return nodes_[i];
}

const FifoSizingProblem::Edge &
FifoSizingProblem::edge(int64_t i) const
{
    ST_ASSERT(i >= 0 && i < numEdges(), "edge id out of range");
    return edges_[i];
}

int64_t
FifoSizingResult::totalDepth() const
{
    int64_t total = 0;
    for (int64_t d : depths)
        total += d;
    return total;
}

FifoSizingResult
sizeFifos(const FifoSizingProblem &problem,
          const FifoSizingOptions &options)
{
    int64_t n = problem.numNodes();
    int64_t m = problem.numEdges();
    FifoSizingResult result;
    result.start_times.assign(n, 0.0);
    if (m == 0)
        return result;

    // Equalised timings (paper §5.3.3): Conservative stretches
    // every kernel's execution to the slowest one's, matching all
    // throughputs and shrinking curve gaps.
    std::vector<NodeTiming> timing;
    timing.reserve(n);
    double max_cycles = 0.0;
    for (int64_t i = 0; i < n; ++i)
        max_cycles = std::max(max_cycles,
                              problem.node(i).total_cycles);
    for (int64_t i = 0; i < n; ++i) {
        NodeTiming t = problem.node(i);
        if (options.equalization == Equalization::Conservative) {
            double ratio = max_cycles / t.total_cycles;
            if (t.ingest_cycles > 0)
                t.ingest_cycles *= ratio;
            t.total_cycles = max_cycles;
        }
        timing.push_back(t);
    }

    std::vector<FifoSizingProblem::Edge> edges;
    edges.reserve(m);
    for (int64_t e = 0; e < m; ++e)
        edges.push_back(problem.edge(e));

    // Kernel start-time lower bounds: longest D-weighted path.
    // A crossing edge's first token lands link_latency cycles
    // after the producer emits it, so the link delay accumulates
    // along paths exactly like an initial delay.
    std::vector<int64_t> order = topoSort(n, edges);
    for (int64_t u : order) {
        for (const auto &e : edges) {
            if (e.src != u)
                continue;
            double cand = result.start_times[u] +
                          timing[u].initial_delay +
                          e.link_latency;
            result.start_times[e.dst] =
                std::max(result.start_times[e.dst], cand);
        }
    }

    // Pairwise thresholds (Eq. 5): threshold(u, v) is the maximum
    // accumulated D (plus inter-die link latency) over ALL u->v
    // paths; a consumer cannot start before its latest-arriving
    // operand (paper Fig. 8f: delay[0][2] >= D[0] + D[1]).
    std::vector<std::vector<double>> threshold(
        n, std::vector<double>(n, -1.0));
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        int64_t u = *it;
        for (const auto &e : edges) {
            if (e.src != u)
                continue;
            double d = timing[u].initial_delay + e.link_latency;
            threshold[u][e.dst] =
                std::max(threshold[u][e.dst], d);
            for (int64_t v = 0; v < n; ++v) {
                if (threshold[e.dst][v] >= 0.0) {
                    threshold[u][v] = std::max(
                        threshold[u][v],
                        d + threshold[e.dst][v]);
                }
            }
        }
    }

    // Enumerate path constraints (Eq. 4): every u->v path's delay
    // sum must reach the pairwise threshold.
    std::vector<std::vector<int64_t>> paths;
    bool enumerated =
        enumeratePaths(n, edges, options.max_paths, paths);

    result.delays.assign(m, 0.0);
    if (enumerated) {
        solver::LpProblem lp(m);
        for (int64_t e = 0; e < m; ++e)
            lp.setObjective(e, 1.0);
        // Path rows go straight into the solver's sparse storage;
        // nothing is densified even when m is large.
        std::vector<double> ones;
        for (const auto &path : paths) {
            int64_t u = edges[path.front()].src;
            int64_t v = edges[path.back()].dst;
            ones.assign(path.size(), 1.0);
            lp.addSparseConstraint(path, ones, solver::Relation::GE,
                                   threshold[u][v]);
        }
        solver::LpSolution sol = solveLp(lp);
        if (sol.optimal()) {
            result.delays = sol.values;
            result.objective = sol.objective;
            result.used_lp = true;
        } else {
            warn("FIFO sizing LP not optimal (" +
                 solver::lpStatusName(sol.status) +
                 "); falling back to potentials");
            enumerated = false;
        }
    }
    if (!enumerated) {
        // Potential fallback: delay(i,j) = start(j) - start(i),
        // which satisfies every path constraint by telescoping.
        result.used_lp = false;
        result.objective = 0.0;
        for (int64_t e = 0; e < m; ++e) {
            const auto &ed = edges[e];
            double d = result.start_times[ed.dst] -
                       result.start_times[ed.src];
            d = std::max(d, timing[ed.src].initial_delay +
                                ed.link_latency);
            result.delays[e] = d;
            result.objective += d;
        }
    }

    // Derive depths from delays via the token behavior model. The
    // per-edge IIs follow from each endpoint's total cycles and
    // the edge's token count (multi-rate kernels).
    result.depths.assign(m, 0);
    for (int64_t e = 0; e < m; ++e) {
        const auto &ed = edges[e];
        double delay = std::max(result.delays[e],
                                timing[ed.src].initial_delay +
                                    ed.link_latency);
        // Node-level II penalty: a crossing endpoint paces slower
        // on every edge it touches (the simulators fold the max
        // penalty into the component's II), co-located or not.
        KernelProfile src;
        src.initial_delay = timing[ed.src].initial_delay;
        src.ii = std::max(
            (timing[ed.src].total_cycles - src.initial_delay) /
                std::max<int64_t>(ed.tokens, 1),
            1e-6);
        src.ii += timing[ed.src].ii_penalty;
        KernelProfile dst;
        dst.initial_delay = timing[ed.dst].initial_delay;
        dst.ii = std::max(
            (timing[ed.dst].ingestCycles() - dst.initial_delay) /
                std::max<int64_t>(ed.tokens, 1),
            1e-6);
        dst.ii += timing[ed.dst].ii_penalty;
        // A crossing FIFO holds every token until the pop's
        // credit crosses back, so the pop curve the producer sees
        // is the consumer's shifted by another link_latency:
        // derive the no-stall depth at delay + link_latency.
        double occupancy_delay = delay + ed.link_latency;
        int64_t depth = maxTokensClosedForm(src, dst, occupancy_delay,
                                            ed.tokens);
        // Hardware FIFOs need at least depth 2 to decouple
        // producer and consumer handshakes.
        result.depths[e] = std::max<int64_t>(depth, 2);
    }
    return result;
}

} // namespace token
} // namespace streamtensor
