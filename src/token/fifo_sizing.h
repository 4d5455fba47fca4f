/**
 * @file
 * LP-based FIFO sizing (paper §5.3.4).
 *
 * Given the dataflow DAG of fused kernels with profiled initial
 * delays and total execution cycles, determine per-edge `delay`
 * values minimising Eq. 3 subject to the path constraints Eq. 4/5,
 * then derive each FIFO's depth from the token behavior model's
 * closed forms (Eq. 1 and Eq. 2, token/token_model.h).
 * Correct depths prevent both deadlock (undersized FIFOs on
 * reconvergent paths) and throughput loss from back-pressure
 * stalls.
 *
 * Kernels are multi-rate: the same kernel may exchange different
 * token counts on different edges, so its per-edge II is derived
 * as total_cycles / edge_tokens.
 */

#ifndef STREAMTENSOR_TOKEN_FIFO_SIZING_H
#define STREAMTENSOR_TOKEN_FIFO_SIZING_H

#include <cstdint>
#include <vector>

#include "token/token_model.h"

namespace streamtensor {
namespace token {

/** Profiled timing of one dataflow node. */
struct NodeTiming
{
    /** Cycles from execution start to the first output token. */
    double initial_delay = 0.0;

    /** Cycles for one full execution of the node. */
    double total_cycles = 1.0;

    /** Cycles over which the node ingests its inputs; <= 0 means
     *  "same as total_cycles". Layout converters ingest at stream
     *  rate into the ping bank while re-emitting multi-pass from
     *  the pong bank, so their ingestion span is much shorter than
     *  their emission span. */
    double ingest_cycles = -1.0;

    /** Extra cycles per token of an inter-die endpoint (the link
     *  handshake). Node-level, matching the simulators: a kernel
     *  with any crossing channel paces slower on ALL its edges,
     *  so pricing it per crossing edge only would undersize the
     *  kernel's co-located FIFOs. Callers set it to the max
     *  link_ii_penalty over the node's channels. */
    double ii_penalty = 0.0;

    double ingestCycles() const
    {
        return ingest_cycles > 0 ? ingest_cycles : total_cycles;
    }
};

/** A dataflow graph instance for FIFO sizing. */
class FifoSizingProblem
{
  public:
    /** One edge (FIFO) carrying @p tokens tokens per execution. */
    struct Edge
    {
        int64_t src;
        int64_t dst;
        int64_t tokens;

        /** Inter-die link latency of a crossing edge (0 when the
         *  endpoints are co-located): delays both the data
         *  (push -> consumer visibility) and the pop credit
         *  (pop -> producer visibility). Crossing edges are
         *  priced with it so the no-stall depths absorb the link
         *  delay. The II penalty of a crossing lives on the
         *  *nodes* (NodeTiming::ii_penalty), matching the
         *  simulators' component-level pace model. */
        double link_latency = 0.0;
    };

    /** Add a kernel node; returns its id. */
    int64_t addNode(const NodeTiming &timing);

    /** Add a FIFO edge; returns its id. Must form a DAG. */
    int64_t addEdge(int64_t src, int64_t dst, int64_t tokens,
                    double link_latency = 0.0);

    int64_t numNodes() const
    {
        return static_cast<int64_t>(nodes_.size());
    }
    int64_t numEdges() const
    {
        return static_cast<int64_t>(edges_.size());
    }
    const NodeTiming &node(int64_t i) const;
    const Edge &edge(int64_t i) const;

  private:
    std::vector<NodeTiming> nodes_;
    std::vector<Edge> edges_;
};

/** FIFO sizing output. */
struct FifoSizingResult
{
    /** Optimal delay per edge (cycles). */
    std::vector<double> delays;

    /** FIFO depth per edge (tokens). */
    std::vector<int64_t> depths;

    /** Implied kernel start times (longest D-path). */
    std::vector<double> start_times;

    /** LP objective: sum of delays. */
    double objective = 0.0;

    /** False when the path-enumeration LP was skipped (too many
     *  paths) and the potential-based closed form was used. */
    bool used_lp = true;

    /** Sum of all FIFO depths (tokens). */
    int64_t totalDepth() const;
};

/** Options controlling sizing. */
struct FifoSizingOptions
{
    Equalization equalization = Equalization::Normal;

    /** Cap on enumerated path constraints before falling back to
     *  the potential formulation (the dense simplex is quadratic
     *  in the constraint count; the potential solution satisfies
     *  the same constraints and matches the LP optimum on the
     *  paper's Fig. 8f example). */
    int64_t max_paths = 400;
};

/**
 * Solve the sizing problem. Throws FatalError when the graph is
 * not a DAG.
 */
FifoSizingResult sizeFifos(const FifoSizingProblem &problem,
                           const FifoSizingOptions &options = {});

} // namespace token
} // namespace streamtensor

#endif // STREAMTENSOR_TOKEN_FIFO_SIZING_H
