/**
 * @file
 * Storage-tier performance profiles for weight streaming: the
 * storage→HBM leg the serving tier charges when a replica cold
 * starts, recovers from a crash, or hot-swaps its model artifact.
 *
 * A tier is four numbers — aggregate sustained bandwidth, a
 * per-stream bandwidth ceiling, an operation-rate (IOPS) cap, and
 * a first-byte latency floor — which together reproduce the shape
 * of real model-streamer measurements: a block device saturates
 * with few readers (per-stream ceiling near the aggregate), while
 * an object store has high per-request latency and a low
 * per-stream ceiling, so it only approaches its aggregate
 * bandwidth under heavy read concurrency.
 *
 * The presets are styled on published GP3 / IO2 / S3 loader
 * benchmarks (SNIPPETS.md): GP3 at 1,000 MiB/s and 16k IOPS, IO2
 * at 4,000 MiB/s and 100k IOPS, S3-class object storage with
 * ~tens-of-ms first-byte latency and per-stream throughput two
 * orders below its aggregate.
 *
 * Everything here is a deterministic pure function — the
 * WeightStreamer (weights.h) turns these profiles into simulated
 * chunk completion times on the discrete-event clock; no wall
 * clock is involved anywhere.
 */

#ifndef STREAMTENSOR_SERVING_STORAGE_TIER_H
#define STREAMTENSOR_SERVING_STORAGE_TIER_H

#include <cstdint>
#include <string>
#include <vector>

namespace streamtensor {
namespace serving {

/** Performance envelope of one storage tier. All rates must be
 *  positive; latency must be non-negative
 *  (validateStorageTier). */
struct StorageTierProfile
{
    std::string name;

    /** Sustained throughput across all concurrent readers. */
    double aggregate_mib_s = 1000.0;

    /** Single-stream throughput ceiling: one reader can never go
     *  faster than this, no matter how idle the tier is. */
    double per_reader_mib_s = 250.0;

    /** Read-operation rate cap across all readers (each chunk is
     *  one operation). */
    double iops = 16000.0;

    /** Latency from issuing a read to its first byte. */
    double first_byte_ms = 0.5;
};

/** Panic unless the profile's rates are positive and its latency
 *  non-negative. */
void validateStorageTier(const StorageTierProfile &tier);

/** gp3-class network SSD: 1,000 MiB/s, 16k IOPS. Saturates with a
 *  handful of readers. */
StorageTierProfile gp3Tier();

/** io2-class provisioned SSD: 4,000 MiB/s, 100k IOPS, the fastest
 *  preset. */
StorageTierProfile io2Tier();

/** S3-class object storage: high first-byte latency and a low
 *  per-stream ceiling — aggregate bandwidth is only reachable
 *  under heavy read concurrency. */
StorageTierProfile s3Tier();

/** The three presets in {gp3, io2, s3} order (bench/lab sweeps). */
std::vector<StorageTierProfile> allTiers();

/** Simulated service time of one chunked read of @p bytes when
 *  @p readers concurrent streams share the tier: the larger of the
 *  transfer time (first-byte latency plus bytes over the effective
 *  per-reader bandwidth, which is the per-stream ceiling or the
 *  reader's fair share of the aggregate, whichever is smaller) and
 *  the IOPS floor (with every reader issuing back-to-back
 *  operations, each sustains iops / readers op/s). Deterministic;
 *  strictly positive for a non-empty chunk. */
double chunkServiceMs(const StorageTierProfile &tier,
                      int64_t bytes, int64_t readers);

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_STORAGE_TIER_H
