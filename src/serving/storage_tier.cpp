#include "serving/storage_tier.h"

#include <algorithm>

#include "support/error.h"

namespace streamtensor {
namespace serving {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

} // namespace

void
validateStorageTier(const StorageTierProfile &tier)
{
    ST_CHECK(tier.aggregate_mib_s > 0.0 &&
                 tier.per_reader_mib_s > 0.0 && tier.iops > 0.0,
             "storage tier rates must be positive");
    ST_CHECK(tier.first_byte_ms >= 0.0,
             "storage tier latency must be non-negative");
}

StorageTierProfile
gp3Tier()
{
    StorageTierProfile t;
    t.name = "gp3";
    t.aggregate_mib_s = 1000.0;
    t.per_reader_mib_s = 250.0;
    t.iops = 16000.0;
    t.first_byte_ms = 0.5;
    return t;
}

StorageTierProfile
io2Tier()
{
    StorageTierProfile t;
    t.name = "io2";
    t.aggregate_mib_s = 4000.0;
    t.per_reader_mib_s = 1000.0;
    t.iops = 100000.0;
    t.first_byte_ms = 0.2;
    return t;
}

StorageTierProfile
s3Tier()
{
    StorageTierProfile t;
    t.name = "s3";
    t.aggregate_mib_s = 6000.0;
    t.per_reader_mib_s = 85.0;
    t.iops = 5500.0;
    t.first_byte_ms = 30.0;
    return t;
}

std::vector<StorageTierProfile>
allTiers()
{
    return {gp3Tier(), io2Tier(), s3Tier()};
}

double
chunkServiceMs(const StorageTierProfile &tier, int64_t bytes,
               int64_t readers)
{
    validateStorageTier(tier);
    ST_CHECK(bytes >= 1, "chunk bytes domain");
    ST_CHECK(readers >= 1, "reader count domain");

    double fair_share =
        tier.aggregate_mib_s / static_cast<double>(readers);
    double bytes_per_ms =
        std::min(tier.per_reader_mib_s, fair_share) * kMiB / 1e3;
    double transfer_ms =
        tier.first_byte_ms +
        static_cast<double>(bytes) / bytes_per_ms;
    double iops_floor_ms =
        static_cast<double>(readers) * 1e3 / tier.iops;
    return std::max(transfer_ms, iops_floor_ms);
}

} // namespace serving
} // namespace streamtensor
