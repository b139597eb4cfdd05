/**
 * @file
 * Multi-device fleet simulation and search. One program's root domain
 * is split into contiguous per-device shards (analysis/partition.h);
 * every shard runs as its own launch on one simulated device via
 * ExecOptions::rootShard*, and the shard results meet over a peer link
 * whose cost the timing model charges (interDeviceMs). The fleet
 * search is a sweep (sim/sweep.h) over (deviceCount, splitPoint) —
 * scored by simulation, hard filters explained per point — so device
 * count joins block size and span type as just another mapping
 * parameter.
 *
 * Guarantees:
 *  - deviceCount == 1 is byte-for-byte today's single-device path: the
 *    ExecOptions are passed through untouched (no shard fields set),
 *    so simulated stats, timing, and EvalCache keys are bit-identical.
 *  - Functional multi-shard runs produce bit-identical outputs to the
 *    unsharded run: Map/ZipWith/Foreach shards write disjoint true
 *    indices; a Reduce root's per-shard partials are combined in shard
 *    order, which reassociates the same dyadic-rational sums the
 *    single-device block loop forms (pinned by tests/sim/multidev_test).
 */

#ifndef NPP_SIM_FLEET_H
#define NPP_SIM_FLEET_H

#include <optional>

#include "analysis/partition.h"
#include "sim/sweep.h"

namespace npp {

/** Result of running one program across a fleet. */
struct FleetReport
{
    ShardPlan plan;

    /** One report per shard (empty when the plan is infeasible). */
    std::vector<SimReport> perDevice;

    /** Peer-link transfer + reduce-combine cost (0 for one device). */
    double interMs = 0.0;

    /** Devices run concurrently: max per-device time plus interMs. */
    double fleetMs = 0.0;

    /** Index of the slowest device (the critical path). */
    int criticalDevice = 0;
};

/**
 * Run `spec` across `fleet.deviceCount` devices. splitPoint -1 means
 * the balanced partition. With `specSeed` non-zero and a metrics-only
 * run, per-shard results go through the EvalCache (shard bounds join
 * the exec hash, so no cross-fleet entry can ever satisfy a lookup);
 * functional runs always simulate so caller arrays are written.
 * `bindingsHash` is EvalCache::hashBindings(args) when the caller has
 * it already. An infeasible partition returns plan.valid == false with
 * the verdict set and no per-device reports.
 */
FleetReport runOnFleet(const Gpu &gpu, const KernelSpec &spec,
                       const Bindings &args, const FleetConfig &fleet,
                       const ExecOptions &eopts = {},
                       int64_t splitPoint = -1, uint64_t specSeed = 0,
                       std::optional<uint64_t> bindingsHash = {});

/** Outcome of the (deviceCount, splitPoint) sweep. A point's splitPoint
 *  is its first shard's size (the whole domain on one device). */
struct FleetChoice : Sweep
{
    /** The winning configuration (deviceCount 1 when sharding never
     *  beats one device or is hard-filtered). */
    int deviceCount = 1;
    int64_t splitPoint = -1;
    double fleetMs = 0.0;

    /** The single-device baseline time (the N=1 candidate). */
    double singleMs = 0.0;

    /** singleMs / fleetMs of the winner (1.0 when N=1 wins). */
    double speedup = 1.0;
};

/**
 * Sweep deviceCount in [1, maxFleet.deviceCount] and, per count, the
 * partitioner's split candidates (balanced plus root-block-aligned),
 * scoring each by metrics-only fleet simulation. Partition verdicts
 * are resolved before evaluation: a device count whose plan is
 * infeasible shows one hard-filtered point, and a balanced split that
 * lands on an aligned candidate is listed once. `specSeed` (from the
 * compile fingerprint) enables per-shard eval caching.
 */
FleetChoice searchFleet(const Gpu &gpu, const KernelSpec &spec,
                        const Bindings &args, const FleetConfig &maxFleet,
                        const ExecOptions &eopts = {},
                        uint64_t specSeed = 0);

} // namespace npp

#endif // NPP_SIM_FLEET_H
