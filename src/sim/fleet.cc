#include "sim/fleet.h"

#include <algorithm>
#include <cmath>

#include "runtime/eval.h"
#include "sim/timing.h"
#include "support/strings.h"
#include "support/trace.h"

namespace npp {

namespace {

int64_t
rootDomainSize(const KernelSpec &spec, const Bindings &args)
{
    EvalCtx ctx(*spec.prog);
    args.seed(ctx);
    const double v = evalExpr(spec.prog->root().size, ctx);
    return v < 0.0 ? 0 : static_cast<int64_t>(std::llround(v));
}

/** Bytes each device ships to the combining device: one scalar partial
 *  for a reduction root, otherwise the shard's proportional share of
 *  every bound output array. */
std::vector<double>
shardOutputBytes(const KernelSpec &spec, const Bindings &args,
                 const ShardPlan &plan, bool reduceRoot)
{
    std::vector<double> bytes(plan.shards.size(), 0.0);
    if (reduceRoot) {
        std::fill(bytes.begin(), bytes.end(), 8.0);
        return bytes;
    }
    double outBytes = 0.0;
    const Program &prog = *spec.prog;
    for (int v = 0; v < prog.numVars(); v++) {
        const VarInfo &var = prog.var(v);
        if (var.role != VarRole::ArrayParam || !var.isOutput)
            continue;
        const ArraySlot &slot = args.arraySlot(v);
        if (slot.data)
            outBytes += static_cast<double>(slot.size) * 8.0;
    }
    const double total = std::max<double>(
        static_cast<double>(plan.outerSize), 1.0);
    for (size_t d = 0; d < plan.shards.size(); d++) {
        bytes[d] = outBytes *
                   (static_cast<double>(plan.shards[d].size()) / total);
    }
    return bytes;
}

} // namespace

FleetReport
runOnFleet(const Gpu &gpu, const KernelSpec &spec, const Bindings &args,
           const FleetConfig &fleet, const ExecOptions &eopts,
           int64_t splitPoint, uint64_t specSeed,
           std::optional<uint64_t> bindingsHash)
{
    NPP_TRACE_SCOPE("fleet.run");
    FleetReport report;

    const Program &prog = *spec.prog;
    const int64_t outerSize = rootDomainSize(spec, args);
    report.plan = partitionOuter(prog, spec.mapping, outerSize,
                                 fleet.deviceCount, splitPoint);
    if (!report.plan.valid)
        return report;

    const bool reduceRoot = prog.root().kind == PatternKind::Reduce;
    const bool single = fleet.deviceCount == 1;
    // Cached replay is metrics-only territory: a shard entry captures
    // whole output arrays, which must not clobber other shards' ranges
    // on a functional fleet run.
    const bool useCache =
        specSeed != 0 && (eopts.metricsOnly || single);
    if (useCache && !bindingsHash && EvalCache::instance().enabled())
        bindingsHash = EvalCache::hashBindings(args);

    double combined = reduceRoot && !eopts.metricsOnly
                          ? combinerIdentity(prog.root().combiner)
                          : 0.0;
    double worst = -1.0;
    for (size_t d = 0; d < report.plan.shards.size(); d++) {
        const ShardRange &shard = report.plan.shards[d];
        ExecOptions shardOpts = eopts;
        if (!single) {
            // N=1 keeps the options byte-identical to the unsharded
            // path (same behavior, same EvalCache key).
            shardOpts.rootShardLo = shard.lo;
            shardOpts.rootShardHi = shard.hi;
        }
        SimReport r =
            useCache
                ? cachedRun(gpu, spec, args, shardOpts, specSeed,
                            bindingsHash.value_or(0),
                            /*wantOutputs=*/!eopts.metricsOnly)
                : gpu.run(spec, args, shardOpts);
        if (reduceRoot && !single && !eopts.metricsOnly) {
            // Each shard's launch left its partial in the root output
            // slot; fold it before the next shard overwrites it.
            const ArraySlot &out = args.arraySlot(prog.rootOutput());
            combined = applyOp(prog.root().combiner, combined,
                               out.data[0]);
        }
        if (r.totalMs > worst) {
            worst = r.totalMs;
            report.criticalDevice = static_cast<int>(d);
        }
        report.perDevice.push_back(std::move(r));
    }
    if (reduceRoot && !single && !eopts.metricsOnly)
        args.arraySlot(prog.rootOutput()).data[0] = combined;

    if (!single) {
        report.interMs = interDeviceMs(
            shardOutputBytes(spec, args, report.plan, reduceRoot), fleet,
            reduceRoot);
    }
    report.fleetMs = std::max(worst, 0.0) + report.interMs;
    return report;
}

FleetChoice
searchFleet(const Gpu &gpu, const KernelSpec &spec, const Bindings &args,
            const FleetConfig &maxFleet, const ExecOptions &eopts,
            uint64_t specSeed)
{
    NPP_TRACE_SCOPE("fleet.search");
    const int64_t outerSize = rootDomainSize(spec, args);
    const int64_t unit = outerShardUnit(spec.mapping);
    std::vector<SweepPoint> points;
    for (int n = 1; n <= std::max(maxFleet.deviceCount, 1); n++) {
        const std::vector<int64_t> splits =
            n == 1 ? std::vector<int64_t>{-1}
                   : splitPointCandidates(outerSize, n, unit);
        for (int64_t sp : splits) {
            const ShardPlan plan =
                partitionOuter(*spec.prog, spec.mapping, outerSize, n, sp);
            SweepPoint p;
            p.label = fmt("devices={}", n);
            p.spec = &spec;
            p.specSeed = specSeed;
            p.deviceCount = n;
            p.splitPoint = sp;
            p.isScoreChoice = n == 1;
            if (!plan.valid) {
                // One verdict per device count: the hard filters (domain
                // too small, cross-outer dependence) do not depend on
                // the split point.
                p.filtered = plan.verdict;
                points.push_back(std::move(p));
                break;
            }
            // The balanced request resolves to a concrete split with the
            // same shards, which an aligned candidate may repeat.
            const auto same = [&](const SweepPoint &q) {
                return q.deviceCount == n && q.simulated() &&
                       q.splitPoint == plan.splitPoint;
            };
            if (std::any_of(points.begin(), points.end(), same))
                continue;
            p.splitPoint = plan.splitPoint;
            if (n > 1)
                p.label += fmt(" split={}", p.splitPoint);
            points.push_back(std::move(p));
        }
    }

    FleetChoice choice;
    static_cast<Sweep &>(choice) =
        runSweep(gpu, *spec.prog, args, std::move(points), eopts, maxFleet);
    choice.kind = "fleet";
    choice.title = fmt("multi-device sweep (peer {} GB/s, {} us/transfer)",
                       maxFleet.peerBandwidthGBs, maxFleet.peerLatencyUs);
    if (const SweepPoint *one = choice.baseline(); one && one->simulated())
        choice.singleMs = one->exactMs;
    for (SweepPoint &p : choice.candidates) {
        if (p.simulated() && choice.singleMs > 0.0 && p.exactMs > 0.0)
            p.note = fixed(choice.singleMs / p.exactMs, 4) +
                     "x vs one device";
    }
    if (const SweepPoint *best = choice.winner()) {
        choice.deviceCount = best->deviceCount;
        choice.splitPoint = best->deviceCount > 1 ? best->splitPoint : -1;
        choice.fleetMs = best->exactMs;
    }
    if (choice.fleetMs > 0.0)
        choice.speedup = choice.singleMs / choice.fleetMs;
    choice.selected = fmt("devices={}", choice.deviceCount);
    if (choice.deviceCount > 1) {
        choice.selected += fmt(
            " split={} — {}x over one device ({} ms inter-device)",
            choice.splitPoint, fixed(choice.speedup, 4),
            fixed(choice.winner()->interMs, 4));
    } else {
        choice.selected += " (sharding does not pay off here)";
    }
    return choice;
}

} // namespace npp
