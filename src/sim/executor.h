/**
 * @file
 * Functional + statistical execution of a compiled kernel spec on the
 * simulated GPU. The executor walks every thread block of the launch,
 * runs the pattern tree with the mapping's loop structure (span types,
 * per-level lanes), produces bit-exact outputs in the bound arrays, and
 * collects warp-granular traffic statistics through the coalescing probe.
 */

#ifndef NPP_SIM_EXECUTOR_H
#define NPP_SIM_EXECUTOR_H

#include "codegen/plan.h"
#include "runtime/binding.h"
#include "sim/metrics.h"

namespace npp {

/** Execution options. */
struct ExecOptions
{
    /** Traffic is measured on at most this many blocks (evenly sampled)
     *  and extrapolated; outputs are always computed for every block. */
    int64_t maxSampledBlocks = 256;

    /** Report-only execution: output arrays are privatized (the caller's
     *  buffers are never written), which makes concurrent runs over
     *  shared Bindings race-free and enables block-equivalence classing.
     *  The returned stats and derived SimReport are bit-identical to a
     *  functional run. */
    bool metricsOnly = false;

    /** Merge thread blocks whose interpreted behavior is provably
     *  identical up to the block index's affine address contribution:
     *  simulate one representative per equivalence class and replicate
     *  its per-block metric deltas — including variable-size programs'
     *  compaction-cursor traffic and, under siteStats, the per-site
     *  buckets (see sim/classify.h for the legality analysis). Only
     *  active together with metricsOnly; set to false for exact
     *  (every-block) simulation. Bit-identical stats either way —
     *  enforced by tests/sim/determinism_test and the differential
     *  suite tests/sim/classed_vs_full_test. When classing does not
     *  engage, KernelStats::classReason says why. */
    bool blockClasses = true;

    /** Collect per-trace-site traffic (KernelStats::siteTraffic) for the
     *  --stats diagnostics. Compatible with block classing: per-site
     *  deltas are recorded on class representatives and replicated like
     *  the aggregate counters. Changes the report payload, so it is part
     *  of the EvalCache key (a site-less cached report must not satisfy
     *  a siteStats request). */
    bool siteStats = false;

    /** Root-domain shard [rootShardLo, rootShardHi): simulate only this
     *  sub-range of the root pattern's index domain, as one device of a
     *  multi-device fleet would (see sim/fleet.h). The launch geometry
     *  is built from the shard's size, but every index the kernel sees
     *  — the root index variable, stores into the root output — is the
     *  true (unsharded) index, so functional outputs land where the
     *  full program would put them and the shift-invariant coalescing
     *  model (relative-base-v2) charges the same traffic a real
     *  per-device launch would. rootShardHi < 0 means "full domain"
     *  (the default; keeps EvalCache keys for unsharded runs
     *  unchanged). Requires a launch-known root size. */
    int64_t rootShardLo = 0;
    int64_t rootShardHi = -1;

    /** True when a proper shard is requested. */
    bool
    sharded() const
    {
        return rootShardLo > 0 || rootShardHi >= 0;
    }
};

/** The launch-independent block-parallel rules (R1-R3 of
 *  runtime/parallel_launch.h; R2 refuses Split levels and consolidated
 *  specs): empty when the spec's exact block loop may run on several
 *  workers. compileProgram caches it as KernelSpec::parallelRefusal. */
std::string blockParallelRefusal(const KernelSpec &spec);

/** Execute the spec with the given bindings; returns the stats needed by
 *  the timing model. Outputs land in the bound arrays. An exact
 *  (every-block) launch that passes R1-R5 simulates its blocks on the
 *  task pool's workers, with the serial loop's outputs and stats bit for
 *  bit. */
KernelStats executeOnDevice(const KernelSpec &spec, const Bindings &args,
                            const DeviceConfig &device,
                            const ExecOptions &options = {});

} // namespace npp

#endif // NPP_SIM_EXECUTOR_H
