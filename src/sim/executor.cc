#include "sim/executor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "ir/traverse.h"
#include "runtime/parallel_launch.h"
#include "runtime/walk.h"
#include "sim/classify.h"
#include "sim/coalesce.h"
#include "support/logging.h"
#include "support/parallel.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/trace.h"

namespace npp {

namespace {

double
log2i(int64_t v)
{
    double steps = 0;
    while (v > 1) {
        v >>= 1;
        steps += 1;
    }
    return steps;
}

/**
 * The per-launch executor. One instance runs the whole grid.
 */
class DeviceExecutor
{
  public:
    DeviceExecutor(const KernelSpec &spec, const Bindings &args,
                   const DeviceConfig &device, const ExecOptions &options)
        : spec(spec),
          prog(*spec.prog),
          device(device),
          options(options),
          ctx(prog),
          probe(device, stats)
    {
        args.seed(ctx);
        for (const Expr *e : spec.prefetchedSites)
            prefetchSiteIds.insert(e->readSite);
        // Null when no site is prefetched so the access hot path skips
        // the per-access set lookup entirely.
        probe.prefetchedSites =
            prefetchSiteIds.empty() ? nullptr : &prefetchSiteIds;
        ctx.probe = &probe;
        ctx.accessOpCost = spec.rawPointers ? 1 : 2;

        // Metrics-only runs privatize the output buffers: stores still
        // execute (in-place programs read what they wrote), but the
        // caller's arrays are untouched, so concurrent trials over one
        // Bindings are race-free. traceAddr is unaffected, so metrics
        // are bit-identical to a functional run.
        if (options.metricsOnly) {
            for (const auto &v : prog.vars()) {
                if (v.role != VarRole::ArrayParam || !v.isOutput)
                    continue;
                ArraySlot &slot = ctx.arrays[v.id];
                if (!slot.data)
                    continue;
                PrivateCopy pc;
                pc.src = slot.data;
                pc.copy.assign(slot.data, slot.data + slot.physSize);
                privateCopies.push_back(std::move(pc));
                slot.data = privateCopies.back().copy.data();
            }
        }
    }

    /** Block worker `worker` (from 1) of `primary`'s launch: prepared
     *  the same way, over a copy of the primary's context (so it sees
     *  the same bound and privatized storage) with its own probe, stats
     *  and scratch, every store claimed through `owners`. */
    DeviceExecutor(const DeviceExecutor &primary, OwnerWords &owners,
                   uint32_t worker)
        : spec(primary.spec),
          prog(primary.prog),
          device(primary.device),
          options(primary.options),
          ctx(primary.ctx),
          probe(device, stats),
          prefetchSiteIds(primary.prefetchSiteIds)
    {
        probe.prefetchedSites =
            prefetchSiteIds.empty() ? nullptr : &prefetchSiteIds;
        ctx.probe = &probe;
        ctx.owners = &owners;
        ctx.worker = worker;
        prepareLaunch();
    }

    KernelStats
    run()
    {
        prepareLaunch();
        stats.totalBlocks = geom.totalBlocks;
        stats.threadsPerBlock = geom.threadsPerBlock;
        stats.sharedMemPerBlock = spec.sharedMemPerBlock;

        // GroupBy seeds its key domain with the combiner identity (the
        // generated code memsets / initializes the output first).
        if (prog.root().kind == PatternKind::GroupBy) {
            ctx.probe = nullptr;
            seedGroupBy(prog.root(), prog.rootOutput(), ctx);
            ctx.probe = &probe;
        }

        const int64_t sampleStride =
            std::max<int64_t>(1, ceilDiv(geom.totalBlocks,
                                         options.maxSampledBlocks));
        int64_t measured = 0;

        // Block-equivalence classing: only legal when outputs need not
        // be materialized (skipped blocks never run their stores), and
        // only profitable with blocks to merge. Site attribution rides
        // along: per-site deltas are recorded on the representatives and
        // replicated with the aggregates. Whenever classing does not
        // engage, record why (surfaced as KernelStats::classReason).
        bool classed = options.blockClasses && options.metricsOnly &&
                       geom.totalBlocks > 2;
        std::string classReason;
        if (!options.blockClasses)
            classReason = "block classing disabled (ExecOptions)";
        else if (!options.metricsOnly)
            classReason = "functional run materializes outputs in every "
                          "block";
        else if (geom.totalBlocks <= 2)
            classReason = "too few blocks to merge";
        if (spec.consolidation.enabled) {
            // Queue contents are a function of the bound extents, so no
            // two groups are provably equivalent without reading data.
            classed = false;
            classReason = "consolidated bins are data-dependent; every "
                          "group simulated exactly";
            prepareConsolidation();
        }
        if (classed) {
            const BlockClassPlan plan =
                analyzeBlockClasses(spec, geom, levelSizes, ctx, device);
            classed = plan.classable;
            if (!plan.classable)
                classReason = plan.reason;
        }

        if (classed) {
            const KernelStats preLoop = stats;
            if (!runBlocksClassed(sampleStride, measured)) {
                // Dynamic verification failed: the static analysis was
                // wrong somewhere. Rewind stats and array state, then
                // simulate every block.
                stats = preLoop;
                compactionElems = compactionKept = compactionChunks = 0;
                filterCursor = 0;
                if (options.siteStats)
                    siteTrafficDense.assign(numSites, SiteTraffic{});
                for (PrivateCopy &pc : privateCopies) {
                    std::copy(pc.src, pc.src + pc.copy.size(),
                              pc.copy.data());
                }
                measured = 0;
                classed = false;
                classReason =
                    fmt("block {} diverged from its equivalence class",
                        divergedBlock);
            }
        }
        if (!classed) {
            if (spec.consolidation.enabled) {
                traceLaunchOutcome("sim", LaunchOutcome::Serial, prog,
                                   "R2: consolidated spec");
                runBlocksConsolidated(sampleStride, measured);
            } else {
                runBlocksExact(sampleStride, measured);
            }
        }
        stats.classReason = classed ? std::string() : classReason;

        finishSplit();
        finishFilterCount();
        finishCompaction();
        finishConsolidation();

        if (options.siteStats) {
            // The dense vector is already site-ordered; untouched sites
            // stay all-zero and are dropped, matching the sparse export.
            for (const SiteTraffic &st : siteTrafficDense) {
                if (siteCounted(st))
                    stats.siteTraffic.push_back(st);
            }
        }

        // Generated (non-raw-pointer) kernels pay the array-wrapper tax.
        if (!spec.rawPointers) {
            stats.transactions *= device.wrapperTrafficFactor;
            for (SiteTraffic &st : stats.siteTraffic)
                st.transactions *= device.wrapperTrafficFactor;
        }

        // Extrapolate the Sampled fields to the whole grid. The aggregate
        // useful-byte tally is EveryBlock (the probe counts it before its
        // countTraffic gate), so scaling it would double-count and inflate
        // the reported coalescing efficiency; per-site useful bytes are
        // countTraffic-gated, so Sampled, and do need the extrapolation.
        if (measured < geom.totalBlocks && measured > 0) {
            stats.scaleSampled(static_cast<double>(geom.totalBlocks) /
                               measured);
            stats.sampledFraction =
                static_cast<double>(measured) / geom.totalBlocks;
        }
        return stats;
    }

  private:
    //
    // Block loops
    //

    /** Simulate one block (the body of the historical serial loop). */
    void
    simulateBlock(int64_t block, bool countTraffic)
    {
        decodeBlock(block);
        probe.countTraffic = countTraffic;
        lastOpCount = ctx.opCount;
        setSig(static_cast<uint64_t>(block) * 0x9e3779b97f4a7c15ULL);
        execPattern(prog.root(), 0, /*isRoot=*/true);
        flushOps(countTraffic);
        probe.finishBlock();
        settleDivergence();
    }

    /** Simulate blocks [lo, hi) in increasing order: the whole grid on
     *  a serial run, one claimed chunk on a block worker. */
    void
    runBlockRange(int64_t lo, int64_t hi, int64_t sampleStride,
                  int64_t &measured)
    {
        for (int64_t block = lo; block < hi; block++) {
            const bool measure = block % sampleStride == 0;
            if (measure)
                measured++;
            simulateBlock(block, measure);
        }
    }

    /** Exact block loop: every block simulated, on several block
     *  workers when the launch passes R1-R5 (runtime/parallel_launch.h)
     *  and serially otherwise, with the serial loop's results either
     *  way. */
    void
    runBlocksExact(int64_t sampleStride, int64_t &measured)
    {
        std::string why = launchParallelRefusal();
        const int workers =
            why.empty() ? launchWorkers(geom.totalBlocks, "blocks", why)
                        : 1;
        if (workers > 1) {
            why = runBlocksParallel(workers, sampleStride, measured);
            if (why.empty()) {
                traceLaunchOutcome("sim", LaunchOutcome::Parallel, prog,
                                   {});
                return;
            }
            traceLaunchOutcome("sim", LaunchOutcome::Rerun, prog, why);
        } else {
            traceLaunchOutcome("sim", LaunchOutcome::Serial, prog, why);
        }
        runBlockRange(0, geom.totalBlocks, sampleStride, measured);
    }

    /** R1-R3 (cached with the spec when it was compiled), R3's storage
     *  aliasing on this launch's bindings, and R4. */
    std::string
    launchParallelRefusal() const
    {
        std::string why = spec.parallelRefusal
                              ? *spec.parallelRefusal
                              : blockParallelRefusal(spec);
        if (why.empty())
            why = storageAliasRefusal(prog, ctx.arrays);
        for (size_t lv = 0; why.empty() && lv < geom.levels.size(); lv++) {
            const int64_t bs = geom.levels[lv].blockSize;
            if (!std::has_single_bit(static_cast<uint64_t>(bs)))
                why = fmt("R4: level {} block size is not a power of two",
                          lv);
        }
        return why;
    }

    /** Every increment R4 admits is a multiple of 2^-15, and a double
     *  sum of such terms is exact below 2^38, so sums folded in any
     *  order equal the serial loop's bit for bit. */
    static constexpr double kExactBound = 274877906944.0; // 2^38

    template <class S>
    static bool
    belowExactBound(const S &s)
    {
        bool below = true;
        visitFields<S>([&](auto row) {
            if constexpr (row.perBlock)
                below = below && std::abs(static_cast<double>(
                                     s.*row.member)) < kExactBound;
        });
        return below;
    }

    template <class S>
    static void
    addPerBlock(S &into, const S &from)
    {
        visitFields<S>([&](auto row) {
            if constexpr (row.perBlock)
                into.*row.member += from.*row.member;
        });
    }

    /**
     * Simulate the grid on `workers` block workers, each over the
     * contiguous chunks it claims, then fold their per-block sums (the
     * perBlock stats and site fields, the compaction accumulators and
     * the measured-block count) into this executor; the finish steps
     * then run once, as after the serial loop. Returns empty on
     * success, or why the launch must rerun serially: a store found its
     * element owned by another worker, or a folded sum reached the
     * exactness bound. Nothing is folded then, and since no written
     * array is read (R3), the rerun writes the same elements with the
     * same values whatever this pass left in them.
     */
    std::string
    runBlocksParallel(int workers, int64_t sampleStride, int64_t &measured)
    {
        OwnerWords owners(prog, ctx.arrays);
        std::vector<std::unique_ptr<DeviceExecutor>> crew(workers);
        std::vector<int64_t> crewMeasured(workers, 0);
        parallelChunks(geom.totalBlocks, workers,
                       [&](int w, int64_t lo, int64_t hi) {
                           std::unique_ptr<DeviceExecutor> &ex = crew[w];
                           if (!ex) {
                               ex = std::make_unique<DeviceExecutor>(
                                   *this, owners,
                                   static_cast<uint32_t>(w) + 1);
                           }
                           ex->runBlockRange(lo, hi, sampleStride,
                                             crewMeasured[w]);
                       });
        if (owners.conflicted())
            return "two blocks stored to one element";

        KernelStats sum;
        std::vector<SiteTraffic> sites(siteTrafficDense.size());
        int64_t elems = 0, kept = 0, chunks = 0, blocks = 0;
        bool exact = true;
        for (int w = 0; w < workers; w++) {
            if (!crew[w])
                continue;
            const DeviceExecutor &ex = *crew[w];
            exact = exact && belowExactBound(ex.stats);
            addPerBlock(sum, ex.stats);
            for (size_t i = 0; i < sites.size(); i++) {
                exact = exact && belowExactBound(ex.siteTrafficDense[i]);
                addPerBlock(sites[i], ex.siteTrafficDense[i]);
            }
            elems += ex.compactionElems;
            kept += ex.compactionKept;
            chunks += ex.compactionChunks;
            blocks += crewMeasured[w];
        }
        exact = exact && belowExactBound(sum);
        for (const SiteTraffic &st : sites)
            exact = exact && belowExactBound(st);
        if (!exact)
            return "a folded report sum reached 2^38";

        addPerBlock(stats, sum);
        for (size_t i = 0; i < sites.size(); i++) {
            addPerBlock(siteTrafficDense[i], sites[i]);
            siteTrafficDense[i].site = static_cast<int64_t>(i);
        }
        compactionElems += elems;
        compactionKept += kept;
        compactionChunks += chunks;
        measured += blocks;
        return {};
    }

    /** Consolidated block loop (Strategy::Consolidate): each block is
     *  one bin group of binLanes parents whose variable-length child
     *  domains drain through a shared work queue. */
    void
    runBlocksConsolidated(int64_t sampleStride, int64_t &measured)
    {
        for (int64_t block = 0; block < geom.totalBlocks; block++) {
            const bool measure = block % sampleStride == 0;
            if (measure)
                measured++;
            decodeBlock(block);
            probe.countTraffic = measure;
            lastOpCount = ctx.opCount;
            setSig(static_cast<uint64_t>(block) * 0x9e3779b97f4a7c15ULL);
            execConsolidatedRoot();
            flushOps(measure);
            probe.finishBlock();
            settleDivergence();
        }
    }

    /**
     * Execute one bin group of the consolidated mapping in three phases
     * (mirroring the generated two-kernel structure):
     *
     *  A. queue build — every lane evaluates its parent's prologue lets
     *     and the data-dependent inner extent at one shared signature,
     *     so the extent gather coalesces across the group; the lets and
     *     extents are snapshotted (the queue carries them).
     *  B. consumption — the concatenated child work drains in full
     *     waves of binLanes entries, parent-major, one signature per
     *     wave: lane t of wave w executes queue entry w*L + t. Reduce
     *     partials accumulate in queue order, which equals the
     *     reference interpreter's ascending per-parent child order, so
     *     outputs are bit-identical by construction.
     *  C. finalize — every lane re-takes its parent, binds the nested
     *     result, and runs the suffix statements plus the root yield.
     *
     * The queue round trip itself (entry writes + reads) is charged
     * analytically in finishConsolidation from the whole-grid
     * accumulators, like the compaction finalize kernel.
     */
    void
    execConsolidatedRoot()
    {
        const Pattern &root = prog.root();
        NPP_ASSERT(consNested && consNested->pattern,
                   "consolidated spec without a nested pattern");
        const Pattern &inner = *consNested->pattern;
        const auto &g0 = geom.levels[0];
        const bool rootShard = shardSize >= 0;
        const int64_t size =
            rootShard ? shardSize : asIndex(evalExpr(root.size, ctx));
        const int64_t rootOff = rootShard ? shardLo : 0;
        const int64_t L = std::max<int64_t>(g0.blockSize, 1);
        const int64_t lo = blockCoord[0] * g0.blockSize;
        const int64_t hi = std::min(size, lo + g0.blockSize);
        if (lo >= hi)
            return;
        const int64_t parents = hi - lo;
        const size_t numLets = consPrefixVars.size();
        const uint64_t sigSave = curSig;
        LaneHooks parentHooks{{}, *this, 0};
        LaneHooks childHooks{{}, *this, 1};

        // Phase A: prologue + extent gather.
        consParentExtent.assign(parents, 0);
        consParentLets.assign(parents * numLets, 0.0);
        setSig(sigSave * 1000003ull + 1);
        for (int64_t t = 0; t < parents; t++) {
            bindLane(g0.dim, t);
            const int64_t idx = lo + t + rootOff;
            ctx.scalars[root.indexVar] = static_cast<double>(idx);
            curLevelIndex[0] = idx;
            walkStmts(consPrefix, ctx, parentHooks);
            consParentExtent[t] = std::max<int64_t>(
                0, asIndex(evalExpr(inner.size, ctx)));
            for (size_t v = 0; v < numLets; v++)
                consParentLets[t * numLets + v] =
                    ctx.scalars[consPrefixVars[v]];
        }

        int64_t entries = 0;
        for (int64_t n : consParentExtent)
            entries += n;
        const int64_t waves = ceilDiv(entries, L);
        // Whole-grid exact (accrues on every block, like the compaction
        // accumulators): feeds the analytic queue-build stage.
        consGroups += 1;
        consParents += parents;
        consEntries += entries;
        consWaves += waves;

        // Phase B: wave consumption.
        const bool isReduce = inner.kind == PatternKind::Reduce;
        if (isReduce) {
            consAcc.assign(parents, combinerIdentity(inner.combiner));
        }
        int64_t p = 0;        // current parent lane
        int64_t consumed = 0; // children of parent p already drained
        int64_t q = 0;        // queue cursor
        for (int64_t w = 0; w < waves; w++) {
            setSig(sigSave * 1000003ull + static_cast<uint64_t>(w) + 2);
            for (int64_t t = 0; t < L && q < entries; t++, q++) {
                while (consumed >= consParentExtent[p]) {
                    p++;
                    consumed = 0;
                }
                const int64_t j = consumed++;
                bindLane(g0.dim, t);
                restoreConsolidatedParent(p, lo, rootOff);
                ctx.scalars[inner.indexVar] = static_cast<double>(j);
                curLevelIndex[1] = j;
                walkStmts(inner.body, ctx, childHooks);
                if (isReduce) {
                    consAcc[p] = applyOp(inner.combiner, consAcc[p],
                                         evalExpr(inner.yield, ctx));
                }
            }
            // Per-wave segmented combine across the group's lanes: a
            // log2 shuffle ladder per warp; block bins also cross warps
            // through shared memory (same shape as finishReduce).
            if (isReduce && probe.countTraffic) {
                const double warpsPerPass = std::max(
                    1.0, static_cast<double>(geom.threadsPerBlock) /
                             device.warpSize);
                stats.warpInstructions +=
                    log2i(std::min<int64_t>(L, device.warpSize)) *
                    warpsPerPass;
                if (L > device.warpSize) {
                    stats.smemAccesses += 2.0 * warpsPerPass;
                    stats.syncs += 1.0;
                }
            }
        }

        // Phase C: finalize.
        setSig(sigSave * 16777619ull + 1);
        for (int64_t t = 0; t < parents; t++) {
            bindLane(g0.dim, t);
            restoreConsolidatedParent(t, lo, rootOff);
            if (isReduce && consNested->var >= 0)
                ctx.scalars[consNested->var] = consAcc[t];
            walkStmts(consSuffix, ctx, parentHooks);
            if (root.kind == PatternKind::Map ||
                root.kind == PatternKind::ZipWith) {
                storeArray(root.site, prog.rootOutput(), lo + t + rootOff,
                           evalExpr(root.yield, ctx), ctx);
            }
        }
        unbindLane(g0.dim);
        setSig(sigSave);
    }

    /** Re-take parent `p` of the current group: root index plus the
     *  queue-carried prologue scalars (restored, not re-evaluated — the
     *  entry reads are charged analytically in finishConsolidation). */
    void
    restoreConsolidatedParent(int64_t p, int64_t lo, int64_t rootOff)
    {
        const int64_t idx = lo + p + rootOff;
        ctx.scalars[prog.root().indexVar] = static_cast<double>(idx);
        curLevelIndex[0] = idx;
        const size_t numLets = consPrefixVars.size();
        for (size_t v = 0; v < numLets; v++)
            ctx.scalars[consPrefixVars[v]] =
                consParentLets[static_cast<size_t>(p) * numLets + v];
    }

    /** Everything one block contributes that must replicate across its
     *  equivalence class: the accumulating stats fields, the compaction
     *  accumulators a nested filter drives through its cursor, and (under
     *  siteStats) the per-site traffic buckets. All FP members are sums
     *  of dyadic rationals with bounded precision (pow2 block sizes make
     *  every per-warp weight a power-of-two fraction), so FP accumulation
     *  is exact and per-block deltas replicate bit-identically. */
    struct BlockDelta
    {
        KernelStats stats;
        int64_t compactionElems = 0;
        int64_t compactionKept = 0;
        int64_t compactionChunks = 0;
        /** Per-site contributions, sorted by site id; zero-delta sites
         *  are dropped so the vector compares mode-independently. */
        std::vector<SiteTraffic> sites;
    };

    /** The block's change to every per-block (Sampled and EveryBlock)
     *  stats field; the rest stay at their defaults. */
    static KernelStats
    statsDelta(const KernelStats &after, const KernelStats &before)
    {
        KernelStats d;
        visitFields<KernelStats>([&](auto row) {
            if constexpr (row.perBlock)
                d.*row.member = after.*row.member - before.*row.member;
        });
        return d;
    }

    static bool
    sameDelta(const BlockDelta &a, const BlockDelta &b)
    {
        bool same = a.compactionElems == b.compactionElems &&
                    a.compactionKept == b.compactionKept &&
                    a.compactionChunks == b.compactionChunks &&
                    a.sites == b.sites;
        visitFields<KernelStats>([&](auto row) {
            if constexpr (row.perBlock)
                same = same && a.stats.*row.member == b.stats.*row.member;
        });
        return same;
    }

    /** Did any per-block counter of the site move? */
    static bool
    siteCounted(const SiteTraffic &s)
    {
        bool counted = false;
        visitFields<SiteTraffic>([&](auto row) {
            if constexpr (row.perBlock)
                counted = counted || s.*row.member != 0.0;
        });
        return counted;
    }

    /** The per-site traffic this block added over `before` (site-ordered,
     *  zero deltas dropped). */
    std::vector<SiteTraffic>
    siteDelta(const std::vector<SiteTraffic> &before) const
    {
        std::vector<SiteTraffic> d;
        for (int site = 0; site < numSites; site++) {
            SiteTraffic s = siteTrafficDense[site];
            visitFields<SiteTraffic>([&](auto row) {
                if constexpr (row.perBlock)
                    s.*row.member -= before[site].*row.member;
            });
            if (siteCounted(s)) {
                s.site = site;
                d.push_back(s);
            }
        }
        return d;
    }

    /** Add a block's stats delta the way serial execution counts it:
     *  EveryBlock fields on every block, Sampled fields only on measured
     *  ones. */
    void
    addBlockStats(const KernelStats &d, bool measure)
    {
        visitFields<KernelStats>([&](auto row) {
            if constexpr (row.trait == FieldTrait::EveryBlock) {
                stats.*row.member += d.*row.member;
            } else if constexpr (row.trait == FieldTrait::Sampled) {
                if (measure)
                    stats.*row.member += d.*row.member;
            }
        });
    }

    /** Replicate a representative's delta for one skipped block: stats
     *  per addBlockStats, the compaction accumulators on every block, and
     *  the per-site traffic (all Sampled) on measured blocks only. */
    void
    applyDelta(const BlockDelta &d, bool measure)
    {
        addBlockStats(d.stats, measure);
        compactionElems += d.compactionElems;
        compactionKept += d.compactionKept;
        compactionChunks += d.compactionChunks;
        if (!measure)
            return;
        for (const SiteTraffic &s : d.sites) {
            SiteTraffic &st = siteTrafficDense[s.site];
            addPerBlock(st, s);
            st.site = s.site;
        }
    }

    /** Per-level pattern sizes (launch-known in classed mode), cached for
     *  the class key. */
    void
    prepareClassSizes()
    {
        levelPatSizes.assign(geom.levels.size(), {});
        for (const auto &[pattern, level] : collectPatterns(prog.root())) {
            // Level 0 holds only the root; under a shard its extent is
            // the shard size (matching the launch geometry), so class
            // keys — and therefore replication — stay per-shard exact.
            const int64_t s = level == 0 && shardSize >= 0
                                  ? shardSize
                                  : asIndex(evalExpr(pattern->size, ctx));
            levelPatSizes[level].push_back(s);
        }
    }

    /** Equivalence-class key of a block: the per-pattern index extents it
     *  covers at every level. Two blocks with equal extents run the same
     *  lane structure; the classability analysis guarantees equal metrics
     *  too. Block 0 is salted out because root reduces store their result
     *  from it. */
    uint64_t
    classKey(int64_t block) const
    {
        uint64_t h = 0xcbf29ce484222325ull;
        const auto mix = [&h](uint64_t v) {
            h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        };
        if (block == 0)
            mix(0x5a17);
        int64_t rem = block;
        for (size_t lv = 0; lv < geom.levels.size(); lv++) {
            const auto &g = geom.levels[lv];
            const int64_t b = rem % g.blocks;
            rem /= g.blocks;
            for (int64_t size : levelPatSizes[lv]) {
                int64_t lo = 0;
                int64_t hi = size;
                switch (g.span.kind) {
                  case SpanKind::One:
                    lo = b * g.blockSize;
                    hi = std::min(size, lo + g.blockSize);
                    break;
                  case SpanKind::N:
                    lo = b * g.blockSize * g.span.factor;
                    hi = std::min(size,
                                  lo + g.blockSize * g.span.factor);
                    break;
                  case SpanKind::All:
                  case SpanKind::Split:
                    break; // single block / gated
                }
                mix(static_cast<uint64_t>(std::max<int64_t>(hi - lo, 0)));
            }
        }
        return h;
    }

    /** Is this class ordinal one of the four probe members: the first
     *  two (the second verifies the first bitwise) plus two spread
     *  across the class at the 1/3 and 2/3 member positions? The spread
     *  probes catch scattered per-block model artifacts the static
     *  analysis cannot see — before the coalescing model went
     *  shift-invariant, the differential bench found exactly such a case
     *  in sumWeightedRows at 512^2. */
    static bool
    isProbeMember(int64_t ordinal, int64_t members)
    {
        return ordinal < 2 || ordinal == members / 3 ||
               ordinal == 2 * members / 3;
    }

    /** Classed block loop, two phases. Phase 1 simulates only the probe
     *  members of each class, in block order, and verifies that their
     *  deltas (aggregate stats, compaction accumulators, and per-site
     *  traffic) agree — so a refused launch bails to exact simulation
     *  having paid for nothing but the probe runs, never for the
     *  replication bookkeeping of the skipped blocks. Phase 2 replicates
     *  the verified delta for every remaining block. Splitting the loop
     *  cannot change the result: a classed-legal launch has block-uniform
     *  control and addressing (simulated blocks see identical state
     *  either way, in the same relative order), and every accumulator is
     *  a sum of exactly-representable dyadic rationals, so the summation
     *  order the split changes cannot change the totals. Returns false
     *  when any probe's delta disagrees. */
    bool
    runBlocksClassed(int64_t sampleStride, int64_t &measured)
    {
        prepareClassSizes();
        struct ClassInfo
        {
            BlockDelta delta;
            int sims = 0;
            int64_t members = 0; //!< total size (pre-pass)
            int64_t seen = 0;    //!< members visited so far
        };
        std::unordered_map<uint64_t, ClassInfo> classes;
        std::vector<uint64_t> keyOf(geom.totalBlocks);
        for (int64_t block = 0; block < geom.totalBlocks; block++) {
            keyOf[block] = classKey(block);
            classes[keyOf[block]].members++;
        }

        for (int64_t block = 0; block < geom.totalBlocks; block++) {
            ClassInfo &cls = classes[keyOf[block]];
            const int64_t ordinal = cls.seen++;
            if (!isProbeMember(ordinal, cls.members))
                continue;
            const bool measure = block % sampleStride == 0;
            const KernelStats before = stats;
            const int64_t beforeElems = compactionElems;
            const int64_t beforeKept = compactionKept;
            const int64_t beforeChunks = compactionChunks;
            std::vector<SiteTraffic> beforeSites;
            if (options.siteStats)
                beforeSites = siteTrafficDense;
            simulateBlock(block, /*countTraffic=*/true);
            BlockDelta delta;
            delta.stats = statsDelta(stats, before);
            delta.compactionElems = compactionElems - beforeElems;
            delta.compactionKept = compactionKept - beforeKept;
            delta.compactionChunks = compactionChunks - beforeChunks;
            if (options.siteStats)
                delta.sites = siteDelta(beforeSites);
            if (cls.sims >= 1 && !sameDelta(cls.delta, delta)) {
                NPP_WARN("{}: block {} diverged from its equivalence "
                         "class; exact re-simulation",
                         prog.name(), block);
                divergedBlock = block;
                return false;
            }
            if (!measure) {
                // Serial would not have counted this block's Sampled
                // fields (aggregate or per-site); keep its EveryBlock
                // fields and compaction accumulators only.
                stats = before;
                addBlockStats(delta.stats, /*measure=*/false);
                if (options.siteStats)
                    siteTrafficDense = std::move(beforeSites);
            } else {
                measured++;
            }
            if (cls.sims == 0)
                cls.delta = std::move(delta);
            cls.sims++;
        }

        for (auto &[key, cls] : classes)
            cls.seen = 0;
        for (int64_t block = 0; block < geom.totalBlocks; block++) {
            ClassInfo &cls = classes[keyOf[block]];
            const int64_t ordinal = cls.seen++;
            if (isProbeMember(ordinal, cls.members))
                continue;
            const bool measure = block % sampleStride == 0;
            applyDelta(cls.delta, measure);
            stats.classedBlocks++;
            if (measure)
                measured++;
        }
        return true;
    }

    //
    // Launch-time resolution
    //

    /** Resolve the launch: level sizes, geometry, warp shape, local
     *  plans and the probe's per-launch tables. The primary executor
     *  and every block worker prepare the same way. */
    void
    prepareLaunch()
    {
        resolveLevels();
        geom = makeGeometry(spec.mapping, levelSizes);
        prepareWarpShape();
        prepareLocals();

        // Trace-site ids are dense pre-order integers, so the probe can
        // direct-index all per-(site, tile, lane) state for the launch.
        numSites = maxTraceSite(prog.root()) + 1;
        probe.configure(numSites, tilesPerBlock, prog.numVars());

        // Line-reuse is only effective while every resident thread can
        // keep one cache line live per access stream.
        const int64_t tpb = std::max<int64_t>(geom.threadsPerBlock, 1);
        const int64_t blocksPerSM = std::max<int64_t>(
            1, std::min<int64_t>(device.maxBlocksPerSM,
                                 device.maxThreadsPerSM / tpb));
        const int64_t activeSMs = std::max<int64_t>(
            1, std::min<int64_t>(device.numSMs, geom.totalBlocks));
        const int64_t residentPerSM =
            std::min(blocksPerSM, ceilDiv(geom.totalBlocks, activeSMs)) *
            tpb;
        probe.lineReuse =
            residentPerSM * device.transactionBytes <= device.l1CacheBytes;

        if (options.siteStats) {
            siteTrafficDense.assign(numSites, SiteTraffic{});
            probe.siteTraffic = &siteTrafficDense;
        }
    }

    /** Compute per-level static sizes (max over the level's patterns). */
    void
    resolveLevels()
    {
        const int levels = prog.numLevels();
        levelSizes.assign(levels, 1);
        levelDynamic.assign(levels, false);
        for (const auto &[pattern, level] : collectPatterns(prog.root())) {
            if (sizeKnownAtLaunchLocal(pattern->size)) {
                const int64_t s = asIndex(evalExpr(pattern->size, ctx));
                levelSizes[level] = std::max(levelSizes[level], s);
            } else {
                levelDynamic[level] = true;
            }
        }
        for (int lv = 0; lv < levels; lv++) {
            if (levelDynamic[lv]) {
                NPP_ASSERT(spec.mapping.levels[lv].span.kind ==
                               SpanKind::All,
                           "dynamic level {} must be span(all)", lv);
                // Keep the block's lanes: geometry must not trim the
                // block size to the placeholder static size.
                levelSizes[lv] = std::max<int64_t>(
                    levelSizes[lv], spec.mapping.levels[lv].blockSize);
            }
        }
        if (options.sharded()) {
            NPP_ASSERT(!levelDynamic[0],
                       "cannot shard a dynamic root domain");
            const int64_t full = levelSizes[0];
            const int64_t hi = options.rootShardHi < 0
                                   ? full
                                   : std::min(options.rootShardHi, full);
            shardLo = std::min(std::max<int64_t>(options.rootShardLo, 0),
                               hi);
            NPP_ASSERT(hi > shardLo,
                       "empty root shard [{}, {}) of domain {}",
                       options.rootShardLo, options.rootShardHi, full);
            shardSize = hi - shardLo;
            // Geometry, classing, and local layouts all see the shard
            // as this device's whole root domain.
            levelSizes[0] = shardSize;
        }
    }

    bool
    sizeKnownAtLaunchLocal(const ExprRef &size) const
    {
        bool known = true;
        walkExpr(size, [&](const Expr &e) {
            if (e.kind == ExprKind::Read)
                known = false;
            if (e.kind == ExprKind::Var &&
                prog.var(e.varId).role != VarRole::ScalarParam) {
                known = false;
            }
        });
        return known;
    }

    /** Warp tiling of the block (x varies fastest within a warp). */
    void
    prepareWarpShape()
    {
        for (int d = 0; d < 4; d++)
            dimBlock[d] = 1;
        for (const auto &g : geom.levels)
            dimBlock[g.dim] = g.blockSize;

        int64_t remaining = device.warpSize;
        for (int d = 0; d < 4; d++) {
            warpShape[d] = std::max<int64_t>(
                1, std::min(dimBlock[d], remaining));
            remaining = std::max<int64_t>(1, remaining / warpShape[d]);
            tilesPerDim[d] = ceilDiv(dimBlock[d], warpShape[d]);
        }
        tilesPerBlock = 1;
        for (int d = 0; d < 4; d++)
            tilesPerBlock *= tilesPerDim[d];

        for (int d = 0; d < 4; d++) {
            laneCoord[d] = -1; // unbound
        }
        // Per-dim strides of the linear warp-tile / lane-in-warp ids,
        // fixed per launch, for bindLane's incremental rebind path.
        int64_t tStride = 1, lStride = 1;
        for (int d = 0; d < 4; d++) {
            tileStrideOfDim[d] = tStride;
            tStride *= tilesPerDim[d];
            laneStrideOfDim[d] = lStride;
            lStride *= warpShape[d];
        }
        recomputeFactors();
    }

    /** Prealloc plans: storage and outer-domain shape. */
    void
    prepareLocals()
    {
        for (const auto &plan : spec.locals) {
            LocalState state;
            state.plan = &plan;
            // Outer domain: product of static level sizes above the
            // defining level (the "entire outer pattern" of Section V-A).
            state.outerTotal = 1;
            for (int lv = 0; lv < plan.definingLevel; lv++)
                state.outerTotal *= std::max<int64_t>(levelSizes[lv], 1);
            locals[plan.varId] = std::move(state);
        }
    }

    //
    // Warp bookkeeping
    //

    void
    recomputeFactors()
    {
        double unboundLanes = 1.0;
        double warpsIssuing = 1.0;
        for (int d = 0; d < 4; d++) {
            if (laneCoord[d] < 0 && dimBlock[d] > 1) {
                unboundLanes *= static_cast<double>(dimBlock[d]);
                warpsIssuing *= static_cast<double>(tilesPerDim[d]);
            }
        }
        curOpFactor = unboundLanes / device.warpSize;
        probe.warpMultiplier = warpsIssuing;
        // How many sequential lane visits make up one warp access: the
        // warp-shape extents of the bound dimensions.
        int visits = 1;
        for (int d = 0; d < 4; d++) {
            if (laneCoord[d] >= 0 && dimBlock[d] > 1)
                visits *= static_cast<int>(warpShape[d]);
        }
        probe.laneVisitsPerGroup = visits;
        // Linear warp-tile id over bound dims (unbound contribute 0),
        // plus the lane's position within the warp.
        int64_t tile = 0;
        int64_t stride = 1;
        int64_t lane = 0;
        int64_t laneStride = 1;
        for (int d = 0; d < 4; d++) {
            const int64_t coord = laneCoord[d] < 0 ? 0 : laneCoord[d];
            tile += (coord / warpShape[d]) * stride;
            stride *= tilesPerDim[d];
            lane += (coord % warpShape[d]) * laneStride;
            laneStride *= warpShape[d];
        }
        // Block-local: all grouping state is flushed at finishBlock, so
        // the block id would only widen the key.
        probe.warpTile = tile;
        probe.laneInWarp = static_cast<int>(lane);
    }

    /** Update the iteration signature (and the probe's grouping key). */
    void
    setSig(uint64_t value)
    {
        curSig = value;
        probe.sig = value;
    }

    void
    flushOps(bool measure = true)
    {
        const uint64_t delta = ctx.opCount - lastOpCount;
        lastOpCount = ctx.opCount;
        if (measure && probe.countTraffic)
            stats.warpInstructions += delta * std::max(curOpFactor, 0.03125);
    }

    void
    bindLane(int dim, int64_t lane)
    {
        flushOps();
        const int64_t old = laneCoord[dim];
        laneCoord[dim] = lane;
        if (old < 0) {
            recomputeFactors();
            return;
        }
        // Rebinding an already-bound dim (the lane loop's steady state):
        // the bound/unbound factors are unchanged, only this dim's
        // contribution to the warp-tile and lane-in-warp ids moves.
        const int64_t ws = warpShape[dim];
        probe.warpTile += (lane / ws - old / ws) * tileStrideOfDim[dim];
        probe.laneInWarp += static_cast<int>(
            (lane % ws - old % ws) * laneStrideOfDim[dim]);
    }

    void
    unbindLane(int dim)
    {
        flushOps();
        laneCoord[dim] = -1;
        recomputeFactors();
    }

    void
    decodeBlock(int64_t block)
    {
        blockLinear = block;
        for (size_t lv = 0; lv < geom.levels.size(); lv++) {
            blockCoord[lv] = block % geom.levels[lv].blocks;
            block /= geom.levels[lv].blocks;
        }
    }

    //
    // Pattern execution
    //

    struct YieldTarget
    {
        enum class Kind { RootOut, LocalArray, None } kind = Kind::None;
        int var = -1;
    };

    void
    execPattern(const Pattern &p, int lv, bool isRoot, int resultVar = -1,
                int countVar = -1)
    {
        const auto &g = geom.levels[lv];
        // The root shard's coverage is computed in shard-local
        // coordinates (geometry was built from the shard size) and its
        // indices are offset to true root-domain positions below.
        const bool rootShard = isRoot && shardSize >= 0;
        const int64_t size =
            rootShard ? shardSize : asIndex(evalExpr(p.size, ctx));
        const int64_t rootOff = rootShard ? shardLo : 0;
        const int64_t b = blockCoord[lv];

        // Coverage of this block at this level.
        int64_t lo = 0, hi = size;
        switch (g.span.kind) {
          case SpanKind::One:
            lo = b * g.blockSize;
            hi = std::min(size, lo + g.blockSize);
            break;
          case SpanKind::N:
            lo = b * g.blockSize * g.span.factor;
            hi = std::min(size, lo + g.blockSize * g.span.factor);
            break;
          case SpanKind::All:
            lo = 0;
            hi = size;
            break;
          case SpanKind::Split: {
            const int64_t seg = ceilDiv(size, g.blocks);
            lo = b * seg;
            hi = std::min(size, lo + seg);
            break;
          }
        }

        double acc = combinerIdentity(p.combiner);
        const int out = isRoot ? prog.rootOutput() : resultVar;

        // A nested groupBy's local is seeded with the combiner identity
        // before accumulation, like the root groupBy's output memset
        // (initialization traffic is not probed for either).
        if (!isRoot && p.kind == PatternKind::GroupBy) {
            MemProbe *save = ctx.probe;
            ctx.probe = nullptr;
            seedGroupBy(p, out, ctx);
            ctx.probe = save;
        }

        // A root filter appends at the launch-wide cursor; a nested one
        // compacts into its local's prefix.
        int64_t localCursor = 0;
        int64_t &cursor = isRoot ? filterCursor : localCursor;
        LaneHooks hooks{{}, *this, lv};

        const int64_t lanes = std::max<int64_t>(g.blockSize, 1);
        const uint64_t sigSave = curSig;
        // The dim is rebound per visit (cheap incremental path) and
        // unbound once after the sweep: between two visits of this loop
        // no ops accrue and no accesses are probed, so deferring the
        // unbind is observationally identical to unbinding every visit.
        bool laneBound = false;
        for (int64_t base = lo, k = 0; base < hi;
             base += lanes, k++) {
            setSig(sigSave * 1000003ull + static_cast<uint64_t>(k) + 1);
            for (int64_t t = 0; t < lanes && base + t < hi; t++) {
                const int64_t idx = base + t + rootOff;
                bindLane(g.dim, t % g.blockSize);
                laneBound = true;
                ctx.scalars[p.indexVar] = static_cast<double>(idx);
                curLevelIndex[lv] = idx;

                walkStmts(p.body, ctx, hooks);
                stepPattern(p, out, idx, acc, cursor, ctx);
            }
        }
        if (laneBound)
            unbindLane(g.dim);
        setSig(sigSave);

        if (p.kind == PatternKind::Reduce)
            finishReduce(p, lv, isRoot, resultVar, acc);

        if (!isRoot && p.kind == PatternKind::Filter) {
            NPP_ASSERT(countVar >= 0, "nested filter without count var");
            ctx.scalars[countVar] = static_cast<double>(localCursor);
            chargeCompaction(lv, size, localCursor);
        }
    }

    /**
     * Nested-filter compaction costs: the in-kernel count/scan machinery
     * (a block-wide exclusive scan of the keep flags, same shared-memory
     * tree shape as the reduce combine) plus the accumulators for the
     * analytic scatter finalize step. The finalize totals accrue on every
     * block — each outer iteration executes functionally exactly once —
     * so they are whole-grid exact and are never extrapolated.
     */
    void
    chargeCompaction(int lv, int64_t size, int64_t kept)
    {
        const auto &g = geom.levels[lv];
        if (g.blockSize > 1 && probe.countTraffic) {
            const double warpsPerPass =
                std::max(1.0, static_cast<double>(geom.threadsPerBlock) /
                                  device.warpSize);
            const double perVisit =
                1.0 / std::max(boundLaneProduct(), 1.0);
            stats.smemAccesses += 2.0 * warpsPerPass * perVisit;
            stats.syncs += (log2i(g.blockSize) + 1.0) * perVisit;
            stats.warpInstructions +=
                log2i(g.blockSize) * warpsPerPass * perVisit;
        }
        compactionElems += size;
        compactionKept += kept;
        compactionChunks +=
            ceilDiv(size, std::max<int64_t>(g.blockSize, 1));
    }

    void
    finishReduce(const Pattern &p, int lv, bool isRoot, int resultVar,
                 double acc)
    {
        const auto &g = geom.levels[lv];

        // Cost of the shared-memory tree combine across this level's
        // lanes (charged warp-granular, once per block-wide pass).
        if (g.blockSize > 1 && probe.countTraffic) {
            const double boundLanes = boundLaneProduct();
            const double warpsPerPass =
                std::max(1.0, static_cast<double>(geom.threadsPerBlock) /
                                  device.warpSize);
            const double perVisit = 1.0 / std::max(boundLanes, 1.0);
            stats.smemAccesses += 2.0 * warpsPerPass * perVisit;
            stats.syncs +=
                (log2i(g.blockSize) + 1.0) * perVisit;
            stats.warpInstructions +=
                log2i(g.blockSize) * warpsPerPass * perVisit;
        }

        if (g.span.kind == SpanKind::Split) {
            // Partial per (enclosing ids, segment); combined after the
            // block loop, matching the combiner kernel.
            const uint64_t key = outerKey(lv);
            auto &slot = splitPartials[&p][key];
            if (slot.count == 0)
                slot.value = combinerIdentity(p.combiner);
            slot.value = applyOp(p.combiner, slot.value, acc);
            slot.count++;
            if (isRoot) {
                deferredRootReduce = &p;
            } else {
                // Defer the enclosing yield to replayRootWithTotals().
                deferredNested = &p;
                ctx.scalars[resultVar] = slot.value; // partial (unused)
            }
            stats.hasCombiner = true;
            return;
        }

        if (isRoot) {
            if (blockLinear == 0)
                storeArray(p.site, prog.rootOutput(), 0, acc, ctx);
        } else {
            ctx.scalars[resultVar] = acc;
        }
    }

    double
    boundLaneProduct() const
    {
        double lanes = 1.0;
        for (int d = 0; d < 4; d++) {
            if (laneCoord[d] >= 0 && dimBlock[d] > 1)
                lanes *= static_cast<double>(dimBlock[d]);
        }
        return lanes;
    }

    /** Key identifying the current enclosing index tuple above lv. */
    uint64_t
    outerKey(int lv) const
    {
        uint64_t key = 0xcbf29ce484222325ull;
        for (int i = 0; i < lv; i++) {
            key ^= static_cast<uint64_t>(curLevelIndex[i]) + 1;
            key *= 0x100000001b3ull;
        }
        return key;
    }

    /** Linear index of the enclosing tuple (for local-array layout). */
    int64_t
    outerLinear(int defLevel) const
    {
        int64_t linear = 0;
        for (int lv = 0; lv < defLevel; lv++)
            linear = linear * std::max<int64_t>(levelSizes[lv], 1) +
                     curLevelIndex[lv];
        return linear;
    }

    //
    // Statements
    //

    /** Where a SeqLoop started: the signature and op count to restore
     *  and measure against. */
    struct LoopMark
    {
        uint64_t sig;
        uint64_t ops;
    };

    /** Mapped execution through the shared walker: nested patterns run
     *  across their level's lanes (execNested), and every SeqLoop
     *  iteration gets its own signature plus a divergence record. `lv`
     *  is the level of the pattern whose body is walked. */
    struct LaneHooks : WalkHooks
    {
        DeviceExecutor &ex;
        int lv;

        void nested(const Stmt &s) { ex.execNested(s, lv + 1); }

        LoopMark
        loopEnter(const Stmt &)
        {
            return {ex.curSig, ex.ctx.opCount};
        }

        void
        loopIteration(LoopMark m, int64_t k)
        {
            ex.setSig(m.sig * 16777619ull + static_cast<uint64_t>(k) + 1);
        }

        void
        loopExit(const Stmt &s, LoopMark m)
        {
            ex.setSig(m.sig);
            ex.recordDivergence(s.site, ex.ctx.opCount - m.ops);
        }
    };

    void
    execNested(const Stmt &s, int lv)
    {
        const Pattern &p = *s.pattern;
        if (s.var >= 0 && prog.var(s.var).role == VarRole::ArrayLocal)
            bindLocalArray(s, p);

        // A nested pattern that runs sequentially inside the thread is a
        // divergence site when its trip count is data dependent: the
        // warp's lanes wait for the longest one.
        const bool sequentialInThread = geom.levels[lv].blockSize == 1;
        const uint64_t ops0 = ctx.opCount;
        execPattern(p, lv, /*isRoot=*/false, s.var, s.countVar);
        if (sequentialInThread)
            recordDivergence(s.site, ctx.opCount - ops0);

        // Inner parallel map results are consumed block-wide; the
        // generated code synchronizes after producing them.
        if ((p.kind == PatternKind::Map ||
             p.kind == PatternKind::ZipWith) &&
            geom.levels[lv].blockSize > 1 && probe.countTraffic) {
            stats.syncs += 1.0 / std::max(boundLaneProduct(), 1.0);
        }
    }

    void
    bindLocalArray(const Stmt &s, const Pattern &p)
    {
        auto it = locals.find(s.var);
        NPP_ASSERT(it != locals.end(), "array local {} without plan",
                   prog.var(s.var).name);
        LocalState &state = it->second;
        const LocalArrayPlan &plan = *state.plan;

        // Allocation size: the static upper bound for a filter (only a
        // prefix is valid per outer iteration) and the key domain for a
        // groupBy; the index-domain size otherwise.
        const int64_t innerSize = asIndex(evalExpr(p.allocSize(), ctx));
        if (static_cast<int64_t>(state.storage.size()) < innerSize)
            state.storage.resize(innerSize);

        ArraySlot slot;
        slot.data = state.storage.data();
        slot.size = innerSize;
        slot.physSize = static_cast<int64_t>(state.storage.size());
        slot.offset = 0;
        slot.stride = 1;
        slot.elemBytes = scalarBytes(prog.var(s.var).kind);

        const int64_t base = static_cast<int64_t>(s.var) << 40;
        const int64_t outer = outerLinear(plan.definingLevel);
        if (plan.mode == LocalArrayPlan::Mode::ThreadMalloc) {
            // Device-heap blocks are scattered: pad each thread's block
            // so no two threads share a transaction segment.
            const int64_t padded =
                roundUp(innerSize + device.transactionBytes / 8, 16);
            slot.addrBase = base + outer * padded;
            slot.addrStride = 1;
            if (probe.countTraffic)
                stats.mallocs += 1;
        } else if (plan.layout == LocalArrayPlan::Layout::Contiguous) {
            slot.addrBase = base + outer * innerSize; // Fig 11(a)
            slot.addrStride = 1;
        } else {
            slot.addrBase = base + outer; // Fig 11(b)
            slot.addrStride = state.outerTotal;
        }
        ctx.arrays[s.var] = slot;
    }

    /** Record one lane's sequential-loop work for divergence accounting
     *  (keyed by site and warp; settled per block). */
    void
    recordDivergence(int64_t site, uint64_t ops)
    {
        if (!probe.countTraffic)
            return;
        // Group by iteration signature too: only lanes executing the
        // same iteration pad each other out; a thread's own sequential
        // iterations do not. The key is exact — (site, tile) and
        // signature compared verbatim — so distinct warps can never
        // alias into one accumulator the way a hashed key could.
        const DivKey key{static_cast<uint64_t>(site) * tilesPerBlock +
                             static_cast<uint64_t>(probe.warpTile),
                         probe.sig};
        DivAcc &acc = divergence[key];
        acc.sum += static_cast<double>(ops);
        acc.peak = std::max(acc.peak, static_cast<double>(ops));
        acc.count++;
    }

    /** SIMD semantics: the warp executes max-lane work, not mean-lane
     *  work; charge the difference. Accumulation runs in sorted key
     *  order so the double sum is identical across stdlib hash-table
     *  implementations. */
    void
    settleDivergence()
    {
        if (divergence.empty())
            return;
        std::vector<std::pair<DivKey, const DivAcc *>> entries;
        entries.reserve(divergence.size());
        for (const auto &[key, acc] : divergence)
            entries.emplace_back(key, &acc);
        std::sort(entries.begin(), entries.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first.siteTile != b.first.siteTile)
                          return a.first.siteTile < b.first.siteTile;
                      return a.first.sig < b.first.sig;
                  });
        for (const auto &[key, acc] : entries) {
            stats.warpInstructions +=
                (acc->peak * acc->count - acc->sum) / device.warpSize;
        }
        divergence.clear();
    }

    //
    // Split combining (the separate combiner kernel)
    //

    void
    finishSplit()
    {
        if (splitPartials.empty())
            return;

        // Root-map-with-split-inner-reduce: re-run the root level
        // sequentially, substituting combined totals for the reduce and
        // performing the deferred output stores (functionally the
        // combiner kernel; its traffic is charged analytically below).
        probe.countTraffic = false;
        if (deferredRootReduce) {
            const Pattern &p = *deferredRootReduce;
            const auto &parts = splitPartials[&p];
            double total = combinerIdentity(p.combiner);
            int64_t k = 0;
            for (const auto &[key, slot] : parts) {
                total = applyOp(p.combiner, total, slot.value);
                k = std::max<int64_t>(k, slot.count);
            }
            ctx.probe = nullptr;
            storeArray(p.site, prog.rootOutput(), 0, total, ctx);
            ctx.probe = &probe;
            stats.combinerTransactions += parts.size() + 1;
            stats.combinerOps += parts.size();
            stats.combinerThreads = 1;
        } else if (deferredNested) {
            replayRootWithTotals();
        }
        probe.countTraffic = true;
    }

    /** Re-run the root pattern sequentially using the combined reduce
     *  totals (deferred yield stores). */
    void
    replayRootWithTotals()
    {
        const Pattern &root = prog.root();
        NPP_ASSERT(root.kind == PatternKind::Map ||
                       root.kind == PatternKind::ZipWith,
                   "split of a nested reduce requires a map root");
        ctx.probe = nullptr;
        // Under a root shard the split partials exist only for this
        // shard's outer tuples; replay exactly those.
        const int64_t size = shardSize >= 0
                                 ? shardSize
                                 : asIndex(evalExpr(root.size, ctx));
        const int64_t off = shardSize >= 0 ? shardLo : 0;
        ReplayHooks hooks{{}, *this, 0};
        int64_t unused = 0;
        walkRange(root, prog.rootOutput(), off, off + size, unused, ctx,
                  hooks);
        ctx.probe = &probe;

        // Combiner kernel traffic: read outer*k partials, write outer.
        const Pattern &p = *deferredNested;
        const auto &parts = splitPartials[&p];
        double totalPartials = 0;
        for (const auto &[key, slot] : parts)
            totalPartials += slot.count;
        stats.combinerTransactions +=
            ceilDiv(static_cast<int64_t>(totalPartials) * 8, 128) +
            ceilDiv(size * 8, 128);
        stats.combinerOps += totalPartials;
        stats.combinerThreads = size;
    }

    /** The combiner pass through the shared walker: Stores already took
     *  effect in the main kernel, split-level reduces read their combined
     *  totals, and other nested work reruns sequentially with its locals
     *  bound through the prealloc plan. `lv` is the level of the pattern
     *  whose body is walked. */
    struct ReplayHooks : WalkHooks
    {
        static constexpr bool kRunStores = false;
        DeviceExecutor &ex;
        int lv;

        void element(int64_t i) { ex.curLevelIndex[lv] = i; }

        void
        bindLocal(const Stmt &s, int64_t)
        {
            ex.bindLocalArray(s, *s.pattern);
        }

        void
        nested(const Stmt &s)
        {
            if (ex.geom.levels[lv + 1].span.kind == SpanKind::Split &&
                s.pattern->kind == PatternKind::Reduce) {
                const auto &parts = ex.splitPartials.at(s.pattern.get());
                auto it = parts.find(ex.outerKey(lv + 1));
                NPP_ASSERT(it != parts.end(), "missing split partial");
                ex.ctx.scalars[s.var] = it->second.value;
                return;
            }
            ReplayHooks inner{{}, ex, lv + 1};
            walkNested(s, ex.ctx, inner);
        }
    };

    void
    finishFilterCount()
    {
        if (prog.root().kind == PatternKind::Filter) {
            ctx.probe = nullptr;
            storeArray(prog.root().site, prog.countOutput(), 0,
                       static_cast<double>(filterCursor), ctx);
            ctx.probe = &probe;
        }
    }

    /**
     * Analytic cost of the compaction finalize step for nested-filter
     * outputs (an extra kernel in the plan, mirroring the split-combiner
     * accounting): one thread per candidate element reads the per-chunk
     * counts, exclusive-scans them, and scatters each survivor from its
     * chunk-local slot to the compacted prefix.
     */
    void
    finishCompaction()
    {
        if (compactionElems == 0)
            return;
        stats.hasCompaction = true;
        stats.compactionTransactions +=
            ceilDiv(compactionChunks * 8, 128) +
            2 * ceilDiv(compactionKept * 8, 128);
        stats.compactionOps += static_cast<double>(compactionElems);
        stats.compactionThreads = compactionElems;
    }

    //
    // Consolidation (the bin-build prologue + queue finalize)
    //

    /** Slice the root body for the consolidated path: scalar prologue
     *  statements before the single nested pattern, the nested statement
     *  itself, and the suffix after it. Shapes that cannot be sliced
     *  this way are rejected by consolidationEligibility at compile
     *  time; these asserts are the executor's backstop. */
    void
    prepareConsolidation()
    {
        consNested = nullptr;
        consPrefix.clear();
        consSuffix.clear();
        consPrefixVars.clear();
        for (const auto &s : prog.root().body) {
            if (s->kind == StmtKind::Nested) {
                NPP_ASSERT(!consNested,
                           "consolidation requires a single nested "
                           "pattern in the root body");
                consNested = s.get();
                continue;
            }
            if (!consNested) {
                NPP_ASSERT(s->kind == StmtKind::Let ||
                               s->kind == StmtKind::Assign,
                           "consolidated parent prologue must be scalar "
                           "lets");
                consPrefix.push_back(s.get());
                if (std::find(consPrefixVars.begin(), consPrefixVars.end(),
                              s->var) == consPrefixVars.end())
                    consPrefixVars.push_back(s->var);
            } else {
                consSuffix.push_back(s.get());
            }
        }
        NPP_ASSERT(consNested,
                   "consolidated spec without a nested pattern");
    }

    /**
     * Analytic cost of the queue round trip (an extra bin-build kernel
     * in the plan, mirroring the compaction finalize accounting): one
     * thread per parent gathers the extent and scan-offsets it, then
     * writes one 8-byte entry per child; consumption reads every entry
     * back. The accumulators accrue on every block, so the totals are
     * whole-grid exact and are never extrapolated.
     */
    void
    finishConsolidation()
    {
        if (!spec.consolidation.enabled)
            return;
        stats.hasConsolidation = true;
        stats.consolidationGroups = consGroups;
        stats.consolidationParents = consParents;
        stats.consolidationEntries = consEntries;
        stats.consolidationWaves = consWaves;
        const int64_t L =
            std::max<int64_t>(geom.levels[0].blockSize, 1);
        stats.binFill =
            consWaves > 0 ? static_cast<double>(consEntries) /
                                static_cast<double>(consWaves * L)
                          : 1.0;
        stats.queueBuildTransactions +=
            2.0 * ceilDiv(consEntries * 8, 128) +
            ceilDiv(consParents * 8, 128);
        stats.queueBuildOps +=
            static_cast<double>(consEntries + consParents);
        stats.queueBuildThreads = std::max<int64_t>(consParents, 1);
    }

    //
    // State
    //

    struct LocalState
    {
        const LocalArrayPlan *plan = nullptr;
        std::vector<double> storage;
        int64_t outerTotal = 1;
    };

    struct Partial
    {
        double value = 0.0;
        int64_t count = 0;
    };

    /** One privatized output buffer (metricsOnly mode). */
    struct PrivateCopy
    {
        const double *src = nullptr;
        std::vector<double> copy;
    };

    const KernelSpec &spec;
    const Program &prog;
    const DeviceConfig &device;
    const ExecOptions &options;

    EvalCtx ctx;
    KernelStats stats;
    CoalesceProbe probe;
    /** Per-site traffic while running (siteStats mode), direct-indexed
     *  by trace-site id; nonzero slots are exported site-ordered into
     *  stats.siteTraffic at the end of run(). */
    std::vector<SiteTraffic> siteTrafficDense;
    /** Dense trace-site id bound: maxTraceSite(root) + 1. */
    int numSites = 0;
    /** spec.prefetchedSites translated to stable readSite ids for the
     *  probe's key space. */
    std::unordered_set<int64_t> prefetchSiteIds;
    LaunchGeometry geom;

    std::vector<int64_t> levelSizes;
    std::vector<bool> levelDynamic;
    std::vector<std::vector<int64_t>> levelPatSizes;
    std::deque<PrivateCopy> privateCopies;

    int64_t dimBlock[4] = {1, 1, 1, 1};
    int64_t warpShape[4] = {1, 1, 1, 1};
    int64_t tilesPerDim[4] = {1, 1, 1, 1};
    int64_t tileStrideOfDim[4] = {1, 1, 1, 1};
    int64_t laneStrideOfDim[4] = {1, 1, 1, 1};
    int64_t tilesPerBlock = 1;
    int64_t laneCoord[4] = {-1, -1, -1, -1};

    int64_t blockLinear = 0;
    int64_t blockCoord[4] = {0, 0, 0, 0};
    int64_t curLevelIndex[4] = {0, 0, 0, 0};

    /** Root-domain shard (ExecOptions::rootShard*), resolved against the
     *  launch-known root size; shardSize < 0 means unsharded. */
    int64_t shardLo = 0;
    int64_t shardSize = -1;

    uint64_t curSig = 0;
    uint64_t lastOpCount = 0;
    double curOpFactor = 1.0;

    struct DivAcc
    {
        double sum = 0.0;
        double peak = 0.0;
        int count = 0;
    };

    /** Exact divergence-accumulator key: dense (site, tile) id plus the
     *  full iteration signature. */
    struct DivKey
    {
        uint64_t siteTile = 0;
        uint64_t sig = 0;

        bool operator==(const DivKey &o) const
        {
            return siteTile == o.siteTile && sig == o.sig;
        }
    };

    struct DivKeyHash
    {
        size_t operator()(const DivKey &k) const
        {
            uint64_t h = k.sig + 0x9e3779b97f4a7c15ULL * (k.siteTile + 1);
            h ^= h >> 33;
            h *= 0xff51afd7ed558ccdULL;
            h ^= h >> 29;
            return static_cast<size_t>(h);
        }
    };

    std::unordered_map<DivKey, DivAcc, DivKeyHash> divergence;

    std::unordered_map<int, LocalState> locals;
    std::unordered_map<const Pattern *,
                       std::unordered_map<uint64_t, Partial>>
        splitPartials;
    const Pattern *deferredRootReduce = nullptr;
    const Pattern *deferredNested = nullptr;
    int64_t filterCursor = 0;
    int64_t compactionElems = 0;
    int64_t compactionKept = 0;
    int64_t compactionChunks = 0;
    int64_t divergedBlock = 0;

    /** Consolidated-path state: the sliced root body, per-group parent
     *  snapshots (reused across blocks), and the whole-grid queue
     *  accumulators. */
    const Stmt *consNested = nullptr;
    std::vector<const Stmt *> consPrefix;
    std::vector<const Stmt *> consSuffix;
    std::vector<int> consPrefixVars;
    std::vector<int64_t> consParentExtent;
    std::vector<double> consParentLets;
    std::vector<double> consAcc;
    int64_t consGroups = 0;
    int64_t consParents = 0;
    int64_t consEntries = 0;
    int64_t consWaves = 0;
};

} // namespace

std::string
blockParallelRefusal(const KernelSpec &spec)
{
    std::string why = rootParallelRefusal(*spec.prog);
    if (!why.empty())
        return why;
    if (spec.consolidation.enabled)
        return "R2: consolidated spec";
    for (size_t lv = 0; lv < spec.mapping.levels.size(); lv++) {
        if (spec.mapping.levels[lv].span.kind == SpanKind::Split)
            return fmt("R2: level {} is Split", lv);
    }
    return {};
}

KernelStats
executeOnDevice(const KernelSpec &spec, const Bindings &args,
                const DeviceConfig &device, const ExecOptions &options)
{
    NPP_TRACE_SCOPE("sim.execute");
    // A functional run writes the bound outputs; a metrics-only run
    // writes private copies of them.
    if (!options.metricsOnly)
        args.prepareOutputs();
    DeviceExecutor exec(spec, args, device, options);
    KernelStats stats = exec.run();
    NPP_TRACE_COUNT("sim.blocks", static_cast<double>(stats.totalBlocks));
    NPP_TRACE_COUNT("sim.classed_blocks",
                    static_cast<double>(stats.classedBlocks));
    if (options.blockClasses && options.metricsOnly &&
        !stats.classReason.empty())
        NPP_TRACE_COUNT("sim.class_fallbacks", 1);
    return stats;
}

} // namespace npp
