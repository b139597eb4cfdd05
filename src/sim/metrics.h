/**
 * @file
 * Statistics collected by the simulator's functional execution and the
 * timing report derived from them.
 *
 * Every scalar field of SiteTraffic, KernelStats and SimReport is
 * declared exactly once, as a row of the field tables below. The struct
 * members, toJson, reportsBitIdentical, the eval cache's disk entries
 * and disk format version, the executor's per-block deltas and the
 * sampling extrapolation are all generated from those rows (DESIGN.md
 * "Report field table").
 */

#ifndef NPP_SIM_METRICS_H
#define NPP_SIM_METRICS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace npp {

/**
 * Version tag of the transaction-counting model, exported in the stats
 * JSON so archived figure rows record which model produced them. Bump on
 * any change that alters transaction counts: "relative-base-v2" counts a
 * warp group's segments against a base at the group's minimum lane
 * address (shift-invariant); v1 counted absolute address / transaction
 * size.
 */
inline constexpr const char *kCoalesceModelVersion = "relative-base-v2";

/** How the simulator accumulates a report field; every table row names
 *  exactly one. */
enum class FieldTrait {
    /** Counted only on measured (sampled) blocks, replicated only onto
     *  measured blocks, and scaled by totalBlocks / measured. */
    Sampled,
    /** Counted on every block, never scaled. */
    EveryBlock,
    /** Set once per launch (geometry, whole-grid stages, timings). */
    WholeGrid,
    /** Serialized and exported, but outside the bit-identity contract
     *  between execution modes. */
    Diagnostic
};

/**
 * @name Report field tables
 *
 * One row per field: X(type, member, default, "json_key", trait), with a
 * one-line doc comment above it. Rows are emitted in table order by the
 * JSON export and the disk format. Supported types: double, int64_t,
 * bool, std::string.
 * @{
 */

/** Global-memory traffic of one static access site (trace-site id),
 *  collected when ExecOptions::siteStats is set. */
#define NPP_SITE_TRAFFIC_FIELDS(X)                                         \
    /* Trace-site id (dense pre-order integer). */                         \
    X(int64_t, site, 0, "site", WholeGrid)                                 \
    /* Global transactions issued by the site. */                          \
    X(double, transactions, 0.0, "transactions", Sampled)                  \
    /* Bytes the site's accesses semantically asked for. */                \
    X(double, usefulBytes, 0.0, "useful_bytes", Sampled)                   \
    /* Lane accesses made by the site. */                                  \
    X(double, accesses, 0.0, "accesses", Sampled)

/** Work counters of one kernel launch. */
#define NPP_KERNEL_STATS_FIELDS(X)                                         \
    /* Warp-granular weighted compute operations. */                       \
    X(double, warpInstructions, 0.0, "warp_instructions", Sampled)         \
    /* 128-byte global memory transactions after coalescing. */            \
    X(double, transactions, 0.0, "transactions", Sampled)                  \
    /* Bytes the program semantically asked for (whole-grid exact). */     \
    X(double, usefulBytes, 0.0, "useful_bytes", EveryBlock)                \
    /* Shared-memory accesses (prefetch fills + reduce combines). */       \
    X(double, smemAccesses, 0.0, "smem_accesses", Sampled)                 \
    /* __syncthreads() executions, summed over blocks. */                  \
    X(double, syncs, 0.0, "syncs", Sampled)                                \
    /* In-kernel device-heap mallocs (one per thread-local allocation). */ \
    X(double, mallocs, 0.0, "mallocs", Sampled)                            \
    /* Launch geometry: grid size. */                                      \
    X(int64_t, totalBlocks, 1, "total_blocks", WholeGrid)                  \
    /* Launch geometry: block size. */                                     \
    X(int64_t, threadsPerBlock, 1, "threads_per_block", WholeGrid)         \
    /* Launch geometry: shared memory per block. */                        \
    X(int64_t, sharedMemPerBlock, 0, "shared_mem_per_block", WholeGrid)    \
    /* A split level launches a combiner kernel. */                        \
    X(bool, hasCombiner, false, "has_combiner", WholeGrid)                 \
    /* Combiner kernel global transactions. */                             \
    X(double, combinerTransactions, 0.0, "combiner_transactions",          \
      WholeGrid)                                                           \
    /* Combiner kernel compute operations. */                              \
    X(double, combinerOps, 0.0, "combiner_ops", WholeGrid)                 \
    /* Combiner kernel threads. */                                         \
    X(int64_t, combinerThreads, 0, "combiner_threads", WholeGrid)          \
    /* A nested filter runs the count/scan/scatter compaction kernel. */   \
    X(bool, hasCompaction, false, "has_compaction", WholeGrid)             \
    /* Compaction kernel global transactions. */                           \
    X(double, compactionTransactions, 0.0, "compaction_transactions",      \
      WholeGrid)                                                           \
    /* Compaction kernel compute operations. */                            \
    X(double, compactionOps, 0.0, "compaction_ops", WholeGrid)             \
    /* Compaction kernel threads. */                                       \
    X(int64_t, compactionThreads, 0, "compaction_threads", WholeGrid)      \
    /* Strategy::Consolidate runs a queue-build prologue. */               \
    X(bool, hasConsolidation, false, "has_consolidation", WholeGrid)       \
    /* Queue-build global transactions (extent gathers, queue entries). */ \
    X(double, queueBuildTransactions, 0.0, "queue_build_transactions",     \
      WholeGrid)                                                           \
    /* Queue-build compute operations. */                                  \
    X(double, queueBuildOps, 0.0, "queue_build_ops", WholeGrid)            \
    /* Queue-build threads. */                                             \
    X(int64_t, queueBuildThreads, 0, "queue_build_threads", WholeGrid)     \
    /* Consolidation bin groups (one queue each). */                       \
    X(int64_t, consolidationGroups, 0, "consolidation_groups", WholeGrid)  \
    /* Outer iterations served by the queues. */                           \
    X(int64_t, consolidationParents, 0, "consolidation_parents",           \
      WholeGrid)                                                           \
    /* Queued child work items. */                                         \
    X(int64_t, consolidationEntries, 0, "consolidation_entries",           \
      WholeGrid)                                                           \
    /* Full-lane queue consumption passes. */                              \
    X(int64_t, consolidationWaves, 0, "consolidation_waves", WholeGrid)    \
    /* Bin fill: entries / (waves x lanes); 1.0 = no idle lanes. */        \
    X(double, binFill, 1.0, "bin_fill", WholeGrid)                         \
    /* Fraction of blocks whose traffic was measured. */                   \
    X(double, sampledFraction, 1.0, "sampled_fraction", WholeGrid)         \
    /* Blocks replicated from an equivalence-class representative. */      \
    X(int64_t, classedBlocks, 0, "classed_blocks", Diagnostic)             \
    /* Why block classing did not engage (empty when it did). */           \
    X(std::string, classReason, {}, "class_reason", Diagnostic)

/** SimReport's model-time breakdown (the JSON export follows it with the
 *  derived launch and block-overhead shares). */
#define NPP_REPORT_TIME_FIELDS(X)                                          \
    /* Modeled kernel time. */                                             \
    X(double, totalMs, 0.0, "total_ms", WholeGrid)                         \
    /* Compute-bound share of the breakdown. */                            \
    X(double, computeMs, 0.0, "compute_ms", WholeGrid)                     \
    /* Memory-bound share of the breakdown. */                             \
    X(double, memoryMs, 0.0, "memory_ms", WholeGrid)                       \
    /* Kernel launch overhead. */                                          \
    X(double, launchMs, 0.0, "launch_ms", WholeGrid)                       \
    /* Block scheduling overhead. */                                       \
    X(double, blockOverheadMs, 0.0, "block_overhead_ms", WholeGrid)        \
    /* Device-heap malloc time. */                                         \
    X(double, mallocMs, 0.0, "malloc_ms", WholeGrid)                       \
    /* Split-combiner kernel time. */                                      \
    X(double, combinerMs, 0.0, "combiner_ms", WholeGrid)                   \
    /* Compaction kernel time. */                                          \
    X(double, compactionMs, 0.0, "compaction_ms", WholeGrid)               \
    /* Consolidation queue-build time. */                                  \
    X(double, queueBuildMs, 0.0, "queue_build_ms", WholeGrid)

/** SimReport's achieved-device diagnostics. */
#define NPP_REPORT_DEVICE_FIELDS(X)                                        \
    /* Achieved DRAM bandwidth, GB/s. */                                   \
    X(double, achievedBandwidth, 0.0, "achieved_bandwidth_gbs", WholeGrid) \
    /* Resident warps available to hide latency. */                        \
    X(double, residentWarps, 0.0, "resident_warps", WholeGrid)             \
    /* Blocks resident per SM under occupancy limits. */                   \
    X(int64_t, blocksPerSM, 0, "blocks_per_sm", WholeGrid)                 \
    /* Resident warps per active SM over warp capacity (0..1). */          \
    X(double, occupancy, 0.0, "occupancy", WholeGrid)                      \
    /* Useful bytes over bytes moved, whole kernel (0..1). */              \
    X(double, coalescingEfficiency, 0.0, "coalescing_efficiency",          \
      WholeGrid)

/** @} */

#define NPP_DECLARE_FIELD(type, name, init, key, trait) type name = init;

/**
 * Global-memory traffic attributed to one static access site, collected
 * when ExecOptions::siteStats is set. Per-site coalescing efficiency is
 * usefulBytes / (transactions x transaction size) — 1.0 for perfectly
 * coalesced unit-stride access, ~1/16 for a fully strided 8-byte walk on
 * a 128-byte-transaction device.
 */
struct SiteTraffic
{
    NPP_SITE_TRAFFIC_FIELDS(NPP_DECLARE_FIELD)

    bool operator==(const SiteTraffic &o) const = default;
};

/**
 * Work counters for one kernel launch. "Warp instructions" are weighted
 * scalar-op counts normalized to warp granularity (32 lanes executing one
 * instruction count as 1), so redundant execution of outer-level code by
 * inner-dimension lanes is charged exactly as the hardware would.
 */
struct KernelStats
{
    NPP_KERNEL_STATS_FIELDS(NPP_DECLARE_FIELD)

    /** Per-trace-site traffic, sorted by site id; populated only when
     *  ExecOptions::siteStats is set (empty otherwise so the default
     *  report payload is unchanged). */
    std::vector<SiteTraffic> siteTraffic;

    /** Extrapolate the Sampled fields, aggregate and per site, from the
     *  measured blocks to the whole grid. */
    void scaleSampled(double factor);
};

/**
 * Timing report for one kernel launch (model time, Section "hardware
 * substitution" of DESIGN.md).
 */
struct SimReport
{
    NPP_REPORT_TIME_FIELDS(NPP_DECLARE_FIELD)
    NPP_REPORT_DEVICE_FIELDS(NPP_DECLARE_FIELD)

    KernelStats stats;

    /** Heap bytes owned by this report beyond sizeof(SimReport): the
     *  per-site traffic table (siteStats runs) and the classing
     *  diagnostic string. Used by the EvalCache byte accounting so a
     *  stats-heavy entry is charged what it actually costs. */
    uint64_t heapBytes() const;

    std::string toString() const;

    /** Machine-readable export (--stats): every field of the report and
     *  its KernelStats, overhead shares of totalMs, and the per-site
     *  traffic table when present. `transactionBytes` is the device's
     *  transaction size, used for per-site efficiency. */
    std::string toJson(int64_t transactionBytes = 128) const;
};

#undef NPP_DECLARE_FIELD

/** One table row as a compile-time value: the member it names (read it
 *  as `obj.*row.member`), its trait, and its names. */
template <auto Member, FieldTrait Trait>
struct FieldRow
{
    static constexpr auto member = Member;
    static constexpr FieldTrait trait = Trait;
    /** Accumulated block by block (so carried by block deltas). */
    static constexpr bool perBlock =
        Trait == FieldTrait::Sampled || Trait == FieldTrait::EveryBlock;
    const char *name; //!< C++ member name
    const char *key;  //!< JSON key
};

/**
 * Call `visit(row)` once per row of S's table, in table order, where S
 * is SiteTraffic, KernelStats or SimReport (its own rows; the stats and
 * sites are separate tables). Each row is a distinct FieldRow type, so
 * `if constexpr` on its trait expands at compile time.
 */
template <class S, class Visit>
constexpr void
visitFields(Visit &&visit)
{
#define NPP_VISIT_FIELD(type, name, init, key, trait)                      \
    visit(FieldRow<&S::name, FieldTrait::trait>{#name, key});
    if constexpr (std::is_same_v<S, SiteTraffic>) {
        NPP_SITE_TRAFFIC_FIELDS(NPP_VISIT_FIELD)
    } else if constexpr (std::is_same_v<S, KernelStats>) {
        NPP_KERNEL_STATS_FIELDS(NPP_VISIT_FIELD)
    } else {
        static_assert(std::is_same_v<S, SimReport>);
        NPP_REPORT_TIME_FIELDS(NPP_VISIT_FIELD)
        NPP_REPORT_DEVICE_FIELDS(NPP_VISIT_FIELD)
    }
#undef NPP_VISIT_FIELD
}

#define NPP_FIELD_TEXT(...) (__VA_ARGS__)
#define NPP_STRINGIFY(...) #__VA_ARGS__
#define NPP_EXPAND_STRINGIFY(...) NPP_STRINGIFY(__VA_ARGS__)

/** FNV-1a over the text of every table row (doc comments excluded),
 *  seeded with `seed`: any added, removed, retyped, renamed or reordered
 *  row changes it. The eval cache derives its disk format version from
 *  it. */
constexpr uint64_t
reportFieldTableHash(uint64_t seed)
{
    constexpr std::string_view text = NPP_EXPAND_STRINGIFY(
        NPP_SITE_TRAFFIC_FIELDS(NPP_FIELD_TEXT)
            NPP_KERNEL_STATS_FIELDS(NPP_FIELD_TEXT)
                NPP_REPORT_TIME_FIELDS(NPP_FIELD_TEXT)
                    NPP_REPORT_DEVICE_FIELDS(NPP_FIELD_TEXT));
    uint64_t h = (0xcbf29ce484222325ULL ^ seed) * 0x100000001b3ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

#undef NPP_EXPAND_STRINGIFY
#undef NPP_STRINGIFY
#undef NPP_FIELD_TEXT

/**
 * Bitwise equality of two reports — every table row except the
 * Diagnostic ones (classedBlocks, classReason), plus the per-site
 * traffic table. The diagnostics record *how* the result was obtained
 * and are the only fields allowed to differ between exact and classed
 * runs.
 */
bool reportsBitIdentical(const SimReport &a, const SimReport &b);

} // namespace npp

#endif // NPP_SIM_METRICS_H
