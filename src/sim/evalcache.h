/**
 * @file
 * Tiered memoization cache for compile-and-simulate evaluations. Autotune
 * picks, figure sweeps, repeated Runner launches, and mapping-service
 * requests frequently re-evaluate the exact same (program,
 * mapping/options, bindings) triple; the cache keys evaluations by
 * structural program hash, compile-option hash (including the
 * MappingDecision), binding fingerprint (scalar values, array sizes and
 * contents), and execution-option hash, and returns the memoized
 * SimReport — skipping both compileProgram and the simulated run.
 *
 * Two tiers (see DESIGN.md "Tiered eval cache + mapping service"):
 *  - an in-process, mutex-guarded, LRU byte-capped memory tier (default
 *    4 GB; NPP_EVAL_CACHE_MB overrides, NPP_EVAL_CACHE=off disables);
 *  - an optional on-disk, content-addressed tier shared across
 *    processes: one file per entry under NPP_EVAL_CACHE_DIR, named by
 *    the 64-bit key, with a versioned binary header (magic, format
 *    version, coalesce-model tag, key, payload checksum). Memory misses
 *    fall through to disk; disk hits promote into memory; stores
 *    write through via temp-file + atomic rename, so concurrent
 *    processes never observe a partial entry. Truncated, corrupt,
 *    wrong-version, or wrong-model files are rejected as misses (and
 *    counted), never trusted. NPP_EVAL_CACHE_DISK=off keeps the memory
 *    tier but ignores the directory.
 *
 * Invalidation rules:
 *  - any change to the program text, size hints, compile options, device
 *    parameters, bound scalars, or bound array contents changes the key
 *    (there is no in-place invalidation — stale memory entries age out
 *    via LRU; stale disk entries are unreachable garbage);
 *  - a change to the coalescing model (kCoalesceModelVersion) or to the
 *    report field table (sim/metrics.h; kEvalCacheDiskFormatVersion
 *    follows it) invalidates every disk entry via the header check;
 *  - metricsOnly/blockClasses execution modes are excluded from the key
 *    because they are report-identical by construction (enforced by the
 *    determinism test), so metrics-only autotune trials warm the cache
 *    for later functional runs;
 *  - entries carry output-array contents only when stored from a
 *    functional run; a wantOutputs lookup ignores report-only entries
 *    in both tiers.
 */

#ifndef NPP_SIM_EVALCACHE_H
#define NPP_SIM_EVALCACHE_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "sim/gpu.h"
#include "sim/metrics.h"

namespace npp {

/** Version of the hand-written part of a disk entry: the site-table
 *  count and the captured output arrays. The report fields themselves
 *  are covered by the field-table hash below. */
inline constexpr uint32_t kEvalCacheEntryLayoutVersion = 2;

/** Disk entry format version, written in every header. Derived from the
 *  report field table, so adding, retyping or reordering a field rejects
 *  older entries on its own. */
inline constexpr uint32_t kEvalCacheDiskFormatVersion = static_cast<uint32_t>(
    reportFieldTableHash(kEvalCacheEntryLayoutVersion) >> 32);

/** Where an evaluation's report came from (cache-tier provenance,
 *  reported per request by the mapping service). */
enum class EvalTier {
    Simulated, //!< both tiers missed; the simulator ran
    Memory,    //!< in-process LRU hit
    Disk       //!< on-disk entry hit (promoted into memory)
};

const char *evalTierName(EvalTier tier);

/** Cache occupancy and effectiveness counters. hits/misses count
 *  memory-tier probes; the disk counters record what happened when a
 *  memory miss fell through to a configured disk tier (they stay zero
 *  without one). */
struct EvalCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;

    /** @name Disk tier (all zero when NPP_EVAL_CACHE_DIR is unset)
     *  @{
     */
    uint64_t diskHits = 0;    //!< valid entry served from disk
    uint64_t diskMisses = 0;  //!< no usable file for the key
    uint64_t diskStores = 0;  //!< entries written (atomic rename done)
    uint64_t diskRejects = 0; //!< corrupt/truncated/wrong-version files
    /** @} */

    double
    hitRate() const
    {
        const uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) / total : 0.0;
    }

    /** Machine-readable export for --stats. */
    std::string toJson() const;
};

class EvalCache
{
  public:
    static EvalCache &instance();

    /** @name Key components
     *  @{
     */
    static uint64_t hashProgram(const Program &prog);
    static uint64_t hashCompileOptions(const CompileOptions &copts);
    static uint64_t hashDevice(const DeviceConfig &device);
    static uint64_t hashBindings(const Bindings &args);
    static uint64_t hashExec(const ExecOptions &eopts);
    /** Fleet description hash for multi-device keys (device config,
     *  count, peer link): mixed into serve-protocol fingerprints so
     *  evaluations against different fleets can never coalesce or
     *  satisfy one another. */
    static uint64_t hashFleet(const FleetConfig &fleet);
    static uint64_t combine(uint64_t a, uint64_t b);
    /** Seed for cachedRun: identifies a spec by how it was produced
     *  (program, compile options, device). */
    static uint64_t specSeed(const Program &prog,
                             const CompileOptions &copts,
                             const DeviceConfig &device);
    /** @} */

    bool enabled() const { return capacityBytes_ > 0; }

    /** Probe the tiers in order (memory, then disk when configured). On
     *  a hit with wantOutputs, the memoized output arrays are copied
     *  into `args`'s bound storage (a report-only entry is treated as a
     *  miss). When `tierOut` is non-null it reports where the hit came
     *  from (unchanged on a miss). */
    std::optional<SimReport> find(uint64_t key, bool wantOutputs,
                                  const Bindings *args,
                                  EvalTier *tierOut = nullptr);

    /** Insert an evaluation into both tiers (write-through when a disk
     *  directory is configured). When `outputsOf` is non-null the
     *  current contents of its output arrays are captured so later
     *  wantOutputs lookups can replay them. */
    void store(uint64_t key, const SimReport &report,
               const Bindings *outputsOf);

    EvalCacheStats stats() const;

    /** Drop every memory-tier entry and reset all counters. Disk-tier
     *  files are untouched (they are the point: a cleared or restarted
     *  process re-hits them). */
    void clear();

    /** Reset every effectiveness counter (hits, misses, evictions, and
     *  the disk-tier counters) without dropping entries — per-phase
     *  bench reports must not carry one phase's counts into the next. */
    void resetCounters();

    /** Override the byte budget of the memory tier (0 disables the
     *  whole cache, disk tier included). Used by benches/tests to
     *  compare cached vs uncached pipelines in one process; evicts down
     *  to the new budget immediately. */
    void setCapacityBytes(int64_t bytes);
    int64_t capacityBytes() const { return capacityBytes_; }

    /** Point the disk tier at a directory (created if missing), or
     *  detach it with an empty string. Programmatic override of
     *  NPP_EVAL_CACHE_DIR for tests and benches. */
    void setDiskDir(const std::string &dir);
    std::string diskDir() const;

  private:
    EvalCache();

    struct Impl;
    Impl *impl_;
    int64_t capacityBytes_ = 0;
};

/** @name Exact-evaluation observer
 *
 * Hook invoked after every *genuinely simulated* evaluation that flows
 * through the cached entry points (cache hits never fire it — they are
 * replays of an evaluation that already fired). The predict layer
 * installs a harvester here so every exact simulation becomes a labeled
 * (features, time) training pair; sim/ cannot depend on predict/, so
 * the hook is a plain setter. `mapping` is the executed decision when
 * the call site can name one (cachedRun's spec, cachedCompileAndRun
 * under Strategy::Fixed) and null otherwise; `paramValues` is null when
 * the call site has no CompileOptions (cachedRun). The observer may be
 * invoked concurrently (parallel sweeps) and must not re-enter the
 * cached entry points.
 *  @{
 */
struct ExactEvalInfo
{
    const Program *prog = nullptr;
    const MappingDecision *mapping = nullptr;                //!< may be null
    const std::unordered_map<int, double> *paramValues = nullptr; //!< may be null
    const ExecOptions *eopts = nullptr;
    const DeviceConfig *device = nullptr;
    const SimReport *report = nullptr;
};

using ExactEvalObserver = std::function<void(const ExactEvalInfo &)>;

/** Install (or clear, with an empty function) the process-global
 *  observer. Thread-safe; the observer is copied per invocation so a
 *  concurrent reinstall never races a running callback. */
void setExactEvalObserver(ExactEvalObserver observer);
/** @} */

/**
 * Memoized Gpu::compileAndRun. `wantOutputs` selects functional fidelity:
 * true runs (and stores) full outputs; false runs metrics-only, which is
 * cheaper (block classing) and race-free under concurrency. `tierOut`
 * (optional) reports the cache-tier provenance of the returned report;
 * EvalTier::Simulated when both tiers missed or the cache is disabled.
 */
SimReport cachedCompileAndRun(const Gpu &gpu, const Program &prog,
                              const Bindings &args,
                              const CompileOptions &copts,
                              const ExecOptions &eopts, bool wantOutputs,
                              EvalTier *tierOut = nullptr);

/**
 * Memoized Gpu::run for an already-compiled spec. `specSeed` must
 * identify how the spec was produced (EvalCache::specSeed); the caller
 * computes it once per compile.
 */
SimReport cachedRun(const Gpu &gpu, const KernelSpec &spec,
                    const Bindings &args, const ExecOptions &eopts,
                    uint64_t specSeed, bool wantOutputs,
                    EvalTier *tierOut = nullptr);

} // namespace npp

#endif // NPP_SIM_EVALCACHE_H
