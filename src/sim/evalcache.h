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
 * It also memoizes sequential reference runs (the validation side of
 * an App run): a reference entry holds the WorkCounts and the output
 * arrays. Every entry carries its kind, and a probe accepts only entries
 * of its own kind, so a reference entry never answers a GPU probe and a
 * GPU entry never answers a reference probe.
 *
 * Two tiers (see DESIGN.md "Tiered eval cache + mapping service"):
 *  - an in-process, mutex-guarded, LRU byte-capped memory tier (default
 *    4 GB; NPP_EVAL_CACHE_MB overrides, NPP_EVAL_CACHE=off disables).
 *    Captured output arrays live in a content-addressed blob store:
 *    entries whose outputs are bit-equal share one blob, counted once
 *    in the byte total and freed with the last entry that uses it;
 *  - an optional on-disk, content-addressed tier shared across
 *    processes: one self-contained file per entry under
 *    NPP_EVAL_CACHE_DIR, named by the 64-bit key, with a versioned
 *    binary header (magic, format version, coalesce-model tag, build
 *    hash, key, payload checksum). Memory misses fall through to disk;
 *    disk hits promote into memory; stores write through via temp-file
 *    + atomic rename, so concurrent processes never observe a partial
 *    entry. Truncated, corrupt, wrong-version, wrong-model or
 *    other-build files are rejected as misses (and counted), never
 *    trusted.
 *
 * Invalidation rules:
 *  - any change to the program text, size hints, compile options, device
 *    parameters, bound scalars, or bound array contents changes the key
 *    (there is no in-place invalidation — stale memory entries age out
 *    via LRU; stale disk entries are unreachable garbage);
 *  - a change to the coalescing model (kCoalesceModelVersion), to the
 *    report field table (sim/metrics.h; kEvalCacheDiskFormatVersion
 *    follows it) or to any file under src/ (the build hash) invalidates
 *    every disk entry via the header check;
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

/** Version of the hand-written part of a disk entry: the kind byte, the
 *  reference work counts, the site-table count and the captured output
 *  arrays. The report fields themselves are covered by the field-table
 *  hash below. */
inline constexpr uint32_t kEvalCacheEntryLayoutVersion = 3;

/** Disk entry format version, written in every header. Derived from the
 *  report field table, so adding, retyping or reordering a field rejects
 *  older entries on its own. */
inline constexpr uint32_t kEvalCacheDiskFormatVersion = static_cast<uint32_t>(
    reportFieldTableHash(kEvalCacheEntryLayoutVersion) >> 32);

/** Content hash of the src/ tree this binary was built from, written
 *  into every disk-entry header; a file from another build is rejected.
 *  Builds that compile src/ without the generated hash header share one
 *  fixed value. */
uint64_t evalCacheBuildHash();

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
    /** Resident footprint: every entry plus every distinct output blob,
     *  each blob counted once however many entries share it. */
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
    /** Seed for cachedReference: the program hash combined with a tag
     *  value in place of the compile-option and device hashes. */
    static uint64_t referenceSeed(const Program &prog);
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

    /** @name Reference-run entries
     *  Same tiers and key space as GPU entries, but a reference probe
     *  only accepts reference entries (and vice versa). A hit copies the
     *  memoized outputs into `args`'s bound storage.
     *  @{
     */
    std::optional<WorkCounts> findReference(uint64_t key,
                                            const Bindings &args,
                                            EvalTier *tierOut = nullptr);
    void storeReference(uint64_t key, const WorkCounts &work,
                        const Bindings &outputsOf);
    /** @} */

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
 * the hook is a plain setter. `mapping` is the executed decision:
 * cachedRun's spec, the fixed mapping of a Strategy::Fixed compile, or
 * the compiled spec's mapping otherwise. `prog` is the caller's program
 * (cachedCompileAndRun) or the spec's (cachedRun), and `paramValues`
 * the compile-time sizes the spec was built with. The observer may be
 * invoked concurrently (parallel sweeps) and must not re-enter the
 * cached entry points.
 *  @{
 */
struct ExactEvalInfo
{
    const Program *prog = nullptr;
    const MappingDecision *mapping = nullptr;
    const std::unordered_map<int, double> *paramValues = nullptr;
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

/** EvalCache::hashProgram, hashDevice and hashBindings of one
 *  evaluation, for a caller that evaluates many compile options of one
 *  program on one device and one set of bindings. */
struct EvalKeyParts
{
    uint64_t program = 0;
    uint64_t device = 0;
    uint64_t bindings = 0;
};

/**
 * Memoized Gpu::compileAndRun: the program is compiled only when both
 * tiers miss. `wantOutputs` selects functional fidelity: true runs (and
 * stores) full outputs; false runs metrics-only, which is cheaper
 * (block classing) and race-free under concurrency. `tierOut`
 * (optional) reports the cache-tier provenance of the returned report;
 * EvalTier::Simulated when both tiers missed or the cache is disabled.
 * `hashed` (optional) holds the key parts when the caller hashed them
 * already.
 */
SimReport cachedCompileAndRun(const Gpu &gpu, const Program &prog,
                              const Bindings &args,
                              const CompileOptions &copts,
                              const ExecOptions &eopts, bool wantOutputs,
                              EvalTier *tierOut = nullptr,
                              const EvalKeyParts *hashed = nullptr);

/**
 * Memoized Gpu::run for an already-compiled spec. `specSeed` must
 * identify how the spec was produced (EvalCache::specSeed); the caller
 * computes it once per compile.
 */
SimReport cachedRun(const Gpu &gpu, const KernelSpec &spec,
                    const Bindings &args, const ExecOptions &eopts,
                    uint64_t specSeed, bool wantOutputs,
                    EvalTier *tierOut = nullptr);

/** cachedRun for a caller that already hashed `args`
 *  (`bindingsHash` == EvalCache::hashBindings(args)), so the bindings
 *  are not hashed a second time. */
SimReport cachedRun(const Gpu &gpu, const KernelSpec &spec,
                    const Bindings &args, const ExecOptions &eopts,
                    uint64_t specSeed, uint64_t bindingsHash,
                    bool wantOutputs, EvalTier *tierOut = nullptr);

/**
 * Memoized ReferenceInterp::run. `referenceSeed` is
 * EvalCache::referenceSeed(prog), computed once per program by the
 * caller. A miss runs the interpreter (inside a `runtime.reference`
 * span) and stores its work counts and outputs; a hit copies the
 * outputs into `args` and returns the stored counts.
 */
WorkCounts cachedReference(const Program &prog, const Bindings &args,
                           uint64_t referenceSeed,
                           EvalTier *tierOut = nullptr);

} // namespace npp

#endif // NPP_SIM_EVALCACHE_H
