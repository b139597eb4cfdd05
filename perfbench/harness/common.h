/**
 * @file
 * Shared pieces of the perfbench harness: the metric tables (the names
 * and units BENCHMARK.json lists), the per-run result with its
 * correctness-gate counters, seeded key draws over the demo programs,
 * and small timing/statistics helpers.
 *
 * Every workload emits every metric of the table its mode selects, so
 * a layer a workload does not exercise reports 0 rather than nothing.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/evalcache.h"
#include "support/rng.h"

namespace npp {
class Bindings;
class Program;
} // namespace npp

namespace perfbench {

/** One metric name with its unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (tracing off), in BENCHMARK.json order. */
extern const std::vector<MetricDef> kEndToEnd;
/** Per-layer metrics (traced run), in BENCHMARK.json order. */
extern const std::vector<MetricDef> kPerLayer;

/** The command line of one run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /** Scratch directory (inside the checkout) for the socket, the
     *  disk tier and the sample store; created fresh per run. */
    std::string scratch;
    /** Corrupt one checked result so its gate must fail (self-check of
     *  the gate path, see perfbench/selfcheck.py). */
    bool breakGate = false;
};

/**
 * The result of one run: metric values plus the correctness gates.
 * Each gated operation is attempted once; a failed one is named on
 * stderr and makes the run exit nonzero.
 */
class Result
{
  public:
    explicit Result(bool trace);

    /** Set a metric of the active table; fatal for an unknown name. */
    void set(const std::string &name, double value);

    /** Count one gated operation; `ok == false` counts it failed. */
    void gate(bool ok, const std::string &what);

    int64_t failed() const { return failed_; }

    /** The result line (the last line of stdout). */
    std::string json() const;

  private:
    const std::vector<MetricDef> *table_;
    std::map<std::string, double> values_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nearest-rank percentile (p in (0, 1]) of unsorted samples; 0 when
 *  there are none. */
double percentile(std::vector<double> samples, double p);

/** Median of unsorted samples (0 when empty). */
double median(std::vector<double> samples);

/** Process peak resident set size in MB (VmHWM). */
double peakRssMb();

/** Create `dir` (and parents); false on failure. */
bool makeDirs(const std::string &dir);

/** Filesystem type of `path` ("tmpfs", "overlay", ...). */
std::string fsType(const std::string &path);

/** One request key: a demo program and its size hints. */
struct DrawKey
{
    std::string program;
    std::map<std::string, int64_t> sizes;

    /** Canonical text, e.g. "sumrows rows=300 cols=700". */
    std::string id() const;
    /** The serve protocol's eval request line. */
    std::string request() const;
};

/** Which size ranges a draw uses. */
enum class Ranges {
    Serve, //!< the full ranges of the serve workload
    Sweep  //!< narrow bands around bench/fig_predict's sizes
};

/**
 * `n` keys of one demo program, each size log-uniform over its range:
 * every size dimension gets exactly one draw in each 1/n of its log
 * range, and the strata of the two dimensions are paired by a fixed
 * rank-1 lattice. The seed moves each draw within its cell and orders
 * the keys, but the set of cells is the same for every seed, which
 * keeps the total work of a set of draws nearly seed-independent (set-up
 * and pass times steady). Keys already in `taken` are redrawn; new ids
 * are added to it.
 */
std::vector<DrawKey> drawKeys(const std::string &program, int n,
                              Ranges ranges, npp::Rng &rng,
                              std::vector<std::string> &taken);

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T> &v, npp::Rng &rng)
{
    for (size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** Print the run header line (machine, build, pool, seed, paths). */
void printHeader(const RunConfig &cfg, int clients,
                 const std::vector<std::string> &paths);

/** Registry span total (seconds) and count under `name`. */
double spanSeconds(const char *name);
double spanCount(const char *name);

/**
 * The registry readings every workload's traced run reports: the sim
 * executor, codegen and analysis, the sweep drivers and the task pool.
 * add() accumulates the registry's current totals, so a workload can
 * sum several phases by clearing the registry between them; emit() sets
 * the matching per-layer metrics (means are per call). A layer the
 * phases did not exercise reads 0.
 */
struct LayerReadings
{
    double simRuns = 0, simBlocks = 0, classed = 0, fallbacks = 0;
    double simRunS = 0, compiles = 0, compileS = 0, searches = 0;
    double searchS = 0, candidates = 0, autotuneS = 0, trials = 0;
    double predictS = 0, survivors = 0, pruned = 0, consolidationS = 0;
    double fleetS = 0, parallelJobs = 0, parallelS = 0;
    double spans = 0; //!< spans recorded, overwritten ones included

    void add();
    void emit(Result &out) const;
};

/** Sum of eval-cache counters over phases (`bytes`: the latest). */
void addCacheStats(npp::EvalCacheStats &sum, const npp::EvalCacheStats &c);

/** Set the eval-cache per-layer metrics from `s`. */
void emitCacheStats(const npp::EvalCacheStats &s, Result &out);

/** Bytes of bound input arrays that EvalCache::hashBindings reads. */
double bindingBytes(const npp::Program &prog, const npp::Bindings &args);

/**
 * Estimated share (%) of `wallS` the trace registry cost: the number
 * of spans recorded times the registry's measured per-span cost. Call
 * after every registry read; it records (and then clears) calibration
 * spans.
 */
double traceOverheadPct(double spansRecorded, double wallS);

/** @name Workloads (each fills `out` and returns normally; gate
 *  failures are counted in `out`)
 *  @{
 */
void runFigures(const RunConfig &cfg, Result &out);
void runServe(const RunConfig &cfg, Result &out);
void runSweeps(const RunConfig &cfg, Result &out);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
