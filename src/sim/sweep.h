/**
 * @file
 * The one empirical sweep engine. Section IV-B offers Algorithm 1's
 * mapping parameters to "other compilers or auto-tuners to explore the
 * mapping space". Each such exploration is a driver that builds a list
 * of SweepPoints — autotune and the predictive sweep (Algorithm 1's
 * top-scoring mappings, the latter pruned by a learned model), the
 * consolidation sweep (static against warp-/block-bin queues) and the
 * fleet sweep ((deviceCount, splitPoint) over a compiled spec) — with
 * its hard filters and pruning resolved up front, calls runSweep, and
 * fills its typed summary (which extends Sweep) plus the title, notes
 * and verdict line that sweepText and sweepJson render.
 */

#ifndef NPP_SIM_SWEEP_H
#define NPP_SIM_SWEEP_H

#include <string>
#include <vector>

#include "sim/evalcache.h"

namespace npp {

/** One candidate of a sweep. */
struct SweepPoint
{
    std::string label; //!< the point's row in the rendered table

    /** What the point evaluates: compile options, or, when `spec` is
     *  set, the caller's compiled spec and its EvalCache seed (0:
     *  uncached), sharded across `deviceCount` devices with the first
     *  device taking `splitPoint` root elements (-1: balanced). */
    CompileOptions copts;
    const KernelSpec *spec = nullptr;
    uint64_t specSeed = 0;
    int deviceCount = 1;
    int64_t splitPoint = -1;

    double score = 0.0;       //!< Algorithm 1 soft-constraint score
    double predictedMs = 0.0; //!< the model's estimate (0 without one)

    std::string filtered; //!< hard-filter verdict: never evaluated
    bool pruned = false;  //!< skipped on the model's word
    /** The point Algorithm 1 alone would launch, listed first: the
     *  baseline the others are measured against. */
    bool isScoreChoice = false;

    double exactMs = 0.0; //!< simulated time, which the fold minimizes
    SimReport report;     //!< a compile-options point's run
    double interMs = 0.0; //!< a fleet point's peer-link cost
    std::string note;     //!< printed in parentheses after the time

    bool simulated() const { return filtered.empty() && !pruned; }
};

/** An evaluated sweep: its points and the winner of the fold. */
struct Sweep
{
    std::string kind;  //!< the JSON "sweep" tag (autotune, predict, ...)
    std::string title; //!< the text heading
    std::vector<SweepPoint> candidates; //!< in sweep order
    /** First minimum of exactMs over the simulated points, in list
     *  order; -1 when no point was simulated. */
    int bestIndex = -1;
    /** The verdict line under the table; runSweep writes
     *  "<winner's label> at <its time> ms". */
    std::string selected;

    const SweepPoint *winner() const;   //!< null when none was simulated
    const SweepPoint *baseline() const; //!< the isScoreChoice point
};

/**
 * Evaluate every simulated() point metrics-only, concurrently and
 * through the EvalCache under the keys the single-evaluation entry
 * points use, then fold serially to the first minimum in list order,
 * so the winner never depends on the thread count and an earlier point
 * wins ties. The program and the bindings are hashed once per call. A
 * compile-options point is compiled only when both tiers miss; a spec
 * point runs through runOnFleet on `fleet` resized to its device
 * count.
 */
Sweep runSweep(const Gpu &gpu, const Program &prog, const Bindings &args,
               std::vector<SweepPoint> points,
               const ExecOptions &eopts = {},
               const FleetConfig &fleet = {});

/** The sweep as a table: the title, one row per point, and the
 *  `selected:` verdict line (nppc --explain and the decision report). */
std::string sweepText(const Sweep &sweep);

/** The sweep as one JSON object; every kind of sweep shares the schema
 *  (--stats exports, the decision report, serve responses). */
std::string sweepJson(const Sweep &sweep);

} // namespace npp

#endif // NPP_SIM_SWEEP_H
