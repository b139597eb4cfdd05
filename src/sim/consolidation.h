/**
 * @file
 * Consolidation sweep for programs with runtime-sized inner domains:
 * score the searched static mapping against the warp- and block-bin
 * consolidated mappings (analysis/consolidate.h) and report which one
 * wins and why. It is one of the sweeps of sim/sweep.h: its table
 * feeds the --explain report (SearchExplanation::consolidationNote/
 * Json) so a caller can see the queue-build cost, bin fill, and the
 * margin by which consolidation beat — or lost to — the best static
 * mapping.
 */

#ifndef NPP_SIM_CONSOLIDATION_H
#define NPP_SIM_CONSOLIDATION_H

#include <string>

#include "sim/sweep.h"

namespace npp {

/** Sweep outcome: the winning mapping plus every point's verdict. The
 *  first point is the static mapping, so it wins ties. */
struct ConsolidationChoice : Sweep
{
    /** True when a consolidated candidate beat the static baseline. */
    bool consolidated = false;
    /** Winning granularity (meaningful when consolidated). */
    BinGranularity granularity = BinGranularity::Warp;
    double staticMs = 0.0; //!< best static mapping's modeled time
    double bestMs = 0.0;   //!< winner's modeled time
};

/**
 * Run the sweep. Evaluations are metrics-only and EvalCache-memoized;
 * `base` carries the caller's compile options (prealloc, objective,
 * raw pointers) so the static baseline matches what the caller would
 * have launched. A program without a runtime-sized inner domain — or
 * one the eligibility filter rejects — yields a not-consolidated
 * choice whose verdict (`selected`) names the reason.
 */
ConsolidationChoice searchConsolidation(const Gpu &gpu,
                                        const Program &prog,
                                        const Bindings &args,
                                        const CompileOptions &base,
                                        const ExecOptions &eopts);

/** sweepText(choice). Kept while perfbench calls it by this name. */
std::string formatConsolidationChoice(const ConsolidationChoice &choice);

/** sweepJson(choice). Kept while perfbench calls it by this name. */
std::string consolidationChoiceJson(const ConsolidationChoice &choice);

} // namespace npp

#endif // NPP_SIM_CONSOLIDATION_H
