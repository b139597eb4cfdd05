/**
 * @file
 * Empirical autotuner over the mapping space. The paper notes that "our
 * mapping parameters can be used by other compilers or auto-tuners to
 * explore the mapping space" (Section IV-B) — this is that auto-tuner:
 * take the top-scoring hard-feasible candidates from Algorithm 1,
 * actually run each on the simulated device, and keep the fastest. It
 * is the sweep of sim/sweep.h with no model.
 *
 * Trials run metrics-only, concurrently and through the EvalCache, so
 * the caller's buffers are never written. Trial reports and the winning
 * mapping do not depend on the thread count (tests/sim/determinism_test).
 */

#ifndef NPP_CODEGEN_AUTOTUNE_H
#define NPP_CODEGEN_AUTOTUNE_H

#include <memory>

#include "sim/sweep.h"

namespace npp {

/** Options for the autotuner. */
struct AutotuneOptions
{
    /** Distinct top-scoring candidates to execute. */
    int topCandidates = 8;
};

/** Autotuning outcome: the sweep of every trial plus the winner. */
struct AutotuneResult : Sweep
{
    /** The fastest measured spec, ready to run. */
    KernelSpec best;
    double bestMs = 0.0;

    /** Keeps a fusion-rewritten program alive for `best` (if any). */
    std::shared_ptr<Program> ownedProgram;

    /** What the pure score-based selection (the first point) costs. */
    double scoreChoiceMs = 0.0;
};

/**
 * Algorithm 1's candidates as sweep points over `base` (each under
 * Strategy::Fixed, labelled by its mapping): the score-based selection
 * first (ControlDOP may have rewritten it beyond the raw list), then
 * the distinct candidates by descending score, at most `maxPicks` in
 * all. `base.strategy` is ignored.
 */
std::vector<SweepPoint> mappingPoints(const Program &prog,
                                      const DeviceConfig &device,
                                      const CompileOptions &base,
                                      int maxPicks);

/**
 * Compile, enumerate, execute the top-scoring candidates, return the
 * empirically fastest mapping. `base.strategy` is ignored (the tuner
 * owns candidate selection).
 */
AutotuneResult autotune(const Program &prog, const Gpu &gpu,
                        const Bindings &args, CompileOptions base = {},
                        const AutotuneOptions &options = {});

} // namespace npp

#endif // NPP_CODEGEN_AUTOTUNE_H
