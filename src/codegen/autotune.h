/**
 * @file
 * Empirical autotuner over the mapping space. The paper notes that "our
 * mapping parameters can be used by other compilers or auto-tuners to
 * explore the mapping space" (Section IV-B) — this is that auto-tuner:
 * take the top-scoring hard-feasible candidates from Algorithm 1,
 * actually run each on the simulated device, and keep the fastest.
 *
 * Trials run metrics-only, concurrently and through the EvalCache, so
 * the caller's buffers are never written. Trial reports and the winning
 * mapping do not depend on the thread count (tests/sim/determinism_test).
 */

#ifndef NPP_CODEGEN_AUTOTUNE_H
#define NPP_CODEGEN_AUTOTUNE_H

#include "codegen/compile.h"
#include "runtime/binding.h"
#include "sim/metrics.h"

namespace npp {

class Gpu;

/** Options for the autotuner. */
struct AutotuneOptions
{
    /** Distinct top-scoring candidates to execute. */
    int topCandidates = 8;
};

/** One executed trial. */
struct AutotuneTrial
{
    MappingDecision decision;
    double score = 0.0;
    double measuredMs = 0.0;
};

/** Autotuning outcome. */
struct AutotuneResult
{
    /** The fastest measured spec, ready to run. */
    KernelSpec best;
    double bestMs = 0.0;

    /** Keeps a fusion-rewritten program alive for `best` (if any). */
    std::shared_ptr<Program> ownedProgram;

    /** What the pure score-based selection would have picked and cost. */
    MappingDecision scoreChoice;
    double scoreChoiceMs = 0.0;

    std::vector<AutotuneTrial> trials;
};

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
