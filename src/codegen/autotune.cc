#include "codegen/autotune.h"

#include <algorithm>
#include <unordered_set>

#include "sim/evalcache.h"
#include "sim/gpu.h"
#include "support/logging.h"
#include "support/parallel.h"
#include "support/trace.h"

namespace npp {

AutotuneResult
autotune(const Program &prog, const Gpu &gpu, const Bindings &args,
         CompileOptions base, const AutotuneOptions &options)
{
    NPP_TRACE_SCOPE("codegen.autotune");
    AutotuneResult result;

    base.strategy = Strategy::MultiDim;
    base.keepCandidates = true;
    CompileResult compiled = compileProgram(prog, gpu.config(), base);
    result.scoreChoice = compiled.spec.mapping;

    // Top-scoring distinct candidates, plus the score-based selection
    // itself (which ControlDOP may have rewritten beyond the raw list).
    std::vector<ScoredMapping> cands = compiled.candidates;
    std::sort(cands.begin(), cands.end(),
              [](const ScoredMapping &a, const ScoredMapping &b) {
                  return a.score > b.score;
              });
    std::vector<ScoredMapping> picks;
    std::unordered_set<MappingDecision> seen;
    picks.push_back({compiled.spec.mapping, compiled.spec.score,
                     compiled.spec.dop, 0.0});
    seen.insert(compiled.spec.mapping);
    for (const auto &c : cands) {
        if (static_cast<int>(picks.size()) > options.topCandidates)
            break;
        if (seen.insert(c.decision).second)
            picks.push_back(c);
    }

    CompileOptions fixed = base;
    fixed.keepCandidates = false;
    fixed.strategy = Strategy::Fixed;

    // Metrics-only trials never write the caller's buffers, so they are
    // independent: evaluate concurrently (and through the cache, which
    // repeated tuning of the same program hits).
    const std::vector<double> measuredMs = parallelMap<double>(
        static_cast<int64_t>(picks.size()), [&](int64_t i) {
            CompileOptions copts = fixed;
            copts.fixedMapping = picks[static_cast<size_t>(i)].decision;
            return cachedCompileAndRun(gpu, prog, args, copts, {},
                                       /*wantOutputs=*/false)
                .totalMs;
        });

    // Serial fold in pick order: identical tie-breaking no matter how
    // the measurements were produced.
    double bestMs = 0.0;
    bool haveBest = false;
    size_t bestIdx = 0;
    for (size_t i = 0; i < picks.size(); i++) {
        AutotuneTrial record;
        record.decision = picks[i].decision;
        record.score = picks[i].score;
        record.measuredMs = measuredMs[i];
        result.trials.push_back(record);

        if (picks[i].decision == result.scoreChoice)
            result.scoreChoiceMs = measuredMs[i];
        if (!haveBest || measuredMs[i] < bestMs) {
            bestMs = measuredMs[i];
            bestIdx = i;
            haveBest = true;
        }
    }
    NPP_ASSERT(haveBest, "autotune executed no candidates");
    NPP_TRACE_COUNT("autotune.trials", static_cast<double>(picks.size()));
    result.bestMs = bestMs;

    fixed.fixedMapping = picks[bestIdx].decision;
    CompileResult winner = compileProgram(prog, gpu.config(), fixed);
    result.best = winner.spec;
    result.ownedProgram = winner.ownedProgram;
    return result;
}

} // namespace npp
