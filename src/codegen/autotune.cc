#include "codegen/autotune.h"

#include <algorithm>
#include <unordered_set>

#include "sim/evalcache.h"
#include "sim/gpu.h"
#include "support/logging.h"
#include "support/parallel.h"
#include "support/trace.h"

namespace npp {

std::vector<ScoredMapping>
rankedCandidates(const Program &prog, const DeviceConfig &device,
                 CompileOptions base, int maxPicks)
{
    base.strategy = Strategy::MultiDim;
    base.keepCandidates = true;
    CompileResult compiled = compileProgram(prog, device, base);

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
        if (static_cast<int>(picks.size()) >= maxPicks)
            break;
        if (seen.insert(c.decision).second)
            picks.push_back(c);
    }
    return picks;
}

MeasuredMappings
measureMappings(const Gpu &gpu, const Program &prog, const Bindings &args,
                CompileOptions base,
                const std::vector<MappingDecision> &mappings)
{
    NPP_ASSERT(!mappings.empty(), "sweep executed no candidates");
    base.keepCandidates = false;
    base.explainSearch = false;
    base.strategy = Strategy::Fixed;

    // Metrics-only trials never write the caller's buffers, so they are
    // independent: evaluate concurrently (and through the cache, which
    // repeated sweeps of the same program hit).
    MeasuredMappings measured;
    measured.ms = parallelMap<double>(
        static_cast<int64_t>(mappings.size()), [&](int64_t i) {
            CompileOptions copts = base;
            copts.fixedMapping = mappings[static_cast<size_t>(i)];
            return cachedCompileAndRun(gpu, prog, args, copts, {},
                                       /*wantOutputs=*/false)
                .totalMs;
        });

    // Serial fold in mapping order: identical tie-breaking no matter how
    // the measurements were produced.
    for (size_t i = 1; i < measured.ms.size(); i++) {
        if (measured.ms[i] < measured.ms[measured.best])
            measured.best = i;
    }
    return measured;
}

AutotuneResult
autotune(const Program &prog, const Gpu &gpu, const Bindings &args,
         CompileOptions base, const AutotuneOptions &options)
{
    NPP_TRACE_SCOPE("codegen.autotune");
    AutotuneResult result;

    // Top-scoring distinct candidates, plus the score-based selection
    // itself (which ControlDOP may have rewritten beyond the raw list).
    const std::vector<ScoredMapping> picks = rankedCandidates(
        prog, gpu.config(), base, options.topCandidates + 1);
    result.scoreChoice = picks[0].decision;

    std::vector<MappingDecision> mappings;
    for (const ScoredMapping &p : picks)
        mappings.push_back(p.decision);
    const MeasuredMappings measured =
        measureMappings(gpu, prog, args, base, mappings);
    for (size_t i = 0; i < picks.size(); i++) {
        result.trials.push_back(
            {picks[i].decision, picks[i].score, measured.ms[i]});
        if (picks[i].decision == result.scoreChoice)
            result.scoreChoiceMs = measured.ms[i];
    }
    NPP_TRACE_COUNT("autotune.trials", static_cast<double>(picks.size()));
    result.bestMs = measured.ms[measured.best];

    CompileOptions fixed = base;
    fixed.keepCandidates = false;
    fixed.strategy = Strategy::Fixed;
    fixed.fixedMapping = picks[measured.best].decision;
    CompileResult winner = compileProgram(prog, gpu.config(), fixed);
    result.best = winner.spec;
    result.ownedProgram = winner.ownedProgram;
    return result;
}

} // namespace npp
