#include "codegen/autotune.h"

#include <algorithm>
#include <unordered_set>

#include "support/strings.h"
#include "support/trace.h"

namespace npp {

std::vector<SweepPoint>
mappingPoints(const Program &prog, const DeviceConfig &device,
              const CompileOptions &base, int maxPicks)
{
    CompileOptions search = base;
    search.strategy = Strategy::MultiDim;
    search.keepCandidates = true;
    CompileResult compiled = compileProgram(prog, device, search);

    std::vector<ScoredMapping> cands = std::move(compiled.candidates);
    std::sort(cands.begin(), cands.end(),
              [](const ScoredMapping &a, const ScoredMapping &b) {
                  return a.score > b.score;
              });
    cands.insert(cands.begin(),
                 ScoredMapping{compiled.spec.mapping, compiled.spec.score,
                               compiled.spec.dop, 0.0});
    std::vector<SweepPoint> points;
    std::unordered_set<MappingDecision> seen;
    for (const ScoredMapping &c : cands) {
        if (static_cast<int>(points.size()) >= maxPicks)
            break;
        if (!seen.insert(c.decision).second)
            continue;
        SweepPoint &p = points.emplace_back();
        p.label = c.decision.toString();
        p.copts = base;
        p.copts.strategy = Strategy::Fixed;
        p.copts.fixedMapping = c.decision;
        p.copts.keepCandidates = false;
        p.copts.explainSearch = false;
        p.score = c.score;
        p.isScoreChoice = points.size() == 1;
    }
    return points;
}

AutotuneResult
autotune(const Program &prog, const Gpu &gpu, const Bindings &args,
         CompileOptions base, const AutotuneOptions &options)
{
    NPP_TRACE_SCOPE("codegen.autotune");
    std::vector<SweepPoint> points = mappingPoints(
        prog, gpu.config(), base, options.topCandidates + 1);
    NPP_TRACE_COUNT("autotune.trials", static_cast<double>(points.size()));
    points[0].note = "score choice";

    AutotuneResult result;
    static_cast<Sweep &>(result) =
        runSweep(gpu, prog, args, std::move(points));
    result.kind = "autotune";
    result.title = fmt("autotune ({} trials)", result.candidates.size());
    result.scoreChoiceMs = result.candidates[0].exactMs;
    const SweepPoint &win = *result.winner();
    result.bestMs = win.exactMs;

    CompileResult winner = compileProgram(prog, gpu.config(), win.copts);
    result.best = winner.spec;
    result.ownedProgram = winner.ownedProgram;
    return result;
}

} // namespace npp
