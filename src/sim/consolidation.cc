#include "sim/consolidation.h"

#include <sstream>

#include "analysis/consolidate.h"
#include "support/strings.h"
#include "support/trace.h"

namespace npp {

namespace {

/** Compile + metrics-only cached evaluation of one candidate. */
ConsolidationCandidate
evalCandidate(const Gpu &gpu, const Program &prog, const Bindings &args,
              CompileOptions copts, const ExecOptions &eopts,
              std::string label)
{
    ConsolidationCandidate cand;
    cand.label = std::move(label);
    cand.strategy = copts.strategy;
    cand.granularity = copts.binGranularity;
    copts.keepCandidates = false;
    copts.explainSearch = false;

    const CompileResult compiled = compileProgram(prog, gpu.config(), copts);
    const uint64_t specSeed = EvalCache::specSeed(prog, copts, gpu.config());

    ExecOptions scoreOpts = eopts;
    scoreOpts.metricsOnly = true;
    const SimReport r = cachedRun(gpu, compiled.spec, args, scoreOpts,
                                  specSeed, /*wantOutputs=*/false,
                                  &cand.tier);
    cand.feasible = true;
    cand.totalMs = r.totalMs;
    cand.queueBuildMs = r.queueBuildMs;
    cand.binFill = r.stats.binFill;
    cand.verdict = compiled.spec.consolidation.verdict;
    return cand;
}

} // namespace

ConsolidationChoice
searchConsolidation(const Gpu &gpu, const Program &prog,
                    const Bindings &args, const CompileOptions &base,
                    const ExecOptions &eopts)
{
    NPP_TRACE_SCOPE("consolidation.search");
    ConsolidationChoice choice;

    // Static baseline: the mapping the caller's options would launch
    // (the searched multi-dim mapping unless a fixed one was given).
    CompileOptions staticOpts = base;
    if (staticOpts.strategy == Strategy::Consolidate)
        staticOpts.strategy = Strategy::MultiDim;
    choice.candidates.push_back(evalCandidate(
        gpu, prog, args, staticOpts, eopts,
        fmt("static ({})", strategyName(staticOpts.strategy))));
    choice.staticMs = choice.candidates[0].totalMs;
    choice.bestMs = choice.staticMs;

    if (!hasDynamicInnerExtent(prog)) {
        choice.verdict = "not consolidated: no runtime-sized inner "
                         "domain (every extent is known at launch)";
        return choice;
    }
    const std::string reason = consolidationEligibility(prog);
    if (!reason.empty()) {
        ConsolidationCandidate cand;
        cand.label = "consolidate";
        cand.strategy = Strategy::Consolidate;
        cand.verdict = reason;
        choice.candidates.push_back(std::move(cand));
        choice.verdict = "not consolidated: " + reason;
        return choice;
    }

    // Track the winner by index: each push_back may reallocate the
    // candidate vector, so references into it do not survive the loop.
    size_t bestIdx = 0;
    for (BinGranularity g :
         {BinGranularity::Warp, BinGranularity::Block}) {
        CompileOptions copts = base;
        copts.strategy = Strategy::Consolidate;
        copts.binGranularity = g;
        choice.candidates.push_back(evalCandidate(
            gpu, prog, args, copts, eopts,
            fmt("{}-bin queues", binGranularityName(g))));
        if (bestIdx == 0 || choice.candidates.back().totalMs <
                                choice.candidates[bestIdx].totalMs)
            bestIdx = choice.candidates.size() - 1;
    }
    const ConsolidationCandidate *best =
        bestIdx > 0 ? &choice.candidates[bestIdx] : nullptr;

    if (best && best->totalMs < choice.staticMs) {
        choice.consolidated = true;
        choice.granularity = best->granularity;
        choice.bestMs = best->totalMs;
        choice.speedup = choice.staticMs / std::max(best->totalMs, 1e-12);
        choice.verdict =
            fmt("consolidated: {}-bin queues beat the best static "
                "mapping ({}x; bin fill {}, queue build {} ms)",
                binGranularityName(best->granularity),
                fixed(choice.speedup, 4), fixed(best->binFill, 3),
                fixed(best->queueBuildMs, 4));
    } else {
        const double bestConsMs = best ? best->totalMs : 0.0;
        choice.verdict = fmt(
            "not consolidated: queue build outweighs the skew savings "
            "(best static {} ms vs consolidated {} ms)",
            fixed(choice.staticMs, 4), fixed(bestConsMs, 4));
        choice.speedup =
            choice.bestMs > 0.0 ? choice.staticMs / choice.bestMs : 1.0;
    }
    return choice;
}

std::string
formatConsolidationChoice(const ConsolidationChoice &choice)
{
    std::ostringstream os;
    os << "consolidation sweep (runtime-sized inner domains):\n";
    for (const ConsolidationCandidate &c : choice.candidates) {
        os << "  " << c.label;
        if (c.feasible) {
            os << "  " << fixed(c.totalMs, 4) << " ms";
            if (c.strategy == Strategy::Consolidate) {
                os << "  (bin fill " << fixed(c.binFill, 3)
                   << ", queue build " << fixed(c.queueBuildMs, 4)
                   << " ms)";
            }
        } else {
            os << "  hard-filtered: " << c.verdict;
        }
        os << "\n";
    }
    os << "selected: " << choice.verdict << "\n";
    return os.str();
}

std::string
consolidationChoiceJson(const ConsolidationChoice &choice)
{
    std::ostringstream os;
    os << "{\"consolidated\":"
       << (choice.consolidated ? "true" : "false");
    if (choice.consolidated) {
        os << ",\"granularity\":\""
           << jsonEscape(binGranularityName(choice.granularity)) << "\"";
    }
    os << ",\"verdict\":\"" << jsonEscape(choice.verdict) << "\""
       << ",\"static_ms\":" << choice.staticMs
       << ",\"best_ms\":" << choice.bestMs
       << ",\"speedup\":" << choice.speedup << ",\"candidates\":[";
    bool first = true;
    for (const ConsolidationCandidate &c : choice.candidates) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"label\":\"" << jsonEscape(c.label) << "\""
           << ",\"feasible\":" << (c.feasible ? "true" : "false");
        if (c.feasible) {
            os << ",\"total_ms\":" << c.totalMs
               << ",\"queue_build_ms\":" << c.queueBuildMs
               << ",\"bin_fill\":" << c.binFill;
        } else {
            os << ",\"verdict\":\"" << jsonEscape(c.verdict) << "\"";
        }
        os << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace npp
