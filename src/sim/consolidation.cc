#include "sim/consolidation.h"

#include <algorithm>

#include "analysis/consolidate.h"
#include "support/strings.h"
#include "support/trace.h"

namespace npp {

ConsolidationChoice
searchConsolidation(const Gpu &gpu, const Program &prog,
                    const Bindings &args, const CompileOptions &base,
                    const ExecOptions &eopts)
{
    NPP_TRACE_SCOPE("consolidation.search");
    CompileOptions copts = base;
    copts.keepCandidates = false; // diagnostics the sweep never reads
    copts.explainSearch = false;
    // Static baseline: the mapping the caller's options would launch
    // (the searched multi-dim mapping unless a fixed one was given).
    std::vector<SweepPoint> points(1);
    points[0].copts = copts;
    if (copts.strategy == Strategy::Consolidate)
        points[0].copts.strategy = Strategy::MultiDim;
    points[0].label =
        fmt("static ({})", strategyName(points[0].copts.strategy));
    points[0].isScoreChoice = true;

    const bool dynamic = hasDynamicInnerExtent(prog);
    const std::string reason =
        dynamic ? consolidationEligibility(prog) : std::string();
    if (dynamic && !reason.empty()) {
        points.emplace_back();
        points.back().label = "consolidate";
        points.back().filtered = reason;
    } else if (dynamic) {
        for (BinGranularity g :
             {BinGranularity::Warp, BinGranularity::Block}) {
            SweepPoint &p = points.emplace_back();
            p.label = fmt("{}-bin queues", binGranularityName(g));
            p.copts = copts;
            p.copts.strategy = Strategy::Consolidate;
            p.copts.binGranularity = g;
        }
    }

    ConsolidationChoice choice;
    static_cast<Sweep &>(choice) =
        runSweep(gpu, prog, args, std::move(points), eopts);
    choice.kind = "consolidation";
    choice.title = "consolidation sweep (runtime-sized inner domains)";
    choice.staticMs = choice.candidates[0].exactMs;
    choice.bestMs = choice.winner()->exactMs;
    if (!dynamic) {
        choice.selected = "not consolidated: no runtime-sized inner "
                          "domain (every extent is known at launch)";
        return choice;
    }
    if (!reason.empty()) {
        choice.selected = "not consolidated: " + reason;
        return choice;
    }
    for (SweepPoint &p : choice.candidates) {
        if (p.copts.strategy == Strategy::Consolidate)
            p.note = fmt("bin fill {}, queue build {} ms",
                         fixed(p.report.stats.binFill, 3),
                         fixed(p.report.queueBuildMs, 4));
    }
    const SweepPoint &best = *choice.winner();
    if (choice.bestIndex > 0) {
        choice.consolidated = true;
        choice.granularity = best.copts.binGranularity;
        choice.selected = fmt(
            "consolidated: {}-bin queues beat the best static mapping "
            "({}x; {})",
            binGranularityName(choice.granularity),
            fixed(choice.staticMs / std::max(choice.bestMs, 1e-12), 4),
            best.note);
    } else {
        const auto cons = std::min_element(
            choice.candidates.begin() + 1, choice.candidates.end(),
            [](const SweepPoint &a, const SweepPoint &b) {
                return a.exactMs < b.exactMs;
            });
        choice.selected = fmt(
            "not consolidated: queue build outweighs the skew savings "
            "(best static {} ms vs consolidated {} ms)",
            fixed(choice.staticMs, 4), fixed(cons->exactMs, 4));
    }
    return choice;
}

std::string
formatConsolidationChoice(const ConsolidationChoice &choice)
{
    return sweepText(choice);
}

std::string
consolidationChoiceJson(const ConsolidationChoice &choice)
{
    return sweepJson(choice);
}

} // namespace npp
