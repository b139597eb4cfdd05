#include "sim/sweep.h"

#include <sstream>

#include "sim/fleet.h"
#include "support/parallel.h"
#include "support/strings.h"

namespace npp {

const SweepPoint *
Sweep::winner() const
{
    return bestIndex < 0 ? nullptr
                         : &candidates[static_cast<size_t>(bestIndex)];
}

const SweepPoint *
Sweep::baseline() const
{
    for (const SweepPoint &p : candidates) {
        if (p.isScoreChoice)
            return &p;
    }
    return nullptr;
}

Sweep
runSweep(const Gpu &gpu, const Program &prog, const Bindings &args,
         std::vector<SweepPoint> points, const ExecOptions &eopts,
         const FleetConfig &fleet)
{
    std::vector<size_t> run;
    bool compiles = false;
    for (size_t i = 0; i < points.size(); i++) {
        if (points[i].simulated()) {
            run.push_back(i);
            compiles |= points[i].spec == nullptr;
        }
    }
    EvalKeyParts parts;
    if (EvalCache::instance().enabled()) {
        if (compiles) {
            parts.program = EvalCache::hashProgram(prog);
            parts.device = EvalCache::hashDevice(gpu.config());
        }
        parts.bindings = EvalCache::hashBindings(args);
    }

    // Metrics-only runs never write the caller's buffers, so the points
    // are independent.
    ExecOptions eo = eopts;
    eo.metricsOnly = true;
    parallelFor(0, static_cast<int64_t>(run.size()), [&](int64_t k) {
        SweepPoint &p = points[run[static_cast<size_t>(k)]];
        if (!p.spec) {
            p.report = cachedCompileAndRun(gpu, prog, args, p.copts, eo,
                                           /*wantOutputs=*/false, nullptr,
                                           &parts);
            p.exactMs = p.report.totalMs;
            return;
        }
        FleetConfig f = fleet;
        f.deviceCount = p.deviceCount;
        FleetReport r = runOnFleet(gpu, *p.spec, args, f, eo, p.splitPoint,
                                   p.specSeed, parts.bindings);
        p.exactMs = r.fleetMs;
        p.interMs = r.interMs;
    });

    // Serial fold in list order: identical tie-breaking however the
    // times were produced.
    Sweep sweep;
    for (size_t i : run) {
        if (sweep.bestIndex < 0 ||
            points[i].exactMs < points[sweep.bestIndex].exactMs)
            sweep.bestIndex = static_cast<int>(i);
    }
    sweep.candidates = std::move(points);
    if (const SweepPoint *best = sweep.winner())
        sweep.selected =
            fmt("{} at {} ms", best->label, fixed(best->exactMs, 6));
    return sweep;
}

std::string
sweepText(const Sweep &sweep)
{
    std::ostringstream os;
    os << sweep.title << ":\n";
    for (const SweepPoint &p : sweep.candidates) {
        os << "  " << p.label;
        if (!p.filtered.empty())
            os << "  hard-filtered: " << p.filtered;
        else if (p.pruned)
            os << "  pruned";
        else
            os << "  " << fixed(p.exactMs, 4) << " ms";
        if (!p.note.empty())
            os << "  (" << p.note << ")";
        os << "\n";
    }
    os << "selected: " << sweep.selected << "\n";
    return os.str();
}

std::string
sweepJson(const Sweep &sweep)
{
    const SweepPoint *best = sweep.winner();
    const SweepPoint *base = sweep.baseline();
    const double bestMs = best ? best->exactMs : 0.0;
    const double baseMs = base && base->simulated() ? base->exactMs : 0.0;
    std::ostringstream os;
    os << "{\"sweep\":\"" << jsonEscape(sweep.kind) << "\",\"title\":\""
       << jsonEscape(sweep.title) << "\",\"best\":" << sweep.bestIndex
       << ",\"best_ms\":" << exactNum(bestMs)
       << ",\"baseline_ms\":" << exactNum(baseMs) << ",\"speedup\":"
       << exactNum(bestMs > 0.0 && baseMs > 0.0 ? baseMs / bestMs : 1.0)
       << ",\"selected\":\"" << jsonEscape(sweep.selected)
       << "\",\"points\":[";
    for (size_t i = 0; i < sweep.candidates.size(); i++) {
        const SweepPoint &p = sweep.candidates[i];
        os << (i ? "," : "") << "{\"label\":\"" << jsonEscape(p.label)
           << "\",\"devices\":" << p.deviceCount
           << ",\"split\":" << p.splitPoint
           << ",\"score\":" << exactNum(p.score)
           << ",\"predicted_ms\":" << exactNum(p.predictedMs)
           << ",\"score_choice\":" << (p.isScoreChoice ? "true" : "false");
        if (!p.filtered.empty()) {
            os << ",\"status\":\"filtered\",\"verdict\":\""
               << jsonEscape(p.filtered) << "\"";
        } else if (p.pruned) {
            os << ",\"status\":\"pruned\"";
        } else {
            os << ",\"status\":\"simulated\",\"ms\":" << exactNum(p.exactMs);
        }
        os << ",\"note\":\"" << jsonEscape(p.note) << "\"}";
    }
    os << "]}";
    return os.str();
}

} // namespace npp
