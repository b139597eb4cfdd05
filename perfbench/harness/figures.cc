/**
 * @file
 * The `figures` workload: the Fig 12/13/14 sweeps with the figure
 * binaries' 19 apps, sizes, strategies, Manual comparators and validate
 * flags (bench/pipeline.h fig12Sweep / fig13Sweep / fig14Sweep). Apps
 * run one after another, so pass time does not depend on how unequal
 * apps pack onto the task pool; the pool keeps its default size for the
 * work inside each app (candidate scoring).
 *
 * Set-up builds the apps and their inputs (median of builds in three
 * windows across the run). The cold pass runs against an empty memory
 * tier and no disk tier; the warm pass, on freshly built apps, replays
 * every launch from memory. Gates: every validated run within 1e-6 of
 * the reference, and warm rows bit-identical to cold rows.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "apps/realworld.h"
#include "apps/rodinia.h"
#include "common.h"
#include "sim/evalcache.h"
#include "support/trace.h"

namespace perfbench {

namespace {

using npp::App;
using npp::AppResult;
using npp::Strategy;

struct FigApp
{
    int figure; //!< 12, 13 or 14
    std::unique_ptr<App> app;
};

std::vector<FigApp>
buildApps()
{
    std::vector<FigApp> apps;
    const auto add = [&](int fig, std::unique_ptr<App> app) {
        apps.push_back({fig, std::move(app)});
    };
    add(12, npp::makeNearestNeighbor());
    add(12, npp::makeGaussian());
    add(12, npp::makeHotspot());
    add(12, npp::makeMandelbrot());
    add(12, npp::makeSrad());
    add(12, npp::makePathfinder());
    add(12, npp::makeLud());
    add(12, npp::makeBfs());
    for (bool colMajor : {false, true}) {
        add(13, npp::makeGaussian(192, colMajor));
        add(13, npp::makeHotspot(256, 4, colMajor));
        add(13, npp::makeMandelbrot(256, 1024, 24, colMajor));
        add(13, npp::makeSrad(224, 2, colMajor));
    }
    add(14, npp::makeQpscd());
    add(14, npp::makeMsmBuilder());
    add(14, npp::makeNaiveBayes());
    return apps;
}

/** One figure row, computed exactly as the figure's sweep computes it.
 *  `maxError` is set for the validated runs (-1 when none ran). */
std::vector<double>
figureRow(int figure, App &app, const npp::Gpu &gpu, double *maxError)
{
    *maxError = -1.0;
    if (figure == 12) {
        const double manual = app.runManualMs(gpu);
        AppResult multi = app.run(gpu, Strategy::MultiDim, true);
        AppResult oneD = app.run(gpu, Strategy::OneD);
        *maxError = multi.maxError;
        return {1.0, multi.gpuMs / manual, oneD.gpuMs / manual};
    }
    if (figure == 13) {
        const double multi = app.run(gpu, Strategy::MultiDim).gpuMs;
        const double tbt = app.run(gpu, Strategy::ThreadBlockThread).gpuMs;
        const double warp = app.run(gpu, Strategy::WarpBased).gpuMs;
        return {1.0, tbt / multi, warp / multi};
    }
    AppResult multi = app.run(gpu, Strategy::MultiDim, true);
    AppResult oneD = app.run(gpu, Strategy::OneD);
    *maxError = multi.maxError;
    const double cpu = multi.cpuMs;
    return {1.0, oneD.gpuMs / cpu, multi.gpuMs / cpu,
            (multi.gpuMs + multi.transferMs) / cpu};
}

/** What one pass measured. */
struct Pass
{
    std::vector<std::vector<double>> rows;
    std::vector<double> maxErrors; //!< one per app (-1: not validated)
    double wallS = 0.0;
    double figS[3] = {0.0, 0.0, 0.0}; //!< fig12, fig13, fig14
    /** Registry readings of the app layer (traced runs). */
    double launches = 0.0, launchS = 0.0, simRunS = 0.0, compileS = 0.0;
    double appSpanS = 0.0; //!< the harness's own per-app spans
    npp::EvalCacheStats cache;
};

Pass
runPass(std::vector<FigApp> &apps, const npp::Gpu &gpu, bool trace)
{
    npp::Trace &tr = npp::Trace::instance();
    if (trace)
        tr.clear();
    npp::EvalCache::instance().resetCounters();

    Pass pass;
    const auto t0 = Clock::now();
    for (FigApp &fa : apps) {
        const auto ta = Clock::now();
        double maxError = -1.0;
        {
            npp::ScopedTimer span("perfbench.app");
            pass.rows.push_back(figureRow(fa.figure, *fa.app, gpu,
                                          &maxError));
        }
        pass.maxErrors.push_back(maxError);
        pass.figS[fa.figure - 12] += secondsSince(ta);
    }
    pass.wallS = secondsSince(t0);

    pass.cache = npp::EvalCache::instance().stats();
    if (trace) {
        pass.launches = tr.counterValue("app.launches");
        pass.launchS = spanSeconds("app.launch");
        pass.simRunS = spanSeconds("sim.run");
        pass.compileS = spanSeconds("codegen.compile");
        pass.appSpanS = spanSeconds("perfbench.app");
    }
    return pass;
}

} // namespace

void
runFigures(const RunConfig &cfg, Result &out)
{
    printHeader(cfg, 1, {});
    const npp::Gpu gpu;

    // Set-up: build the 19 apps and their inputs. One build takes
    // ~0.15 s, and the machine's speed shifts over seconds, so builds
    // run in three windows of kSetupReps (before the cold pass, between
    // the passes and after the warm pass) and the median of all is
    // reported. Each pass runs on the apps of the latest build, as a
    // figure binary builds its apps afresh on every run.
    constexpr int kSetupReps = 5;
    std::vector<double> setups;
    std::vector<FigApp> apps;
    const auto buildWindow = [&] {
        for (int i = 0; i < kSetupReps; i++) {
            apps.clear();
            const auto t0 = Clock::now();
            apps = buildApps();
            setups.push_back(secondsSince(t0));
        }
    };

    npp::Trace &tr = npp::Trace::instance();
    npp::EvalCache::instance().clear();
    LayerReadings layers; // both passes
    buildWindow();
    tr.setEnabled(cfg.trace);
    Pass cold = runPass(apps, gpu, cfg.trace);
    if (cfg.trace)
        layers.add();
    tr.setEnabled(false);
    buildWindow();
    tr.setEnabled(cfg.trace);
    Pass warm = runPass(apps, gpu, cfg.trace);
    if (cfg.trace)
        layers.add();
    tr.setEnabled(false);
    buildWindow();

    // Gates, outside the timed passes.
    if (cfg.breakGate)
        warm.rows[0][1] = std::nextafter(warm.rows[0][1], 1e300);
    for (size_t i = 0; i < apps.size(); i++) {
        const std::string name = apps[i].app->name();
        for (const Pass *p : {&cold, &warm}) {
            if (p->maxErrors[i] >= 0.0) {
                out.gate(p->maxErrors[i] <= 1e-6,
                         name + ": validation error " +
                             std::to_string(p->maxErrors[i]));
            }
        }
        const auto &c = cold.rows[i];
        const auto &w = warm.rows[i];
        out.gate(c.size() == w.size() &&
                     std::memcmp(c.data(), w.data(),
                                 c.size() * sizeof(double)) == 0,
                 name + ": warm row differs from cold row");
    }

    if (!cfg.trace) {
        out.set("setup_s", median(setups));
        out.set("cold_s", cold.wallS);
        out.set("warm_s", warm.wallS);
        out.set("req_per_s", 2.0 * static_cast<double>(apps.size()) /
                                 (cold.wallS + warm.wallS));
        out.set("peak_rss_mb", peakRssMb());
        return;
    }

    layers.emit(out);
    npp::EvalCacheStats cache = cold.cache;
    addCacheStats(cache, warm.cache);
    emitCacheStats(cache, out);
    out.set("apps.launches", cold.launches + warm.launches);
    out.set("apps.fig12_cold_s", cold.figS[0]);
    out.set("apps.fig13_cold_s", cold.figS[1]);
    out.set("apps.fig14_cold_s", cold.figS[2]);
    out.set("apps.fig12_warm_s", warm.figS[0]);
    out.set("apps.fig13_warm_s", warm.figS[1]);
    out.set("apps.fig14_warm_s", warm.figS[2]);
    out.set("apps.launch_self_cold_s",
            cold.launchS - cold.simRunS - cold.compileS);
    out.set("apps.launch_self_warm_s",
            warm.launchS - warm.simRunS - warm.compileS);
    // Share of the harness's app calls spent inside program launches
    // (the rest is app host code and output comparison).
    out.set("bench.coverage", (cold.launchS + warm.launchS) /
                                  (cold.appSpanS + warm.appSpanS));
    out.set("support.trace_overhead_pct",
            traceOverheadPct(layers.spans, cold.wallS + warm.wallS));
}

} // namespace perfbench
