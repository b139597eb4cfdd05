/**
 * @file
 * Predictive search pruning payoff: for the fig12/fig13 program set the
 * learned cost model ranks the score-ordered candidate pick list and
 * only the top-k survivors are exactly simulated, so a cold sweep (no
 * eval-cache entries anywhere) does a fraction of the simulation work.
 * The figure harvests its own training set first — phase A runs the
 * full cold sweeps with the sample observer attached, phase B trains a
 * ridge model on that harvest, phase C reruns every sweep cold with the
 * model — so the binary is self-contained and deterministic.
 *
 * Columns: full cold-sweep wall ms, pruned cold-sweep wall ms,
 * candidates simulated by each, wall speedup (full / pruned).
 *
 * Three gates make this binary a regression check, not just a figure:
 *   - every pruned sweep must select the same mapping as the full
 *     sweep, or the binary exits 4 — pruning is a search-time
 *     optimization, never a search-result change;
 *   - the selected mapping's simulated time must be bit-identical
 *     between the two sweeps (the exact simulator stays the oracle; the
 *     model only reorders what gets simulated), or the binary exits 5;
 *   - the aggregate cold-sweep wall time must drop by at least 1.5x, or
 *     the pruning machinery has stopped paying for itself and the
 *     binary exits 6.
 */

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "predict/predict.h"
#include "server/programs.h"
#include "sim/gpu.h"

namespace npp {
namespace {

/** The fig12/fig13 program set at sweep-friendly sizes: large enough
 *  that simulation dominates compile time (so pruning shows up in wall
 *  clock), small enough that 48-candidate full sweeps stay tractable. */
const struct
{
    const char *name;
    std::map<std::string, int64_t> sizes;
} kPrograms[] = {
    {"sumrows", {{"rows", 512}, {"cols", 512}}},
    {"sumcols", {{"rows", 512}, {"cols", 512}}},
    {"weightedrows", {{"rows", 512}, {"cols", 512}}},
    {"weightedcols", {{"rows", 512}, {"cols", 512}}},
    {"pagerank", {{"nodes", 4096}}},
    {"mandelbrot", {{"height", 128}, {"width", 256}}},
    {"spmv", {{"rows", 2048}, {"avgdeg", 8}}},
};

struct TimedSweep
{
    PredictSweep sweep;
    double wallMs = 0.0;
};

/** Run one cold sweep: drop every cached evaluation first so the wall
 *  clock measures real simulation work, not cache replay. */
TimedSweep
coldSweep(const Gpu &gpu, const DemoProgram &demo, const PredictModel *model)
{
    EvalCache::instance().clear();
    Bindings args(*demo.prog);
    demo.bind(args);
    CompileOptions copts;
    copts.paramValues = demo.params;
    copts.fuseMapReduce = demo.fuse;

    const auto t0 = std::chrono::steady_clock::now();
    TimedSweep point;
    point.sweep = predictiveSweep(gpu, *demo.prog, args, copts, model,
                                  kPredictDefaultTopK);
    const auto t1 = std::chrono::steady_clock::now();
    point.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return point;
}

void
runFigure()
{
    // The bench owns its cache state: detach any ambient disk tier so a
    // warm NPP_EVAL_CACHE_DIR cannot turn the "cold" sweeps into
    // replays, and harvest into a private sample store.
    EvalCache::instance().setDiskDir("");
    char tmpl[] = "/tmp/nppfigpredict_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
        std::fprintf(stderr, "fig_predict: mkdtemp failed\n");
        std::exit(1);
    }
    const std::string sampleDir = tmpl;

    Gpu gpu;
    std::vector<std::unique_ptr<DemoProgram>> programs;
    for (const auto &p : kPrograms) {
        std::string error;
        programs.push_back(buildDemoProgram(p.name, p.sizes, &error));
        if (!programs.back()) {
            std::fprintf(stderr, "fig_predict: %s: %s\n", p.name,
                         error.c_str());
            std::exit(1);
        }
    }

    banner("Predictive search pruning on the fig12/fig13 program set "
           "(simulated K20c)",
           "Cold sweeps only (eval cache cleared before every sweep). "
           "Phase A\nfull-sweeps each program and harvests training "
           "pairs; phase B trains\nthe ridge model; phase C repeats "
           "every sweep model-pruned. Gates:\nsame selected mapping, "
           "bit-identical best time, >= 1.5x aggregate\nwall speedup.");

    // Phase A: full cold sweeps, observer harvesting every simulation.
    PredictRuntime::instance().setSampleDir(sampleDir);
    std::vector<TimedSweep> full;
    for (const auto &demo : programs)
        full.push_back(coldSweep(gpu, *demo, nullptr));
    PredictRuntime::instance().setSampleDir("");

    // Phase B: train on the harvest.
    SampleLoadStats loadStats;
    const std::vector<PredictSample> samples =
        loadPredictSamples(sampleDir, &loadStats);
    const std::optional<PredictModel> model = trainPredictModel(samples);
    if (!model.has_value()) {
        std::fprintf(stderr,
                     "fig_predict: training produced no model from %zu "
                     "samples (%llu rejected)\n",
                     samples.size(),
                     static_cast<unsigned long long>(loadStats.rejected));
        std::exit(1);
    }
    std::printf("\ntrained: %llu samples, feature schema v%u\n",
                static_cast<unsigned long long>(model->trainedSamples),
                model->featureVersion);

    // Phase C: pruned cold sweeps with the trained model.
    std::vector<TimedSweep> pruned;
    for (const auto &demo : programs)
        pruned.push_back(coldSweep(gpu, *demo, &*model));

    const std::vector<std::string> series = {"Full (ms)", "Pruned (ms)",
                                             "FullSims", "PrunedSims",
                                             "Speedup"};
    std::vector<Row> rows;
    double fullTotal = 0.0, prunedTotal = 0.0;
    for (size_t i = 0; i < programs.size(); i++) {
        const PredictSweep &f = full[i].sweep;
        const PredictSweep &p = pruned[i].sweep;
        const char *name = kPrograms[i].name;

        // Gate 1: pruning must never change the selected mapping.
        if (!(p.best == f.best)) {
            std::fprintf(stderr,
                         "fig_predict: %s: pruned sweep selected %s but "
                         "the full sweep selected %s\n",
                         name, p.best.toString().c_str(),
                         f.best.toString().c_str());
            std::exit(4);
        }
        // Gate 2: the oracle's verdict on that mapping is bit-exact.
        if (p.bestMs != f.bestMs) {
            std::fprintf(stderr,
                         "fig_predict: %s: best time changed under "
                         "pruning (%.17g ms vs %.17g ms)\n",
                         name, p.bestMs, f.bestMs);
            std::exit(5);
        }

        fullTotal += full[i].wallMs;
        prunedTotal += pruned[i].wallMs;
        rows.push_back(Row{name,
                           {full[i].wallMs, pruned[i].wallMs,
                            static_cast<double>(f.survivors),
                            static_cast<double>(p.survivors),
                            full[i].wallMs / pruned[i].wallMs}});
    }
    rows.push_back(Row{"TOTAL",
                       {fullTotal, prunedTotal, 0.0, 0.0,
                        fullTotal / prunedTotal}});

    std::printf("\n");
    table(series, rows, 16);

    std::printf(
        "\nShapes to check:\n"
        "  - PrunedSims is a fraction of FullSims on every row: the\n"
        "    model ranks the 48-candidate pick list and only the top-k\n"
        "    (plus the score choice) reach the exact simulator;\n"
        "  - Full (ms) and Pruned (ms) track the simulation counts —\n"
        "    the per-candidate cost is unchanged, only the count drops;\n"
        "  - the TOTAL speedup clears 1.5x; per-row speedups vary with\n"
        "    how much of each sweep's wall time is compilation (which\n"
        "    pruning cannot remove).\n");

    // Gate 3: the figure's reason to exist.
    const double speedup = fullTotal / prunedTotal;
    if (speedup < 1.5) {
        std::fprintf(stderr,
                     "fig_predict: pruned cold sweeps are only %.2fx "
                     "faster than full (%.1f ms vs %.1f ms); the 1.5x "
                     "floor has regressed\n",
                     speedup, prunedTotal, fullTotal);
        std::exit(6);
    }

    const std::string cmd = "rm -rf '" + sampleDir + "'";
    (void)!std::system(cmd.c_str());
}

} // namespace
} // namespace npp

int
main(int argc, char **argv)
{
    if (int rc = npp::benchInit(argc, argv))
        return rc;
    npp::runFigure();
    return npp::benchFinish();
}
