/**
 * @file
 * The `sweeps` workload: every empirical sweep the repository
 * has, on held-out seeded draws of the seven demo programs, with a
 * predictor trained during set-up (the held-out check of *Autotuning
 * GPU Kernels via Static and Predictive Analysis*).
 *
 * Set-up builds the programs, runs one seeded training draw per program
 * through the full 48-candidate cold sweep (harvesting samples into a
 * scratch store) and trains the ridge model; the untraced run repeats
 * it from scratch after the gates and reports the median. The timed
 * passes then run, per held-out draw, autotune (8 trials), the
 * model-pruned predictiveSweep (top 12), searchConsolidation
 * (runtime-sized programs) and searchFleet (up to 4 devices):
 *   - cold: empty memory tier, fresh disk tier;
 *   - memory: the same calls again, answered from memory;
 *   - disk: memory dropped, answered from the disk tier.
 * The short memory and disk passes run three times each (median).
 *
 * Gates: memory and disk results equal cold results bit for bit; every
 * cold winner, re-simulated exactly (functional, no block classing)
 * outside the timed passes, reproduces its reported time bit for bit;
 * the pruned winner is never slower than the score choice.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/consolidate.h"
#include "codegen/autotune.h"
#include "common.h"
#include "predict/predict.h"
#include "server/programs.h"
#include "sim/consolidation.h"
#include "sim/evalcache.h"
#include "sim/fleet.h"
#include "support/trace.h"

namespace perfbench {

namespace {

constexpr int kAutotuneTrials = 8;
constexpr int kFleetDevices = 4;
constexpr int kReplayPasses = 3;
/** Set-ups per untraced run (the median is reported). */
constexpr int kSetupReps = 3;

/** One built demo program with its bound inputs. */
struct Draw
{
    DrawKey key;
    std::unique_ptr<npp::DemoProgram> demo;
    std::unique_ptr<npp::Bindings> args;
    npp::CompileOptions copts;
};

Draw
buildDraw(DrawKey key)
{
    Draw d;
    std::string error;
    d.demo = npp::buildDemoProgram(key.program, key.sizes, &error);
    if (!d.demo) {
        std::fprintf(stderr, "perfbench: %s: %s\n", key.id().c_str(),
                     error.c_str());
        std::exit(1);
    }
    d.args = std::make_unique<npp::Bindings>(*d.demo->prog);
    d.demo->bind(*d.args);
    d.copts.paramValues = d.demo->params;
    d.copts.fuseMapReduce = d.demo->fuse;
    d.key = std::move(key);
    return d;
}

/** The winners one pass found for one draw. */
struct Winners
{
    npp::AutotuneResult autotune;
    npp::PredictSweep predict;
    bool consolidated = false; //!< searchConsolidation ran
    npp::ConsolidationChoice consolidation;
    npp::KernelSpec fleetSpec;
    std::shared_ptr<npp::Program> fleetProgram; //!< keeps fleetSpec.prog alive
    uint64_t fleetSeed = 0;
    npp::FleetChoice fleet;
    int calls = 0;
};

Winners
sweepDraw(const Draw &d, const npp::Gpu &gpu, const npp::PredictModel &model)
{
    Winners w;
    const npp::Program &prog = *d.demo->prog;
    {
        npp::ScopedTimer span("perfbench.sweep");
        npp::AutotuneOptions aopts;
        aopts.topCandidates = kAutotuneTrials;
        w.autotune = npp::autotune(prog, gpu, *d.args, d.copts, aopts);
    }
    {
        npp::ScopedTimer span("perfbench.sweep");
        w.predict = npp::predictiveSweep(gpu, prog, *d.args, d.copts, &model,
                                         npp::kPredictDefaultTopK);
    }
    w.calls = 2;
    if (npp::hasDynamicInnerExtent(prog)) {
        npp::ScopedTimer span("perfbench.sweep");
        w.consolidated = true;
        w.consolidation = npp::searchConsolidation(gpu, prog, *d.args,
                                                   d.copts, {});
        w.calls++;
    }
    {
        npp::ScopedTimer span("perfbench.sweep");
        const npp::CompileResult compiled =
            npp::compileProgram(prog, gpu.config(), d.copts);
        w.fleetSpec = compiled.spec;
        w.fleetProgram = compiled.ownedProgram;
        w.fleetSeed = npp::EvalCache::combine(
            npp::EvalCache::combine(npp::EvalCache::hashProgram(prog),
                                    npp::EvalCache::hashCompileOptions(
                                        d.copts)),
            npp::EvalCache::hashDevice(gpu.config()));
        w.fleet = npp::searchFleet(gpu, w.fleetSpec, *d.args,
                                   npp::fleetK20c(kFleetDevices), {},
                                   w.fleetSeed);
        w.calls++;
    }
    return w;
}

/** The decisions and times one pass's results carry, as comparable
 *  text (doubles in hex, so equal text means equal bits). */
std::string
summary(const Winners &w)
{
    char buf[256];
    std::string s = w.autotune.best.mapping.toString();
    std::snprintf(buf, sizeof buf, "|%a|%a|", w.autotune.bestMs,
                  w.autotune.scoreChoiceMs);
    s += buf + w.predict.best.toString();
    std::snprintf(buf, sizeof buf, "|%a|%lld|", w.predict.bestMs,
                  static_cast<long long>(w.predict.survivors));
    s += buf;
    if (w.consolidated) {
        std::snprintf(buf, sizeof buf, "%d|%d|%a|%a|",
                      w.consolidation.consolidated ? 1 : 0,
                      static_cast<int>(w.consolidation.granularity),
                      w.consolidation.staticMs, w.consolidation.bestMs);
        s += buf;
    }
    std::snprintf(buf, sizeof buf, "%d|%lld|%a", w.fleet.deviceCount,
                  static_cast<long long>(w.fleet.splitPoint),
                  w.fleet.fleetMs);
    return s + buf;
}

struct Pass
{
    std::vector<Winners> winners;
    double wallS = 0.0;
    int calls = 0;
};

Pass
runPass(const std::vector<Draw> &draws, const npp::Gpu &gpu,
        const npp::PredictModel &model)
{
    Pass pass;
    const auto t0 = Clock::now();
    for (const Draw &d : draws) {
        pass.winners.push_back(sweepDraw(d, gpu, model));
        pass.calls += pass.winners.back().calls;
    }
    pass.wallS = secondsSince(t0);
    return pass;
}

/** Exact (functional, every block simulated) re-run of a spec. */
double
exactMs(const npp::Gpu &gpu, const npp::KernelSpec &spec,
        const npp::Bindings &args)
{
    npp::ExecOptions exact;
    exact.blockClasses = false;
    return gpu.run(spec, args, exact).totalMs;
}

double
exactFixedMs(const npp::Gpu &gpu, const Draw &d,
             const npp::CompileOptions &copts)
{
    const npp::CompileResult compiled =
        npp::compileProgram(*d.demo->prog, gpu.config(), copts);
    return exactMs(gpu, compiled.spec, *d.args);
}

void
checkWinners(const Draw &d, const Winners &w, const npp::Gpu &gpu,
             Result &out)
{
    const std::string id = d.key.id();
    const auto same = [](double a, double b) {
        return std::memcmp(&a, &b, sizeof a) == 0;
    };

    out.gate(same(exactMs(gpu, w.autotune.best, *d.args), w.autotune.bestMs),
             id + ": autotune winner does not re-simulate to its time");

    npp::CompileOptions fixed = d.copts;
    fixed.strategy = npp::Strategy::Fixed;
    fixed.fixedMapping = w.predict.best;
    out.gate(same(exactFixedMs(gpu, d, fixed), w.predict.bestMs),
             id + ": pruned-sweep winner does not re-simulate to its time");
    out.gate(!w.predict.candidates.empty() &&
                 w.predict.candidates[0].isScoreChoice &&
                 w.predict.bestMs <= w.predict.candidates[0].exactMs,
             id + ": pruned winner slower than the score choice");

    if (w.consolidated) {
        npp::CompileOptions copts = d.copts;
        if (w.consolidation.consolidated) {
            copts.strategy = npp::Strategy::Consolidate;
            copts.binGranularity = w.consolidation.granularity;
        }
        out.gate(same(exactFixedMs(gpu, d, copts), w.consolidation.bestMs),
                 id + ": consolidation winner does not re-simulate to its "
                      "time");
    }

    npp::ExecOptions exact;
    exact.blockClasses = false;
    const npp::FleetReport fleet = npp::runOnFleet(
        gpu, w.fleetSpec, *d.args, npp::fleetK20c(w.fleet.deviceCount),
        exact, w.fleet.splitPoint);
    out.gate(same(fleet.fleetMs, w.fleet.fleetMs),
             id + ": fleet winner does not re-simulate to its time");
}

/** The draws and the model one set-up produced. */
struct Setup
{
    std::vector<Draw> train, test;
    size_t samples = 0;
    std::optional<npp::PredictModel> model;
    double trainS = 0.0; //!< loading the samples and training
    double seconds = 0.0;
};

/** One set-up: build the draws, harvest samples from a full cold sweep
 *  of every training draw into `sampleDir` (empty memory tier, no disk
 *  tier), and train the model on them. */
Setup
setUp(const std::vector<DrawKey> &trainKeys,
      const std::vector<DrawKey> &testKeys, const std::string &sampleDir,
      const npp::Gpu &gpu)
{
    npp::EvalCache &cache = npp::EvalCache::instance();
    npp::PredictRuntime &predict = npp::PredictRuntime::instance();
    if (!makeDirs(sampleDir)) {
        std::fprintf(stderr, "perfbench: cannot create %s\n",
                     sampleDir.c_str());
        std::exit(1);
    }
    Setup s;
    const auto t0 = Clock::now();
    for (const DrawKey &k : trainKeys)
        s.train.push_back(buildDraw(k));
    for (const DrawKey &k : testKeys)
        s.test.push_back(buildDraw(k));
    cache.setDiskDir("");
    cache.clear();
    predict.setSampleDir(sampleDir);
    for (const Draw &d : s.train)
        npp::predictiveSweep(gpu, *d.demo->prog, *d.args, d.copts, nullptr,
                             npp::kPredictDefaultTopK);
    predict.setSampleDir("");
    const auto trainStart = Clock::now();
    npp::SampleLoadStats loadStats;
    const std::vector<npp::PredictSample> samples =
        npp::loadPredictSamples(sampleDir, &loadStats);
    s.model = npp::trainPredictModel(samples);
    s.samples = samples.size();
    s.trainS = secondsSince(trainStart);
    s.seconds = secondsSince(t0);
    if (!s.model) {
        std::fprintf(stderr, "perfbench: no model from %zu samples\n",
                     samples.size());
        std::exit(1);
    }
    return s;
}

} // namespace

void
runSweeps(const RunConfig &cfg, Result &out)
{
    const std::string sampleDir = cfg.scratch + "/sweeps-samples";
    const std::string diskDir = cfg.scratch + "/sweeps-disk";
    if (!makeDirs(diskDir)) {
        std::fprintf(stderr, "perfbench: cannot create %s\n",
                     diskDir.c_str());
        std::exit(1);
    }
    printHeader(cfg, 1, {cfg.scratch});

    // Draws: one training draw and `heldOut` held-out draws per
    // program, all distinct, from narrow bands around fig_predict's
    // sizes (see Ranges::Sweep).
    const std::vector<std::string> &programs = npp::demoProgramNames();
    const int heldOut = std::max(1, cfg.seconds * 3 / 10);
    npp::Rng rng(0x5eeb000000000000ULL ^ cfg.seed);
    std::vector<std::string> taken;
    std::vector<DrawKey> trainKeys, testKeys;
    for (const std::string &p : programs) {
        for (auto &k : drawKeys(p, 1, Ranges::Sweep, rng, taken))
            trainKeys.push_back(std::move(k));
        for (auto &k : drawKeys(p, heldOut, Ranges::Sweep, rng, taken))
            testKeys.push_back(std::move(k));
    }
    shuffle(testKeys, rng);

    const npp::Gpu gpu;
    npp::EvalCache &cache = npp::EvalCache::instance();

    // Set-up: build, harvest, train. The untraced run sets up
    // kSetupReps - 1 more times after the gates, each time from scratch
    // on the same draws, and reports the median.
    const Setup setup = setUp(trainKeys, testKeys, sampleDir + "-0", gpu);
    const std::vector<Draw> &test = setup.test;
    const npp::PredictModel &model = *setup.model;

    // The timed passes.
    npp::Trace &tr = npp::Trace::instance();
    cache.clear();
    cache.setDiskDir(diskDir);
    tr.setEnabled(cfg.trace);
    tr.clear();
    Pass cold = runPass(test, gpu, model);
    LayerReadings layers; // the cold pass
    double sweepSpanS = 0.0;
    if (cfg.trace) {
        layers.add();
        sweepSpanS = spanSeconds("perfbench.sweep");
    }
    // The memory and disk passes take about half a second each, so each
    // runs kReplayPasses times and its median time is reported. clear()
    // drops the memory tier and resets the cache counters, so the cache
    // readings sum the counters of every phase.
    npp::EvalCacheStats cstats = cache.stats();
    cache.resetCounters();
    std::vector<Pass> replays;
    std::vector<double> warmS, diskS;
    for (int r = 0; r < kReplayPasses; r++) {
        replays.push_back(runPass(test, gpu, model));
        warmS.push_back(replays.back().wallS);
    }
    addCacheStats(cstats, cache.stats());
    for (int r = 0; r < kReplayPasses; r++) {
        cache.clear();
        replays.push_back(runPass(test, gpu, model));
        diskS.push_back(replays.back().wallS);
        addCacheStats(cstats, cache.stats());
    }
    tr.setEnabled(false);
    cache.setDiskDir("");

    // Gates, outside the timed passes.
    if (cfg.breakGate)
        replays.back().winners[0].predict.bestMs =
            std::nextafter(replays.back().winners[0].predict.bestMs, 1e300);
    for (size_t i = 0; i < test.size(); i++) {
        const std::string ref = summary(cold.winners[i]);
        for (size_t r = 0; r < replays.size(); r++) {
            out.gate(summary(replays[r].winners[i]) == ref,
                     test[i].key.id() + ": " +
                         (r < static_cast<size_t>(kReplayPasses) ? "memory"
                                                                 : "disk") +
                         " pass results differ from cold");
        }
        checkWinners(test[i], cold.winners[i], gpu, out);
    }

    double passS = cold.wallS;
    int calls = cold.calls;
    for (const Pass &p : replays) {
        passS += p.wallS;
        calls += p.calls;
    }
    if (!cfg.trace) {
        out.set("cold_s", cold.wallS);
        out.set("warm_s", median(warmS) + median(diskS));
        out.set("req_per_s", static_cast<double>(calls) / passS);
        out.set("peak_rss_mb", peakRssMb());
        std::vector<double> setups = {setup.seconds};
        for (int rep = 1; rep < kSetupReps; rep++) {
            setups.push_back(setUp(trainKeys, testKeys,
                                   sampleDir + "-" + std::to_string(rep), gpu)
                                 .seconds);
        }
        out.set("setup_s", median(setups));
        return;
    }

    // Per-layer: the registry over the cold pass (the one cold_s
    // measures), the eval cache over all three passes.
    layers.emit(out);
    emitCacheStats(cstats, out);
    out.set("predict.train_s", setup.trainS);
    out.set("predict.samples", static_cast<double>(setup.samples));
    // Share of the harness's sweep calls spent inside the program's own
    // sweep spans (the rest: compiling the spec the fleet sweep shards).
    out.set("bench.coverage", (layers.autotuneS + layers.predictS +
                               layers.consolidationS + layers.fleetS) /
                                  sweepSpanS);

    // The bindings fingerprint, timed on every held-out draw.
    double hashS = 0.0, hashBytes = 0.0;
    for (const Draw &d : test) {
        const auto t0 = Clock::now();
        const uint64_t fp = npp::EvalCache::hashBindings(*d.args);
        hashS += secondsSince(t0);
        hashBytes += bindingBytes(*d.demo->prog, *d.args);
        if (fp == 0)
            std::fprintf(stderr, "perfbench: zero fingerprint\n");
    }
    out.set("runtime.fingerprint_ms",
            1e3 * hashS / static_cast<double>(test.size()));
    out.set("runtime.fingerprint_gb_per_s", hashBytes / hashS * 1e-9);
    out.set("support.trace_overhead_pct",
            traceOverheadPct(layers.spans, cold.wallS));
}

} // namespace perfbench
