/**
 * @file
 * Determinism regression tests for the parallel evaluation pipeline.
 * The optimizations that make evaluation fast — metrics-only trials,
 * block-equivalence-class simulation, the EvalCache, parallel autotune —
 * are only legal because they are report-*identical* to the plain serial
 * functional simulation. These tests enforce that bit-for-bit:
 *
 *  - functional, metrics-only exact, and metrics-only classed execution
 *    produce the same SimReport (modulo the classedBlocks diagnostic);
 *  - metrics-only runs never touch the caller's output buffers;
 *  - rebuilding an identical program/app yields identical reports
 *    (trace-site ids are structural, not node addresses);
 *  - serial and parallel autotune pick the same winner with the same
 *    trial measurements, each from a cleared cache.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/rodinia.h"
#include "apps/sums.h"
#include "classed_fixture.h"
#include "codegen/autotune.h"
#include "ir/builder.h"
#include "sim/evalcache.h"
#include "sim/gpu.h"
#include "support/parallel.h"

namespace npp {
namespace {

/** Bitwise SimReport comparison; the classing diagnostics (classedBlocks
 *  and classReason) are the only fields allowed to differ between exact
 *  and classed execution, and siteTraffic is compared only when both
 *  runs collected it (the sited mode's aggregate must still match the
 *  plain baseline bit for bit). */
void
expectSameReport(SimReport a, SimReport b, const char *what)
{
    SCOPED_TRACE(what);
    if (a.stats.siteTraffic.empty() || b.stats.siteTraffic.empty()) {
        a.stats.siteTraffic.clear();
        b.stats.siteTraffic.clear();
    }
    difftest::expectSameRows(a, b, /*diagnostics=*/false);
}

/** One mini-app: a program plus bound synthetic inputs. */
struct Workload
{
    std::shared_ptr<Program> prog;
    std::unique_ptr<Bindings> args;
    std::vector<std::vector<double>> storage; //!< owns bound arrays
};

/** sumRows-style map+reduce nest (dense, classable). */
Workload
makeRowSums(int64_t r, int64_t c)
{
    Workload w;
    ProgramBuilder b("det_rowsums");
    Arr in = b.inF64("in");
    Ex rows = b.paramI64("R");
    Ex cols = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(rows, out, [&](Body &fn, Ex i) {
        return fn.reduce(cols, Op::Add, [&](Body &, Ex j) {
            return in(i * cols + j);
        });
    });
    w.prog = std::make_shared<Program>(b.build());

    w.storage.emplace_back(r * c);
    for (int64_t i = 0; i < r * c; i++)
        w.storage.back()[i] = 0.25 * static_cast<double>(i % 97) + 1.0;
    w.storage.emplace_back(r, 0.0);

    w.args = std::make_unique<Bindings>(*w.prog);
    w.args->scalar(rows, static_cast<double>(r));
    w.args->scalar(cols, static_cast<double>(c));
    w.args->array(in, w.storage[0]);
    w.args->array(out, w.storage[1]);
    return w;
}

/** Escape-time loop (data-dependent trip count: divergence accounting). */
Workload
makeEscape(int64_t n)
{
    Workload w;
    ProgramBuilder b("det_escape");
    Ex size = b.paramI64("n");
    Arr out = b.outF64("out");
    b.foreach(size, [&](Body &fn, Ex i) {
        Mut v = fn.mut("v", i * 0.013);
        Mut steps = fn.mut("steps", Ex(0.0));
        fn.seqLoop(
            Ex(24),
            [&](Body &body, Ex) {
                body.assign(v, v.ex() * v.ex() * 0.5 + 0.3);
                body.assign(steps, steps.ex() + 1.0);
            },
            v.ex() > 2.0);
        fn.store(out, i, steps.ex());
    });
    w.prog = std::make_shared<Program>(b.build());

    w.storage.emplace_back(n, 0.0);
    w.args = std::make_unique<Bindings>(*w.prog);
    w.args->scalar(size, static_cast<double>(n));
    w.args->array(out, w.storage[0]);
    return w;
}

/** Indirect gather (BFS-flavored: index arithmetic through an array). */
Workload
makeGather(int64_t n)
{
    Workload w;
    ProgramBuilder b("det_gather");
    Arr idx = b.inF64("idx");
    Arr val = b.inF64("val");
    Ex size = b.paramI64("n");
    Arr out = b.outF64("out");
    b.map(size, out, [&](Body &, Ex i) {
        return val(idx(i)) + val(i);
    });
    w.prog = std::make_shared<Program>(b.build());

    w.storage.emplace_back(n);
    for (int64_t i = 0; i < n; i++)
        w.storage.back()[i] =
            static_cast<double>((i * 7919 + 13) % n);
    w.storage.emplace_back(n);
    for (int64_t i = 0; i < n; i++)
        w.storage[1][i] = 0.5 * static_cast<double>(i % 31);
    w.storage.emplace_back(n, 0.0);

    w.args = std::make_unique<Bindings>(*w.prog);
    w.args->scalar(size, static_cast<double>(n));
    w.args->array(idx, w.storage[0]);
    w.args->array(val, w.storage[1]);
    w.args->array(out, w.storage[2]);
    return w;
}

struct Mode
{
    const char *name;
    bool metricsOnly;
    bool blockClasses;
    bool siteStats;
};

constexpr Mode kModes[] = {
    {"functional", false, false, false},
    {"metrics-exact", true, false, false},
    {"metrics-classed", true, true, false},
    {"metrics-classed-sites", true, true, true},
};

TEST(Determinism, ExecutionModesAreReportIdentical)
{
    Gpu gpu;
    Workload loads[] = {makeRowSums(96, 64), makeEscape(4096),
                        makeGather(2048)};
    for (Workload &w : loads) {
        SCOPED_TRACE(w.prog->name());
        SimReport base;
        for (const Mode &mode : kModes) {
            ExecOptions eo;
            eo.metricsOnly = mode.metricsOnly;
            eo.blockClasses = mode.blockClasses;
            eo.siteStats = mode.siteStats;
            SimReport rep = gpu.compileAndRun(*w.prog, *w.args, {}, eo);
            rep.stats.classedBlocks = 0;
            rep.stats.classReason.clear();
            if (&mode == &kModes[0])
                base = rep;
            else
                expectSameReport(base, rep, mode.name);
        }
    }
}

TEST(Determinism, MetricsOnlyNeverWritesCallerBuffers)
{
    Gpu gpu;
    Workload w = makeRowSums(64, 64);
    const std::vector<double> outBefore = w.storage[1];
    ExecOptions eo;
    eo.metricsOnly = true;
    gpu.compileAndRun(*w.prog, *w.args, {}, eo);
    EXPECT_EQ(w.storage[1], outBefore) << "metricsOnly leaked stores";

    gpu.compileAndRun(*w.prog, *w.args, {}, {});
    EXPECT_NE(w.storage[1], outBefore) << "functional run must store";
}

TEST(Determinism, ClassedModeActuallyMergesBlocks)
{
    // A dense uniform nest must be classable: with many more blocks than
    // classes, most blocks are replicated rather than simulated.
    Gpu gpu;
    Workload w = makeRowSums(512, 64);
    ExecOptions eo;
    eo.metricsOnly = true;
    eo.blockClasses = true;
    SimReport rep = gpu.compileAndRun(*w.prog, *w.args, {}, eo);
    EXPECT_GT(rep.stats.classedBlocks, 0)
        << "equivalence classing never engaged";
}

TEST(Determinism, RebuiltProgramsSimulateIdentically)
{
    // Trace-site ids are structural, so destroying and rebuilding the
    // same program must not move any simulated metric by even one ULP
    // (this regressed when probe keys hashed node addresses).
    Gpu gpu;
    SimReport first;
    for (int round = 0; round < 2; round++) {
        Workload w = makeGather(2048);
        SimReport rep = gpu.compileAndRun(*w.prog, *w.args, {}, {});
        if (round == 0)
            first = rep;
        else
            expectSameReport(first, rep, "rebuild");
    }
}

TEST(Determinism, RebuiltAppsRunIdentically)
{
    // End-to-end: fresh instances of real multi-kernel apps (BFS's
    // level-synchronous loop was the original nondeterministic case).
    // Cache off so the second run re-simulates instead of replaying.
    EvalCache &cache = EvalCache::instance();
    const int64_t savedCapacity = cache.capacityBytes();
    cache.setCapacityBytes(0);

    Gpu gpu;
    const auto factories = {
        +[]() { return makeBfs(4096, 8); },
        +[]() { return makeHotspot(64, 2); },
        +[]() { return makeMandelbrot(32, 128, 12); },
    };
    for (auto factory : factories) {
        AppResult a = factory()->run(gpu, Strategy::MultiDim, true);
        AppResult b = factory()->run(gpu, Strategy::MultiDim, true);
        SCOPED_TRACE(factory()->name());
        EXPECT_EQ(a.gpuMs, b.gpuMs);
        EXPECT_EQ(a.maxError, b.maxError);
        EXPECT_EQ(a.cpuMs, b.cpuMs);
    }

    cache.setCapacityBytes(savedCapacity);
}

TEST(Determinism, ExplanationStableAcrossRebuilds)
{
    // The decision-explanation report is part of the debugging workflow
    // (nppc --explain); it must render identically when the same program
    // is destroyed and rebuilt — constraint order, weights, tie tallies
    // and the formatted text are all structural, never address-derived.
    std::string first;
    for (int round = 0; round < 2; round++) {
        Workload w = makeRowSums(96, 64);
        CompileOptions copts;
        copts.explainSearch = true;
        Gpu gpu;
        CompileResult res =
            compileProgram(*w.prog, gpu.config(), copts);
        ASSERT_TRUE(res.explanation.valid);
        const std::string text =
            formatSearchExplanation(res.explanation);
        const std::string json = searchExplanationJson(res.explanation);
        if (round == 0)
            first = text + "\n" + json;
        else
            EXPECT_EQ(first, text + "\n" + json);
    }
}

TEST(Determinism, SiteStatsDoNotPerturbTheReport)
{
    // Per-site attribution is a pure observer: the aggregate report with
    // siteStats on must be bit-identical to the plain run, and the site
    // buckets must sum to the aggregate traffic they decompose.
    Gpu gpu;
    Workload loads[] = {makeRowSums(96, 64), makeGather(2048)};
    for (Workload &w : loads) {
        SCOPED_TRACE(w.prog->name());
        SimReport plain = gpu.compileAndRun(*w.prog, *w.args, {}, {});
        ExecOptions eo;
        eo.siteStats = true;
        SimReport sited = gpu.compileAndRun(*w.prog, *w.args, {}, eo);
        ASSERT_FALSE(sited.stats.siteTraffic.empty());
        expectSameReport(plain, sited, "siteStats observer");

        double siteBytes = 0.0;
        for (const SiteTraffic &st : sited.stats.siteTraffic)
            siteBytes += st.usefulBytes;
        EXPECT_DOUBLE_EQ(siteBytes, sited.stats.usefulBytes);

        // And the attribution itself is deterministic across runs.
        SimReport again = gpu.compileAndRun(*w.prog, *w.args, {}, eo);
        ASSERT_EQ(again.stats.siteTraffic.size(),
                  sited.stats.siteTraffic.size());
        for (size_t i = 0; i < sited.stats.siteTraffic.size(); i++)
            EXPECT_TRUE(again.stats.siteTraffic[i] ==
                        sited.stats.siteTraffic[i]);
    }
}

TEST(Determinism, AutotuneSerialAndParallelAgree)
{
    // Trials run through the EvalCache; clearing it before each run makes
    // both runs simulate every trial instead of replaying the first.
    Gpu gpu;
    Workload w = makeRowSums(128, 96);

    EvalCache::instance().clear();
    setParallelThreadCount(4);
    AutotuneResult p = autotune(*w.prog, gpu, *w.args);
    EvalCache::instance().clear();
    setParallelThreadCount(1);
    AutotuneResult s = autotune(*w.prog, gpu, *w.args);
    setParallelThreadCount(0);

    EXPECT_EQ(s.best.mapping.hashValue(), p.best.mapping.hashValue());
    EXPECT_EQ(s.bestMs, p.bestMs);
    EXPECT_EQ(s.scoreChoiceMs, p.scoreChoiceMs);
    ASSERT_EQ(s.candidates.size(), p.candidates.size());
    for (size_t i = 0; i < s.candidates.size(); i++) {
        EXPECT_EQ(s.candidates[i].copts.fixedMapping.hashValue(),
                  p.candidates[i].copts.fixedMapping.hashValue());
        EXPECT_EQ(s.candidates[i].exactMs, p.candidates[i].exactMs);
    }
}

} // namespace
} // namespace npp
