/**
 * @file
 * Tests for the analytical performance model (the Section VI-G "future
 * work" scoring refinement) and the empirical autotuner: the model must
 * rank coalesced mappings ahead of uncoalesced ones, the model-objective
 * search must pick a mapping as good as the score-based one on the
 * paper's running examples, and the autotuner must never return a
 * mapping slower than the score-based selection.
 */

#include <gtest/gtest.h>

#include "analysis/model.h"
#include "codegen/autotune.h"
#include "ir/builder.h"
#include "sim/gpu.h"
#include "support/rng.h"

namespace npp {
namespace {

struct Sum
{
    std::shared_ptr<Program> prog;
    Ex r, c;
    Arr m, out;
};

Sum
makeSumRows()
{
    Sum s;
    ProgramBuilder b("sumRows");
    s.m = b.inF64("m");
    s.r = b.paramI64("R");
    s.c = b.paramI64("C");
    s.out = b.outF64("out");
    Arr m = s.m;
    Ex c = s.c;
    b.map(s.r, s.out, [&](Body &fn, Ex i) {
        return fn.reduce(c, Op::Add,
                         [&](Body &, Ex j) { return m(i * c + j); });
    });
    s.prog = std::make_shared<Program>(b.build());
    return s;
}

ConstraintSet
csetFor(const Sum &s, int64_t R, int64_t C)
{
    AnalysisEnv env;
    env.prog = s.prog.get();
    env.paramValues = {{s.r.ref()->varId, static_cast<double>(R)},
                       {s.c.ref()->varId, static_cast<double>(C)}};
    return buildConstraints(*s.prog, env, teslaK20c());
}

TEST(StaticModel, PrefersCoalescedDimensionAssignment)
{
    Sum s = makeSumRows();
    ConstraintSet cs = csetFor(s, 4096, 4096);
    const DeviceConfig dev = teslaK20c();

    MappingDecision coalesced; // inner (stride-1) level on x
    coalesced.levels = {{1, 8, SpanType::one()},
                        {0, 32, SpanType::all()}};
    MappingDecision transposed; // inner level on y: row-strided warps
    transposed.levels = {{0, 32, SpanType::one()},
                         {1, 8, SpanType::all()}};

    ModelEstimate good = staticEstimate(coalesced, cs, dev);
    ModelEstimate bad = staticEstimate(transposed, cs, dev);
    EXPECT_LT(good.predictedTransactions * 4,
              bad.predictedTransactions);
    EXPECT_LT(good.totalMs, bad.totalMs);
}

TEST(StaticModel, PenalizesLowParallelism)
{
    Sum s = makeSumRows();
    // Few rows: a mapping that only parallelizes rows starves.
    ConstraintSet cs = csetFor(s, 64, 65536);
    const DeviceConfig dev = teslaK20c();

    MappingDecision rowsOnly;
    rowsOnly.levels = {{0, 64, SpanType::one()},
                       {1, 1, SpanType::all()}};
    MappingDecision both;
    both.levels = {{1, 8, SpanType::one()}, {0, 128, SpanType::all()}};

    EXPECT_GT(staticEstimate(rowsOnly, cs, dev).totalMs,
              staticEstimate(both, cs, dev).totalMs);
}

TEST(StaticModel, SearchObjectivePicksCoalescedMapping)
{
    Sum s = makeSumRows();
    ConstraintSet cs = csetFor(s, 4096, 4096);
    SearchOptions opts;
    opts.objective = SearchObjective::StaticModel;
    MappingSearch search(teslaK20c(), opts);
    SearchResult res = search.search(cs);
    // The model-selected mapping must put the stride-1 level on x with a
    // warp-multiple block, same as the score-based selection.
    EXPECT_EQ(res.best.levels[1].dim, 0);
    EXPECT_GE(res.best.levels[1].blockSize, 32);
}

TEST(StaticModel, ModelAgreesWithSimulatorOrdering)
{
    // For a spread of mappings, the model's ranking must broadly agree
    // with the simulator's (rank correlation on the extremes).
    Sum s = makeSumRows();
    const int64_t R = 1024, C = 1024;
    ConstraintSet cs = csetFor(s, R, C);
    const DeviceConfig dev = teslaK20c();

    Rng rng(5);
    std::vector<double> data(R * C);
    for (auto &v : data)
        v = rng.uniform(0, 1);

    std::vector<MappingDecision> mappings;
    for (int innerDim : {0, 1}) {
        for (int64_t bs : {32, 256}) {
            MappingDecision d;
            d.levels = {{innerDim == 0 ? 1 : 0, 4, SpanType::one()},
                        {innerDim, bs, SpanType::all()}};
            mappings.push_back(d);
        }
    }

    Gpu gpu;
    double bestModel = 1e300, worstModel = 0;
    double simOfBestModel = 0, simOfWorstModel = 0;
    for (const auto &d : mappings) {
        const double model = staticEstimate(d, cs, dev).totalMs;
        std::vector<double> out(R, 0.0);
        Bindings args(*s.prog);
        args.scalar(s.r, R);
        args.scalar(s.c, C);
        args.array(s.m, data);
        args.array(s.out, out);
        CompileOptions copts;
        copts.strategy = Strategy::Fixed;
        copts.fixedMapping = d;
        const double sim = gpu.compileAndRun(*s.prog, args, copts).totalMs;
        if (model < bestModel) {
            bestModel = model;
            simOfBestModel = sim;
        }
        if (model > worstModel) {
            worstModel = model;
            simOfWorstModel = sim;
        }
    }
    EXPECT_LT(simOfBestModel, simOfWorstModel)
        << "the model's best pick must simulate faster than its worst";
}

TEST(Autotune, NeverWorseThanScoreSelection)
{
    Sum s = makeSumRows();
    const int64_t R = 512, C = 2048;
    Rng rng(6);
    std::vector<double> data(R * C);
    for (auto &v : data)
        v = rng.uniform(0, 1);
    std::vector<double> out(R, 0.0);

    Bindings args(*s.prog);
    args.scalar(s.r, R);
    args.scalar(s.c, C);
    args.array(s.m, data);
    args.array(s.out, out);

    Gpu gpu;
    CompileOptions base;
    base.paramValues = {{s.r.ref()->varId, static_cast<double>(R)},
                        {s.c.ref()->varId, static_cast<double>(C)}};
    AutotuneOptions opts;
    opts.topCandidates = 6;
    AutotuneResult tuned = autotune(*s.prog, gpu, args, base, opts);

    EXPECT_GT(tuned.candidates.size(), 1u);
    EXPECT_GT(tuned.scoreChoiceMs, 0.0);
    EXPECT_LE(tuned.bestMs, tuned.scoreChoiceMs);
    for (const SweepPoint &t : tuned.candidates)
        EXPECT_GE(t.exactMs, tuned.bestMs);

    // The returned spec is runnable and correct.
    std::vector<double> expect(R, 0.0);
    {
        Bindings refArgs(*s.prog);
        refArgs.scalar(s.r, R);
        refArgs.scalar(s.c, C);
        refArgs.array(s.m, data);
        refArgs.array(s.out, expect);
        ReferenceInterp().run(*s.prog, refArgs);
    }
    gpu.run(tuned.best, args);
    EXPECT_LE(maxRelDiff(expect, out), 1e-9);
}

} // namespace
} // namespace npp
