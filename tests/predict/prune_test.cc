/**
 * @file
 * The oracle-preserving pruning differential: for every demo program,
 * a model-guided pruned sweep must select the same mapping — at the
 * same bit-identical simulated time — as the full sweep, while actually
 * pruning candidates. Also pins the safety rails: the score choice
 * always survives pruning, a sweep without a model falls back to full
 * evaluation, and the harvest observer records exactly the genuinely
 * simulated evaluations (never cache hits).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <map>
#include <string>

#include "codegen/compile.h"
#include "predict/predict.h"
#include "server/programs.h"
#include "sim/evalcache.h"
#include "sim/gpu.h"

using namespace npp;

namespace {

/** Small instances of every demo program: the sweep differential is
 *  about candidate ordering, not figure-scale sizes. */
const std::map<std::string, std::map<std::string, int64_t>> kPrograms = {
    {"sumrows", {{"rows", 256}, {"cols", 256}}},
    {"sumcols", {{"rows", 256}, {"cols", 256}}},
    {"weightedrows", {{"rows", 256}, {"cols", 256}}},
    {"weightedcols", {{"rows", 256}, {"cols", 256}}},
    {"pagerank", {{"nodes", 512}}},
    {"mandelbrot", {{"height", 64}, {"width", 128}}},
    {"spmv", {{"rows", 256}, {"avgdeg", 8}}},
};

class PredictPruneTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/nppprn_test_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        EvalCache::instance().clear();
    }

    void
    TearDown() override
    {
        // The runtime and observer are process-global: detach them so
        // later tests (and other fixtures) see a clean slate.
        PredictRuntime::instance().setSampleDir("");
        PredictRuntime::instance().setModel(std::nullopt);
        PredictRuntime::instance().setEnabled(false);
        EvalCache::instance().clear();
        const std::string cmd = "rm -rf '" + dir_ + "'";
        (void)!std::system(cmd.c_str());
    }

    std::string dir_;
};

CompileOptions
optionsFor(const DemoProgram &demo)
{
    CompileOptions copts;
    copts.paramValues = demo.params;
    copts.fuseMapReduce = demo.fuse;
    return copts;
}

TEST_F(PredictPruneTest, PrunedSweepMatchesFullSweepOnEveryDemoProgram)
{
    Gpu gpu;
    PredictRuntime::instance().setSampleDir(dir_);

    // Phase 1: full sweeps (no model) — these both establish the ground
    // truth and harvest the training pairs through the eval observer.
    std::map<std::string, PredictSweep> full;
    for (const auto &[name, sizes] : kPrograms) {
        std::string error;
        std::unique_ptr<DemoProgram> demo =
            buildDemoProgram(name, sizes, &error);
        ASSERT_NE(demo, nullptr) << name << ": " << error;
        Bindings args(*demo->prog);
        demo->bind(args);
        full[name] = predictiveSweep(gpu, *demo->prog, args,
                                     optionsFor(*demo), nullptr,
                                     kPredictDefaultTopK);
        EXPECT_FALSE(full[name].usedModel);
        EXPECT_EQ(full[name].pruned, 0);
    }
    PredictRuntime::instance().setSampleDir("");

    // Phase 2: train on the harvest.
    SampleLoadStats loadStats;
    const std::vector<PredictSample> samples =
        loadPredictSamples(dir_, &loadStats);
    ASSERT_GT(samples.size(), 0u);
    EXPECT_EQ(loadStats.rejected, 0u);
    const std::optional<PredictModel> model = trainPredictModel(samples);
    ASSERT_TRUE(model.has_value());

    // Phase 3: pruned sweeps must agree with the full ground truth —
    // same selected mapping, bit-identical best time — while really
    // pruning. The eval cache stays warm from phase 1, which is fine:
    // cache replays are bit-identical to simulation by contract.
    for (const auto &[name, sizes] : kPrograms) {
        std::string error;
        std::unique_ptr<DemoProgram> demo =
            buildDemoProgram(name, sizes, &error);
        ASSERT_NE(demo, nullptr) << name;
        Bindings args(*demo->prog);
        demo->bind(args);
        const PredictSweep pruned =
            predictiveSweep(gpu, *demo->prog, args, optionsFor(*demo),
                            &*model, kPredictDefaultTopK);
        EXPECT_TRUE(pruned.usedModel) << name;
        EXPECT_GT(pruned.pruned, 0) << name;
        EXPECT_LT(pruned.survivors,
                  static_cast<int64_t>(pruned.candidates.size()))
            << name;
        EXPECT_TRUE(pruned.best == full[name].best)
            << name << ": pruned=" << pruned.best.toString()
            << " full=" << full[name].best.toString();
        EXPECT_EQ(pruned.bestMs, full[name].bestMs) << name;
        // The score choice must always survive pruning (the sweep can
        // never do worse than Algorithm 1 alone).
        ASSERT_FALSE(pruned.candidates.empty());
        EXPECT_TRUE(pruned.candidates[0].isScoreChoice);
        EXPECT_TRUE(pruned.candidates[0].survived) << name;
    }
}

TEST_F(PredictPruneTest, RuntimeWithoutModelFallsBackToFullSweep)
{
    Gpu gpu;
    PredictRuntime &rt = PredictRuntime::instance();
    rt.setModel(std::nullopt);
    rt.setEnabled(true);

    std::string error;
    std::unique_ptr<DemoProgram> demo = buildDemoProgram(
        "sumrows", {{"rows", 128}, {"cols", 128}}, &error);
    ASSERT_NE(demo, nullptr);
    Bindings args(*demo->prog);
    demo->bind(args);
    const PredictSweep sweep =
        rt.sweep(gpu, *demo->prog, args, optionsFor(*demo));
    EXPECT_FALSE(sweep.usedModel);
    EXPECT_EQ(sweep.fallbackReason, "no model");
    EXPECT_EQ(sweep.pruned, 0);
    EXPECT_EQ(sweep.survivors,
              static_cast<int64_t>(sweep.candidates.size()));

    const PredictStats stats = rt.stats();
    EXPECT_TRUE(stats.enabled);
    EXPECT_EQ(stats.modelVersion, 0u);
    EXPECT_GE(stats.fullSweeps, 1u);
}

TEST_F(PredictPruneTest, HarvestRecordsSimulationsButNeverCacheHits)
{
    Gpu gpu;
    PredictRuntime &rt = PredictRuntime::instance();
    rt.setSampleDir(dir_);

    std::string error;
    std::unique_ptr<DemoProgram> demo = buildDemoProgram(
        "sumcols", {{"rows", 128}, {"cols", 128}}, &error);
    ASSERT_NE(demo, nullptr);
    Bindings args(*demo->prog);
    demo->bind(args);

    CompileOptions copts = optionsFor(*demo);
    copts.strategy = Strategy::Fixed;
    copts.fixedMapping =
        compileProgram(*demo->prog, gpu.config(), optionsFor(*demo))
            .spec.mapping;
    const ExecOptions eopts;

    cachedCompileAndRun(gpu, *demo->prog, args, copts, eopts,
                        /*wantOutputs=*/false);
    const uint64_t afterSimulate = rt.stats().samplesHarvested;
    EXPECT_GE(afterSimulate, 1u);
    EXPECT_EQ(rt.stats().sampleStoreRecords, afterSimulate);

    // Same evaluation again: a memory-tier hit, so no new sample.
    cachedCompileAndRun(gpu, *demo->prog, args, copts, eopts,
                        /*wantOutputs=*/false);
    EXPECT_EQ(rt.stats().samplesHarvested, afterSimulate);
}

TEST_F(PredictPruneTest, StatsJsonCarriesThePruningCounters)
{
    const std::string json = predictStatsJson();
    EXPECT_NE(json.find("\"predict_pruned\":"), std::string::npos);
    EXPECT_NE(json.find("\"predict_survivors\":"), std::string::npos);
    EXPECT_NE(json.find("\"predict_model_version\":"), std::string::npos);
    EXPECT_NE(json.find("\"sample_store_records\":"), std::string::npos);
}

} // namespace
