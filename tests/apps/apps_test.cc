/**
 * @file
 * End-to-end application tests: every evaluation workload must produce
 * reference-identical results under every mapping strategy, and the
 * qualitative performance relationships the paper reports must hold on
 * the simulator.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "apps/rodinia.h"
#include "apps/realworld.h"
#include "apps/sums.h"
#include "server/programs.h"
#include "sim/evalcache.h"
#include "support/trace.h"

namespace npp {
namespace {

/** Small instances so the whole matrix of (app x strategy) stays fast. */
std::vector<std::unique_ptr<App>>
smallApps()
{
    std::vector<std::unique_ptr<App>> apps;
    apps.push_back(makeNearestNeighbor(1 << 12));
    apps.push_back(makeGaussian(48, false));
    apps.push_back(makeGaussian(48, true));
    apps.push_back(makeHotspot(48, 2, false));
    apps.push_back(makeHotspot(48, 2, true));
    apps.push_back(makeMandelbrot(24, 96, 12, false));
    apps.push_back(makeMandelbrot(24, 96, 12, true));
    apps.push_back(makeSrad(40, 2, false));
    apps.push_back(makeSrad(40, 2, true));
    apps.push_back(makePathfinder(6, 1024));
    apps.push_back(makeLud(40));
    apps.push_back(makeBfs(2048, 6));
    apps.push_back(makeQpscd(256, 64, 1));
    apps.push_back(makeKmeans(512, 8, 12, 2));
    apps.push_back(makeMsmBuilder(24, 12, 16));
    apps.push_back(makeNaiveBayes(96, 64));
    apps.push_back(makePageRank(1024, 6, 2));
    return apps;
}

class AppStrategyValidation : public ::testing::TestWithParam<Strategy>
{};

TEST_P(AppStrategyValidation, AllAppsMatchReference)
{
    Gpu gpu;
    for (auto &app : smallApps()) {
        AppResult result = app->run(gpu, GetParam(), /*validate=*/true);
        EXPECT_LE(result.maxError, 1e-6)
            << app->name() << " under "
            << strategyName(GetParam());
        EXPECT_GT(result.gpuMs, 0.0) << app->name();
        EXPECT_GT(result.referenceWork.iterations, 0u) << app->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, AppStrategyValidation,
    ::testing::Values(Strategy::MultiDim, Strategy::OneD,
                      Strategy::ThreadBlockThread, Strategy::WarpBased),
    [](const ::testing::TestParamInfo<Strategy> &info) {
        switch (info.param) {
          case Strategy::MultiDim: return "MultiDim";
          case Strategy::OneD: return "OneD";
          case Strategy::ThreadBlockThread: return "ThreadBlockThread";
          case Strategy::WarpBased: return "WarpBased";
          default: return "Fixed";
        }
    });

TEST(AppManuals, ManualImplementationsRun)
{
    Gpu gpu;
    for (auto &app : smallApps()) {
        if (!app->hasManual())
            continue;
        EXPECT_GT(app->runManualMs(gpu), 0.0) << app->name();
    }
}

//
// Reference-interpreter golden: exact work counts plus an output
// checksum per app and demo program, so any change to the sequential
// semantics that moves one op, byte, iteration or output bit fails here.
// Only Fig 14 carries cpuMs into the figure rows; this covers the rest.
//

struct Golden
{
    const char *name;
    uint64_t computeOps, bytesRead, bytesWritten, iterations, checksum;
};

/** One golden row as source text, so a failure prints the actual row
 *  ready to paste. */
std::string
goldenRow(const Golden &g)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", 0x%016" PRIx64 "ull},",
                  g.name, g.computeOps, g.bytesRead, g.bytesWritten,
                  g.iterations, g.checksum);
    return buf;
}

std::string
goldenRow(const std::string &name, const WorkCounts &w,
          const std::vector<double> &outputs)
{
    // FNV-1a over the outputs' bit patterns.
    uint64_t h = 0xcbf29ce484222325ull;
    for (double v : outputs) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        h = (h ^ bits) * 0x100000001b3ull;
    }
    return goldenRow({name.c_str(), w.computeOps, w.bytesRead,
                      w.bytesWritten, w.iterations, h});
}

TEST(ReferenceWork, AppsMatchGolden)
{
    const Golden golden[] = {
        {"NearestNeighbor", 53248, 65536, 32768, 4096, 0x667e18efd2ca538aull},
        {"Gaussian(R)", 691652, 929472, 312832, 39104, 0x72789b745f358ae3ull},
        {"Gaussian(C)", 692827, 929472, 312832, 39151, 0x72789b745f358ae3ull},
        {"Hotspot(R)", 250944, 218112, 36864, 4704, 0xfb56d9423233db8dull},
        {"Hotspot(C)", 250944, 218112, 36864, 4704, 0xfb56d9423233db8dull},
        {"Mandelbrot(R)", 201644, 0, 18432, 2328, 0x50dfec18a0f85725ull},
        {"Mandelbrot(C)", 201644, 0, 18432, 2400, 0x50dfec18a0f85725ull},
        {"Srad(R)", 649600, 332800, 51200, 6560, 0xdfd3fe3e90fc6557ull},
        {"Srad(C)", 649600, 332800, 51200, 6560, 0xdfd3fe3e90fc6557ull},
        {"Pathfinder", 127975, 163760, 40960, 5200, 0xceae8627df287325ull},
        {"LUD", 424996, 505440, 170560, 22100, 0x0a41a69c0b5f7b42ull},
        {"BFS", 130379, 347680, 48600, 28931, 0xa3911cf8df2ec325ull},
        {"QPSCD HogWild", 247296, 528384, 131072, 33024, 0x4e2c5b2b2397f25bull},
        {"KMeans", 1177602, 1884160, 116352, 112640, 0x381b229867ea6651ull},
        {"MSMBuilder", 47808, 73728, 2304, 4920, 0xe0129d2290d5793dull},
        {"NaiveBayes", 67584, 147456, 1280, 12448, 0x5cf329c331cabfa5ull},
        {"PageRank", 236288, 556928, 121216, 28256, 0x3fc1569b92db73bdull},
    };
    const auto apps = smallApps();
    ASSERT_EQ(apps.size(), std::size(golden));
    for (size_t i = 0; i < apps.size(); i++) {
        Runner reference;
        const std::vector<double> out = apps[i]->hostLoop(reference);
        EXPECT_EQ(goldenRow(apps[i]->name(), reference.work, out),
                  goldenRow(golden[i]));
    }
}

TEST(ReferenceWork, DemoProgramsMatchGolden)
{
    const Golden golden[] = {
        {"sumrows", 7680, 15360, 384, 1968, 0xcf1d2e92abb94308ull},
        {"sumcols", 7680, 15360, 320, 1960, 0x6f15dd8f80f80808ull},
        {"weightedrows", 17280, 46080, 15744, 3888, 0xcf1d2e92abb94308ull},
        {"weightedcols", 17280, 46080, 15680, 3880, 0x6f15dd8f80f80808ull},
        {"pagerank", 45340, 108400, 23120, 5480, 0x18914487bcc2bac4ull},
        {"mandelbrot", 119052, 0, 7680, 984, 0xf1f206f7e7a28e25ull},
        {"spmv", 25068, 66848, 1600, 2852, 0x5c67c82575e9e65dull},
    };
    const std::map<std::string, std::map<std::string, int64_t>> sizes = {
        {"sumrows", {{"rows", 48}, {"cols", 40}}},
        {"sumcols", {{"rows", 48}, {"cols", 40}}},
        {"weightedrows", {{"rows", 48}, {"cols", 40}}},
        {"weightedcols", {{"rows", 48}, {"cols", 40}}},
        {"pagerank", {{"nodes", 300}}},
        {"mandelbrot", {{"height", 24}, {"width", 40}}},
        {"spmv", {{"rows", 200}}},
    };
    const std::vector<std::string> &names = demoProgramNames();
    ASSERT_EQ(names.size(), std::size(golden));
    for (size_t i = 0; i < names.size(); i++) {
        const auto demo = buildDemoProgram(names[i], sizes.at(names[i]),
                                           nullptr);
        ASSERT_TRUE(demo) << names[i];
        Bindings args(*demo->prog);
        demo->bind(args);
        const WorkCounts work = ReferenceInterp().run(*demo->prog, args);
        std::vector<double> out;
        for (const auto &v : demo->prog->vars()) {
            if (v.role != VarRole::ArrayParam || !v.isOutput)
                continue;
            const ArraySlot &slot = args.arraySlot(v.id);
            out.insert(out.end(), slot.data, slot.data + slot.size);
        }
        EXPECT_EQ(goldenRow(names[i], work, out), goldenRow(golden[i]));
    }
}

//
// Qualitative orderings the figures rely on (moderate sizes).
//

/** Bit-equality of everything validation reports. */
void
expectSameResult(const AppResult &a, const AppResult &b,
                 const std::string &what)
{
    const auto bits = [](double v) {
        uint64_t u;
        std::memcpy(&u, &v, sizeof u);
        return u;
    };
    EXPECT_EQ(bits(a.gpuMs), bits(b.gpuMs)) << what;
    EXPECT_EQ(bits(a.maxError), bits(b.maxError)) << what;
    EXPECT_EQ(bits(a.cpuMs), bits(b.cpuMs)) << what;
    EXPECT_EQ(a.referenceWork.computeOps, b.referenceWork.computeOps) << what;
    EXPECT_EQ(a.referenceWork.bytesRead, b.referenceWork.bytesRead) << what;
    EXPECT_EQ(a.referenceWork.bytesWritten, b.referenceWork.bytesWritten)
        << what;
    EXPECT_EQ(a.referenceWork.iterations, b.referenceWork.iterations)
        << what;
}

/** Validation is memoized: a second validated run of an app in one
 *  process answers every launch, reference runs included, from the
 *  eval cache without running the interpreter, and its result is
 *  bit-identical to a run with the cache off. */
TEST(AppValidationCache, SecondRunReplaysReferenceBitIdentically)
{
    Gpu gpu;
    EvalCache &cache = EvalCache::instance();
    Trace &trace = Trace::instance();
    const int64_t savedCapacity = cache.capacityBytes();
    const std::string savedDir = cache.diskDir();
    cache.setDiskDir("");
    for (auto &app : smallApps()) {
        cache.setCapacityBytes(0);
        const AppResult off = app->run(gpu, Strategy::MultiDim, true);

        cache.setCapacityBytes(int64_t(1) << 30);
        cache.clear();
        trace.clear();
        trace.setEnabled(true);
        const AppResult first = app->run(gpu, Strategy::MultiDim, true);
        const uint64_t coldRuns = trace.timerStat("runtime.reference").count;
        cache.resetCounters();
        trace.clear();
        const AppResult second = app->run(gpu, Strategy::MultiDim, true);
        const uint64_t warmRuns = trace.timerStat("runtime.reference").count;
        trace.setEnabled(false);
        const EvalCacheStats stats = cache.stats();

        EXPECT_GT(coldRuns, 0u) << app->name();
        EXPECT_EQ(warmRuns, 0u) << app->name();
        EXPECT_GT(stats.hits, 0u) << app->name();
        EXPECT_EQ(stats.misses, 0u) << app->name();
        expectSameResult(first, off, app->name() + " first");
        expectSameResult(second, off, app->name() + " second");
    }
    trace.clear();
    cache.setCapacityBytes(savedCapacity);
    cache.setDiskDir(savedDir);
    cache.clear();
}

/** Digests follow the data: a second pass of apps whose launches
 *  rewrite or swap their arrays (Gaussian's Fan1/Fan2, LUD's scale and
 *  update, Pathfinder's row ping-pong) hashes only the arrays its host
 *  loops freshly copy in, because every launch leaves each written
 *  array with the digest the cache holds for its bytes. The pass
 *  replays every launch from memory and reports bit-identical rows. */
TEST(AppValidationCache, WarmPassHashesOnlyFreshCopies)
{
    Gpu gpu;
    EvalCache &cache = EvalCache::instance();
    Trace &trace = Trace::instance();
    const int64_t savedCapacity = cache.capacityBytes();
    const std::string savedDir = cache.diskDir();
    cache.setDiskDir("");
    cache.setCapacityBytes(int64_t(1) << 30);
    cache.clear();
    const bool wasEnabled = trace.enabled();
    trace.setEnabled(true);

    struct Case
    {
        std::unique_ptr<App> app;
        int64_t freshElems; //!< elements each host loop starts afresh
    };
    const int64_t g = 48, l = 40, cols = 1024;
    std::vector<Case> cases;
    cases.push_back({makeGaussian(g, false), g * g + 2 * g}); // a, b, mcol
    cases.push_back({makeGaussian(g, true), g * g + 2 * g});
    cases.push_back({makeLud(l), l * l});                  // a
    cases.push_back({makePathfinder(6, cols), 2 * cols}); // src, dst
    // Three host loops per pass: the validated GPU run, its reference
    // run and the OneD run.
    const auto pass = [&](App &app) {
        const AppResult multi = app.run(gpu, Strategy::MultiDim, true);
        const AppResult oneD = app.run(gpu, Strategy::OneD);
        return std::vector<double>{multi.gpuMs, multi.maxError, multi.cpuMs,
                                   oneD.gpuMs};
    };
    for (Case &c : cases) {
        const std::vector<double> cold = pass(*c.app);
        cache.resetCounters();
        const double before = trace.counterValue("runtime.hashed_bytes");
        const std::vector<double> warm = pass(*c.app);
        const double hashed =
            trace.counterValue("runtime.hashed_bytes") - before;
        EXPECT_LE(hashed, 3.0 * static_cast<double>(c.freshElems) *
                              sizeof(double))
            << c.app->name();
        EXPECT_EQ(cache.stats().misses, 0u) << c.app->name();
        ASSERT_EQ(warm.size(), cold.size());
        EXPECT_EQ(std::memcmp(warm.data(), cold.data(),
                              cold.size() * sizeof(double)),
                  0)
            << c.app->name();
    }
    trace.setEnabled(wasEnabled);
    cache.setCapacityBytes(savedCapacity);
    cache.setDiskDir(savedDir);
    cache.clear();
}

TEST(AppShapes, OneDLosesOnMultiLevelApps)
{
    Gpu gpu;
    // Hotspot / Mandelbrot / Srad: "perform very poorly with a 1D
    // mapping strategy" (Section VI-C).
    std::vector<std::unique_ptr<App>> apps;
    apps.push_back(makeHotspot(192, 2, false));
    apps.push_back(makeMandelbrot(128, 512, 16, false));
    apps.push_back(makeSrad(160, 1, false));
    for (auto &app : apps) {
        const double multi = app->run(gpu, Strategy::MultiDim).gpuMs;
        const double oneD = app->run(gpu, Strategy::OneD).gpuMs;
        EXPECT_GT(oneD, 1.5 * multi) << app->name();
    }
}

TEST(AppShapes, MultiDimBeatsManualOnGaussianAndBfs)
{
    Gpu gpu;
    {
        auto app = makeGaussian(96, false);
        const double multi = app->run(gpu, Strategy::MultiDim).gpuMs;
        const double manual = app->runManualMs(gpu);
        EXPECT_LT(multi, manual) << "Gaussian: analysis coalesces the "
                                    "nest the manual kernel missed";
    }
    {
        auto app = makeBfs(16384, 24);
        const double multi = app->run(gpu, Strategy::MultiDim).gpuMs;
        const double oneD = app->run(gpu, Strategy::OneD).gpuMs;
        const double manual = app->runManualMs(gpu);
        EXPECT_LT(multi, oneD)
            << "BFS: the 1D equivalent of the manual kernel loses";
        EXPECT_LT(multi, manual * 1.05)
            << "BFS: at worst on par with hand-written CUDA";
    }
}

TEST(AppShapes, ManualWinsOnFusedStencilApps)
{
    Gpu gpu;
    {
        auto app = makePathfinder(32, 16384);
        const double multi = app->run(gpu, Strategy::MultiDim).gpuMs;
        const double manual = app->runManualMs(gpu);
        EXPECT_GT(multi, 1.3 * manual)
            << "Pathfinder: manual fuses iterations in shared memory";
    }
    {
        auto app = makeLud(128);
        const double multi = app->run(gpu, Strategy::MultiDim).gpuMs;
        const double manual = app->runManualMs(gpu);
        EXPECT_GT(multi, 1.5 * manual)
            << "LUD: manual is block-tiled in shared memory";
    }
}

TEST(AppShapes, NearestNeighborGapIsWrapperOverhead)
{
    Gpu gpu;
    auto app = makeNearestNeighbor(1 << 18);
    const double multi = app->run(gpu, Strategy::MultiDim).gpuMs;
    const double manual = app->runManualMs(gpu);
    EXPECT_GT(multi, manual);
    EXPECT_LT(multi, 2.0 * manual)
        << "gap should be modest (paper: ~20%)";
}

TEST(AppShapes, QpscdOneDWorseThanCpu)
{
    Gpu gpu;
    auto app = makeQpscd(8192, 256, 1);
    AppResult multi = app->run(gpu, Strategy::MultiDim, true);
    AppResult oneD = app->run(gpu, Strategy::OneD, true);
    EXPECT_GT(oneD.gpuMs, oneD.cpuMs)
        << "random outer rows cannot coalesce under 1D";
    EXPECT_LT(multi.gpuMs, multi.cpuMs)
        << "MultiDim maps the sequential row walk to dimension x";
    EXPECT_GT(oneD.gpuMs, 2.0 * multi.gpuMs);
}

TEST(AppShapes, MsmBuilderNeedsProductParallelism)
{
    Gpu gpu;
    auto app = makeMsmBuilder(160, 96, 64);
    const double multi = app->run(gpu, Strategy::MultiDim).gpuMs;
    const double oneD = app->run(gpu, Strategy::OneD).gpuMs;
    EXPECT_GT(oneD, 2.0 * multi)
        << "160 threads cannot utilize the device";
}

TEST(AppShapes, NaiveBayesTransferIsSignificant)
{
    Gpu gpu;
    auto app = makeNaiveBayes(2048, 1024);
    AppResult r = app->run(gpu, Strategy::MultiDim);
    EXPECT_GT(r.transferMs, r.gpuMs * 0.3)
        << "one-shot job: the matrix upload matters (Section VI-E)";
}

TEST(Sums, WeightedVariantsValidateUnderAllStrategies)
{
    Gpu gpu;
    for (bool byCols : {false, true}) {
        SumsProgram sp = buildSum(byCols, true);
        std::vector<double> expect = referenceSum(sp, 64, 96);
        for (Strategy s : {Strategy::MultiDim, Strategy::OneD,
                           Strategy::ThreadBlockThread,
                           Strategy::WarpBased}) {
            CompileOptions copts;
            copts.strategy = s;
            std::vector<double> out;
            runSum(gpu, sp, 64, 96, copts, &out);
            EXPECT_LE(maxRelDiff(expect, out), 1e-9)
                << sp.prog->name() << " under " << strategyName(s);
        }
    }
}

TEST(Sums, PositiveVariantsValidateUnderAllStrategies)
{
    // Variable-size pipeline (nested filter + compaction) end-to-end on
    // the Fig 16 workload, validated against the reference interpreter.
    Gpu gpu;
    for (bool byCols : {false, true}) {
        SumsProgram sp = buildSumPositives(byCols);
        std::vector<double> expect = referenceSum(sp, 64, 96);
        for (Strategy s : {Strategy::MultiDim, Strategy::OneD,
                           Strategy::ThreadBlockThread,
                           Strategy::WarpBased}) {
            CompileOptions copts;
            copts.strategy = s;
            std::vector<double> out;
            runSum(gpu, sp, 64, 96, copts, &out);
            EXPECT_LE(maxRelDiff(expect, out), 1e-9)
                << sp.prog->name() << " under " << strategyName(s);
        }
    }
}

} // namespace
} // namespace npp
