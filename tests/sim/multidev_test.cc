/**
 * @file
 * Multi-device sharding (sim/fleet.h + ExecOptions root shards): the
 * N=1 invisibility contract (one-device fleet runs and [0, size)
 * shards are bit-identical to the plain simulation), functional
 * equality of sharded runs against unsharded outputs for map and
 * reduce roots (odd remainders included), hard-filter verdicts
 * surfacing through the fleet search, and EvalCache key separation
 * across shard bounds and fleet sizes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/sums.h"
#include "codegen/compile.h"
#include "ir/builder.h"
#include "sim/evalcache.h"
#include "sim/fleet.h"
#include "sim/metrics.h"

namespace npp {
namespace {

/** Dyadic-rational inputs: every partial sum is exact in binary64, so
 *  reassociating the fleet's shard combine cannot perturb a bit. */
std::shared_ptr<std::vector<double>>
dyadicData(int64_t n)
{
    auto m = std::make_shared<std::vector<double>>(std::max<int64_t>(n, 1));
    for (int64_t i = 0; i < static_cast<int64_t>(m->size()); i++)
        (*m)[i] = static_cast<double>((i * 7 + 3) % 64) * 0.25;
    return m;
}

struct SumSetup
{
    SumsProgram sp;
    CompileResult compiled;
    std::shared_ptr<std::vector<double>> mData;
    std::shared_ptr<std::vector<double>> outData;
    std::unique_ptr<Bindings> args;
};

SumSetup
makeSumRows(const Gpu &gpu, int64_t R, int64_t C)
{
    SumSetup s;
    s.sp = buildSum(/*byCols=*/false, /*weighted=*/false);
    s.compiled = compileProgram(*s.sp.prog, gpu.config(), {});
    s.mData = dyadicData(R * C);
    s.outData = std::make_shared<std::vector<double>>(R, 0.0);
    s.args = std::make_unique<Bindings>(*s.sp.prog);
    s.args->scalar(s.sp.r, static_cast<double>(R));
    s.args->scalar(s.sp.c, static_cast<double>(C));
    s.args->array(s.sp.m, *s.mData);
    s.args->array(s.sp.out, *s.outData);
    return s;
}

struct DotSetup
{
    std::shared_ptr<Program> prog;
    CompileResult compiled;
    std::shared_ptr<std::vector<double>> xData, yData, outData;
    std::unique_ptr<Bindings> args;
};

DotSetup
makeDot(const Gpu &gpu, int64_t N)
{
    ProgramBuilder b("dotShard");
    Arr x = b.inF64("x");
    Arr y = b.inF64("y");
    Ex n = b.paramI64("N");
    Arr out = b.outF64("out");
    b.reduce(n, Op::Add, out,
             [&](Body &, Ex i) { return x(i) * y(i); });
    DotSetup s;
    s.prog = std::make_shared<Program>(b.build());
    s.compiled = compileProgram(*s.prog, gpu.config(), {});
    s.xData = dyadicData(N);
    s.yData = dyadicData(N + 17);
    s.yData->resize(N);
    s.outData = std::make_shared<std::vector<double>>(1, 0.0);
    s.args = std::make_unique<Bindings>(*s.prog);
    s.args->scalar(n, static_cast<double>(N));
    s.args->array(x, *s.xData);
    s.args->array(y, *s.yData);
    s.args->array(out, *s.outData);
    return s;
}

TEST(MultiDev, OneDeviceFleetIsBitIdentical)
{
    Gpu gpu;
    SumSetup s = makeSumRows(gpu, 300, 64);
    ExecOptions eopts;
    eopts.metricsOnly = true;
    const SimReport base = gpu.run(s.compiled.spec, *s.args, eopts);
    const FleetReport one =
        runOnFleet(gpu, s.compiled.spec, *s.args, fleetK20c(1), eopts);
    ASSERT_TRUE(one.plan.valid);
    ASSERT_EQ(one.perDevice.size(), 1u);
    EXPECT_TRUE(reportsBitIdentical(base, one.perDevice[0]));
    EXPECT_DOUBLE_EQ(one.interMs, 0.0);
    EXPECT_DOUBLE_EQ(one.fleetMs, one.perDevice[0].totalMs);
}

TEST(MultiDev, FullDomainShardIsBitIdentical)
{
    Gpu gpu;
    SumSetup s = makeSumRows(gpu, 300, 64);
    ExecOptions eopts;
    eopts.metricsOnly = true;
    const SimReport base = gpu.run(s.compiled.spec, *s.args, eopts);
    ExecOptions shardOpts = eopts;
    shardOpts.rootShardLo = 0;
    shardOpts.rootShardHi = 300;
    ASSERT_TRUE(shardOpts.sharded());
    const SimReport whole = gpu.run(s.compiled.spec, *s.args, shardOpts);
    EXPECT_TRUE(reportsBitIdentical(base, whole));
}

TEST(MultiDev, MapRootShardsReproduceTheUnshardedOutputs)
{
    Gpu gpu;
    const int64_t R = 301; // odd: 3 devices get 101 + 100 + 100
    SumSetup s = makeSumRows(gpu, R, 64);
    gpu.run(s.compiled.spec, *s.args, {});
    const std::vector<double> expected = *s.outData;

    std::fill(s.outData->begin(), s.outData->end(), -1.0);
    const FleetReport fleet = runOnFleet(gpu, s.compiled.spec, *s.args,
                                         fleetK20c(3));
    ASSERT_TRUE(fleet.plan.valid);
    ASSERT_EQ(fleet.perDevice.size(), 3u);
    EXPECT_EQ(fleet.plan.shards[0].size(), 101);
    EXPECT_EQ(fleet.plan.shards[1].size(), 100);
    EXPECT_EQ(fleet.plan.shards[2].size(), 100);
    for (int64_t i = 0; i < R; i++)
        EXPECT_EQ((*s.outData)[i], expected[i]) << "row " << i;
    EXPECT_GT(fleet.interMs, 0.0);
    EXPECT_GE(fleet.fleetMs, fleet.interMs);
}

TEST(MultiDev, ReduceRootCombinesShardPartialsExactly)
{
    Gpu gpu;
    const int64_t N = 3001; // odd remainder across 4 shards
    DotSetup s = makeDot(gpu, N);
    gpu.run(s.compiled.spec, *s.args, {});
    const double expected = (*s.outData)[0];
    ASSERT_NE(expected, 0.0);

    (*s.outData)[0] = -1.0;
    const FleetReport fleet = runOnFleet(gpu, s.compiled.spec, *s.args,
                                         fleetK20c(4));
    ASSERT_TRUE(fleet.plan.valid);
    ASSERT_EQ(fleet.perDevice.size(), 4u);
    // Dyadic inputs: the host-side shard combine is exact, so the
    // sharded total matches the single-device total bit for bit.
    EXPECT_EQ((*s.outData)[0], expected);
}

TEST(MultiDev, TooSmallDomainFallsBackToOneDevice)
{
    Gpu gpu;
    SumSetup s = makeSumRows(gpu, 4, 64);
    ExecOptions eopts;
    eopts.metricsOnly = true;
    const FleetChoice choice = searchFleet(gpu, s.compiled.spec, *s.args,
                                           fleetK20c(4), eopts);
    EXPECT_EQ(choice.deviceCount, 1);
    ASSERT_GE(choice.candidates.size(), 2u);
    bool sawFilter = false;
    for (const SweepPoint &c : choice.candidates) {
        if (c.deviceCount == 1) {
            EXPECT_TRUE(c.filtered.empty());
            continue;
        }
        EXPECT_FALSE(c.filtered.empty());
        EXPECT_NE(c.filtered.find("outer domain too small"),
                  std::string::npos);
        sawFilter = true;
    }
    EXPECT_TRUE(sawFilter);
    // The verdict must surface in both renderings of the sweep.
    EXPECT_NE(sweepText(choice).find("hard-filtered"), std::string::npos);
    EXPECT_NE(sweepJson(choice).find("outer domain too small"),
              std::string::npos);
}

TEST(MultiDev, SearchPicksAProfitableFleet)
{
    Gpu gpu;
    SumSetup s = makeSumRows(gpu, 2048, 2048);
    ExecOptions eopts;
    eopts.metricsOnly = true;
    const FleetChoice choice = searchFleet(gpu, s.compiled.spec, *s.args,
                                           fleetK20c(4), eopts);
    EXPECT_GT(choice.deviceCount, 1);
    EXPECT_GT(choice.speedup, 1.0);
    EXPECT_LT(choice.fleetMs, choice.singleMs);
    // The single-device candidate anchors the sweep.
    ASSERT_FALSE(choice.candidates.empty());
    EXPECT_EQ(choice.candidates[0].deviceCount, 1);
    EXPECT_DOUBLE_EQ(choice.candidates[0].exactMs, choice.singleMs);
}

TEST(MultiDev, ShardBoundsJoinTheExecHash)
{
    ExecOptions flat;
    ExecOptions sharded;
    sharded.rootShardLo = 0;
    sharded.rootShardHi = 128;
    ExecOptions shifted;
    shifted.rootShardLo = 128;
    shifted.rootShardHi = 256;
    EXPECT_FALSE(flat.sharded());
    EXPECT_TRUE(sharded.sharded());
    EXPECT_NE(EvalCache::hashExec(flat), EvalCache::hashExec(sharded));
    EXPECT_NE(EvalCache::hashExec(sharded), EvalCache::hashExec(shifted));
}

TEST(MultiDev, FleetHashSeparatesFleetConfigs)
{
    const uint64_t two = EvalCache::hashFleet(fleetK20c(2));
    const uint64_t four = EvalCache::hashFleet(fleetK20c(4));
    EXPECT_NE(two, four);
    FleetConfig slowLink = fleetK20c(2);
    slowLink.peerBandwidthGBs = 5.0;
    EXPECT_NE(EvalCache::hashFleet(slowLink), two);
}

TEST(MultiDev, ShardRunsNeverReuseWholeDomainCacheEntries)
{
    Gpu gpu;
    SumSetup s = makeSumRows(gpu, 320, 64);
    ExecOptions eopts;
    eopts.metricsOnly = true;
    const uint64_t specSeed = EvalCache::combine(
        EvalCache::combine(EvalCache::hashProgram(*s.sp.prog),
                           EvalCache::hashCompileOptions({})),
        EvalCache::hashDevice(gpu.config()));

    EvalCache::instance().clear();
    EvalCache::instance().resetCounters();
    // Prime the cache with the whole-domain report...
    cachedRun(gpu, s.compiled.spec, *s.args, eopts, specSeed,
              /*wantOutputs=*/false);
    const uint64_t missesAfterPrime = EvalCache::instance().stats().misses;
    EXPECT_EQ(EvalCache::instance().stats().hits, 0u);

    // ...then a shard run with the same program/bindings must miss: a
    // whole-domain report must never satisfy a shard request.
    ExecOptions shardOpts = eopts;
    shardOpts.rootShardLo = 0;
    shardOpts.rootShardHi = 160;
    cachedRun(gpu, s.compiled.spec, *s.args, shardOpts, specSeed,
              /*wantOutputs=*/false);
    EXPECT_EQ(EvalCache::instance().stats().hits, 0u);
    EXPECT_GT(EvalCache::instance().stats().misses, missesAfterPrime);

    // Identical shard bounds do hit.
    cachedRun(gpu, s.compiled.spec, *s.args, shardOpts, specSeed,
              /*wantOutputs=*/false);
    EXPECT_EQ(EvalCache::instance().stats().hits, 1u);
    EvalCache::instance().clear();
    EvalCache::instance().resetCounters();
}

} // namespace
} // namespace npp
