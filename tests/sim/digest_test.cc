/**
 * @file
 * Digests follow the data (runtime/binding.h HostArray). After every
 * launch, on every path the eval cache and the runners take, each
 * tracked array's held digest is recomputed with digestArray and
 * compared; the paths that must leave a digest held (stores and
 * replays) are checked to hash nothing when asked, and a fingerprint
 * over held digests must equal the fingerprint of the same bytes bound
 * as plain vectors.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codegen/compile.h"
#include "ir/builder.h"
#include "runtime/reference.h"
#include "sim/evalcache.h"
#include "sim/executor.h"
#include "support/trace.h"

namespace npp {
namespace {

constexpr int64_t kN = 1000;

/** Bytes digestArray hashed during fn(). */
template <class Fn>
double
hashedDuring(Fn fn)
{
    const Trace &trace = Trace::instance();
    const double before = trace.counterValue("runtime.hashed_bytes");
    fn();
    return trace.counterValue("runtime.hashed_bytes") - before;
}

uint64_t
recomputed(const HostArray &arr)
{
    return digestArray(arr.values().data(),
                       static_cast<int64_t>(arr.size()));
}

/** `arr` holds a digest (asking for it hashes nothing), and it equals
 *  digestArray over the current bytes. */
void
expectHeld(const HostArray &arr, const std::string &what)
{
    uint64_t held = 0;
    EXPECT_EQ(hashedDuring([&] { held = arr.digest(); }), 0.0)
        << what << ": no digest held";
    EXPECT_EQ(held, recomputed(arr)) << what;
}

/** `arr` holds no digest (asking for it hashes the array), and the one
 *  computed equals digestArray over the current bytes. */
void
expectDropped(const HostArray &arr, const std::string &what)
{
    uint64_t digest = 0;
    EXPECT_GT(hashedDuring([&] { digest = arr.digest(); }), 0.0)
        << what << ": a digest is still held";
    EXPECT_EQ(digest, recomputed(arr)) << what;
}

/**
 * One in-place program, `b(i) = a(i) + x(i); a(i) = a(i) * 0.5 + x(i)`,
 * over host arrays `a` (read and written), `x` (a frozen input) and `b`
 * (written), launched through every cached and direct entry point.
 */
class DigestTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/nppdigest_test_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        EvalCache &cache = EvalCache::instance();
        savedCapacity_ = cache.capacityBytes();
        savedDiskDir_ = cache.diskDir();
        cache.setCapacityBytes(int64_t(1) << 30);
        cache.setDiskDir("");
        cache.clear();
        Trace &trace = Trace::instance();
        savedTrace_ = trace.enabled();
        trace.setEnabled(true);

        ProgramBuilder b("halve_into");
        aArr_ = b.inOutF64("a");
        xArr_ = b.inF64("x");
        bArr_ = b.outF64("b");
        nParam_ = b.paramI64("n");
        Arr a = aArr_, x = xArr_, out = bArr_;
        b.foreach(nParam_, [&](Body &fn, Ex i) {
            fn.store(out, i, a(i) + x(i));
            fn.store(a, i, a(i) * 0.5 + x(i));
        });
        prog_ = std::make_unique<Program>(b.build());
        CompileOptions copts;
        copts.paramValues = {{nParam_.ref()->varId, double(kN)}};
        spec_ = compileProgram(*prog_, gpu_.config(), copts).spec;
        seed_ = EvalCache::specSeed(*prog_, copts, gpu_.config());

        for (int64_t i = 0; i < kN; i++) {
            a0_.push_back(std::sin(0.37 * double(i)) / 3.0);
            x0_.push_back(std::cos(0.11 * double(i)) / 7.0);
        }
        a_ = HostArray(a0_);
        x_ = HostArray(x0_);
        restore();
    }

    void
    TearDown() override
    {
        EvalCache &cache = EvalCache::instance();
        cache.setDiskDir(savedDiskDir_);
        cache.setCapacityBytes(savedCapacity_);
        cache.clear();
        Trace::instance().setEnabled(savedTrace_);
        const std::string cmd = "rm -rf '" + dir_ + "'";
        (void)!std::system(cmd.c_str());
    }

    /** Put the launch inputs back to their first contents. */
    void
    restore()
    {
        a_.mut() = a0_;
        b_.mut().assign(kN, 0.0);
    }

    Bindings
    bind()
    {
        Bindings args(*prog_);
        args.scalar(nParam_, double(kN));
        args.array(aArr_, a_);
        args.array(xArr_, std::as_const(x_));
        args.array(bArr_, b_);
        return args;
    }

    /** The same bytes bound as plain vectors. */
    uint64_t
    vectorFingerprint()
    {
        av_ = a_.values();
        xv_ = x_.values();
        bv_ = b_.values();
        Bindings args(*prog_);
        args.scalar(nParam_, double(kN));
        args.array(aArr_, av_);
        args.array(xArr_, xv_);
        args.array(bArr_, bv_);
        return args.fingerprint();
    }

    EvalTier
    launchGpu(uint64_t *key = nullptr)
    {
        const Bindings args = bind();
        EXPECT_EQ(args.fingerprint(), vectorFingerprint());
        if (key) {
            *key = EvalCache::combine(
                EvalCache::combine(seed_, args.fingerprint()),
                EvalCache::hashExec({}));
        }
        EvalTier tier = EvalTier::Simulated;
        cachedRun(gpu_, spec_, args, {}, seed_, /*wantOutputs=*/true, &tier);
        return tier;
    }

    EvalTier
    launchReference()
    {
        const Bindings args = bind();
        EXPECT_EQ(args.fingerprint(), vectorFingerprint());
        EvalTier tier = EvalTier::Simulated;
        cachedReference(*prog_, args, EvalCache::referenceSeed(*prog_),
                        &tier);
        return tier;
    }

    /** Every array holds the digest of its bytes, and a fingerprint
     *  over them hashes nothing and equals the plain-vector one. */
    void
    expectAllHeld(const std::string &what)
    {
        expectHeld(a_, what + " a");
        expectHeld(x_, what + " x");
        expectHeld(b_, what + " b");
        const Bindings args = bind();
        uint64_t fp = 0;
        EXPECT_EQ(hashedDuring([&] { fp = args.fingerprint(); }), 0.0)
            << what;
        EXPECT_EQ(fp, vectorFingerprint()) << what;
    }

    std::pair<std::vector<double>, std::vector<double>>
    outputs() const
    {
        return {a_.values(), b_.values()};
    }

    Gpu gpu_;
    std::unique_ptr<Program> prog_;
    Arr aArr_, xArr_, bArr_;
    Ex nParam_;
    KernelSpec spec_;
    uint64_t seed_ = 0;
    std::vector<double> a0_, x0_;
    HostArray a_, x_, b_;
    std::vector<double> av_, xv_, bv_;
    std::string dir_;
    std::string savedDiskDir_;
    int64_t savedCapacity_ = 0;
    bool savedTrace_ = false;
};

TEST_F(DigestTest, GpuStoreAndEveryHitSetTheDigestOfTheBytes)
{
    EvalCache &cache = EvalCache::instance();
    cache.setDiskDir(dir_);

    uint64_t key = 0;
    EXPECT_EQ(launchGpu(&key), EvalTier::Simulated);
    expectAllHeld("cold store");
    const auto cold = outputs();

    // A relaunch over the rewritten arrays: a new key, simulated again,
    // its fingerprint taken from the digests the store left.
    EXPECT_EQ(launchGpu(), EvalTier::Simulated);
    expectAllHeld("second store");

    restore();
    EXPECT_EQ(launchGpu(), EvalTier::Memory);
    expectAllHeld("memory hit");
    EXPECT_EQ(outputs(), cold);

    cache.clear();
    restore();
    EXPECT_EQ(launchGpu(), EvalTier::Disk);
    expectAllHeld("disk hit");
    EXPECT_EQ(outputs(), cold);

    // A corrupt entry is rejected: the launch simulates and stores.
    char name[32];
    std::snprintf(name, sizeof name, "/%016llx.nppeval",
                  static_cast<unsigned long long>(key));
    const std::string path = dir_ + name;
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() - 3] ^= 0x5a;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    cache.clear();
    restore();
    EXPECT_EQ(launchGpu(), EvalTier::Simulated);
    EXPECT_EQ(cache.stats().diskRejects, 1u);
    expectAllHeld("after a rejected disk entry");
    EXPECT_EQ(outputs(), cold);
}

TEST_F(DigestTest, ReferenceMissAndHitSetTheDigestOfTheBytes)
{
    EXPECT_EQ(launchReference(), EvalTier::Simulated);
    expectAllHeld("reference miss");
    const auto first = outputs();

    restore();
    EXPECT_EQ(launchReference(), EvalTier::Memory);
    expectAllHeld("reference hit");
    EXPECT_EQ(outputs(), first);
}

/** A replay shares the cache's contents with the host arrays; every
 *  later write (a simulator run, a reference run, mut()) takes a private
 *  copy first, so the cached contents replay unchanged. */
TEST_F(DigestTest, WritesAfterAReplayLeaveTheCachedContentsAlone)
{
    EXPECT_EQ(launchGpu(), EvalTier::Simulated);
    const auto cold = outputs();

    restore();
    EXPECT_EQ(launchGpu(), EvalTier::Memory);
    executeOnDevice(spec_, bind(), gpu_.config(), {});
    expectDropped(a_, "simulated over a replay a");
    expectDropped(b_, "simulated over a replay b");
    EXPECT_NE(outputs(), cold);

    restore();
    EXPECT_EQ(launchGpu(), EvalTier::Memory);
    ReferenceInterp().run(*prog_, bind());
    expectDropped(a_, "reference over a replay a");
    EXPECT_NE(outputs(), cold);

    restore();
    EXPECT_EQ(launchGpu(), EvalTier::Memory);
    a_.mut()[0] += 1.0;
    b_.mut()[1] -= 1.0;
    expectDropped(a_, "mut() over a replay a");

    restore();
    EXPECT_EQ(launchGpu(), EvalTier::Memory);
    expectAllHeld("replay after the writes");
    EXPECT_EQ(outputs(), cold);
}

TEST_F(DigestTest, UnstoredFunctionalRunsDropTheOutputDigests)
{
    const auto holdAll = [&] {
        for (const HostArray *arr : {&a_, &x_, &b_})
            arr->digest();
    };

    EvalCache::instance().setCapacityBytes(0);
    holdAll();
    EXPECT_EQ(launchGpu(), EvalTier::Simulated);
    expectDropped(a_, "cache off a");
    expectDropped(b_, "cache off b");
    expectHeld(x_, "cache off x");

    holdAll();
    EXPECT_EQ(launchReference(), EvalTier::Simulated);
    expectDropped(a_, "reference, cache off a");
    expectDropped(b_, "reference, cache off b");
    expectHeld(x_, "reference, cache off x");

    EvalCache::instance().setCapacityBytes(int64_t(1) << 30);
    holdAll();
    executeOnDevice(spec_, bind(), gpu_.config(), {});
    expectDropped(a_, "executeOnDevice a");
    expectDropped(b_, "executeOnDevice b");
    expectHeld(x_, "executeOnDevice x");

    holdAll();
    ReferenceInterp().run(*prog_, bind());
    expectDropped(a_, "ReferenceInterp a");
    expectDropped(b_, "ReferenceInterp b");
    expectHeld(x_, "ReferenceInterp x");
}

TEST_F(DigestTest, MetricsOnlyRunsKeepDigestsAndBytes)
{
    for (const HostArray *arr : {&a_, &x_, &b_})
        arr->digest();
    const auto before = outputs();

    ExecOptions metricsOnly;
    metricsOnly.metricsOnly = true;
    executeOnDevice(spec_, bind(), gpu_.config(), metricsOnly);
    expectAllHeld("executeOnDevice metrics-only");
    EXPECT_EQ(outputs(), before);

    EvalTier tier = EvalTier::Memory;
    cachedRun(gpu_, spec_, bind(), {}, seed_, /*wantOutputs=*/false, &tier);
    EXPECT_EQ(tier, EvalTier::Simulated);
    cachedRun(gpu_, spec_, bind(), {}, seed_, /*wantOutputs=*/false, &tier);
    EXPECT_EQ(tier, EvalTier::Memory);
    expectAllHeld("cachedRun metrics-only");
    EXPECT_EQ(outputs(), before);
}

TEST(HostArrayDigest, MutDropsAndSwapCarriesTheDigest)
{
    Trace &trace = Trace::instance();
    const bool saved = trace.enabled();
    trace.setEnabled(true);
    HostArray p(std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5});
    HostArray q(std::vector<double>{0.7, 0.9});
    p.digest();
    q.digest();
    expectHeld(p, "p");

    p.mut()[2] += 1.0;
    expectDropped(p, "p after mut()");

    std::swap(p, q);
    expectHeld(p, "p after swap");
    expectHeld(q, "q after swap");
    EXPECT_EQ(p.size(), 2u);

    HostArray r(std::move(p));
    expectHeld(r, "moved-to r");
    EXPECT_EQ(r.size(), 2u);
    trace.setEnabled(saved);
}

/** Concurrent sweep points share one Bindings: two first digests of one
 *  input race, agree, and hash the array once. */
TEST(HostArrayDigest, ConcurrentFirstDigestsHashOnce)
{
    Trace &trace = Trace::instance();
    const bool saved = trace.enabled();
    trace.setEnabled(true);
    std::vector<double> contents(1 << 16);
    for (size_t i = 0; i < contents.size(); i++)
        contents[i] = std::sqrt(double(i) + 0.5);
    const HostArray shared(contents);
    uint64_t got[2] = {0, 0};
    const double hashed = hashedDuring([&] {
        std::latch start(2);
        std::thread t0([&] {
            start.arrive_and_wait();
            got[0] = shared.digest();
        });
        std::thread t1([&] {
            start.arrive_and_wait();
            got[1] = shared.digest();
        });
        t0.join();
        t1.join();
    });
    const uint64_t expect =
        digestArray(contents.data(), static_cast<int64_t>(contents.size()));
    EXPECT_EQ(got[0], expect);
    EXPECT_EQ(got[1], expect);
    EXPECT_EQ(hashed, double(contents.size() * sizeof(double)));
    trace.setEnabled(saved);
}

} // namespace
} // namespace npp
