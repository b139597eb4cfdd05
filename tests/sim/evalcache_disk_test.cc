/**
 * @file
 * Disk-tier tests for the EvalCache: round trips through the on-disk
 * entry format, promotion into the memory tier, rejection (never
 * trusting) of truncated / corrupt / wrong-version / other-build /
 * renamed files, the byte-accounting fix (entry footprints charge the
 * report's real heap payload, not a flat guess), the resetCounters fix
 * (evictions reset with the other effectiveness counters), reference
 * entries (their round trip, and that no probe of one kind is answered
 * by an entry of the other), output blobs shared by content, and a
 * golden test of the report's JSON export. Runs under the `server` ctest label so the asan
 * job covers the deserializer against hostile files.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/sums.h"
#include "classed_fixture.h"
#include "sim/evalcache.h"
#include "sim/gpu.h"
#include "support/rng.h"

using namespace npp;

namespace {

/** Fresh temp directory per test; removed (with contents) on teardown. */
class EvalCacheDiskTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/nppevc_test_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        EvalCache &cache = EvalCache::instance();
        savedCapacity_ = cache.capacityBytes();
        savedDiskDir_ = cache.diskDir();
        cache.setCapacityBytes(int64_t(1) << 30);
        cache.setDiskDir(dir_);
        cache.clear();
    }

    void
    TearDown() override
    {
        EvalCache &cache = EvalCache::instance();
        cache.setDiskDir(savedDiskDir_);
        cache.setCapacityBytes(savedCapacity_);
        cache.clear();
        const std::string cmd = "rm -rf '" + dir_ + "'";
        (void)!std::system(cmd.c_str());
    }

    /** The single .nppeval file in the cache directory (fails the test
     *  when there is not exactly one). */
    std::string
    onlyEntryPath()
    {
        std::vector<std::string> found;
        FILE *pipe =
            ::popen(("ls '" + dir_ + "'").c_str(), "r");
        EXPECT_NE(pipe, nullptr);
        char line[512];
        while (pipe && std::fgets(line, sizeof line, pipe)) {
            std::string name = line;
            while (!name.empty() &&
                   (name.back() == '\n' || name.back() == '\r'))
                name.pop_back();
            if (name.size() > 8 &&
                name.compare(name.size() - 8, 8, ".nppeval") == 0)
                found.push_back(dir_ + "/" + name);
        }
        if (pipe)
            ::pclose(pipe);
        EXPECT_EQ(found.size(), 1u);
        return found.empty() ? std::string() : found[0];
    }

    std::string dir_;
    std::string savedDiskDir_;
    int64_t savedCapacity_ = 0;
};

/** A report with every table row set to a distinct non-default value
 *  (bools flipped), plus two sites: a dropped, swapped or mistyped row
 *  cannot round-trip unnoticed. */
SimReport
makeReport()
{
    SimReport r;
    int n = 0;
    const auto fill = [&n](auto &obj) {
        visitFields<std::decay_t<decltype(obj)>>([&](auto row) {
            auto &v = obj.*row.member;
            using T = std::decay_t<decltype(v)>;
            n++;
            if constexpr (std::is_same_v<T, bool>)
                v = !v;
            else if constexpr (std::is_same_v<T, std::string>)
                v = "reason " + std::to_string(n) + ": \"q\"\t\n\\";
            else if constexpr (std::is_same_v<T, double>)
                v = n + 1.0 / 3.0;
            else
                v = 100 + n;
        });
    };
    fill(r);
    fill(r.stats);
    r.stats.siteTraffic.resize(2);
    for (SiteTraffic &st : r.stats.siteTraffic)
        fill(st);
    return r;
}

/** Bit-identical replay is the contract (doubles travel as bit
 *  patterns), so every row — diagnostics included — compares exactly. */
void
expectSameReport(const SimReport &a, const SimReport &b)
{
    difftest::expectSameRows(a, b, /*diagnostics=*/true);
}

/** The JSON export of makeReport(), byte for byte: pins key order,
 *  number formatting, string escaping and the derived keys (the serve
 *  response and the --stats export embed this object as "report"). */
TEST(ReportJson, MatchesGolden)
{
    const char *golden =
        R"({"total_ms":1.3333333333333333,"compute_ms":2.3333333333333335)"
        R"(,"memory_ms":3.3333333333333335,"launch_ms":4.333333333333333)"
        R"(,"block_overhead_ms":5.333333333333333)"
        R"(,"malloc_ms":6.333333333333333,"combiner_ms":7.333333333333333)"
        R"(,"compaction_ms":8.3333333333333339)"
        R"(,"queue_build_ms":9.3333333333333339,"launch_share":3.25)"
        R"(,"block_overhead_share":4)"
        R"(,"achieved_bandwidth_gbs":10.333333333333334)"
        R"(,"resident_warps":11.333333333333334,"blocks_per_sm":112)"
        R"(,"occupancy":13.333333333333334)"
        R"(,"coalescing_efficiency":14.333333333333334)"
        R"(,"coalesce_model":"relative-base-v2")"
        R"(,"stats":{"warp_instructions":15.333333333333334)"
        R"(,"transactions":16.333333333333332)"
        R"(,"useful_bytes":17.333333333333332)"
        R"(,"smem_accesses":18.333333333333332,"syncs":19.333333333333332)"
        R"(,"mallocs":20.333333333333332,"total_blocks":121)"
        R"(,"threads_per_block":122,"shared_mem_per_block":123)"
        R"(,"has_combiner":true,"combiner_transactions":25.333333333333332)"
        R"(,"combiner_ops":26.333333333333332,"combiner_threads":127)"
        R"(,"has_compaction":true)"
        R"(,"compaction_transactions":29.333333333333332)"
        R"(,"compaction_ops":30.333333333333332,"compaction_threads":131)"
        R"(,"has_consolidation":true)"
        R"(,"queue_build_transactions":33.333333333333336)"
        R"(,"queue_build_ops":34.333333333333336,"queue_build_threads":135)"
        R"(,"consolidation_groups":136,"consolidation_parents":137)"
        R"(,"consolidation_entries":138,"consolidation_waves":139)"
        R"(,"bin_fill":40.333333333333336)"
        R"(,"sampled_fraction":41.333333333333336,"classed_blocks":142)"
        R"(,"class_reason":"reason 43: \"q\"\t\n\\"},"sites":[{"site":144)"
        R"(,"transactions":45.333333333333336)"
        R"(,"useful_bytes":46.333333333333336,"accesses":47.333333333333336)"
        R"(,"coalescing_efficiency":0.0079848345588235288},{"site":148)"
        R"(,"transactions":49.333333333333336)"
        R"(,"useful_bytes":50.333333333333336,"accesses":51.333333333333336)"
        R"(,"coalescing_efficiency":0.0079708614864864857}]})";
    EXPECT_EQ(makeReport().toJson(), golden);
}

TEST_F(EvalCacheDiskTest, RoundTripSurvivesMemoryClear)
{
    EvalCache &cache = EvalCache::instance();
    const uint64_t key = 0x1234abcd5678ef01ULL;
    const SimReport report = makeReport();
    cache.store(key, report, nullptr);
    EXPECT_EQ(cache.stats().diskStores, 1u);

    // clear() drops the memory tier only; the next probe must fall
    // through to disk, replay bit-identically, and promote.
    cache.clear();
    EvalTier tier = EvalTier::Simulated;
    auto hit = cache.find(key, /*wantOutputs=*/false, nullptr, &tier);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(tier, EvalTier::Disk);
    expectSameReport(report, *hit);
    EXPECT_EQ(cache.stats().diskHits, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);

    // Promoted: the second probe is a memory hit, no disk traffic.
    tier = EvalTier::Simulated;
    hit = cache.find(key, false, nullptr, &tier);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(tier, EvalTier::Memory);
    EXPECT_EQ(cache.stats().diskHits, 1u);
}

TEST_F(EvalCacheDiskTest, FunctionalRoundTripReplaysOutputs)
{
    EvalCache &cache = EvalCache::instance();
    Gpu gpu;
    SumsProgram sp = buildSum(false, false);
    const int64_t R = 64, C = 64;
    CompileOptions copts;
    copts.paramValues = {{sp.r.ref()->varId, double(R)},
                         {sp.c.ref()->varId, double(C)}};

    std::vector<double> m(R * C), out(sp.outputSize(R, C), 0.0);
    Rng rng(1);
    for (auto &x : m)
        x = rng.uniform(0, 1);
    const auto bind = [&](Bindings &args, std::vector<double> &outBuf) {
        args.scalar(sp.r, double(R));
        args.scalar(sp.c, double(C));
        args.array(sp.m, m);
        args.array(sp.out, outBuf);
    };

    Bindings args(*sp.prog);
    bind(args, out);
    EvalTier tier = EvalTier::Simulated;
    const SimReport first = cachedCompileAndRun(
        gpu, *sp.prog, args, copts, {}, /*wantOutputs=*/true, &tier);
    EXPECT_EQ(tier, EvalTier::Simulated);
    const std::vector<double> expected = out;

    // New process simulated by dropping the memory tier: the functional
    // replay must come from disk, outputs included.
    cache.clear();
    std::vector<double> out2(sp.outputSize(R, C), 0.0);
    Bindings args2(*sp.prog);
    bind(args2, out2);
    tier = EvalTier::Simulated;
    const SimReport second = cachedCompileAndRun(
        gpu, *sp.prog, args2, copts, {}, /*wantOutputs=*/true, &tier);
    EXPECT_EQ(tier, EvalTier::Disk);
    expectSameReport(first, second);
    EXPECT_EQ(maxAbsDiff(expected, out2), 0.0);
}

TEST_F(EvalCacheDiskTest, ReportOnlyEntryCannotServeFunctionalLookup)
{
    EvalCache &cache = EvalCache::instance();
    Gpu gpu;
    SumsProgram sp = buildSum(false, false);
    const int64_t R = 32, C = 32;
    CompileOptions copts;
    copts.paramValues = {{sp.r.ref()->varId, double(R)},
                         {sp.c.ref()->varId, double(C)}};
    std::vector<double> m(R * C, 0.5), out(sp.outputSize(R, C), 0.0);
    Bindings args(*sp.prog);
    args.scalar(sp.r, double(R));
    args.scalar(sp.c, double(C));
    args.array(sp.m, m);
    args.array(sp.out, out);

    // Metrics-only evaluation stores a report-only entry on disk.
    cachedCompileAndRun(gpu, *sp.prog, args, copts, {},
                        /*wantOutputs=*/false);
    cache.clear();

    // A functional lookup of the same evaluation must re-simulate, not
    // replay a report that has no outputs to give.
    EvalTier tier = EvalTier::Memory;
    cachedCompileAndRun(gpu, *sp.prog, args, copts, {},
                        /*wantOutputs=*/true, &tier);
    EXPECT_EQ(tier, EvalTier::Simulated);
    EXPECT_GT(out[0], 0.0); // outputs actually produced
}

TEST_F(EvalCacheDiskTest, TruncatedFilesAreRejectedNotTrusted)
{
    EvalCache &cache = EvalCache::instance();
    const uint64_t key = 0xfeedface12345678ULL;
    cache.store(key, makeReport(), nullptr);
    const std::string path = onlyEntryPath();
    ASSERT_FALSE(path.empty());

    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    // Every truncation point — empty file, mid-header, mid-payload —
    // must read as a clean reject.
    for (const off_t len : {off_t(0), off_t(5), off_t(20), st.st_size / 2,
                            st.st_size - 1}) {
        ASSERT_EQ(::truncate(path.c_str(), len), 0);
        cache.clear();
        EXPECT_FALSE(
            cache.find(key, false, nullptr).has_value())
            << "truncated to " << len << " bytes";
        EXPECT_EQ(cache.stats().diskRejects, 1u);
        // Restore the full entry for the next truncation point. The
        // truncated file must go first: a report-only store politely
        // declines to clobber an existing file.
        ASSERT_EQ(::unlink(path.c_str()), 0);
        cache.store(key, makeReport(), nullptr);
    }
}

TEST_F(EvalCacheDiskTest, CorruptHeaderOrPayloadIsRejected)
{
    EvalCache &cache = EvalCache::instance();
    const uint64_t key = 0x0123456789abcdefULL;
    cache.store(key, makeReport(), nullptr);
    const std::string path = onlyEntryPath();
    ASSERT_FALSE(path.empty());

    std::ifstream in(path, std::ios::binary);
    std::string good((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(good.size(), 40u);

    const auto writeMutated = [&](size_t offset) {
        std::string bad = good;
        bad[offset] ^= 0x5a;
        std::ofstream outF(path, std::ios::binary | std::ios::trunc);
        outF.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    };

    // Offsets cover each guard: magic (0), format version (9), model
    // tag length (14), tag bytes (30), build hash (38), key (46),
    // payload size (54), checksum (62), payload body (tail).
    const size_t offsets[] = {0,  9,  14, 30, 38,
                              46, 54, 62, good.size() - 3};
    uint64_t expectedRejects = 0;
    for (const size_t offset : offsets) {
        writeMutated(offset);
        cache.clear();
        EXPECT_FALSE(cache.find(key, false, nullptr).has_value())
            << "flipped byte at offset " << offset;
        EXPECT_EQ(cache.stats().diskRejects, 1u)
            << "flipped byte at offset " << offset;
        expectedRejects++;
    }
    (void)expectedRejects;

    // The pristine bytes still load — the rejects above were the
    // mutations, not the reader.
    std::ofstream outF(path, std::ios::binary | std::ios::trunc);
    outF.write(good.data(), static_cast<std::streamsize>(good.size()));
    outF.close();
    cache.clear();
    EXPECT_TRUE(cache.find(key, false, nullptr).has_value());
}

TEST_F(EvalCacheDiskTest, WrongFormatVersionIsRejected)
{
    EvalCache &cache = EvalCache::instance();
    const uint64_t key = 0x1111222233334444ULL;
    cache.store(key, makeReport(), nullptr);
    const std::string path = onlyEntryPath();
    ASSERT_FALSE(path.empty());

    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    // The u32 format version sits right after the 8-byte magic.
    const uint32_t bogusVersion = kEvalCacheDiskFormatVersion + 1;
    std::memcpy(bytes.data() + 8, &bogusVersion, sizeof bogusVersion);
    std::ofstream outF(path, std::ios::binary | std::ios::trunc);
    outF.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    outF.close();

    cache.clear();
    EXPECT_FALSE(cache.find(key, false, nullptr).has_value());
    EXPECT_EQ(cache.stats().diskRejects, 1u);
}

TEST_F(EvalCacheDiskTest, RenamedEntryFailsKeyCheck)
{
    EvalCache &cache = EvalCache::instance();
    const uint64_t key = 0xaaaabbbbccccddddULL;
    const uint64_t otherKey = 0x5555666677778888ULL;
    cache.store(key, makeReport(), nullptr);
    const std::string path = onlyEntryPath();
    ASSERT_FALSE(path.empty());

    // A file renamed to another key's name must not satisfy that key:
    // the key baked into the header is authoritative.
    char name[32];
    std::snprintf(name, sizeof name, "%016llx",
                  static_cast<unsigned long long>(otherKey));
    const std::string renamed = dir_ + "/" + name + ".nppeval";
    ASSERT_EQ(std::rename(path.c_str(), renamed.c_str()), 0);

    cache.clear();
    EXPECT_FALSE(cache.find(otherKey, false, nullptr).has_value());
    EXPECT_EQ(cache.stats().diskRejects, 1u);
}

TEST_F(EvalCacheDiskTest, AccountedBytesTrackRealEntrySize)
{
    EvalCache &cache = EvalCache::instance();
    cache.setDiskDir(""); // memory-tier accounting only

    // A stats-heavy report: the heap payload dwarfs sizeof(SimReport),
    // which is exactly the case the old flat sizeof+64 estimate lost.
    SimReport heavy = makeReport();
    heavy.stats.siteTraffic.assign(20000, {1, 2.0, 3.0, 4.0});
    const uint64_t heapBytes = heavy.heapBytes();
    ASSERT_GT(heapBytes, 600000u); // 20k sites * 32 bytes

    cache.store(0x9999u, heavy, nullptr);
    const uint64_t accounted = cache.stats().bytes;
    // Accounted bytes must cover the heap payload and stay within a
    // small factor of it (struct + bookkeeping overhead only).
    EXPECT_GE(accounted, heapBytes);
    EXPECT_LE(accounted, 2 * heapBytes);
}

TEST_F(EvalCacheDiskTest, UndersizedBudgetActuallyEvicts)
{
    EvalCache &cache = EvalCache::instance();
    cache.setDiskDir("");
    SimReport heavy = makeReport();
    heavy.stats.siteTraffic.assign(20000, {1, 2.0, 3.0, 4.0});

    // Budget for ~2 heavy entries; under the old flat estimate (~500
    // bytes/entry) all 8 would have been admitted without any eviction.
    cache.setCapacityBytes(
        static_cast<int64_t>(2 * heavy.heapBytes() + 8192));
    for (uint64_t k = 1; k <= 8; k++)
        cache.store(k, heavy, nullptr);
    const EvalCacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.entries, 3u);
    EXPECT_LE(stats.bytes, static_cast<uint64_t>(cache.capacityBytes()));
}

TEST_F(EvalCacheDiskTest, ResetCountersResetsEverything)
{
    EvalCache &cache = EvalCache::instance();

    // Generate nonzero values for every counter class: memory hit and
    // miss, disk store/hit/reject, and evictions.
    const SimReport report = makeReport();
    cache.store(1, report, nullptr);
    cache.find(1, false, nullptr);            // memory hit
    cache.find(2, false, nullptr);            // miss both tiers
    cache.clear();
    cache.find(1, false, nullptr);            // disk hit
    const std::string path = onlyEntryPath();
    ASSERT_EQ(::truncate(path.c_str(), 4), 0);
    cache.clear();
    cache.find(1, false, nullptr);            // disk reject
    SimReport heavy = makeReport();
    heavy.stats.siteTraffic.assign(20000, {1, 2.0, 3.0, 4.0});
    cache.setCapacityBytes(static_cast<int64_t>(heavy.heapBytes() + 4096));
    cache.store(3, heavy, nullptr);
    cache.store(4, heavy, nullptr); // evicts 3

    EvalCacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.diskRejects, 0u);

    // resetCounters must zero *all* effectiveness counters — the old
    // version forgot evictions — while keeping the entries resident.
    const uint64_t entriesBefore = stats.entries;
    cache.resetCounters();
    stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.diskMisses, 0u);
    EXPECT_EQ(stats.diskStores, 0u);
    EXPECT_EQ(stats.diskRejects, 0u);
    EXPECT_EQ(stats.entries, entriesBefore);
    EXPECT_GT(stats.bytes, 0u);
}

TEST_F(EvalCacheDiskTest, OtherBuildIsRejected)
{
    EvalCache &cache = EvalCache::instance();
    const uint64_t key = 0x2222333344445555ULL;
    cache.store(key, makeReport(), nullptr);
    const std::string path = onlyEntryPath();
    ASSERT_FALSE(path.empty());

    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    // The u64 build hash follows the magic, the format version, the
    // model tag's length and the tag itself.
    const size_t offset = 8 + 4 + 4 + std::strlen(kCoalesceModelVersion);
    ASSERT_GT(bytes.size(), offset + 8);
    uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + offset, sizeof stored);
    EXPECT_EQ(stored, evalCacheBuildHash());
    const uint64_t otherBuild = ~stored;
    std::memcpy(bytes.data() + offset, &otherBuild, sizeof otherBuild);
    std::ofstream outF(path, std::ios::binary | std::ios::trunc);
    outF.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    outF.close();

    cache.clear();
    EXPECT_FALSE(cache.find(key, false, nullptr).has_value());
    EXPECT_EQ(cache.stats().diskRejects, 1u);
}

/** A one-level copy program `out(i) = 2 * in(i)` of `n` elements. */
struct CopyProgram
{
    explicit CopyProgram(int64_t n) : n(n), in(n), out(n, 0.0)
    {
        ProgramBuilder b("copy");
        inArr = b.inF64("in");
        nParam = b.paramI64("n");
        outArr = b.outF64("out");
        Arr src = inArr;
        b.map(nParam, outArr, [&](Body &, Ex i) { return 2.0 * src(i); });
        prog = std::make_unique<Program>(b.build());
        for (int64_t i = 0; i < n; i++)
            in[i] = 0.5 * static_cast<double>(i) - 3.0;
    }

    /** Bindings of the input and `outBuf` as the output. */
    Bindings
    bind(std::vector<double> &outBuf)
    {
        Bindings args(*prog);
        args.scalar(nParam, static_cast<double>(n));
        args.array(inArr, in);
        args.array(outArr, outBuf);
        return args;
    }

    int64_t n;
    std::vector<double> in, out;
    std::unique_ptr<Program> prog;
    Arr inArr, outArr;
    Ex nParam;
};

TEST_F(EvalCacheDiskTest, ReferenceEntryRoundTripsThroughDisk)
{
    EvalCache &cache = EvalCache::instance();
    CopyProgram cp(300);
    const uint64_t seed = EvalCache::referenceSeed(*cp.prog);

    Bindings args = cp.bind(cp.out);
    EvalTier tier = EvalTier::Memory;
    const WorkCounts first = cachedReference(*cp.prog, args, seed, &tier);
    EXPECT_EQ(tier, EvalTier::Simulated);
    EXPECT_EQ(cache.stats().diskStores, 1u);
    const std::vector<double> expected = cp.out;
    EXPECT_EQ(expected[7], 2.0 * cp.in[7]);

    // Drop memory: the replay comes from disk, counts and outputs.
    cache.clear();
    std::vector<double> out2(cp.n, 0.0);
    Bindings args2 = cp.bind(out2);
    tier = EvalTier::Simulated;
    const WorkCounts second = cachedReference(*cp.prog, args2, seed, &tier);
    EXPECT_EQ(tier, EvalTier::Disk);
    EXPECT_EQ(second.computeOps, first.computeOps);
    EXPECT_EQ(second.bytesRead, first.bytesRead);
    EXPECT_EQ(second.bytesWritten, first.bytesWritten);
    EXPECT_EQ(second.iterations, first.iterations);
    EXPECT_EQ(std::memcmp(out2.data(), expected.data(),
                          expected.size() * sizeof(double)),
              0);

    // Promoted: the next replay is a memory hit.
    std::fill(out2.begin(), out2.end(), 0.0);
    tier = EvalTier::Simulated;
    cachedReference(*cp.prog, args2, seed, &tier);
    EXPECT_EQ(tier, EvalTier::Memory);
    EXPECT_EQ(out2, expected);
}

TEST_F(EvalCacheDiskTest, ReferenceAndGpuEntriesNeverAnswerEachOther)
{
    EvalCache &cache = EvalCache::instance();
    CopyProgram cp(64);
    Bindings args = cp.bind(cp.out);
    const uint64_t refKey = 0x0101010101010101ULL;
    const uint64_t gpuKey = 0x0202020202020202ULL;
    cache.storeReference(refKey, WorkCounts{1, 2, 3, 4}, args);
    cache.store(gpuKey, makeReport(), &args);

    // Memory tier, then (after clear) the disk tier: a probe of one
    // kind misses an entry of the other, with or without outputs.
    for (int pass = 0; pass < 2; pass++) {
        SCOPED_TRACE(pass == 0 ? "memory" : "disk");
        if (pass == 1)
            cache.clear();
        EXPECT_FALSE(cache.find(refKey, false, nullptr).has_value());
        EXPECT_FALSE(cache.find(refKey, true, &args).has_value());
        EXPECT_FALSE(cache.findReference(gpuKey, args).has_value());
        EXPECT_EQ(cache.stats().diskRejects, 0u);
    }
    cache.clear();
    const auto work = cache.findReference(refKey, args);
    ASSERT_TRUE(work.has_value());
    EXPECT_EQ(work->iterations, 4u);
    EXPECT_TRUE(cache.find(gpuKey, true, &args).has_value());
}

TEST_F(EvalCacheDiskTest, EqualOutputsShareOneBlob)
{
    EvalCache &cache = EvalCache::instance();
    cache.setDiskDir(""); // memory-tier accounting only
    const int64_t n = 1 << 16;
    const uint64_t blobBytes = n * sizeof(double);
    CopyProgram cp(n);
    const SimReport report = makeReport();

    std::vector<double> outA(n, 1.5), outB(n, 1.5), outC(n, -1.5);
    Bindings a = cp.bind(outA), b = cp.bind(outB), c = cp.bind(outC);
    cache.store(1, report, &a);
    const uint64_t one = cache.stats().bytes;
    EXPECT_GE(one, blobBytes);
    cache.store(2, report, &b); // equal contents: no second copy
    const uint64_t two = cache.stats().bytes;
    EXPECT_LT(two - one, blobBytes / 8);
    cache.store(3, report, &c); // new contents: a new blob
    const uint64_t three = cache.stats().bytes;
    EXPECT_GE(three - two, blobBytes);

    // Evict entry 1 only (least recently used); its blob stays, held
    // by entry 2, which still replays.
    cache.setCapacityBytes(static_cast<int64_t>(three - 1));
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_LT(three - cache.stats().bytes, blobBytes / 8);
    std::vector<double> replay(n, 0.0);
    Bindings r = cp.bind(replay);
    ASSERT_TRUE(cache.find(2, true, &r).has_value());
    EXPECT_EQ(replay, outA);
    ASSERT_TRUE(cache.find(3, true, &r).has_value());
    EXPECT_EQ(replay, outC);

    // The last user gone, every blob is freed.
    cache.setCapacityBytes(1);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
}

} // namespace
