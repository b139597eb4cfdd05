/**
 * @file
 * Differential suite for block-parallel exact simulation and
 * root-parallel reference runs (runtime/parallel_launch.h): every
 * program runs on a 4-thread pool and on a one-thread pool, and the two
 * must agree bit for bit — reports through reportsBitIdentical and the
 * field table, outputs by memcmp, reference WorkCounts exactly. The
 * programs are the figure apps at reduced sizes, the seven demo
 * programs under every strategy (sharded fleet runs and siteStats
 * included), and the seeded random programs of the classing suite, in
 * functional and metrics-only (classing off) mode.
 *
 * The refusal cases give one program per rule: each must run serially
 * with its named reason (read from the trace counters) and still equal
 * the serial run. A program whose blocks store different values to one
 * element must run in parallel, find the conflict, rerun serially and
 * count the rerun.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "apps/realworld.h"
#include "apps/rodinia.h"
#include "classed_fixture.h"
#include "runtime/reference.h"
#include "server/programs.h"
#include "sim/evalcache.h"
#include "sim/fleet.h"
#include "support/parallel.h"
#include "support/trace.h"

namespace npp {
namespace {

using difftest::expectSameRows;

constexpr int kThreads = 4;

/** The concatenated contents of every output array param. */
std::vector<double>
outputsOf(const Program &prog, const Bindings &args)
{
    std::vector<double> out;
    for (const auto &v : prog.vars()) {
        if (v.role != VarRole::ArrayParam || !v.isOutput)
            continue;
        const ArraySlot &s = args.arraySlot(v.id);
        if (s.data)
            out.insert(out.end(), s.data, s.data + s.physSize);
    }
    return out;
}

void
expectSameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
              0)
        << "outputs differ";
}

void
expectSameReports(const SimReport &a, const SimReport &b)
{
    expectSameRows(a, b, /*diagnostics=*/true);
    EXPECT_TRUE(reportsBitIdentical(a, b));
}

void
expectSameWork(const WorkCounts &a, const WorkCounts &b)
{
    EXPECT_EQ(a.computeOps, b.computeOps);
    EXPECT_EQ(a.bytesRead, b.bytesRead);
    EXPECT_EQ(a.bytesWritten, b.bytesWritten);
    EXPECT_EQ(a.iterations, b.iterations);
}

/**
 * Tracing on and counters cleared for the fixture's lifetime, the pool
 * back at its default size and the eval cache off (every run truly
 * simulates) afterwards and during.
 */
class BlockParallel : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Trace::instance().clear();
        Trace::instance().setEnabled(true);
        savedCapacity_ = EvalCache::instance().capacityBytes();
        EvalCache::instance().clear();
        EvalCache::instance().setCapacityBytes(0);
    }

    void
    TearDown() override
    {
        setParallelThreadCount(0);
        setExactEvalObserver({});
        Trace::instance().setEnabled(false);
        Trace::instance().clear();
        EvalCache::instance().setCapacityBytes(savedCapacity_);
    }

    static double
    counter(const std::string &name)
    {
        return Trace::instance().counterValue(name);
    }

  private:
    int64_t savedCapacity_ = 0;
};

//
// Demo programs
//

const std::map<std::string, std::map<std::string, int64_t>> &
demoSizes()
{
    static const std::map<std::string, std::map<std::string, int64_t>>
        sizes = {{"sumrows", {{"rows", 96}, {"cols", 160}}},
                 {"sumcols", {{"rows", 96}, {"cols", 160}}},
                 {"weightedrows", {{"rows", 80}, {"cols", 144}}},
                 {"weightedcols", {{"rows", 80}, {"cols", 144}}},
                 {"pagerank", {{"nodes", 600}}},
                 {"mandelbrot", {{"height", 40}, {"width", 72}}},
                 {"spmv", {{"rows", 700}}}};
    return sizes;
}

struct DemoRun
{
    std::vector<SimReport> reports; //!< one per device
    std::vector<double> outputs;
};

DemoRun
runDemo(const std::string &name, Strategy strategy, const ExecOptions &eo,
        int devices, int threads)
{
    std::string err;
    auto d = buildDemoProgram(name, demoSizes().at(name), &err);
    EXPECT_TRUE(d) << err;
    Gpu gpu;
    CompileOptions copts;
    copts.strategy = strategy;
    copts.paramValues = d->params;
    copts.fuseMapReduce = d->fuse;
    CompileResult cr = compileProgram(*d->prog, gpu.config(), copts);
    Bindings args(*d->prog);
    d->bind(args);
    setParallelThreadCount(threads);
    DemoRun run;
    if (devices == 1) {
        run.reports.push_back(gpu.run(cr.spec, args, eo));
    } else {
        run.reports =
            runOnFleet(gpu, cr.spec, args, fleetK20c(devices), eo)
                .perDevice;
    }
    setParallelThreadCount(0);
    run.outputs = outputsOf(*d->prog, args);
    return run;
}

TEST_F(BlockParallel, DemoProgramsMatchTheSerialLoop)
{
    const Strategy strategies[] = {
        Strategy::MultiDim, Strategy::OneD, Strategy::ThreadBlockThread,
        Strategy::WarpBased, Strategy::Consolidate};
    for (const std::string &name : demoProgramNames()) {
        for (const Strategy strategy : strategies) {
            for (const bool metricsOnly : {false, true}) {
                for (const bool sites : {false, true}) {
                    for (const int devices : {1, 2}) {
                        SCOPED_TRACE(name + " " + strategyName(strategy) +
                                     (metricsOnly ? " metrics-only"
                                                  : " functional") +
                                     (sites ? " siteStats" : "") +
                                     " devices=" +
                                     std::to_string(devices));
                        ExecOptions eo;
                        eo.metricsOnly = metricsOnly;
                        eo.blockClasses = false;
                        eo.siteStats = sites;
                        const DemoRun serial =
                            runDemo(name, strategy, eo, devices, 1);
                        const DemoRun parallel =
                            runDemo(name, strategy, eo, devices, kThreads);
                        ASSERT_EQ(serial.reports.size(),
                                  parallel.reports.size());
                        for (size_t i = 0; i < serial.reports.size(); i++)
                            expectSameReports(serial.reports[i],
                                              parallel.reports[i]);
                        expectSameBits(serial.outputs, parallel.outputs);
                    }
                }
            }
        }
    }
    // The suite is not vacuous: the row sums ran block-parallel.
    EXPECT_GT(counter("sim.parallel_launches/sumRows"), 0);
    EXPECT_GT(counter("sim.parallel_launches/mandelbrot"), 0);
    EXPECT_EQ(counter("sim.serial_reruns"), 0);
}

TEST_F(BlockParallel, DemoReferenceRunsMatchTheSerialLoop)
{
    for (const std::string &name : demoProgramNames()) {
        SCOPED_TRACE(name);
        std::string err;
        auto d = buildDemoProgram(name, demoSizes().at(name), &err);
        ASSERT_TRUE(d) << err;
        WorkCounts work[2];
        std::vector<double> out[2];
        for (const int t : {0, 1}) {
            Bindings args(*d->prog);
            d->bind(args);
            setParallelThreadCount(t == 0 ? 1 : kThreads);
            work[t] = ReferenceInterp().run(*d->prog, args);
            setParallelThreadCount(0);
            out[t] = outputsOf(*d->prog, args);
        }
        expectSameWork(work[0], work[1]);
        expectSameBits(out[0], out[1]);
    }
    EXPECT_GT(counter("runtime.parallel_launches/sumRows"), 0);
}

//
// Figure apps
//

/** The figure apps (plus the other evaluation apps) at test sizes,
 *  mostly powers of two so that their launches pass R4 and run
 *  block-parallel. */
std::vector<std::unique_ptr<App>>
smallApps()
{
    std::vector<std::unique_ptr<App>> apps;
    apps.push_back(makeNearestNeighbor(1 << 12));
    apps.push_back(makeGaussian(40, false));
    apps.push_back(makeGaussian(40, true));
    apps.push_back(makeHotspot(64, 2, false));
    apps.push_back(makeHotspot(64, 2, true));
    apps.push_back(makeMandelbrot(64, 512, 12, false));
    apps.push_back(makeMandelbrot(64, 512, 12, true));
    apps.push_back(makeSrad(64, 2, false));
    apps.push_back(makeSrad(64, 2, true));
    apps.push_back(makePathfinder(6, 4096));
    apps.push_back(makeLud(40));
    apps.push_back(makeBfs(2048, 6));
    apps.push_back(makeQpscd(256, 64, 1));
    apps.push_back(makeMsmBuilder(1024, 16, 16));
    apps.push_back(makeNaiveBayes(96, 64));
    apps.push_back(makeKmeans(512, 8, 12, 2));
    apps.push_back(makePageRank(1024, 6, 2));
    return apps;
}

/** Every launch of one app's host loop: the exact reports in launch
 *  order, the compared outputs, and (reference mode) the work. */
struct AppRun
{
    std::vector<SimReport> reports;
    std::vector<double> outputs;
    WorkCounts work;
};

AppRun
runApp(App &app, const Gpu &gpu, std::optional<Strategy> strategy,
       int threads)
{
    AppRun run;
    setExactEvalObserver([&](const ExactEvalInfo &info) {
        run.reports.push_back(*info.report);
    });
    setParallelThreadCount(threads);
    if (strategy) {
        CompileOptions copts;
        copts.strategy = *strategy;
        Runner runner(gpu, copts);
        run.outputs = app.hostLoop(runner);
    } else {
        Runner runner;
        run.outputs = app.hostLoop(runner);
        run.work = runner.work;
    }
    setParallelThreadCount(0);
    setExactEvalObserver({});
    return run;
}

TEST_F(BlockParallel, FigureAppsMatchTheSerialLoop)
{
    Gpu gpu;
    for (auto &app : smallApps()) {
        for (const std::optional<Strategy> strategy :
             {std::optional<Strategy>(Strategy::MultiDim),
              std::optional<Strategy>(Strategy::OneD),
              std::optional<Strategy>()}) {
            SCOPED_TRACE(app->name() + " " +
                         (strategy ? strategyName(*strategy)
                                   : "reference"));
            const AppRun serial = runApp(*app, gpu, strategy, 1);
            const AppRun parallel = runApp(*app, gpu, strategy, kThreads);
            ASSERT_EQ(serial.reports.size(), parallel.reports.size());
            for (size_t i = 0; i < serial.reports.size(); i++)
                expectSameReports(serial.reports[i], parallel.reports[i]);
            expectSameBits(serial.outputs, parallel.outputs);
            expectSameWork(serial.work, parallel.work);
        }
    }
    EXPECT_GT(counter("sim.parallel_launches"), 0);
    EXPECT_GT(counter("runtime.parallel_launches"), 0);
}

//
// Seeded random programs
//

class BlockParallelRandom
    : public BlockParallel,
      public ::testing::WithParamInterface<uint64_t>
{};

TEST_P(BlockParallelRandom, MatchesTheSerialLoop)
{
    const difftest::DiffCase c = difftest::randomCase(GetParam());
    CompileOptions fixed;
    fixed.strategy = Strategy::Fixed;
    fixed.fixedMapping.levels = {{0, 8, SpanType::one()},
                                 {1, 32, SpanType::all()}};
    CompileOptions oneD;
    oneD.strategy = Strategy::OneD;
    Gpu gpu;
    for (const CompileOptions &copts : {CompileOptions{}, oneD, fixed}) {
        CompileResult cr = compileProgram(*c.prog, gpu.config(), copts);
        for (const bool metricsOnly : {false, true}) {
            SCOPED_TRACE(c.name + " " + strategyName(copts.strategy) +
                         (metricsOnly ? " metrics-only" : " functional"));
            SimReport report[2];
            std::vector<double> out[2];
            for (const int t : {0, 1}) {
                Bindings args(*c.prog);
                c.bindInputs(args);
                std::vector<std::vector<double>> storage;
                for (const auto &[arr, size] : c.outputs)
                    storage.emplace_back(std::max<int64_t>(size, 1), 0.0);
                for (size_t i = 0; i < c.outputs.size(); i++)
                    args.array(c.outputs[i].first, storage[i]);
                ExecOptions eo;
                eo.metricsOnly = metricsOnly;
                eo.blockClasses = false;
                setParallelThreadCount(t == 0 ? 1 : kThreads);
                report[t] = gpu.run(cr.spec, args, eo);
                setParallelThreadCount(0);
                out[t] = outputsOf(*c.prog, args);
            }
            expectSameReports(report[0], report[1]);
            expectSameBits(out[0], out[1]);
        }
    }
    WorkCounts work[2];
    std::vector<double> out[2];
    for (const int t : {0, 1}) {
        Bindings args(*c.prog);
        c.bindInputs(args);
        std::vector<double> storage(std::max<int64_t>(c.outputs[0].second,
                                                      1));
        args.array(c.outputs[0].first, storage);
        setParallelThreadCount(t == 0 ? 1 : kThreads);
        work[t] = ReferenceInterp().run(*c.prog, args);
        setParallelThreadCount(0);
        out[t] = storage;
    }
    expectSameWork(work[0], work[1]);
    expectSameBits(out[0], out[1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockParallelRandom,
                         ::testing::Range<uint64_t>(1, 17),
                         [](const ::testing::TestParamInfo<uint64_t> &i) {
                             return "seed" + std::to_string(i.param);
                         });

//
// Refusals, one per rule, and a racy program
//

/** A program with its inputs, run once per pool size. */
struct Case
{
    std::shared_ptr<Program> prog;
    std::function<void(Bindings &, std::vector<std::vector<double>> &)>
        bind;
    CompileOptions copts;
};

/** Run the case on the simulator (functional) and the reference at one
 *  thread and at kThreads; both must agree. */
void
expectSerialEquivalent(const Case &c)
{
    Gpu gpu;
    CompileResult cr = compileProgram(*c.prog, gpu.config(), c.copts);
    SimReport report[2];
    WorkCounts work[2];
    std::vector<double> simOut[2], refOut[2];
    for (const int t : {0, 1}) {
        setParallelThreadCount(t == 0 ? 1 : kThreads);
        {
            std::vector<std::vector<double>> storage;
            Bindings args(*c.prog);
            c.bind(args, storage);
            report[t] = gpu.run(cr.spec, args);
            simOut[t] = outputsOf(*c.prog, args);
        }
        {
            std::vector<std::vector<double>> storage;
            Bindings args(*c.prog);
            c.bind(args, storage);
            work[t] = ReferenceInterp().run(*c.prog, args);
            refOut[t] = outputsOf(*c.prog, args);
        }
        setParallelThreadCount(0);
    }
    expectSameReports(report[0], report[1]);
    expectSameBits(simOut[0], simOut[1]);
    expectSameWork(work[0], work[1]);
    expectSameBits(refOut[0], refOut[1]);
}

/** Bind m (R*C inputs), out (R) and the R/C params of a row program. */
std::function<void(Bindings &, std::vector<std::vector<double>> &)>
rowBinder(Arr m, Arr out, Ex r, Ex cc, int64_t R, int64_t C,
          int64_t outSize = -1)
{
    return [=](Bindings &args, std::vector<std::vector<double>> &st) {
        st.resize(2);
        st[0].resize(R * C);
        for (int64_t i = 0; i < R * C; i++)
            st[0][i] = static_cast<double>((i * 37) % 101) * 0.25 - 3.0;
        st[1].assign(outSize < 0 ? R : outSize, 0.0);
        args.scalar(r, static_cast<double>(R));
        args.scalar(cc, static_cast<double>(C));
        args.array(m, st[0]);
        args.array(out, st[1]);
    };
}

/** sum over j of m(i*C + j), one row per root iteration. */
Case
rowSums(const std::string &name, int64_t R, int64_t C)
{
    ProgramBuilder b(name);
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        return fn.reduce(cc, Op::Add,
                         [&](Body &, Ex j) { return m(i * cc + j); });
    });
    Case c;
    c.prog = std::make_shared<Program>(b.build());
    c.bind = rowBinder(m, out, r, cc, R, C);
    return c;
}

TEST_F(BlockParallel, RootFilterIsRefusedUnderR1)
{
    ProgramBuilder b("par_root_filter");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    Arr count = b.outF64("count");
    b.filter(r, out, count, [&](Body &, Ex i) {
        return FilterItem{m(i) > 0.0, m(i) * 2.0};
    });
    Case c;
    c.prog = std::make_shared<Program>(b.build());
    c.bind = [=](Bindings &args, std::vector<std::vector<double>> &st) {
        rowBinder(m, out, r, cc, 256, 1)(args, st);
        st.emplace_back(1, 0.0);
        args.array(count, st.back());
    };
    expectSerialEquivalent(c);
    const std::string why = "R1: root Filter appends at one launch-wide "
                            "cursor";
    EXPECT_EQ(counter("sim.serial_launches/par_root_filter: " + why), 2);
    EXPECT_EQ(counter("runtime.serial_launches/par_root_filter: " + why),
              2);
}

TEST_F(BlockParallel, RootGroupByIsRefusedUnderR1)
{
    ProgramBuilder b("par_root_groupby");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    b.groupBy(r, Op::Add, out, [&](Body &, Ex i) {
        return KeyedValue{Ex(i) % 7, m(i)};
    });
    Case c;
    c.prog = std::make_shared<Program>(b.build());
    c.bind = rowBinder(m, out, r, cc, 512, 1, /*outSize=*/7);
    expectSerialEquivalent(c);
    const std::string why = "R1: root GroupBy read-modify-writes its "
                            "output";
    EXPECT_EQ(counter("sim.serial_launches/par_root_groupby: " + why), 2);
    EXPECT_EQ(counter("runtime.serial_launches/par_root_groupby: " + why),
              2);
}

TEST_F(BlockParallel, SplitLevelIsRefusedUnderR2)
{
    Case c = rowSums("par_split", 16, 4096);
    c.copts.strategy = Strategy::Fixed;
    c.copts.fixedMapping.levels = {{1, 1, SpanType::one()},
                                   {0, 256, SpanType::split(4)}};
    expectSerialEquivalent(c);
    EXPECT_EQ(counter("sim.serial_launches/par_split: R2: level 1 is "
                      "Split"),
              2);
    // The reference has no levels: its root iterations still ran in
    // parallel on the 4-thread pool.
    EXPECT_EQ(counter("runtime.parallel_launches/par_split"), 1);
}

TEST_F(BlockParallel, ConsolidatedSpecIsRefusedUnderR2)
{
    std::string err;
    auto d = buildDemoProgram("spmv", {{"rows", 700}}, &err);
    ASSERT_TRUE(d) << err;
    Case c;
    c.prog = d->prog;
    c.bind = [&](Bindings &args, std::vector<std::vector<double>> &) {
        d->bind(args);
    };
    c.copts.strategy = Strategy::Consolidate;
    c.copts.paramValues = d->params;
    Gpu gpu;
    ASSERT_TRUE(compileProgram(*c.prog, gpu.config(), c.copts)
                    .spec.consolidation.enabled);
    expectSerialEquivalent(c);
    EXPECT_EQ(counter("sim.serial_launches/csr_spmv: R2: consolidated spec"),
              2);
}

TEST_F(BlockParallel, ReadingAWrittenArrayIsRefusedUnderR3)
{
    // BFS's claim shape: an edge reads `visited` and stores into it.
    ProgramBuilder b("par_visited");
    Arr dst = b.inF64("dst");
    Ex n = b.paramI64("N");
    Arr visited = b.inOutF64("visited");
    b.foreach(n, [&](Body &fn, Ex i) {
        fn.branch(visited(dst(i)) == 0.0, [&](Body &claim) {
            claim.store(visited, dst(i), Ex(i) + 1.0);
        });
    });
    Case c;
    c.prog = std::make_shared<Program>(b.build());
    c.bind = [=](Bindings &args, std::vector<std::vector<double>> &st) {
        const int64_t N = 2048;
        st.resize(2);
        st[0].resize(N);
        for (int64_t i = 0; i < N; i++)
            st[0][i] = static_cast<double>((i * 13) % 300);
        st[1].assign(300, 0.0);
        args.scalar(n, static_cast<double>(N));
        args.array(dst, st[0]);
        args.array(visited, st[1]);
    };
    expectSerialEquivalent(c);
    const std::string why = "R3: reads written array visited";
    EXPECT_EQ(counter("sim.serial_launches/par_visited: " + why), 2);
    EXPECT_EQ(counter("runtime.serial_launches/par_visited: " + why), 2);
}

TEST_F(BlockParallel, AliasedBindingIsRefusedUnderR3)
{
    // out(i) = m(i + 1) over one vector bound as both m and out: the
    // serial loop reads what earlier iterations have not yet written.
    ProgramBuilder b("par_alias");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &, Ex i) { return m(i + 1) * 0.5 + 1.0; });
    Case c;
    c.prog = std::make_shared<Program>(b.build());
    c.bind = [=](Bindings &args, std::vector<std::vector<double>> &st) {
        st.assign(1, std::vector<double>(4097));
        for (size_t i = 0; i < st[0].size(); i++)
            st[0][i] = static_cast<double>(i % 17);
        args.scalar(r, 4096.0);
        args.array(m, st[0]);
        args.array(out, st[0]);
    };
    expectSerialEquivalent(c);
    const std::string why = "R3: written array out shares storage with m";
    EXPECT_EQ(counter("sim.serial_launches/par_alias: " + why), 2);
    EXPECT_EQ(counter("runtime.serial_launches/par_alias: " + why), 2);
}

TEST_F(BlockParallel, NonPowerOfTwoTrimmedBlockIsRefusedUnderR4)
{
    // 48 columns under a 64-lane inner level: makeGeometry trims the
    // block to 48.
    Case c = rowSums("par_trim", 256, 48);
    c.copts.strategy = Strategy::Fixed;
    c.copts.fixedMapping.levels = {{1, 4, SpanType::one()},
                                   {0, 64, SpanType::all()}};
    expectSerialEquivalent(c);
    EXPECT_EQ(counter("sim.serial_launches/par_trim: R4: level 1 block "
                      "size is not a power of two"),
              2);
    EXPECT_EQ(counter("runtime.parallel_launches/par_trim"), 1);
}

TEST_F(BlockParallel, NonPowerOfTwoBlockWithNestedReduceMatches)
{
    // 48 rows per block with a 16-lane nested reduce: the combine
    // charges (log2(16) + 1) / 48 syncs per row, not a dyadic rational,
    // so only the serial fold order gives the serial bits.
    Case c = rowSums("par_npot", 48 * 24, 16);
    c.copts.strategy = Strategy::Fixed;
    c.copts.fixedMapping.levels = {{1, 48, SpanType::one()},
                                   {0, 16, SpanType::all()}};
    expectSerialEquivalent(c);
    EXPECT_EQ(counter("sim.serial_launches/par_npot: R4: level 0 block "
                      "size is not a power of two"),
              2);
}

TEST_F(BlockParallel, ConflictingStoresRerunSerially)
{
    // Every block stores its own row index into last(0): the parallel
    // pass finds the element claimed by another worker, and the serial
    // rerun leaves the serial loop's value (the last row's).
    ProgramBuilder b("par_conflict");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    Arr last = b.outF64("last");
    b.map(r, out, [&](Body &fn, Ex i) {
        fn.store(last, Ex(0.0), Ex(i));
        return fn.reduce(cc, Op::Add,
                         [&](Body &, Ex j) { return m(i * cc + j); });
    });
    Case c;
    c.prog = std::make_shared<Program>(b.build());
    c.copts.strategy = Strategy::Fixed;
    c.copts.fixedMapping.levels = {{1, 8, SpanType::one()},
                                   {0, 32, SpanType::all()}};
    c.bind = [=](Bindings &args, std::vector<std::vector<double>> &st) {
        // Enough work per launch (tens of ms) that every pool worker
        // wakes and claims chunks before the caller drains the range.
        rowBinder(m, out, r, cc, 2048, 512)(args, st);
        st.emplace_back(1, -1.0);
        args.array(last, st.back());
    };
    expectSerialEquivalent(c);
    const std::string why = "two blocks stored to one element";
    EXPECT_EQ(counter("sim.serial_reruns/par_conflict: " + why), 1);
    EXPECT_EQ(counter("runtime.serial_reruns/par_conflict: two root "
                      "iterations stored to one element"),
              1);
    EXPECT_EQ(counter("sim.parallel_launches"), 0);
}

} // namespace
} // namespace npp
