/**
 * @file
 * Integration tests for the GPU-simulator executor: for every mapping
 * strategy, the mapped execution must produce exactly the same outputs as
 * the sequential reference interpreter — the core correctness invariant
 * of the whole compilation pipeline.
 */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "sim/gpu.h"
#include "support/rng.h"

namespace npp {
namespace {

/** A reusable program-under-test with its bindings and outputs. */
struct Case
{
    std::string name;
    std::shared_ptr<Program> prog;
    std::function<void(Bindings &)> bindInputs;
    std::vector<std::pair<Arr, int64_t>> outputs; // array handle + size
};

/** Run `prog` on the reference and on the simulator; compare outputs. */
void
expectEquivalentOpts(const Case &c, const CompileOptions &copts,
                     double tolerance)
{
    Gpu gpu;

    // Reference run.
    std::vector<std::vector<double>> refOut;
    {
        Bindings args(*c.prog);
        c.bindInputs(args);
        refOut.reserve(c.outputs.size());
        for (const auto &[arr, size] : c.outputs) {
            refOut.emplace_back(size, 0.0);
        }
        for (size_t i = 0; i < c.outputs.size(); i++)
            args.array(c.outputs[i].first, refOut[i]);
        ReferenceInterp().run(*c.prog, args);
    }

    // Simulated run.
    std::vector<std::vector<double>> simOut;
    {
        Bindings args(*c.prog);
        c.bindInputs(args);
        simOut.reserve(c.outputs.size());
        for (const auto &[arr, size] : c.outputs)
            simOut.emplace_back(size, 0.0);
        for (size_t i = 0; i < c.outputs.size(); i++)
            args.array(c.outputs[i].first, simOut[i]);
        gpu.compileAndRun(*c.prog, args, copts);
    }

    for (size_t i = 0; i < c.outputs.size(); i++) {
        EXPECT_LE(maxRelDiff(refOut[i], simOut[i]), tolerance)
            << c.name << " output " << i << " under "
            << strategyName(copts.strategy);
    }
}

void
expectEquivalent(const Case &c, Strategy strategy, double tolerance = 1e-9)
{
    CompileOptions copts;
    copts.strategy = strategy;
    expectEquivalentOpts(c, copts, tolerance);
}

void
expectEquivalentFixed(const Case &c, const MappingDecision &decision,
                      double tolerance = 1e-9)
{
    CompileOptions copts;
    copts.strategy = Strategy::Fixed;
    copts.fixedMapping = decision;
    expectEquivalentOpts(c, copts, tolerance);
}

//
// Shared inputs
//

std::vector<double> &
sharedMatrix(int64_t n)
{
    static std::vector<double> m;
    if (static_cast<int64_t>(m.size()) < n) {
        Rng rng(42);
        m.resize(n);
        for (auto &v : m)
            v = rng.uniform(-1, 1);
    }
    return m;
}

Case
sumRowsCase(int64_t R, int64_t C)
{
    ProgramBuilder b("sumRows");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        return fn.reduce(cc, Op::Add,
                         [&](Body &, Ex j) { return m(i * cc + j); });
    });
    Case c;
    c.name = "sumRows";
    c.prog = std::make_shared<Program>(b.build());
    c.bindInputs = [=](Bindings &args) {
        args.scalar(r, static_cast<double>(R));
        args.scalar(cc, static_cast<double>(C));
        args.array(m, sharedMatrix(R * C));
    };
    c.outputs = {{out, R}};
    return c;
}

Case
sumColsCase(int64_t R, int64_t C)
{
    ProgramBuilder b("sumCols");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(cc, out, [&](Body &fn, Ex j) {
        return fn.reduce(r, Op::Add,
                         [&](Body &, Ex i) { return m(i * cc + j); });
    });
    Case c;
    c.name = "sumCols";
    c.prog = std::make_shared<Program>(b.build());
    c.bindInputs = [=](Bindings &args) {
        args.scalar(r, static_cast<double>(R));
        args.scalar(cc, static_cast<double>(C));
        args.array(m, sharedMatrix(R * C));
    };
    c.outputs = {{out, C}};
    return c;
}

Case
weightedCase(int64_t R, int64_t C)
{
    // Fig 15: zipWith into a local temp, reduce the temp.
    ProgramBuilder b("sumWeightedRows");
    Arr m = b.inF64("m");
    Arr v = b.inF64("v");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        Arr temp = fn.zipWith(
            cc, [&](Body &, Ex j) { return m(i * cc + j) * v(j); });
        return fn.reduce(cc, Op::Add,
                         [&](Body &, Ex j) { return temp(j); });
    });
    Case c;
    c.name = "sumWeightedRows";
    c.prog = std::make_shared<Program>(b.build());
    c.bindInputs = [=](Bindings &args) {
        args.scalar(r, static_cast<double>(R));
        args.scalar(cc, static_cast<double>(C));
        args.array(m, sharedMatrix(R * C));
        static std::vector<double> w;
        if (static_cast<int64_t>(w.size()) != C) {
            w.assign(C, 0.0);
            Rng rng(7);
            for (auto &x : w)
                x = rng.uniform(0, 2);
        }
        args.array(v, w);
    };
    c.outputs = {{out, R}};
    return c;
}

Case
csrCase()
{
    // Dynamic inner sizes (graph-shaped).
    ProgramBuilder b("segSum");
    Arr start = b.inI64("start");
    Arr vals = b.inF64("vals");
    Ex n = b.paramI64("n");
    Arr out = b.outF64("out");
    b.map(n, out, [&](Body &fn, Ex i) {
        Ex begin = fn.let("begin", start(i));
        Ex cnt = fn.let("cnt", start(i + 1) - begin);
        return fn.reduce(cnt, Op::Add,
                         [&](Body &, Ex j) { return vals(begin + j); });
    });
    Case c;
    c.name = "segSum";
    c.prog = std::make_shared<Program>(b.build());
    const int64_t nodes = 300;
    c.bindInputs = [=](Bindings &args) {
        static std::vector<double> startData, valsData;
        if (startData.empty()) {
            Rng rng(3);
            startData.push_back(0);
            for (int64_t i = 0; i < nodes; i++) {
                startData.push_back(startData.back() +
                                    static_cast<double>(rng.below(70)));
            }
            valsData.resize(static_cast<size_t>(startData.back()));
            for (auto &v : valsData)
                v = rng.uniform(-1, 1);
        }
        args.scalar(n, nodes);
        args.array(start, startData);
        args.array(vals, valsData);
    };
    c.outputs = {{out, nodes}};
    return c;
}

Case
mandelCase()
{
    // Sequential escape-time loop inside a 2-level nest; the map over
    // rows yields the per-row sum of iteration counts.
    ProgramBuilder b2("mandel");
    Ex h2 = b2.paramI64("H"), w2 = b2.paramI64("W");
    Arr out2 = b2.outF64("out");
    b2.map(h2, out2, [&](Body &fn, Ex y) {
        return fn.reduce(w2, Op::Add, [&](Body &inner, Ex x) {
            Ex cr = inner.let("cr", (Ex(x) * 3.5) / w2 - 2.5);
            Ex ci = inner.let("ci", (Ex(y) * 2.0) / h2 - 1.0);
            Mut zr = inner.mut("zr", Ex(0.0));
            Mut zi = inner.mut("zi", Ex(0.0));
            Mut steps = inner.mut("steps", Ex(0.0));
            inner.seqLoop(
                Ex(32),
                [&](Body &body, Ex) {
                    Ex nzr = body.let("nzr",
                                      zr.ex() * zr.ex() -
                                          zi.ex() * zi.ex() + cr);
                    Ex nzi = body.let("nzi",
                                      zr.ex() * zi.ex() * 2.0 + ci);
                    body.assign(zr, nzr);
                    body.assign(zi, nzi);
                    body.assign(steps, steps.ex() + 1.0);
                },
                zr.ex() * zr.ex() + zi.ex() * zi.ex() > 4.0);
            return steps.ex();
        });
    });
    Case c;
    c.name = "mandel";
    c.prog = std::make_shared<Program>(b2.build());
    c.bindInputs = [=](Bindings &args) {
        args.scalar(h2, 40);
        args.scalar(w2, 120);
    };
    c.outputs = {{out2, 40}};
    return c;
}

//
// Parameterized over mapping strategies.
//

class StrategyEquivalence
    : public ::testing::TestWithParam<Strategy>
{};

TEST_P(StrategyEquivalence, SumRowsSquare)
{
    expectEquivalent(sumRowsCase(64, 96), GetParam());
}

TEST_P(StrategyEquivalence, SumRowsSkewedWide)
{
    expectEquivalent(sumRowsCase(8, 2048), GetParam());
}

TEST_P(StrategyEquivalence, SumRowsSkewedTall)
{
    expectEquivalent(sumRowsCase(2048, 8), GetParam());
}

TEST_P(StrategyEquivalence, SumCols)
{
    expectEquivalent(sumColsCase(96, 64), GetParam());
}

TEST_P(StrategyEquivalence, WeightedWithLocalArray)
{
    expectEquivalent(weightedCase(48, 130), GetParam());
}

TEST_P(StrategyEquivalence, DynamicInnerSizes)
{
    expectEquivalent(csrCase(), GetParam());
}

TEST_P(StrategyEquivalence, EscapeTimeLoop)
{
    expectEquivalent(mandelCase(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyEquivalence,
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

//
// Fixed-mapping sweep: a grid of handwritten mappings must all agree
// with the reference (property-style hard-constraint coverage).
//

/** Run `c` under a grid of two-level fixed mappings (inner level span
 *  all, Split(3) or span(1)); returns how many were feasible. */
int
sweepFixedMappings(const Case &c)
{
    const DeviceConfig dev = teslaK20c();
    AnalysisEnv env;
    env.prog = c.prog.get();
    ConstraintSet cs = buildConstraints(*c.prog, env, dev);
    MappingSearch search(dev);

    int tested = 0;
    for (int outerDim : {0, 1}) {
        for (int64_t outerBs : {1, 8, 64}) {
            for (int64_t innerBs : {1, 32, 128}) {
                for (SpanType inner : {SpanType::all(), SpanType::split(3),
                                       SpanType::one()}) {
                    MappingDecision d;
                    d.levels.resize(2);
                    d.levels[0] = {outerDim, outerBs, SpanType::one()};
                    d.levels[1] = {outerDim == 0 ? 1 : 0, innerBs, inner};
                    if (!search.feasible(d, cs))
                        continue;
                    tested++;
                    expectEquivalentFixed(c, d);
                }
            }
        }
    }
    return tested;
}

TEST(FixedMappingSweep, SumRowsManyMappings)
{
    EXPECT_GT(sweepFixedMappings(sumRowsCase(40, 70)), 8);
}

/** The root yield reads a sibling nested-map local next to a reduce, so
 *  under Split(k) the combiner must rerun the root body to rebuild `w`
 *  before storing the yield. */
TEST(FixedMappingSweep, SplitYieldReadsSiblingMap)
{
    const int64_t R = 40, C = 70;
    ProgramBuilder b("splitYield");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        Arr w = fn.map(cc, [&](Body &, Ex j) { return 2.0 * m(i * cc + j); });
        Ex s = fn.reduce(cc, Op::Add, [&](Body &, Ex j) { return w(j); });
        return s + w(Ex(0.0)) + w(cc - 1);
    });
    Case c;
    c.name = "splitYield";
    c.prog = std::make_shared<Program>(b.build());
    c.bindInputs = [=](Bindings &args) {
        args.scalar(r, static_cast<double>(R));
        args.scalar(cc, static_cast<double>(C));
        args.array(m, sharedMatrix(R * C));
    };
    c.outputs = {{out, R}};
    EXPECT_GT(sweepFixedMappings(c), 8);
}

/** Every statement kind around a split reduce: the combiner replay must
 *  rebuild the mutable (SeqLoop with a break, If/else) and the sibling
 *  map `w` for the yield, and must not rerun the nested Foreach's
 *  in-place stores, which took effect once in the main kernel. */
TEST(FixedMappingSweep, SplitReplayWalksEveryStatementKind)
{
    const int64_t R = 40, C = 70;
    ProgramBuilder b("splitReplay");
    Arr m = b.inF64("m");
    Arr io = b.inOutF64("io");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        Mut acc = fn.mut("acc", Ex(0.0));
        fn.seqLoop(
            Ex(8),
            [&](Body &body, Ex k) {
                body.assign(acc, acc.ex() + m(i * cc + k) + 1.0);
            },
            acc.ex() > 3.0);
        fn.branch(
            m(i * cc) > 0.0,
            [&](Body &body) { body.assign(acc, acc.ex() * 2.0); },
            [&](Body &body) { body.assign(acc, acc.ex() - 1.0); });
        fn.foreach(cc, [&](Body &body, Ex j) {
            body.store(io, i * cc + j, io(i * cc + j) + 1.0);
        });
        Arr w = fn.map(cc,
                       [&](Body &, Ex j) { return 2.0 * m(i * cc + j); });
        Ex s = fn.reduce(cc, Op::Add,
                         [&](Body &, Ex j) { return m(i * cc + j); });
        return acc.ex() + s + w(Ex(0.0));
    });
    Case c;
    c.name = "splitReplay";
    c.prog = std::make_shared<Program>(b.build());
    c.bindInputs = [=](Bindings &args) {
        args.scalar(r, static_cast<double>(R));
        args.scalar(cc, static_cast<double>(C));
        args.array(m, sharedMatrix(R * C));
    };
    c.outputs = {{out, R}, {io, R * C}};
    EXPECT_GT(sweepFixedMappings(c), 8);
}

/** A Store in the enclosing body beside a splittable reduce would run
 *  once per Split(k) segment block, so level 1 must refuse Split. */
TEST(FixedMappingSweep, EnclosingStoreRefusesSplit)
{
    const int64_t R = 40, C = 70;
    ProgramBuilder b("splitStore");
    Arr m = b.inF64("m");
    Arr io = b.inOutF64("io");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        fn.store(io, i, io(i) + 1.0);
        return fn.reduce(cc, Op::Add,
                         [&](Body &, Ex j) { return m(i * cc + j); });
    });
    Case c;
    c.name = "splitStore";
    c.prog = std::make_shared<Program>(b.build());
    c.bindInputs = [=](Bindings &args) {
        args.scalar(r, static_cast<double>(R));
        args.scalar(cc, static_cast<double>(C));
        args.array(m, sharedMatrix(R * C));
    };
    c.outputs = {{out, R}, {io, R}};
    EXPECT_GT(sweepFixedMappings(c), 8);
}

/** A Store in the enclosing body beside a nested foreach: every block
 *  of the inner level reran it (io[0] read 3 for 1 over a 70-wide level
 *  in 32-lane blocks under span(1)), so the inner level must span all. */
TEST(FixedMappingSweep, EnclosingStoreForcesInnerSpanAll)
{
    const int64_t R = 4, C = 70;
    ProgramBuilder b("storeBeside");
    Arr m = b.inF64("m");
    Arr io = b.inOutF64("io");
    Arr o = b.inOutF64("o");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    b.foreach(r, [&](Body &fn, Ex i) {
        fn.store(io, i, io(i) + 1.0);
        fn.foreach(cc, [&](Body &body, Ex j) {
            body.store(o, i * cc + j, m(i * cc + j) * 2.0);
        });
    });
    Case c;
    c.name = "storeBeside";
    c.prog = std::make_shared<Program>(b.build());
    c.bindInputs = [=](Bindings &args) {
        args.scalar(r, static_cast<double>(R));
        args.scalar(cc, static_cast<double>(C));
        args.array(m, sharedMatrix(R * C));
    };
    c.outputs = {{io, R}, {o, R * C}};
    EXPECT_GT(sweepFixedMappings(c), 4);

    MappingDecision d;
    d.levels = {{1, 1, SpanType::one()}, {0, 32, SpanType::one()}};
    AnalysisEnv env;
    env.prog = c.prog.get();
    EXPECT_FALSE(MappingSearch(teslaK20c())
                     .feasible(d, buildConstraints(*c.prog, env,
                                                   teslaK20c())));
}

/** A reduce inside a SeqLoop of the enclosing body: its split partials
 *  are keyed by the enclosing indices, not by the loop counter, so under
 *  Split(k) every iteration added into one slot (3x the reference: 210
 *  for 70 with m = 1, C = 70). Level 1 must refuse Split. */
TEST(FixedMappingSweep, SeqLoopAroundReduceRefusesSplit)
{
    const int64_t R = 40, C = 70;
    ProgramBuilder b("splitSeqLoop");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        Ex s;
        fn.seqLoop(Ex(3), [&](Body &body, Ex) {
            s = body.reduce(cc, Op::Add,
                            [&](Body &, Ex k) { return m(i * cc + k); });
        });
        return s;
    });
    Case c;
    c.name = "splitSeqLoop";
    c.prog = std::make_shared<Program>(b.build());
    c.bindInputs = [=](Bindings &args) {
        args.scalar(r, static_cast<double>(R));
        args.scalar(cc, static_cast<double>(C));
        args.array(m, sharedMatrix(R * C));
    };
    c.outputs = {{out, R}};
    EXPECT_GT(sweepFixedMappings(c), 8);
}

//
// Filter and GroupBy equivalence under their (span-all) mappings.
//

TEST(RootPatterns, FilterMatchesReference)
{
    ProgramBuilder b("positives");
    Arr in = b.inF64("in");
    Ex n = b.paramI64("n");
    Arr out = b.outF64("out");
    Arr cnt = b.outF64("count");
    b.filter(n, out, cnt, [&](Body &, Ex i) {
        return FilterItem{in(i) > 0.0, in(i) * 3.0};
    });
    auto prog = std::make_shared<Program>(b.build());

    const int64_t N = 1000;
    Rng rng(5);
    std::vector<double> inData(N);
    for (auto &v : inData)
        v = rng.uniform(-1, 1);

    std::vector<double> refOut(N, 0.0), refCnt(1, 0.0);
    std::vector<double> simOut(N, 0.0), simCnt(1, 0.0);

    {
        Bindings args(*prog);
        args.scalar(n, N);
        args.array(in, inData);
        args.array(out, refOut);
        args.array(cnt, refCnt);
        ReferenceInterp().run(*prog, args);
    }
    {
        Bindings args(*prog);
        args.scalar(n, N);
        args.array(in, inData);
        args.array(out, simOut);
        args.array(cnt, simCnt);
        Gpu().compileAndRun(*prog, args);
    }
    EXPECT_DOUBLE_EQ(refCnt[0], simCnt[0]);
    EXPECT_LE(maxAbsDiff(refOut, simOut), 0.0) << "order must match";
}

TEST(RootPatterns, GroupByMatchesReference)
{
    ProgramBuilder b("hist");
    Arr keys = b.inI64("keys");
    Arr vals = b.inF64("vals");
    Ex n = b.paramI64("n");
    Arr out = b.outF64("out");
    b.groupBy(n, Op::Add, out, [&](Body &, Ex i) {
        return KeyedValue{keys(i), vals(i)};
    });
    auto prog = std::make_shared<Program>(b.build());

    const int64_t N = 4000, K = 16;
    Rng rng(9);
    std::vector<double> keyData(N), valData(N);
    for (int64_t i = 0; i < N; i++) {
        keyData[i] = static_cast<double>(rng.below(K));
        valData[i] = rng.uniform(0, 1);
    }
    std::vector<double> refOut(K), simOut(K);
    {
        Bindings args(*prog);
        args.scalar(n, N);
        args.array(keys, keyData);
        args.array(vals, valData);
        args.array(out, refOut);
        ReferenceInterp().run(*prog, args);
    }
    {
        Bindings args(*prog);
        args.scalar(n, N);
        args.array(keys, keyData);
        args.array(vals, valData);
        args.array(out, simOut);
        Gpu().compileAndRun(*prog, args);
    }
    EXPECT_LE(maxRelDiff(refOut, simOut), 1e-9);
}

TEST(RootPatterns, RootReduceMatchesReference)
{
    ProgramBuilder b("dot");
    Arr a = b.inF64("a");
    Arr c = b.inF64("c");
    Ex n = b.paramI64("n");
    Arr out = b.outF64("out");
    b.reduce(n, Op::Add, out,
             [&](Body &, Ex i) { return a(i) * c(i); });
    auto prog = std::make_shared<Program>(b.build());

    const int64_t N = 100000;
    Rng rng(13);
    std::vector<double> aData(N), cData(N);
    for (int64_t i = 0; i < N; i++) {
        aData[i] = rng.uniform(-1, 1);
        cData[i] = rng.uniform(-1, 1);
    }
    std::vector<double> refOut(1), simOut(1);
    {
        Bindings args(*prog);
        args.scalar(n, N);
        args.array(a, aData);
        args.array(c, cData);
        args.array(out, refOut);
        ReferenceInterp().run(*prog, args);
    }
    SimReport report;
    {
        Bindings args(*prog);
        args.scalar(n, N);
        args.array(a, aData);
        args.array(c, cData);
        args.array(out, simOut);
        report = Gpu().compileAndRun(*prog, args);
    }
    EXPECT_NEAR(refOut[0], simOut[0], 1e-7);
    // A 100K root reduce must be split for DOP (13*2048 min).
    EXPECT_TRUE(report.stats.hasCombiner);
}

} // namespace
} // namespace npp
