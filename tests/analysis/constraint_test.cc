/**
 * @file
 * Tests for constraint generation (Section IV-C, Table II, Fig 8): hard
 * span constraints from synchronization and dynamic sizes, coalescing
 * soft constraints with execution-count weights and branch discounts.
 */

#include <gtest/gtest.h>

#include "analysis/constraint.h"
#include "analysis/search.h"
#include "ir/builder.h"

namespace npp {
namespace {

struct Built
{
    Program prog;
    ConstraintSet cset;
};

ConstraintSet
constraintsFor(const Program &prog,
               const std::unordered_map<int, double> &params = {})
{
    AnalysisEnv env;
    env.prog = &prog;
    env.paramValues = params;
    return buildConstraints(prog, env, teslaK20c());
}

int
countKind(const ConstraintSet &cset, Constraint::Kind kind, int level = -2)
{
    int n = 0;
    for (const auto &c : cset.all) {
        if (c.kind == kind && (level == -2 || c.level == level))
            n++;
    }
    return n;
}

double
coalesceWeight(const ConstraintSet &cset, int level)
{
    double w = 0;
    for (const auto &c : cset.all) {
        if (c.kind == Constraint::Kind::SoftCoalesce && c.level == level)
            w += c.weight;
    }
    return w;
}

TEST(Constraints, SumRowsShape)
{
    ProgramBuilder b("sumRows");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), c = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        return fn.reduce(c, Op::Add,
                         [&](Body &, Ex j) { return m(i * c + j); });
    });
    Program p = b.build();
    ConstraintSet cs = constraintsFor(
        p, {{r.ref()->varId, 8192.0}, {c.ref()->varId, 8192.0}});

    EXPECT_EQ(cs.numLevels, 2);
    EXPECT_FALSE(cs.mustSpanAll[0]);
    EXPECT_TRUE(cs.mustSpanAll[1]) << "reduce needs global sync";
    EXPECT_TRUE(cs.splittable[1]);
    EXPECT_DOUBLE_EQ(cs.levelSizes[0], 8192.0);
    EXPECT_DOUBLE_EQ(cs.levelSizes[1], 8192.0);

    // The m[i*C+j] read is sequential in the inner level; the out[i]
    // store is sequential in the outer level. Inner weight must dominate
    // (deeper nest executes C times more often, Fig 8).
    EXPECT_GT(coalesceWeight(cs, 1), 0.0);
    EXPECT_GT(coalesceWeight(cs, 0), 0.0);
    EXPECT_GT(coalesceWeight(cs, 1), 100 * coalesceWeight(cs, 0));
}

TEST(Constraints, SumColsPrefersOuterCoalescing)
{
    // out[j] = sum_i m[i*C + j]: stride-1 in the OUTER index.
    ProgramBuilder b("sumCols");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), c = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(c, out, [&](Body &fn, Ex j) {
        return fn.reduce(r, Op::Add,
                         [&](Body &, Ex i) { return m(i * c + j); });
    });
    Program p = b.build();
    ConstraintSet cs = constraintsFor(
        p, {{r.ref()->varId, 8192.0}, {c.ref()->varId, 8192.0}});

    // All coalescing weight lands on level 0; the inner index has stride
    // C so level 1 receives no coalescing constraint.
    EXPECT_GT(coalesceWeight(cs, 0), 0.0);
    EXPECT_DOUBLE_EQ(coalesceWeight(cs, 1), 0.0);
}

TEST(Constraints, DynamicSizeIsNotSplittable)
{
    // CSR traversal: inner size depends on the outer index.
    ProgramBuilder b("csr");
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
    Program p = b.build();
    ConstraintSet cs = constraintsFor(p);

    EXPECT_TRUE(cs.mustSpanAll[1]);
    EXPECT_FALSE(cs.splittable[1])
        << "dynamic sizes cannot plan a combiner kernel";
    // Default size assumption for the unknown inner domain.
    EXPECT_DOUBLE_EQ(cs.levelSizes[1], 1000.0);
    // vals[begin + j] is still recognized as sequential in j.
    EXPECT_GT(coalesceWeight(cs, 1), 0.0);
}

TEST(Constraints, EnclosingStoreIsNotSplittable)
{
    // Split(k) reruns the enclosing body in every segment block, so a
    // Store there (here under an If) would take effect k times. A Store
    // inside a sibling nested pattern runs per segment and is harmless.
    auto build = [](bool storeInBody) {
        ProgramBuilder b("g");
        Arr m = b.inF64("m");
        Arr io = b.inOutF64("io");
        Ex r = b.paramI64("R"), c = b.paramI64("C");
        Arr out = b.outF64("out");
        b.map(r, out, [&](Body &fn, Ex i) {
            if (storeInBody) {
                fn.branch(m(i) > 0.0, [&](Body &then) {
                    then.store(io, i, io(i) + 1.0);
                });
            } else {
                fn.foreach(c, [&](Body &body, Ex j) {
                    body.store(io, i * c + j, io(i * c + j) + 1.0);
                });
            }
            return fn.reduce(c, Op::Add,
                             [&](Body &, Ex j) { return m(i * c + j); });
        });
        return b.build();
    };
    const Program stores = build(true);
    const ConstraintSet cs = constraintsFor(stores);
    EXPECT_FALSE(cs.splittable[1]);
    EXPECT_NE(cs.unsplittableReason[1].find("Store"), std::string::npos)
        << cs.unsplittableReason[1];

    const Program nestedStores = build(false);
    const ConstraintSet ok = constraintsFor(nestedStores);
    EXPECT_TRUE(ok.splittable[1]);
    EXPECT_TRUE(ok.unsplittableReason[1].empty());

    // Every enclosing body counts, not just the nearest: segment blocks
    // of a level-2 split rerun the root body too.
    ProgramBuilder b("deep");
    Arr m = b.inF64("m");
    Arr io = b.inOutF64("io");
    Ex r = b.paramI64("R"), c = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        fn.store(io, i, io(i) + 1.0);
        Arr w = fn.map(Ex(4), [&](Body &row, Ex) {
            return row.reduce(c, Op::Add,
                              [&](Body &, Ex k) { return m(i * c + k); });
        });
        return w(Ex(0.0));
    });
    const Program deep = b.build();
    EXPECT_FALSE(constraintsFor(deep).splittable[2]);
}

TEST(Constraints, SeqLoopAroundReduceIsNotSplittable)
{
    // Split partials are keyed by the enclosing indices only, so a
    // reduce that a SeqLoop reruns (here in the root body, around a
    // level-2 reduce too) would sum every iteration into one slot.
    ProgramBuilder b("loop");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), c = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        Ex s;
        fn.seqLoop(Ex(3), [&](Body &body, Ex) {
            Arr w = body.map(Ex(4), [&](Body &row, Ex) {
                return row.reduce(
                    c, Op::Add, [&](Body &, Ex k) { return m(i * c + k); });
            });
            s = body.reduce(c, Op::Add,
                            [&](Body &, Ex k) { return w(Ex(0.0)) + k; });
        });
        return s;
    });
    const Program loop = b.build();
    const ConstraintSet cs = constraintsFor(loop);
    for (int level : {1, 2}) {
        EXPECT_FALSE(cs.splittable[level]) << "L" << level;
        EXPECT_NE(cs.unsplittableReason[level].find("sequential loop"),
                  std::string::npos)
            << cs.unsplittableReason[level];
    }

    // The mapping explanation names the reason on the level's check.
    MappingDecision d;
    d.levels = {{1, 1, SpanType::one()},
                {0, 32, SpanType::split(3)},
                {2, 1, SpanType::all()}};
    const MappingExplanation ex = MappingSearch(teslaK20c()).explain(d, cs);
    EXPECT_FALSE(ex.feasible);
    bool named = false;
    for (const HardCheck &check : ex.hardChecks) {
        if (check.name == "L1 split legal") {
            EXPECT_FALSE(check.passed);
            named = check.detail.find("sequential loop") != std::string::npos;
        }
    }
    EXPECT_TRUE(named);
}

TEST(Constraints, BranchDiscountHalvesWeight)
{
    auto build = [](bool underBranch) {
        ProgramBuilder b("g");
        Arr in = b.inF64("in");
        Ex n = b.paramI64("n");
        Arr out = b.outF64("out");
        b.foreach(n, [&](Body &fn, Ex i) {
            if (underBranch) {
                fn.branch(i > 0, [&](Body &t) {
                    t.store(out, i, in(i) * 2.0);
                });
            } else {
                fn.store(out, i, in(i) * 2.0);
            }
        });
        return b.build();
    };
    Program plain = build(false);
    Program branched = build(true);
    double wPlain = coalesceWeight(constraintsFor(plain), 0);
    double wBranched = coalesceWeight(constraintsFor(branched), 0);
    EXPECT_GT(wPlain, 0);
    EXPECT_NEAR(wBranched, wPlain / 2.0, 1e-9)
        << "Then-branch accesses are discounted by 0.5";
}

TEST(Constraints, SeqLoopMultipliesWeight)
{
    auto build = [](int64_t trip) {
        ProgramBuilder b("g");
        Arr in = b.inF64("in");
        Ex n = b.paramI64("n");
        Arr out = b.outF64("out");
        b.map(n, out, [&](Body &fn, Ex i) {
            Mut acc = fn.mut("acc", Ex(0.0));
            fn.seqLoop(Ex(static_cast<long long>(trip)),
                       [&](Body &body, Ex) {
                           body.assign(acc, acc.ex() + in(i));
                       });
            return acc.ex();
        });
        return b.build();
    };
    Program t1 = build(1);
    Program t64 = build(64);
    // The out[i] store contributes equally; isolate the in(i) read by
    // differencing.
    double w1 = coalesceWeight(constraintsFor(t1), 0);
    double w64 = coalesceWeight(constraintsFor(t64), 0);
    EXPECT_GT(w64, w1);
    EXPECT_NEAR((w64 - w1) / (63.0), (w1 - 10.0 * 1000.0) / 1.0, 1e-6)
        << "read weight scales linearly with the trip count";
}

TEST(Constraints, LocalArrayAccessesAreFlexible)
{
    // Fig 15 shape: zipWith into a local temp, then reduce the temp.
    ProgramBuilder b("weighted");
    Arr m = b.inF64("m");
    Arr v = b.inF64("v");
    Ex r = b.paramI64("R"), c = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        Arr temp = fn.zipWith(
            c, [&](Body &, Ex j) { return m(i * c + j) * v(j); });
        return fn.reduce(c, Op::Add,
                         [&](Body &, Ex j) { return temp(j); });
    });
    Program p = b.build();
    ConstraintSet cs = constraintsFor(p);

    int flexible = 0, inflexible = 0;
    for (const auto &cst : cs.all) {
        if (cst.kind != Constraint::Kind::SoftCoalesce)
            continue;
        (cst.flexible ? flexible : inflexible)++;
    }
    EXPECT_GT(flexible, 0) << "temp[] accesses are layout-flexible";
    EXPECT_GT(inflexible, 0) << "m/v/out accesses are not";
}

TEST(Constraints, GroupByAndFilterForceSpanAll)
{
    {
        ProgramBuilder b("hist");
        Arr keys = b.inI64("keys");
        Ex n = b.paramI64("n");
        Arr out = b.outF64("out");
        b.groupBy(n, Op::Add, out, [&](Body &, Ex i) {
            return KeyedValue{keys(i), Ex(1.0)};
        });
        Program p = b.build();
        EXPECT_TRUE(constraintsFor(p).mustSpanAll[0]);
    }
    {
        ProgramBuilder b("f");
        Arr in = b.inF64("in");
        Ex n = b.paramI64("n");
        Arr out = b.outF64("out");
        Arr cnt = b.outF64("cnt");
        b.filter(n, out, cnt, [&](Body &, Ex i) {
            return FilterItem{in(i) > 0.0, in(i)};
        });
        Program p = b.build();
        EXPECT_TRUE(constraintsFor(p).mustSpanAll[0]);
    }
}

TEST(Constraints, MinBlockConstraintAlwaysPresent)
{
    ProgramBuilder b("t");
    Arr in = b.inF64("in");
    Ex n = b.paramI64("n");
    Arr out = b.outF64("out");
    b.map(n, out, [&](Body &, Ex i) { return in(i); });
    Program p = b.build();
    ConstraintSet cs = constraintsFor(p);
    EXPECT_EQ(countKind(cs, Constraint::Kind::SoftMinBlock), 1);
}

} // namespace
} // namespace npp
