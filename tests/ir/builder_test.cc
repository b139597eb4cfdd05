/**
 * @file
 * Tests for the builder EDSL: program structure, nesting depth, variable
 * roles, validation errors, and the pretty printer.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/traverse.h"

namespace npp {
namespace {

Program
buildSumRows()
{
    ProgramBuilder b("sumRows");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R");
    Ex c = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        return fn.reduce(c, Op::Add,
                         [&](Body &, Ex j) { return m(i * c + j); });
    });
    return b.build();
}

TEST(Builder, SumRowsStructure)
{
    Program p = buildSumRows();
    EXPECT_EQ(p.name(), "sumRows");
    EXPECT_EQ(p.numLevels(), 2);
    EXPECT_EQ(p.root().kind, PatternKind::Map);
    ASSERT_EQ(p.root().body.size(), 1u);
    EXPECT_EQ(p.root().body[0]->kind, StmtKind::Nested);
    EXPECT_EQ(p.root().body[0]->pattern->kind, PatternKind::Reduce);
    EXPECT_GE(p.rootOutput(), 0);
    EXPECT_TRUE(p.var(p.rootOutput()).isOutput);
}

TEST(Builder, VariableRoles)
{
    Program p = buildSumRows();
    int nIndices = 0, nParams = 0, nArrays = 0, nLocals = 0;
    for (const auto &v : p.vars()) {
        switch (v.role) {
          case VarRole::Index: nIndices++; break;
          case VarRole::ScalarParam: nParams++; break;
          case VarRole::ArrayParam: nArrays++; break;
          case VarRole::ScalarLocal: nLocals++; break;
          default: break;
        }
    }
    EXPECT_EQ(nIndices, 2); // outer map + inner reduce
    EXPECT_EQ(nParams, 2);  // R, C
    EXPECT_EQ(nArrays, 2);  // m, out
    EXPECT_EQ(nLocals, 1);  // reduce accumulator
}

TEST(Builder, PageRankShape)
{
    // Fig 5 of the paper: map { map; reduce; arithmetic } — two patterns
    // at level 1.
    ProgramBuilder b("pagerank");
    Arr nbrStart = b.inI64("nbrStart");
    Arr nbrs = b.inI64("nbrs");
    Arr degree = b.inF64("degree");
    Arr prev = b.inF64("prev");
    Ex n = b.paramI64("numNodes");
    Ex damp = b.paramF64("damp");
    Arr out = b.outF64("out");

    b.map(n, out, [&](Body &fn, Ex i) {
        Ex begin = fn.let("begin", nbrStart(i));
        Ex cnt = fn.let("cnt", nbrStart(i + 1) - begin);
        Arr w = fn.map(cnt, [&](Body &, Ex j) {
            return prev(nbrs(begin + j)) / degree(nbrs(begin + j));
        });
        Ex sum = fn.reduce(cnt, Op::Add, [&](Body &, Ex j) { return w(j); });
        return (1.0 - damp) / n + damp * sum;
    });
    Program p = b.build();

    EXPECT_EQ(p.numLevels(), 2);
    auto pats = collectPatterns(p.root());
    ASSERT_EQ(pats.size(), 3u);
    EXPECT_EQ(pats[0].second, 0);
    EXPECT_EQ(pats[1].second, 1);
    EXPECT_EQ(pats[2].second, 1);
    EXPECT_EQ(pats[1].first->kind, PatternKind::Map);
    EXPECT_EQ(pats[2].first->kind, PatternKind::Reduce);
}

TEST(Builder, TripleNesting)
{
    ProgramBuilder b("triple");
    Ex n = b.paramI64("n");
    Arr in = b.inF64("in");
    Arr out = b.outF64("out");
    b.map(n, out, [&](Body &f0, Ex i) {
        return f0.reduce(n, Op::Add, [&](Body &f1, Ex j) {
            return f1.reduce(n, Op::Max, [&](Body &, Ex k) {
                return in(i * n * n + j * n + k);
            });
        });
    });
    Program p = b.build();
    EXPECT_EQ(p.numLevels(), 3);
}

TEST(Builder, SeqLoopAndMutables)
{
    ProgramBuilder b("mandel-ish");
    Ex n = b.paramI64("n");
    Arr out = b.outF64("out");
    b.map(n, out, [&](Body &fn, Ex i) {
        Mut x = fn.mut("x", Ex(0.0));
        fn.seqLoop(
            Ex(10),
            [&](Body &body, Ex) { body.assign(x, x.ex() + i); },
            x.ex() > 100.0);
        return x.ex();
    });
    Program p = b.build();
    ASSERT_EQ(p.root().body.size(), 2u); // mut init + seq loop
    const Stmt &loop = *p.root().body[1];
    EXPECT_EQ(loop.kind, StmtKind::SeqLoop);
    EXPECT_TRUE(loop.cond != nullptr);
    EXPECT_EQ(p.numLevels(), 1) << "seq loops are not parallel levels";
}

TEST(Builder, BranchStatements)
{
    ProgramBuilder b("branchy");
    Ex n = b.paramI64("n");
    Arr flag = b.inF64("flag");
    Arr out = b.outF64("out");
    b.foreach(n, [&](Body &fn, Ex i) {
        fn.branch(
            flag(i) > 0.0,
            [&](Body &t) { t.store(out, i, Ex(1.0)); },
            [&](Body &e) { e.store(out, i, Ex(-1.0)); });
    });
    Program p = b.build();
    const Stmt &ifStmt = *p.root().body[0];
    EXPECT_EQ(ifStmt.kind, StmtKind::If);
    EXPECT_EQ(ifStmt.body.size(), 1u);
    EXPECT_EQ(ifStmt.elseBody.size(), 1u);
}

TEST(Builder, FilterAndGroupByRoots)
{
    {
        ProgramBuilder b("positives");
        Ex n = b.paramI64("n");
        Arr in = b.inF64("in");
        Arr out = b.outF64("out");
        Arr cnt = b.outF64("count");
        b.filter(n, out, cnt, [&](Body &, Ex i) {
            return FilterItem{in(i) > 0.0, in(i)};
        });
        Program p = b.build();
        EXPECT_EQ(p.root().kind, PatternKind::Filter);
        EXPECT_GE(p.countOutput(), 0);
    }
    {
        ProgramBuilder b("histogram");
        Ex n = b.paramI64("n");
        Arr keys = b.inI64("keys");
        Arr out = b.outF64("out");
        b.groupBy(n, Op::Add, out, [&](Body &, Ex i) {
            return KeyedValue{keys(i), Ex(1.0)};
        });
        Program p = b.build();
        EXPECT_EQ(p.root().kind, PatternKind::GroupBy);
    }
}

TEST(Builder, CloneIsDeepAndEquallyPrinted)
{
    Program p = buildSumRows();
    PatternPtr copy = clonePattern(p.root());
    EXPECT_NE(copy.get(), &p.root());
    EXPECT_EQ(copy->depth(), p.root().depth());
    EXPECT_NE(copy->body[0].get(), p.root().body[0].get());
    // Shared immutable exprs may be aliased; structure must match.
    EXPECT_EQ(copy->body[0]->pattern->kind, PatternKind::Reduce);
}

TEST(Printer, SumRowsRendering)
{
    Program p = buildSumRows();
    std::string text = printProgram(p);
    EXPECT_NE(text.find("program sumRows"), std::string::npos);
    EXPECT_NE(text.find("map("), std::string::npos);
    EXPECT_NE(text.find("reduce("), std::string::npos);
    EXPECT_NE(text.find("m[((i4 * C) + i5)]"), std::string::npos)
        << text;
    EXPECT_NE(text.find("yield"), std::string::npos);
}

TEST(BuilderDeath, RootYieldRequired)
{
    EXPECT_DEATH(
        {
            ProgramBuilder b("bad");
            Ex n = b.paramI64("n");
            Arr out = b.outF64("out");
            b.map(n, out, [&](Body &, Ex) { return Ex(); });
        },
        "empty yield");
}

TEST(BuilderDeath, NonAssociativeReduceRejected)
{
    EXPECT_DEATH(
        {
            ProgramBuilder b("bad");
            Ex n = b.paramI64("n");
            Arr in = b.inF64("in");
            Arr out = b.outF64("out");
            b.map(n, out, [&](Body &fn, Ex) {
                return fn.reduce(n, Op::Sub,
                                 [&](Body &, Ex j) { return in(j); });
            });
        },
        "non-associative");
}

/** A launch may write only arrays declared output: the eval cache
 *  captures and replays only those, and a launch keeps only its
 *  outputs' HostArray digests current. */
TEST(BuilderDeath, WritesToInputArraysRejected)
{
    EXPECT_DEATH(
        {
            ProgramBuilder b("bad");
            Ex n = b.paramI64("n");
            Arr in = b.inF64("in");
            b.foreach(n, [&](Body &fn, Ex i) {
                fn.store(in, i, in(i) + 1.0);
            });
            b.build();
        },
        "store target in is an input array param");
    EXPECT_DEATH(
        {
            ProgramBuilder b("bad");
            Ex n = b.paramI64("n");
            Arr in = b.inF64("in");
            Arr dst = b.inF64("dst");
            b.map(n, dst, [&](Body &, Ex i) { return in(i) * 2.0; });
            b.build();
        },
        "root output dst is an input array param");
    EXPECT_DEATH(
        {
            ProgramBuilder b("bad");
            Ex n = b.paramI64("n");
            Arr in = b.inF64("in");
            Arr out = b.outF64("out");
            Arr count = b.inF64("count");
            b.filter(n, out, count, [&](Body &, Ex i) {
                return FilterItem{in(i) > 0.0, in(i)};
            });
            b.build();
        },
        "root filter count output count is an input array param");
}

TEST(Builder, TraceSitesAreStableAcrossRebuilds)
{
    // Program::validate() numbers patterns, statements, and read exprs in
    // structural pre-order; an identical rebuild must reproduce the exact
    // same ids (simulator probe keys depend on them).
    auto build = [] {
        ProgramBuilder b("sites");
        Arr in = b.inF64("in");
        Ex n = b.paramI64("n");
        Arr out = b.outF64("out");
        b.map(n, out, [&](Body &fn, Ex i) {
            Ex base = fn.let("base", in(i) * 2.0);
            return base + fn.reduce(n, Op::Add, [&](Body &, Ex j) {
                return in(i * n + j);
            });
        });
        return b.build();
    };
    auto collect = [](const Program &p) {
        std::vector<int> sites;
        Walker w;
        w.onPattern = [&](const Pattern &pat, const WalkCtx &) {
            sites.push_back(pat.site);
        };
        w.onStmt = [&](const Stmt &s, const WalkCtx &) {
            sites.push_back(s.site);
        };
        w.onExpr = [&](const Expr &e, const WalkCtx &) {
            if (e.kind == ExprKind::Read)
                sites.push_back(e.readSite);
        };
        walkPattern(p.root(), w);
        return sites;
    };

    Program first = build();
    Program second = build();
    const std::vector<int> a = collect(first);
    const std::vector<int> b = collect(second);
    EXPECT_EQ(a, b);

    // Every node numbered, and distinct nodes got distinct ids.
    std::set<int> uniq(a.begin(), a.end());
    EXPECT_EQ(uniq.count(-1), 0u) << "unassigned site survived validate()";
    EXPECT_EQ(uniq.size(), a.size()) << "duplicate site ids";
}

} // namespace
} // namespace npp
