/**
 * @file
 * Shared differential fixture for the block-equivalence-classing suite.
 * A DiffCase (program + synthetic inputs) is compiled once and executed
 * four ways — full (every-block) and classed metrics-only simulation,
 * each with and without per-site attribution — and the full/classed
 * report pairs are asserted bit-identical row by row (expectSameRows,
 * also used by the determinism and disk-cache tests). The classing
 * diagnostics (classedBlocks, classReason) are the only fields allowed
 * to differ; the fixture returns the classed report so callers can make
 * assertions about them (classing engaged, or failed for the expected
 * reason).
 *
 * The fixture calls compileProgram + Gpu::run directly: those paths are
 * uncached, so every run truly re-simulates (the EvalCache would
 * otherwise replay one mode's report for the other and the comparison
 * would be vacuous).
 *
 * randomCase is the seeded program generator shared by the random
 * classing suite and the block-parallel suite.
 */

#ifndef NPP_TESTS_SIM_CLASSED_FIXTURE_H
#define NPP_TESTS_SIM_CLASSED_FIXTURE_H

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ir/builder.h"
#include "sim/gpu.h"
#include "support/rng.h"

namespace npp {
namespace difftest {

/** One differential case: a program plus input bindings and the output
 *  arrays it declares (bound but never written — all runs are
 *  metrics-only). */
struct DiffCase
{
    std::string name;
    std::shared_ptr<Program> prog;
    std::function<void(Bindings &)> bindInputs;
    std::vector<std::pair<Arr, int64_t>> outputs;
};

/** Row-by-row comparison of two reports, driven by the report field
 *  table: SimReport's rows, its KernelStats' rows and every site's rows,
 *  each an EXPECT_EQ that names the row on a mismatch. Diagnostic rows
 *  are compared only when `diagnostics` is set. */
inline void
expectSameRows(const SimReport &a, const SimReport &b, bool diagnostics)
{
    const auto same = [diagnostics](const auto &x, const auto &y) {
        visitFields<std::decay_t<decltype(x)>>([&](auto row) {
            if (diagnostics || row.trait != FieldTrait::Diagnostic) {
                EXPECT_EQ(x.*row.member, y.*row.member) << row.name;
            }
        });
    };
    same(a, b);
    same(a.stats, b.stats);
    ASSERT_EQ(a.stats.siteTraffic.size(), b.stats.siteTraffic.size());
    for (size_t i = 0; i < a.stats.siteTraffic.size(); i++) {
        SCOPED_TRACE("site index " + std::to_string(i));
        same(a.stats.siteTraffic[i], b.stats.siteTraffic[i]);
    }
}

/** Bitwise comparison of a full-simulation report against a classed
 *  one: every row but the classing diagnostics, plus the
 *  reportsBitIdentical() verdict itself. */
inline void
expectBitIdentical(const SimReport &full, const SimReport &classed,
                   const std::string &what)
{
    SCOPED_TRACE(what);
    expectSameRows(full, classed, /*diagnostics=*/false);
    EXPECT_TRUE(reportsBitIdentical(full, classed))
        << "reportsBitIdentical disagrees with the row comparison";
}

/** Run the case once in the given mode. Bindings are rebuilt per run
 *  (cheap) so no run can observe another's state. */
inline SimReport
runMode(const Gpu &gpu, const KernelSpec &spec, const DiffCase &c,
        std::vector<std::vector<double>> &outStorage, bool classed,
        bool sites)
{
    Bindings args(*c.prog);
    c.bindInputs(args);
    for (size_t i = 0; i < c.outputs.size(); i++)
        args.array(c.outputs[i].first, outStorage[i]);
    ExecOptions eopts;
    eopts.metricsOnly = true;
    eopts.blockClasses = classed;
    eopts.siteStats = sites;
    return gpu.run(spec, args, eopts);
}

/** The differential harness: compile once, simulate full vs classed with
 *  and without per-site attribution, assert both pairs bit-identical.
 *  Returns the classed (aggregate) report for classedBlocks/classReason
 *  assertions. */
inline SimReport
runDifferential(const DiffCase &c, const CompileOptions &copts = {})
{
    SCOPED_TRACE(c.name);
    Gpu gpu;
    CompileResult compiled = compileProgram(*c.prog, gpu.config(), copts);

    std::vector<std::vector<double>> outStorage;
    for (const auto &[arr, size] : c.outputs)
        outStorage.emplace_back(std::max<int64_t>(size, 1), 0.0);

    SimReport classedAggregate;
    for (const bool sites : {false, true}) {
        const SimReport full =
            runMode(gpu, compiled.spec, c, outStorage, false, sites);
        const SimReport classed =
            runMode(gpu, compiled.spec, c, outStorage, true, sites);
        expectBitIdentical(full, classed,
                           sites ? "with siteStats" : "aggregate only");
        // Full simulation must never report classing activity.
        EXPECT_EQ(full.stats.classedBlocks, 0);
        EXPECT_FALSE(full.stats.classReason.empty());
        if (!sites)
            classedAggregate = classed;
        else
            EXPECT_EQ(classed.stats.classReason,
                      classedAggregate.stats.classReason)
                << "siteStats changed the classing verdict";
    }
    return classedAggregate;
}

/** Inner-pattern flavors the generator picks from. */
enum class Inner
{
    Reduce,          //!< dense reduce (classable baseline)
    MapReduce,       //!< zipWith temporary + reduce
    InvariantFilter, //!< index-only predicate: classable cursor
    DataFilter,      //!< predicate reads the matrix: exact fallback
    InvariantGroupBy, //!< cyclic key: classable bins
    DataGroupBy,      //!< key array: exact fallback
    Count
};

/** The seeded generator of the randomized differential suites: a nested
 *  program mixing Map/Reduce/Filter/GroupBy with class-invariant and
 *  data-dependent predicates and keys, over a random shape (degenerate
 *  ones included), plus inputs drawn from the same seed. */
inline DiffCase
randomCase(uint64_t seed)
{
    Rng rng(seed);
    const int64_t R = 1 + rng.below(48);
    const int64_t C = 1 + rng.below(64);
    const int64_t K = 2 + rng.below(7);
    const auto inner =
        static_cast<Inner>(rng.below(static_cast<int64_t>(Inner::Count)));
    const int64_t modv = 2 + rng.below(4);
    const int64_t pick = rng.below(modv);

    ProgramBuilder b("rand_seed" + std::to_string(seed));
    Arr m = b.inF64("m");
    Arr keys = b.inI64("keys");
    Ex r = b.paramI64("R"), cc = b.paramI64("C"), k = b.paramI64("K");
    Arr out = b.outF64("out");

    b.map(r, out, [&](Body &fn, Ex i) -> Ex {
        switch (inner) {
          case Inner::Reduce:
            return fn.reduce(cc, Op::Add, [&](Body &, Ex j) {
                return m(i * cc + j);
            });
          case Inner::MapReduce: {
            Arr temp = fn.zipWith(cc, [&](Body &, Ex j) {
                return m(i * cc + j) * 0.5;
            });
            return fn.reduce(cc, Op::Add,
                             [&](Body &, Ex j) { return temp(j); });
          }
          case Inner::InvariantFilter: {
            Filtered kept = fn.filter(cc, [&](Body &, Ex j) {
                return FilterItem{Ex(j) % modv == pick, m(i * cc + j)};
            });
            return fn.reduce(kept.count, Op::Add, [&](Body &, Ex j) {
                return kept.items(j);
            });
          }
          case Inner::DataFilter: {
            Filtered kept = fn.filter(cc, [&](Body &, Ex j) {
                return FilterItem{m(i * cc + j) > 0.0, m(i * cc + j)};
            });
            return fn.reduce(kept.count, Op::Add, [&](Body &, Ex j) {
                return kept.items(j);
            });
          }
          case Inner::InvariantGroupBy: {
            Arr hist = fn.groupBy(cc, k, Op::Add, [&](Body &, Ex j) {
                return KeyedValue{Ex(j) % k, m(i * cc + j)};
            });
            return fn.reduce(k, Op::Add, [&](Body &, Ex g) {
                return hist(g) * (Ex(g) + 1.0);
            });
          }
          case Inner::DataGroupBy: {
            Arr hist = fn.groupBy(cc, k, Op::Add, [&](Body &, Ex j) {
                return KeyedValue{keys(i * cc + j), Ex(1.0)};
            });
            return fn.reduce(k, Op::Add, [&](Body &, Ex g) {
                return hist(g) * (Ex(g) + 1.0);
            });
          }
          case Inner::Count:
            break;
        }
        return Ex(0.0);
    });

    DiffCase c;
    c.name = "rand_seed" + std::to_string(seed);
    c.prog = std::make_shared<Program>(b.build());

    auto mData = std::make_shared<std::vector<double>>(R * C);
    auto keyData = std::make_shared<std::vector<double>>(R * C);
    for (int64_t i = 0; i < R * C; i++) {
        (*mData)[i] = rng.uniform(-1, 1);
        (*keyData)[i] = static_cast<double>(rng.below(K));
    }
    c.bindInputs = [=](Bindings &args) {
        args.scalar(r, static_cast<double>(R));
        args.scalar(cc, static_cast<double>(C));
        args.scalar(k, static_cast<double>(K));
        args.array(m, *mData);
        args.array(keys, *keyData);
    };
    c.outputs = {{out, R}};
    return c;
}

} // namespace difftest
} // namespace npp

#endif // NPP_TESTS_SIM_CLASSED_FIXTURE_H
