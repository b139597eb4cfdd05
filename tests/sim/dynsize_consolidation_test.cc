/**
 * @file
 * Differential tests for the consolidation mapping: consolidated and
 * static mappings of the same runtime-sized program must produce
 * bit-identical outputs (and both match the reference interpreter), the
 * EvalCache must never collide a consolidated evaluation with a static
 * one (the key mixes strategy and bin granularity), the queue-build
 * stage must be charged and exported, ineligible programs must fall
 * back with a named verdict, the --explain surfaces must name why
 * consolidation won or lost, and the emitter must render the bin-build
 * prologue. The classed fixture pins full-vs-classed bit identity for
 * the consolidated executor path (which always falls back to exact
 * simulation with a named reason).
 */

#include <gtest/gtest.h>

#include <set>

#include "analysis/consolidate.h"
#include "analysis/search.h"
#include "apps/dynsize.h"
#include "classed_fixture.h"
#include "sim/consolidation.h"
#include "sim/evalcache.h"
#include "sim/fleet.h"
#include "sim/gpu.h"
#include "support/strings.h"
#include "support/rng.h"

namespace npp {
namespace {

/** A fixed skewed matrix for the differential cases. */
CsrMatrix
skewedMatrix()
{
    return makeCsr(/*rows=*/512, /*avgDeg=*/6, RowDist::Skewed,
                   /*seed=*/41);
}

std::vector<double>
denseVector(int64_t n, uint64_t seed)
{
    std::vector<double> v(n);
    Rng rng(seed);
    for (auto &x : v)
        x = rng.uniform(-1, 1);
    return v;
}

/** Run SpMV once under the given options; returns y. */
std::vector<double>
runSpmv(const SpmvProgram &s, const CsrMatrix &mIn,
        const std::vector<double> &xIn, const CompileOptions &copts,
        SimReport *report = nullptr)
{
    CsrMatrix m = mIn;
    std::vector<double> x = xIn;
    std::vector<double> y(m.rows, 0.0);
    Bindings args = s.bind(m, x, y);
    Gpu gpu;
    SimReport r = gpu.compileAndRun(*s.prog, args, copts);
    if (report)
        *report = r;
    return y;
}

CompileOptions
consolidateOpts(BinGranularity g)
{
    CompileOptions copts;
    copts.strategy = Strategy::Consolidate;
    copts.binGranularity = g;
    return copts;
}

//
// Differential: consolidated output == static output == reference,
// bit for bit. The queue consumes each row's entries in ascending
// order, so even the floating-point reduction must agree exactly.
//

TEST(DynSizeDifferential, ConsolidatedMatchesStaticAndReference)
{
    const CsrMatrix m = skewedMatrix();
    const std::vector<double> x = denseVector(m.rows, 23);
    SpmvProgram s = buildSpmv();

    std::vector<double> refY(m.rows, 0.0);
    {
        CsrMatrix mr = m;
        std::vector<double> xr = x;
        Bindings args = s.bind(mr, xr, refY);
        ReferenceInterp().run(*s.prog, args);
    }

    CompileOptions staticOpts; // searched MultiDim mapping
    const std::vector<double> staticY = runSpmv(s, m, x, staticOpts);
    const std::vector<double> warpY =
        runSpmv(s, m, x, consolidateOpts(BinGranularity::Warp));
    const std::vector<double> blockY =
        runSpmv(s, m, x, consolidateOpts(BinGranularity::Block));

    EXPECT_LE(maxAbsDiff(refY, staticY), 0.0);
    EXPECT_LE(maxAbsDiff(refY, warpY), 0.0);
    EXPECT_LE(maxAbsDiff(refY, blockY), 0.0);
}

//
// EvalCache keys: a consolidated evaluation must never replay a static
// one (or the other granularity's), so the compile-options hash has to
// separate all strategy points on the same program and inputs.
//

TEST(DynSizeDifferential, CacheKeysNeverCollideAcrossStrategies)
{
    SpmvProgram s = buildSpmv();
    std::vector<CompileOptions> points;
    for (Strategy st :
         {Strategy::MultiDim, Strategy::OneD,
          Strategy::ThreadBlockThread, Strategy::WarpBased}) {
        CompileOptions c;
        c.strategy = st;
        points.push_back(c);
    }
    points.push_back(consolidateOpts(BinGranularity::Warp));
    points.push_back(consolidateOpts(BinGranularity::Block));

    std::set<uint64_t> seen;
    for (const CompileOptions &c : points) {
        const uint64_t key =
            EvalCache::combine(EvalCache::hashProgram(*s.prog),
                               EvalCache::hashCompileOptions(c));
        EXPECT_TRUE(seen.insert(key).second)
            << "duplicate cache key for strategy "
            << strategyName(c.strategy);
    }
    EXPECT_EQ(seen.size(), points.size());
}

//
// The queue-build stage is charged, exported, and consistent with the
// matrix: one parent per row, one entry per nonzero.
//

TEST(DynSizeDifferential, QueueBuildStageChargedAndExported)
{
    const CsrMatrix m = skewedMatrix();
    const std::vector<double> x = denseVector(m.rows, 29);
    SpmvProgram s = buildSpmv();

    SimReport report;
    runSpmv(s, m, x, consolidateOpts(BinGranularity::Warp), &report);

    EXPECT_TRUE(report.stats.hasConsolidation);
    EXPECT_EQ(report.stats.consolidationParents, m.rows);
    EXPECT_EQ(report.stats.consolidationEntries, m.nnz());
    EXPECT_GT(report.stats.consolidationGroups, 0);
    EXPECT_GE(report.stats.consolidationWaves,
              report.stats.consolidationEntries / 32);
    EXPECT_GT(report.stats.queueBuildTransactions, 0.0);
    EXPECT_GT(report.stats.queueBuildOps, 0.0);
    EXPECT_GT(report.stats.queueBuildThreads, 0);
    EXPECT_GT(report.stats.binFill, 0.0);
    EXPECT_LE(report.stats.binFill, 1.0);
    EXPECT_GT(report.queueBuildMs, 0.0);
    EXPECT_GE(report.totalMs, report.queueBuildMs);

    const std::string json = report.toJson(128);
    EXPECT_NE(json.find("\"has_consolidation\":true"), std::string::npos);
    EXPECT_NE(json.find("\"queue_build_ms\""), std::string::npos);
    EXPECT_NE(json.find("\"bin_fill\""), std::string::npos);

    // A static mapping of the same program must not pay for the stage.
    SimReport staticReport;
    CompileOptions staticOpts;
    runSpmv(s, m, x, staticOpts, &staticReport);
    EXPECT_FALSE(staticReport.stats.hasConsolidation);
    EXPECT_DOUBLE_EQ(staticReport.queueBuildMs, 0.0);
}

//
// Classing: consolidated bins depend on the bound extents, so the
// executor must simulate every group exactly — with the named reason —
// and classed-mode requests must still be bit-identical to full runs.
//

TEST(DynSizeDifferential, ConsolidatedRunsExactWithNamedReason)
{
    auto mData = std::make_shared<CsrMatrix>(skewedMatrix());
    ASSERT_GT(mData->nnz(), 0);
    SpmvProgram s = buildSpmv();
    auto xData =
        std::make_shared<std::vector<double>>(denseVector(mData->rows, 31));

    difftest::DiffCase c;
    c.name = "spmv-consolidated";
    c.prog = s.prog;
    c.bindInputs = [=](Bindings &args) {
        args.scalar(s.nParam, static_cast<double>(mData->rows));
        args.array(s.startArr, mData->rowStart);
        args.array(s.colArr, mData->cols);
        args.array(s.valArr, mData->vals);
        args.array(s.xArr, *xData);
    };
    c.outputs = {{s.outArr, mData->rows}};

    const SimReport classed = difftest::runDifferential(
        c, consolidateOpts(BinGranularity::Warp));
    EXPECT_EQ(classed.stats.classReason,
              "consolidated bins are data-dependent; every group "
              "simulated exactly");
    EXPECT_EQ(classed.stats.classedBlocks, 0);
}

//
// Eligibility: programs without a runtime-sized inner domain fall back
// to the static search with a named verdict, both at compile time and
// in the sweep.
//

std::shared_ptr<Program>
staticSumProgram()
{
    ProgramBuilder b("denseSum");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), cc = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        return fn.reduce(cc, Op::Add,
                         [&](Body &, Ex j) { return m(i * cc + j); });
    });
    return std::make_shared<Program>(b.build());
}

TEST(DynSizeDifferential, IneligibleProgramFallsBackNamed)
{
    auto prog = staticSumProgram();
    EXPECT_FALSE(hasDynamicInnerExtent(*prog));
    EXPECT_TRUE(hasDynamicInnerExtent(*buildSpmv().prog));

    Gpu gpu;
    CompileResult res = compileProgram(
        *prog, gpu.config(), consolidateOpts(BinGranularity::Warp));
    EXPECT_FALSE(res.spec.consolidation.enabled);
    EXPECT_NE(res.spec.consolidation.verdict.find("not consolidated:"),
              std::string::npos)
        << res.spec.consolidation.verdict;

    // A consolidation-eligible shape still compiles — and runs — under
    // every static strategy; requesting Consolidate on the static
    // program quietly produced a legal static mapping above.
    EXPECT_GE(res.spec.mapping.numLevels(), 1);
}

TEST(DynSizeDifferential, SweepNamesWhyConsolidationWonOrLost)
{
    const CsrMatrix m = skewedMatrix();
    SpmvProgram s = buildSpmv();
    CsrMatrix mr = m;
    std::vector<double> x = denseVector(m.rows, 37);
    std::vector<double> y(m.rows, 0.0);
    Bindings args = s.bind(mr, x, y);

    Gpu gpu;
    CompileOptions base;
    ExecOptions eopts;
    eopts.metricsOnly = true;
    const ConsolidationChoice choice =
        searchConsolidation(gpu, *s.prog, args, base, eopts);

    // Both granularities competed, and the selected verdict names the
    // outcome either way.
    EXPECT_EQ(choice.candidates.size(), 3u); // static + warp + block
    EXPECT_FALSE(choice.selected.empty());
    EXPECT_NE(choice.selected.find("consolidated"), std::string::npos);

    const std::string text = sweepText(choice);
    EXPECT_NE(text.find("consolidation sweep"), std::string::npos);
    EXPECT_NE(text.find("selected:"), std::string::npos);

    const std::string json = sweepJson(choice);
    EXPECT_NE(json.find("\"selected\":\"" + jsonEscape(choice.selected)),
              std::string::npos);
    EXPECT_NE(json.find("\"points\":"), std::string::npos);

    // The explain surfaces thread the note and the JSON through.
    SearchExplanation ex;
    ex.valid = true;
    ex.consolidationNote = text;
    ex.consolidationJson = json;
    EXPECT_NE(formatSearchExplanation(ex).find("consolidation sweep"),
              std::string::npos);
    EXPECT_NE(searchExplanationJson(ex).find("\"consolidation\":"),
              std::string::npos);

    // A static-shaped program's sweep reports ineligibility by name
    // (its static baseline still evaluates, so real bindings are
    // required).
    const int64_t R = 64, C = 32;
    ProgramBuilder sb("denseSumBound");
    Arr sm = sb.inF64("m");
    Ex sr = sb.paramI64("R"), sc = sb.paramI64("C");
    Arr sout = sb.outF64("out");
    sb.map(sr, sout, [&](Body &fn, Ex i) {
        return fn.reduce(sc, Op::Add,
                         [&](Body &, Ex j) { return sm(i * sc + j); });
    });
    auto staticProg = std::make_shared<Program>(sb.build());
    std::vector<double> md(R * C, 1.0), od(R, 0.0);
    Bindings staticArgs(*staticProg);
    staticArgs.scalar(sr, static_cast<double>(R));
    staticArgs.scalar(sc, static_cast<double>(C));
    staticArgs.array(sm, md);
    staticArgs.array(sout, od);
    const ConsolidationChoice staticChoice = searchConsolidation(
        gpu, *staticProg, staticArgs, base, eopts);
    EXPECT_FALSE(staticChoice.consolidated);
    EXPECT_NE(staticChoice.selected.find("no runtime-sized inner domain"),
              std::string::npos)
        << staticChoice.selected;
}

//
// Fleet sweep: a runtime-sized OUTER extent reaches the partitioner as
// a placeholder, so every N>1 candidate must be hard-filtered with the
// runtime-size verdict (not "empty outer domain"), while the N=1 row
// stays feasible and wins.
//

TEST(DynSizeDifferential, FleetSweepNamesRuntimeSizedOuter)
{
    ProgramBuilder b("dynRoot");
    Arr n = b.inI64("n");
    Arr v = b.inF64("v");
    Arr out = b.outF64("out");
    b.map(n(Ex(0)), out, [&](Body &, Ex i) { return v(i) * 2.0; });
    auto prog = std::make_shared<Program>(b.build());

    std::vector<double> nData = {16.0};
    std::vector<double> vData(16, 1.5), outData(16, 0.0);
    Bindings args(*prog);
    args.array(n, nData);
    args.array(v, vData);
    args.array(out, outData);

    Gpu gpu;
    CompileOptions copts;
    CompileResult res = compileProgram(*prog, gpu.config(), copts);
    ExecOptions eopts;
    eopts.metricsOnly = true;
    const FleetChoice choice =
        searchFleet(gpu, res.spec, args, fleetK20c(4), eopts, 1234);

    EXPECT_EQ(choice.deviceCount, 1);
    bool namedVerdict = false;
    for (const SweepPoint &c : choice.candidates) {
        if (c.deviceCount <= 1)
            continue;
        EXPECT_FALSE(c.filtered.empty());
        EXPECT_EQ(c.filtered.find("empty outer domain"),
                  std::string::npos)
            << c.filtered;
        if (c.filtered.find("not known at launch") != std::string::npos)
            namedVerdict = true;
    }
    EXPECT_TRUE(namedVerdict)
        << "no N>1 candidate carried the runtime-size verdict:\n"
        << sweepText(choice);
    EXPECT_NE(sweepJson(choice).find("not known at launch"),
              std::string::npos);
    EXPECT_NE(sweepText(choice).find("hard-filtered"), std::string::npos);
}

//
// Emitter: the consolidated kernel renders the bin-build prologue, the
// consumption loop, and the plan comment; static compiles of the same
// program render none of it.
//

TEST(DynSizeDifferential, EmitterRendersBinBuildPrologue)
{
    SpmvProgram s = buildSpmv();
    Gpu gpu;

    CompileResult cons = compileProgram(
        *s.prog, gpu.config(), consolidateOpts(BinGranularity::Warp));
    ASSERT_TRUE(cons.spec.consolidation.enabled)
        << cons.spec.consolidation.verdict;
    const std::string cuda = cons.spec.cudaSource;
    EXPECT_NE(cuda.find("bin-build prologue"), std::string::npos) << cuda;
    EXPECT_NE(cuda.find("__q_off"), std::string::npos);
    EXPECT_NE(cuda.find("consolidated consumption"), std::string::npos);
    EXPECT_NE(cuda.find("__shfl_up_sync"), std::string::npos);

    CompileResult block = compileProgram(
        *s.prog, gpu.config(), consolidateOpts(BinGranularity::Block));
    ASSERT_TRUE(block.spec.consolidation.enabled);
    EXPECT_NE(block.spec.cudaSource.find("block-wide exclusive scan"),
              std::string::npos);

    CompileOptions staticOpts;
    CompileResult stat =
        compileProgram(*s.prog, gpu.config(), staticOpts);
    EXPECT_EQ(stat.spec.cudaSource.find("__q_off"), std::string::npos);
}

} // namespace
} // namespace npp
