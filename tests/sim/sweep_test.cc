/**
 * @file
 * The sweep engine (sim/sweep.h). Pins every sweep's winner and time on
 * the seven demo programs to the values the four drivers produced
 * before they shared one engine, pins the section renderers byte for
 * byte (the consolidation and fleet tables read as they always did),
 * and checks the warm-cache contract: a sweep call digests the bindings
 * once, and consolidation and fleet points compile nothing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/consolidate.h"
#include "codegen/autotune.h"
#include "ir/builder.h"
#include "predict/predict.h"
#include "server/programs.h"
#include "sim/consolidation.h"
#include "sim/fleet.h"
#include "support/trace.h"

namespace npp {
namespace {

/** One demo program with its bound inputs and compile options. */
struct Demo
{
    std::unique_ptr<DemoProgram> demo;
    std::unique_ptr<Bindings> args;
    CompileOptions copts;

    Demo(const std::string &name, const std::map<std::string, int64_t> &sizes)
    {
        std::string error;
        demo = buildDemoProgram(name, sizes, &error);
        EXPECT_NE(demo, nullptr) << name << ": " << error;
        args = std::make_unique<Bindings>(*demo->prog);
        demo->bind(*args);
        copts.paramValues = demo->params;
        copts.fuseMapReduce = demo->fuse;
    }

    const Program &prog() const { return *demo->prog; }
};

/** printf into a string (doubles as %a, so equal text is equal bits). */
template <typename... Args>
std::string
text(const char *pattern, Args... args)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, pattern, args...);
    return buf;
}

/** The four sweeps' winners and times on one demo program. */
struct Winners
{
    std::string autotune, predict, consolidation, fleet;
};

Winners
sweepAll(const Gpu &gpu, const Demo &d)
{
    Winners w;
    const AutotuneResult a = autotune(d.prog(), gpu, *d.args, d.copts);
    w.autotune = text("%s|%a|%a", a.best.mapping.toString().c_str(),
                      a.bestMs, a.scoreChoiceMs);
    const PredictSweep p = predictiveSweep(gpu, d.prog(), *d.args, d.copts,
                                           nullptr, kPredictDefaultTopK);
    w.predict = text("%s|%a|%lld", p.best.toString().c_str(), p.bestMs,
                     static_cast<long long>(p.survivors));
    w.consolidation = "-";
    if (hasDynamicInnerExtent(d.prog())) {
        const ConsolidationChoice c =
            searchConsolidation(gpu, d.prog(), *d.args, d.copts, {});
        w.consolidation = text("%d|%d|%a|%a", c.consolidated ? 1 : 0,
                               static_cast<int>(c.granularity), c.staticMs,
                               c.bestMs);
    }
    const CompileResult compiled =
        compileProgram(d.prog(), gpu.config(), d.copts);
    const FleetChoice f = searchFleet(
        gpu, compiled.spec, *d.args, fleetK20c(4), {},
        EvalCache::specSeed(d.prog(), d.copts, gpu.config()));
    w.fleet = text("%d|%lld|%a|%a", f.deviceCount,
                   static_cast<long long>(f.splitPoint), f.fleetMs,
                   f.singleMs);
    return w;
}

const std::map<std::string, std::map<std::string, int64_t>> kSizes = {
    {"sumrows", {{"rows", 96}, {"cols", 80}}},
    {"sumcols", {{"rows", 96}, {"cols", 80}}},
    {"weightedrows", {{"rows", 96}, {"cols", 80}}},
    {"weightedcols", {{"rows", 96}, {"cols", 80}}},
    {"pagerank", {{"nodes", 256}}},
    {"mandelbrot", {{"height", 32}, {"width", 64}}},
    {"spmv", {{"rows", 128}, {"avgdeg", 8}}},
};

TEST(SweepEngine, WinnersMatchThePerDriverSweeps)
{
    // Produced by the autotune, predictiveSweep, searchConsolidation and
    // searchFleet drivers as they stood before the shared engine.
    const std::map<std::string, Winners> golden = {
        {"mandelbrot",
         {"L0[dimy, 4, span(1)] L1[dimx, 64, span(1)]|0x1.a196329114b42p-8|"
          "0x1.a196329114b42p-8",
          "L0[dimy, 4, span(1)] L1[dimx, 64, span(1)]|0x1.a196329114b42p-8|"
          "48",
          "-", "1|-1|0x1.a196329114b42p-8|0x1.a196329114b42p-8"}},
        {"pagerank",
         {"L0[dimy, 16, span(1)] L1[dimx, 64, span(all)]|"
          "0x1.02e5c732bd83p-7|0x1.089c29d9732cp-7",
          "L0[dimy, 16, span(1)] L1[dimx, 64, span(all)]|"
          "0x1.02e5c732bd83p-7|48",
          "0|0|0x1.089c29d9732cp-7|0x1.089c29d9732cp-7",
          "1|-1|0x1.089c29d9732cp-7|0x1.089c29d9732cp-7"}},
        {"spmv",
         {"L0[dimy, 16, span(1)] L1[dimx, 64, span(all)]|"
          "0x1.84c01182360bcp-8|0x1.fcf4bcb39d823p-8",
          "L0[dimy, 16, span(1)] L1[dimx, 64, span(all)]|"
          "0x1.84c01182360bcp-8|48",
          "0|0|0x1.fcf4bcb39d823p-8|0x1.fcf4bcb39d823p-8",
          "1|-1|0x1.fcf4bcb39d823p-8|0x1.fcf4bcb39d823p-8"}},
        {"sumcols",
         {"L0[dimx, 64, span(1)] L1[dimz, 16, span(all)]|"
          "0x1.97e52b5bd8fc6p-8|0x1.8020a7f83905fp-7",
          "L0[dimx, 32, span(1)] L1[dimz, 32, span(all)]|"
          "0x1.7e58cd9e4198bp-8|48",
          "-", "1|-1|0x1.8020a7f83905fp-7|0x1.8020a7f83905fp-7"}},
        {"sumrows",
         {"L0[dimy, 8, span(1)] L1[dimx, 64, span(all)]|"
          "0x1.73e4f152032b6p-8|0x1.8cab2009cfa5ap-7",
          "L0[dimy, 8, span(1)] L1[dimx, 64, span(all)]|"
          "0x1.73e4f152032b6p-8|48",
          "-", "1|-1|0x1.8cab2009cfa5ap-7|0x1.8cab2009cfa5ap-7"}},
        {"weightedcols",
         {"L0[dimx, 32, span(1)] L1[dimy, 32, split(3)]|"
          "0x1.97671583aa949p-7|0x1.97671583aa949p-7",
          "L0[dimx, 32, span(1)] L1[dimy, 32, split(3)]|"
          "0x1.97671583aa949p-7|48",
          "-", "1|-1|0x1.97671583aa949p-7|0x1.97671583aa949p-7"}},
        {"weightedrows",
         {"L0[dimy, 8, span(1)] L1[dimx, 128, span(all)]|"
          "0x1.ab4f6b42d83f3p-8|0x1.a47a9e65506cp-7",
          "L0[dimy, 8, span(1)] L1[dimx, 128, span(all)]|"
          "0x1.ab4f6b42d83f3p-8|48",
          "-", "1|-1|0x1.a47a9e65506cp-7|0x1.a47a9e65506cp-7"}},
    };
    const Gpu gpu;
    for (const auto &[name, sizes] : kSizes) {
        const Winners w = sweepAll(gpu, Demo(name, sizes));
        const Winners &g = golden.at(name);
        EXPECT_EQ(w.autotune, g.autotune) << name;
        EXPECT_EQ(w.predict, g.predict) << name;
        EXPECT_EQ(w.consolidation, g.consolidation) << name;
        EXPECT_EQ(w.fleet, g.fleet) << name;
    }
}

TEST(SweepEngine, ConsolidationSectionGolden)
{
    const Gpu gpu;
    const Demo spmv("spmv", kSizes.at("spmv"));
    const ConsolidationChoice c =
        searchConsolidation(gpu, spmv.prog(), *spmv.args, spmv.copts, {});
    // The table the consolidation driver printed before the engine.
    EXPECT_EQ(sweepText(c),
              "consolidation sweep (runtime-sized inner domains):\n"
              "  static (MultiDim)  0.0078 ms\n"
              "  warp-bin queues  0.0327 ms  (bin fill 0.930, queue build 0.0"
              "102 ms)\n"
              "  block-bin queues  0.0323 ms  (bin fill 0.956, queue build 0."
              "0102 ms)\n"
              "selected: not consolidated: queue build outweighs the skew sav"
              "ings (best static 0.0078 ms vs consolidated 0.0323 ms)\n");
    EXPECT_EQ(sweepJson(c),
              "{\"sweep\":\"consolidation\",\"title\":\"consolidation sweep ("
              "runtime-sized inner domains)\",\"best\":0,\"best_ms\":0.007766"
              "0523125953366,\"baseline_ms\":0.0077660523125953366,\"speedup"
              "\":1,\"selected\":\"not consolidated: queue build outweighs th"
              "e skew savings (best static 0.0078 ms vs consolidated 0.0323 m"
              "s)\",\"points\":[{\"label\":\"static (MultiDim)\",\"devices\":"
              "1,\"split\":-1,\"score\":0,\"predicted_ms\":0,\"score_choice\""
              ":true,\"status\":\"simulated\",\"ms\":0.0077660523125953366,\""
              "note\":\"\"},{\"label\":\"warp-bin queues\",\"devices\":1,\"sp"
              "lit\":-1,\"score\":0,\"predicted_ms\":0,\"score_choice\":false"
              ",\"status\":\"simulated\",\"ms\":0.032666071379930266,\"note\""
              ":\"bin fill 0.930, queue build 0.0102 ms\"},{\"label\":\"block"
              "-bin queues\",\"devices\":1,\"split\":-1,\"score\":0,\"predict"
              "ed_ms\":0,\"score_choice\":false,\"status\":\"simulated\",\"ms"
              "\":0.032276444010132924,\"note\":\"bin fill 0.956, queue build"
              " 0.0102 ms\"}]}");

    // An ineligible program shows its filter verdict in the table.
    const Demo pagerank("pagerank", kSizes.at("pagerank"));
    const ConsolidationChoice filtered = searchConsolidation(
        gpu, pagerank.prog(), *pagerank.args, pagerank.copts, {});
    EXPECT_EQ(sweepText(filtered),
              "consolidation sweep (runtime-sized inner domains):\n"
              "  static (MultiDim)  0.0081 ms\n"
              "  consolidate  hard-filtered: root body holds more than one ne"
              "sted pattern; their queues would interleave\n"
              "selected: not consolidated: root body holds more than one nest"
              "ed pattern; their queues would interleave\n");
}

TEST(SweepEngine, FleetSectionGolden)
{
    const Gpu gpu;
    const Demo d("sumrows", {{"rows", 1024}, {"cols", 1024}});
    const CompileResult compiled =
        compileProgram(d.prog(), gpu.config(), d.copts);
    const FleetChoice f = searchFleet(
        gpu, compiled.spec, *d.args, fleetK20c(4), {},
        EvalCache::specSeed(d.prog(), d.copts, gpu.config()));
    EXPECT_EQ(text("%d|%lld|%a|%a", f.deviceCount,
                   static_cast<long long>(f.splitPoint), f.fleetMs,
                   f.singleMs),
              "2|512|0x1.2b2f3313509c1p-5|0x1.a3a0385908937p-5");
    // The table the fleet driver printed before the engine.
    EXPECT_EQ(sweepText(f),
              "multi-device sweep (peer 10 GB/s, 8 us/transfer):\n"
              "  devices=1  0.0512 ms  (1.0000x vs one device)\n"
              "  devices=2 split=512  0.0365 ms  (1.4026x vs one device)\n"
              "  devices=2 split=544  0.0379 ms  (1.3501x vs one device)\n"
              "  devices=3 split=342  0.0370 ms  (1.3849x vs one device)\n"
              "  devices=3 split=320  0.0375 ms  (1.3677x vs one device)\n"
              "  devices=3 split=352  0.0374 ms  (1.3686x vs one device)\n"
              "  devices=4 split=256  0.0412 ms  (1.2442x vs one device)\n"
              "  devices=4 split=288  0.0426 ms  (1.2027x vs one device)\n"
              "selected: devices=2 split=512 — 1.4026x over one device (0.008"
              "4 ms inter-device)\n");
    EXPECT_EQ(sweepJson(f),
              "{\"sweep\":\"fleet\",\"title\":\"multi-device sweep (peer 10 G"
              "B/s, 8 us/transfer)\",\"best\":1,\"best_ms\":0.036521529919372"
              "415,\"baseline_ms\":0.051223859838744827,\"speedup\":1.4025661"
              "014702928,\"selected\":\"devices=2 split=512 — 1.4026x over on"
              "e device (0.0084 ms inter-device)\",\"points\":[{\"label\":\"d"
              "evices=1\",\"devices\":1,\"split\":1024,\"score\":0,\"predicte"
              "d_ms\":0,\"score_choice\":true,\"status\":\"simulated\",\"ms\""
              ":0.051223859838744827,\"note\":\"1.0000x vs one device\"},{\"l"
              "abel\":\"devices=2 split=512\",\"devices\":2,\"split\":512,\"s"
              "core\":0,\"predicted_ms\":0,\"score_choice\":false,\"status\":"
              "\"simulated\",\"ms\":0.036521529919372415,\"note\":\"1.4026x v"
              "s one device\"},{\"label\":\"devices=2 split=544\",\"devices\""
              ":2,\"split\":544,\"score\":0,\"predicted_ms\":0,\"score_choice"
              "\":false,\"status\":\"simulated\",\"ms\":0.037940425539333189,"
              "\"note\":\"1.3501x vs one device\"},{\"label\":\"devices=3 spl"
              "it=342\",\"devices\":3,\"split\":342,\"score\":0,\"predicted_m"
              "s\":0,\"score_choice\":false,\"status\":\"simulated\",\"ms\":0"
              ".036987051819568531,\"note\":\"1.3849x vs one device\"},{\"lab"
              "el\":\"devices=3 split=320\",\"devices\":3,\"split\":320,\"sco"
              "re\":0,\"predicted_ms\":0,\"score_choice\":false,\"status\":\""
              "simulated\",\"ms\":0.037452651819568535,\"note\":\"1.3677x vs "
              "one device\"},{\"label\":\"devices=3 split=352\",\"devices\":3"
              ",\"split\":352,\"score\":0,\"predicted_ms\":0,\"score_choice\""
              ":false,\"status\":\"simulated\",\"ms\":0.037427051819568534,\""
              "note\":\"1.3686x vs one device\"},{\"label\":\"devices=4 split"
              "=256\",\"devices\":4,\"split\":256,\"score\":0,\"predicted_ms"
              "\":0,\"score_choice\":false,\"status\":\"simulated\",\"ms\":0."
              "041170364959686206,\"note\":\"1.2442x vs one device\"},{\"labe"
              "l\":\"devices=4 split=288\",\"devices\":4,\"split\":288,\"scor"
              "e\":0,\"predicted_ms\":0,\"score_choice\":false,\"status\":\"s"
              "imulated\",\"ms\":0.04258926057964698,\"note\":\"1.2027x vs on"
              "e device\"}]}");
}

TEST(SweepEngine, PredictSectionGolden)
{
    // A one-level map under a model that predicts the same time for
    // every candidate: the stable ranking keeps the first twelve picks.
    ProgramBuilder b("scale");
    Arr x = b.inF64("x");
    Ex n = b.paramI64("n");
    Arr out = b.outF64("out");
    b.map(n, out, [&](Body &, Ex i) { return x(i) * 2.0; });
    const Program prog = b.build();
    std::vector<double> xData(4096, 1.0), outData(4096, 0.0);
    Bindings args(prog);
    args.scalar(n, 4096.0);
    args.array(x, xData);
    args.array(out, outData);
    CompileOptions copts;
    copts.paramValues = {{n.ref()->varId, 4096.0}};
    PredictModel flat;
    flat.mean.assign(kPredictFeatureCount, 0.0);
    flat.scale.assign(kPredictFeatureCount, 1.0);
    flat.weights.assign(kPredictFeatureCount, 0.0);
    flat.intercept = std::log1p(0.5);
    const Gpu gpu;
    const PredictSweep p =
        predictiveSweep(gpu, prog, args, copts, &flat, kPredictDefaultTopK);
    EXPECT_EQ(sweepText(p),
              "predictive sweep (model ranked 48 candidates; simulated 12, pr"
              "uned 36):\n"
              "  L0[dimx, 512, span(1)]  0.0057 ms  (score choice; predicted "
              "0.5000 ms)\n"
              "  L0[dimx, 256, span(1)]  0.0058 ms  (predicted 0.5000 ms)\n"
              "  L0[dimx, 128, span(all)]  0.0253 ms  (predicted 0.5000 ms)\n"
              "  L0[dimx, 128, span(1)]  0.0060 ms  (predicted 0.5000 ms)\n"
              "  L0[dimx, 64, span(all)]  0.0456 ms  (predicted 0.5000 ms)\n"
              "  L0[dimx, 64, span(1)]  0.0063 ms  (predicted 0.5000 ms)\n"
              "  L0[dimx, 256, span(all)]  0.0152 ms  (predicted 0.5000 ms)\n"
              "  L0[dimx, 512, span(all)]  0.0101 ms  (predicted 0.5000 ms)\n"
              "  L0[dimx, 1024, span(1)]  0.0057 ms  (predicted 0.5000 ms)\n"
              "  L0[dimx, 1024, span(all)]  0.0075 ms  (predicted 0.5000 ms)"
              "\n"
              "  L0[dimx, 32, span(1)]  0.0070 ms  (predicted 0.5000 ms)\n"
              "  L0[dimx, 32, span(all)]  0.0862 ms  (predicted 0.5000 ms)\n"
              "  L0[dimy, 64, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimy, 256, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimy, 128, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimy, 64, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimy, 128, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimy, 256, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimy, 512, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimy, 512, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimy, 1024, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimy, 1024, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimz, 64, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimz, 64, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 64, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 64, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 2, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimz, 8, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimz, 8, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimz, 16, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimz, 16, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimz, 32, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimz, 32, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimx, 4, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimx, 2, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 1, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 1, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 2, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimz, 4, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 4, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 4, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 8, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 8, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 16, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 16, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 32, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimw, 32, span(all)]  pruned  (predicted 0.5000 ms)\n"
              "  L0[dimx, 2, span(1)]  pruned  (predicted 0.5000 ms)\n"
              "selected: L0[dimx, 1024, span(1)] at 0.005678 ms\n");
    // The JSON lists all 48 points; pin its head (the section fields and
    // the score choice) and its tail (the last pruned point).
    const std::string json = sweepJson(p);
    const std::string head =
        "{\"sweep\":\"predict\",\"title\":\"predictive sweep (model ranked 48"
        " candidates; simulated 12, pruned 36)\",\"best\":8,\"best_ms\":0.005"
        "6781433863586838,\"baseline_ms\":0.0057217258662017869,\"speedup\":1"
        ".0076754806769774,\"selected\":\"L0[dimx, 1024, span(1)] at 0.005678"
        " ms\",\"points\":[{\"label\":\"L0[dimx, 512, span(1)]\",\"devices\":"
        "1,\"split\":-1,\"score\":102400,\"predicted_ms\":0.5,\"score_choice"
        "\":true,\"status\":\"simulated\",\"ms\":0.0057217258662017869,\"note"
        "\":\"score choice; predicted 0.5000 ms\"}";
    const std::string tail =
        "{\"label\":\"L0[dimx, 2, span(1)]\",\"devices\":1,\"split\":-1,\"sco"
        "re\":0,\"predicted_ms\":0.5,\"score_choice\":false,\"status\":\"prun"
        "ed\",\"note\":\"predicted 0.5000 ms\"}]}";
    EXPECT_EQ(json.substr(0, head.size()), head);
    ASSERT_GE(json.size(), tail.size());
    EXPECT_EQ(json.substr(json.size() - tail.size()), tail);
}

/** Counter delta of `name` across fn(). */
template <typename Fn>
double
delta(const char *name, Fn fn)
{
    const double before = Trace::instance().counterValue(name);
    fn();
    return Trace::instance().counterValue(name) - before;
}

TEST(SweepEngine, WarmSweepsDigestOnceAndCompileNoPoint)
{
    Trace &trace = Trace::instance();
    const bool wasEnabled = trace.enabled();
    trace.setEnabled(true);
    const Gpu gpu;
    // sumrows runs all seven fleet points; spmv all three consolidation
    // points.
    for (const char *name : {"sumrows", "spmv"}) {
        const Demo d(name, kSizes.at(name));
        const double digest = delta("runtime.hashed_bytes",
                                    [&] { d.args->fingerprint(); });
        ASSERT_GT(digest, 0.0) << name;
        const CompileResult compiled =
            compileProgram(d.prog(), gpu.config(), d.copts);
        const uint64_t seed =
            EvalCache::specSeed(d.prog(), d.copts, gpu.config());
        struct Call
        {
            const char *sweep;
            bool compilesNoPoint;
            std::function<void()> run;
        };
        const std::vector<Call> calls = {
            {"autotune", false,
             [&] { autotune(d.prog(), gpu, *d.args, d.copts); }},
            {"predict", false,
             [&] {
                 predictiveSweep(gpu, d.prog(), *d.args, d.copts, nullptr,
                                 kPredictDefaultTopK);
             }},
            {"consolidation", true,
             [&] {
                 searchConsolidation(gpu, d.prog(), *d.args, d.copts, {});
             }},
            {"fleet", true,
             [&] {
                 searchFleet(gpu, compiled.spec, *d.args, fleetK20c(4), {},
                             seed);
             }},
        };
        for (const Call &c : calls)
            c.run(); // warm the cache
        for (const Call &c : calls) {
            double compiles = 0.0;
            const double hashed = delta("runtime.hashed_bytes", [&] {
                compiles = delta("compile.calls", c.run);
            });
            EXPECT_EQ(hashed, digest) << name << " " << c.sweep;
            if (c.compilesNoPoint) {
                EXPECT_EQ(compiles, 0.0) << name << " " << c.sweep;
            }
        }
    }
    trace.setEnabled(wasEnabled);
}

} // namespace
} // namespace npp
