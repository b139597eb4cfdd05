/**
 * @file
 * perfbench: the repository's end-to-end and per-layer benchmark.
 *
 *     perfbench --workload figures|serve|sweeps --seed N --seconds S
 *               --trace 0|1 --scratch DIR [--break-gate]
 *
 * Prints a run header line, then as its last line one JSON object with
 * the keys correct, attempted, failed and metrics (the end-to-end table
 * with --trace 0, the per-layer table with --trace 1). Exits nonzero
 * when any correctness gate failed. perfbench/run.py builds this binary
 * and is the entry point named in BENCHMARK.json; see
 * perfbench/README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "predict/predict.h"
#include "sim/evalcache.h"
#include "support/trace.h"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload figures|serve|sweeps --seed N "
                 "--seconds S --trace 0|1 --scratch DIR [--break-gate]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunConfig cfg;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--break-gate")
            cfg.breakGate = true;
        else if (!hasValue)
            return usage(argv[0]);
        else if (arg == "--workload")
            cfg.workload = argv[++i];
        else if (arg == "--seed")
            cfg.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--seconds")
            cfg.seconds = std::atoi(argv[++i]);
        else if (arg == "--trace")
            cfg.trace = std::strcmp(argv[++i], "0") != 0;
        else if (arg == "--scratch")
            cfg.scratch = argv[++i];
        else
            return usage(argv[0]);
    }
    if (cfg.scratch.empty() || cfg.seconds < 1)
        return usage(argv[0]);
    // Every run starts from an empty scratch directory: a disk tier or
    // sample store left by an earlier run would warm this one.
    std::error_code ec;
    std::filesystem::remove_all(cfg.scratch, ec);
    if (ec || !perfbench::makeDirs(cfg.scratch)) {
        std::fprintf(stderr, "perfbench: cannot create %s\n",
                     cfg.scratch.c_str());
        return 1;
    }

    // The benchmark owns every piece of cache and predictor state, so
    // nothing ambient (a warm NPP_EVAL_CACHE_DIR, NPP_PREDICT=1, an
    // NPP_TRACE left on) can warm, prune or slow a run.
    npp::Trace::instance().setEnabled(false);
    npp::EvalCache::instance().setCapacityBytes(int64_t(4) << 30);
    npp::EvalCache::instance().setDiskDir("");
    npp::EvalCache::instance().clear();
    npp::PredictRuntime::instance().setEnabled(false,
                                               npp::kPredictDefaultTopK);
    npp::PredictRuntime::instance().setSampleDir("");
    npp::PredictRuntime::instance().setModel(std::nullopt);

    perfbench::Result result(cfg.trace);
    if (cfg.workload == "figures")
        perfbench::runFigures(cfg, result);
    else if (cfg.workload == "serve")
        perfbench::runServe(cfg, result);
    else if (cfg.workload == "sweeps")
        perfbench::runSweeps(cfg, result);
    else
        return usage(argv[0]);

    std::filesystem::remove_all(cfg.scratch, ec);
    std::printf("%s\n", result.json().c_str());
    std::fflush(stdout);
    return result.failed() == 0 ? 0 : 1;
}
