/**
 * @file
 * nppc — command-line inspector for the compilation pipeline. Picks one
 * of the built-in demo programs, then prints any combination of its IR,
 * the generated constraints, the candidate search outcome, the selected
 * mapping, the generated CUDA, and a simulated run.
 *
 *     nppc <program> [--strategy=multidim|1d|tbt|warp|consolidate]
 *                    [--size=key=N]...
 *                    [--ir] [--constraints] [--mapping] [--cuda]
 *                    [--run] [--explain] [--devices=N] [--trace=FILE]
 *                    [--stats=FILE] [--all]
 *     nppc serve --socket=PATH [--hold-eval-ms=N]
 *     nppc <program|ping|stats|shutdown> --client=PATH [...]
 *     nppc train-predictor [--dir=PATH] [--model=PATH] [--lambda=X]
 *     nppc show-predictor [--model=PATH]
 *
 * --explain prints the mapping-decision report (why this dim/block/span:
 * hard-filter verdicts, per-constraint score contributions, tie-breaks)
 * plus the block-classing verdict from a metrics-only run (how many
 * blocks were replicated from equivalence-class representatives, or why
 * classing did not engage).
 * --trace=FILE records pipeline spans and writes chrome://tracing JSON.
 * --stats=FILE runs the simulator metrics-only with per-site attribution
 * — per-site deltas replicate across block-equivalence classes, so the
 * export runs at classed speed — and writes the full counter export
 * (coalescing efficiency per trace site, occupancy, overhead shares,
 * EvalCache counters) as JSON.
 *
 * Simulated runs are memoized through the tiered EvalCache: point
 * NPP_EVAL_CACHE_DIR at a directory and a second nppc process replays
 * the first one's evaluation from disk (the --stats export's
 * "eval_cache" object reports the tier counters).
 *
 * --predict runs the empirical mapping sweep under the learned cost
 * model (predict/predict.h): candidates are ranked by predicted time
 * and only the top kPredictDefaultTopK are exactly simulated; without a
 * trained model the sweep evaluates everything. Point NPP_PREDICT_DIR
 * at a directory to harvest every exact simulation as a training pair,
 * then `nppc train-predictor` fits the ridge model and
 * `nppc show-predictor` prints its weights. The --stats export's
 * "predict" object reports the pruning counters.
 *
 * `serve` turns the same pipeline into a long-lived mapping service on
 * a Unix socket (newline-delimited JSON requests; see src/server/
 * server.h for the protocol). `--client=PATH` sends the request to a
 * running server instead of evaluating locally: a program name becomes
 * an eval request (honoring --strategy/--size/--explain), and the
 * pseudo-programs ping / stats / shutdown become typed requests.
 *
 * programs: sumrows, sumcols, weightedrows, weightedcols, pagerank,
 *           mandelbrot, spmv
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "analysis/consolidate.h"
#include "ir/printer.h"
#include "predict/predict.h"
#include "server/json.h"
#include "server/programs.h"
#include "server/server.h"
#include "sim/consolidation.h"
#include "sim/evalcache.h"
#include "sim/fleet.h"
#include "sim/gpu.h"
#include "support/strings.h"
#include "support/trace.h"

using namespace npp;

namespace {

/** One-line block-classing verdict for --run/--stats/--explain output. */
std::string
classingLine(const KernelStats &stats)
{
    if (stats.classReason.empty())
        return "block classing: " + std::to_string(stats.classedBlocks) +
               " of " + std::to_string(stats.totalBlocks) +
               " blocks replicated from class representatives";
    return "block classing: every block simulated (" + stats.classReason +
           ")";
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: nppc <program> [options]\n"
        "       nppc serve --socket=PATH [--hold-eval-ms=N]\n"
        "       nppc <program|ping|stats|shutdown> --client=PATH [...]\n"
        "       nppc train-predictor [--dir=PATH] [--model=PATH]"
        " [--lambda=X]\n"
        "       nppc show-predictor [--model=PATH]\n"
        "  programs: %s\n"
        "  options:  --strategy=multidim|1d|tbt|warp|consolidate\n"
        "            --size=key=N\n"
        "            --ir --constraints --mapping --cuda --run --all\n"
        "            --explain --devices=N --trace=FILE --stats=FILE\n"
        "            --predict\n",
        join(demoProgramNames(), " ").c_str());
    return 2;
}

int
runServe(int argc, char **argv)
{
    ServeOptions opts;
    for (int i = 2; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg.rfind("--socket=", 0) == 0)
            opts.socketPath = arg.substr(std::strlen("--socket="));
        else if (arg.rfind("--hold-eval-ms=", 0) == 0)
            opts.holdEvalMs =
                std::atoi(arg.c_str() + std::strlen("--hold-eval-ms="));
        else
            return usage();
    }
    if (opts.socketPath.empty()) {
        std::fprintf(stderr, "nppc serve: --socket=PATH is required\n");
        return 2;
    }
    initPredictFromEnv();
    MappingServer server(opts);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "nppc serve: %s\n", error.c_str());
        return 1;
    }
    std::printf("serving on %s (send {\"type\":\"shutdown\"} to stop)\n",
                opts.socketPath.c_str());
    std::fflush(stdout);
    server.wait();
    const ServerStats stats = server.stats();
    std::printf("served %llu requests (%llu evaluations, %llu simulated, "
                "%llu coalesced, %llu errors)\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.evaluations),
                static_cast<unsigned long long>(stats.simulations),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.errors));
    return 0;
}

int
runTrainPredictor(int argc, char **argv)
{
    PredictOptions opts = predictOptionsFromEnv();
    double lambda = 1e-3;
    for (int i = 2; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg.rfind("--dir=", 0) == 0) {
            opts.sampleDir = arg.substr(std::strlen("--dir="));
            opts.modelPath = opts.sampleDir + "/model.nppprd";
        } else if (arg.rfind("--model=", 0) == 0)
            opts.modelPath = arg.substr(std::strlen("--model="));
        else if (arg.rfind("--lambda=", 0) == 0)
            lambda = std::atof(arg.c_str() + std::strlen("--lambda="));
        else
            return usage();
    }
    if (opts.sampleDir.empty()) {
        std::fprintf(stderr, "nppc train-predictor: no sample store "
                             "(--dir=PATH or NPP_PREDICT_DIR)\n");
        return 2;
    }
    SampleLoadStats loadStats;
    const std::vector<PredictSample> samples =
        loadPredictSamples(opts.sampleDir, &loadStats);
    std::printf("sample store %s: %llu files, %llu records (%llu "
                "rejected)\n",
                opts.sampleDir.c_str(),
                static_cast<unsigned long long>(loadStats.files),
                static_cast<unsigned long long>(loadStats.records),
                static_cast<unsigned long long>(loadStats.rejected));
    const std::optional<PredictModel> model =
        trainPredictModel(samples, lambda);
    if (!model) {
        std::fprintf(stderr,
                     "nppc train-predictor: no model (empty store or "
                     "singular fit)\n");
        return 1;
    }
    if (!savePredictModel(*model, opts.modelPath))
        return 1;
    std::printf("trained on %llu samples; wrote %s\n",
                static_cast<unsigned long long>(model->trainedSamples),
                opts.modelPath.c_str());
    return 0;
}

int
runShowPredictor(int argc, char **argv)
{
    PredictOptions opts = predictOptionsFromEnv();
    for (int i = 2; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg.rfind("--model=", 0) == 0)
            opts.modelPath = arg.substr(std::strlen("--model="));
        else
            return usage();
    }
    if (opts.modelPath.empty()) {
        std::fprintf(stderr, "nppc show-predictor: no model path "
                             "(--model=PATH, NPP_PREDICT_MODEL, or "
                             "NPP_PREDICT_DIR)\n");
        return 2;
    }
    const std::optional<PredictModel> model =
        loadPredictModel(opts.modelPath);
    if (!model) {
        std::fprintf(stderr,
                     "nppc show-predictor: %s is not a usable model "
                     "(missing, corrupt, or stale schema)\n",
                     opts.modelPath.c_str());
        return 1;
    }
    std::printf("%s", formatPredictModel(*model).c_str());
    return 0;
}

/** Build the request JSON for client mode out of the CLI arguments. */
std::string
clientRequest(const std::string &name, const std::string &strategy,
              const std::map<std::string, int64_t> &sizes, bool explain,
              int devices)
{
    if (name == "ping" || name == "stats" || name == "shutdown")
        return fmt("{\"type\":\"{}\"}", name);
    std::string req = fmt("{\"type\":\"eval\",\"program\":\"{}\"",
                          jsonEscape(name));
    if (!strategy.empty())
        req += fmt(",\"strategy\":\"{}\"", strategy);
    if (!sizes.empty()) {
        req += ",\"sizes\":{";
        bool first = true;
        for (const auto &[key, val] : sizes) {
            if (!first)
                req += ",";
            req += fmt("\"{}\":{}", jsonEscape(key), val);
            first = false;
        }
        req += "}";
    }
    if (explain)
        req += ",\"explain\":true";
    if (devices > 1)
        req += fmt(",\"devices\":{}", devices);
    return req + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();

    const std::string name = argv[1];
    if (name == "serve")
        return runServe(argc, argv);
    if (name == "train-predictor")
        return runTrainPredictor(argc, argv);
    if (name == "show-predictor")
        return runShowPredictor(argc, argv);

    bool showIr = false, showConstraints = false, showMapping = false,
         showCuda = false, doRun = false, explain = false,
         predict = false;
    std::string tracePath, statsPath, clientSocket, strategyStr;
    std::map<std::string, int64_t> sizes;
    Strategy strategy = Strategy::MultiDim;
    int devices = 1;
    for (int i = 2; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--ir")
            showIr = true;
        else if (arg == "--constraints")
            showConstraints = true;
        else if (arg == "--mapping")
            showMapping = true;
        else if (arg == "--cuda")
            showCuda = true;
        else if (arg == "--run")
            doRun = true;
        else if (arg == "--explain")
            explain = true;
        else if (arg == "--predict")
            predict = true;
        else if (arg.rfind("--trace=", 0) == 0)
            tracePath = arg.substr(std::strlen("--trace="));
        else if (arg.rfind("--stats=", 0) == 0)
            statsPath = arg.substr(std::strlen("--stats="));
        else if (arg.rfind("--client=", 0) == 0)
            clientSocket = arg.substr(std::strlen("--client="));
        else if (arg.rfind("--devices=", 0) == 0) {
            devices = std::atoi(arg.c_str() + std::strlen("--devices="));
            if (devices < 1 || devices > 64)
                return usage();
        }
        else if (arg.rfind("--size=", 0) == 0) {
            const std::string kv = arg.substr(std::strlen("--size="));
            const size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0)
                return usage();
            sizes[kv.substr(0, eq)] =
                std::atoll(kv.c_str() + eq + 1);
        } else if (arg == "--all")
            showIr = showConstraints = showMapping = showCuda = doRun =
                explain = true;
        else if (arg == "--strategy=multidim")
            strategy = Strategy::MultiDim, strategyStr = "multidim";
        else if (arg == "--strategy=1d")
            strategy = Strategy::OneD, strategyStr = "1d";
        else if (arg == "--strategy=tbt")
            strategy = Strategy::ThreadBlockThread, strategyStr = "tbt";
        else if (arg == "--strategy=warp")
            strategy = Strategy::WarpBased, strategyStr = "warp";
        else if (arg == "--strategy=consolidate")
            strategy = Strategy::Consolidate, strategyStr = "consolidate";
        else
            return usage();
    }

    if (!clientSocket.empty()) {
        const std::string request =
            clientRequest(name, strategyStr, sizes, explain, devices);
        std::string response, error;
        if (!serveRoundTrip(clientSocket, request, &response, &error)) {
            std::fprintf(stderr, "nppc --client: %s\n", error.c_str());
            return 1;
        }
        std::printf("%s\n", response.c_str());
        std::optional<JsonValue> parsed = parseJson(response);
        return parsed && parsed->get("ok") &&
                       parsed->get("ok")->asBool()
                   ? 0
                   : 1;
    }

    std::string demoError;
    std::unique_ptr<DemoProgram> demo =
        buildDemoProgram(name, sizes, &demoError);
    if (!demo) {
        std::fprintf(stderr, "nppc: %s\n", demoError.c_str());
        return usage();
    }

    if (!showIr && !showConstraints && !showMapping && !showCuda &&
        !doRun && !explain && statsPath.empty())
        showMapping = showCuda = true; // sensible default
    if (!statsPath.empty())
        doRun = true; // the counter export comes from a simulated run

    if (!tracePath.empty())
        Trace::instance().setEnabled(true);

    initPredictFromEnv();
    Gpu gpu;
    CompileOptions copts;
    copts.strategy = strategy;
    copts.paramValues = demo->params;
    copts.fuseMapReduce = demo->fuse;
    copts.explainSearch = explain;

    // Predictor-guided empirical sweep: rank candidates with the learned
    // model, exactly simulate the survivors, keep the fastest (full
    // sweep without a model).
    PredictSweep psweep;
    if (predict) {
        Bindings sweepArgs(*demo->prog);
        demo->bind(sweepArgs);
        psweep = PredictRuntime::instance().sweep(gpu, *demo->prog,
                                                  sweepArgs, copts);
    }

    CompileResult compiled =
        compileProgram(*demo->prog, gpu.config(), copts);
    if (predict) {
        compiled.explanation.predictNote = psweep.note();
        compiled.explanation.predictJson = psweep.toJson();
        if (!(compiled.spec.mapping == psweep.best)) {
            // The sweep beat the score-based selection: recompile the
            // rest of the pipeline against the empirical winner.
            CompileOptions fixed = copts;
            fixed.strategy = Strategy::Fixed;
            fixed.fixedMapping = psweep.best;
            fixed.explainSearch = false;
            CompileResult winner =
                compileProgram(*demo->prog, gpu.config(), fixed);
            compiled.spec = winner.spec;
            compiled.ownedProgram = winner.ownedProgram;
            copts = fixed; // the cachedRun seed must match this spec
        }
    }
    // Seed for cachedRun: identifies how the spec above was produced.
    const uint64_t specSeed =
        EvalCache::specSeed(*demo->prog, copts, gpu.config());

    // Multi-device sweep: score (deviceCount, splitPoint) by fleet
    // simulation and attach the verdicts to the decision report.
    FleetChoice fleetChoice;
    if (devices > 1) {
        Bindings fleetArgs(*demo->prog);
        demo->bind(fleetArgs);
        ExecOptions fleetOpts;
        fleetOpts.metricsOnly = true;
        fleetChoice = searchFleet(gpu, compiled.spec, fleetArgs,
                                  fleetK20c(devices), fleetOpts, specSeed);
        compiled.spec.fleet.deviceCount = fleetChoice.deviceCount;
        compiled.spec.fleet.splitPoint = fleetChoice.splitPoint;
        compiled.spec.fleet.verdict = fleetChoice.best.plan.verdict;
        compiled.explanation.fleetNote = formatFleetChoice(fleetChoice);
        compiled.explanation.fleetJson = fleetChoiceJson(fleetChoice);
    }

    // Runtime-sized inner domains: sweep the consolidation candidates
    // so --explain names why consolidation won or lost against the best
    // static mapping.
    if (explain && hasDynamicInnerExtent(*demo->prog)) {
        Bindings consArgs(*demo->prog);
        demo->bind(consArgs);
        ExecOptions consOpts;
        consOpts.metricsOnly = true;
        const ConsolidationChoice consChoice = searchConsolidation(
            gpu, *demo->prog, consArgs, copts, consOpts);
        compiled.explanation.consolidationNote =
            formatConsolidationChoice(consChoice);
        compiled.explanation.consolidationJson =
            consolidationChoiceJson(consChoice);
    }

    if (showIr)
        std::printf("== IR ==\n%s\n", printProgram(*demo->prog).c_str());
    if (showConstraints) {
        AnalysisEnv env;
        env.prog = compiled.spec.prog;
        env.paramValues = demo->params;
        ConstraintSet cs =
            buildConstraints(*compiled.spec.prog, env, gpu.config());
        std::printf("== Constraints ==\n");
        for (const auto &c : cs.all)
            std::printf("  %s\n", c.toString().c_str());
        std::printf("\n");
    }
    if (showMapping) {
        std::printf("== Mapping (%s) ==\n%s   score=%.0f dop=%.0f",
                    strategyName(strategy),
                    compiled.spec.mapping.toString().c_str(),
                    compiled.spec.score, compiled.spec.dop);
        if (compiled.fusedPatterns)
            std::printf("   (fused %d map-reduce pairs)",
                        compiled.fusedPatterns);
        std::printf("\n\n");
    }
    if (explain) {
        std::printf("== Mapping decision ==\n%s\n",
                    formatSearchExplanation(compiled.explanation).c_str());
        if (!doRun) {
            // The classing verdict comes from execution, not from the
            // mapping search; a metrics-only run is cheap and shows
            // whether the simulator will merge equivalent blocks.
            Bindings args(*demo->prog);
            demo->bind(args);
            ExecOptions eopts;
            eopts.metricsOnly = true;
            SimReport verdict = cachedRun(gpu, compiled.spec, args, eopts,
                                          specSeed, /*wantOutputs=*/false);
            std::printf("%s\n\n", classingLine(verdict.stats).c_str());
        }
    }
    if (devices > 1 && !explain) {
        // --explain prints the sweep inside the decision report; give
        // everyone else a section of their own.
        std::printf("== Multi-device ==\n%s\n",
                    formatFleetChoice(fleetChoice).c_str());
    }
    if (predict && !explain)
        std::printf("== Predictive sweep ==\n%s\n", psweep.note().c_str());
    if (showCuda)
        std::printf("== CUDA ==\n%s\n", compiled.spec.cudaSource.c_str());
    if (doRun) {
        Bindings args(*demo->prog);
        demo->bind(args);
        ExecOptions eopts;
        eopts.siteStats = !statsPath.empty();
        // The counter export never reads the output arrays, so it can run
        // metrics-only and let block-equivalence classing replicate the
        // per-site buckets instead of simulating every block.
        eopts.metricsOnly = !statsPath.empty();
        EvalTier tier = EvalTier::Simulated;
        SimReport report =
            cachedRun(gpu, compiled.spec, args, eopts, specSeed,
                      /*wantOutputs=*/!eopts.metricsOnly, &tier);
        std::printf("== Simulated run (%s) ==\n%s\n%s\neval cache: %s\n",
                    gpu.config().name.c_str(), report.toString().c_str(),
                    classingLine(report.stats).c_str(),
                    evalTierName(tier));
        if (!statsPath.empty()) {
            std::string json =
                "{\"program\":\"" + name + "\",\"device\":\"" +
                gpu.config().name + "\",\"provenance\":\"" +
                evalTierName(tier) + "\",\"report\":" +
                report.toJson(gpu.config().transactionBytes) +
                ",\"eval_cache\":" + EvalCache::instance().stats().toJson() +
                ",\"predict\":" + predictStatsJson() +
                (devices > 1
                     ? ",\"fleet\":" + fleetChoiceJson(fleetChoice)
                     : std::string()) +
                "}\n";
            FILE *f = std::fopen(statsPath.c_str(), "wb");
            if (!f) {
                std::fprintf(stderr, "nppc: cannot write %s\n",
                             statsPath.c_str());
                return 1;
            }
            std::fwrite(json.data(), 1, json.size(), f);
            std::fclose(f);
            std::printf("wrote simulator counters to %s\n",
                        statsPath.c_str());
        }
    }
    if (!tracePath.empty()) {
        Trace::instance().writeChromeTrace(tracePath);
        std::printf("wrote chrome://tracing events to %s\n",
                    tracePath.c_str());
    }
    return 0;
}
