#include "apps/app.h"

#include "runtime/parallel_launch.h"
#include "sim/evalcache.h"
#include "support/logging.h"
#include "support/trace.h"

namespace npp {

AppResult
App::run(const Gpu &gpu, Strategy strategy, bool validate)
{
    CompileOptions copts = hints_;
    copts.strategy = strategy;
    Runner runner(gpu, std::move(copts));
    const std::vector<double> out = hostLoop(runner);

    AppResult result;
    result.gpuMs = runner.gpuMs;
    result.transferMs = transferMs(inputBytes_, gpu.config());
    if (validate) {
        Runner ref;
        const std::vector<double> expect = hostLoop(ref);
        result.referenceWork = ref.work;
        result.cpuMs = cpuTimeMs(ref.work.computeOps,
                                 ref.work.bytesRead + ref.work.bytesWritten);
        result.maxError = absoluteError_
                              ? maxAbsDiff(expect, out)
                              : maxRelDiff(expect, out, errorFloor_);
    }
    return result;
}

double
App::runManualMs(const Gpu &gpu)
{
    NPP_ASSERT(manual_, "{} has no manual implementation", name());
    Runner runner(gpu, *manual_);
    hostLoop(runner);
    return runner.gpuMs;
}

double
Runner::launch(const Program &prog, const Bindings &args)
{
    NPP_TRACE_SCOPE("app.launch");
    NPP_TRACE_COUNT("app.launches", 1);
    auto &compiled = cache_[&prog];
    if (!gpu_) {
        // Reference runs go through the eval cache too: validating the
        // same inputs again replays the stored outputs and counts.
        if (!compiled.seeded) {
            compiled.specSeed = EvalCache::referenceSeed(prog);
            compiled.rootRefusal = rootParallelRefusal(prog);
            compiled.seeded = true;
        }
        work += cachedReference(prog, args, compiled.specSeed, nullptr,
                                &compiled.rootRefusal);
        return 0.0;
    }
    if (!compiled.result) {
        compiled.result = std::make_shared<CompileResult>(
            compileProgram(prog, gpu_->config(), copts_));
        compiled.specSeed = EvalCache::specSeed(prog, copts_, gpu_->config());
    }
    SimReport report = cachedRun(*gpu_, compiled.result->spec, args, {},
                                 compiled.specSeed, /*wantOutputs=*/true);
    gpuMs += report.totalMs;
    return report.totalMs;
}

} // namespace npp
