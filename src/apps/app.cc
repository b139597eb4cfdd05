#include "apps/app.h"

#include "sim/evalcache.h"
#include "support/logging.h"
#include "support/trace.h"

namespace npp {

double
App::runManualMs(const Gpu &)
{
    NPP_PANIC("{} has no manual implementation", name());
}

void
addLaunch(AppResult &result, const SimReport &report)
{
    result.gpuMs += report.totalMs;
}

double
Runner::launch(const Program &prog, const Bindings &args)
{
    NPP_TRACE_SCOPE("app.launch");
    NPP_TRACE_COUNT("app.launches", 1);
    if (!gpu_) {
        WorkCounts wc = ReferenceInterp().run(prog, args);
        work.computeOps += wc.computeOps;
        work.bytesRead += wc.bytesRead;
        work.bytesWritten += wc.bytesWritten;
        work.iterations += wc.iterations;
        return 0.0;
    }
    auto &compiled = cache_[&prog];
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
