#include "predict/predict.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>

#include "codegen/autotune.h"
#include "support/env.h"
#include "support/logging.h"
#include "support/strings.h"
#include "support/trace.h"

namespace npp {

namespace {

/** Process-wide counters shared by PredictRuntime and the harvest
 *  observer (the observer outlives any particular sweep). */
std::mutex gRuntimeMutex;

/** The heading of the sweep's table, which names how it was pruned. */
void
setTitle(PredictSweep &sweep)
{
    sweep.title =
        sweep.usedModel
            ? fmt("predictive sweep (model ranked {} candidates; "
                  "simulated {}, pruned {})",
                  sweep.candidates.size(), sweep.survivors, sweep.pruned)
            : fmt("predictive sweep (full sweep over {} candidates: {})",
                  sweep.candidates.size(), sweep.fallbackReason);
}

} // namespace

PredictOptions
predictOptionsFromEnv()
{
    PredictOptions opts;
    opts.enabled = parseEnvBool("NPP_PREDICT", false);
    opts.sampleDir = parseEnvString("NPP_PREDICT_DIR");
    const std::string defaultModel =
        opts.sampleDir.empty() ? std::string()
                               : opts.sampleDir + "/model.nppprd";
    opts.modelPath = parseEnvString("NPP_PREDICT_MODEL", defaultModel);
    return opts;
}

PredictSweep
predictiveSweep(const Gpu &gpu, const Program &prog, const Bindings &args,
                CompileOptions base, const PredictModel *model, int topK)
{
    NPP_TRACE_SCOPE("predict.sweep");
    // Candidate universe: Algorithm 1's score ranking, score choice
    // first — the same pick list the autotuner evaluates exhaustively,
    // compiled once per program object.
    static_assert(kPredictUniverse <= kMemoizedPicks);
    std::vector<SweepPoint> points =
        mappingPoints(prog, gpu.config(), base, kPredictUniverse);

    // Survivor selection: everything without a model; with one, rank by
    // predicted time and keep the top-k plus the score choice (so the
    // pruned sweep can never do worse than Algorithm 1 alone). The fold
    // keeps pick order, so pruned and full sweeps agree whenever the
    // winner survives.
    if (model) {
        const ExecOptions eopts; // the sweep's execution configuration
        std::vector<size_t> order(points.size());
        for (size_t i = 0; i < points.size(); i++) {
            points[i].predictedMs = model->predictMs(extractFeatures(
                prog, points[i].copts.fixedMapping, gpu.config(), eopts,
                base.paramValues));
            points[i].pruned = true;
            order[i] = i;
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return points[a].predictedMs <
                                    points[b].predictedMs;
                         });
        const int k = std::max(
            1, std::min(topK, static_cast<int>(points.size())));
        for (int i = 0; i < k; i++)
            points[order[static_cast<size_t>(i)]].pruned = false;
        points[0].pruned = false; // score choice always
        for (SweepPoint &p : points)
            p.note = fmt("predicted {} ms", fixed(p.predictedMs, 4));
    }
    points[0].note =
        points[0].note.empty() ? "score choice"
                               : "score choice; " + points[0].note;

    PredictSweep sweep;
    static_cast<Sweep &>(sweep) =
        runSweep(gpu, prog, args, std::move(points));
    sweep.kind = "predict";
    sweep.usedModel = model != nullptr;
    if (!model)
        sweep.fallbackReason = "no model";
    const SweepPoint &win = *sweep.winner();
    sweep.best = win.copts.fixedMapping;
    sweep.bestMs = win.exactMs;
    for (const SweepPoint &p : sweep.candidates)
        sweep.survivors += p.simulated() ? 1 : 0;
    sweep.pruned =
        static_cast<int64_t>(sweep.candidates.size()) - sweep.survivors;
    setTitle(sweep);
    NPP_TRACE_COUNT("predict.survivors",
                    static_cast<double>(sweep.survivors));
    NPP_TRACE_COUNT("predict.pruned", static_cast<double>(sweep.pruned));
    return sweep;
}

PredictRuntime &
PredictRuntime::instance()
{
    static PredictRuntime runtime;
    return runtime;
}

void
PredictRuntime::initFromEnv()
{
    const PredictOptions opts = predictOptionsFromEnv();
    {
        std::lock_guard<std::mutex> lock(gRuntimeMutex);
        opts_ = opts;
        model_.reset();
        if (!opts_.modelPath.empty()) {
            model_ = loadPredictModel(opts_.modelPath);
            if (opts_.enabled && !model_) {
                NPP_WARN("predict: no usable model at {} (missing, "
                         "corrupt, or stale schema); sweeps fall back "
                         "to full evaluation",
                         opts_.modelPath);
            }
        }
    }
    setSampleDir(opts.sampleDir);
}

void
PredictRuntime::setSampleDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(gRuntimeMutex);
    opts_.sampleDir = dir;
    if (dir.empty()) {
        writer_.reset();
        setExactEvalObserver({});
        return;
    }
    writer_ = std::make_shared<SampleWriter>(dir);
    // The observer holds its own reference: a later reconfigure never
    // invalidates a harvest already in flight.
    std::shared_ptr<SampleWriter> writer = writer_;
    setExactEvalObserver([writer](const ExactEvalInfo &info) {
        // Sharded runs are excluded: their times describe a fraction of
        // the domain, which would teach the model that partial launches
        // are fast mappings.
        if (!writer->enabled() || info.eopts->sharded())
            return;
        PredictSample sample;
        sample.features =
            extractFeatures(*info.prog, *info.mapping, *info.device,
                            *info.eopts, *info.paramValues);
        sample.measuredMs = info.report->totalMs;
        writer->append(sample);
    });
}

void
PredictRuntime::setModel(std::optional<PredictModel> model)
{
    std::lock_guard<std::mutex> lock(gRuntimeMutex);
    model_ = std::move(model);
}

void
PredictRuntime::setEnabled(bool on, int topK)
{
    NPP_ASSERT(topK == kPredictDefaultTopK, "top-k {} is not {}", topK,
               kPredictDefaultTopK);
    std::lock_guard<std::mutex> lock(gRuntimeMutex);
    opts_.enabled = on;
}

bool
PredictRuntime::active() const
{
    std::lock_guard<std::mutex> lock(gRuntimeMutex);
    return opts_.enabled;
}

const PredictModel *
PredictRuntime::model() const
{
    std::lock_guard<std::mutex> lock(gRuntimeMutex);
    if (!opts_.enabled || !model_)
        return nullptr;
    return &*model_;
}

PredictSweep
PredictRuntime::sweep(const Gpu &gpu, const Program &prog,
                      const Bindings &args, const CompileOptions &base)
{
    bool enabled;
    // Snapshot the model by value: predictiveSweep runs long, and a
    // concurrent setModel must not invalidate the pointer mid-sweep.
    std::optional<PredictModel> model;
    {
        std::lock_guard<std::mutex> lock(gRuntimeMutex);
        enabled = opts_.enabled;
        if (enabled)
            model = model_;
    }
    PredictSweep result = predictiveSweep(
        gpu, prog, args, base, model ? &*model : nullptr,
        kPredictDefaultTopK);
    if (!enabled && !result.usedModel) {
        result.fallbackReason = "predictor disabled";
        setTitle(result);
    }
    {
        std::lock_guard<std::mutex> lock(gRuntimeMutex);
        pruned_ += static_cast<uint64_t>(result.pruned);
        survivors_ += static_cast<uint64_t>(result.survivors);
        if (result.usedModel)
            prunedSweeps_++;
        else
            fullSweeps_++;
    }
    return result;
}

PredictStats
PredictRuntime::stats() const
{
    PredictStats s;
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(gRuntimeMutex);
        s.enabled = opts_.enabled;
        if (model_) {
            s.modelVersion = model_->featureVersion;
            s.modelSamples = model_->trainedSamples;
        }
        s.pruned = pruned_;
        s.survivors = survivors_;
        s.prunedSweeps = prunedSweeps_;
        s.fullSweeps = fullSweeps_;
        s.samplesHarvested = writer_ ? writer_->appended() : 0;
        dir = opts_.sampleDir;
    }
    // The store scan walks files; do it outside the lock.
    s.sampleStoreRecords = dir.empty() ? 0 : countPredictSamples(dir);
    return s;
}

void
initPredictFromEnv()
{
    PredictRuntime::instance().initFromEnv();
}

std::string
predictStatsJson()
{
    const PredictStats s = PredictRuntime::instance().stats();
    std::ostringstream os;
    os << "{\"enabled\":" << (s.enabled ? "true" : "false");
    os << ",\"predict_model_version\":" << s.modelVersion;
    os << ",\"model_samples\":" << s.modelSamples;
    os << ",\"topk\":" << kPredictDefaultTopK;
    os << ",\"predict_pruned\":" << s.pruned;
    os << ",\"predict_survivors\":" << s.survivors;
    os << ",\"pruned_sweeps\":" << s.prunedSweeps;
    os << ",\"full_sweeps\":" << s.fullSweeps;
    os << ",\"samples_harvested\":" << s.samplesHarvested;
    os << ",\"sample_store_records\":" << s.sampleStoreRecords;
    os << "}";
    return os.str();
}

} // namespace npp
