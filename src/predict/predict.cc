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

std::string
num(double v)
{
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
}

/** Process-wide counters shared by PredictRuntime and the harvest
 *  observer (the observer outlives any particular sweep). */
std::mutex gRuntimeMutex;

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

std::string
PredictSweep::note() const
{
    std::ostringstream os;
    if (usedModel) {
        os << fmt("predict: model ranked {} candidates; simulated {} "
                  "(pruned {}); best {} at {} ms\n",
                  candidates.size(), survivors, pruned, best.toString(),
                  fixed(bestMs, 6));
    } else {
        os << fmt("predict: full sweep over {} candidates ({}); best {} "
                  "at {} ms\n",
                  candidates.size(),
                  fallbackReason.empty() ? "predictor disabled"
                                         : fallbackReason,
                  best.toString(), fixed(bestMs, 6));
    }
    return os.str();
}

std::string
PredictSweep::toJson() const
{
    std::ostringstream os;
    os << "{\"used_model\":" << (usedModel ? "true" : "false");
    if (!usedModel)
        os << ",\"fallback_reason\":\"" << jsonEscape(fallbackReason)
           << "\"";
    os << ",\"pruned\":" << pruned;
    os << ",\"survivors\":" << survivors;
    os << ",\"best\":\"" << jsonEscape(best.toString()) << "\"";
    os << ",\"best_ms\":" << num(bestMs);
    os << ",\"candidates\":[";
    for (size_t i = 0; i < candidates.size(); i++) {
        const PredictCandidate &c = candidates[i];
        os << (i ? "," : "") << "{\"mapping\":\""
           << jsonEscape(c.decision.toString()) << "\",\"score\":"
           << num(c.score) << ",\"predicted_ms\":" << num(c.predictedMs)
           << ",\"survived\":" << (c.survived ? "true" : "false")
           << ",\"score_choice\":" << (c.isScoreChoice ? "true" : "false");
        if (c.survived)
            os << ",\"exact_ms\":" << num(c.exactMs);
        os << "}";
    }
    os << "]}";
    return os.str();
}

PredictSweep
predictiveSweep(const Gpu &gpu, const Program &prog, const Bindings &args,
                CompileOptions base, const PredictModel *model, int topK)
{
    NPP_TRACE_SCOPE("predict.sweep");
    PredictSweep sweep;

    // Candidate universe: Algorithm 1's score ranking, score choice
    // first — the same pick list the autotuner evaluates exhaustively.
    const std::vector<ScoredMapping> picks =
        rankedCandidates(prog, gpu.config(), base, kPredictUniverse);

    sweep.candidates.resize(picks.size());
    for (size_t i = 0; i < picks.size(); i++) {
        sweep.candidates[i].decision = picks[i].decision;
        sweep.candidates[i].score = picks[i].score;
        sweep.candidates[i].isScoreChoice = i == 0;
    }

    // Survivor selection: everything without a model; with one, rank by
    // predicted time and keep the top-k plus the score choice (so the
    // pruned sweep can never do worse than Algorithm 1 alone).
    const ExecOptions eopts; // the sweep's execution configuration
    if (model) {
        sweep.usedModel = true;
        for (size_t i = 0; i < picks.size(); i++) {
            const PredictFeatures f =
                extractFeatures(prog, picks[i].decision, gpu.config(),
                                eopts, base.paramValues);
            sweep.candidates[i].predictedMs = model->predictMs(f);
        }
        std::vector<size_t> order(picks.size());
        for (size_t i = 0; i < order.size(); i++)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return sweep.candidates[a].predictedMs <
                                    sweep.candidates[b].predictedMs;
                         });
        const int k = std::max(
            1, std::min(topK, static_cast<int>(picks.size())));
        for (int i = 0; i < k; i++)
            sweep.candidates[order[static_cast<size_t>(i)]].survived =
                true;
        sweep.candidates[0].survived = true; // score choice always
    } else {
        if (sweep.fallbackReason.empty())
            sweep.fallbackReason = "no model";
        for (PredictCandidate &c : sweep.candidates)
            c.survived = true;
    }

    // Exact simulation of the survivors, concurrently and through the
    // tiered cache (the harvest observer fires on every genuine miss),
    // folded in pick order: identical tie-breaking to the full sweep, so
    // pruned and full agree whenever the winner survives.
    std::vector<size_t> evalIdx;
    std::vector<MappingDecision> survivors;
    for (size_t i = 0; i < sweep.candidates.size(); i++) {
        if (sweep.candidates[i].survived) {
            evalIdx.push_back(i);
            survivors.push_back(sweep.candidates[i].decision);
        }
    }
    const MeasuredMappings measured =
        measureMappings(gpu, prog, args, base, survivors);
    for (size_t i = 0; i < evalIdx.size(); i++)
        sweep.candidates[evalIdx[i]].exactMs = measured.ms[i];
    sweep.best = survivors[measured.best];
    sweep.bestMs = measured.ms[measured.best];

    sweep.survivors = static_cast<int64_t>(evalIdx.size());
    sweep.pruned =
        static_cast<int64_t>(sweep.candidates.size()) - sweep.survivors;
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
        // Only evaluations whose executed mapping the call site could
        // name become training pairs, and sharded runs are excluded:
        // their times describe a fraction of the domain, which would
        // teach the model that partial launches are fast mappings.
        if (!info.mapping || !writer->enabled())
            return;
        if (info.eopts && info.eopts->sharded())
            return;
        PredictSample sample;
        sample.features = extractFeatures(
            *info.prog, *info.mapping, *info.device, *info.eopts,
            info.paramValues ? *info.paramValues
                             : std::unordered_map<int, double>{});
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
    if (!enabled && !result.usedModel)
        result.fallbackReason = "predictor disabled";
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
