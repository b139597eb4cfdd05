/**
 * @file
 * Predictor-guided mapping search: the paper's two-stage
 * score-then-verify structure with a learned ranker in the middle.
 * The search still enumerates and scores candidates with Algorithm 1;
 * the predictor then ranks the top-scoring distinct candidates by
 * predicted time and only the top-k survivors are exactly simulated —
 * the exact simulator stays the oracle, so the selected mapping's
 * simulated report is bit-identical to what the full sweep would have
 * produced *when the true winner survives pruning* (k is sized so it
 * does on every demo program; enforced by tests/predict and the
 * fig_predict gates). With no model loaded — missing file, corrupt
 * file, stale feature-schema version — the sweep silently falls back
 * to the full (unpruned) evaluation.
 *
 * Knobs (all hardened through support/env.h):
 *   NPP_PREDICT=1          enable predictor-guided pruning
 *   NPP_PREDICT_DIR=PATH   sample store; harvest every exact simulation
 *   NPP_PREDICT_MODEL=PATH model file (default: <dir>/model.nppprd)
 */

#ifndef NPP_PREDICT_PREDICT_H
#define NPP_PREDICT_PREDICT_H

#include <memory>

#include "predict/model.h"
#include "sim/sweep.h"

namespace npp {

/** Score-ranked distinct candidates the sweep evaluates (the universe
 *  the predictor prunes). Matches the autotuner's neighborhood. */
inline constexpr int kPredictUniverse = 48;

/** Survivors per sweep (score choice always included). */
inline constexpr int kPredictDefaultTopK = 12;

/** Resolved NPP_PREDICT* configuration. */
struct PredictOptions
{
    bool enabled = false;   //!< NPP_PREDICT
    std::string sampleDir;  //!< NPP_PREDICT_DIR ("" = no harvesting)
    std::string modelPath;  //!< NPP_PREDICT_MODEL or <dir>/model.nppprd
};

/** Parse the NPP_PREDICT* environment (fresh read; warn+fallback on
 *  garbage via the hardened env helpers). */
PredictOptions predictOptionsFromEnv();

/** Outcome of one predictive sweep: every candidate, with its
 *  predicted time and its pruned flag, plus the winner. */
struct PredictSweep : Sweep
{
    /** False when the sweep fell back to full evaluation. */
    bool usedModel = false;
    /** Why there was no pruning ("" when usedModel). */
    std::string fallbackReason;

    MappingDecision best;
    double bestMs = 0.0;

    int64_t pruned = 0;    //!< candidates skipped on the model's word
    int64_t survivors = 0; //!< candidates exactly simulated
};

/**
 * Run the empirical mapping sweep for `prog`: enumerate + score via
 * Algorithm 1 (keepCandidates), take the top-kPredictUniverse distinct
 * candidates (score choice first), then either exactly simulate all of
 * them (`model` null → full sweep) or only the predictor's top-k
 * (score choice always survives). The winner is the minimum exact time,
 * folded serially in candidate order, so full and pruned sweeps agree
 * whenever the true winner survives. Evaluations flow through the
 * tiered EvalCache and fire the harvest observer like any other.
 */
PredictSweep
predictiveSweep(const Gpu &gpu, const Program &prog, const Bindings &args,
                CompileOptions base, const PredictModel *model, int topK);

/** @name Process-global predict runtime
 *
 * One initPredictFromEnv() call (nppc, the serve loop, and the benches
 * make it on startup) resolves the env knobs, loads the model if any,
 * and installs the sample-harvesting observer when NPP_PREDICT_DIR is
 * set. Counters accumulate across every sweep in the process and are
 * exported by predictStatsJson() (--stats, serve stats).
 *  @{
 */
struct PredictStats
{
    bool enabled = false;
    uint32_t modelVersion = 0; //!< loaded model's schema (0 = no model)
    uint64_t modelSamples = 0; //!< samples the loaded model was fit on
    uint64_t pruned = 0;       //!< candidates skipped across all sweeps
    uint64_t survivors = 0;    //!< candidates exactly simulated
    uint64_t prunedSweeps = 0; //!< sweeps that used the model
    uint64_t fullSweeps = 0;   //!< sweeps that fell back
    uint64_t samplesHarvested = 0; //!< records appended this process
    uint64_t sampleStoreRecords = 0; //!< valid records on disk (scan)
};

class PredictRuntime
{
  public:
    static PredictRuntime &instance();

    /** Resolve env knobs, (re)load the model, (re)install the harvest
     *  observer. Idempotent; later calls re-read the environment. */
    void initFromEnv();

    /** Programmatic overrides for benches/tests (no env dependence). */
    void setSampleDir(const std::string &dir);
    void setModel(std::optional<PredictModel> model);
    /** Sweeps keep kPredictDefaultTopK survivors; `topK` must equal it
     *  and stays only so two-argument callers keep compiling. */
    void setEnabled(bool on, int topK = kPredictDefaultTopK);

    /** Whether sweeps should run at all (NPP_PREDICT=1 or setEnabled);
     *  true even without a model — those sweeps fall back to full
     *  evaluation but still report provenance. */
    bool active() const;
    /** Null when disabled or no valid model is loaded. */
    const PredictModel *model() const;

    /** Run predictiveSweep under the runtime's configuration, recording
     *  the counters. */
    PredictSweep sweep(const Gpu &gpu, const Program &prog,
                       const Bindings &args, const CompileOptions &base);

    PredictStats stats() const;

  private:
    PredictRuntime() = default;

    PredictOptions opts_;
    std::optional<PredictModel> model_;
    std::shared_ptr<SampleWriter> writer_;
    uint64_t pruned_ = 0;
    uint64_t survivors_ = 0;
    uint64_t prunedSweeps_ = 0;
    uint64_t fullSweeps_ = 0;
};

/** Resolve env + load model + install harvester (see PredictRuntime). */
void initPredictFromEnv();

/** Machine-readable counter export for --stats and the serve stats
 *  request (predict_pruned, predict_survivors, predict_model_version,
 *  sample-store size, ...). */
std::string predictStatsJson();
/** @} */

} // namespace npp

#endif // NPP_PREDICT_PREDICT_H
