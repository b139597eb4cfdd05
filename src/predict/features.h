/**
 * @file
 * Deterministic feature extraction for the learned cost model: a fixed,
 * versioned vector of engineered features over (Program IR, mapping,
 * execution options, device). Everything is derived from structural
 * program properties — pattern kinds, per-level domain extents and
 * knownness, access-site strides, the candidate mapping's geometry, the
 * analytical model's estimate — never from pointers or addresses, so two
 * separately-built but structurally-identical programs featurize to
 * bit-identical vectors (enforced by tests/predict/features_test).
 *
 * The schema is versioned by kPredictFeatureVersion: any change to the
 * feature count, order, or derivation must bump it, and a persisted
 * model trained against a different version is rejected as "no model"
 * (the on-disk EvalCache tier rejects stale entries the same way, by its
 * format version).
 */

#ifndef NPP_PREDICT_FEATURES_H
#define NPP_PREDICT_FEATURES_H

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/mapping.h"
#include "ir/program.h"
#include "sim/executor.h"

namespace npp {

/** Bump on any change to the feature schema (count, order, derivation). */
inline constexpr uint32_t kPredictFeatureVersion = 1;

/** Number of features per sample (fixed by the schema version). */
inline constexpr int kPredictFeatureCount = 44;

/** One extracted feature vector. */
struct PredictFeatures
{
    std::array<double, kPredictFeatureCount> v{};
};

/** Schema: one short name per feature index, for `nppc show-predictor`
 *  and the model-inspection docs. Size == kPredictFeatureCount. */
const std::vector<std::string> &predictFeatureNames();

/**
 * Extract the feature vector for one (program, mapping) pair.
 *
 * `paramValues` supplies actual sizes when known (the same values the
 * compile pipeline sees); when absent the extraction falls back to the
 * program's size hints and finally the paper's default-size assumption,
 * exactly like the constraint builder. Deterministic: depends only on
 * structural program content and the argument values.
 */
PredictFeatures
extractFeatures(const Program &prog, const MappingDecision &mapping,
                const DeviceConfig &device, const ExecOptions &eopts,
                const std::unordered_map<int, double> &paramValues = {});

} // namespace npp

#endif // NPP_PREDICT_FEATURES_H
