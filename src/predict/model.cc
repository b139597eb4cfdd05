#include "predict/model.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "support/binfile.h"
#include "support/logging.h"
#include "support/strings.h"

namespace npp {

namespace {

constexpr char kModelMagic[8] = {'N', 'P', 'P', 'P', 'R', 'D', '1', '\n'};

/** Solve A x = b in place (A symmetric positive definite after the
 *  ridge term; partial-pivot Gaussian elimination for safety). Returns
 *  false on a (numerically) singular system. */
bool
solveLinear(std::vector<std::vector<double>> &a, std::vector<double> &b)
{
    const size_t n = b.size();
    for (size_t col = 0; col < n; col++) {
        size_t pivot = col;
        for (size_t r = col + 1; r < n; r++) {
            if (std::abs(a[r][col]) > std::abs(a[pivot][col]))
                pivot = r;
        }
        if (std::abs(a[pivot][col]) < 1e-12)
            return false;
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);
        for (size_t r = col + 1; r < n; r++) {
            const double factor = a[r][col] / a[col][col];
            if (factor == 0.0)
                continue;
            for (size_t c = col; c < n; c++)
                a[r][c] -= factor * a[col][c];
            b[r] -= factor * b[col];
        }
    }
    for (size_t col = n; col-- > 0;) {
        double acc = b[col];
        for (size_t c = col + 1; c < n; c++)
            acc -= a[col][c] * b[c];
        b[col] = acc / a[col][col];
    }
    return true;
}

} // namespace

double
PredictModel::predictMs(const PredictFeatures &f) const
{
    double z = intercept;
    for (int j = 0; j < kPredictFeatureCount; j++)
        z += weights[j] * (f.v[j] - mean[j]) / scale[j];
    const double ms = std::exp(z) - 1.0;
    return ms > 0.0 ? ms : 0.0;
}

std::optional<PredictModel>
trainPredictModel(const std::vector<PredictSample> &samples, double lambda)
{
    if (samples.empty())
        return std::nullopt;
    const size_t n = samples.size();
    constexpr int d = kPredictFeatureCount;

    PredictModel m;
    m.trainedSamples = n;
    m.ridgeLambda = lambda;
    m.mean.assign(d, 0.0);
    m.scale.assign(d, 1.0);
    m.weights.assign(d, 0.0);

    for (const PredictSample &s : samples)
        for (int j = 0; j < d; j++)
            m.mean[j] += s.features.v[j];
    for (int j = 0; j < d; j++)
        m.mean[j] /= static_cast<double>(n);
    std::vector<double> var(d, 0.0);
    for (const PredictSample &s : samples) {
        for (int j = 0; j < d; j++) {
            const double dlt = s.features.v[j] - m.mean[j];
            var[j] += dlt * dlt;
        }
    }
    for (int j = 0; j < d; j++) {
        const double sd = std::sqrt(var[j] / static_cast<double>(n));
        // Constant features (the bias, single-device sweeps' device
        // params) standardize to zero with scale 1 instead of dividing
        // by ~0; the ridge term keeps their weights at 0.
        m.scale[j] = sd > 1e-9 ? sd : 1.0;
    }

    // Normal equations on standardized X and centered log target.
    double yMean = 0.0;
    std::vector<double> ys(n);
    for (size_t i = 0; i < n; i++) {
        ys[i] = std::log1p(std::max(0.0, samples[i].measuredMs));
        yMean += ys[i];
    }
    yMean /= static_cast<double>(n);
    m.intercept = yMean;

    std::vector<std::vector<double>> xtx(d, std::vector<double>(d, 0.0));
    std::vector<double> xty(d, 0.0);
    std::vector<double> z(d);
    for (size_t i = 0; i < n; i++) {
        for (int j = 0; j < d; j++)
            z[j] = (samples[i].features.v[j] - m.mean[j]) / m.scale[j];
        const double yc = ys[i] - yMean;
        for (int j = 0; j < d; j++) {
            xty[j] += z[j] * yc;
            for (int k = j; k < d; k++)
                xtx[j][k] += z[j] * z[k];
        }
    }
    for (int j = 0; j < d; j++) {
        for (int k = 0; k < j; k++)
            xtx[j][k] = xtx[k][j];
        xtx[j][j] += lambda * static_cast<double>(n);
    }
    if (!solveLinear(xtx, xty)) {
        NPP_WARN("predict model: singular normal equations ({} samples); "
                 "no model produced",
                 n);
        return std::nullopt;
    }
    m.weights = std::move(xty);
    return m;
}

bool
savePredictModel(const PredictModel &model, const std::string &path)
{
    ByteWriter payload;
    payload.u64(model.trainedSamples);
    payload.f64(model.ridgeLambda);
    payload.f64(model.intercept);
    for (int j = 0; j < kPredictFeatureCount; j++)
        payload.f64(model.mean[j]);
    for (int j = 0; j < kPredictFeatureCount; j++)
        payload.f64(model.scale[j]);
    for (int j = 0; j < kPredictFeatureCount; j++)
        payload.f64(model.weights[j]);

    ByteWriter header;
    header.buf.append(kModelMagic, sizeof kModelMagic);
    header.u32(kPredictModelFormatVersion);
    header.u32(model.featureVersion);
    header.u32(kPredictFeatureCount);
    header.u64(payload.buf.size());
    header.u64(fnvBytes(payload.buf.data(), payload.buf.size()));
    return writeFileAtomic(path, {header.buf, payload.buf}, "predict model");
}

std::optional<PredictModel>
loadPredictModel(const std::string &path)
{
    std::string data;
    if (readWholeFile(path, &data) != FileRead::Ok)
        return std::nullopt;

    ByteReader r{data.data(), data.size()};
    char magic[sizeof kModelMagic];
    if (!r.take(magic, sizeof magic) ||
        std::memcmp(magic, kModelMagic, sizeof magic) != 0)
        return std::nullopt;
    if (r.u32() != kPredictModelFormatVersion)
        return std::nullopt;
    const uint32_t featureVersion = r.u32();
    if (!r.ok || featureVersion != kPredictFeatureVersion)
        return std::nullopt;
    if (r.u32() != kPredictFeatureCount)
        return std::nullopt;
    const uint64_t payloadSize = r.u64();
    const uint64_t payloadFnv = r.u64();
    if (!r.ok || r.n - r.off != payloadSize)
        return std::nullopt;
    if (fnvBytes(r.p + r.off, payloadSize) != payloadFnv)
        return std::nullopt;

    PredictModel m;
    m.featureVersion = featureVersion;
    m.trainedSamples = r.u64();
    m.ridgeLambda = r.f64();
    m.intercept = r.f64();
    m.mean.resize(kPredictFeatureCount);
    m.scale.resize(kPredictFeatureCount);
    m.weights.resize(kPredictFeatureCount);
    for (int j = 0; j < kPredictFeatureCount; j++)
        m.mean[j] = r.f64();
    for (int j = 0; j < kPredictFeatureCount; j++)
        m.scale[j] = r.f64();
    for (int j = 0; j < kPredictFeatureCount; j++)
        m.weights[j] = r.f64();
    if (!r.ok || r.off != r.n)
        return std::nullopt;
    for (int j = 0; j < kPredictFeatureCount; j++) {
        if (!std::isfinite(m.mean[j]) || !std::isfinite(m.scale[j]) ||
            !std::isfinite(m.weights[j]) || m.scale[j] == 0.0)
            return std::nullopt;
    }
    if (!std::isfinite(m.intercept))
        return std::nullopt;
    return m;
}

std::string
formatPredictModel(const PredictModel &model)
{
    std::ostringstream os;
    os << fmt("predict model: feature schema v{}, {} features, trained "
              "on {} samples (ridge lambda={})\n",
              model.featureVersion, kPredictFeatureCount,
              model.trainedSamples, model.ridgeLambda);
    os << fmt("  intercept (mean log1p ms): {}\n",
              fixed(model.intercept, 6));
    const std::vector<std::string> &names = predictFeatureNames();
    for (int j = 0; j < kPredictFeatureCount; j++) {
        os << fmt("  [{}] {}  w={}  mean={}  scale={}\n", j,
                  padRight(names[j], 26), fixed(model.weights[j], 6),
                  fixed(model.mean[j], 4), fixed(model.scale[j], 4));
    }
    return os.str();
}

} // namespace npp
