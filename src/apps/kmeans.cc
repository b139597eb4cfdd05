/**
 * @file
 * K-Means clustering (extension workload): exercises the full pattern
 * vocabulary in one application — a nested assign kernel (points x
 * centers x features, with a sequential argmin over centers) and two
 * GroupBy kernels for the update step (per-cluster coordinate sums and
 * counts), with the centroid division on the host.
 */

#include "apps/realworld.h"
#include "support/rng.h"

namespace npp {

namespace {

class KmeansApp : public App
{
  public:
    KmeansApp(int64_t points, int64_t clusters, int64_t features,
              int iterations)
        : App("KMeans"), p(points), k(clusters), f(features),
          iterations(iterations)
    {
        Rng rng(67);
        std::vector<double> &coords = x.mut();
        coords.resize(p * f);
        // Points drawn around k well-separated synthetic centers.
        for (int64_t i = 0; i < p; i++) {
            const int64_t c = rng.below(k);
            for (int64_t d = 0; d < f; d++) {
                coords[i * f + d] =
                    static_cast<double>(c * 10 + d % 3) +
                    rng.gaussian() * 0.5;
            }
        }
        buildAssign();
        buildSums();
        buildCounts();
        hints_.paramValues = {{aP.ref()->varId, static_cast<double>(p)},
                              {aK.ref()->varId, static_cast<double>(k)},
                              {aF.ref()->varId, static_cast<double>(f)}};
        inputBytes_ = static_cast<double>(p) * f * 8;
        errorFloor_ = 1e-9;
    }

  private:
    void
    buildAssign()
    {
        // For each point: sequential argmin over centers, each distance
        // an inner reduce over the features.
        ProgramBuilder b("kmeans_assign");
        Arr xs = b.inF64("points");
        Arr cs = b.inF64("centers");
        aP = b.paramI64("P");
        aK = b.paramI64("K");
        aF = b.paramI64("F");
        Arr out = b.outF64("assign");
        aX = xs;
        aC = cs;
        aOut = out;
        Ex kk = aK, ff = aF;

        b.map(aP, out, [&](Body &fn, Ex i) {
            Mut best = fn.mut("best", Ex(1e300));
            Mut bestK = fn.mut("bestK", Ex(0.0));
            fn.seqLoop(kk, [&](Body &trial, Ex c) {
                Ex d2 = trial.reduce(ff, Op::Add, [&](Body &inner, Ex d) {
                    Ex diff = inner.let(
                        "diff", xs(Ex(i) * ff + d) - cs(Ex(c) * ff + d));
                    return diff * diff;
                });
                trial.branch(d2 < best.ex(), [&](Body &better) {
                    better.assign(best, d2);
                    better.assign(bestK, Ex(c));
                });
            });
            return bestK.ex();
        });
        assign = std::make_shared<Program>(b.build());
    }

    void
    buildSums()
    {
        // Per-(cluster, coordinate) sums as one groupBy over P*F
        // elements keyed by assign[point]*F + coordinate.
        ProgramBuilder b("kmeans_sums");
        Arr xs = b.inF64("points");
        Arr asn = b.inF64("assign");
        sP = b.paramI64("P");
        sF = b.paramI64("F");
        Arr out = b.outF64("sums");
        sX = xs;
        sAssign = asn;
        sOut = out;
        Ex ff = sF;

        b.groupBy(sP * sF, Op::Add, out, [&](Body &fn, Ex i) {
            Ex point = fn.let("point", floor(Ex(i) / ff));
            Ex coord = fn.let("coord", Ex(i) % ff);
            return KeyedValue{asn(point) * ff + coord, xs(i)};
        });
        sums = std::make_shared<Program>(b.build());
    }

    void
    buildCounts()
    {
        ProgramBuilder b("kmeans_counts");
        Arr asn = b.inF64("assign");
        cP = b.paramI64("P");
        Arr out = b.outF64("counts");
        cAssign = asn;
        cOut = out;
        b.groupBy(cP, Op::Add, out, [&](Body &, Ex i) {
            return KeyedValue{asn(i), Ex(1.0)};
        });
        counts = std::make_shared<Program>(b.build());
    }

    std::vector<double>
    hostLoop(Runner &runner) override
    {
        // Deterministic init: first k points.
        HostArray centers(std::vector<double>(x.values().begin(),
                                              x.values().begin() + k * f));
        HostArray assignment(std::vector<double>(p, 0.0));
        HostArray sumBuf(std::vector<double>(k * f, 0.0));
        HostArray countBuf(std::vector<double>(k, 0.0));
        for (int it = 0; it < iterations; it++) {
            {
                Bindings args(*assign);
                args.scalar(aP, static_cast<double>(p));
                args.scalar(aK, static_cast<double>(k));
                args.scalar(aF, static_cast<double>(f));
                args.array(aX, x);
                args.array(aC, centers);
                args.array(aOut, assignment);
                runner.launch(*assign, args);
            }
            {
                Bindings args(*sums);
                args.scalar(sP, static_cast<double>(p));
                args.scalar(sF, static_cast<double>(f));
                args.array(sX, x);
                args.array(sAssign, assignment);
                args.array(sOut, sumBuf);
                runner.launch(*sums, args);
            }
            {
                Bindings args(*counts);
                args.scalar(cP, static_cast<double>(p));
                args.array(cAssign, assignment);
                args.array(cOut, countBuf);
                runner.launch(*counts, args);
            }
            std::vector<double> &next = centers.mut();
            for (int64_t c = 0; c < k; c++) {
                if (countBuf[c] == 0.0)
                    continue;
                for (int64_t d = 0; d < f; d++)
                    next[c * f + d] = sumBuf[c * f + d] / countBuf[c];
            }
        }
        return std::move(centers.mut());
    }

    int64_t p, k, f;
    int iterations;
    HostArray x;
    std::shared_ptr<Program> assign, sums, counts;
    Arr aX, aC, aOut, sX, sAssign, sOut, cAssign, cOut;
    Ex aP, aK, aF, sP, sF, cP;
};

} // namespace

std::unique_ptr<App>
makeKmeans(int64_t points, int64_t clusters, int64_t features,
           int iterations)
{
    return std::make_unique<KmeansApp>(points, clusters, features,
                                       iterations);
}

} // namespace npp
