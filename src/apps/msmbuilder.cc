/**
 * @file
 * MSMBuilder trajectory clustering (Section VI-E): the performance-
 * critical kernel computes the distance from every conformation frame to
 * every cluster center over a feature vector — three nested patterns
 * whose individual domains are all small (~100 each). Only the product
 * of the domains saturates the GPU, which is exactly what the 1D mapping
 * cannot exploit.
 */

#include "apps/realworld.h"
#include "support/rng.h"

namespace npp {

namespace {

class MsmBuilderApp : public App
{
  public:
    MsmBuilderApp(int64_t frames, int64_t clusters, int64_t features)
        : App("MSMBuilder"), n(frames), k(clusters), f(features)
    {
        Rng rng(29);
        std::vector<double> coords(n * f), centers(k * f);
        for (auto &v : coords)
            v = rng.uniform(-1, 1);
        for (auto &v : centers)
            v = rng.uniform(-1, 1);
        x = HostArray(std::move(coords));
        c = HostArray(std::move(centers));
        build();
        hints_.paramValues = {{nParam.ref()->varId, static_cast<double>(n)},
                              {kParam.ref()->varId, static_cast<double>(k)},
                              {fParam.ref()->varId, static_cast<double>(f)}};
        inputBytes_ = static_cast<double>(n + k) * f * 8;
        errorFloor_ = 1e-9;
    }

  private:
    void
    build()
    {
        ProgramBuilder b("traj_distances");
        xArr = b.inF64("frames");
        cArr = b.inF64("centers");
        nParam = b.paramI64("N");
        kParam = b.paramI64("K");
        fParam = b.paramI64("F");
        dArr = b.outF64("dist");
        Arr xa = xArr, ca = cArr, da = dArr;
        Ex kp = kParam, fp = fParam;

        b.foreach(nParam, [&](Body &frame, Ex i) {
            frame.foreach(kp, [&](Body &center, Ex j) {
                Ex d2 = center.reduce(fp, Op::Add, [&](Body &inner, Ex t) {
                    Ex diff = inner.let("diff",
                                        xa(i * fp + t) - ca(Ex(j) * fp + t));
                    return diff * diff;
                });
                center.store(da, i * kp + j, sqrt(d2));
            });
        });
        prog = std::make_shared<Program>(b.build());
    }

    std::vector<double>
    hostLoop(Runner &runner) override
    {
        HostArray dist(std::vector<double>(n * k, 0.0));
        Bindings args(*prog);
        args.scalar(nParam, static_cast<double>(n));
        args.scalar(kParam, static_cast<double>(k));
        args.scalar(fParam, static_cast<double>(f));
        args.array(xArr, x);
        args.array(cArr, c);
        args.array(dArr, dist);
        runner.launch(*prog, args);
        return std::move(dist.mut());
    }

    int64_t n, k, f;
    HostArray x, c;
    std::shared_ptr<Program> prog;
    Arr xArr, cArr, dArr;
    Ex nParam, kParam, fParam;
};

} // namespace

std::unique_ptr<App>
makeMsmBuilder(int64_t frames, int64_t clusters, int64_t features)
{
    return std::make_unique<MsmBuilderApp>(frames, clusters, features);
}

} // namespace npp
