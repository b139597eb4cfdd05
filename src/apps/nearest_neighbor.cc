/**
 * @file
 * Nearest Neighbor: one level of parallelism — the Euclidean distance
 * from every record to a target location. The paper uses it to measure
 * raw generated-code quality against hand-written CUDA (the ~20% wrapper
 * overhead gap of Section VI-C).
 */

#include "apps/rodinia.h"
#include "support/rng.h"

namespace npp {

namespace {

class NearestNeighborApp : public App
{
  public:
    explicit NearestNeighborApp(int64_t records)
        : App("NearestNeighbor"), n(records)
    {
        Rng rng(101);
        std::vector<double> lats(n), lngs(n);
        for (int64_t i = 0; i < n; i++) {
            lats[i] = rng.uniform(0, 90);
            lngs[i] = rng.uniform(0, 180);
        }
        lat = HostArray(std::move(lats));
        lng = HostArray(std::move(lngs));
        build();
        hints_.paramValues = {{nParam.ref()->varId, static_cast<double>(n)}};
        inputBytes_ = static_cast<double>(n) * 2 * 8;
        // The Rodinia kernel: same mapping class, raw pointers.
        manual_ = hints_;
        manual_->strategy = Strategy::MultiDim;
        manual_->rawPointers = true;
    }

  private:
    void
    build()
    {
        ProgramBuilder b("nn");
        latArr = b.inF64("lat");
        lngArr = b.inF64("lng");
        nParam = b.paramI64("n");
        targetLat = b.paramF64("tlat");
        targetLng = b.paramF64("tlng");
        distArr = b.outF64("dist");
        Arr la = latArr, lo = lngArr;
        Ex tla = targetLat, tlo = targetLng;
        b.map(nParam, distArr, [&](Body &fn, Ex i) {
            Ex dy = fn.let("dy", la(i) - tla);
            Ex dx = fn.let("dx", lo(i) - tlo);
            return sqrt(dy * dy + dx * dx);
        });
        prog = std::make_shared<Program>(b.build());
    }

    std::vector<double>
    hostLoop(Runner &runner) override
    {
        HostArray dist(std::vector<double>(n, 0.0));
        Bindings args(*prog);
        args.scalar(nParam, static_cast<double>(n));
        args.scalar(targetLat, 30.0);
        args.scalar(targetLng, 60.0);
        args.array(latArr, lat);
        args.array(lngArr, lng);
        args.array(distArr, dist);
        runner.launch(*prog, args);
        return std::move(dist.mut());
    }

    int64_t n;
    HostArray lat, lng;
    std::shared_ptr<Program> prog;
    Arr latArr, lngArr, distArr;
    Ex nParam, targetLat, targetLng;
};

} // namespace

std::unique_ptr<App>
makeNearestNeighbor(int64_t records)
{
    return std::make_unique<NearestNeighborApp>(records);
}

} // namespace npp
