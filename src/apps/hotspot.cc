/**
 * @file
 * Hotspot: iterated 5-point heat-diffusion stencil over a 2-D grid of
 * temperatures with a per-cell power term. Two levels of parallelism;
 * the input of each iteration is the previous iteration's output
 * (ping-pong buffers on the host side).
 */

#include "apps/rodinia.h"
#include "support/rng.h"

namespace npp {

namespace {

class HotspotApp : public App
{
  public:
    HotspotApp(int64_t n, int iterations, bool colMajor)
        : App(colMajor ? "Hotspot(C)" : "Hotspot(R)"), n(n),
          iterations(iterations), colMajor(colMajor)
    {
        Rng rng(73);
        temp0.resize(n * n);
        std::vector<double> watts(n * n);
        for (auto &t : temp0)
            t = rng.uniform(320, 340);
        for (auto &p : watts)
            p = rng.uniform(0, 1e-3);
        power = HostArray(std::move(watts));
        build();
        hints_.paramValues = {{nParam.ref()->varId, static_cast<double>(n)}};
        inputBytes_ = static_cast<double>(n) * n * 2 * 8;
        // The Rodinia kernel uses a 16x16 2D block, raw pointers. (Its
        // pyramidal multi-iteration fusion is small-scale; the dominant
        // behavior is the coalesced 2D stencil.)
        manual_ = hints_;
        manual_->strategy = Strategy::Fixed;
        manual_->fixedMapping.levels = {{1, 8, SpanType::one()},
                                        {0, 32, SpanType::one()}};
        manual_->rawPointers = true;
    }

  private:
    void
    build()
    {
        ProgramBuilder b(colMajor ? "hotspot_c" : "hotspot_r");
        tIn = b.inF64("tin");
        pArr = b.inF64("power");
        nParam = b.paramI64("n");
        tOut = b.outF64("tout");
        Ex np = nParam;
        Arr tin = tIn, p = pArr, tout = tOut;

        auto cell = [&](Body &fn, Ex i, Ex j) {
            Ex c = fn.let("c", tin(i * np + j));
            Ex up = fn.let("up", sel(i > 0, tin(max(i - 1, 0) * np + j), c));
            Ex dn = fn.let("dn",
                           sel(i < np - 1, tin(min(i + 1, np - 1) * np + j),
                               c));
            Ex lf = fn.let("lf", sel(j > 0, tin(i * np + max(j - 1, 0)), c));
            Ex rt = fn.let("rt",
                           sel(j < np - 1, tin(i * np + min(j + 1, np - 1)),
                               c));
            Ex next = fn.let(
                "next", c + 0.2 * (up + dn + lf + rt - 4.0 * c) +
                            100.0 * p(i * np + j));
            fn.store(tout, i * np + j, next);
        };

        if (colMajor) {
            b.foreach(np, [&](Body &outer, Ex j) {
                outer.foreach(np, [&](Body &inner, Ex i) {
                    cell(inner, i, Ex(j));
                });
            });
        } else {
            b.foreach(np, [&](Body &outer, Ex i) {
                outer.foreach(np, [&](Body &inner, Ex j) {
                    cell(inner, Ex(i), j);
                });
            });
        }
        prog = std::make_shared<Program>(b.build());
    }

    std::vector<double>
    hostLoop(Runner &runner) override
    {
        HostArray a(temp0);
        HostArray c(std::vector<double>(n * n, 0.0));
        for (int it = 0; it < iterations; it++) {
            Bindings args(*prog);
            args.scalar(nParam, static_cast<double>(n));
            args.array(tIn, a);
            args.array(pArr, power);
            args.array(tOut, c);
            runner.launch(*prog, args);
            std::swap(a, c);
        }
        return std::move(a.mut());
    }

    int64_t n;
    int iterations;
    bool colMajor;
    std::vector<double> temp0;
    HostArray power;
    std::shared_ptr<Program> prog;
    Arr tIn, pArr, tOut;
    Ex nParam;
};

} // namespace

std::unique_ptr<App>
makeHotspot(int64_t n, int iterations, bool colMajor)
{
    return std::make_unique<HotspotApp>(n, iterations, colMajor);
}

} // namespace npp
