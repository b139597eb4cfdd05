/**
 * @file
 * Mandelbrot: a two-level nest over pixels with a sequential escape-time
 * loop in the body. Compute bound; the 1D mapping underutilizes the
 * device whenever one image dimension is small (the skewed (50, 20K)
 * instance of Fig 17).
 */

#include "apps/rodinia.h"

namespace npp {

namespace {

class MandelbrotApp : public App
{
  public:
    MandelbrotApp(int64_t height, int64_t width, int maxIter,
                  bool colMajor)
        : App(colMajor ? "Mandelbrot(C)" : "Mandelbrot(R)"), h(height),
          w(width), maxIter(maxIter), colMajor(colMajor)
    {
        build();
        hints_.paramValues = {{hParam.ref()->varId, static_cast<double>(h)},
                              {wParam.ref()->varId, static_cast<double>(w)}};
        // Expert CUDA: 2D block (64, 4), raw pointers.
        manual_ = hints_;
        manual_->strategy = Strategy::Fixed;
        manual_->fixedMapping.levels = {{1, 4, SpanType::one()},
                                        {0, 64, SpanType::one()}};
        manual_->rawPointers = true;
    }

  private:
    void
    build()
    {
        ProgramBuilder b(colMajor ? "mandelbrot_c" : "mandelbrot_r");
        hParam = b.paramI64("H");
        wParam = b.paramI64("W");
        outArr = b.outF64("img");
        Ex hp = hParam, wp = wParam;
        Arr img = outArr;
        const long long iters = maxIter;

        auto pixel = [&](Body &fn, Ex y, Ex x) {
            Ex cr = fn.let("cr", (x * 3.5) / wp - 2.5);
            Ex ci = fn.let("ci", (y * 2.0) / hp - 1.0);
            Mut zr = fn.mut("zr", Ex(0.0));
            Mut zi = fn.mut("zi", Ex(0.0));
            Mut steps = fn.mut("steps", Ex(0.0));
            fn.seqLoop(
                Ex(iters),
                [&](Body &body, Ex) {
                    Ex nzr = body.let(
                        "nzr", zr.ex() * zr.ex() - zi.ex() * zi.ex() + cr);
                    Ex nzi = body.let("nzi", zr.ex() * zi.ex() * 2.0 + ci);
                    body.assign(zr, nzr);
                    body.assign(zi, nzi);
                    body.assign(steps, steps.ex() + 1.0);
                },
                zr.ex() * zr.ex() + zi.ex() * zi.ex() > 4.0);
            fn.store(img, y * wp + x, steps.ex());
        };

        if (colMajor) {
            b.foreach(wp, [&](Body &outer, Ex x) {
                outer.foreach(hp, [&](Body &inner, Ex y) {
                    pixel(inner, y, Ex(x));
                });
            });
        } else {
            b.foreach(hp, [&](Body &outer, Ex y) {
                outer.foreach(wp, [&](Body &inner, Ex x) {
                    pixel(inner, Ex(y), x);
                });
            });
        }
        prog = std::make_shared<Program>(b.build());
    }

    std::vector<double>
    hostLoop(Runner &runner) override
    {
        HostArray img(std::vector<double>(h * w, 0.0));
        Bindings args(*prog);
        args.scalar(hParam, static_cast<double>(h));
        args.scalar(wParam, static_cast<double>(w));
        args.array(outArr, img);
        runner.launch(*prog, args);
        return std::move(img.mut());
    }

    int64_t h, w;
    int maxIter;
    bool colMajor;
    std::shared_ptr<Program> prog;
    Arr outArr;
    Ex hParam, wParam;
};

} // namespace

std::unique_ptr<App>
makeMandelbrot(int64_t height, int64_t width, int maxIter, bool colMajor)
{
    return std::make_unique<MandelbrotApp>(height, width, maxIter,
                                           colMajor);
}

} // namespace npp
