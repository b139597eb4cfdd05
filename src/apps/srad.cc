/**
 * @file
 * SRAD (speckle-reducing anisotropic diffusion): each iteration runs two
 * two-level stencil kernels — one computing the per-pixel diffusion
 * coefficient from the image gradients, one applying the divergence
 * update. The input of each iteration is the previous iteration's
 * output.
 */

#include "apps/rodinia.h"
#include "support/rng.h"

namespace npp {

namespace {

class SradApp : public App
{
  public:
    SradApp(int64_t n, int iterations, bool colMajor)
        : App(colMajor ? "Srad(C)" : "Srad(R)"), n(n),
          iterations(iterations), colMajor(colMajor)
    {
        Rng rng(59);
        image0.resize(n * n);
        for (auto &v : image0)
            v = rng.uniform(1, 2);
        buildCoeff();
        buildUpdate();
        hints_.paramValues = {{nCoeff.ref()->varId, static_cast<double>(n)}};
        inputBytes_ = static_cast<double>(n) * n * 8;
        manual_ = hints_;
        manual_->strategy = Strategy::Fixed;
        manual_->fixedMapping.levels = {{1, 8, SpanType::one()},
                                        {0, 32, SpanType::one()}};
        manual_->rawPointers = true;
    }

  private:
    /** Clamped row-major neighbor address. */
    static Ex
    at(Arr a, Ex i, Ex j, Ex np)
    {
        return a(max(min(i, np - 1), 0) * np + max(min(j, np - 1), 0));
    }

    void
    buildCoeff()
    {
        ProgramBuilder b(colMajor ? "srad_coeff_c" : "srad_coeff_r");
        Arr img = b.inF64("img");
        nCoeff = b.paramI64("n");
        Arr cOut = b.outF64("c");
        Ex np = nCoeff;
        coeffImg = img;
        coeffOut = cOut;

        auto body = [&](Body &fn, Ex i, Ex j) {
            Ex jc = fn.let("jc", at(img, i, j, np));
            Ex dN = fn.let("dN", at(img, i - 1, j, np) - jc);
            Ex dS = fn.let("dS", at(img, i + 1, j, np) - jc);
            Ex dW = fn.let("dW", at(img, i, j - 1, np) - jc);
            Ex dE = fn.let("dE", at(img, i, j + 1, np) - jc);
            Ex g2 = fn.let("g2", (dN * dN + dS * dS + dW * dW + dE * dE) /
                                     (jc * jc));
            Ex l = fn.let("l", (dN + dS + dW + dE) / jc);
            Ex num = fn.let("num", 0.5 * g2 - 0.0625 * (l * l));
            Ex den = fn.let("den", 1.0 + 0.25 * l);
            Ex q = fn.let("q", num / (den * den));
            // q0^2 fixed at 0.05 for the synthetic instance.
            Ex cval = fn.let(
                "cval", 1.0 / (1.0 + (q - 0.05) / (0.05 * 1.05)));
            fn.store(cOut, i * np + j, max(min(cval, 1.0), 0.0));
        };
        emit2d(b, np, body);
        coeff = std::make_shared<Program>(b.build());
    }

    void
    buildUpdate()
    {
        ProgramBuilder b(colMajor ? "srad_update_c" : "srad_update_r");
        Arr img = b.inF64("img");
        Arr cIn = b.inF64("c");
        nUpdate = b.paramI64("n");
        Arr outA = b.outF64("out");
        Ex np = nUpdate;
        updImg = img;
        updCoeff = cIn;
        updOut = outA;

        auto body = [&](Body &fn, Ex i, Ex j) {
            Ex jc = fn.let("jc", at(img, i, j, np));
            Ex cc = fn.let("cc", at(cIn, i, j, np));
            Ex cS = fn.let("cS", at(cIn, i + 1, j, np));
            Ex cE = fn.let("cE", at(cIn, i, j + 1, np));
            Ex div = fn.let(
                "div", cS * (at(img, i + 1, j, np) - jc) +
                           cc * (at(img, i - 1, j, np) - jc) +
                           cE * (at(img, i, j + 1, np) - jc) +
                           cc * (at(img, i, j - 1, np) - jc));
            fn.store(outA, i * np + j, jc + 0.125 * div);
        };
        emit2d(b, np, body);
        update = std::make_shared<Program>(b.build());
    }

    void
    emit2d(ProgramBuilder &b, Ex np,
           const std::function<void(Body &, Ex, Ex)> &body)
    {
        if (colMajor) {
            b.foreach(np, [&](Body &outer, Ex j) {
                outer.foreach(np, [&](Body &inner, Ex i) {
                    body(inner, i, Ex(j));
                });
            });
        } else {
            b.foreach(np, [&](Body &outer, Ex i) {
                outer.foreach(np, [&](Body &inner, Ex j) {
                    body(inner, Ex(i), j);
                });
            });
        }
    }

    std::vector<double>
    hostLoop(Runner &runner) override
    {
        HostArray img(image0);
        HostArray c(std::vector<double>(n * n, 0.0));
        HostArray next(std::vector<double>(n * n, 0.0));
        for (int it = 0; it < iterations; it++) {
            {
                Bindings args(*coeff);
                args.scalar(nCoeff, static_cast<double>(n));
                args.array(coeffImg, img);
                args.array(coeffOut, c);
                runner.launch(*coeff, args);
            }
            {
                Bindings args(*update);
                args.scalar(nUpdate, static_cast<double>(n));
                args.array(updImg, img);
                args.array(updCoeff, c);
                args.array(updOut, next);
                runner.launch(*update, args);
            }
            std::swap(img, next);
        }
        return std::move(img.mut());
    }

    int64_t n;
    int iterations;
    bool colMajor;
    std::vector<double> image0;
    std::shared_ptr<Program> coeff, update;
    Arr coeffImg, coeffOut, updImg, updCoeff, updOut;
    Ex nCoeff, nUpdate;
};

} // namespace

std::unique_ptr<App>
makeSrad(int64_t n, int iterations, bool colMajor)
{
    return std::make_unique<SradApp>(n, iterations, colMajor);
}

} // namespace npp
