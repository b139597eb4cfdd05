/**
 * @file
 * QPSCD HogWild!: a lock-free stochastic coordinate-descent QP solver.
 * The outer pattern visits rows in a random (precomputed) permutation;
 * the inner patterns traverse one dense row sequentially — first a dot
 * product, then the coordinate update. Parallelizing only the outer
 * pattern makes every warp lane touch a different random row
 * (uncoalesced, worse than the CPU); the analysis maps the inner
 * pattern to dimension x instead (Section VI-E).
 */

#include "apps/realworld.h"
#include "support/rng.h"

namespace npp {

namespace {

class QpscdApp : public App
{
  public:
    QpscdApp(int64_t samples, int64_t dim, int epochs)
        : App("QPSCD HogWild"), s(samples), d(dim), epochs(epochs)
    {
        Rng rng(19);
        std::vector<double> rows(s * d), labels(s), order(s);
        for (auto &v : rows)
            v = rng.uniform(-1, 1);
        for (auto &v : labels)
            v = rng.uniform(-1, 1);
        for (int64_t i = 0; i < s; i++)
            order[i] = static_cast<double>((i * 2654435761u) % s);
        a = HostArray(std::move(rows));
        y = HostArray(std::move(labels));
        perm = HostArray(std::move(order));
        build();
        hints_.paramValues = {{sParam.ref()->varId, static_cast<double>(s)},
                              {dParam.ref()->varId, static_cast<double>(d)}};
        inputBytes_ = static_cast<double>(s) * d * 8;
        errorFloor_ = 1e-6;
    }

  private:
    void
    build()
    {
        ProgramBuilder b("qpscd_epoch");
        aArr = b.inF64("A");
        yArr = b.inF64("y");
        permArr = b.inI64("perm");
        sParam = b.paramI64("S");
        dParam = b.paramI64("D");
        xArr = b.inOutF64("x");
        Arr A = aArr, yv = yArr, p = permArr, x = xArr;
        Ex dp = dParam;

        b.foreach(sParam, [&](Body &fn, Ex i) {
            Ex row = fn.let("row", p(i));
            Ex dot = fn.reduce(dp, Op::Add, [&](Body &, Ex k) {
                return A(row * dp + k) * x(k);
            });
            Ex grad = fn.let("grad", (dot - yv(row)) * 0.001);
            fn.foreach(dp, [&](Body &upd, Ex k) {
                upd.store(x, k, x(k) - grad * A(row * dp + k));
            });
        });
        prog = std::make_shared<Program>(b.build());
    }

    std::vector<double>
    hostLoop(Runner &runner) override
    {
        HostArray x(std::vector<double>(d, 0.0));
        for (int e = 0; e < epochs; e++) {
            Bindings args(*prog);
            args.scalar(sParam, static_cast<double>(s));
            args.scalar(dParam, static_cast<double>(d));
            args.array(aArr, a);
            args.array(yArr, y);
            args.array(permArr, perm);
            args.array(xArr, x);
            runner.launch(*prog, args);
        }
        return std::move(x.mut());
    }

    int64_t s, d;
    int epochs;
    HostArray a, y, perm;
    std::shared_ptr<Program> prog;
    Arr aArr, yArr, permArr, xArr;
    Ex sParam, dParam;
};

} // namespace

std::unique_ptr<App>
makeQpscd(int64_t samples, int64_t dim, int epochs)
{
    return std::make_unique<QpscdApp>(samples, dim, epochs);
}

} // namespace npp
