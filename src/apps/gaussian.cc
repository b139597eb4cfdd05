/**
 * @file
 * Gaussian Elimination: for each elimination step t, Fan1 computes the
 * column of multipliers and Fan2 updates the trailing submatrix (two
 * kernels per step, n-1 steps). The paper highlights this application
 * because the hand-written Rodinia version left one nest uncoalesced,
 * while the mapping analysis picks the right dimensions automatically.
 */

#include "apps/rodinia.h"
#include "support/rng.h"

namespace npp {

namespace {

class GaussianApp : public App
{
  public:
    GaussianApp(int64_t n, bool colMajor)
        : App(colMajor ? "Gaussian(C)" : "Gaussian(R)"), n(n),
          colMajor(colMajor)
    {
        Rng rng(31);
        a0.resize(n * n);
        b0.resize(n);
        for (int64_t i = 0; i < n; i++) {
            for (int64_t j = 0; j < n; j++) {
                a0[i * n + j] =
                    (i == j ? n * 2.0 : 0.0) + rng.uniform(0, 1);
            }
            b0[i] = rng.uniform(0, 1);
        }
        buildFan1();
        buildFan2(colMajor);
        inputBytes_ = static_cast<double>(n) * (n + 1) * 8;
        errorFloor_ = 1e-6;
        hasManual_ = true;
    }

    double
    runManualMs(const Gpu &gpu) override
    {
        // The Rodinia Fan2 kernel was "not written to coalesce memory
        // accesses" (Section VI-C): model it with the transposed-nest
        // program under the fixed expert 2D block, raw pointers.
        if (!fan2Manual)
            buildFan2Manual();
        CompileOptions copts;
        copts.strategy = Strategy::Fixed;
        copts.fixedMapping.levels = {{1, 8, SpanType::one()},
                                     {0, 32, SpanType::one()}};
        copts.rawPointers = true;
        Runner runner(gpu, copts);
        eliminate(runner, fan2Manual);
        return runner.gpuMs;
    }

  private:
    void
    buildFan1()
    {
        ProgramBuilder b("fan1");
        f1A = b.inF64("a");
        f1N = b.paramI64("n");
        f1T = b.paramI64("t");
        f1M = b.outF64("mcol");
        Arr a = f1A;
        Ex np = f1N, t = f1T;
        Arr mcol = f1M;
        b.foreach(np - t - 1, [&](Body &fn, Ex i) {
            fn.store(mcol, t + 1 + i,
                     a((t + 1 + i) * np + t) / a(t * np + t));
        });
        fan1 = std::make_shared<Program>(b.build());
    }

    /** Fan2: the trailing update, with selectable traversal order. */
    std::shared_ptr<Program>
    makeFan2(bool transposed, const char *name)
    {
        ProgramBuilder b(name);
        Arr a = b.inOutF64("a");
        Arr bv = b.inOutF64("b");
        Arr mcol = b.inF64("mcol");
        Ex np = b.paramI64("n");
        Ex t = b.paramI64("t");
        f2Handles.push_back({a, bv, mcol, np, t});

        auto cell = [&](Body &fn, Ex i, Ex j) {
            Ex row = fn.let("row", t + 1 + i);
            Ex col = fn.let("col", t + j);
            fn.store(a, row * np + col,
                     a(row * np + col) - mcol(row) * a(t * np + col));
            fn.branch(Ex(j) == 0, [&](Body &then) {
                then.store(bv, row, bv(row) - mcol(row) * bv(t));
            });
        };

        if (!transposed) {
            b.foreach(np - t - 1, [&](Body &outer, Ex i) {
                outer.foreach(np - t, [&](Body &inner, Ex j) {
                    cell(inner, Ex(i), j);
                });
            });
        } else {
            b.foreach(np - t, [&](Body &outer, Ex j) {
                outer.foreach(np - t - 1, [&](Body &inner, Ex i) {
                    cell(inner, i, Ex(j));
                });
            });
        }
        return std::make_shared<Program>(b.build());
    }

    void
    buildFan2(bool transposed)
    {
        fan2 = makeFan2(transposed, transposed ? "fan2_c" : "fan2_r");
        fan2Idx = 0;
    }

    void
    buildFan2Manual()
    {
        fan2Manual = makeFan2(!colMajor ? true : false, "fan2_manual");
        fan2ManualIdx = static_cast<int>(f2Handles.size()) - 1;
    }

    struct Fan2Handles
    {
        Arr a, bv, mcol;
        Ex np, t;
    };

    std::vector<double>
    hostLoop(Runner &runner) override
    {
        return eliminate(runner, fan2);
    }

    std::vector<double>
    eliminate(Runner &runner, const std::shared_ptr<Program> &update)
    {
        const Fan2Handles &h =
            f2Handles[update == fan2Manual ? fan2ManualIdx : fan2Idx];
        HostArray a(a0);
        HostArray bvec(b0);
        HostArray mcol(std::vector<double>(n, 0.0));
        for (int64_t t = 0; t + 1 < n; t++) {
            {
                Bindings args(*fan1);
                args.scalar(f1N, static_cast<double>(n));
                args.scalar(f1T, static_cast<double>(t));
                args.array(f1A, a);
                args.array(f1M, mcol);
                runner.launch(*fan1, args);
            }
            {
                Bindings args(*update);
                args.scalar(h.np, static_cast<double>(n));
                args.scalar(h.t, static_cast<double>(t));
                args.array(h.a, a);
                args.array(h.bv, bvec);
                args.array(h.mcol, mcol);
                runner.launch(*update, args);
            }
        }
        // Solution vector is implied by back-substitution on the host;
        // the kernels' output of record is the eliminated system.
        std::vector<double> out = std::move(a.mut());
        out.insert(out.end(), bvec.values().begin(), bvec.values().end());
        return out;
    }

    int64_t n;
    bool colMajor;
    std::vector<double> a0, b0;
    std::shared_ptr<Program> fan1, fan2, fan2Manual;
    std::vector<Fan2Handles> f2Handles;
    int fan2Idx = 0, fan2ManualIdx = 0;
    Arr f1A, f1M;
    Ex f1N, f1T;
};

} // namespace

std::unique_ptr<App>
makeGaussian(int64_t n, bool colMajor)
{
    return std::make_unique<GaussianApp>(n, colMajor);
}

} // namespace npp
