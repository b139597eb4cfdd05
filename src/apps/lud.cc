/**
 * @file
 * LUD: in-place LU decomposition. Each step k scales the pivot column
 * (one-level kernel) and applies the rank-1 trailing update (two-level
 * kernel); the naive pattern version re-reads the trailing submatrix
 * every step. The hand-optimized Rodinia kernel is block-tiled with
 * shared memory, reusing each tile across a whole block step — modeled
 * natively (the paper's compiler deliberately does not infer the
 * blocked-with-work-duplication form, which is why Manual wins Fig 12).
 */

#include "apps/rodinia.h"
#include "support/rng.h"
#include "support/stats.h"

namespace npp {

namespace {

class LudApp : public App
{
  public:
    explicit LudApp(int64_t n) : App("LUD"), n(n)
    {
        Rng rng(83);
        a0.resize(n * n);
        for (int64_t i = 0; i < n; i++) {
            for (int64_t j = 0; j < n; j++) {
                a0[i * n + j] =
                    (i == j ? 4.0 * n : 0.0) + rng.uniform(0, 1);
            }
        }
        buildScale();
        buildUpdate();
        inputBytes_ = static_cast<double>(n) * n * 8;
        errorFloor_ = 1e-6;
        hasManual_ = true;
    }

    double
    runManualMs(const Gpu &gpu) override
    {
        // Blocked expert LUD with tile size B: per block step, the
        // diagonal/perimeter/internal kernels stream each trailing tile
        // through shared memory once instead of once per k.
        const int64_t tile = 16;
        const int64_t steps = ceilDiv(n, tile);
        double total = 0.0;
        for (int64_t s = 0; s < steps; s++) {
            const int64_t rem = n - s * tile;
            KernelStats stats;
            stats.totalBlocks =
                std::max<int64_t>(1, (rem / tile) * (rem / tile));
            stats.threadsPerBlock = tile * tile;
            stats.sharedMemPerBlock = 3 * tile * tile * 8;
            // Each trailing element read+written once per block step,
            // plus the perimeter tiles.
            const double bytes = static_cast<double>(rem) * rem * 8.0 * 2 +
                                 2.0 * rem * tile * 8.0;
            stats.transactions = bytes / gpu.config().transactionBytes;
            stats.usefulBytes = bytes;
            // tile multiply-accumulate per element per block step.
            stats.warpInstructions =
                static_cast<double>(rem) * rem * tile * 2.0 / 32.0;
            stats.smemAccesses =
                static_cast<double>(rem) * rem * tile * 2.0 / 32.0;
            stats.syncs = static_cast<double>(stats.totalBlocks) * tile;
            // Three launches per block step (diagonal, perimeter,
            // internal).
            total += computeTiming(stats, gpu.config()).totalMs +
                     2.0 * gpu.config().kernelLaunchOverheadUs * 1e-3;
        }
        return total;
    }

  private:
    void
    buildScale()
    {
        ProgramBuilder b("lud_scale");
        Arr a = b.inOutF64("a");
        sN = b.paramI64("n");
        sK = b.paramI64("k");
        sA = a;
        Ex np = sN, k = sK;
        b.foreach(np - k - 1, [&](Body &fn, Ex i) {
            Ex row = fn.let("row", k + 1 + i);
            fn.store(a, row * np + k, a(row * np + k) / a(k * np + k));
        });
        scale = std::make_shared<Program>(b.build());
    }

    void
    buildUpdate()
    {
        ProgramBuilder b("lud_update");
        Arr a = b.inOutF64("a");
        uN = b.paramI64("n");
        uK = b.paramI64("k");
        uA = a;
        Ex np = uN, k = uK;
        b.foreach(np - k - 1, [&](Body &outer, Ex i) {
            outer.foreach(np - k - 1, [&](Body &fn, Ex j) {
                Ex row = fn.let("row", k + 1 + i);
                Ex col = fn.let("col", k + 1 + Ex(j));
                fn.store(a, row * np + col,
                         a(row * np + col) -
                             a(row * np + k) * a(k * np + col));
            });
        });
        update = std::make_shared<Program>(b.build());
    }

    std::vector<double>
    hostLoop(Runner &runner) override
    {
        HostArray a(a0);
        for (int64_t k = 0; k + 1 < n; k++) {
            {
                Bindings args(*scale);
                args.scalar(sN, static_cast<double>(n));
                args.scalar(sK, static_cast<double>(k));
                args.array(sA, a);
                runner.launch(*scale, args);
            }
            {
                Bindings args(*update);
                args.scalar(uN, static_cast<double>(n));
                args.scalar(uK, static_cast<double>(k));
                args.array(uA, a);
                runner.launch(*update, args);
            }
        }
        return std::move(a.mut());
    }

    int64_t n;
    std::vector<double> a0;
    std::shared_ptr<Program> scale, update;
    Arr sA, uA;
    Ex sN, sK, uN, uK;
};

} // namespace

std::unique_ptr<App>
makeLud(int64_t n)
{
    return std::make_unique<LudApp>(n);
}

} // namespace npp
