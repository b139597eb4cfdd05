/**
 * @file
 * Pathfinder: dynamic programming over a grid — each row's cost is the
 * cell weight plus the minimum of the three parents in the previous row.
 * Expressed as a two-level nest (column tiles x tile elements) with one
 * kernel per row and host-side ping-pong, like the pattern-language
 * version in the paper.
 *
 * The hand-optimized Rodinia kernel fuses several rows per kernel with a
 * shared-memory tile (trading halo re-computation for fewer main-memory
 * round trips); the paper's compiler deliberately does not infer that
 * transformation, which is why Manual wins Fig 12 here. The manual
 * comparator is modeled natively with the fused kernel's analytic
 * traffic and a C++ functional implementation.
 */

#include "apps/rodinia.h"
#include "support/rng.h"
#include "support/stats.h"

namespace npp {

namespace {

constexpr int64_t kTile = 64;

class PathfinderApp : public App
{
  public:
    PathfinderApp(int64_t rows, int64_t cols)
        : App("Pathfinder"), rows(rows), cols(cols)
    {
        Rng rng(17);
        std::vector<double> weights(rows * cols);
        for (auto &w : weights)
            w = static_cast<double>(rng.below(10));
        wall = HostArray(std::move(weights));
        build();
        hints_.paramValues = {{cParam.ref()->varId,
                               static_cast<double>(cols)}};
        inputBytes_ = static_cast<double>(rows) * cols * 8;
        hasManual_ = true;
    }

    double
    runManualMs(const Gpu &gpu) override
    {
        // Fused expert kernel: F rows per launch, block-wide smem tile
        // with F-deep halos. Functional result computed natively; time
        // from the kernel's analytic work/traffic.
        const int64_t fuse = 8;
        const int64_t blockW = 256;
        const int64_t launches = ceilDiv(rows - 1, fuse);
        double total = 0.0;
        for (int64_t l = 0; l < launches; l++) {
            const int64_t stepRows =
                std::min<int64_t>(fuse, rows - 1 - l * fuse);
            KernelStats stats;
            stats.totalBlocks = ceilDiv(cols, blockW);
            stats.threadsPerBlock = blockW;
            stats.sharedMemPerBlock = (blockW + 2 * fuse) * 8 * 2;
            // Coalesced: wall rows for the fused steps + src in + dst out.
            const double bytes =
                static_cast<double>(cols) * 8.0 * (stepRows + 2);
            stats.transactions = bytes / gpu.config().transactionBytes;
            stats.usefulBytes = bytes;
            // Each element recomputed once per fused row (plus ~12%
            // halo duplication), raw pointers: ~6 ops per cell.
            stats.warpInstructions = static_cast<double>(cols) * stepRows *
                                     6.0 * 1.12 / 32.0;
            stats.smemAccesses =
                static_cast<double>(cols) * stepRows * 3.0 / 32.0;
            stats.syncs = static_cast<double>(stats.totalBlocks) * stepRows;
            total += computeTiming(stats, gpu.config()).totalMs;
        }
        return total;
    }

  private:
    void
    build()
    {
        ProgramBuilder b("pathfinder_row");
        wallArr = b.inF64("wall");
        srcArr = b.inF64("src");
        cParam = b.paramI64("cols");
        rowParam = b.paramI64("row");
        dstArr = b.outF64("dst");
        Arr w = wallArr, src = srcArr, dst = dstArr;
        Ex c = cParam, r = rowParam;

        // Two-level structure: tiles of columns, elements within a tile.
        b.foreach(c / kTile, [&](Body &outer, Ex tile) {
            outer.foreach(Ex(kTile), [&](Body &fn, Ex e) {
                Ex j = fn.let("j", Ex(tile) * kTile + e);
                Ex mid = fn.let("mid", src(j));
                Ex left = fn.let("left", sel(j > 0, src(max(j - 1, 0)), mid));
                Ex right = fn.let(
                    "right", sel(j < c - 1, src(min(j + 1, c - 1)), mid));
                fn.store(dst, j,
                         w(r * c + j) + min(mid, min(left, right)));
            });
        });
        prog = std::make_shared<Program>(b.build());
    }

    std::vector<double>
    hostLoop(Runner &runner) override
    {
        HostArray src(std::vector<double>(wall.values().begin(),
                                          wall.values().begin() + cols));
        HostArray dst(std::vector<double>(cols, 0.0));
        for (int64_t r = 1; r < rows; r++) {
            Bindings args(*prog);
            args.scalar(cParam, static_cast<double>(cols));
            args.scalar(rowParam, static_cast<double>(r));
            args.array(wallArr, wall);
            args.array(srcArr, src);
            args.array(dstArr, dst);
            runner.launch(*prog, args);
            std::swap(src, dst);
        }
        return std::move(src.mut());
    }

    int64_t rows, cols;
    HostArray wall;
    std::shared_ptr<Program> prog;
    Arr wallArr, srcArr, dstArr;
    Ex cParam, rowParam;
};

} // namespace

std::unique_ptr<App>
makePathfinder(int64_t rows, int64_t cols)
{
    return std::make_unique<PathfinderApp>(rows, cols);
}

} // namespace npp
