/**
 * @file
 * Figure 14: real-world applications — execution time of the 1D GPU
 * mapping and MultiDim, normalized to the multi-core CPU baseline
 * (CPU = 1.0, lower is better). Naive Bayes additionally reports the
 * input-transfer time, which its one-shot nature cannot amortize. The
 * sweep runs on the task pool (identical rows to a serial sweep; see
 * bench/pipeline.h).
 */

#include "pipeline.h"

namespace npp {
namespace {

void
runFigure()
{
    Gpu gpu;
    banner("Figure 14: real-world applications vs multi-core CPU",
           "Bars: execution time normalized to the CPU baseline "
           "(= 1.0). '+xfer' adds the input transfer.");

    table({"CPU", "1D GPU", "MultiDim", "MultiDim+xfer"},
          fig14Sweep(gpu, /*parallel=*/true));

    std::printf(
        "\nPaper shapes to check:\n"
        "  - QPSCD: 1D is WORSE than the CPU (random rows cannot\n"
        "    coalesce); MultiDim is several times faster than the CPU;\n"
        "  - MSMBuilder: small per-level domains starve 1D; MultiDim\n"
        "    parallelizes the product of the domains;\n"
        "  - NaiveBayes: MultiDim wins big on kernels, and stays ahead\n"
        "    of the CPU even including the matrix transfer (known\n"
        "    deviation: with the transfer it lands above the CPU here;\n"
        "    see EXPERIMENTS.md).\n");
}

} // namespace
} // namespace npp

int
main(int argc, char **argv)
{
    if (int rc = npp::benchInit(argc, argv))
        return rc;
    npp::runFigure();
    return npp::benchFinish();
}
