/**
 * @file
 * Multi-device sharding payoff: for each program the fleet search
 * (sim/fleet.h) sweeps (deviceCount, splitPoint) over simulated K20c
 * fleets and reports the chosen placement next to the single-device
 * time. Rows cover map roots (dense sums), a root reduction (dot
 * product, which pays the device-count-sized combine), and a domain too
 * small to shard (hard-filtered back to one device).
 *
 * Columns: single-device ms, best fleet ms, chosen device count, chosen
 * split point (first-shard size; outer size when unsharded), speedup.
 *
 * Two gates make this binary a regression check, not just a figure:
 *   - every case's one-device fleet run must be bit-identical to the
 *     plain Gpu::run report (reportsBitIdentical), or the binary exits
 *     nonzero — sharding must be invisible at N=1;
 *   - at least one program must pick N>1 with a speedup over N=1, or
 *     the sweep has stopped paying and the binary exits nonzero.
 */

#include <functional>
#include <memory>

#include "apps/sums.h"
#include "common.h"
#include "ir/builder.h"
#include "pipeline.h"
#include "sim/fleet.h"
#include "sim/metrics.h"
#include "support/rng.h"

namespace npp {
namespace {

struct BenchCase
{
    std::string label;
    std::shared_ptr<Program> prog;
    std::function<void(Bindings &)> bind;
};

std::shared_ptr<std::vector<double>>
signedData(int64_t n, uint64_t seed)
{
    auto m = std::make_shared<std::vector<double>>(std::max<int64_t>(n, 1));
    Rng rng(seed);
    for (auto &x : *m)
        x = rng.uniform(-1, 1);
    return m;
}

/** Dense sum kernels (Fig 1 / Fig 15 shapes): map roots whose outer
 *  domain shards cleanly. */
BenchCase
sumCase(bool byCols, bool weighted, int64_t R, int64_t C,
        const char *suffix = "")
{
    SumsProgram sp = buildSum(byCols, weighted);
    BenchCase c;
    c.label = sp.prog->name() + " " + std::to_string(R) + "x" +
              std::to_string(C) + suffix;
    c.prog = sp.prog;
    auto mData = signedData(R * C, 0xfeedULL);
    auto vData = signedData(std::max(R, C), 0xbeefULL);
    auto outData =
        std::make_shared<std::vector<double>>(sp.outputSize(R, C), 0.0);
    c.bind = [=](Bindings &args) {
        args.scalar(sp.r, static_cast<double>(R));
        args.scalar(sp.c, static_cast<double>(C));
        args.array(sp.m, *mData);
        if (sp.weighted)
            args.array(sp.v, *vData);
        args.array(sp.out, *outData);
    };
    return c;
}

/** Root reduction: fleet devices each produce a partial and pay the
 *  device-count-sized combine on top of the peer transfers. */
BenchCase
dotCase(int64_t N)
{
    ProgramBuilder b("dotProduct");
    Arr x = b.inF64("x");
    Arr y = b.inF64("y");
    Ex n = b.paramI64("N");
    Arr out = b.outF64("out");
    b.reduce(n, Op::Add, out,
             [&](Body &, Ex i) { return x(i) * y(i); });
    BenchCase c;
    c.label = "dotProduct " + std::to_string(N);
    c.prog = std::make_shared<Program>(b.build());
    auto xData = signedData(N, 0x5eedULL);
    auto yData = signedData(N, 0xd00dULL);
    auto outData = std::make_shared<std::vector<double>>(1, 0.0);
    c.bind = [=](Bindings &args) {
        args.scalar(n, static_cast<double>(N));
        args.array(x, *xData);
        args.array(y, *yData);
        args.array(out, *outData);
    };
    return c;
}

Row
sweepCase(const Gpu &gpu, const BenchCase &c, int maxDevices)
{
    CompileOptions copts; // default multidim search, as nppc runs it
    CompileResult compiled = compileProgram(*c.prog, gpu.config(), copts);
    Bindings args(*c.prog);
    c.bind(args);

    ExecOptions eopts;
    eopts.metricsOnly = true;

    // Gate 1: the one-device fleet run must be indistinguishable from
    // the plain single-device simulation.
    const SimReport base = gpu.run(compiled.spec, args, eopts);
    const FleetReport one =
        runOnFleet(gpu, compiled.spec, args, fleetK20c(1), eopts);
    if (one.perDevice.size() != 1 ||
        !reportsBitIdentical(base, one.perDevice[0])) {
        std::fprintf(stderr,
                     "fig_multidev: %s: one-device fleet run is NOT "
                     "bit-identical to the single-device baseline\n",
                     c.label.c_str());
        std::exit(4);
    }

    const FleetChoice choice =
        searchFleet(gpu, compiled.spec, args, fleetK20c(maxDevices), eopts);
    std::printf("  %-28s -> devices=%d%s\n", c.label.c_str(),
                choice.deviceCount,
                choice.deviceCount > 1 ? "" : " (sharding filtered or"
                                              " does not pay)");
    return Row{c.label,
               {choice.singleMs, choice.fleetMs,
                static_cast<double>(choice.deviceCount),
                static_cast<double>(choice.winner()->splitPoint),
                choice.speedup}};
}

void
runFigure()
{
    Gpu gpu;
    const std::vector<std::string> series = {
        "Single (ms)", "Fleet (ms)", "Devices", "Split", "Speedup"};

    banner("Multi-device sharding payoff (simulated K20c fleet, 8 devices "
           "max)",
           "Outer-domain sharding across homogeneous devices; peer link "
           "10 GB/s, 8 us latency.");
    std::vector<Row> rows;
    rows.push_back(sweepCase(gpu, sumCase(false, false, 2048, 2048), 8));
    rows.push_back(sweepCase(gpu, sumCase(false, true, 2048, 1024), 8));
    rows.push_back(sweepCase(gpu, sumCase(false, false, 4096, 64), 8));
    rows.push_back(sweepCase(gpu, dotCase(int64_t(1) << 20), 8));
    // 4 rows of 64 elements: less than one root block per device at
    // N>=2, so every sharded candidate is hard-filtered.
    rows.push_back(
        sweepCase(gpu, sumCase(false, false, 4, 64, " (tiny)"), 8));
    std::printf("\n");
    table(series, rows, 28);

    std::printf(
        "\nShapes to check:\n"
        "  - compute-heavy dense sums shard with near-linear per-device\n"
        "    speedup minus the peer-transfer tax (Split = first-shard\n"
        "    size); the skinny 4096x64 shape stays on one device because\n"
        "    shipping its output outweighs the saved compute;\n"
        "  - the root reduction still pays off: one scalar partial per\n"
        "    device plus the device-count-sized combine;\n"
        "  - the tiny row stays on one device (hard filter: less than\n"
        "    one root block per device), speedup exactly 1.\n");

    // Gate 2: the figure's reason to exist.
    bool anySharded = false;
    for (const Row &r : rows)
        anySharded |= r.values[2] > 1.0 && r.values[4] > 1.0;
    if (!anySharded) {
        std::fprintf(stderr,
                     "fig_multidev: no program chose more than one device "
                     "with a speedup — the sweep no longer pays\n");
        std::exit(6);
    }
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
