#include "server/programs.h"

#include <algorithm>
#include <utility>

#include "apps/dynsize.h"
#include "apps/sums.h"
#include "ir/builder.h"
#include "support/rng.h"
#include "support/strings.h"

namespace npp {

namespace {

/** Admission bound: the largest element count one request may bind.
 *  64M doubles = 512 MB of input — beyond it a single request could
 *  wedge the service, so it is rejected up front with an error. */
constexpr int64_t kMaxElements = int64_t(1) << 26;

/** Pull one size hint; rejects non-positive and > kMaxElements. */
bool
takeSize(std::map<std::string, int64_t> &sizes, const std::string &key,
         int64_t *out, std::string *error)
{
    auto it = sizes.find(key);
    if (it == sizes.end())
        return true;
    if (it->second <= 0 || it->second > kMaxElements) {
        *error = fmt("size {}={} outside (0, {}]", key, it->second,
                     kMaxElements);
        return false;
    }
    *out = it->second;
    sizes.erase(it);
    return true;
}

bool
checkNoLeftover(const std::map<std::string, int64_t> &sizes,
                const std::string &name, std::string *error)
{
    if (sizes.empty())
        return true;
    *error = fmt("unknown size key \"{}\" for program {}",
                 sizes.begin()->first, name);
    return false;
}

bool
checkTotal(int64_t elems, std::string *error)
{
    if (elems <= kMaxElements)
        return true;
    *error = fmt("total element count {} exceeds the admission bound {}",
                 elems, kMaxElements);
    return false;
}

std::unique_ptr<DemoProgram>
sumDemo(bool byCols, bool weighted, std::map<std::string, int64_t> sizes,
        std::string *error)
{
    int64_t R = 2048, C = 2048;
    if (!takeSize(sizes, "rows", &R, error) ||
        !takeSize(sizes, "cols", &C, error) ||
        !checkNoLeftover(sizes, byCols ? "sumcols" : "sumrows", error) ||
        !checkTotal(R * C, error))
        return nullptr;

    SumsProgram sp = buildSum(byCols, weighted);
    auto d = std::make_unique<DemoProgram>();
    d->prog = sp.prog;
    d->params = {{sp.r.ref()->varId, static_cast<double>(R)},
                 {sp.c.ref()->varId, static_cast<double>(C)}};
    // The binder owns its storage: shared_ptr'd arrays captured by
    // value keep each DemoProgram instance race-free under concurrent
    // service requests (the old CLI demos used function-local statics).
    // Inputs are generated on the first bind and bound frozen, so every
    // later fingerprint of this instance reuses their digests.
    auto m = std::make_shared<HostArray>();
    auto v = std::make_shared<HostArray>();
    auto out = std::make_shared<HostArray>();
    d->bind = [sp, R, C, m, v, out](Bindings &args) {
        if (m->size() == 0) {
            Rng rng(1);
            std::vector<double> &values = m->mut();
            values.assign(R * C, 0.0);
            for (auto &x : values)
                x = rng.uniform(0, 1);
            if (sp.weighted)
                v->mut().assign(std::max(R, C), 1.0);
        }
        args.scalar(sp.r, static_cast<double>(R));
        args.scalar(sp.c, static_cast<double>(C));
        args.array(sp.m, std::as_const(*m));
        if (sp.weighted)
            args.array(sp.v, std::as_const(*v));
        out->mut().assign(sp.outputSize(R, C), 0.0);
        args.array(sp.out, *out);
    };
    return d;
}

std::unique_ptr<DemoProgram>
pagerankDemo(std::map<std::string, int64_t> sizes, std::string *error)
{
    int64_t N = 8192;
    if (!takeSize(sizes, "nodes", &N, error) ||
        !checkNoLeftover(sizes, "pagerank", error) ||
        !checkTotal(N * 17, error)) // <= 16 neighbors per node + start
        return nullptr;

    ProgramBuilder b("pagerank_step");
    Arr start = b.inI64("rowStart");
    Arr nbrs = b.inI64("nbrs");
    Arr deg = b.inF64("degree");
    Arr prev = b.inF64("prev");
    Ex n = b.paramI64("numNodes");
    Ex damp = b.paramF64("damp");
    Arr out = b.outF64("rank");
    Arr st = start, nb = nbrs, dg = deg, pv = prev;
    Ex np = n, dp = damp;
    b.map(np, out, [&](Body &fn, Ex v) {
        Ex begin = fn.let("begin", st(v));
        Ex cnt = fn.let("cnt", st(v + 1) - begin);
        Arr weights = fn.map(cnt, [&](Body &, Ex e) {
            return pv(nb(begin + e)) / dg(nb(begin + e));
        });
        Ex sum = fn.reduce(cnt, Op::Add,
                           [&](Body &, Ex e) { return weights(e); });
        return (1.0 - dp) / np + dp * sum;
    });

    auto d = std::make_unique<DemoProgram>();
    d->prog = std::make_shared<Program>(b.build());
    d->fuse = true;
    d->params = {{n.ref()->varId, static_cast<double>(N)}};
    // start, nbrs, deg and prev (inputs, bound frozen), then rank.
    auto data = std::make_shared<std::vector<HostArray>>();
    d->bind = [=](Bindings &args) {
        if (data->empty()) {
            data->resize(5);
            auto &startD = (*data)[0].mut();
            auto &nbrD = (*data)[1].mut();
            auto &degD = (*data)[2].mut();
            auto &prevD = (*data)[3].mut();
            Rng rng(3);
            startD.push_back(0);
            for (int64_t v = 0; v < N; v++) {
                const int64_t degN = 1 + rng.below(16);
                for (int64_t e = 0; e < degN; e++)
                    nbrD.push_back(static_cast<double>(rng.below(N)));
                startD.push_back(static_cast<double>(nbrD.size()));
            }
            degD.assign(N, 1.0);
            for (double x : nbrD)
                degD[static_cast<int64_t>(x)] += 1.0;
            prevD.assign(N, 1.0 / N);
        }
        (*data)[4].mut().assign(N, 0.0);
        const std::vector<HostArray> &in = *data;
        args.scalar(n, static_cast<double>(N));
        args.scalar(damp, 0.85);
        args.array(start, in[0]);
        args.array(nbrs, in[1]);
        args.array(deg, in[2]);
        args.array(prev, in[3]);
        args.array(out, (*data)[4]);
    };
    return d;
}

std::unique_ptr<DemoProgram>
mandelDemo(std::map<std::string, int64_t> sizes, std::string *error)
{
    int64_t H = 256, W = 1024;
    if (!takeSize(sizes, "height", &H, error) ||
        !takeSize(sizes, "width", &W, error) ||
        !checkNoLeftover(sizes, "mandelbrot", error) ||
        !checkTotal(H * W, error))
        return nullptr;

    ProgramBuilder b("mandelbrot");
    Ex h = b.paramI64("H"), w = b.paramI64("W");
    Arr img = b.outF64("img");
    Ex hp = h, wp = w;
    Arr im = img;
    b.foreach(hp, [&](Body &outer, Ex y) {
        outer.foreach(wp, [&](Body &fn, Ex x) {
            Ex cr = fn.let("cr", (Ex(x) * 3.5) / wp - 2.5);
            Ex ci = fn.let("ci", (Ex(y) * 2.0) / hp - 1.0);
            Mut zr = fn.mut("zr", Ex(0.0));
            Mut zi = fn.mut("zi", Ex(0.0));
            Mut steps = fn.mut("steps", Ex(0.0));
            fn.seqLoop(
                Ex(24),
                [&](Body &body, Ex) {
                    Ex nzr = body.let(
                        "nzr", zr.ex() * zr.ex() - zi.ex() * zi.ex() + cr);
                    Ex nzi = body.let("nzi", zr.ex() * zi.ex() * 2.0 + ci);
                    body.assign(zr, nzr);
                    body.assign(zi, nzi);
                    body.assign(steps, steps.ex() + 1.0);
                },
                zr.ex() * zr.ex() + zi.ex() * zi.ex() > 4.0);
            fn.store(im, y * wp + x, steps.ex());
        });
    });

    auto d = std::make_unique<DemoProgram>();
    d->prog = std::make_shared<Program>(b.build());
    d->params = {{h.ref()->varId, static_cast<double>(H)},
                 {w.ref()->varId, static_cast<double>(W)}};
    auto imgD = std::make_shared<HostArray>();
    d->bind = [=](Bindings &args) {
        imgD->mut().assign(H * W, 0.0);
        args.scalar(h, static_cast<double>(H));
        args.scalar(w, static_cast<double>(W));
        args.array(img, *imgD);
    };
    return d;
}

std::unique_ptr<DemoProgram>
spmvDemo(std::map<std::string, int64_t> sizes, std::string *error)
{
    // A runtime-sized program: the inner reduce extent is a CSR row
    // length read from the bound rowStart array, so the consolidation
    // sweep competes for its mapping. The skewed row distribution is
    // the shape consolidation exists for.
    int64_t rows = 4096, avgDeg = 8;
    if (!takeSize(sizes, "rows", &rows, error) ||
        !takeSize(sizes, "avgdeg", &avgDeg, error) ||
        !checkNoLeftover(sizes, "spmv", error) ||
        !checkTotal(rows * (4 * avgDeg + 2), error))
        return nullptr;

    SpmvProgram sp = buildSpmv();
    auto d = std::make_unique<DemoProgram>();
    d->prog = sp.prog;
    d->params = {{sp.nParam.ref()->varId, static_cast<double>(rows)}};
    // rowStart, cols, vals and x (inputs, bound frozen), then y.
    auto data = std::make_shared<std::vector<HostArray>>();
    d->bind = [sp, rows, avgDeg, data](Bindings &args) {
        if (data->empty()) {
            CsrMatrix m = makeCsr(rows, avgDeg, RowDist::Skewed,
                                  /*seed=*/11);
            std::vector<double> x(rows, 0.0);
            Rng rng(7);
            for (auto &v : x)
                v = rng.uniform(-1, 1);
            data->push_back(HostArray(std::move(m.rowStart)));
            data->push_back(HostArray(std::move(m.cols)));
            data->push_back(HostArray(std::move(m.vals)));
            data->push_back(HostArray(std::move(x)));
            data->push_back(HostArray());
        }
        (*data)[4].mut().assign(rows, 0.0);
        const std::vector<HostArray> &in = *data;
        args.scalar(sp.nParam, static_cast<double>(rows));
        args.array(sp.startArr, in[0]);
        args.array(sp.colArr, in[1]);
        args.array(sp.valArr, in[2]);
        args.array(sp.xArr, in[3]);
        args.array(sp.outArr, (*data)[4]);
    };
    return d;
}

} // namespace

const std::vector<std::string> &
demoProgramNames()
{
    static const std::vector<std::string> names = {
        "sumrows",    "sumcols",  "weightedrows",
        "weightedcols", "pagerank", "mandelbrot", "spmv"};
    return names;
}

std::unique_ptr<DemoProgram>
buildDemoProgram(const std::string &name,
                 const std::map<std::string, int64_t> &sizes,
                 std::string *error)
{
    std::string scratch;
    std::string &err = error ? *error : scratch;
    if (name == "sumrows")
        return sumDemo(false, false, sizes, &err);
    if (name == "sumcols")
        return sumDemo(true, false, sizes, &err);
    if (name == "weightedrows")
        return sumDemo(false, true, sizes, &err);
    if (name == "weightedcols")
        return sumDemo(true, true, sizes, &err);
    if (name == "pagerank")
        return pagerankDemo(sizes, &err);
    if (name == "mandelbrot")
        return mandelDemo(sizes, &err);
    if (name == "spmv")
        return spmvDemo(sizes, &err);
    err = fmt("unknown program \"{}\" (have: {})", name,
              join(demoProgramNames(), ", "));
    return nullptr;
}

} // namespace npp
