/**
 * @file
 * PageRank (Fig 5): for each node, an inner map computes the incoming
 * neighbors' weight contributions and an inner reduce aggregates them —
 * the paper's canonical two-level nest with two sibling patterns at
 * level 1 and a dynamically sized inner domain.
 */

#include "apps/realworld.h"
#include "support/rng.h"

namespace npp {

namespace {

class PageRankApp : public App
{
  public:
    PageRankApp(int64_t nodes, int avgDegree, int iterations)
        : App("PageRank"), n(nodes), iterations(iterations)
    {
        Rng rng(47);
        std::vector<double> starts{0.0}, edges, degrees(n, 0.0);
        for (int64_t v = 0; v < n; v++) {
            const int64_t deg =
                1 + static_cast<int64_t>(rng.below(2 * avgDegree));
            for (int64_t e = 0; e < deg; e++)
                edges.push_back(static_cast<double>(rng.below(n)));
            starts.push_back(static_cast<double>(edges.size()));
        }
        for (double nb : edges)
            degrees[static_cast<int64_t>(nb)] += 1.0;
        for (auto &dg : degrees)
            dg = std::max(dg, 1.0);
        rowStart = HostArray(std::move(starts));
        nbrs = HostArray(std::move(edges));
        degree = HostArray(std::move(degrees));
        build();
        // The production pipeline fuses Fig 5's nbrsWeights map into the
        // reduce — without it every node pays a device malloc for its
        // dynamically sized weight array.
        hints_.fuseMapReduce = true;
        hints_.paramValues = {{nParam.ref()->varId, static_cast<double>(n)}};
        inputBytes_ =
            static_cast<double>(rowStart.size() + nbrs.size() + n) * 8;
        errorFloor_ = 1e-9;
    }

  private:
    void
    build()
    {
        // Fig 5, line for line: nbrsWeights = n.nbrs map {...};
        // sumWeights = nbrsWeights reduce {...}; then the damped blend.
        ProgramBuilder b("pagerank_step");
        startArr = b.inI64("rowStart");
        nbrArr = b.inI64("nbrs");
        degArr = b.inF64("degree");
        prevArr = b.inF64("prev");
        nParam = b.paramI64("numNodes");
        dampParam = b.paramF64("damp");
        outArr = b.outF64("rank");
        Arr start = startArr, nb = nbrArr, deg = degArr, prev = prevArr;
        Ex np = nParam, damp = dampParam;

        b.map(np, outArr, [&](Body &fn, Ex v) {
            Ex begin = fn.let("begin", start(v));
            Ex cnt = fn.let("cnt", start(v + 1) - begin);
            Arr weights = fn.map(cnt, [&](Body &, Ex e) {
                return prev(nb(begin + e)) / deg(nb(begin + e));
            });
            Ex sum = fn.reduce(cnt, Op::Add,
                               [&](Body &, Ex e) { return weights(e); });
            return (1.0 - damp) / np + damp * sum;
        });
        prog = std::make_shared<Program>(b.build());
    }

    std::vector<double>
    hostLoop(Runner &runner) override
    {
        HostArray prev(std::vector<double>(n, 1.0 / static_cast<double>(n)));
        HostArray next(std::vector<double>(n, 0.0));
        for (int it = 0; it < iterations; it++) {
            Bindings args(*prog);
            args.scalar(nParam, static_cast<double>(n));
            args.scalar(dampParam, 0.85);
            args.array(startArr, rowStart);
            args.array(nbrArr, nbrs);
            args.array(degArr, degree);
            args.array(prevArr, prev);
            args.array(outArr, next);
            runner.launch(*prog, args);
            std::swap(prev, next);
        }
        return std::move(prev.mut());
    }

    int64_t n;
    int iterations;
    HostArray rowStart, nbrs, degree;
    std::shared_ptr<Program> prog;
    Arr startArr, nbrArr, degArr, prevArr, outArr;
    Ex nParam, dampParam;
};

} // namespace

std::unique_ptr<App>
makePageRank(int64_t nodes, int avgDegree, int iterations)
{
    return std::make_unique<PageRankApp>(nodes, avgDegree, iterations);
}

} // namespace npp
