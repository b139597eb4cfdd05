/**
 * @file
 * BFS: level-synchronous breadth-first search over a CSR graph. Each
 * level launches one two-level kernel — outer over nodes (guarded by the
 * frontier flag), inner over the node's neighbors (a dynamically sized
 * pattern, the load-imbalance case warp-based mapping was designed for).
 * The hand-written Rodinia kernel parallelizes only the node level (the
 * paper's 1D equivalent), which the analysis beats by also mapping the
 * neighbor level.
 */

#include <algorithm>

#include "apps/rodinia.h"
#include "support/rng.h"

namespace npp {

namespace {

class BfsApp : public App
{
  public:
    BfsApp(int64_t nodes, int avgDegree) : App("BFS"), n(nodes)
    {
        // Random graph with skewed degrees (half the average for most
        // nodes, a heavy tail for a few).
        Rng rng(7);
        std::vector<double> starts{0.0}, edges;
        for (int64_t v = 0; v < n; v++) {
            int64_t deg = 1 + static_cast<int64_t>(rng.below(avgDegree));
            if (rng.below(32) == 0)
                deg *= 8; // hub
            for (int64_t e = 0; e < deg; e++)
                edges.push_back(static_cast<double>(rng.below(n)));
            starts.push_back(static_cast<double>(edges.size()));
        }
        rowStart = HostArray(std::move(starts));
        nbrs = HostArray(std::move(edges));
        build();
        hints_.paramValues = {{nParam.ref()->varId, static_cast<double>(n)}};
        inputBytes_ = static_cast<double>(rowStart.size() + nbrs.size()) * 8;
        absoluteError_ = true;
        // The Rodinia kernel only exploits the top-level parallelism
        // (Section VI-C) — the 1D mapping with raw pointers.
        manual_ = hints_;
        manual_->strategy = Strategy::OneD;
        manual_->rawPointers = true;
    }

  private:
    void
    build()
    {
        ProgramBuilder b("bfs_level");
        startArr = b.inI64("rowStart");
        nbrArr = b.inI64("nbrs");
        frontierArr = b.inF64("frontier");
        nParam = b.paramI64("n");
        costArr = b.inOutF64("cost");
        visitedArr = b.inOutF64("visited");
        nextArr = b.inOutF64("next");
        Arr start = startArr, nb = nbrArr, frontier = frontierArr;
        Arr cost = costArr, visited = visitedArr, next = nextArr;

        b.foreach(nParam, [&](Body &fn, Ex v) {
            fn.branch(frontier(v) > 0.0, [&](Body &active) {
                Ex begin = active.let("begin", start(v));
                Ex deg = active.let("deg", start(v + 1) - begin);
                Ex myCost = active.let("myCost", cost(v));
                active.foreach(deg, [&](Body &edge, Ex e) {
                    Ex dst = edge.let("dst", nb(begin + e));
                    edge.branch(visited(dst) == 0.0, [&](Body &claim) {
                        claim.store(cost, dst, myCost + 1.0);
                        claim.store(visited, dst, Ex(1.0));
                        claim.store(next, dst, Ex(1.0));
                    });
                });
            });
        });
        prog = std::make_shared<Program>(b.build());
    }

    std::vector<double>
    hostLoop(Runner &runner) override
    {
        HostArray frontier(std::vector<double>(n, 0.0));
        HostArray next(std::vector<double>(n, 0.0));
        HostArray visited(std::vector<double>(n, 0.0));
        HostArray cost(std::vector<double>(n, 0.0));
        frontier.mut()[0] = 1.0;
        visited.mut()[0] = 1.0;
        bool active = true;
        int guard = 0;
        while (active && guard++ < 64) {
            Bindings args(*prog);
            args.scalar(nParam, static_cast<double>(n));
            args.array(startArr, rowStart);
            args.array(nbrArr, nbrs);
            args.array(frontierArr, frontier);
            args.array(costArr, cost);
            args.array(visitedArr, visited);
            args.array(nextArr, next);
            runner.launch(*prog, args);

            // The next frontier becomes the current one, and the next
            // starts empty.
            std::swap(frontier, next);
            std::vector<double> &cleared = next.mut();
            std::fill(cleared.begin(), cleared.end(), 0.0);
            active = std::any_of(frontier.values().begin(),
                                 frontier.values().end(),
                                 [](double f) { return f > 0.0; });
        }
        return std::move(cost.mut());
    }

    int64_t n;
    HostArray rowStart, nbrs;
    std::shared_ptr<Program> prog;
    Arr startArr, nbrArr, frontierArr, costArr, visitedArr, nextArr;
    Ex nParam;
};

} // namespace

std::unique_ptr<App>
makeBfs(int64_t nodes, int avgDegree)
{
    return std::make_unique<BfsApp>(nodes, avgDegree);
}

} // namespace npp
