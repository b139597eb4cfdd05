#include "apps/dynsize.h"

#include <algorithm>

#include "support/rng.h"

namespace npp {

const char *
rowDistName(RowDist dist)
{
    switch (dist) {
      case RowDist::Uniform:
        return "uniform";
      case RowDist::Skewed:
        return "skewed";
      case RowDist::EmptyHeavy:
        return "empty-heavy";
    }
    return "?";
}

CsrMatrix
makeCsr(int64_t rows, int64_t avgDeg, RowDist dist, uint64_t seed)
{
    CsrMatrix m;
    m.rows = rows;
    m.rowStart.reserve(rows + 1);
    m.rowStart.push_back(0.0);
    Rng rng(seed);
    for (int64_t r = 0; r < rows; r++) {
        int64_t deg = 0;
        switch (dist) {
          case RowDist::Uniform:
            // Tight band around the average: the static mappings'
            // favorite shape.
            deg = std::max<int64_t>(
                1, avgDeg - 1 + static_cast<int64_t>(rng.below(3)));
            break;
          case RowDist::Skewed:
            // ~3% of rows carry ~32x the average degree; the rest stay
            // short. A warp of the static inner-sequential mapping
            // stalls on its heaviest row.
            if (rng.below(100) < 3) {
                deg = 32 * avgDeg +
                      static_cast<int64_t>(rng.below(32 * avgDeg + 1));
            } else {
                deg = static_cast<int64_t>(
                    rng.below(std::max<int64_t>(avgDeg / 2, 2)));
            }
            break;
          case RowDist::EmptyHeavy:
            // Most rows contribute nothing (a post-filter frontier);
            // occupancy of any per-row lane assignment craters.
            if (rng.below(100) < 70) {
                deg = 0;
            } else {
                deg = 1 + static_cast<int64_t>(rng.below(2 * avgDeg));
            }
            break;
        }
        for (int64_t e = 0; e < deg; e++) {
            m.cols.push_back(static_cast<double>(rng.below(rows)));
            m.vals.push_back(rng.uniform(-1.0, 1.0));
        }
        m.rowStart.push_back(static_cast<double>(m.cols.size()));
    }
    return m;
}

SpmvProgram
buildSpmv()
{
    SpmvProgram s;
    ProgramBuilder b("csr_spmv");
    s.startArr = b.inI64("rowStart");
    s.colArr = b.inI64("cols");
    s.valArr = b.inF64("vals");
    s.xArr = b.inF64("x");
    s.nParam = b.paramI64("numRows");
    s.outArr = b.outF64("y");
    Arr start = s.startArr, col = s.colArr, val = s.valArr, x = s.xArr;

    b.map(s.nParam, s.outArr, [&](Body &fn, Ex i) {
        Ex lo = fn.let("lo", start(i));
        Ex cnt = fn.let("cnt", start(i + 1) - lo);
        return fn.reduce(cnt, Op::Add, [&](Body &, Ex j) {
            return val(lo + j) * x(col(lo + j));
        });
    });
    s.prog = std::make_shared<Program>(b.build());
    return s;
}

Bindings
SpmvProgram::bind(CsrMatrix &m, std::vector<double> &x,
                  std::vector<double> &y) const
{
    Bindings args(*prog);
    args.scalar(nParam, static_cast<double>(m.rows));
    args.array(startArr, m.rowStart);
    args.array(colArr, m.cols);
    args.array(valArr, m.vals);
    args.array(xArr, x);
    args.array(outArr, y);
    return args;
}

BfsFrontierProgram
buildBfsFrontier()
{
    BfsFrontierProgram s;
    ProgramBuilder b("bfs_frontier");
    s.frontierArr = b.inI64("frontier");
    s.startArr = b.inI64("rowStart");
    s.nbrArr = b.inI64("nbrs");
    s.fParam = b.paramI64("frontierSize");
    s.nextArr = b.outF64("next");
    s.degArr = b.outF64("deg");
    Arr frontier = s.frontierArr, start = s.startArr, nb = s.nbrArr;
    Arr next = s.nextArr;

    b.map(s.fParam, s.degArr, [&](Body &fn, Ex i) {
        Ex v = fn.let("v", frontier(i));
        Ex lo = fn.let("lo", start(v));
        Ex cnt = fn.let("cnt", start(v + 1) - lo);
        fn.foreach(cnt, [&](Body &inner, Ex j) {
            inner.store(next, nb(lo + j), Ex(1.0));
        });
        return cnt;
    });
    s.prog = std::make_shared<Program>(b.build());
    return s;
}

Bindings
BfsFrontierProgram::bind(CsrMatrix &g, std::vector<double> &frontier,
                         std::vector<double> &next,
                         std::vector<double> &deg) const
{
    Bindings args(*prog);
    args.scalar(fParam, static_cast<double>(frontier.size()));
    args.array(frontierArr, frontier);
    args.array(startArr, g.rowStart);
    args.array(nbrArr, g.cols);
    args.array(nextArr, next);
    args.array(degArr, deg);
    return args;
}

} // namespace npp
