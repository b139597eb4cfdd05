/**
 * @file
 * Runtime-sized workloads: CSR sparse matrix-vector product and BFS
 * frontier expansion. Both have a launch-known outer domain (rows,
 * frontier vertices) and a data-dependent inner extent (row length,
 * vertex degree) read from a bound index array — the program shape the
 * consolidation mapping (analysis/consolidate.h) competes for. The CSR
 * generator controls the row-length distribution so benches and tests
 * can pit skewed inputs (where consolidation should win) against
 * uniform ones (where the static mappings should keep the ticket).
 */

#ifndef NPP_APPS_DYNSIZE_H
#define NPP_APPS_DYNSIZE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/binding.h"

namespace npp {

/** Row-length distribution of a synthetic CSR matrix. */
enum class RowDist {
    Uniform,   //!< every row near the average degree
    Skewed,    //!< a few very heavy rows, most rows short
    EmptyHeavy //!< majority of rows empty, the rest near average
};

const char *rowDistName(RowDist dist);

/** A CSR matrix with all index data stored as doubles (the IR's only
 *  scalar carrier); rowStart has rows+1 entries, cols/vals have nnz. */
struct CsrMatrix
{
    int64_t rows = 0;
    std::vector<double> rowStart;
    std::vector<double> cols;
    std::vector<double> vals;

    int64_t nnz() const { return static_cast<int64_t>(cols.size()); }
    int64_t rowLen(int64_t r) const
    {
        return static_cast<int64_t>(rowStart[r + 1] - rowStart[r]);
    }
};

/** Deterministic synthetic CSR matrix with `rows` rows, mean degree
 *  near `avgDeg`, and the given row-length distribution. Column indices
 *  are uniform over [0, rows). */
CsrMatrix makeCsr(int64_t rows, int64_t avgDeg, RowDist dist,
                  uint64_t seed);

/** y = A*x over a CSR matrix: root map over rows, nested reduce over
 *  the runtime-sized row. */
struct SpmvProgram
{
    std::shared_ptr<Program> prog;
    Arr startArr, colArr, valArr, xArr, outArr;
    Ex nParam;

    /** Bind one launch; storage must outlive the run. `y` is sized to
     *  the row count. */
    Bindings bind(CsrMatrix &m, std::vector<double> &x,
                  std::vector<double> &y) const;
};

SpmvProgram buildSpmv();

/** One BFS frontier-expansion step: root map over the frontier yields
 *  each vertex's degree (into `deg`), a nested foreach over the
 *  runtime-sized neighbor range marks `next[nbr] = 1`. The marks are
 *  idempotent constant stores, so outputs are order-independent. */
struct BfsFrontierProgram
{
    std::shared_ptr<Program> prog;
    Arr frontierArr, startArr, nbrArr, nextArr, degArr;
    Ex fParam;

    /** Bind one step over graph `g` with the given frontier; `next` is
     *  sized to the vertex count, `deg` to the frontier size. */
    Bindings bind(CsrMatrix &g, std::vector<double> &frontier,
                  std::vector<double> &next,
                  std::vector<double> &deg) const;
};

BfsFrontierProgram buildBfsFrontier();

} // namespace npp

#endif // NPP_APPS_DYNSIZE_H
