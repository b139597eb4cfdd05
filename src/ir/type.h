/**
 * @file
 * Scalar element types for the parallel-pattern IR. Evaluation uses double
 * as the universal carrier (exact for integers up to 2^53, which covers all
 * index arithmetic in the workloads); the declared kind is kept for CUDA
 * code generation and for diagnostics.
 */

#ifndef NPP_IR_TYPE_H
#define NPP_IR_TYPE_H

#include <string>

namespace npp {

/** Scalar element kinds supported by the IR. */
enum class ScalarKind {
    F64, //!< double precision float
    I64, //!< 64-bit signed integer
    Bool //!< boolean (stored as 0.0 / 1.0)
};

/** CUDA type spelling for a scalar kind. */
std::string cudaTypeName(ScalarKind kind);

/** Size in bytes of one element of the given kind in device memory.
 *  Inline: the evaluator calls it on every probed array access. */
inline int
scalarBytes(ScalarKind kind)
{
    switch (kind) {
      case ScalarKind::F64:
      case ScalarKind::I64:
        return 8;
      case ScalarKind::Bool:
        return 1;
    }
    return 8;
}

} // namespace npp

#endif // NPP_IR_TYPE_H
