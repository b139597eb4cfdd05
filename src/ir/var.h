/**
 * @file
 * Variable records for the parallel-pattern IR. Every named value in a
 * program — kernel parameters, pattern induction variables, let-bound
 * locals, sequential-loop indices — is registered in the owning Program's
 * variable table and referenced by integer id from expressions.
 */

#ifndef NPP_IR_VAR_H
#define NPP_IR_VAR_H

#include <string>

#include "ir/type.h"

namespace npp {

/** What role a variable plays in a program. */
enum class VarRole {
    ScalarParam, //!< scalar kernel argument (e.g. matrix dimensions)
    ArrayParam,  //!< array kernel argument (input or output buffer)
    ScalarLocal, //!< let-bound scalar inside a pattern body
    ArrayLocal,  //!< array produced by a nested pattern (prealloc target)
    Index,       //!< parallel pattern induction variable
    SeqIndex     //!< sequential loop induction variable
};

/** One entry in a Program's variable table. */
struct VarInfo
{
    int id = -1;
    std::string name;
    VarRole role = VarRole::ScalarLocal;
    ScalarKind kind = ScalarKind::F64;
    /** True for array params the program writes (outputs). */
    bool isOutput = false;
    /** True for scalar locals reassigned inside sequential loops. */
    bool isMutable = false;
};

} // namespace npp

#endif // NPP_IR_VAR_H
