/**
 * @file
 * Sequential reference interpreter: executes a program with the plain
 * sequential semantics of Table I. Every functional test validates the
 * simulator's mapped execution against this interpreter, and the CPU
 * roofline model is fed from the op/byte counts it collects.
 */

#ifndef NPP_RUNTIME_REFERENCE_H
#define NPP_RUNTIME_REFERENCE_H

#include "runtime/binding.h"

namespace npp {

/** Aggregate work counts from a sequential run (for the CPU model). */
struct WorkCounts
{
    uint64_t computeOps = 0;  //!< weighted scalar operations
    uint64_t bytesRead = 0;   //!< bytes loaded from program arrays
    uint64_t bytesWritten = 0;
    uint64_t iterations = 0;  //!< total pattern iterations executed
};

/**
 * Runs programs sequentially. Stateless between runs apart from reusable
 * local-array storage.
 */
class ReferenceInterp
{
  public:
    /** Execute the program with the given bindings; returns work counts. */
    WorkCounts run(const Program &prog, const Bindings &args);
};

} // namespace npp

#endif // NPP_RUNTIME_REFERENCE_H
