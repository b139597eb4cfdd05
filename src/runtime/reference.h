/**
 * @file
 * Sequential reference interpreter: executes a program with the plain
 * sequential semantics of Table I. Every functional test validates the
 * simulator's mapped execution against this interpreter, and the CPU
 * roofline model is fed from the op/byte counts it collects.
 */

#ifndef NPP_RUNTIME_REFERENCE_H
#define NPP_RUNTIME_REFERENCE_H

#include <string>

#include "runtime/binding.h"

namespace npp {

/** Aggregate work counts from a sequential run (for the CPU model). */
struct WorkCounts
{
    uint64_t computeOps = 0;  //!< weighted scalar operations
    uint64_t bytesRead = 0;   //!< bytes loaded from program arrays
    uint64_t bytesWritten = 0;
    uint64_t iterations = 0;  //!< total pattern iterations executed

    WorkCounts &
    operator+=(const WorkCounts &o)
    {
        computeOps += o.computeOps;
        bytesRead += o.bytesRead;
        bytesWritten += o.bytesWritten;
        iterations += o.iterations;
        return *this;
    }
};

/**
 * Runs programs with the sequential semantics. Stateless between runs.
 * A root whose iterations are independent (runtime/parallel_launch.h)
 * runs in contiguous chunks on the task pool's workers; its outputs and
 * counts equal the serial loop's exactly.
 */
class ReferenceInterp
{
  public:
    /** Execute the program with the given bindings; returns work counts.
     *  `rootRefusal`, when given, is rootParallelRefusal(prog) cached by
     *  the caller; otherwise it is computed here. */
    WorkCounts run(const Program &prog, const Bindings &args,
                   const std::string *rootRefusal = nullptr);
};

} // namespace npp

#endif // NPP_RUNTIME_REFERENCE_H
