/**
 * @file
 * Parameter bindings: attach concrete scalar values and host buffers to a
 * program's parameters before running it on the reference interpreter or
 * the GPU simulator.
 */

#ifndef NPP_RUNTIME_BINDING_H
#define NPP_RUNTIME_BINDING_H

#include <vector>

#include "ir/builder.h"
#include "runtime/eval.h"

namespace npp {

/**
 * Concrete argument values for one program execution. Array storage is
 * owned by the caller and must outlive the run.
 */
class Bindings
{
  public:
    explicit Bindings(const Program &prog);

    /** Bind a scalar parameter (by the Ex handle the builder returned). */
    void scalar(Ex param, double value);

    /** Bind an array parameter to caller-owned storage. */
    void array(Arr param, std::vector<double> &storage);

    /** Translate every bound array's simulated device address by the
     *  given element count (the storage itself does not move, only the
     *  addresses the memory probe sees). Functional results are
     *  unaffected; the coalescing model's transaction counts are
     *  relative-base and must be bit-invariant under any such
     *  translation — the property the shift-invariance suite pins. */
    void shiftAddrBases(int64_t deltaElems);

    /** Seed an EvalCtx with the bound params; fatal if any param is
     *  missing. Locals/indices start at zero. */
    void seed(EvalCtx &ctx) const;

    /** Stable fingerprint of everything bound: scalar values, array
     *  sizes and full contents. Two bindings with equal fingerprints
     *  drive a program identically, which is what the evaluation cache
     *  keys on. O(total array elements). */
    uint64_t fingerprint() const;

    /** Slot of an array param (null data when unbound); used by the
     *  evaluation cache to capture and replay output contents. */
    const ArraySlot &arraySlot(int varId) const { return arrays_[varId]; }

    const Program &program() const { return *prog_; }

  private:
    const Program *prog_;
    std::vector<double> scalars_;
    std::vector<bool> scalarBound_;
    std::vector<ArraySlot> arrays_;
};

} // namespace npp

#endif // NPP_RUNTIME_BINDING_H
