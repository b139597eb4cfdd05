/**
 * @file
 * Parameter bindings: attach concrete scalar values and host buffers to a
 * program's parameters before running it on the reference interpreter or
 * the GPU simulator.
 */

#ifndef NPP_RUNTIME_BINDING_H
#define NPP_RUNTIME_BINDING_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ir/builder.h"
#include "runtime/eval.h"

namespace npp {

/** Order-dependent digest of `n` doubles (their bit patterns), hashed in
 *  four independent lanes that are folded at the end, so the loop is not
 *  one serial multiply chain. Changing any one element, or the length,
 *  changes the digest. Adds its byte count to the trace counter
 *  `runtime.hashed_bytes`. */
uint64_t digestArray(const double *data, int64_t n);

/**
 * An input array whose contents are fixed at construction and readable
 * only through const access. Its digest is computed once, on first use,
 * and every later Bindings::fingerprint reuses it, so an unchanged large
 * input is not hashed again on each launch. Only non-output params may
 * be bound to it (Program::validate refuses a launch that writes an
 * input).
 */
class FrozenArray
{
  public:
    FrozenArray() : FrozenArray(std::vector<double>()) {}
    explicit FrozenArray(std::vector<double> contents)
        : state_(std::make_unique<State>())
    {
        state_->values = std::move(contents);
    }

    const std::vector<double> &values() const { return state_->values; }

    /** digestArray of the contents, computed by the first caller
     *  (thread-safe). */
    uint64_t digest() const;

  private:
    struct State
    {
        std::vector<double> values;
        std::once_flag once;
        uint64_t digest = 0;
    };
    std::unique_ptr<State> state_;
};

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

    /** Bind a non-output array parameter to frozen storage; the
     *  fingerprint then reuses its digest. */
    void array(Arr param, const FrozenArray &frozen);

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
     *  sizes and full contents (one digestArray per array, folded in
     *  declaration order). Two bindings with equal fingerprints drive a
     *  program identically, which is what the evaluation cache keys on.
     *  O(elements of the arrays not bound frozen). */
    uint64_t fingerprint() const;

    /** Slot of an array param (null data when unbound); used by the
     *  evaluation cache to capture and replay output contents. */
    const ArraySlot &arraySlot(int varId) const { return arrays_[varId]; }

    const Program &program() const { return *prog_; }

  private:
    void bindArray(Arr param, const double *data, size_t size,
                   const FrozenArray *frozen);

    const Program *prog_;
    std::vector<double> scalars_;
    std::vector<bool> scalarBound_;
    std::vector<ArraySlot> arrays_;
    std::vector<const FrozenArray *> frozen_; //!< per var; null unless frozen
};

} // namespace npp

#endif // NPP_RUNTIME_BINDING_H
