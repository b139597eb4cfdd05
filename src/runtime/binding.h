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
 * Host storage for one array, carrying the digest of its contents, so
 * that Bindings::fingerprint hashes an array only when nobody has
 * digested its current bytes yet.
 *
 * Invariant: a held digest always equals digestArray over the current
 * contents. Every path that changes them keeps it: mut() drops the
 * digest; a functional simulator or reference run drops the digests of
 * the outputs it writes, and the eval cache then sets each one to the
 * digest it holds for the bytes it stored or replayed
 * (sim/evalcache.h). Moves and std::swap carry the digest with the
 * contents.
 *
 * A replay from the eval cache does not copy: the array shares the
 * cache's read-only contents until something writes it (mut(), or a
 * functional run, which first takes a private copy). So a reference
 * from values() or mut() is valid only until the next launch that
 * binds the array.
 *
 * An input that nothing mutates (a frozen input) is hashed once, on
 * first use; concurrent first uses hash it once.
 */
class HostArray
{
  public:
    HostArray() = default;
    explicit HostArray(std::vector<double> contents)
        : values_(std::move(contents))
    {}
    HostArray(HostArray &&other) noexcept { *this = std::move(other); }
    HostArray &operator=(HostArray &&other) noexcept;

    const std::vector<double> &
    values() const
    {
        return shared_ ? *shared_ : values_;
    }
    size_t size() const { return values().size(); }
    double operator[](size_t i) const { return values()[i]; }

    /** Mutable access to the contents; drops the held digest. */
    std::vector<double> &mut();

    /** digestArray of the contents: the held digest, else computed now
     *  and held (thread-safe). */
    uint64_t digest() const;

  private:
    friend class Bindings;

    /** Take `contents`, shared read-only with the eval cache, and their
     *  digest. */
    void share(std::shared_ptr<const std::vector<double>> contents,
               uint64_t digest);
    /** Hold `digest`, which must equal digestArray over the contents. */
    void setDigest(uint64_t digest) const;
    void dropDigest() const;

    std::vector<double> values_; //!< the contents, unless shared_
    std::shared_ptr<const std::vector<double>> shared_;
    mutable std::mutex mu_;
    mutable bool known_ = false; //!< digest_ is held
    mutable uint64_t digest_ = 0;
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

    /** Bind an array parameter to caller-owned storage; every
     *  fingerprint hashes it whole. */
    void array(Arr param, std::vector<double> &storage);

    /** Bind an array parameter to a host array: the fingerprint reuses
     *  its digest, which functional runs keep current (HostArray). */
    void array(Arr param, HostArray &host);

    /** Bind a non-output array parameter to a host array that no launch
     *  writes (a frozen input). */
    void array(Arr param, const HostArray &frozen);

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
     *  O(elements of the arrays with no held digest): plain vectors, and
     *  host arrays that nobody has digested since they last changed. */
    uint64_t fingerprint() const;

    /** A functional run is about to write the outputs: every output
     *  bound to a HostArray gets private contents (mut()), dropping its
     *  digest. */
    void prepareOutputs() const;

    /** Hold `digest` for the HostArray bound to output `varId` (no-op
     *  for a plain vector). It must equal digestArray over the array's
     *  current contents: the eval cache passes the digest it holds for
     *  the bytes it just stored. */
    void setOutputDigest(int varId, uint64_t digest) const;

    /** Replay `contents` (with their digest) into the HostArray bound to
     *  output `varId`, which shares them instead of copying; false, and
     *  nothing done, for a plain vector. */
    bool shareOutput(int varId,
                     std::shared_ptr<const std::vector<double>> contents,
                     uint64_t digest) const;

    /** Slot of an array param (null data when unbound) over the current
     *  storage; used by the evaluation cache to capture and replay
     *  output contents. */
    ArraySlot arraySlot(int varId) const;

    const Program &program() const { return *prog_; }

  private:
    void bindArray(Arr param, const double *data, size_t size,
                   HostArray *host);

    const Program *prog_;
    std::vector<double> scalars_;
    std::vector<bool> scalarBound_;
    std::vector<ArraySlot> arrays_;
    /** Per var; null for a vector. Only outputs are ever changed
     *  through it. */
    std::vector<HostArray *> hosts_;
};

} // namespace npp

#endif // NPP_RUNTIME_BINDING_H
