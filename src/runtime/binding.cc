#include "runtime/binding.h"

#include <cstring>

#include "support/logging.h"
#include "support/trace.h"

namespace npp {

Bindings::Bindings(const Program &prog)
    : prog_(&prog),
      scalars_(prog.numVars(), 0.0),
      scalarBound_(prog.numVars(), false),
      arrays_(prog.numVars()),
      hosts_(prog.numVars(), nullptr)
{}

void
Bindings::scalar(Ex param, double value)
{
    NPP_ASSERT(param.valid() && param.ref()->kind == ExprKind::Var,
               "scalar binding must name a param");
    const int id = param.ref()->varId;
    NPP_ASSERT(prog_->var(id).role == VarRole::ScalarParam,
               "{} is not a scalar param", prog_->var(id).name);
    scalars_[id] = value;
    scalarBound_[id] = true;
}

void
Bindings::array(Arr param, std::vector<double> &storage)
{
    bindArray(param, storage.data(), storage.size(), nullptr);
}

void
Bindings::array(Arr param, HostArray &host)
{
    bindArray(param, host.values().data(), host.size(), &host);
}

void
Bindings::array(Arr param, const HostArray &frozen)
{
    NPP_ASSERT(!prog_->var(param.id()).isOutput,
               "{} is an output; it cannot be bound frozen",
               prog_->var(param.id()).name);
    // Never written: prepareOutputs and shareOutput change only outputs.
    bindArray(param, frozen.values().data(), frozen.size(),
              const_cast<HostArray *>(&frozen));
}

void
Bindings::bindArray(Arr param, const double *data, size_t size,
                    HostArray *host)
{
    const int id = param.id();
    NPP_ASSERT(prog_->var(id).role == VarRole::ArrayParam,
               "{} is not an array param", prog_->var(id).name);
    ArraySlot slot;
    // Storage bound frozen is only ever read: validate() refuses a
    // program that writes a non-output array.
    slot.data = const_cast<double *>(data);
    slot.size = static_cast<int64_t>(size);
    slot.physSize = slot.size;
    // Distinct virtual base per array so the coalescing model never
    // merges transactions across arrays.
    slot.addrBase = static_cast<int64_t>(id) << 40;
    slot.addrStride = 1;
    slot.elemBytes = scalarBytes(prog_->var(id).kind);
    arrays_[id] = slot;
    hosts_[id] = host;
}

void
Bindings::shiftAddrBases(int64_t deltaElems)
{
    for (ArraySlot &slot : arrays_) {
        if (slot.data)
            slot.addrBase += deltaElems;
    }
}

void
Bindings::seed(EvalCtx &ctx) const
{
    for (const auto &v : prog_->vars()) {
        if (v.role == VarRole::ScalarParam) {
            if (!scalarBound_[v.id])
                NPP_FATAL("{}: scalar param {} not bound", prog_->name(),
                          v.name);
            ctx.scalars[v.id] = scalars_[v.id];
        } else if (v.role == VarRole::ArrayParam) {
            if (arrays_[v.id].data == nullptr)
                NPP_FATAL("{}: array param {} not bound", prog_->name(),
                          v.name);
            ctx.arrays[v.id] = arraySlot(v.id);
        }
    }
}

namespace {

/** One word-at-a-time hash step (order-dependent, ~4 ops/word; a
 *  bijection in `h` for a fixed `v` and in `v` for a fixed `h`, so one
 *  changed word always changes the chain). */
inline uint64_t
mixWord(uint64_t h, uint64_t v)
{
    h += v * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    h *= 0xff51afd7ed558ccdULL;
    return h;
}

inline uint64_t
bitsOf(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

} // namespace

uint64_t
digestArray(const double *data, int64_t n)
{
    NPP_TRACE_COUNT("runtime.hashed_bytes",
                    static_cast<double>(n) * sizeof(double));
    // Four independent chains: element i feeds lane i % 4, so the
    // multiplies of neighbouring elements overlap instead of waiting on
    // one another.
    uint64_t lane[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                        0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        lane[0] = mixWord(lane[0], bitsOf(data[i]));
        lane[1] = mixWord(lane[1], bitsOf(data[i + 1]));
        lane[2] = mixWord(lane[2], bitsOf(data[i + 2]));
        lane[3] = mixWord(lane[3], bitsOf(data[i + 3]));
    }
    for (; i < n; i++)
        lane[i & 3] = mixWord(lane[i & 3], bitsOf(data[i]));
    uint64_t h = mixWord(0xcbf29ce484222325ULL, static_cast<uint64_t>(n));
    for (uint64_t l : lane)
        h = mixWord(h, l);
    return h;
}

HostArray &
HostArray::operator=(HostArray &&other) noexcept
{
    if (this != &other) {
        values_ = std::move(other.values_);
        shared_ = std::move(other.shared_);
        known_ = other.known_;
        digest_ = other.digest_;
        other.known_ = false;
    }
    return *this;
}

std::vector<double> &
HostArray::mut()
{
    if (shared_) {
        values_.assign(shared_->begin(), shared_->end());
        shared_.reset();
    }
    dropDigest();
    return values_;
}

void
HostArray::share(std::shared_ptr<const std::vector<double>> contents,
                 uint64_t digest)
{
    shared_ = std::move(contents);
    setDigest(digest);
}

uint64_t
HostArray::digest() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!known_) {
        digest_ = digestArray(values().data(),
                              static_cast<int64_t>(size()));
        known_ = true;
    }
    return digest_;
}

void
HostArray::setDigest(uint64_t digest) const
{
    std::lock_guard<std::mutex> lock(mu_);
    digest_ = digest;
    known_ = true;
}

void
HostArray::dropDigest() const
{
    std::lock_guard<std::mutex> lock(mu_);
    known_ = false;
}

uint64_t
Bindings::fingerprint() const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &v : prog_->vars()) {
        if (v.role == VarRole::ScalarParam) {
            h = mixWord(h, static_cast<uint64_t>(v.id));
            h = mixWord(h, scalarBound_[v.id] ? 1 : 0);
            h = mixWord(h, bitsOf(scalars_[v.id]));
        } else if (v.role == VarRole::ArrayParam) {
            const ArraySlot &slot = arrays_[v.id];
            h = mixWord(h, static_cast<uint64_t>(v.id));
            h = mixWord(h, static_cast<uint64_t>(slot.size));
            // An empty array adds nothing past its size: its storage
            // pointer may be null whether or not it is bound.
            if (slot.physSize > 0) {
                h = mixWord(h, hosts_[v.id]
                                   ? hosts_[v.id]->digest()
                                   : digestArray(slot.data, slot.physSize));
            }
        }
    }
    return h;
}

void
Bindings::prepareOutputs() const
{
    for (const auto &v : prog_->vars()) {
        if (v.isOutput && hosts_[v.id])
            hosts_[v.id]->mut();
    }
}

void
Bindings::setOutputDigest(int varId, uint64_t digest) const
{
    if (hosts_[varId])
        hosts_[varId]->setDigest(digest);
}

bool
Bindings::shareOutput(int varId,
                      std::shared_ptr<const std::vector<double>> contents,
                      uint64_t digest) const
{
    if (!hosts_[varId])
        return false;
    hosts_[varId]->share(std::move(contents), digest);
    return true;
}

ArraySlot
Bindings::arraySlot(int varId) const
{
    ArraySlot slot = arrays_[varId];
    // A host array's contents move between its own storage and storage
    // shared with the eval cache; a run writes only private contents
    // (prepareOutputs).
    if (hosts_[varId])
        slot.data = const_cast<double *>(hosts_[varId]->values().data());
    return slot;
}

} // namespace npp
