#include "runtime/binding.h"

#include <cstring>

#include "support/logging.h"

namespace npp {

Bindings::Bindings(const Program &prog)
    : prog_(&prog),
      scalars_(prog.numVars(), 0.0),
      scalarBound_(prog.numVars(), false),
      arrays_(prog.numVars())
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
    const int id = param.id();
    NPP_ASSERT(prog_->var(id).role == VarRole::ArrayParam,
               "{} is not an array param", prog_->var(id).name);
    ArraySlot slot;
    slot.data = storage.data();
    slot.size = static_cast<int64_t>(storage.size());
    slot.physSize = slot.size;
    // Distinct virtual base per array so the coalescing model never
    // merges transactions across arrays.
    slot.addrBase = static_cast<int64_t>(id) << 40;
    slot.addrStride = 1;
    slot.elemBytes = scalarBytes(prog_->var(id).kind);
    arrays_[id] = slot;
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
            ctx.arrays[v.id] = arrays_[v.id];
        }
    }
}

namespace {

/** One word-at-a-time hash step (order-dependent, ~4 ops/word — the
 *  fingerprint walks every bound array element, so this is hot). */
inline uint64_t
mixWord(uint64_t h, uint64_t v)
{
    h += v * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    h *= 0xff51afd7ed558ccdULL;
    return h;
}

inline uint64_t
mixDouble(uint64_t h, double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return mixWord(h, bits);
}

} // namespace

uint64_t
Bindings::fingerprint() const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &v : prog_->vars()) {
        if (v.role == VarRole::ScalarParam) {
            h = mixWord(h, static_cast<uint64_t>(v.id));
            h = mixWord(h, scalarBound_[v.id] ? 1 : 0);
            h = mixDouble(h, scalars_[v.id]);
        } else if (v.role == VarRole::ArrayParam) {
            const ArraySlot &slot = arrays_[v.id];
            h = mixWord(h, static_cast<uint64_t>(v.id));
            h = mixWord(h, static_cast<uint64_t>(slot.size));
            if (slot.data) {
                for (int64_t i = 0; i < slot.physSize; i++)
                    h = mixDouble(h, slot.data[i]);
            }
        }
    }
    return h;
}

} // namespace npp
