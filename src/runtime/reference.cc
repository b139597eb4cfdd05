#include "runtime/reference.h"

#include <unordered_map>

#include "runtime/walk.h"

namespace npp {

namespace {

/** Byte-count probe for the WorkCounts report. */
class CountingProbe : public MemProbe
{
  public:
    void
    onAccess(int64_t, int, int64_t, bool isWrite, int bytes) override
    {
        if (isWrite)
            bytesWritten += bytes;
        else
            bytesRead += bytes;
    }

    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
};

/**
 * Reference hooks for the shared walker: every statement takes effect,
 * iterations are counted, and nested locals live in an arena reused
 * across outer iterations, mirroring how the preallocation optimization
 * reuses memory.
 */
struct ReferenceHooks : WalkHooks
{
    EvalCtx &ctx;
    WorkCounts &counts;
    std::unordered_map<int, std::vector<double>> arena;

    void element(int64_t) { counts.iterations++; }

    void nested(const Stmt &s) { walkNested(s, ctx, *this); }

    /** A filter's local holds its static upper bound `n` (survivors
     *  compact into its prefix); a groupBy's holds its key domain. */
    void
    bindLocal(const Stmt &s, int64_t n)
    {
        if (s.pattern->kind == PatternKind::GroupBy)
            n = asIndex(evalExpr(s.pattern->keyDomain, ctx));
        std::vector<double> &store = arena[s.var];
        if (static_cast<int64_t>(store.size()) < n)
            store.resize(n);
        ArraySlot slot;
        slot.data = store.data();
        slot.size = n;
        slot.physSize = static_cast<int64_t>(store.size());
        slot.elemBytes = scalarBytes(ctx.prog->var(s.var).kind);
        ctx.arrays[s.var] = slot;
    }
};

} // namespace

WorkCounts
ReferenceInterp::run(const Program &prog, const Bindings &args)
{
    // Fail structurally-invalid programs (e.g. a nested filter missing
    // its count scalar) with validate()'s diagnostic up front instead of
    // a mid-run panic; programs from ProgramBuilder::build() are already
    // validated and revalidation is cheap and idempotent.
    prog.validate();

    WorkCounts counts;
    CountingProbe probe;
    EvalCtx ctx(prog);
    args.seed(ctx);
    ctx.probe = &probe;

    ReferenceHooks hooks{{}, ctx, counts, {}};
    const Pattern &root = prog.root();
    const int out = prog.rootOutput();
    const int64_t n = asIndex(evalExpr(root.size, ctx));
    if (root.kind == PatternKind::GroupBy)
        seedGroupBy(root, out, ctx);
    int64_t kept = 0;
    const double acc = walkRange(root, out, 0, n, kept, ctx, hooks);
    if (root.kind == PatternKind::Reduce)
        storeArray(root.site, out, 0, acc, ctx);
    if (root.kind == PatternKind::Filter) {
        storeArray(root.site, prog.countOutput(), 0,
                   static_cast<double>(kept), ctx);
    }

    counts.computeOps = ctx.opCount;
    counts.bytesRead = probe.bytesRead;
    counts.bytesWritten = probe.bytesWritten;
    return counts;
}

} // namespace npp
