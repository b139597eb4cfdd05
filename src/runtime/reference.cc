#include "runtime/reference.h"

#include <memory>
#include <unordered_map>

#include "runtime/parallel_launch.h"
#include "runtime/walk.h"
#include "support/parallel.h"

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

/**
 * One worker's interpreter: its own context seeded from the bindings,
 * byte probe, local arena and counts. The serial run is one worker over
 * the whole root range; a parallel run gives each worker the chunks it
 * claims.
 */
struct RootWorker
{
    EvalCtx ctx;
    CountingProbe probe;
    WorkCounts counts;
    ReferenceHooks hooks{{}, ctx, counts, {}};

    RootWorker(const Program &prog, const Bindings &args) : ctx(prog)
    {
        args.seed(ctx);
        ctx.probe = &probe;
    }

    /** Counts so far, the context's ops and the probe's bytes included. */
    WorkCounts
    totals() const
    {
        WorkCounts c = counts;
        c.computeOps = ctx.opCount;
        c.bytesRead = probe.bytesRead;
        c.bytesWritten = probe.bytesWritten;
        return c;
    }
};

} // namespace

WorkCounts
ReferenceInterp::run(const Program &prog, const Bindings &args,
                     const std::string *rootRefusal)
{
    // Fail structurally-invalid programs (e.g. a nested filter missing
    // its count scalar) with validate()'s diagnostic up front instead of
    // a mid-run panic; programs from ProgramBuilder::build() are already
    // validated and revalidation is cheap and idempotent.
    prog.validate();
    args.prepareOutputs();

    RootWorker primary(prog, args);
    const Pattern &root = prog.root();
    const int out = prog.rootOutput();
    const int64_t n = asIndex(evalExpr(root.size, primary.ctx));

    std::string why =
        rootRefusal ? *rootRefusal : rootParallelRefusal(prog);
    if (why.empty())
        why = storageAliasRefusal(prog, primary.ctx.arrays);
    const int workers =
        why.empty() ? launchWorkers(n, "root iterations", why) : 1;
    if (workers > 1) {
        // R1 leaves only roots whose iterations fold nothing (Map,
        // ZipWith, Foreach), so the chunks' counts simply add up.
        OwnerWords owners(prog, primary.ctx.arrays);
        std::vector<std::unique_ptr<RootWorker>> crew(workers);
        parallelChunks(n, workers, [&](int w, int64_t lo, int64_t hi) {
            std::unique_ptr<RootWorker> &rw = crew[w];
            if (!rw) {
                rw = std::make_unique<RootWorker>(prog, args);
                rw->ctx.owners = &owners;
                rw->ctx.worker = static_cast<uint32_t>(w) + 1;
            }
            int64_t unused = 0;
            walkRange(root, out, lo, hi, unused, rw->ctx, rw->hooks);
        });
        if (!owners.conflicted()) {
            traceLaunchOutcome("runtime", LaunchOutcome::Parallel, prog,
                               {});
            WorkCounts sum = primary.totals();
            for (const auto &rw : crew) {
                if (rw)
                    sum += rw->totals();
            }
            return sum;
        }
        why = "two root iterations stored to one element";
        traceLaunchOutcome("runtime", LaunchOutcome::Rerun, prog, why);
    } else {
        traceLaunchOutcome("runtime", LaunchOutcome::Serial, prog, why);
    }

    if (root.kind == PatternKind::GroupBy)
        seedGroupBy(root, out, primary.ctx);
    int64_t kept = 0;
    const double acc =
        walkRange(root, out, 0, n, kept, primary.ctx, primary.hooks);
    if (root.kind == PatternKind::Reduce)
        storeArray(root.site, out, 0, acc, primary.ctx);
    if (root.kind == PatternKind::Filter) {
        storeArray(root.site, prog.countOutput(), 0,
                   static_cast<double>(kept), primary.ctx);
    }
    return primary.totals();
}

} // namespace npp
