#include "codegen/cuda_emit.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "support/logging.h"
#include "support/strings.h"

namespace npp {

namespace {

const char *
cudaDim(int dim)
{
    // CUDA exposes three hardware dims; a fourth logical dim would be
    // linearized onto z (not needed by any current workload).
    static const char *names[] = {"x", "y", "z", "z"};
    NPP_ASSERT(dim >= 0 && dim < 4, "bad dim {}", dim);
    return names[dim];
}

/** Emitter state for one program. */
class Emitter
{
  public:
    explicit Emitter(const KernelSpec &spec)
        : spec(spec), prog(*spec.prog)
    {
        scanReduceLevels(prog.root(), 0);
    }

    void
    scanReduceLevels(const Pattern &p, int lv)
    {
        if (p.kind == PatternKind::Reduce)
            reduceLevels.insert(lv);
        for (const auto &s : p.body) {
            if (s->kind == StmtKind::Nested)
                scanReduceLevels(*s->pattern, lv + 1);
        }
    }

    std::string
    run()
    {
        header();
        kernel();
        if (needsCombiner())
            combinerKernel();
        if (needsCompaction())
            compactKernels();
        launchStub();
        return os.str();
    }

  private:
    //
    // Small helpers
    //

    std::string
    varName(int id) const
    {
        return prog.var(id).name;
    }

    void
    line(const std::string &text)
    {
        os << repeat("    ", indent) << text << "\n";
    }

    void
    open(const std::string &text)
    {
        line(text + " {");
        indent++;
    }

    void
    close()
    {
        indent--;
        line("}");
    }

    bool
    needsCombiner() const
    {
        for (const auto &l : spec.mapping.levels) {
            if (l.span.kind == SpanKind::Split)
                return true;
        }
        return false;
    }

    bool
    needsCompaction() const
    {
        for (const auto &plan : spec.locals) {
            if (plan.variableSize)
                return true;
        }
        return false;
    }

    /** Render an expression as CUDA C. */
    std::string
    expr(const ExprRef &e)
    {
        NPP_ASSERT(e != nullptr, "emit of null expr");
        switch (e->kind) {
          case ExprKind::Lit:
            if (e->type == ScalarKind::I64)
                return fmt("{}LL", static_cast<long long>(e->lit));
            return fmt("{}", e->lit);
          case ExprKind::Var:
            return varName(e->varId);
          case ExprKind::Binary:
            switch (e->op) {
              case Op::Min:
                return fmt("min({}, {})", expr(e->a), expr(e->b));
              case Op::Max:
                return fmt("max({}, {})", expr(e->a), expr(e->b));
              case Op::Pow:
                return fmt("pow({}, {})", expr(e->a), expr(e->b));
              case Op::Mod:
                return fmt("(({}) % ({}))", expr(e->a), expr(e->b));
              default:
                return fmt("({} {} {})", expr(e->a), opName(e->op),
                           expr(e->b));
            }
          case ExprKind::Unary:
            switch (e->op) {
              case Op::Neg:
                return fmt("(-{})", expr(e->a));
              case Op::Not:
                return fmt("(!{})", expr(e->a));
              default:
                return fmt("{}({})", opName(e->op), expr(e->a));
            }
          case ExprKind::Select:
            return fmt("({} ? {} : {})", expr(e->a), expr(e->b),
                       expr(e->c));
          case ExprKind::Read:
            return readExpr(*e);
        }
        NPP_PANIC("unknown expr kind");
    }

    std::string
    readExpr(const Expr &e)
    {
        if (spec.prefetchedSites.count(&e)) {
            // Served from the shared-memory staging buffer that the
            // prefetch prologue fills along threadIdx.x.
            return fmt("smem_{}[{} % blockDim.{}]", varName(e.varId),
                       expr(e.a), cudaDim(0));
        }
        const LocalArrayPlan *plan = spec.localPlan(e.varId);
        if (plan)
            return fmt("{}[{}]", varName(e.varId), localIndex(*plan, e.a));
        return fmt("{}[{}]", varName(e.varId), expr(e.a));
    }

    /** Physical index for a preallocated / malloc'd local array. */
    std::string
    localIndex(const LocalArrayPlan &plan, const ExprRef &logical)
    {
        return localIndexText(plan, expr(logical));
    }

    /** Same, for an index that is already CUDA text (compaction cursors
     *  and seed loops have no IR expression to render). */
    std::string
    localIndexText(const LocalArrayPlan &plan, const std::string &logical)
    {
        if (plan.mode == LocalArrayPlan::Mode::ThreadMalloc)
            return logical;
        if (plan.layout == LocalArrayPlan::Layout::Contiguous)
            return fmt("__row_{} + ({})", varName(plan.varId), logical);
        return fmt("__col_{} + ({}) * __stride_{}", varName(plan.varId),
                   logical, varName(plan.varId));
    }

    //
    // Sections
    //

    void
    header()
    {
        os << "// Generated by nppmap (locality-aware nested pattern "
              "mapping)\n";
        os << "// program: " << prog.name() << "\n";
        for (int lv = 0; lv < spec.mapping.numLevels(); lv++) {
            os << "// Level " << lv << ": "
               << spec.mapping.levels[lv].toString() << "\n";
        }
        for (const auto &plan : spec.locals)
            os << "// " << plan.toString() << "\n";
        if (!spec.prefetchedSites.empty()) {
            os << "// shared-memory prefetch: " << spec.prefetchedSites.size()
               << " site(s)\n";
        }
        if (spec.consolidation.enabled)
            os << "// " << spec.consolidation.verdict << "\n";
        os << "\n";
    }

    std::string
    paramList()
    {
        std::vector<std::string> params;
        for (const auto &v : prog.vars()) {
            if (v.role == VarRole::ScalarParam) {
                params.push_back(fmt("{} {}", cudaTypeName(v.kind),
                                     v.name));
            } else if (v.role == VarRole::ArrayParam) {
                params.push_back(fmt("{}{} *{}",
                                     v.isOutput ? "" : "const ",
                                     cudaTypeName(v.kind), v.name));
            } else if (v.role == VarRole::ArrayLocal &&
                       spec.localPlan(v.id) &&
                       spec.localPlan(v.id)->mode ==
                           LocalArrayPlan::Mode::Prealloc) {
                params.push_back(fmt("{} *{} /* preallocated */",
                                     cudaTypeName(v.kind), v.name));
            }
        }
        for (const auto &plan : spec.locals) {
            if (plan.variableSize) {
                params.push_back(fmt("long long *__counts_{}",
                                     varName(plan.varId)));
            }
        }
        if (needsCombiner())
            params.push_back("double *__partials");
        return join(params, ", ");
    }

    void
    kernel()
    {
        if (spec.consolidation.enabled) {
            consolidatedKernel();
            return;
        }
        open(fmt("__global__ void {}_kernel({})", prog.name(),
                 paramList()));

        // Shared memory declarations.
        for (int lv = 0; lv < spec.mapping.numLevels(); lv++) {
            if (levelIsParallelReduce(lv)) {
                line(fmt("__shared__ double red_smem_{}[{}];", lv,
                         spec.mapping.threadsPerBlock()));
            }
        }
        emitPrefetchDecls();

        emitPattern(prog.root(), 0, /*isRoot=*/true);
        close();
        os << "\n";
    }

    /**
     * Consolidated emission for a runtime-sized inner domain. A group of
     * L lanes serves L parents; their variable-length child domains
     * concatenate into one parent-major queue consumed in full waves of
     * L. Three phases, mirroring the exact simulator's consolidated
     * path (sim/executor.cc): bin-build prologue (per-parent extent
     * gather + exclusive scan laying out the queue offsets),
     * consolidated consumption (every wave runs L contiguous queue
     * entries, so no lane idles on a short parent), and a per-parent
     * finalize that runs the epilogue and stores the root yield.
     */
    void
    consolidatedKernel()
    {
        const Pattern &root = prog.root();
        const int64_t L = spec.consolidation.binLanes;
        const bool warpBin =
            spec.consolidation.granularity == BinGranularity::Warp;

        // Slice the root body the way the executor does: scalar
        // prologue (queue-carried lets), the single dynamic nested
        // pattern, epilogue.
        std::vector<const Stmt *> prefix, suffix;
        const Stmt *nestedStmt = nullptr;
        for (const auto &s : root.body) {
            if (s->kind == StmtKind::Nested)
                nestedStmt = s.get();
            else if (!nestedStmt)
                prefix.push_back(s.get());
            else
                suffix.push_back(s.get());
        }
        NPP_ASSERT(nestedStmt,
                   "consolidated kernel without a nested pattern");
        const Pattern &inner = *nestedStmt->pattern;

        // Prologue scalars the queue carries across phases.
        std::vector<int> carried;
        for (const Stmt *s : prefix)
            if (s->kind == StmtKind::Let)
                carried.push_back(s->var);

        open(fmt("__global__ void {}_kernel({})", prog.name(),
                 paramList()));
        line(fmt("// consolidation: {}-bin queues, {} lanes per group",
                 binGranularityName(spec.consolidation.granularity), L));
        line(fmt("__shared__ long long __q_off[{}]; // exclusive scan "
                 "of the group's extents",
                 L + 1));
        for (int v : carried) {
            line(fmt("__shared__ {} __carry_{}[{}];",
                     cudaTypeName(prog.var(v).kind), varName(v), L));
        }
        if (inner.kind == PatternKind::Reduce)
            line(fmt("__shared__ double __bin_acc[{}];", L));
        line(fmt("const long long __group_lo = (long long)blockIdx.x * "
                 "{};",
                 L));
        line("const int __bin_lane = (int)threadIdx.x;");

        line("// --- bin-build prologue: gather each parent's extent ---");
        line("long long __extent = 0;");
        open(fmt("if (__group_lo + __bin_lane < {})", expr(root.size)));
        line(fmt("const long long {} = __group_lo + __bin_lane;",
                 varName(root.indexVar)));
        for (const Stmt *s : prefix)
            emitStmt(*s, 0);
        line(fmt("__extent = max(0LL, (long long)({}));",
                 expr(inner.size)));
        for (int v : carried) {
            line(fmt("__carry_{}[__bin_lane] = {};", varName(v),
                     varName(v)));
        }
        if (inner.kind == PatternKind::Reduce) {
            line(fmt("__bin_acc[__bin_lane] = {};",
                     combinerIdentity(inner.combiner)));
        }
        close();

        if (warpBin) {
            line("// queue offsets: warp-wide exclusive scan (shuffle)");
            line("long long __incl = __extent;");
            open(fmt("for (int __s = 1; __s < {}; __s <<= 1)", L));
            line("const long long __up = __shfl_up_sync(0xffffffffu, "
                 "__incl, __s);");
            line("if (__bin_lane >= __s) __incl += __up;");
            close();
            line("__q_off[__bin_lane] = __incl - __extent;");
            line(fmt("if (__bin_lane == {}) __q_off[{}] = __incl;", L - 1,
                     L));
            line("__syncwarp();");
        } else {
            line("// queue offsets: block-wide exclusive scan in shared "
                 "memory");
            line("__q_off[__bin_lane] = __extent;");
            line("__syncthreads();");
            open(fmt("for (int __s = 1; __s < {}; __s <<= 1)", L));
            line("const long long __up = __bin_lane >= __s ? "
                 "__q_off[__bin_lane - __s] : 0;");
            line("__syncthreads();");
            line("__q_off[__bin_lane] += __up;");
            line("__syncthreads();");
            close();
            line("const long long __incl = __q_off[__bin_lane];");
            line("__syncthreads();");
            line("__q_off[__bin_lane] = __incl - __extent;");
            line(fmt("if (__bin_lane == {}) __q_off[{}] = __incl;", L - 1,
                     L));
            line("__syncthreads();");
        }
        line(fmt("const long long __entries = __q_off[{}];", L));

        line("// --- consolidated consumption: full waves of the queue "
             "---");
        open(fmt("for (long long __q = __bin_lane; __q < __entries; __q "
                 "+= {})",
                 L));
        line("// owner search: the parent whose queue slice holds __q");
        line(fmt("int __plo = 0, __phi = {};", L));
        open("while (__phi - __plo > 1)");
        line("const int __mid = (__plo + __phi) >> 1;");
        line("if (__q_off[__mid] <= __q) __plo = __mid; else __phi = "
             "__mid;");
        close();
        line(fmt("const long long {} = __group_lo + __plo;",
                 varName(root.indexVar)));
        for (int v : carried) {
            const VarInfo &vi = prog.var(v);
            line(fmt("{}{} {} = __carry_{}[__plo];",
                     vi.isMutable ? "" : "const ",
                     cudaTypeName(vi.kind), vi.name, vi.name));
        }
        line(fmt("const long long {} = __q - __q_off[__plo];",
                 varName(inner.indexVar)));
        emitStmts(inner.body, 1);
        if (inner.kind == PatternKind::Reduce) {
            line(fmt("atomic{}(&__bin_acc[__plo], {});",
                     inner.combiner == Op::Add ? "Add" : "CombineCAS",
                     expr(inner.yield)));
        }
        close();
        line(warpBin ? "__syncwarp();" : "__syncthreads();");

        line("// --- finalize: one lane per parent runs the epilogue ---");
        open(fmt("if (__group_lo + __bin_lane < {})", expr(root.size)));
        line(fmt("const long long {} = __group_lo + __bin_lane;",
                 varName(root.indexVar)));
        for (int v : carried) {
            const VarInfo &vi = prog.var(v);
            line(fmt("{}{} {} = __carry_{}[__bin_lane];",
                     vi.isMutable ? "" : "const ",
                     cudaTypeName(vi.kind), vi.name, vi.name));
        }
        if (inner.kind == PatternKind::Reduce && nestedStmt->var >= 0) {
            line(fmt("const double {} = __bin_acc[__bin_lane];",
                     varName(nestedStmt->var)));
        }
        for (const Stmt *s : suffix)
            emitStmt(*s, 0);
        if (root.kind == PatternKind::Map ||
            root.kind == PatternKind::ZipWith) {
            line(fmt("{}[{}] = {};", varName(prog.rootOutput()),
                     varName(root.indexVar), expr(root.yield)));
        }
        close();

        close();
        os << "\n";
    }

    bool
    levelIsParallelReduce(int lv) const
    {
        // A reduce level with more than one thread in its dim needs the
        // shared-memory combine.
        if (lv >= spec.mapping.numLevels())
            return false;
        const LevelMapping &l = spec.mapping.levels[lv];
        return reduceLevels.count(lv) > 0 && l.blockSize > 1;
    }

    void
    emitPrefetchDecls()
    {
        if (spec.prefetchedSites.empty())
            return;
        // One staging buffer per prefetched array (merged by array).
        std::unordered_set<int> arrays;
        for (const Expr *e : sortedPrefetchSites()) {
            if (arrays.insert(e->varId).second) {
                line(fmt("__shared__ {} smem_{}[{}];",
                         cudaTypeName(prog.var(e->varId).kind),
                         varName(e->varId), prefetchLanes()));
            }
        }
    }

    /** Prefetched reads in stable readSite order, so the emitted CUDA
     *  text does not depend on hash-set iteration order. */
    std::vector<const Expr *>
    sortedPrefetchSites() const
    {
        std::vector<const Expr *> sites(spec.prefetchedSites.begin(),
                                        spec.prefetchedSites.end());
        std::sort(sites.begin(), sites.end(),
                  [](const Expr *a, const Expr *b) {
                      return a->readSite < b->readSite;
                  });
        return sites;
    }

    int64_t
    prefetchLanes() const
    {
        // The staging chunk covers the block's lanes in the prefetched
        // level's dim; sized conservatively to the block's thread count.
        int64_t lanes = 1;
        for (const auto &l : spec.mapping.levels)
            if (l.dim != 0)
                lanes *= l.blockSize;
        return std::max<int64_t>(lanes, 1);
    }

    /** Loop header(s) establishing this level's index, per span type. */
    void
    openLevel(const Pattern &p, int lv, bool &needsClose, bool &hasGuard)
    {
        const LevelMapping &l = spec.mapping.levels[lv];
        const char *d = cudaDim(l.dim);
        const std::string idx = varName(p.indexVar);
        const std::string size = expr(p.size);
        needsClose = false;
        hasGuard = false;

        switch (l.span.kind) {
          case SpanKind::One:
            line(fmt("long long {} = blockIdx.{} * blockDim.{} + "
                     "threadIdx.{};",
                     idx, d, d, d));
            open(fmt("if ({} < {})", idx, size));
            needsClose = true;
            hasGuard = true;
            break;
          case SpanKind::N:
            open(fmt("for (long long __k{} = 0; __k{} < {}; __k{}++)", lv,
                     lv, l.span.factor, lv));
            line(fmt("long long {} = (blockIdx.{} * {} + __k{}) * "
                     "blockDim.{} + threadIdx.{};",
                     idx, d, l.span.factor, lv, d, d));
            open(fmt("if ({} < {})", idx, size));
            needsClose = true; // closes the guard; loop closed separately
            hasGuard = true;
            levelLoops.push_back(lv);
            break;
          case SpanKind::All:
            open(fmt("for (long long {} = threadIdx.{}; {} < {}; {} += "
                     "blockDim.{})",
                     idx, d, idx, size, idx, d));
            needsClose = true;
            break;
          case SpanKind::Split:
            line(fmt("long long __seg{} = ({} + {} - 1) / {};", lv, size,
                     l.span.factor, l.span.factor));
            line(fmt("long long __end{} = min((blockIdx.{} + 1) * __seg{}, "
                     "(long long){});",
                     lv, d, lv, size));
            open(fmt("for (long long {} = blockIdx.{} * __seg{} + "
                     "threadIdx.{}; {} < __end{}; {} += blockDim.{})",
                     idx, d, lv, d, idx, lv, idx, d));
            needsClose = true;
            break;
        }
    }

    void
    emitPattern(const Pattern &p, int lv, bool isRoot)
    {
        const LevelMapping &l = spec.mapping.levels[lv];
        std::string acc;
        if (p.kind == PatternKind::Reduce) {
            acc = isRoot ? "__root_acc" : fmt("__acc_{}", lv);
            line(fmt("double {} = {};", acc,
                     combinerIdentity(p.combiner)));
        }
        if (isRoot && p.kind == PatternKind::Filter)
            line("// filter: kept elements compact via atomic cursor");

        bool needsClose = false, hasGuard = false;
        openLevel(p, lv, needsClose, hasGuard);

        emitPrefetchFill(lv);
        emitStmts(p.body, lv);

        // Per-iteration tail: yield handling.
        switch (p.kind) {
          case PatternKind::Map:
          case PatternKind::ZipWith: {
            if (isRoot) {
                // Guard the store to one lane of every inner parallel
                // dimension (Fig 9 line 15).
                std::vector<std::string> guards;
                for (int inner = lv + 1; inner < spec.mapping.numLevels();
                     inner++) {
                    const LevelMapping &il = spec.mapping.levels[inner];
                    if (il.blockSize > 1) {
                        guards.push_back(fmt("threadIdx.{} == 0",
                                             cudaDim(il.dim)));
                    }
                }
                const bool guarded = !guards.empty();
                if (guarded)
                    open(fmt("if ({})", join(guards, " && ")));
                line(fmt("{}[{}] = {};", varName(prog.rootOutput()),
                         varName(p.indexVar), expr(p.yield)));
                if (guarded)
                    close();
            }
            break;
          }
          case PatternKind::Reduce:
            line(fmt("{} = {};", acc,
                     combineText(p.combiner, acc, expr(p.yield))));
            break;
          case PatternKind::Foreach:
            break;
          case PatternKind::Filter:
            open(fmt("if ({})", expr(p.filterPred)));
            line(fmt("long long __slot = atomicAdd(&__filter_cursor, 1);"));
            line(fmt("{}[__slot] = {};", varName(prog.rootOutput()),
                     expr(p.yield)));
            close();
            break;
          case PatternKind::GroupBy:
            line(fmt("atomic{}(&{}[(long long)({})], {});",
                     p.combiner == Op::Add ? "Add" : "CombineCAS",
                     varName(prog.rootOutput()), expr(p.key),
                     expr(p.yield)));
            break;
        }

        if (needsClose)
            close();
        // Close the span(n) outer loop if any.
        if (l.span.kind == SpanKind::N)
            close();

        if (p.kind == PatternKind::Reduce)
            emitReduceCombine(p, lv, acc, isRoot);
    }

    std::string
    combineText(Op op, const std::string &a, const std::string &b)
    {
        switch (op) {
          case Op::Add: return fmt("{} + {}", a, b);
          case Op::Mul: return fmt("{} * {}", a, b);
          case Op::Min: return fmt("min({}, {})", a, b);
          case Op::Max: return fmt("max({}, {})", a, b);
          case Op::And: return fmt("{} && {}", a, b);
          case Op::Or: return fmt("{} || {}", a, b);
          default: NPP_PANIC("bad combiner");
        }
    }

    void
    emitReduceCombine(const Pattern &p, int lv, const std::string &acc,
                      bool isRoot)
    {
        const LevelMapping &l = spec.mapping.levels[lv];
        const char *d = cudaDim(l.dim);

        if (l.blockSize > 1) {
            // Shared-memory tree combine across this level's lanes
            // (warp-synchronous tail omitted for brevity, as in Fig 9).
            line(fmt("red_smem_{}[__lane()] = {};", lv, acc));
            line("__syncthreads();");
            open(fmt("for (int __s = blockDim.{} / 2; __s > 0; __s >>= 1)",
                     d));
            open(fmt("if (threadIdx.{} < __s)", d));
            line(fmt("red_smem_{}[__lane()] = {};", lv,
                     combineText(p.combiner, fmt("red_smem_{}[__lane()]",
                                                 lv),
                                 fmt("red_smem_{}[__lane_plus(__s)]", lv))));
            close();
            line("__syncthreads();");
            close();
            line(fmt("{} = red_smem_{}[__lane_base()];", acc, lv));
        }

        if (l.span.kind == SpanKind::Split) {
            open(fmt("if (threadIdx.{} == 0)", d));
            line(fmt("__partials[__partial_slot(blockIdx.{})] = {};", d,
                     acc));
            close();
        } else if (isRoot) {
            open(fmt("if (threadIdx.{} == 0 && blockIdx.{} == 0)", d, d));
            line(fmt("{}[0] = {};", varName(prog.rootOutput()), acc));
            close();
        }
        // Nested reduce: acc is now live for the enclosing body.
    }

    void
    emitPrefetchFill(int lv)
    {
        if (spec.prefetchedSites.empty() || lv != prefetchFillLevel())
            return;
        line("// prefetch outer-level chunks into shared memory using "
             "dimension-x lanes");
        std::unordered_set<int> arrays;
        for (const Expr *e : sortedPrefetchSites()) {
            if (!arrays.insert(e->varId).second)
                continue;
            line(fmt("smem_{}[threadIdx.x] = {}[__chunk_base + "
                     "threadIdx.x];",
                     varName(e->varId), varName(e->varId)));
        }
        line("__syncthreads();");
    }

    int
    prefetchFillLevel() const
    {
        return 0;
    }

    void
    emitStmts(const std::vector<StmtPtr> &stmts, int lv)
    {
        for (const auto &s : stmts)
            emitStmt(*s, lv);
    }

    void
    emitStmt(const Stmt &s, int lv)
    {
        switch (s.kind) {
          case StmtKind::Let: {
            const VarInfo &v = prog.var(s.var);
            line(fmt("{}{} {} = {};", v.isMutable ? "" : "const ",
                     cudaTypeName(v.kind), v.name, expr(s.value)));
            break;
          }
          case StmtKind::Assign:
            line(fmt("{} = {};", varName(s.var), expr(s.value)));
            break;
          case StmtKind::Store: {
            const LocalArrayPlan *plan = spec.localPlan(s.array);
            if (plan) {
                line(fmt("{}[{}] = {};", varName(s.array),
                         localIndex(*plan, s.index), expr(s.value)));
            } else {
                line(fmt("{}[{}] = {};", varName(s.array),
                         fmt("(long long)({})", expr(s.index)),
                         expr(s.value)));
            }
            break;
          }
          case StmtKind::If:
            open(fmt("if ({})", expr(s.cond)));
            emitStmts(s.body, lv);
            if (!s.elseBody.empty()) {
                indent--;
                line("} else {");
                indent++;
                emitStmts(s.elseBody, lv);
            }
            close();
            break;
          case StmtKind::SeqLoop:
            open(fmt("for (long long {} = 0; {} < {}; {}++)",
                     varName(s.var), varName(s.var), expr(s.trip),
                     varName(s.var)));
            if (s.cond)
                line(fmt("if ({}) break;", expr(s.cond)));
            emitStmts(s.body, lv);
            close();
            break;
          case StmtKind::Nested:
            emitNested(s, lv + 1);
            break;
        }
    }

    void
    emitNested(const Stmt &s, int lv)
    {
        const Pattern &p = *s.pattern;
        if (s.var >= 0 && prog.var(s.var).role == VarRole::ArrayLocal) {
            const LocalArrayPlan *plan = spec.localPlan(s.var);
            NPP_ASSERT(plan != nullptr, "array local without plan");
            if (plan->mode == LocalArrayPlan::Mode::ThreadMalloc) {
                line(fmt("double *{} = (double *)malloc(({}) * "
                         "sizeof(double)); // per-thread allocation",
                         varName(s.var), expr(p.size)));
            } else if (plan->layout == LocalArrayPlan::Layout::Contiguous) {
                line(fmt("const long long __row_{} = __outer_linear_id() * "
                         "({}); // Fig 11(a)",
                         varName(s.var), expr(p.size)));
            } else {
                line(fmt("const long long __col_{} = __outer_linear_id(); "
                         "// Fig 11(b)",
                         varName(s.var)));
                line(fmt("const long long __stride_{} = "
                         "__outer_domain_size();",
                         varName(s.var)));
            }
        }

        if (p.kind == PatternKind::Map || p.kind == PatternKind::ZipWith) {
            bool needsClose = false, hasGuard = false;
            openLevel(p, lv, needsClose, hasGuard);
            emitStmts(p.body, lv);
            const LocalArrayPlan *plan = spec.localPlan(s.var);
            if (plan) {
                line(fmt("{}[{}] = {};", varName(s.var),
                         localIndex(*plan, varRef(p.indexVar,
                                                  ScalarKind::I64)),
                         expr(p.yield)));
            }
            if (needsClose)
                close();
            if (spec.mapping.levels[lv].span.kind == SpanKind::N)
                close();
            if (spec.mapping.levels[lv].blockSize > 1)
                line("__syncthreads(); // inner map results visible "
                     "block-wide");
        } else if (p.kind == PatternKind::Reduce) {
            emitPattern(p, lv, /*isRoot=*/false);
            if (s.var >= 0)
                line(fmt("const double {} = __acc_{};", varName(s.var),
                         lv));
        } else if (p.kind == PatternKind::Foreach) {
            bool needsClose = false, hasGuard = false;
            openLevel(p, lv, needsClose, hasGuard);
            emitStmts(p.body, lv);
            if (needsClose)
                close();
            if (spec.mapping.levels[lv].span.kind == SpanKind::N)
                close();
        } else if (p.kind == PatternKind::Filter) {
            emitNestedFilter(s, lv);
        } else if (p.kind == PatternKind::GroupBy) {
            emitNestedGroupBy(s, lv);
        } else {
            NPP_PANIC("nested {} not supported by the emitter",
                      patternKindName(p.kind));
        }
    }

    void
    emitNestedFilter(const Stmt &s, int lv)
    {
        // Nested filter always maps span(all) (it needs cross-lane state),
        // so every thread of this level's dim cooperates. The span(all)
        // strided loop is replaced by whole-block passes so that no thread
        // exits early and every thread reaches the per-pass scan and
        // barriers. __block_excl_scan computes each lane's offset among
        // the pass's kept elements (__ballot_sync/__popc within a warp,
        // warp totals combined through shared memory) and returns the
        // pass total through its second argument.
        const Pattern &p = *s.pattern;
        const LevelMapping &l = spec.mapping.levels[lv];
        const char *d = cudaDim(l.dim);
        const std::string arr = varName(s.var);
        const LocalArrayPlan *plan = spec.localPlan(s.var);
        NPP_ASSERT(plan != nullptr, "filter result without plan");
        const std::string ty = cudaTypeName(prog.var(s.var).kind);
        const std::string idx = varName(p.indexVar);

        line(fmt("// nested filter into {}: count/scan/scatter per pass",
                 arr));
        line(fmt("__shared__ long long __cursor_{};", arr));
        open(fmt("if (threadIdx.{} == 0)", d));
        line(fmt("__cursor_{} = 0;", arr));
        close();
        line("__syncthreads();");
        open(fmt("for (long long __base_{} = 0; __base_{} < {}; "
                 "__base_{} += blockDim.{})",
                 arr, arr, expr(p.size), arr, d));
        line(fmt("const long long {} = __base_{} + threadIdx.{};", idx,
                 arr, d));
        line(fmt("int __keep_{} = 0;", arr));
        line(fmt("{} __val_{} = 0;", ty, arr));
        open(fmt("if ({} < {})", idx, expr(p.size)));
        emitStmts(p.body, lv);
        open(fmt("if ({})", expr(p.filterPred)));
        line(fmt("__keep_{} = 1;", arr));
        line(fmt("__val_{} = {};", arr, expr(p.yield)));
        close();
        close();
        line(fmt("long long __total_{};", arr));
        line(fmt("const long long __off_{} = __block_excl_scan(__keep_{}, "
                 "&__total_{});",
                 arr, arr, arr));
        open(fmt("if (__keep_{})", arr));
        line(fmt("{}[{}] = __val_{};", arr,
                 localIndexText(*plan,
                                fmt("__cursor_{} + __off_{}", arr, arr)),
                 arr));
        close();
        line("__syncthreads();");
        open(fmt("if (threadIdx.{} == 0)", d));
        line(fmt("__cursor_{} += __total_{};", arr, arr));
        close();
        line("__syncthreads();");
        close();
        line(fmt("const long long {} = __cursor_{};", varName(s.countVar),
                 arr));
        open(fmt("if (threadIdx.{} == 0)", d));
        line(fmt("__counts_{}[__outer_linear_id()] = __cursor_{}; "
                 "// for {}_compact",
                 arr, arr, prog.name()));
        close();
    }

    void
    emitNestedGroupBy(const Stmt &s, int lv)
    {
        const Pattern &p = *s.pattern;
        const LevelMapping &l = spec.mapping.levels[lv];
        const char *d = cudaDim(l.dim);
        const std::string arr = varName(s.var);
        const LocalArrayPlan *plan = spec.localPlan(s.var);
        NPP_ASSERT(plan != nullptr, "groupBy result without plan");
        NPP_ASSERT(p.keyDomain != nullptr, "nested groupBy without key "
                                           "domain");

        line(fmt("// nested groupBy into {}: seed the key-domain bins "
                 "with the combiner identity, then combine keyed yields "
                 "with atomics",
                 arr));
        open(fmt("for (long long __g_{} = threadIdx.{}; __g_{} < {}; "
                 "__g_{} += blockDim.{})",
                 arr, d, arr, expr(p.keyDomain), arr, d));
        line(fmt("{}[{}] = {};", arr,
                 localIndexText(*plan, fmt("__g_{}", arr)),
                 combinerIdentity(p.combiner)));
        close();
        line("__syncthreads();");

        bool needsClose = false, hasGuard = false;
        openLevel(p, lv, needsClose, hasGuard);
        emitStmts(p.body, lv);
        line(fmt("atomic{}(&{}[{}], {});",
                 p.combiner == Op::Add ? "Add" : "CombineCAS", arr,
                 localIndexText(*plan,
                                fmt("(long long)({})", expr(p.key))),
                 expr(p.yield)));
        if (needsClose)
            close();
        if (l.span.kind == SpanKind::N)
            close();
        line("__syncthreads(); // bins visible block-wide");
    }

    void
    combinerKernel()
    {
        // Global combine of the split partials (Section IV-A: Split(k)
        // requires a subsequent combiner kernel).
        int splitLevel = -1;
        for (int lv = 0; lv < spec.mapping.numLevels(); lv++) {
            if (spec.mapping.levels[lv].span.kind == SpanKind::Split)
                splitLevel = lv;
        }
        const int64_t k = spec.mapping.levels[splitLevel].span.factor;
        open(fmt("__global__ void {}_combine(const double *__partials, "
                 "long long __outer, double *__out)",
                 prog.name()));
        line("long long o = blockIdx.x * blockDim.x + threadIdx.x;");
        open("if (o < __outer)");
        line("double acc = __partials[o];");
        open(fmt("for (long long s = 1; s < {}; s++)", k));
        line(fmt("acc = {};",
                 combineText(rootCombiner(), "acc",
                             "__partials[s * __outer + o]")));
        close();
        line("__out[o] = acc;");
        close();
        close();
        os << "\n";
    }

    void
    compactKernels()
    {
        // Finalize pass for variable-size nested outputs (Section V-A):
        // exclusive scan of the per-chunk kept counts, then scatter each
        // chunk's kept prefix into a dense output. One chunk is one outer
        // invocation's slice of the preallocated upper-bound buffer; the
        // read side honours the slice's layout (contiguous row vs
        // interleaved column).
        for (const auto &plan : spec.locals) {
            if (!plan.variableSize)
                continue;
            const std::string arr = varName(plan.varId);
            const std::string ty =
                cudaTypeName(prog.var(plan.varId).kind);
            const bool interleaved =
                plan.mode == LocalArrayPlan::Mode::Prealloc &&
                plan.layout == LocalArrayPlan::Layout::Interleaved;
            const std::string elem =
                interleaved ? "c + i * __num_chunks"
                            : "c * __chunk_size + i";
            open(fmt("__global__ void {}_compact_{}(const long long "
                     "*__counts, const {} *__chunks, long long "
                     "__chunk_size, long long __num_chunks, {} *__out, "
                     "long long *__total)",
                     prog.name(), arr, ty, ty));
            line("long long c = blockIdx.x * blockDim.x + threadIdx.x;");
            open("if (c < __num_chunks)");
            line("long long __base = 0; // exclusive scan of kept counts");
            open("for (long long p = 0; p < c; p++)");
            line("__base += __counts[p];");
            close();
            open("for (long long i = 0; i < __counts[c]; i++)");
            line(fmt("__out[__base + i] = __chunks[{}];", elem));
            close();
            open("if (c == __num_chunks - 1)");
            line("*__total = __base + __counts[c];");
            close();
            close();
            close();
            os << "\n";
        }
    }

    Op
    rootCombiner() const
    {
        // The split level belongs to some reduce pattern; find it.
        Op op = Op::Add;
        std::function<void(const Pattern &)> scan =
            [&](const Pattern &p) {
                if (p.kind == PatternKind::Reduce)
                    op = p.combiner;
                for (const auto &s : p.body) {
                    if (s->kind == StmtKind::Nested)
                        scan(*s->pattern);
                }
            };
        scan(prog.root());
        return op;
    }

    void
    launchStub()
    {
        os << "// launch configuration (computed from actual sizes at "
              "runtime):\n";
        if (spec.consolidation.enabled) {
            os << "//   consolidated: grid(ceil(outer/"
               << spec.consolidation.binLanes << ")), block("
               << spec.consolidation.binLanes
               << "); queue build and consumption fused in one kernel\n";
        }
        os << "//   dim3 block(Bx, By, Bz), grid(Gx, Gy, Gz) per the "
              "mapping above;\n";
        os << "//   " << prog.name() << "_kernel<<<grid, block>>>(...);\n";
        if (needsCombiner()) {
            os << "//   " << prog.name()
               << "_combine<<<ceil(outer/256), 256>>>(partials, outer, "
                  "out);\n";
        }
        for (const auto &plan : spec.locals) {
            if (plan.variableSize) {
                os << "//   " << prog.name() << "_compact_"
                   << varName(plan.varId)
                   << "<<<ceil(chunks/256), 256>>>(counts, chunks, "
                      "chunkSize, chunks, out, total);\n";
            }
        }
    }

    const KernelSpec &spec;
    const Program &prog;
    std::ostringstream os;
    int indent = 0;
    std::unordered_set<int> reduceLevels;
    std::vector<int> levelLoops;
};

} // namespace

std::string
emitCuda(const KernelSpec &spec)
{
    Emitter emitter(spec);
    return emitter.run();
}

} // namespace npp
