/**
 * @file
 * The IR's execution semantics (Table I), written once: a statement
 * walker and a per-element pattern step. The sequential reference
 * interpreter, the simulator's per-lane execution and its Split combiner
 * replay all run pattern bodies through these functions and differ only
 * in a small hooks type, dispatched statically:
 *
 *   kRunStores            whether Store statements take effect
 *   nested(s)             run a Nested statement
 *   loopEnter(s)          SeqLoop bookkeeping: a mark taken after the
 *   loopIteration(m, k)   trip count is evaluated, a call before each
 *   loopExit(s, m)        executed iteration and one after the loop
 *   element(i)            per-index bookkeeping of walkRange
 *   bindLocal(s, n)       bind a nested pattern's array local
 *                         (walkNested; n is its evaluated extent)
 *
 * WalkHooks supplies do-nothing defaults for all but nested/bindLocal.
 */

#ifndef NPP_RUNTIME_WALK_H
#define NPP_RUNTIME_WALK_H

#include "runtime/eval.h"
#include "support/logging.h"

namespace npp {

/** Defaults: stores take effect, no per-iteration bookkeeping. */
struct WalkHooks
{
    static constexpr bool kRunStores = true;
    void element(int64_t) {}
    int loopEnter(const Stmt &) { return 0; }
    void loopIteration(int, int64_t) {}
    void loopExit(const Stmt &, int) {}
};

/** Execute a statement list, held as StmtPtr or as raw Stmt pointers.
 *  The switch sits inside the loop so a list costs one call. */
template <class Stmts, class Hooks>
void
walkStmts(const Stmts &stmts, EvalCtx &ctx, Hooks &hooks)
{
    for (const auto &ptr : stmts) {
        const Stmt &s = *ptr;
        switch (s.kind) {
          case StmtKind::Let:
          case StmtKind::Assign:
            ctx.scalars[s.var] = evalExpr(s.value, ctx);
            break;
          case StmtKind::Store:
            if constexpr (Hooks::kRunStores) {
                storeArray(s.site, s.array, asIndex(evalExpr(s.index, ctx)),
                           evalExpr(s.value, ctx), ctx);
            }
            break;
          case StmtKind::If:
            walkStmts(evalExpr(s.cond, ctx) != 0.0 ? s.body : s.elseBody,
                      ctx, hooks);
            break;
          case StmtKind::SeqLoop: {
            const int64_t trip = asIndex(evalExpr(s.trip, ctx));
            const auto mark = hooks.loopEnter(s);
            for (int64_t k = 0; k < trip; k++) {
                ctx.scalars[s.var] = static_cast<double>(k);
                if (s.cond && evalExpr(s.cond, ctx) != 0.0)
                    break;
                hooks.loopIteration(mark, k);
                walkStmts(s.body, ctx, hooks);
            }
            hooks.loopExit(s, mark);
            break;
          }
          case StmtKind::Nested:
            hooks.nested(s);
            break;
        }
    }
}

/**
 * One element of pattern `p` once its body has run at index `idx`:
 * Map/ZipWith store the yield at idx, Reduce folds it into `acc`, Filter
 * keeps it at `cursor`, GroupBy read-modify-writes the slot of its key,
 * and Foreach does nothing. `out` is the pattern's output array.
 */
inline void
stepPattern(const Pattern &p, int out, int64_t idx, double &acc,
            int64_t &cursor, EvalCtx &ctx)
{
    switch (p.kind) {
      case PatternKind::Map:
      case PatternKind::ZipWith:
        storeArray(p.site, out, idx, evalExpr(p.yield, ctx), ctx);
        break;
      case PatternKind::Reduce:
        acc = applyOp(p.combiner, acc, evalExpr(p.yield, ctx));
        break;
      case PatternKind::Foreach:
        break;
      case PatternKind::Filter:
        if (evalExpr(p.filterPred, ctx) != 0.0)
            storeArray(p.site, out, cursor++, evalExpr(p.yield, ctx), ctx);
        break;
      case PatternKind::GroupBy: {
        const int64_t key = asIndex(evalExpr(p.key, ctx));
        NPP_ASSERT(key >= 0 && key < ctx.arrays[out].size,
                   "groupBy key {} outside key domain {}", key,
                   ctx.arrays[out].size);
        const double prev = loadArray(p.site, out, key, ctx);
        storeArray(p.site, out, key,
                   applyOp(p.combiner, prev, evalExpr(p.yield, ctx)), ctx);
        break;
      }
    }
}

/** Seed a groupBy's output with the combiner identity, as the generated
 *  code initializes it before accumulating. */
inline void
seedGroupBy(const Pattern &p, int out, EvalCtx &ctx)
{
    for (int64_t k = 0; k < ctx.arrays[out].size; k++)
        storeArray(p.site, out, k, combinerIdentity(p.combiner), ctx);
}

/** Run `p` sequentially over [lo, hi); returns the reduce accumulator
 *  (the filter's kept count lands in `cursor`). */
template <class Hooks>
double
walkRange(const Pattern &p, int out, int64_t lo, int64_t hi,
          int64_t &cursor, EvalCtx &ctx, Hooks &hooks)
{
    double acc = combinerIdentity(p.combiner);
    for (int64_t i = lo; i < hi; i++) {
        hooks.element(i);
        ctx.scalars[p.indexVar] = static_cast<double>(i);
        walkStmts(p.body, ctx, hooks);
        stepPattern(p, out, i, acc, cursor, ctx);
    }
    return acc;
}

/** Run a Nested statement sequentially over its whole domain, its array
 *  local bound first, and publish its result: a reduce's value or a
 *  filter's kept count. */
template <class Hooks>
void
walkNested(const Stmt &s, EvalCtx &ctx, Hooks &hooks)
{
    const Pattern &p = *s.pattern;
    const int64_t n = asIndex(evalExpr(p.size, ctx));
    if (s.var >= 0 && ctx.prog->var(s.var).role == VarRole::ArrayLocal)
        hooks.bindLocal(s, n);
    if (p.kind == PatternKind::GroupBy)
        seedGroupBy(p, s.var, ctx);
    int64_t kept = 0;
    const double acc = walkRange(p, s.var, 0, n, kept, ctx, hooks);
    if (p.kind == PatternKind::Reduce)
        ctx.scalars[s.var] = acc;
    if (p.kind == PatternKind::Filter)
        ctx.scalars[s.countVar] = static_cast<double>(kept);
}

} // namespace npp

#endif // NPP_RUNTIME_WALK_H
