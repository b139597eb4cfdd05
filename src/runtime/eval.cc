#include "runtime/eval.h"

#include "runtime/parallel_launch.h"
#include "support/logging.h"

namespace npp {

double
loadArray(int64_t site, int arrayVar, int64_t logical, EvalCtx &ctx)
{
    const ArraySlot &slot = ctx.arrays[arrayVar];
    NPP_ASSERT(slot.data != nullptr, "read of unbound array {}",
               ctx.prog->var(arrayVar).name);
    NPP_ASSERT(logical >= 0 && logical < slot.size,
               "read out of bounds: {}[{}], size {}",
               ctx.prog->var(arrayVar).name, logical, slot.size);
    const int64_t phys = slot.physIndex(logical);
    if (ctx.probe) {
        ctx.probe->onAccess(site, arrayVar, slot.traceAddr(logical), false,
                            slot.elemBytes);
    }
    return slot.data[phys];
}

void
storeArray(int64_t site, int arrayVar, int64_t logical, double value,
           EvalCtx &ctx)
{
    const ArraySlot &slot = ctx.arrays[arrayVar];
    NPP_ASSERT(slot.data != nullptr, "write to unbound array {}",
               ctx.prog->var(arrayVar).name);
    NPP_ASSERT(logical >= 0 && logical < slot.size,
               "write out of bounds: {}[{}], size {}",
               ctx.prog->var(arrayVar).name, logical, slot.size);
    const int64_t phys = slot.physIndex(logical);
    if (ctx.probe) {
        ctx.probe->onAccess(site, arrayVar, slot.traceAddr(logical), true,
                            slot.elemBytes);
    }
    if (ctx.owners && !ctx.owners->claim(arrayVar, phys, ctx.worker))
        return;
    slot.data[phys] = value;
}

double
evalExpr(const Expr *expr, EvalCtx &ctx)
{
    NPP_ASSERT(expr != nullptr, "eval of null expression");
    switch (expr->kind) {
      case ExprKind::Lit:
        return expr->lit;
      case ExprKind::Var:
        return ctx.scalars[expr->varId];
      case ExprKind::Binary: {
        ctx.opCount += opCost(expr->op);
        const double a = evalExpr(expr->a.get(), ctx);
        // Short-circuit logic ops to match generated-code semantics.
        if (expr->op == Op::And && a == 0.0)
            return 0.0;
        if (expr->op == Op::Or && a != 0.0)
            return 1.0;
        const double b = evalExpr(expr->b.get(), ctx);
        return applyOp(expr->op, a, b);
      }
      case ExprKind::Unary: {
        ctx.opCount += opCost(expr->op);
        return applyOp(expr->op, evalExpr(expr->a.get(), ctx), 0.0);
      }
      case ExprKind::Select: {
        ctx.opCount += 1;
        const double c = evalExpr(expr->a.get(), ctx);
        return evalExpr(c != 0.0 ? expr->b.get() : expr->c.get(), ctx);
      }
      case ExprKind::Read: {
        ctx.opCount += ctx.accessOpCost;
        const double idx = evalExpr(expr->a.get(), ctx);
        return loadArray(expr->readSite, expr->varId, asIndex(idx), ctx);
      }
    }
    NPP_PANIC("unknown expr kind");
}

} // namespace npp
