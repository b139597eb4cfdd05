#include "analysis/constraint.h"

#include <cmath>
#include <functional>

#include "ir/traverse.h"
#include "support/logging.h"
#include "support/strings.h"

namespace npp {

std::string
Constraint::toString() const
{
    switch (kind) {
      case Kind::HardSpanAll:
        return fmt("hard L{} span(all){} ({})", level,
                   splittable ? " [splittable]" : "", reason);
      case Kind::SoftCoalesce:
        return fmt("soft L{} dim(x)+warp-block w={}{} ({})", level, weight,
                   flexible ? " [flexible]" : "", reason);
      case Kind::SoftMinBlock:
        return fmt("soft global block>=min w={}", weight);
    }
    return "?";
}

namespace {

/**
 * Recursive constraint generator. Tracks the stack of enclosing patterns
 * (one per level), the execution-count multiplier, and the branch depth.
 */
class Generator
{
  public:
    Generator(const Program &prog, const AnalysisEnv &env,
              const DeviceConfig &device, const IntrinsicWeights &weights,
              ConstraintSet &out)
        : prog(prog), env(env), device(device), weights(weights), out(out)
    {}

    /** Register a let definition so strides see through it. */
    void
    registerLet(const Stmt &s)
    {
        if (s.kind != StmtKind::Let || prog.var(s.var).isMutable)
            return;
        env.localDefs[s.var] = resolveLocals(s.value, env);
    }

    void
    run()
    {
        const int levels = prog.numLevels();
        out.numLevels = levels;
        out.levelSizes.assign(levels, 0.0);
        out.mustSpanAll.assign(levels, false);
        out.splittable.assign(levels, true);
        out.unsplittableReason.assign(levels, std::string());

        visitPattern(prog.root(), 1.0, 0);

        // Root map/zipWith/filter implicitly store out[i]: sequential in
        // the root index (weight = root size, one store per iteration).
        const Pattern &root = prog.root();
        if (root.kind == PatternKind::Map ||
            root.kind == PatternKind::ZipWith) {
            Constraint c;
            c.kind = Constraint::Kind::SoftCoalesce;
            c.level = 0;
            c.weight = weights.coalesce * out.levelSizes[0];
            c.reason = fmt("{}: output store", prog.name());
            out.all.push_back(c);
        }

        // Soft global: enough threads per block (Table II). Weight scales
        // with total work so it is comparable to, but weaker than, the
        // coalescing constraints of the innermost level.
        double totalIters = 1.0;
        for (double s : out.levelSizes)
            totalIters *= std::max(s, 1.0);
        Constraint blockC;
        blockC.kind = Constraint::Kind::SoftMinBlock;
        blockC.weight = weights.minBlock * totalIters;
        blockC.reason = "min block size";
        out.all.push_back(blockC);
    }

  private:
    struct Enclosing
    {
        const Pattern *pattern;
        int level;
    };


    void
    visitPattern(const Pattern &p, double multiplier, int level)
    {
        const double size = sizeForAnalysis(p.size, env);
        out.levelSizes[level] = std::max(out.levelSizes[level], size);

        // Hard span constraints (Table II, hard local; merged per level
        // which realizes the hard global most-conservative-span rule).
        if (requiresGlobalSync(p.kind)) {
            out.mustSpanAll[level] = true;
            // Only Reduce has a plannable combiner kernel; Filter and
            // GroupBy cannot be split across blocks.
            const bool canSplit = p.kind == PatternKind::Reduce;
            if (!canSplit) {
                markUnsplittable(level, fmt("{} has no combiner kernel",
                                            patternKindName(p.kind)));
            }
            Constraint c;
            c.kind = Constraint::Kind::HardSpanAll;
            c.level = level;
            c.splittable = canSplit;
            c.reason = fmt("{} requires global synchronization",
                           patternKindName(p.kind));
            out.all.push_back(c);
        }
        if (!sizeKnownAtLaunch(p.size, prog)) {
            out.mustSpanAll[level] = true;
            markUnsplittable(level, "size unknown at kernel launch");
            Constraint c;
            c.kind = Constraint::Kind::HardSpanAll;
            c.level = level;
            c.splittable = false;
            c.reason = "size unknown at kernel launch";
            out.all.push_back(c);
        }

        if (enclosingStore()) {
            // Each block of this level reruns the enclosing bodies, so
            // their Stores would take effect once per block: one block
            // must cover the level.
            const std::string reason = "a Store in an enclosing body would "
                                       "run once per block of this level";
            out.mustSpanAll[level] = true;
            markUnsplittable(level, reason);
            Constraint c;
            c.kind = Constraint::Kind::HardSpanAll;
            c.level = level;
            c.reason = reason;
            out.all.push_back(c);
        }

        enclosing.push_back({&p, level});
        const double inner = multiplier * std::max(size, 1.0);

        // The size expression itself may load memory (e.g. CSR row
        // offsets); those loads execute once per iteration of the
        // *enclosing* patterns. Same for a nested groupBy's key-domain
        // size (the output allocation size).
        visitAccessesInExpr(p.size, multiplier, /*skipSelf=*/true);
        visitAccessesInExpr(p.keyDomain, multiplier, true);

        visitStmts(p.body, inner, level, 0);
        visitAccessesInExpr(p.yield, inner, false);
        visitAccessesInExpr(p.filterPred, inner, false);
        visitAccessesInExpr(p.key, inner, false);

        // Variable-size nested outputs write through the local-array
        // layout: the filter's compaction cursor advances with the
        // iteration order (unit stride in this level's index), the
        // groupBy bins are indexed by the data-dependent key. Both
        // targets are array locals, so the constraint is flexible — the
        // prealloc layout can absorb whatever dimension the search picks.
        if (level > 0 && p.kind == PatternKind::Filter) {
            addAccessConstraints(varRef(p.indexVar, ScalarKind::I64),
                                 VarRole::ArrayLocal, inner, 0,
                                 "nested filter compacted store",
                                 /*isWrite=*/true);
        }
        if (level > 0 && p.kind == PatternKind::GroupBy) {
            addAccessConstraints(p.key, VarRole::ArrayLocal, inner, 0,
                                 "nested groupBy keyed store",
                                 /*isWrite=*/true);
        }
        enclosing.pop_back();
    }

    void
    visitStmts(const std::vector<StmtPtr> &stmts, double multiplier,
               int level, int branchDepth)
    {
        for (const auto &s : stmts) {
            switch (s->kind) {
              case StmtKind::Let:
              case StmtKind::Assign:
                visitAccesses(s->value, multiplier, branchDepth);
                registerLet(*s);
                break;
              case StmtKind::Store:
                visitAccesses(s->value, multiplier, branchDepth);
                visitAccesses(s->index, multiplier, branchDepth);
                addAccessConstraints(s->index, prog.var(s->array).role,
                                     multiplier, branchDepth,
                                     fmt("store to {}",
                                         prog.var(s->array).name),
                                     /*isWrite=*/true);
                break;
              case StmtKind::If:
                visitAccesses(s->cond, multiplier, branchDepth);
                visitStmts(s->body, multiplier, level, branchDepth + 1);
                visitStmts(s->elseBody, multiplier, level,
                           branchDepth + 1);
                break;
              case StmtKind::SeqLoop: {
                visitAccesses(s->trip, multiplier, branchDepth);
                double trip = 1000.0;
                if (auto t = constEval(s->trip, env))
                    trip = *t;
                seqLoopDepth++;
                visitStmts(s->body, multiplier * std::max(trip, 1.0),
                           level, branchDepth);
                seqLoopDepth--;
                break;
              }
              case StmtKind::Nested: {
                const bool reduce = s->pattern->kind == PatternKind::Reduce;
                if (reduce &&
                    (branchDepth > 0 || usedBeyondYield(stmts, s.get()))) {
                    // A split partial cannot flow anywhere except the
                    // enclosing yield (the combiner applies it there).
                    markUnsplittable(level + 1,
                                     "reduce partial used beyond the "
                                     "enclosing yield");
                } else if (reduce && seqLoopDepth > 0) {
                    // Partials are keyed by the enclosing indices, not
                    // by the loop counter, so every iteration would add
                    // its partial into the same slot.
                    markUnsplittable(level + 1,
                                     "a sequential loop around the "
                                     "reduce would add every iteration's "
                                     "partial into one slot");
                }
                visitPattern(*s->pattern, multiplier, level + 1);
                break;
              }
            }
        }
    }

    /** Emit constraints for every Read inside expr (recursively). */
    void
    visitAccesses(const ExprRef &expr, double multiplier, int branchDepth)
    {
        if (!expr)
            return;
        walkExpr(expr, [&](const Expr &e) {
            if (e.kind == ExprKind::Read) {
                addAccessConstraints(e.a, prog.var(e.varId).role,
                                     multiplier, branchDepth,
                                     fmt("read of {}",
                                         prog.var(e.varId).name));
            }
        });
    }

    /** Like visitAccesses but used for expressions evaluated outside the
     *  current pattern's per-iteration body. */
    void
    visitAccessesInExpr(const ExprRef &expr, double multiplier, bool)
    {
        visitAccesses(expr, multiplier, 0);
    }

    /**
     * Add coalescing soft constraints for one access site: for every
     * enclosing level whose index appears with stride +-1, that level
     * wants dimension x (Fig 8).
     */
    void
    addAccessConstraints(const ExprRef &indexExpr, VarRole targetRole,
                         double multiplier, int branchDepth,
                         std::string reason, bool isWrite = false)
    {
        const double discount = std::pow(0.5, branchDepth);
        const bool flexible = targetRole == VarRole::ArrayLocal;
        const ExprRef resolved = resolveLocals(indexExpr, env);

        AccessSite site;
        site.execCount = multiplier * discount;
        site.isWrite = isWrite;
        site.level = enclosing.empty() ? 0 : enclosing.back().level;

        for (const Enclosing &enc : enclosing) {
            auto coeff = coeffOf(resolved, enc.pattern->indexVar, env);
            if (enc.level < 4) {
                if (coeff) {
                    site.coeff[enc.level] = *coeff;
                } else {
                    site.affine[enc.level] = false;
                }
            }
            if (!coeff || std::fabs(*coeff) != 1.0)
                continue;
            Constraint c;
            c.kind = Constraint::Kind::SoftCoalesce;
            c.level = enc.level;
            c.weight = weights.coalesce * multiplier * discount;
            c.flexible = flexible;
            c.reason = reason;
            out.all.push_back(c);
        }
        if (!flexible)
            out.accesses.push_back(site);
    }

    /** Forbid Split(k) at `level`, keeping the first reason. */
    void
    markUnsplittable(int level, const std::string &reason)
    {
        if (out.splittable[level])
            out.unsplittableReason[level] = reason;
        out.splittable[level] = false;
    }

    /** True if `stmts` store to an array at their own level: directly
     *  or under If/SeqLoop, not inside nested patterns (those run per
     *  segment of their own level). */
    static bool
    storesAtLevel(const std::vector<StmtPtr> &stmts)
    {
        for (const auto &s : stmts) {
            if (s->kind == StmtKind::Store || storesAtLevel(s->body) ||
                storesAtLevel(s->elseBody))
                return true;
        }
        return false;
    }

    /** True if any enclosing pattern body stores at its own level. */
    bool
    enclosingStore() const
    {
        for (const Enclosing &e : enclosing) {
            if (storesAtLevel(e.pattern->body))
                return true;
        }
        return false;
    }

    /** True if the reduce result var is referenced by any statement
     *  after the reduce (other than via the enclosing yield). */
    bool
    usedBeyondYield(const std::vector<StmtPtr> &stmts,
                    const Stmt *reduceStmt) const
    {
        bool seen = false, used = false;
        for (const auto &s : stmts) {
            if (s.get() == reduceStmt) {
                seen = true;
                continue;
            }
            if (!seen)
                continue;
            const int var = reduceStmt->var;
            auto usesVar = [&](const ExprRef &e) {
                if (e && mentionsVar(e, var))
                    used = true;
            };
            usesVar(s->value);
            usesVar(s->index);
            usesVar(s->cond);
            usesVar(s->trip);
            // Conservative: any later nested pattern or block mentioning
            // the var counts as a use.
            std::function<void(const std::vector<StmtPtr> &)> scan =
                [&](const std::vector<StmtPtr> &body) {
                    for (const auto &b : body) {
                        usesVar(b->value);
                        usesVar(b->index);
                        usesVar(b->cond);
                        usesVar(b->trip);
                        scan(b->body);
                        scan(b->elseBody);
                        if (b->pattern) {
                            usesVar(b->pattern->size);
                            usesVar(b->pattern->yield);
                            usesVar(b->pattern->filterPred);
                            usesVar(b->pattern->key);
                            scan(b->pattern->body);
                        }
                    }
                };
            scan(s->body);
            scan(s->elseBody);
            if (s->pattern) {
                usesVar(s->pattern->size);
                usesVar(s->pattern->yield);
                scan(s->pattern->body);
            }
        }
        return used;
    }

    const Program &prog;
    AnalysisEnv env; // mutable copy: accumulates local definitions
    const DeviceConfig &device;
    const IntrinsicWeights &weights;
    ConstraintSet &out;
    std::vector<Enclosing> enclosing;
    /** SeqLoops open around the statement being visited, in this body
     *  or any enclosing one. */
    int seqLoopDepth = 0;
};

} // namespace

ConstraintSet
buildConstraints(const Program &prog, const AnalysisEnv &env,
                 const DeviceConfig &device, const IntrinsicWeights &weights)
{
    ConstraintSet out;
    Generator gen(prog, env, device, weights, out);
    gen.run();
    return out;
}

} // namespace npp
