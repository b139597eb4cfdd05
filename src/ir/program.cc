#include "ir/program.h"

#include <algorithm>
#include <atomic>

#include "ir/traverse.h"
#include "support/logging.h"

namespace npp {

uint64_t
Program::FreshId::next()
{
    static std::atomic<uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

int
Program::addVar(VarInfo info)
{
    info.id = static_cast<int>(vars_.size());
    vars_.push_back(std::move(info));
    return vars_.back().id;
}

const VarInfo &
Program::var(int id) const
{
    NPP_ASSERT(id >= 0 && id < numVars(), "var id {} out of range", id);
    return vars_[id];
}

VarInfo &
Program::var(int id)
{
    NPP_ASSERT(id >= 0 && id < numVars(), "var id {} out of range", id);
    return vars_[id];
}

const Pattern &
Program::root() const
{
    NPP_ASSERT(root_ != nullptr, "program {} has no root pattern", name_);
    return *root_;
}

Pattern &
Program::root()
{
    NPP_ASSERT(root_ != nullptr, "program {} has no root pattern", name_);
    return *root_;
}

int
Program::numLevels() const
{
    return root().depth();
}

namespace {

/** A launch may write an array param only if it is declared output:
 *  both eval-cache tiers capture and replay only output arrays, and a
 *  launch keeps only its outputs' HostArray digests current. */
void
requireOutput(const Program &prog, int varId, const char *what)
{
    const VarInfo &v = prog.var(varId);
    if (v.role == VarRole::ArrayParam && !v.isOutput) {
        NPP_FATAL("{}: {} {} is an input array param, not declared "
                  "output",
                  prog.name(), what, v.name);
    }
}

void
validateStmts(const Program &prog, const std::vector<StmtPtr> &stmts,
              bool atRoot);

void
validatePattern(const Program &prog, const Pattern &p, bool atRoot)
{
    if (!p.size)
        NPP_FATAL("{}: pattern {} has no size", prog.name(),
                  patternKindName(p.kind));
    if (p.indexVar < 0 || p.indexVar >= prog.numVars())
        NPP_FATAL("{}: pattern has unregistered index var", prog.name());
    if (prog.var(p.indexVar).role != VarRole::Index)
        NPP_FATAL("{}: pattern index var {} has wrong role", prog.name(),
                  prog.var(p.indexVar).name);

    // A runtime-sized domain may read bound input data (CSR row extents,
    // frontier degrees), but never an output array: the extent would
    // then depend on the launch's own stores, and neither the mapping
    // analysis nor the bin-build prologue could lay the domain out
    // before the kernel runs.
    walkExpr(p.size, [&](const Expr &e) {
        if (e.kind == ExprKind::Read && e.varId >= 0 &&
            prog.var(e.varId).role == VarRole::ArrayParam &&
            prog.var(e.varId).isOutput) {
            NPP_FATAL("{}: pattern size reads output array {} — a "
                      "domain extent must be launch- or "
                      "ancestor-determined, not a result of the launch",
                      prog.name(), prog.var(e.varId).name);
        }
    });

    switch (p.kind) {
      case PatternKind::Map:
      case PatternKind::ZipWith:
        if (!p.yield)
            NPP_FATAL("{}: map/zipWith needs a yield", prog.name());
        break;
      case PatternKind::Foreach:
        if (p.yield)
            NPP_FATAL("{}: foreach must not yield", prog.name());
        break;
      case PatternKind::Filter:
        if (!p.yield || !p.filterPred)
            NPP_FATAL("{}: filter needs yield and predicate", prog.name());
        break;
      case PatternKind::Reduce:
        if (!p.yield)
            NPP_FATAL("{}: reduce needs a yield", prog.name());
        if (!isCombinerOp(p.combiner))
            NPP_FATAL("{}: reduce combiner {} is not associative",
                      prog.name(), opName(p.combiner));
        break;
      case PatternKind::GroupBy:
        if (!p.yield || !p.key)
            NPP_FATAL("{}: groupBy needs yield and key", prog.name());
        if (!isCombinerOp(p.combiner))
            NPP_FATAL("{}: groupBy combiner {} is not associative",
                      prog.name(), opName(p.combiner));
        if (!atRoot && !p.keyDomain)
            NPP_FATAL("{}: nested groupBy needs a key-domain size "
                      "(the output array local's length)",
                      prog.name());
        break;
    }
    validateStmts(prog, p.body, false);
}

void
validateStmts(const Program &prog, const std::vector<StmtPtr> &stmts,
              bool atRoot)
{
    for (const auto &s : stmts) {
        switch (s->kind) {
          case StmtKind::Let:
          case StmtKind::Assign:
            if (!s->value || s->var < 0)
                NPP_FATAL("{}: malformed let/assign", prog.name());
            break;
          case StmtKind::Store:
            if (!s->value || !s->index || s->array < 0)
                NPP_FATAL("{}: malformed store", prog.name());
            if (prog.var(s->array).role != VarRole::ArrayParam &&
                prog.var(s->array).role != VarRole::ArrayLocal) {
                NPP_FATAL("{}: store target {} is not an array",
                          prog.name(), prog.var(s->array).name);
            }
            requireOutput(prog, s->array, "store target");
            break;
          case StmtKind::If:
            if (!s->cond)
                NPP_FATAL("{}: if without condition", prog.name());
            validateStmts(prog, s->body, atRoot);
            validateStmts(prog, s->elseBody, atRoot);
            break;
          case StmtKind::SeqLoop:
            if (!s->trip || s->var < 0)
                NPP_FATAL("{}: malformed seq loop", prog.name());
            validateStmts(prog, s->body, false);
            break;
          case StmtKind::Nested:
            if (!s->pattern)
                NPP_FATAL("{}: nested stmt without pattern", prog.name());
            if (s->pattern->kind == PatternKind::Filter) {
                if (s->var < 0 ||
                    prog.var(s->var).role != VarRole::ArrayLocal) {
                    NPP_FATAL("{}: nested filter needs a result array "
                              "local",
                              prog.name());
                }
                if (s->countVar < 0 || s->countVar >= prog.numVars() ||
                    prog.var(s->countVar).role != VarRole::ScalarLocal) {
                    NPP_FATAL("{}: nested filter needs a kept-count "
                              "scalar local",
                              prog.name());
                }
            }
            validatePattern(prog, *s->pattern, false);
            break;
        }
    }
}

/**
 * Assign stable trace-site ids to every Pattern, Stmt, and Read expression
 * that does not have one yet. Ids are pre-order positions of the program's
 * structural walk, so rebuilding an identical program yields identical ids
 * — the simulator's access-grouping keys must not depend on node addresses
 * (which vary run to run and made simulated metrics nondeterministic).
 *
 * Assignment is write-once: nodes that already carry an id keep it. This
 * matters for rewritten programs (opt/fusion.cc) which share immutable
 * Expr subtrees with their source — the source's ids stay untouched (so
 * concurrent compiles of the source only ever *read* them) and only the
 * rewrite's fresh, thread-private nodes are numbered, continuing after the
 * largest id already present in the tree.
 */
void
assignTraceSites(const Pattern &root)
{
    int maxSite = -1;
    Walker scan;
    scan.onPattern = [&](const Pattern &p, const WalkCtx &) {
        maxSite = std::max(maxSite, p.site);
    };
    scan.onStmt = [&](const Stmt &s, const WalkCtx &) {
        maxSite = std::max(maxSite, s.site);
    };
    scan.onExpr = [&](const Expr &e, const WalkCtx &) {
        if (e.kind == ExprKind::Read)
            maxSite = std::max(maxSite, e.readSite);
    };
    walkPattern(root, scan);

    int next = maxSite + 1;
    Walker assign;
    assign.onPattern = [&](const Pattern &p, const WalkCtx &) {
        if (p.site < 0)
            p.site = next++;
    };
    assign.onStmt = [&](const Stmt &s, const WalkCtx &) {
        if (s.site < 0)
            s.site = next++;
    };
    assign.onExpr = [&](const Expr &e, const WalkCtx &) {
        if (e.kind == ExprKind::Read && e.readSite < 0)
            e.readSite = next++;
    };
    walkPattern(root, assign);
}

} // namespace

void
Program::validate() const
{
    if (!root_)
        NPP_FATAL("{}: no root pattern", name_);
    validatePattern(*this, *root_, true);
    assignTraceSites(*root_);

    const Pattern &r = *root_;
    const bool yields = r.kind != PatternKind::Foreach;
    if (yields) {
        if (rootOutput_ < 0)
            NPP_FATAL("{}: root pattern yields but no output bound", name_);
        if (var(rootOutput_).role != VarRole::ArrayParam)
            NPP_FATAL("{}: root output {} is not an array param", name_,
                      var(rootOutput_).name);
        requireOutput(*this, rootOutput_, "root output");
    }
    if (r.kind == PatternKind::Filter) {
        if (countOutput_ < 0)
            NPP_FATAL("{}: root filter needs a count output", name_);
        if (var(countOutput_).role != VarRole::ArrayParam)
            NPP_FATAL("{}: root filter count output {} is not an array "
                      "param",
                      name_, var(countOutput_).name);
        requireOutput(*this, countOutput_, "root filter count output");
    }
}

} // namespace npp
