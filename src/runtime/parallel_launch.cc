#include "runtime/parallel_launch.h"

#include <algorithm>

#include "ir/traverse.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "support/trace.h"

namespace npp {

namespace {

/** The array params `prog` writes, sorted by var id: the root output
 *  (and a root Filter's count), every Store target, and any nested
 *  pattern whose result is a param. */
std::vector<int>
writtenArrays(const Program &prog)
{
    std::vector<int> written;
    const auto add = [&](int var) {
        if (var >= 0 && prog.var(var).role == VarRole::ArrayParam)
            written.push_back(var);
    };
    add(prog.rootOutput());
    add(prog.countOutput());
    Walker walker;
    walker.onStmt = [&](const Stmt &s, const WalkCtx &) {
        if (s.kind == StmtKind::Store)
            add(s.array);
        if (s.kind == StmtKind::Nested)
            add(s.var);
    };
    walkPattern(prog.root(), walker);
    std::sort(written.begin(), written.end());
    written.erase(std::unique(written.begin(), written.end()),
                  written.end());
    return written;
}

} // namespace

std::string
rootParallelRefusal(const Program &prog)
{
    switch (prog.root().kind) {
      case PatternKind::Map:
      case PatternKind::ZipWith:
      case PatternKind::Foreach:
        break;
      case PatternKind::Filter:
        return "R1: root Filter appends at one launch-wide cursor";
      case PatternKind::GroupBy:
        return "R1: root GroupBy read-modify-writes its output";
      case PatternKind::Reduce:
        return "R1: root Reduce folds into one result";
    }
    const std::vector<int> written = writtenArrays(prog);
    std::string why;
    Walker walker;
    walker.onExpr = [&](const Expr &e, const WalkCtx &) {
        if (why.empty() && e.kind == ExprKind::Read &&
            std::binary_search(written.begin(), written.end(), e.varId))
            why = fmt("R3: reads written array {}", prog.var(e.varId).name);
    };
    walkPattern(prog.root(), walker);
    return why;
}

std::string
storageAliasRefusal(const Program &prog,
                    const std::vector<ArraySlot> &arrays)
{
    const auto span = [&](int var) {
        const ArraySlot &s = arrays[var];
        const auto lo = reinterpret_cast<uintptr_t>(s.data);
        return std::pair(lo, lo + static_cast<uintptr_t>(s.physSize) *
                                      sizeof(double));
    };
    for (const int w : writtenArrays(prog)) {
        const auto [wlo, whi] = span(w);
        if (wlo == whi)
            continue;
        for (const auto &v : prog.vars()) {
            if (v.id == w || v.role != VarRole::ArrayParam)
                continue;
            const auto [lo, hi] = span(v.id);
            if (lo < whi && wlo < hi) {
                return fmt("R3: written array {} shares storage with {}",
                           prog.var(w).name, v.name);
            }
        }
    }
    return {};
}

int
launchWorkers(int64_t units, const char *unit, std::string &why)
{
    if (units < 2) {
        why = fmt("R5: fewer than two {}", unit);
        return 1;
    }
    const int threads = parallelThreadCount();
    if (threads <= 1) {
        why = "R5: a one-thread pool";
        return 1;
    }
    if (inParallelRegion()) {
        why = "R5: inside a parallel region";
        return 1;
    }
    return static_cast<int>(std::min<int64_t>(threads, units));
}

OwnerWords::OwnerWords(const Program &prog,
                       const std::vector<ArraySlot> &arrays)
    : words_(arrays.size())
{
    for (const int w : writtenArrays(prog)) {
        const int64_t n = arrays[w].physSize;
        if (n > 0)
            words_[w] = std::make_unique<std::atomic<uint32_t>[]>(n);
    }
}

void
traceLaunchOutcome(const char *layer, LaunchOutcome outcome,
                   const Program &prog, const std::string &reason)
{
    Trace &tr = Trace::instance();
    if (!tr.enabled())
        return;
    const char *what = outcome == LaunchOutcome::Parallel
                           ? "parallel_launches"
                           : outcome == LaunchOutcome::Serial
                                 ? "serial_launches"
                                 : "serial_reruns";
    const std::string name = fmt("{}.{}", layer, what);
    tr.count(name.c_str(), 1);
    const std::string detail =
        reason.empty() ? fmt("{}/{}", name, prog.name())
                       : fmt("{}/{}: {}", name, prog.name(), reason);
    tr.count(detail.c_str(), 1);
}

} // namespace npp
