/**
 * @file
 * Compiled kernel specification: the structured result of the compilation
 * pipeline (mapping analysis + optimizations) that both the CUDA emitter
 * renders to source text and the GPU simulator executes. This is the
 * "selected template + parameters" of Section IV-E.
 */

#ifndef NPP_CODEGEN_PLAN_H
#define NPP_CODEGEN_PLAN_H

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/consolidate.h"
#include "analysis/mapping.h"
#include "analysis/search.h"
#include "ir/program.h"

namespace npp {

/**
 * How an inner-pattern array allocation is realized (Section V-A).
 */
struct LocalArrayPlan
{
    /** The ArrayLocal variable this plan covers. */
    int varId = -1;

    /** Level of the nested pattern that produces the array. */
    int definingLevel = 1;

    enum class Mode {
        /** Per-thread dynamic allocation inside the kernel (the naive
         *  translation; slow device-heap malloc per outer iteration). */
        ThreadMalloc,
        /** One preallocation for the whole kernel, regions assigned per
         *  outer iteration. */
        Prealloc
    };

    enum class Layout {
        /** Fig 11 (a): iteration m owns [m*N, (m+1)*N), stride 1.
         *  Coalesced when the defining (inner) level is dimension x. */
        Contiguous,
        /** Fig 11 (b): element j of iteration m lives at j*M + m,
         *  stride M. Coalesced when an enclosing level is dimension x. */
        Interleaved
    };

    Mode mode = Mode::Prealloc;
    Layout layout = Layout::Contiguous;

    /** True for Filter-produced locals: the allocation is the static
     *  upper bound but only a per-iteration prefix is valid, so the
     *  kernel plan gains a count/scan/scatter compaction finalize step
     *  (Section V-A applied to variable-size outputs). */
    bool variableSize = false;

    std::string toString() const;
};

/**
 * Everything needed to run (or render) one compiled program.
 */
struct KernelSpec
{
    const Program *prog = nullptr;

    MappingDecision mapping;

    /** Plans for every ArrayLocal in the program. */
    std::vector<LocalArrayPlan> locals;

    /** Read expressions served via shared-memory prefetching
     *  (Section V-B). The simulator keys its probe by the exprs'
     *  stable readSite ids, not by these addresses. */
    std::unordered_set<const Expr *> prefetchedSites;

    /** Shared memory bytes per block this spec requires (reduction
     *  scratch + prefetch staging). */
    int64_t sharedMemPerBlock = 0;

    /** Hand-written-style kernel: raw-pointer accesses (1 op) instead of
     *  the generated wrapper's index computation (2 ops). */
    bool rawPointers = false;

    /** Score/DOP diagnostics from the search (0 for preset mappings). */
    double score = 0.0;
    double dop = 0.0;

    /** The compile-time parameter values the spec was built with
     *  (CompileOptions::paramValues), so an evaluation of the spec can
     *  size its param-sized levels. */
    std::unordered_map<int, double> paramValues;

    /** Generated CUDA source for all kernels of this program. */
    std::string cudaSource;

    /** Consolidated-queue organization (Strategy::Consolidate). When
     *  enabled, the emitter renders the bin-build prologue and the
     *  simulator runs queue-build + consumption phases; when disabled,
     *  verdict names why (eligibility reason). */
    ConsolidationPlan consolidation;

    /** Find the plan for a local array var (nullptr if none). */
    const LocalArrayPlan *localPlan(int varId) const;
};

} // namespace npp

#endif // NPP_CODEGEN_PLAN_H
