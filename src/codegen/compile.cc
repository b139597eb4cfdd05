#include "codegen/compile.h"

#include <set>

#include "codegen/cuda_emit.h"
#include "ir/traverse.h"
#include "opt/fusion.h"
#include "opt/smem.h"
#include "sim/executor.h"
#include "support/logging.h"
#include "support/strings.h"
#include "support/trace.h"

namespace npp {

const char *
strategyName(Strategy strategy)
{
    switch (strategy) {
      case Strategy::MultiDim: return "MultiDim";
      case Strategy::OneD: return "1D";
      case Strategy::ThreadBlockThread: return "ThreadBlock/Thread";
      case Strategy::WarpBased: return "Warp-based";
      case Strategy::Fixed: return "Fixed";
      case Strategy::Consolidate: return "Consolidate";
    }
    return "?";
}

std::vector<int>
reduceLevelsOf(const Program &prog)
{
    std::set<int> levels;
    for (const auto &[pattern, level] : collectPatterns(prog.root())) {
        if (pattern->kind == PatternKind::Reduce)
            levels.insert(level);
    }
    return {levels.begin(), levels.end()};
}

CompileResult
compileProgram(const Program &sourceProg, const DeviceConfig &device,
               const CompileOptions &options)
{
    NPP_TRACE_SCOPE("codegen.compile");
    NPP_TRACE_COUNT("compile.calls", 1);
    sourceProg.validate();

    CompileResult result;
    const Program *progPtr = &sourceProg;
    if (options.fuseMapReduce) {
        FusionResult fusion = fuseMapReduce(sourceProg);
        if (fusion.fused > 0) {
            // Re-validate: the rewrite produced fresh Stmt/Pattern nodes
            // (and some fresh Exprs) that still need trace-site ids; nodes
            // shared with sourceProg keep theirs.
            fusion.program->validate();
            result.ownedProgram = fusion.program;
            result.fusedPatterns = fusion.fused;
            progPtr = result.ownedProgram.get();
        }
    }
    const Program &prog = *progPtr;

    AnalysisEnv env;
    env.prog = &prog;
    env.paramValues = options.paramValues;

    result.constraints = buildConstraints(prog, env, device);

    const int levels = prog.numLevels();
    MappingDecision mapping;
    switch (options.strategy) {
      case Strategy::MultiDim: {
        SearchOptions sopts;
        sopts.preallocLayouts = options.prealloc.enable &&
                                options.prealloc.layoutFromMapping;
        sopts.keepCandidates = options.keepCandidates;
        sopts.objective = options.objective;
        sopts.explain = options.explainSearch;
        MappingSearch search(device, sopts);
        SearchResult sres = search.search(result.constraints);
        mapping = sres.best;
        result.spec.score = sres.bestScore;
        result.spec.dop = sres.bestDop;
        result.candidates = std::move(sres.candidates);
        result.explanation = std::move(sres.explanation);
        break;
      }
      case Strategy::OneD: {
        // Same compiler, same search — restricted to the outer level
        // (Section VI-C: "a directive that forces the compiler to
        // ignore all but the outermost level of parallelism").
        SearchOptions sopts;
        sopts.preallocLayouts = options.prealloc.enable &&
                                options.prealloc.layoutFromMapping;
        sopts.outerOnly = true;
        sopts.explain = options.explainSearch;
        MappingSearch search(device, sopts);
        SearchResult sres = search.search(result.constraints);
        mapping = sres.best;
        result.spec.score = sres.bestScore;
        result.spec.dop = sres.bestDop;
        result.explanation = std::move(sres.explanation);
        break;
      }
      case Strategy::ThreadBlockThread:
        mapping = threadBlockThreadMapping(levels, device);
        break;
      case Strategy::WarpBased:
        mapping = warpBasedMapping(levels, device);
        break;
      case Strategy::Consolidate: {
        // Run the full search first so an ineligible program still
        // compiles to the best static mapping — the verdict names why
        // consolidation did not engage.
        SearchOptions sopts;
        sopts.preallocLayouts = options.prealloc.enable &&
                                options.prealloc.layoutFromMapping;
        sopts.keepCandidates = options.keepCandidates;
        sopts.objective = options.objective;
        sopts.explain = options.explainSearch;
        MappingSearch search(device, sopts);
        SearchResult sres = search.search(result.constraints);
        mapping = sres.best;
        result.spec.score = sres.bestScore;
        result.spec.dop = sres.bestDop;
        result.candidates = std::move(sres.candidates);
        result.explanation = std::move(sres.explanation);

        ConsolidationPlan &plan = result.spec.consolidation;
        const std::string reason = consolidationEligibility(prog);
        if (reason.empty()) {
            plan.enabled = true;
            plan.granularity = options.binGranularity;
            plan.binLanes = options.binGranularity == BinGranularity::Warp
                                ? device.warpSize
                                : 256;
            plan.verdict = fmt("consolidated: {}-bin queues, {} lanes "
                               "per group",
                               binGranularityName(plan.granularity),
                               plan.binLanes);
            mapping = consolidatedMapping(plan.binLanes);
            result.spec.dop =
                mapping.dop(result.constraints.levelSizes);
        } else {
            plan.verdict = "not consolidated: " + reason;
        }
        break;
      }
      case Strategy::Fixed:
        mapping = options.fixedMapping;
        // Applications mix programs of different depths (e.g. Gaussian's
        // one-level Fan1 next to the two-level Fan2); adapt the fixed
        // mapping rather than forcing callers to supply one per program.
        if (mapping.numLevels() > levels) {
            if (levels == 1) {
                mapping = oneDMapping(1, device);
            } else {
                mapping.levels.resize(levels);
            }
        } else {
            while (mapping.numLevels() < levels) {
                uint32_t used = 0;
                for (const auto &l : mapping.levels)
                    used |= 1u << l.dim;
                int dim = 0;
                while (used & (1u << dim))
                    dim++;
                LevelMapping seq;
                seq.dim = dim;
                seq.blockSize = 1;
                seq.span = SpanType::all();
                mapping.levels.push_back(seq);
            }
        }
        break;
    }
    if (options.strategy != Strategy::MultiDim &&
        options.strategy != Strategy::OneD &&
        options.strategy != Strategy::Consolidate) {
        applyHardSpans(mapping, result.constraints);
        MappingSearch scorer(device);
        result.spec.score = scorer.score(mapping, result.constraints);
        result.spec.dop = mapping.dop(result.constraints.levelSizes);
        if (options.explainSearch) {
            // Fixed strategies skip the search, but the selected
            // mapping's checks and contributions are still explainable.
            result.explanation.valid = true;
            result.explanation.selected =
                scorer.explain(mapping, result.constraints);
        }
    }

    KernelSpec &spec = result.spec;
    spec.prog = &prog;
    spec.mapping = mapping;
    spec.rawPointers = options.rawPointers;
    spec.paramValues = options.paramValues;
    spec.locals = planLocalArrays(prog, mapping, options.prealloc);

    if (options.smemPrefetch) {
        PrefetchPlan prefetch = findPrefetchable(prog, mapping, env);
        spec.prefetchedSites = std::move(prefetch.sites);
        spec.sharedMemPerBlock += prefetch.sharedBytes;
    }

    // Reduction scratch: one slot per thread for each parallel reduce
    // level (Fig 9's smem array).
    for (int lv : reduceLevelsOf(prog)) {
        if (mapping.levels[lv].blockSize > 1)
            spec.sharedMemPerBlock += mapping.threadsPerBlock() * 8;
    }
    if (spec.sharedMemPerBlock > device.sharedMemPerBlockLimit) {
        NPP_WARN("{}: spec needs {} B shared memory, device limit {} B",
                 prog.name(), spec.sharedMemPerBlock,
                 device.sharedMemPerBlockLimit);
    }

    spec.cudaSource = emitCuda(spec);
    spec.parallelRefusal = blockParallelRefusal(spec);
    return result;
}

} // namespace npp
