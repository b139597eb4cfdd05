/**
 * @file
 * Structure tests for the CUDA emitter (Section IV-E): different mapping
 * decisions must select different code templates — strided span(all)
 * loops, shared-memory tree reductions, split combiner kernels,
 * preallocation offset/stride addressing, and per-thread malloc.
 */

#include <gtest/gtest.h>

#include <regex>

#include "codegen/compile.h"
#include "ir/builder.h"
#include "server/programs.h"

namespace npp {
namespace {

Program
makeSumRows()
{
    ProgramBuilder b("sumRows");
    Arr m = b.inF64("m");
    Ex r = b.paramI64("R"), c = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        return fn.reduce(c, Op::Add,
                         [&](Body &, Ex j) { return m(i * c + j); });
    });
    return b.build();
}

Program
makeWeighted()
{
    ProgramBuilder b("weighted");
    Arr m = b.inF64("m");
    Arr v = b.inF64("v");
    Ex r = b.paramI64("R"), c = b.paramI64("C");
    Arr out = b.outF64("out");
    b.map(r, out, [&](Body &fn, Ex i) {
        Arr temp = fn.zipWith(
            c, [&](Body &, Ex j) { return m(i * c + j) * v(j); });
        return fn.reduce(c, Op::Add,
                         [&](Body &, Ex j) { return temp(j); });
    });
    return b.build();
}

std::string
compileToCuda(const Program &prog, CompileOptions copts = {})
{
    return compileProgram(prog, teslaK20c(), copts).spec.cudaSource;
}

TEST(CudaEmit, SumRowsFig9Shape)
{
    Program p = makeSumRows();
    CompileOptions copts;
    copts.strategy = Strategy::Fixed;
    // The paper's Fig 9 mapping: [DimY, 64, span(1)], [DimX, 32, span(all)].
    copts.fixedMapping.levels = {{1, 64, SpanType::one()},
                                 {0, 32, SpanType::all()}};
    std::string cuda = compileToCuda(p, copts);

    EXPECT_NE(cuda.find("__global__ void sumRows_kernel"),
              std::string::npos);
    // Outer level: span(1) index from block/thread ids on y.
    EXPECT_NE(cuda.find("blockIdx.y * blockDim.y + threadIdx.y"),
              std::string::npos);
    // Inner level: strided span(all) loop on x (Fig 9 line 8).
    EXPECT_NE(cuda.find("= threadIdx.x;"), std::string::npos);
    EXPECT_NE(cuda.find("+= blockDim.x"), std::string::npos);
    // Parallel reduce: shared memory + barrier + tree combine.
    EXPECT_NE(cuda.find("__shared__ double red_smem_1["), std::string::npos);
    EXPECT_NE(cuda.find("__syncthreads();"), std::string::npos);
    // Guarded single-lane output store.
    EXPECT_NE(cuda.find("if (threadIdx.x == 0"), std::string::npos);
    // No combiner without a split level.
    EXPECT_EQ(cuda.find("_combine"), std::string::npos);
}

TEST(CudaEmit, SequentialInnerReduceHasNoSmem)
{
    Program p = makeSumRows();
    CompileOptions copts;
    copts.strategy = Strategy::OneD;
    std::string cuda = compileToCuda(p, copts);
    EXPECT_EQ(cuda.find("__shared__ double red_smem"), std::string::npos)
        << "block size 1 reduce needs no cross-thread combine";
    EXPECT_NE(cuda.find("sumRows_kernel"), std::string::npos);
}

TEST(CudaEmit, SplitEmitsCombinerKernel)
{
    Program p = makeSumRows();
    CompileOptions copts;
    copts.strategy = Strategy::Fixed;
    copts.fixedMapping.levels = {{1, 8, SpanType::one()},
                                 {0, 32, SpanType::split(4)}};
    std::string cuda = compileToCuda(p, copts);
    EXPECT_NE(cuda.find("__partials"), std::string::npos);
    EXPECT_NE(cuda.find("__global__ void sumRows_combine"),
              std::string::npos);
    EXPECT_NE(cuda.find("__seg1"), std::string::npos)
        << "split loop covers a per-block segment";
}

TEST(CudaEmit, SpanNEmitsCoverageLoop)
{
    ProgramBuilder b("scale");
    Arr in = b.inF64("in");
    Ex n = b.paramI64("n");
    Arr out = b.outF64("out");
    b.map(n, out, [&](Body &, Ex i) { return in(i) * 2.0; });
    Program p = b.build();

    CompileOptions copts;
    copts.strategy = Strategy::Fixed;
    copts.fixedMapping.levels = {{0, 256, SpanType::n(26)}};
    std::string cuda = compileToCuda(p, copts);
    EXPECT_NE(cuda.find("__k0 < 26"), std::string::npos);
    EXPECT_NE(cuda.find("blockIdx.x * 26 + __k0"), std::string::npos);
}

TEST(CudaEmit, PreallocContiguousAddressing)
{
    Program p = makeWeighted();
    CompileOptions copts;
    copts.strategy = Strategy::Fixed;
    // Inner level on x: contiguous layout (Fig 11a).
    copts.fixedMapping.levels = {{1, 4, SpanType::one()},
                                 {0, 64, SpanType::all()}};
    std::string cuda = compileToCuda(p, copts);
    EXPECT_NE(cuda.find("__row_"), std::string::npos);
    EXPECT_NE(cuda.find("Fig 11(a)"), std::string::npos);
    EXPECT_NE(cuda.find("/* preallocated */"), std::string::npos);
    EXPECT_EQ(cuda.find("malloc("), std::string::npos);
}

TEST(CudaEmit, PreallocInterleavedAddressing)
{
    Program p = makeWeighted();
    CompileOptions copts;
    copts.strategy = Strategy::Fixed;
    // Inner level on y: interleaved layout (Fig 11b).
    copts.fixedMapping.levels = {{0, 64, SpanType::one()},
                                 {1, 4, SpanType::all()}};
    std::string cuda = compileToCuda(p, copts);
    EXPECT_NE(cuda.find("__col_"), std::string::npos);
    EXPECT_NE(cuda.find("__stride_"), std::string::npos);
    EXPECT_NE(cuda.find("Fig 11(b)"), std::string::npos);
}

TEST(CudaEmit, MallocModeEmitsPerThreadAllocation)
{
    Program p = makeWeighted();
    CompileOptions copts;
    copts.strategy = Strategy::MultiDim;
    copts.prealloc.enable = false;
    std::string cuda = compileToCuda(p, copts);
    EXPECT_NE(cuda.find("malloc("), std::string::npos);
    EXPECT_NE(cuda.find("per-thread allocation"), std::string::npos);
}

TEST(CudaEmit, SeqLoopAndBranch)
{
    ProgramBuilder b("escape");
    Arr c = b.inF64("c");
    Ex n = b.paramI64("n");
    Arr out = b.outF64("out");
    b.map(n, out, [&](Body &fn, Ex i) {
        Mut x = fn.mut("x", Ex(0.0));
        fn.branch(c(i) > 0.0,
                  [&](Body &t) { t.assign(x, Ex(1.0)); });
        fn.seqLoop(
            Ex(100), [&](Body &body, Ex) { body.assign(x, x.ex() + c(i)); },
            x.ex() >= 10.0);
        return x.ex();
    });
    Program p = b.build();
    std::string cuda = compileToCuda(p);
    EXPECT_NE(cuda.find("if (") , std::string::npos);
    EXPECT_NE(cuda.find("break;"), std::string::npos);
    EXPECT_NE(cuda.find("< 100LL"), std::string::npos);
}

TEST(CudaEmit, FilterUsesAtomicCursor)
{
    ProgramBuilder b("pos");
    Arr in = b.inF64("in");
    Ex n = b.paramI64("n");
    Arr out = b.outF64("out");
    Arr cnt = b.outF64("cnt");
    b.filter(n, out, cnt, [&](Body &, Ex i) {
        return FilterItem{in(i) > 0.0, in(i)};
    });
    Program p = b.build();
    std::string cuda = compileToCuda(p);
    EXPECT_NE(cuda.find("atomicAdd"), std::string::npos);
}

TEST(CudaEmit, HeaderDocumentsMappingDecision)
{
    Program p = makeSumRows();
    CompileOptions copts;
    copts.strategy = Strategy::WarpBased;
    std::string cuda = compileToCuda(p, copts);
    EXPECT_NE(cuda.find("// Level 0: [dimy, 16, span(1)]"),
              std::string::npos);
    EXPECT_NE(cuda.find("// Level 1: [dimx, 32, span(all)]"),
              std::string::npos);
}

TEST(CudaEmit, ParamListTypesAndConstness)
{
    Program p = makeSumRows();
    std::string cuda = compileToCuda(p);
    EXPECT_NE(cuda.find("const double *m"), std::string::npos);
    EXPECT_NE(cuda.find("double *out"), std::string::npos);
    EXPECT_NE(cuda.find("long long R"), std::string::npos);
}

TEST(CudaEmit, NoDemoProgramPrintsANumericBlockDim)
{
    // Prefetched reads index the staging buffer modulo the lanes that
    // fill it (threadIdx.x), so the member is always a dim letter.
    const std::regex numericDim("blockDim\\.[0-9]");
    for (const std::string &name : demoProgramNames()) {
        const std::unique_ptr<DemoProgram> demo =
            buildDemoProgram(name, {}, nullptr);
        ASSERT_TRUE(demo) << name;
        for (Strategy strategy :
             {Strategy::MultiDim, Strategy::OneD,
              Strategy::ThreadBlockThread, Strategy::WarpBased,
              Strategy::Consolidate}) {
            CompileOptions copts;
            copts.strategy = strategy;
            copts.paramValues = demo->params;
            copts.fuseMapReduce = demo->fuse;
            EXPECT_FALSE(std::regex_search(compileToCuda(*demo->prog, copts),
                                           numericDim))
                << name << " under " << strategyName(strategy);
        }
    }
}

} // namespace
} // namespace npp
