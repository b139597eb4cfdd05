/**
 * @file
 * Unit tests for the expression evaluator: value semantics,
 * short-circuit logic, access-cost accounting, slot view transforms
 * (offset/stride and the decoupled trace addressing), probe
 * reporting, and the bindings fingerprint (including HostArray
 * inputs, whose digest is computed once).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ir/builder.h"
#include "runtime/binding.h"
#include "runtime/eval.h"

namespace npp {
namespace {

/** Minimal program supplying a variable table for contexts. */
struct Fixture
{
    Fixture()
    {
        ProgramBuilder b("t");
        arr = b.inF64("arr");
        x = b.paramF64("x");
        y = b.paramF64("y");
        out = b.outF64("out");
        Arr a = arr;
        b.map(Ex(4), out, [&](Body &, Ex i) { return a(i); });
        prog = std::make_unique<Program>(b.build());
    }

    std::unique_ptr<Program> prog;
    Arr arr, out;
    Ex x, y;
};

TEST(Eval, ArithmeticAndSelect)
{
    Fixture f;
    EvalCtx ctx(*f.prog);
    ctx.scalars[f.x.ref()->varId] = 3.0;
    ctx.scalars[f.y.ref()->varId] = -2.0;

    EXPECT_DOUBLE_EQ(evalExpr((f.x + f.y * 2.0).ref(), ctx), -1.0);
    EXPECT_DOUBLE_EQ(evalExpr(sel(f.x > f.y, f.x, f.y).ref(), ctx), 3.0);
    EXPECT_DOUBLE_EQ(evalExpr(abs(f.y).ref(), ctx), 2.0);
    EXPECT_DOUBLE_EQ(evalExpr((f.x % 2.0).ref(), ctx), 1.0);
}

TEST(Eval, ShortCircuitLogicSkipsRightSide)
{
    // The right side of && / || reads out of bounds; short-circuiting
    // must avoid evaluating it.
    Fixture f;
    std::vector<double> data = {1, 2, 3, 4};
    EvalCtx ctx(*f.prog);
    ArraySlot slot;
    slot.data = data.data();
    slot.size = 4;
    slot.physSize = 4;
    ctx.arrays[f.arr.id()] = slot;

    Arr a = f.arr;
    Ex falseC(0.0), trueC(1.0);
    EXPECT_DOUBLE_EQ(evalExpr((falseC && a(Ex(99))).ref(), ctx), 0.0);
    EXPECT_DOUBLE_EQ(evalExpr((trueC || a(Ex(99))).ref(), ctx), 1.0);
}

TEST(Eval, OpCountIncludesAccessCost)
{
    Fixture f;
    std::vector<double> data = {5, 6, 7, 8};
    EvalCtx ctx(*f.prog);
    ArraySlot slot;
    slot.data = data.data();
    slot.size = 4;
    slot.physSize = 4;
    ctx.arrays[f.arr.id()] = slot;

    Arr a = f.arr;
    ctx.accessOpCost = 2;
    ctx.opCount = 0;
    evalExpr(a(Ex(1)).ref(), ctx);
    const uint64_t wrapper = ctx.opCount;

    ctx.accessOpCost = 1;
    ctx.opCount = 0;
    evalExpr(a(Ex(1)).ref(), ctx);
    EXPECT_EQ(wrapper, ctx.opCount + 1)
        << "wrapper accesses cost one extra op";
}

TEST(Eval, OffsetStrideViews)
{
    // Physical layout: interleaved (offset + logical * stride).
    Fixture f;
    std::vector<double> data = {0, 10, 20, 30, 40, 50, 60, 70};
    EvalCtx ctx(*f.prog);
    ArraySlot slot;
    slot.data = data.data();
    slot.size = 3;
    slot.physSize = 8;
    slot.offset = 1;
    slot.stride = 2;
    ctx.arrays[f.arr.id()] = slot;

    Arr a = f.arr;
    EXPECT_DOUBLE_EQ(evalExpr(a(Ex(0)).ref(), ctx), 10.0);
    EXPECT_DOUBLE_EQ(evalExpr(a(Ex(1)).ref(), ctx), 30.0);
    EXPECT_DOUBLE_EQ(evalExpr(a(Ex(2)).ref(), ctx), 50.0);
}

/** Probe capturing reported addresses. */
class RecordingProbe : public MemProbe
{
  public:
    void
    onAccess(int64_t, int, int64_t addr, bool isWrite, int) override
    {
        (isWrite ? writes : reads).push_back(addr);
    }

    std::vector<int64_t> reads, writes;
};

TEST(Eval, TraceAddressDecoupledFromStorage)
{
    // Data sits in a small buffer, but the probe sees the layout-accurate
    // virtual addresses (the preallocation trick).
    Fixture f;
    std::vector<double> data = {1, 2, 3, 4};
    EvalCtx ctx(*f.prog);
    RecordingProbe probe;
    ctx.probe = &probe;
    ArraySlot slot;
    slot.data = data.data();
    slot.size = 4;
    slot.physSize = 4;
    slot.addrBase = 1000;
    slot.addrStride = 64;
    ctx.arrays[f.arr.id()] = slot;

    Arr a = f.arr;
    EXPECT_DOUBLE_EQ(evalExpr(a(Ex(2)).ref(), ctx), 3.0)
        << "storage uses physIndex";
    ASSERT_EQ(probe.reads.size(), 1u);
    EXPECT_EQ(probe.reads[0], 1000 + 2 * 64) << "probe uses traceAddr";

    storeArray(-1, f.arr.id(), 1, 9.0, ctx);
    EXPECT_DOUBLE_EQ(data[1], 9.0);
    ASSERT_EQ(probe.writes.size(), 1u);
    EXPECT_EQ(probe.writes[0], 1000 + 64);
}

TEST(EvalDeath, NullAndUnboundAccessesPanic)
{
    Fixture f;
    EvalCtx ctx(*f.prog);
    EXPECT_DEATH(evalExpr(static_cast<const Expr *>(nullptr), ctx),
                 "null expression");
    Arr a = f.arr;
    EXPECT_DEATH(evalExpr(a(Ex(0)).ref(), ctx), "unbound array");
}

/** The fingerprint keys the eval cache, so it must move with every
 *  bound value: each scalar, each array's size and each element. Array
 *  lengths 0-17 cover every tail of the four-lane digest. */
TEST(Fingerprint, ChangesWithEveryScalarSizeAndElement)
{
    Fixture f;
    double x = 1.5, y = -2.0;
    std::vector<double> a, out(3, 0.5);
    const auto fingerprint = [&] {
        Bindings args(*f.prog);
        args.scalar(f.x, x);
        args.scalar(f.y, y);
        args.array(f.arr, a);
        args.array(f.out, out);
        return args.fingerprint();
    };
    for (int n = 0; n <= 17; n++) {
        a.assign(n, 0.0);
        for (int i = 0; i < n; i++)
            a[i] = 0.25 * i + 1.0;
        const uint64_t base = fingerprint();
        EXPECT_EQ(fingerprint(), base) << "n=" << n;
        for (int i = 0; i < n; i++) {
            const double keep = a[i];
            a[i] = std::nextafter(keep, 1e300);
            EXPECT_NE(fingerprint(), base) << "n=" << n << " element " << i;
            a[i] = keep;
        }
        a.push_back(0.0);
        EXPECT_NE(fingerprint(), base) << "n=" << n << " grown";
        a.pop_back();
        if (n > 0) {
            const double last = a.back();
            a.pop_back();
            EXPECT_NE(fingerprint(), base) << "n=" << n << " shrunk";
            a.push_back(last);
        }
        for (double *scalar : {&x, &y}) {
            const double keep = *scalar;
            *scalar = std::nextafter(keep, 1e300);
            EXPECT_NE(fingerprint(), base) << "n=" << n << " scalar";
            *scalar = keep;
        }
        out[1] = -0.0;
        EXPECT_NE(fingerprint(), base) << "n=" << n << " output element";
        out[1] = 0.5;
        EXPECT_EQ(fingerprint(), base) << "n=" << n;
    }
}

/** Binding a HostArray (frozen or not) or a vector of the same
 *  contents is the same binding: equal slots and an equal fingerprint. */
TEST(Fingerprint, FrozenAndVectorBindingsAgree)
{
    Fixture f;
    for (int n : {0, 1, 3, 4, 5, 17, 1000}) {
        std::vector<double> contents(n);
        for (int i = 0; i < n; i++)
            contents[i] = std::sin(0.1 * i);
        std::vector<double> copy = contents;
        const HostArray frozen(contents);
        std::vector<double> out1(3, 0.0);
        HostArray out2(std::vector<double>(3, 0.0));

        Bindings viaVector(*f.prog), viaFrozen(*f.prog);
        for (Bindings *args : {&viaVector, &viaFrozen}) {
            args->scalar(f.x, 2.0);
            args->scalar(f.y, 3.0);
        }
        viaVector.array(f.arr, copy);
        viaVector.array(f.out, out1);
        viaFrozen.array(f.arr, frozen);
        viaFrozen.array(f.out, out2);

        EXPECT_EQ(frozen.digest(), digestArray(contents.data(), n));
        EXPECT_EQ(viaFrozen.fingerprint(), viaVector.fingerprint()) << n;
        EXPECT_EQ(viaFrozen.fingerprint(), viaVector.fingerprint()) << n;
        // A held digest is the one recomputed over the same bytes.
        EXPECT_EQ(out2.digest(), digestArray(out1.data(), 3));

        const ArraySlot &v = viaVector.arraySlot(f.arr.id());
        const ArraySlot &z = viaFrozen.arraySlot(f.arr.id());
        EXPECT_EQ(v.size, z.size);
        EXPECT_EQ(v.offset, z.offset);
        EXPECT_EQ(v.stride, z.stride);
        EXPECT_EQ(v.physSize, z.physSize);
        EXPECT_EQ(v.addrBase, z.addrBase);
        EXPECT_EQ(v.addrStride, z.addrStride);
        EXPECT_EQ(v.elemBytes, z.elemBytes);
        EXPECT_EQ(z.data, frozen.values().data());
        if (n > 0) {
            EXPECT_EQ(std::memcmp(v.data, z.data, n * sizeof(double)), 0);
        }
    }
}

TEST(FingerprintDeath, OutputCannotBeBoundFrozen)
{
    Fixture f;
    const HostArray frozen(std::vector<double>(4, 1.0));
    Bindings args(*f.prog);
    EXPECT_DEATH(args.array(f.out, frozen), "cannot be bound frozen");
}

} // namespace
} // namespace npp
