/**
 * @file
 * Seeded randomized differential test for block-equivalence classing.
 * A deterministic generator (fixed seeds, no wall-clock randomness)
 * assembles nested programs mixing Map/Reduce/Filter/GroupBy with both
 * class-invariant and data-dependent predicates and keys, over random
 * shapes including degenerate ones (single row, single column). Every
 * generated program runs through the shared differential fixture under
 * two strategies: classed and full simulation must be bit-identical
 * whether classing engages or falls back, with and without per-site
 * attribution. Any mismatch reproduces exactly from the seed printed by
 * the SCOPED_TRACE.
 */

#include <gtest/gtest.h>

#include "classed_fixture.h"

namespace npp {
namespace {

using difftest::DiffCase;
using difftest::randomCase;
using difftest::runDifferential;

class ClassedRandom : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ClassedRandom, DifferentialUnderSearchedMapping)
{
    DiffCase c = randomCase(GetParam());
    CompileOptions copts;
    copts.strategy = Strategy::MultiDim;
    runDifferential(c, copts);
}

TEST_P(ClassedRandom, DifferentialUnderOneD)
{
    DiffCase c = randomCase(GetParam());
    CompileOptions copts;
    copts.strategy = Strategy::OneD;
    runDifferential(c, copts);
}

TEST_P(ClassedRandom, DifferentialUnderFixedPartitionedOuter)
{
    DiffCase c = randomCase(GetParam());
    CompileOptions copts;
    copts.strategy = Strategy::Fixed;
    copts.fixedMapping.levels = {{0, 8, SpanType::one()},
                                 {1, 32, SpanType::all()}};
    runDifferential(c, copts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassedRandom,
                         ::testing::Range<uint64_t>(1, 17),
                         [](const ::testing::TestParamInfo<uint64_t> &info) {
                             return "seed" +
                                    std::to_string(info.param);
                         });

} // namespace
} // namespace npp
