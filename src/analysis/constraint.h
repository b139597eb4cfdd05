/**
 * @file
 * Mapping constraints (Section IV-C, Table II). Constraints are generated
 * by traversing the IR: hard constraints restrict the candidate space
 * (span requirements from synchronization or dynamically-sized patterns);
 * soft constraints carry derived weights (intrinsic weight x execution
 * count x branch discount, Fig 8) and are summed into a mapping score.
 */

#ifndef NPP_ANALYSIS_CONSTRAINT_H
#define NPP_ANALYSIS_CONSTRAINT_H

#include <string>
#include <vector>

#include "analysis/target.h"
#include "ir/affine.h"

namespace npp {

/** Intrinsic weights of the soft constraint kinds. Memory coalescing gets
 *  the highest weight: pattern workloads are typically bandwidth limited
 *  (Section IV-C). */
struct IntrinsicWeights
{
    double coalesce = 10.0;
    double minBlock = 5.0;
};

/**
 * One mapping constraint.
 */
struct Constraint
{
    enum class Kind {
        /** Hard, local: this level must use Span(all) — the pattern needs
         *  cross-iteration synchronization (Reduce/Filter/GroupBy) or its
         *  size is unknown at launch. */
        HardSpanAll,
        /** Soft, local: this level issues sequential memory requests and
         *  should get dimension x with a warp-multiple block size. */
        SoftCoalesce,
        /** Soft, global: total threads per block >= MIN_BLOCK_SIZE. */
        SoftMinBlock
    };

    Kind kind = Kind::SoftCoalesce;

    /** Level the constraint applies to (-1 for global constraints). */
    int level = -1;

    /** Derived weight (soft constraints only). */
    double weight = 0.0;

    /** HardSpanAll: true when Span(all) may be upgraded to Split(k)
     *  (synchronization requirement); false when it may not (dynamic
     *  size — no combiner can be planned). Section IV-A. */
    bool splittable = false;

    /** Soft constraint whose access target is a preallocated local array:
     *  satisfiable by layout choice instead of dimension choice, so the
     *  search may ignore it (Section V-A). */
    bool flexible = false;

    /** Human-readable provenance for diagnostics. */
    std::string reason;

    std::string toString() const;
};

/**
 * One array access site summarized for the static performance model:
 * stride per nest level (when affine), execution count, and width.
 */
struct AccessSite
{
    /** Stride (elements) with respect to each level's index; valid only
     *  where `affine` is set. */
    double coeff[4] = {0, 0, 0, 0};
    bool affine[4] = {true, true, true, true};

    /** Times the site executes per kernel (enclosing sizes x trips x
     *  branch discount). */
    double execCount = 0.0;

    int bytes = 8;
    bool isWrite = false;

    /** Deepest enclosing level (redundant outer executions considered
     *  by the model). */
    int level = 0;
};

/**
 * All constraints for one program plus the per-level metadata the search
 * needs (representative sizes for DOP, splittability).
 */
struct ConstraintSet
{
    std::vector<Constraint> all;
    int numLevels = 0;

    /** Access summaries feeding the analytical scoring model. */
    std::vector<AccessSite> accesses;

    /** Representative per-level domain size (max over patterns at that
     *  level, resolved via the analysis environment). */
    std::vector<double> levelSizes;

    /** Per-level: must the level use Span(all)? */
    std::vector<bool> mustSpanAll;

    /** Per-level: may Span(all) be converted to Split(k)? */
    std::vector<bool> splittable;

    /** Per-level: the first reason Split(k) is refused (empty where
     *  splittable). */
    std::vector<std::string> unsplittableReason;
};

/**
 * Traverse the program and build its constraint set (the CSet input of
 * Algorithm 1).
 */
ConstraintSet buildConstraints(const Program &prog, const AnalysisEnv &env,
                               const DeviceConfig &device,
                               const IntrinsicWeights &weights = {});

} // namespace npp

#endif // NPP_ANALYSIS_CONSTRAINT_H
