/**
 * @file
 * The mapping search of Algorithm 1: enumerate candidate mappings that
 * satisfy the hard constraints, score them against the soft constraints,
 * select the best (tie-break on DOP, then deterministically), and finally
 * adjust the DOP into the device's [MIN_DOP, MAX_DOP] window by rewriting
 * spans (ControlDOP).
 */

#ifndef NPP_ANALYSIS_SEARCH_H
#define NPP_ANALYSIS_SEARCH_H

#include "analysis/constraint.h"
#include "analysis/mapping.h"

namespace npp {

/** What Algorithm 1 ranks candidates by. */
enum class SearchObjective
{
    /** The paper's weighted soft-constraint score. */
    SoftScore,
    /** The analytical time estimate (analysis/model.h) — the scoring
     *  refinement named as future work in Section VI-G. */
    StaticModel
};

/** Options controlling the search. */
struct SearchOptions
{
    SearchObjective objective = SearchObjective::SoftScore;

    /** Ignore `flexible` soft constraints (accesses to preallocated local
     *  arrays whose layout is chosen after mapping, Section V-A). */
    bool preallocLayouts = true;

    /** Retain every scored candidate (for the Fig 17 scatter study). */
    bool keepCandidates = false;

    /** Skip the ControlDOP adjustment (for studying raw scores). */
    bool controlDop = true;

    /** The paper's 1D directive: only the outermost level is mapped to
     *  threads; every inner level is pinned to a sequential
     *  (block size 1, span(all)) execution inside the thread. */
    bool outerOnly = false;

    /** Produce the decision-explanation report (SearchResult::explanation):
     *  per-candidate hard-filter tallies, the selected mapping's
     *  per-constraint score contributions, and the tie-break chain. Adds
     *  one extra pass over the candidate space; off in production runs. */
    bool explain = false;
};

/** One scored candidate. */
struct ScoredMapping
{
    MappingDecision decision;
    double score = 0.0;
    double dop = 0.0;
    /** Static model estimate (filled when the objective is StaticModel
     *  or keepCandidates is set). */
    double modelMs = 0.0;
};

/** One hard-constraint check applied to a mapping (explanation report). */
struct HardCheck
{
    std::string name;   //!< which rule ("dim range", "span(all) level 1", ...)
    bool passed = false;
    std::string detail; //!< what was checked, human-readable
};

/** One soft constraint's contribution to a mapping's score. */
struct SoftContribution
{
    int constraintIndex = -1;   //!< position in ConstraintSet::all
    int level = -1;             //!< level the constraint applies to (-1 global)
    double weight = 0.0;        //!< derived weight (Table II, Fig 8)
    bool satisfied = false;     //!< does the mapping satisfy it?
    bool skippedFlexible = false; //!< ignored under preallocLayouts
    /** weight when satisfied and not skipped, else 0; the contributions
     *  sum exactly to the mapping's score. */
    double contribution = 0.0;
    std::string reason;         //!< constraint provenance (Table II row)
};

/** Why one mapping scored the way it did. */
struct MappingExplanation
{
    MappingDecision decision;
    bool feasible = false;
    std::vector<HardCheck> hardChecks;
    std::vector<SoftContribution> soft;
    double totalScore = 0.0; //!< == sum of soft[i].contribution
    double dop = 0.0;
};

/** Why the search selected its winner (SearchOptions::explain). */
struct SearchExplanation
{
    bool valid = false;

    /** @name Candidate-space tallies
     *  @{
     */
    int64_t enumerated = 0;
    int64_t feasibleCount = 0;
    int64_t rejectedDims = 0;       //!< dim out of range / duplicated
    int64_t rejectedBlockShape = 0; //!< block size range / pow2 / total threads
    int64_t rejectedHardSpan = 0;   //!< HardSpanAll or Split-on-unsplittable
    /** @} */

    /** @name Tie-break chain at the winning score
     *  @{
     */
    int64_t atBestScore = 0;     //!< feasible candidates sharing best score
    int64_t atBestCappedDop = 0; //!< of those, sharing the best capped DOP
    int64_t atBestBlocks = 0;    //!< of those, sharing the best block count
    /** @} */

    /** What ControlDOP did, empty when it left the decision alone. */
    std::string controlDopNote;

    /** The selected (post-ControlDOP) mapping, fully explained. */
    MappingExplanation selected;

    /** @name Multi-device extension
     * The (deviceCount, splitPoint) sweep runs above the per-device
     * search — scoring shards needs the simulator, which analysis/
     * cannot depend on — but its verdicts are part of this decision
     * report. The fleet layer (sim/fleet.h) fills these after the
     * sweep; formatSearchExplanation / searchExplanationJson render
     * them alongside the per-device parameters when non-empty.
     *  @{
     */
    /** sweepText() of the fleet sweep: per-point times + hard filters. */
    std::string fleetNote;
    /** sweepJson() of the fleet sweep for the machine-readable export. */
    std::string fleetJson;
    /** @} */

    /** @name Consolidation sweep annotations
     * Filled by the consolidation layer (sim/consolidation.h) when a
     * program with runtime-sized inner domains is swept against the
     * warp-/block-bin queue mappings; rendered alongside the search
     * report when non-empty (same contract as the fleet annotations).
     *  @{
     */
    /** sweepText() of the consolidation sweep: per-point verdicts. */
    std::string consolidationNote;
    /** sweepJson() of the consolidation sweep for the JSON export. */
    std::string consolidationJson;
    /** @} */

    /** @name Predictive-pruning annotations
     * Filled by the predict layer (predict/predict.h) when a sweep ran
     * under the learned cost model: per-candidate predicted times,
     * survive/prune verdicts, and the exactly-simulated survivors.
     * Rendered alongside the search report when non-empty (same
     * contract as the fleet and consolidation annotations).
     *  @{
     */
    /** sweepText() of the predictive sweep: ranking + pruning verdicts. */
    std::string predictNote;
    /** sweepJson() of the predictive sweep for the JSON export. */
    std::string predictJson;
    /** @} */
};

/** Search outcome. */
struct SearchResult
{
    MappingDecision best;
    double bestScore = 0.0;
    double bestDop = 0.0;
    int candidatesConsidered = 0;
    std::vector<ScoredMapping> candidates; //!< if keepCandidates
    SearchExplanation explanation;         //!< if options.explain
};

/**
 * Mapping search engine for a fixed device.
 */
class MappingSearch
{
  public:
    explicit MappingSearch(DeviceConfig device, SearchOptions options = {})
        : device_(std::move(device)), options_(options)
    {}

    /** Run Algorithm 1 on a constraint set. */
    SearchResult search(const ConstraintSet &cset) const;

    /** Score one mapping against the soft constraints (0 if it violates
     *  a hard constraint). Exposed for the score/performance study. */
    double score(const MappingDecision &decision,
                 const ConstraintSet &cset) const;

    /** True if the mapping satisfies every hard constraint. */
    bool feasible(const MappingDecision &decision,
                  const ConstraintSet &cset) const;

    /** Apply the ControlDOP procedure (Algorithm 1, lines 6-12). */
    void controlDop(MappingDecision &decision,
                    const ConstraintSet &cset) const;

    /** Explain one mapping: every hard check with its verdict and every
     *  soft constraint with its contribution (contributions sum to
     *  score(decision, cset) — enforced by tests). Usable on its own for
     *  fixed-strategy mappings; search() uses it for the winner. */
    MappingExplanation explain(const MappingDecision &decision,
                               const ConstraintSet &cset) const;

    const DeviceConfig &device() const { return device_; }

  private:
    bool satisfies(const Constraint &c,
                   const MappingDecision &decision) const;

    /** Tally which family of hard rule rejected an infeasible candidate
     *  (explanation report). */
    void classifyRejection(const MappingDecision &decision,
                           const ConstraintSet &cset,
                           SearchExplanation &ex) const;

    DeviceConfig device_;
    SearchOptions options_;
};

/**
 * Convenience wrapper: build constraints and run the search for a
 * program. `paramValues` supplies actual sizes when known at compile time
 * (passed through to the analysis environment).
 */
SearchResult
findMapping(const Program &prog, const DeviceConfig &device,
            const std::unordered_map<int, double> &paramValues = {},
            SearchOptions options = {});

/** Render an explanation report as human-readable text (nppc --explain). */
std::string formatSearchExplanation(const SearchExplanation &ex);

/** Render an explanation report as JSON (machine-readable diagnostics). */
std::string searchExplanationJson(const SearchExplanation &ex);

} // namespace npp

#endif // NPP_ANALYSIS_SEARCH_H
