/**
 * @file
 * The mapping-decision explanation report: answers "why this
 * dim/block/span" for any mapping by replaying every hard-constraint
 * check with its verdict and itemizing every soft constraint's weight
 * contribution (Table II). The per-constraint contributions sum exactly
 * to MappingSearch::score() for the same mapping — enforced by
 * tests/analysis/search_test.
 */

#include "analysis/search.h"

#include <sstream>

#include "support/stats.h"
#include "support/strings.h"

namespace npp {

namespace {

const char *
softKindName(Constraint::Kind kind)
{
    switch (kind) {
      case Constraint::Kind::HardSpanAll: return "span(all)";
      case Constraint::Kind::SoftCoalesce: return "coalesce";
      case Constraint::Kind::SoftMinBlock: return "min-block";
    }
    return "?";
}

} // namespace

MappingExplanation
MappingSearch::explain(const MappingDecision &decision,
                       const ConstraintSet &cset) const
{
    MappingExplanation ex;
    ex.decision = decision;
    ex.dop = decision.dop(cset.levelSizes);

    const auto check = [&](const std::string &name, bool passed,
                           const std::string &detail) {
        ex.hardChecks.push_back({name, passed, detail});
        return passed;
    };

    // Mirror of feasible(), itemized. Every rule reports its verdict even
    // after an earlier one failed, so the report shows all violations.
    bool ok = check("level count",
                    decision.numLevels() == cset.numLevels,
                    fmt("mapping has {} levels, constraint set has {}",
                        decision.numLevels(), cset.numLevels));
    if (!ok) {
        // Nothing below is meaningful against mismatched levels.
        ex.feasible = false;
        return ex;
    }

    int64_t threads = 1;
    uint32_t dimsUsed = 0;
    for (int lv = 0; lv < decision.numLevels(); lv++) {
        const LevelMapping &l = decision.levels[lv];
        const bool dimRange = l.dim >= 0 && l.dim < device_.maxLogicalDims;
        ok &= check(fmt("L{} dim range", lv), dimRange,
                    fmt("dim {} must be in [0, {})", l.dim,
                        device_.maxLogicalDims));
        const bool dimFresh = dimRange && !(dimsUsed & (1u << l.dim));
        if (dimRange)
            dimsUsed |= 1u << l.dim;
        ok &= check(fmt("L{} dim distinct", lv), dimFresh,
                    fmt("dim {} must not repeat across levels", l.dim));
        const bool sizeRange =
            dimRange && l.blockSize >= 1 &&
            l.blockSize <= device_.maxBlockDim[l.dim];
        ok &= check(fmt("L{} block size", lv), sizeRange,
                    fmt("block size {} must be in [1, {}]", l.blockSize,
                        dimRange ? device_.maxBlockDim[l.dim] : 0));
        ok &= check(fmt("L{} block pow2", lv), isPow2(l.blockSize),
                    fmt("block size {} must be a power of two",
                        l.blockSize));
        threads *= l.blockSize;
    }
    ok &= check("threads per block",
                threads <= device_.maxThreadsPerBlock,
                fmt("{} threads, device limit {}", threads,
                    device_.maxThreadsPerBlock));

    for (size_t ci = 0; ci < cset.all.size(); ci++) {
        const Constraint &c = cset.all[ci];
        if (c.kind != Constraint::Kind::HardSpanAll)
            continue;
        ok &= check(fmt("L{} span(all)", c.level),
                    satisfies(c, decision),
                    fmt("{} — level must use Span(all) or Split",
                        c.reason));
    }
    for (int lv = 0; lv < decision.numLevels(); lv++) {
        const bool splitOk =
            decision.levels[lv].span.kind != SpanKind::Split ||
            cset.splittable[lv];
        ok &= check(fmt("L{} split legal", lv), splitOk,
                    cset.splittable[lv]
                        ? "Split(k) requires a plannable combiner "
                          "(splittable level)"
                        : fmt("level is not splittable: {}",
                              cset.unsplittableReason[lv]));
    }
    ex.feasible = ok;

    // Soft contributions, mirroring score(): hard constraints and
    // (under preallocLayouts) flexible constraints contribute nothing;
    // an infeasible mapping scores 0 overall.
    for (size_t ci = 0; ci < cset.all.size(); ci++) {
        const Constraint &c = cset.all[ci];
        if (c.kind == Constraint::Kind::HardSpanAll)
            continue;
        SoftContribution sc;
        sc.constraintIndex = static_cast<int>(ci);
        sc.level = c.level;
        sc.weight = c.weight;
        sc.skippedFlexible = options_.preallocLayouts && c.flexible;
        sc.satisfied = satisfies(c, decision);
        sc.contribution =
            (ex.feasible && sc.satisfied && !sc.skippedFlexible)
                ? c.weight
                : 0.0;
        sc.reason = fmt("{}{}", softKindName(c.kind),
                        c.reason.empty() ? "" : ": " + c.reason);
        ex.totalScore += sc.contribution;
        ex.soft.push_back(std::move(sc));
    }
    return ex;
}

std::string
formatSearchExplanation(const SearchExplanation &ex)
{
    std::ostringstream os;
    if (!ex.valid)
        return "(no explanation: search ran without explain)\n";

    const MappingExplanation &m = ex.selected;
    os << "selected mapping: " << m.decision.toString() << "\n";
    os << fmt("  score={} dop={} feasible={}\n", m.totalScore, m.dop,
              m.feasible ? "yes" : "no");

    os << "hard checks:\n";
    for (const HardCheck &h : m.hardChecks) {
        os << fmt("  [{}] {}  ({})\n", h.passed ? "pass" : "FAIL",
                  h.name, h.detail);
    }

    os << "soft-constraint contributions (Table II):\n";
    for (const SoftContribution &s : m.soft) {
        const char *mark = s.skippedFlexible ? "~"
                           : s.satisfied     ? "+"
                                             : " ";
        os << fmt("  [{}] w={}  {}  -> +{}{}\n", mark, s.weight,
                  s.reason, s.contribution,
                  s.skippedFlexible ? "  (flexible: satisfiable by "
                                      "layout, skipped)"
                                    : "");
    }
    os << fmt("  total score = {}  (sum of contributions)\n",
              m.totalScore);

    os << fmt("candidate space: {} enumerated, {} feasible "
              "(rejected: {} dim conflicts, {} block shapes, "
              "{} span requirements)\n",
              ex.enumerated, ex.feasibleCount, ex.rejectedDims,
              ex.rejectedBlockShape, ex.rejectedHardSpan);
    os << fmt("tie-breaks: {} candidate(s) at the best score -> {} after "
              "capped-DOP -> {} after fewer-blocks -> lexicographic\n",
              ex.atBestScore, ex.atBestCappedDop, ex.atBestBlocks);
    os << "controlDOP: "
       << (ex.controlDopNote.empty() ? "no adjustment"
                                     : ex.controlDopNote)
       << "\n";
    os << ex.fleetNote << ex.consolidationNote << ex.predictNote;
    return os.str();
}

std::string
searchExplanationJson(const SearchExplanation &ex)
{
    std::ostringstream os;
    os << "{\"valid\":" << (ex.valid ? "true" : "false");
    if (!ex.valid) {
        os << "}";
        return os.str();
    }
    const MappingExplanation &m = ex.selected;
    os << ",\"selected\":\"" << jsonEscape(m.decision.toString()) << "\"";
    os << ",\"feasible\":" << (m.feasible ? "true" : "false");
    os << ",\"score\":" << exactNum(m.totalScore);
    os << ",\"dop\":" << exactNum(m.dop);
    os << ",\"hard_checks\":[";
    for (size_t i = 0; i < m.hardChecks.size(); i++) {
        const HardCheck &h = m.hardChecks[i];
        os << (i ? "," : "") << "{\"name\":\"" << jsonEscape(h.name)
           << "\",\"passed\":" << (h.passed ? "true" : "false")
           << ",\"detail\":\"" << jsonEscape(h.detail) << "\"}";
    }
    os << "],\"soft\":[";
    for (size_t i = 0; i < m.soft.size(); i++) {
        const SoftContribution &s = m.soft[i];
        os << (i ? "," : "") << "{\"index\":" << s.constraintIndex
           << ",\"level\":" << s.level << ",\"weight\":" << exactNum(s.weight)
           << ",\"satisfied\":" << (s.satisfied ? "true" : "false")
           << ",\"skipped_flexible\":"
           << (s.skippedFlexible ? "true" : "false")
           << ",\"contribution\":" << exactNum(s.contribution)
           << ",\"reason\":\"" << jsonEscape(s.reason) << "\"}";
    }
    os << "],\"enumerated\":" << ex.enumerated;
    os << ",\"feasible_count\":" << ex.feasibleCount;
    os << ",\"rejected_dims\":" << ex.rejectedDims;
    os << ",\"rejected_block_shape\":" << ex.rejectedBlockShape;
    os << ",\"rejected_hard_span\":" << ex.rejectedHardSpan;
    os << ",\"at_best_score\":" << ex.atBestScore;
    os << ",\"at_best_capped_dop\":" << ex.atBestCappedDop;
    os << ",\"at_best_blocks\":" << ex.atBestBlocks;
    os << ",\"control_dop\":\"" << jsonEscape(ex.controlDopNote) << "\"";
    for (const auto &[key, json] :
         {std::pair{"fleet", &ex.fleetJson},
          {"consolidation", &ex.consolidationJson},
          {"predict", &ex.predictJson}}) {
        if (!json->empty())
            os << ",\"" << key << "\":" << *json;
    }
    os << "}";
    return os.str();
}

} // namespace npp
