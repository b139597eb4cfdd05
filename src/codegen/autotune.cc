#include "codegen/autotune.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "support/strings.h"
#include "support/trace.h"

namespace npp {

namespace {

/**
 * A bounded, thread-safe memo of what a sweep compiles before it
 * evaluates anything: it depends on the program, the device and the
 * compile options, never on the bindings. Keys mix Program::id, so an
 * entry answers only the program object it was made for. A full memo
 * starts over.
 */
template <class V>
class CompileMemo
{
  public:
    static constexpr size_t kCapacity = 128;

    template <class Make>
    V
    get(uint64_t key, Make &&make)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = values_.find(key);
            if (it != values_.end())
                return it->second;
        }
        V value = make();
        std::lock_guard<std::mutex> lock(mu_);
        if (values_.size() >= kCapacity)
            values_.clear();
        values_.emplace(key, value);
        return value;
    }

  private:
    std::mutex mu_;
    std::unordered_map<uint64_t, V> values_;
};

uint64_t
memoKey(const Program &prog, const DeviceConfig &device,
        const CompileOptions &copts)
{
    return EvalCache::combine(
        EvalCache::combine(prog.id(), EvalCache::hashDevice(device)),
        EvalCache::hashCompileOptions(copts));
}

/** Distinct mappings with their Algorithm 1 scores. */
using Picks = std::vector<std::pair<MappingDecision, double>>;

/** Algorithm 1's distinct candidates, the score choice first and then
 *  by descending score, at most `maxPicks`. */
Picks
rankPicks(const Program &prog, const DeviceConfig &device,
          const CompileOptions &search, int maxPicks)
{
    CompileResult compiled = compileProgram(prog, device, search);
    std::vector<ScoredMapping> cands = std::move(compiled.candidates);
    std::sort(cands.begin(), cands.end(),
              [](const ScoredMapping &a, const ScoredMapping &b) {
                  return a.score > b.score;
              });
    cands.insert(cands.begin(),
                 ScoredMapping{compiled.spec.mapping, compiled.spec.score,
                               compiled.spec.dop, 0.0});
    Picks picks;
    std::unordered_set<MappingDecision> seen;
    for (const ScoredMapping &c : cands) {
        if (static_cast<int>(picks.size()) >= maxPicks)
            break;
        if (seen.insert(c.decision).second)
            picks.emplace_back(c.decision, c.score);
    }
    return picks;
}

/** The part of a compile that autotune's winner keeps. */
struct WinnerSpec
{
    KernelSpec spec;
    std::shared_ptr<Program> ownedProgram;
};

} // namespace

std::vector<SweepPoint>
mappingPoints(const Program &prog, const DeviceConfig &device,
              const CompileOptions &base, int maxPicks)
{
    CompileOptions search = base;
    search.strategy = Strategy::MultiDim;
    search.keepCandidates = true;
    // Every call asking for at most kMemoizedPicks shares one entry and
    // takes a prefix of it.
    const int depth = std::max(maxPicks, kMemoizedPicks);
    static CompileMemo<std::shared_ptr<const Picks>> memo;
    const std::shared_ptr<const Picks> picks = memo.get(
        EvalCache::combine(memoKey(prog, device, search),
                           static_cast<uint64_t>(depth)),
        [&] {
            return std::make_shared<const Picks>(
                rankPicks(prog, device, search, depth));
        });

    std::vector<SweepPoint> points;
    for (const auto &[decision, score] : *picks) {
        if (static_cast<int>(points.size()) >= maxPicks)
            break;
        SweepPoint &p = points.emplace_back();
        p.label = decision.toString();
        p.copts = base;
        p.copts.strategy = Strategy::Fixed;
        p.copts.fixedMapping = decision;
        p.copts.keepCandidates = false;
        p.copts.explainSearch = false;
        p.score = score;
        p.isScoreChoice = points.size() == 1;
    }
    return points;
}

AutotuneResult
autotune(const Program &prog, const Gpu &gpu, const Bindings &args,
         CompileOptions base, const AutotuneOptions &options)
{
    NPP_TRACE_SCOPE("codegen.autotune");
    std::vector<SweepPoint> points = mappingPoints(
        prog, gpu.config(), base, options.topCandidates + 1);
    NPP_TRACE_COUNT("autotune.trials", static_cast<double>(points.size()));
    points[0].note = "score choice";

    AutotuneResult result;
    static_cast<Sweep &>(result) =
        runSweep(gpu, prog, args, std::move(points));
    result.kind = "autotune";
    result.title = fmt("autotune ({} trials)", result.candidates.size());
    result.scoreChoiceMs = result.candidates[0].exactMs;
    const SweepPoint &win = *result.winner();
    result.bestMs = win.exactMs;

    static CompileMemo<std::shared_ptr<const WinnerSpec>> memo;
    const std::shared_ptr<const WinnerSpec> winner =
        memo.get(memoKey(prog, gpu.config(), win.copts), [&] {
            CompileResult compiled =
                compileProgram(prog, gpu.config(), win.copts);
            return std::make_shared<const WinnerSpec>(
                WinnerSpec{std::move(compiled.spec),
                           std::move(compiled.ownedProgram)});
        });
    result.best = winner->spec;
    result.ownedProgram = winner->ownedProgram;
    return result;
}

} // namespace npp
