/**
 * @file
 * Application harness: every evaluation workload (the Fig 1 examples,
 * the Rodinia-derived applications, and the real-world case studies) is
 * an App — it owns its synthetic inputs, builds its pattern programs,
 * runs end-to-end on the simulated GPU under a chosen mapping strategy,
 * and validates its outputs against the sequential reference.
 */

#ifndef NPP_APPS_APP_H
#define NPP_APPS_APP_H

#include <memory>
#include <optional>
#include <unordered_map>
#include <string>

#include "sim/gpu.h"

namespace npp {

/** Result of one end-to-end application run. */
struct AppResult
{
    /** Accumulated GPU model time over every kernel launch (ms). */
    double gpuMs = 0.0;

    /** Host-to-device transfer time for the inputs (ms). */
    double transferMs = 0.0;

    /** Largest relative output error vs the sequential reference
     *  (only when run with validation). */
    double maxError = 0.0;

    /** Sequential work counts (feeds the CPU roofline baseline). */
    WorkCounts referenceWork;

    /** CPU baseline time for the same work (ms). */
    double cpuMs = 0.0;
};

/**
 * Executes program launches either on the simulated GPU (accumulating
 * model time; compiled specs are cached per program so iterative
 * applications compile once and relaunch) or on the sequential reference
 * interpreter (accumulating work counts). Apps write their host-side
 * iteration logic once against this interface.
 */
class Runner
{
  public:
    /** GPU mode. */
    Runner(const Gpu &gpu, CompileOptions copts)
        : gpu_(&gpu), copts_(std::move(copts))
    {}

    /** Reference mode. */
    Runner() = default;

    /** Launch once; returns model ms (0 in reference mode). */
    double launch(const Program &prog, const Bindings &args);

    /** Accumulated totals. */
    double gpuMs = 0.0;
    WorkCounts work;

  private:
    struct Compiled
    {
        std::shared_ptr<CompileResult> result;
        /** Identifies how the spec was produced (reference mode: the
         *  reference seed); combined with the binding fingerprint to
         *  key the process-wide EvalCache. */
        uint64_t specSeed = 0;
        bool seeded = false; //!< reference mode: specSeed computed
        /** Reference mode: rootParallelRefusal of the program. */
        std::string rootRefusal;
    };

    const Gpu *gpu_ = nullptr;
    CompileOptions copts_;
    std::unordered_map<const Program *, Compiled> cache_;
};

/**
 * Base class for evaluation workloads. A subclass builds its programs
 * and inputs in its constructor, sets the per-instance facts below, and
 * writes its host-side iteration once as hostLoop(); run() and the
 * default runManualMs() drive that loop through GPU and reference
 * Runners.
 */
class App
{
  public:
    virtual ~App() = default;

    const std::string &name() const { return name_; }

    /**
     * Run the full application (all kernels, all host-side iterations)
     * on the simulated GPU under the given strategy. When `validate` is
     * set, also run the sequential reference and fill maxError /
     * referenceWork / cpuMs.
     */
    AppResult run(const Gpu &gpu, Strategy strategy, bool validate = false);

    /** True if a hand-optimized comparator implementation exists. */
    bool hasManual() const { return hasManual_ || manual_.has_value(); }

    /**
     * Run the hand-optimized (expert CUDA) comparator; returns its model
     * time in ms. Only valid when hasManual(). The default runs
     * hostLoop() under the manual_ compile options.
     */
    virtual double runManualMs(const Gpu &gpu);

    /** Launch every kernel of the application through `runner` and
     *  return the outputs validation compares. */
    virtual std::vector<double> hostLoop(Runner &runner) = 0;

  protected:
    explicit App(std::string name) : name_(std::move(name)) {}

    /** Size hints (paramValues) and the fusion flag; run() adds the
     *  strategy. */
    CompileOptions hints_;

    /** Host-to-device input bytes, charged as AppResult::transferMs. */
    double inputBytes_ = 0.0;

    /** Validation error rule: maxRelDiff with this floor, or maxAbsDiff
     *  when absoluteError_ is set. */
    double errorFloor_ = 1e-12;
    bool absoluteError_ = false;

    /** Expert compile options of a comparator that runs hostLoop()
     *  unchanged (raw pointers, the Rodinia kernel's block shape). */
    std::optional<CompileOptions> manual_;

    /** Set by apps that override runManualMs() instead of setting
     *  manual_. */
    bool hasManual_ = false;

  private:
    std::string name_;
};

} // namespace npp

#endif // NPP_APPS_APP_H
