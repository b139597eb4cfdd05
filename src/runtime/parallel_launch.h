/**
 * @file
 * The rules under which one launch's independent units of work — the
 * simulator's thread blocks, the reference interpreter's root iterations
 * — run on several workers of the task pool and still give the serial
 * loop's outputs bit for bit, plus the per-element store claims that
 * keep a racy program from ever writing one element twice concurrently.
 *
 * A launch runs in parallel only when every rule holds; otherwise it
 * runs serially, and the first failing rule names why (DESIGN.md,
 * "Performance architecture"):
 *
 *   R1  the root is a Map, ZipWith or Foreach (a Filter appends at one
 *       cursor, a GroupBy read-modify-writes its output, a Reduce folds
 *       into one result)
 *   R2  (simulator) no level is Split and the spec is not consolidated
 *   R3  no array the program writes is read by any expression, and no
 *       written array's bound storage overlaps another bound array's
 *   R4  (simulator) every level's launched block size is a power of two
 *   R5  at least two units, a pool of more than one thread, and a caller
 *       outside any parallel region
 *
 * R1 and R3's variable part are properties of the program alone, so
 * callers compute rootParallelRefusal once per program and cache it.
 */

#ifndef NPP_RUNTIME_PARALLEL_LAUNCH_H
#define NPP_RUNTIME_PARALLEL_LAUNCH_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/eval.h"

namespace npp {

/** R1 and the variable part of R3: empty when the root iterations of
 *  `prog` may run on several workers, else the named reason. */
std::string rootParallelRefusal(const Program &prog);

/** R3's aliasing part, per launch: empty unless a written array's bound
 *  storage [data, data + physSize) overlaps another bound array's. */
std::string storageAliasRefusal(const Program &prog,
                                const std::vector<ArraySlot> &arrays);

/** R5: the number of workers for `units` units of work (blocks or root
 *  iterations, named by `unit`), or 1 with the reason in `why`. */
int launchWorkers(int64_t units, const char *unit, std::string &why);

/**
 * One owner word per element of every array a parallel launch writes,
 * allocated only for that launch. A store first claims its element for
 * its worker (ids from 1); a store to an element another worker owns is
 * skipped and marks the launch conflicted, so two workers never write
 * one element, and the caller reruns the launch serially. Arrays
 * without words (a worker's own locals) need no claim.
 */
class OwnerWords
{
  public:
    OwnerWords(const Program &prog, const std::vector<ArraySlot> &arrays);

    /** Claim element `phys` of `arrayVar` for `worker`; false when
     *  another worker owns it (the store must be skipped). */
    bool
    claim(int arrayVar, int64_t phys, uint32_t worker)
    {
        std::atomic<uint32_t> *words = words_[arrayVar].get();
        if (!words)
            return true;
        uint32_t owner = words[phys].load();
        if (owner == worker ||
            (owner == 0 &&
             words[phys].compare_exchange_strong(owner, worker)))
            return true;
        conflicted_ = true;
        return false;
    }

    /** Did any store find its element owned by another worker? */
    bool conflicted() const { return conflicted_; }

  private:
    std::vector<std::unique_ptr<std::atomic<uint32_t>[]>> words_;
    std::atomic<bool> conflicted_{false};
};

/** How one launch's loop ran. */
enum class LaunchOutcome
{
    Parallel, //!< on several workers, result kept
    Serial,   //!< serially, because a rule failed
    Rerun     //!< serially again after a conflict or a failed check
};

/** When tracing is on, count a launch's outcome under
 *  `<layer>.parallel_launches`, `<layer>.serial_launches` or
 *  `<layer>.serial_reruns`, and under the same name suffixed with
 *  `/<program>[: <reason>]`, so a traced run shows which programs ran
 *  serially and why. */
void traceLaunchOutcome(const char *layer, LaunchOutcome outcome,
                        const Program &prog, const std::string &reason);

} // namespace npp

#endif // NPP_RUNTIME_PARALLEL_LAUNCH_H
