/**
 * @file
 * A Program is one top-level parallel pattern (a GPU kernel candidate)
 * together with its variable table and output binding. A Module is an
 * ordered list of Programs sharing a parameter namespace — the unit an
 * application compiles (one kernel launch sequence per module execution).
 */

#ifndef NPP_IR_PROGRAM_H
#define NPP_IR_PROGRAM_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/pattern.h"
#include "ir/var.h"

namespace npp {

/**
 * One top-level parallel pattern plus its variable environment.
 */
class Program
{
  public:
    explicit Program(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Process-unique id of this object: fresh for every constructed,
     *  copied, moved-to or assigned Program and never reused, so a memo
     *  keyed by it answers only this object. Like the compiled specs
     *  that point at the program, such a memo assumes the program does
     *  not change once compiled. */
    uint64_t id() const { return id_.value; }

    /** @name Variable table
     *  @{
     */
    int addVar(VarInfo info);
    const VarInfo &var(int id) const;
    VarInfo &var(int id);
    int numVars() const { return static_cast<int>(vars_.size()); }
    const std::vector<VarInfo> &vars() const { return vars_; }
    /** @} */

    /** Root (level-0) pattern. */
    const Pattern &root() const;
    Pattern &root();
    void setRoot(PatternPtr root) { root_ = std::move(root); }

    /** Array param receiving the root pattern's yields (-1 for Foreach). */
    int rootOutput() const { return rootOutput_; }
    void setRootOutput(int varId) { rootOutput_ = varId; }

    /** For root Filter: scalar-output array (1 element) receiving the
     *  number of kept elements; -1 otherwise. */
    int countOutput() const { return countOutput_; }
    void setCountOutput(int varId) { countOutput_ = varId; }

    /** Number of nest levels (root depth). */
    int numLevels() const;

    /**
     * Size hint for analysis when a pattern size is not a compile-time
     * constant (Section IV-C: default 1000, user-overridable per param).
     */
    void setSizeHint(int varId, double value) { sizeHints_[varId] = value; }
    const std::unordered_map<int, double> &sizeHints() const
    {
        return sizeHints_;
    }

    /** Check structural invariants; fatal() with a message on violation. */
    void validate() const;

  private:
    /** A value that no other object has held: every construction,
     *  copy, move and assignment draws the next one. */
    struct FreshId
    {
        uint64_t value = next();

        FreshId() = default;
        FreshId(const FreshId &) : value(next()) {}
        FreshId &
        operator=(const FreshId &)
        {
            value = next();
            return *this;
        }

        static uint64_t next();
    };

    FreshId id_;
    std::string name_;
    std::vector<VarInfo> vars_;
    PatternPtr root_;
    int rootOutput_ = -1;
    int countOutput_ = -1;
    std::unordered_map<int, double> sizeHints_;
};

} // namespace npp

#endif // NPP_IR_PROGRAM_H
