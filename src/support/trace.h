/**
 * @file
 * Low-overhead tracing and counting registry for the whole pipeline.
 *
 * Usage sites annotate scopes and events:
 *
 *     void compile(...) {
 *         NPP_TRACE_SCOPE("compile");          // timed span
 *         NPP_TRACE_COUNT("compile.calls", 1); // named counter
 *         ...
 *     }
 *
 * Cost model:
 *  - compiled out entirely when NPP_TRACE_DISABLED is defined (the
 *    macros expand to nothing — enforced by tests/support/trace_test);
 *  - when compiled in but disabled (the default), each macro is one
 *    relaxed atomic load and a branch — no clock reads, no locks, no
 *    allocation, so instrumented hot paths (parallelFor bodies, cache
 *    probes) stay bit-identical in behavior and effectively free;
 *  - when enabled, spans and counters go through a mutex-guarded
 *    registry (the instrumented regions are milliseconds-coarse, so
 *    lock cost is irrelevant) that is safe under the task pool.
 *
 * The span store is a bounded ring buffer (NPP_TRACE_MAX_SPANS slots,
 * default 1<<20): once full, each new span overwrites the oldest one
 * and bumps droppedSpans, so a long sweep's export always holds its
 * most recent window rather than whatever happened first.
 *
 * Exporters: chrome://tracing "traceEvents" JSON (load the file via the
 * about:tracing UI or Perfetto) and a flat JSON summary of counters and
 * per-name timer aggregates.
 *
 * Enabling: programmatic via Trace::instance().setEnabled(true) (the
 * --trace flags in nppc and the bench binaries do this), or ambient via
 * the NPP_TRACE=1 environment variable.
 */

#ifndef NPP_SUPPORT_TRACE_H
#define NPP_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>

namespace npp {

/** True when the tracing macros are compiled in (see NPP_TRACE_DISABLED). */
#ifdef NPP_TRACE_DISABLED
inline constexpr bool kTraceCompiledIn = false;
#else
inline constexpr bool kTraceCompiledIn = true;
#endif

/** Aggregate of all spans recorded under one name. */
struct TraceTimerStat
{
    uint64_t count = 0;
    double totalUs = 0.0;
    double minUs = 0.0;
    double maxUs = 0.0;
};

/**
 * Process-global trace registry. All methods are thread-safe; the
 * enabled gate is a relaxed atomic so disabled call sites never touch
 * the mutex.
 */
class Trace
{
  public:
    static Trace &instance();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void setEnabled(bool on);

    /** Microseconds since the registry was created (steady clock). */
    double nowUs() const;

    /** Add `delta` to the named counter. */
    void count(const char *name, double delta = 1.0);

    /** Record a completed span [beginUs, endUs] (ScopedTimer calls this). */
    void span(const char *name, double beginUs, double endUs);

    /** @name Exporters
     *  @{
     */
    std::string chromeTraceJson() const;
    std::string flatJson() const;
    /** Write the Chrome trace to a file; warns and returns false on
     *  I/O failure. */
    bool writeChromeTrace(const std::string &path) const;
    /** @} */

    /** @name Introspection for tests and reports
     *  @{
     */
    double counterValue(const std::string &name) const;
    TraceTimerStat timerStat(const std::string &name) const;
    uint64_t spanCount() const;
    /** Spans overwritten by the ring buffer (each wrap evicts — and
     *  counts — the oldest span). */
    uint64_t droppedSpans() const;
    /** Ring capacity in effect (NPP_TRACE_MAX_SPANS, default 1<<20). */
    uint64_t maxSpans() const;
    /** @} */

    /** Drop all recorded spans and counters (keeps the enabled state). */
    void clear();

  private:
    Trace();

    struct Impl;
    Impl *impl_;
    std::atomic<bool> enabled_{false};
};

/**
 * RAII span: samples the clock on construction and records the span on
 * destruction. The enabled gate is sampled once, at construction, so a
 * span whose scope straddles setEnabled() is either fully recorded or
 * fully skipped.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(const char *name)
    {
        Trace &t = Trace::instance();
        if (t.enabled()) {
            name_ = name;
            beginUs_ = t.nowUs();
        }
    }

    ~ScopedTimer()
    {
        if (name_) {
            Trace &t = Trace::instance();
            t.span(name_, beginUs_, t.nowUs());
        }
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    const char *name_ = nullptr;
    double beginUs_ = 0.0;
};

} // namespace npp

#ifdef NPP_TRACE_DISABLED

#define NPP_TRACE_SCOPE(name) \
    do {                      \
    } while (0)
#define NPP_TRACE_COUNT(name, delta) \
    do {                             \
    } while (0)

#else

#define NPP_TRACE_CONCAT_(a, b) a##b
#define NPP_TRACE_CONCAT(a, b) NPP_TRACE_CONCAT_(a, b)

/** Time the enclosing scope under `name` (a string literal). */
#define NPP_TRACE_SCOPE(name) \
    ::npp::ScopedTimer NPP_TRACE_CONCAT(nppTraceScope_, __LINE__)(name)

/** Add `delta` to counter `name` (string literal) when tracing is on. */
#define NPP_TRACE_COUNT(name, delta)                         \
    do {                                                     \
        if (::npp::Trace::instance().enabled())              \
            ::npp::Trace::instance().count((name), (delta)); \
    } while (0)

#endif // NPP_TRACE_DISABLED

#endif // NPP_SUPPORT_TRACE_H
