#include "support/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "support/env.h"
#include "support/logging.h"
#include "support/strings.h"

namespace npp {

namespace {

/** Default span capacity: ~48 MB of event storage at worst. The span
 *  store is a ring buffer — past the capacity the oldest spans are
 *  overwritten (and counted as dropped), so a long sweep keeps its most
 *  recent window instead of freezing the registry at startup spans (a
 *  sweep over a large figure can emit millions of cache-probe spans).
 *  Long multi-device sweeps can raise it with NPP_TRACE_MAX_SPANS. */
constexpr int64_t kDefaultMaxSpans = int64_t(1) << 20;

std::string
jsonNumber(double v)
{
    // Plain decimal with enough digits to round-trip microsecond spans.
    std::ostringstream os;
    os.precision(15);
    os << v;
    return os.str();
}

int
currentThreadId()
{
    static std::mutex mu;
    static std::map<std::thread::id, int> ids;
    thread_local int cached = -1;
    if (cached < 0) {
        std::lock_guard<std::mutex> lock(mu);
        auto [it, fresh] =
            ids.try_emplace(std::this_thread::get_id(),
                            static_cast<int>(ids.size()) + 1);
        (void)fresh;
        cached = it->second;
    }
    return cached;
}

} // namespace

struct Trace::Impl
{
    struct Span
    {
        const char *name;
        double beginUs;
        double durUs;
        int tid;
    };

    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();

    mutable std::mutex mu;
    /** Ring buffer: grows to maxSpans, then wraps. `head` is the next
     *  overwrite slot — equivalently the oldest retained span — once
     *  the buffer is full (0 while it is still growing). */
    std::vector<Span> spans;
    size_t head = 0;
    size_t maxSpans = static_cast<size_t>(kDefaultMaxSpans);
    uint64_t dropped = 0;
    bool warnedDrop = false;
    std::map<std::string, double> counters;

    /** Visit retained spans oldest-first (chronological order), however
     *  the ring has wrapped. Caller holds `mu`. */
    template <typename F>
    void
    eachSpan(F &&fn) const
    {
        const size_t n = spans.size();
        for (size_t i = 0; i < n; i++)
            fn(spans[(head + i) % n]);
    }
};

Trace::Trace()
    : impl_(new Impl)
{
    if (parseEnvBool("NPP_TRACE", false))
        enabled_.store(true, std::memory_order_relaxed);
    // Cap bounded below by 1 (a zero cap would make every span a drop
    // warning) and above well short of vector-capacity overflow.
    impl_->maxSpans = static_cast<size_t>(parseEnvInt(
        "NPP_TRACE_MAX_SPANS", kDefaultMaxSpans, 1, int64_t(1) << 31));
}

Trace &
Trace::instance()
{
    // Leaked intentionally: instrumented scopes may unwind during static
    // destruction.
    static Trace *trace = new Trace();
    return *trace;
}

void
Trace::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

double
Trace::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - impl_->epoch)
        .count();
}

void
Trace::count(const char *name, double delta)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->counters[name] += delta;
}

void
Trace::span(const char *name, double beginUs, double endUs)
{
    const int tid = currentThreadId();
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->spans.size() >= impl_->maxSpans) {
        // Ring wrap: keep the newest window, overwrite the oldest span
        // and count it as dropped.
        impl_->dropped++;
        if (!impl_->warnedDrop) {
            impl_->warnedDrop = true;
            NPP_WARN("trace span capacity ({}) reached; the registry "
                     "now overwrites its oldest spans (overwrites are "
                     "counted as droppedSpans / dropped_spans in the "
                     "flat-JSON export; raise the capacity with "
                     "NPP_TRACE_MAX_SPANS)",
                     impl_->maxSpans);
        }
        impl_->spans[impl_->head] = {name, beginUs, endUs - beginUs, tid};
        impl_->head = (impl_->head + 1) % impl_->maxSpans;
        return;
    }
    impl_->spans.push_back({name, beginUs, endUs - beginUs, tid});
}

std::string
Trace::chromeTraceJson() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    bool first = true;
    impl_->eachSpan([&](const Impl::Span &s) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"" << jsonEscape(s.name)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
           << ",\"ts\":" << jsonNumber(s.beginUs)
           << ",\"dur\":" << jsonNumber(std::max(s.durUs, 0.0)) << "}";
    });
    os << "],\"displayTimeUnit\":\"ms\"}";
    return os.str();
}

std::string
Trace::flatJson() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);

    // Aggregate spans by name (std::map: deterministic output order).
    std::map<std::string, TraceTimerStat> timers;
    impl_->eachSpan([&](const Impl::Span &s) {
        TraceTimerStat &t = timers[s.name];
        if (t.count == 0) {
            t.minUs = s.durUs;
            t.maxUs = s.durUs;
        }
        t.count++;
        t.totalUs += s.durUs;
        t.minUs = std::min(t.minUs, s.durUs);
        t.maxUs = std::max(t.maxUs, s.durUs);
    });

    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : impl_->counters) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":" << jsonNumber(value);
    }
    os << "},\"timers\":{";
    first = true;
    for (const auto &[name, t] : timers) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":{\"count\":" << t.count
           << ",\"total_us\":" << jsonNumber(t.totalUs)
           << ",\"min_us\":" << jsonNumber(t.minUs)
           << ",\"max_us\":" << jsonNumber(t.maxUs) << "}";
    }
    os << "},\"span_count\":" << impl_->spans.size()
       << ",\"max_spans\":" << impl_->maxSpans
       << ",\"dropped_spans\":" << impl_->dropped << "}";
    return os.str();
}

bool
Trace::writeChromeTrace(const std::string &path) const
{
    const std::string contents = chromeTraceJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        NPP_WARN("cannot open {} for writing", path);
        return false;
    }
    const bool ok =
        std::fwrite(contents.data(), 1, contents.size(), f) ==
        contents.size();
    std::fclose(f);
    if (!ok)
        NPP_WARN("short write to {}", path);
    return ok;
}

double
Trace::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->counters.find(name);
    return it == impl_->counters.end() ? 0.0 : it->second;
}

TraceTimerStat
Trace::timerStat(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    TraceTimerStat t;
    impl_->eachSpan([&](const Impl::Span &s) {
        if (name != s.name)
            return;
        if (t.count == 0) {
            t.minUs = s.durUs;
            t.maxUs = s.durUs;
        }
        t.count++;
        t.totalUs += s.durUs;
        t.minUs = std::min(t.minUs, s.durUs);
        t.maxUs = std::max(t.maxUs, s.durUs);
    });
    return t;
}

uint64_t
Trace::spanCount() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->spans.size();
}

uint64_t
Trace::droppedSpans() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->dropped;
}

uint64_t
Trace::maxSpans() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->maxSpans;
}

void
Trace::clear()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->spans.clear();
    impl_->head = 0;
    impl_->counters.clear();
    impl_->dropped = 0;
    impl_->warnedDrop = false;
}

} // namespace npp
