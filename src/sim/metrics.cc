#include "sim/metrics.h"

#include <algorithm>
#include <sstream>

#include "support/strings.h"

namespace npp {

namespace {

/** Writes the comma-separated `"key":value` members of one JSON object
 *  (the caller writes the braces). */
class JsonMembers
{
  public:
    explicit JsonMembers(std::ostringstream &os) : os_(os) {}

    /** Start a member; the caller writes its value. */
    std::ostringstream &
    key(const char *key)
    {
        os_ << (first_ ? "\"" : ",\"") << key << "\":";
        first_ = false;
        return os_;
    }

    void put(const char *k, double v) { key(k) << exactNum(v); }
    void put(const char *k, int64_t v) { key(k) << v; }
    void put(const char *k, bool v) { key(k) << (v ? "true" : "false"); }

    void
    put(const char *k, const std::string &v)
    {
        key(k) << "\"" << jsonEscape(v) << "\"";
    }

    /** Every table row of `obj`, in table order. */
    template <class S>
    void
    putFields(const S &obj)
    {
        visitFields<S>([&](auto row) { put(row.key, obj.*row.member); });
    }

  private:
    std::ostringstream &os_;
    bool first_ = true;
};

/** Every non-Diagnostic row of `a` and `b` is equal. */
template <class S>
bool
sameFields(const S &a, const S &b)
{
    bool same = true;
    visitFields<S>([&](auto row) {
        if constexpr (row.trait != FieldTrait::Diagnostic)
            same = same && a.*row.member == b.*row.member;
    });
    return same;
}

template <class S>
void
scaleSampledFields(S &obj, double factor)
{
    visitFields<S>([&](auto row) {
        if constexpr (row.trait == FieldTrait::Sampled)
            obj.*row.member *= factor;
    });
}

} // namespace

void
KernelStats::scaleSampled(double factor)
{
    scaleSampledFields(*this, factor);
    for (SiteTraffic &st : siteTraffic)
        scaleSampledFields(st, factor);
}

uint64_t
SimReport::heapBytes() const
{
    return stats.siteTraffic.capacity() * sizeof(SiteTraffic) +
           stats.classReason.capacity();
}

std::string
SimReport::toString() const
{
    return fmt("total {} ms (compute {}, mem {}, launch {}, blocks {}, "
               "malloc {}, combiner {}, compaction {}, queue {}); "
               "bw {} GB/s, warps {}, trans {}, warpInstr {}",
               fixed(totalMs, 4), fixed(computeMs, 4), fixed(memoryMs, 4),
               fixed(launchMs, 4), fixed(blockOverheadMs, 4),
               fixed(mallocMs, 4), fixed(combinerMs, 4),
               fixed(compactionMs, 4), fixed(queueBuildMs, 4),
               fixed(achievedBandwidth, 1), fixed(residentWarps, 0),
               fixed(stats.transactions, 0),
               fixed(stats.warpInstructions, 0));
}

std::string
SimReport::toJson(int64_t transactionBytes) const
{
    const double total = std::max(totalMs, 1e-12);
    std::ostringstream os;
    os << "{";
    JsonMembers report(os);
#define NPP_JSON_FIELD(type, name, init, key, trait) report.put(key, name);
    NPP_REPORT_TIME_FIELDS(NPP_JSON_FIELD)
    report.put("launch_share", launchMs / total);
    report.put("block_overhead_share", blockOverheadMs / total);
    NPP_REPORT_DEVICE_FIELDS(NPP_JSON_FIELD)
#undef NPP_JSON_FIELD
    report.put("coalesce_model", std::string(kCoalesceModelVersion));
    report.key("stats") << "{";
    JsonMembers(os).putFields(stats);
    os << "}";
    if (!stats.siteTraffic.empty()) {
        report.key("sites") << "[";
        for (size_t i = 0; i < stats.siteTraffic.size(); i++) {
            const SiteTraffic &st = stats.siteTraffic[i];
            const double moved =
                st.transactions * static_cast<double>(transactionBytes);
            os << (i ? ",{" : "{");
            JsonMembers site(os);
            site.putFields(st);
            site.put("coalescing_efficiency",
                     moved > 0.0 ? std::min(st.usefulBytes / moved, 1.0)
                                 : 1.0);
            os << "}";
        }
        os << "]";
    }
    os << "}";
    return os.str();
}

bool
reportsBitIdentical(const SimReport &a, const SimReport &b)
{
    return sameFields(a, b) && sameFields(a.stats, b.stats) &&
           std::equal(a.stats.siteTraffic.begin(),
                      a.stats.siteTraffic.end(),
                      b.stats.siteTraffic.begin(),
                      b.stats.siteTraffic.end(),
                      sameFields<SiteTraffic>);
}

} // namespace npp
