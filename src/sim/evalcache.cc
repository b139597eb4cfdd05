#include "sim/evalcache.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "ir/printer.h"
#include "support/binfile.h"
#include "support/env.h"
#include "support/logging.h"
#include "support/strings.h"
#include "support/trace.h"

// The main build generates npp_build_hash.h from the contents of src/
// (src/sim/CMakeLists.txt). A build that compiles src/ without it uses
// this fixed value instead.
#if __has_include("npp_build_hash.h")
#include "npp_build_hash.h"
#else
#define NPP_BUILD_HASH 0x6e6f2d6275696c64ULL // "no-build"
#endif

namespace npp {

namespace {

uint64_t
mix(uint64_t h, uint64_t v)
{
    return fnvBytes(&v, sizeof(v), h);
}

uint64_t
mixDouble(uint64_t h, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return mix(h, bits);
}

/** Order-independent digest of an unordered int->double map. */
uint64_t
mixMap(uint64_t h, const std::unordered_map<int, double> &m)
{
    uint64_t acc = 0;
    for (const auto &[k, v] : m) {
        uint64_t one = mix(kFnvBasis, static_cast<uint64_t>(k));
        one = mixDouble(one, v);
        acc += one; // commutative fold: iteration order must not matter
    }
    h = mix(h, static_cast<uint64_t>(m.size()));
    return mix(h, acc);
}

int64_t
readCapacityBytes()
{
    // NPP_EVAL_CACHE=0/false/off/no disables the cache entirely (any
    // other spelling warns and keeps it enabled).
    if (!parseEnvBool("NPP_EVAL_CACHE", true))
        return 0;
    // Upper bound keeps mb * 2^20 comfortably inside int64 (8 EB would
    // overflow); use NPP_EVAL_CACHE=off — not a zero/negative size — to
    // disable the cache.
    const int64_t mb =
        parseEnvInt("NPP_EVAL_CACHE_MB", 4096, 1, int64_t(1) << 32);
    return mb * 1024 * 1024;
}

/** @name Disk-entry serialization
 *
 * One file per entry:
 *
 *     magic[8] "NPPEVC1\n"
 *     u32 format version (kEvalCacheDiskFormatVersion)
 *     u32 coalesce-model tag length, then the tag bytes
 *     u64 build hash (evalCacheBuildHash: another build's file is
 *         rejected)
 *     u64 key (must match the probe key — guards renamed files)
 *     u64 payload byte count
 *     u64 payload FNV-1a checksum (guards torn/bit-rotted payloads)
 *     payload: u8 kind, then a serialized SimReport (GPU entries) or
 *         four u64 work counts (reference entries), then the optional
 *         output arrays
 *
 * Numbers are raw little-endian host encoding (the cache directory is a
 * same-machine artifact, not an interchange format); doubles travel as
 * their bit patterns, so replayed reports are bit-identical. Any header
 * or payload mismatch rejects the file as a miss — never trusts it.
 * @{
 */

constexpr char kDiskMagic[8] = {'N', 'P', 'P', 'E', 'V', 'C', '1', '\n'};

template <class S>
void
putFields(ByteWriter &w, const S &obj)
{
    visitFields<S>([&](auto row) { w.put(obj.*row.member); });
}

template <class S>
void
getFields(ByteReader &r, S &obj)
{
    visitFields<S>([&](auto row) { r.get(obj.*row.member); });
}

/** A report's table rows in table order (SimReport's, then its
 *  KernelStats'), then the site table as a count and each site's rows. */
void
putReport(ByteWriter &w, const SimReport &r)
{
    putFields(w, r);
    putFields(w, r.stats);
    w.u64(r.stats.siteTraffic.size());
    for (const SiteTraffic &st : r.stats.siteTraffic)
        putFields(w, st);
}

SimReport
getReport(ByteReader &r)
{
    SimReport rep;
    getFields(r, rep);
    getFields(r, rep.stats);
    // Bound the site count by the bytes left before allocating: a site
    // encodes to at least as many bytes as a default one.
    static const size_t kSiteBytes = [] {
        ByteWriter w;
        putFields(w, SiteTraffic{});
        return w.buf.size();
    }();
    const uint64_t sites = r.u64();
    if (r.ok && sites <= (r.n - r.off) / kSiteBytes) {
        rep.stats.siteTraffic.resize(sites);
        for (SiteTraffic &st : rep.stats.siteTraffic)
            getFields(r, st);
    } else {
        r.ok = false;
    }
    return rep;
}

} // namespace

const char *
evalTierName(EvalTier tier)
{
    switch (tier) {
    case EvalTier::Simulated: return "simulated";
    case EvalTier::Memory: return "memory";
    case EvalTier::Disk: return "disk";
    }
    return "?";
}

uint64_t
evalCacheBuildHash()
{
    return NPP_BUILD_HASH;
}

namespace {

/** What an entry memoizes (the index of its payload alternative): the
 *  first payload byte in both tiers. A probe accepts only entries of its
 *  own kind. */
enum class EntryKind : uint8_t
{
    Gpu = 0,       //!< a simulated launch: SimReport
    Reference = 1, //!< a sequential reference run: WorkCounts
};

/** Read-only array contents that the cache and the host arrays it
 *  replays into share. */
using SharedArray = std::shared_ptr<const std::vector<double>>;

/** One distinct output array of the memory tier, shared by every entry
 *  whose captured contents are bit-equal to it (and by the host arrays
 *  it was replayed into). */
struct Blob
{
    uint64_t digest = 0;
    SharedArray data;
    uint64_t refs = 0; //!< entries that use it
};

/** One output array on its way into the memory tier: a view of the
 *  bound storage (store) or the contents read from disk (`owned`). */
struct OutputArray
{
    int varId = 0;
    const double *data = nullptr; //!< unused when `owned` holds them
    size_t size = 0;
    uint64_t digest = 0;
    SharedArray owned;

    const double *contents() const { return owned ? owned->data() : data; }
};

/** One memoized evaluation (either tier). */
struct CacheEntry
{
    uint64_t key = 0;
    std::variant<SimReport, WorkCounts> payload;
    bool hasOutputs = false;
    /** (varId, shared contents) per output array, captured from a
     *  functional run so wantOutputs hits can replay them. */
    std::vector<std::pair<int, Blob *>> outputs;

    EntryKind kind() const { return EntryKind(payload.index()); }
};

/** Footprint of an entry apart from its blobs: struct + index/list
 *  overhead, the report's heap payload (per-site traffic tables,
 *  diagnostics) and the output list. Entries do not change while
 *  resident, so insert and drop compute the same value. */
uint64_t
entryFootprint(const CacheEntry &entry)
{
    const SimReport *report = std::get_if<SimReport>(&entry.payload);
    return sizeof(CacheEntry) + 64 + (report ? report->heapBytes() : 0) +
           entry.outputs.capacity() * sizeof(entry.outputs[0]);
}

uint64_t
blobFootprint(const Blob &blob)
{
    return sizeof(Blob) + 64 + blob.data->capacity() * sizeof(double);
}

/** (varId, contents, length, digest) of one output an entry can
 *  replay, and the shared contents when there are any. */
struct OutputView
{
    int varId;
    const double *data;
    size_t size;
    uint64_t digest;
    const SharedArray &shared;
};

OutputView
viewOf(const std::pair<int, Blob *> &out)
{
    const Blob &blob = *out.second;
    return {out.first, blob.data->data(), blob.data->size(), blob.digest,
            blob.data};
}

OutputView
viewOf(const OutputArray &out)
{
    return {out.varId, out.contents(), out.size, out.digest, out.owned};
}

/** Can an entry answer a probe? A wantOutputs probe needs captured
 *  outputs (memory blobs or disk contents), each naming a bound output
 *  array param of matching length; a host array then shares them, with
 *  their digest, and a plain vector gets a copy. */
template <class Outputs>
bool
serveEntry(bool hasOutputs, const Outputs &outputs, bool wantOutputs,
           const Bindings *args)
{
    if (!wantOutputs)
        return true;
    if (!hasOutputs)
        return false;
    const Program &prog = args->program();
    for (const auto &out : outputs) {
        const OutputView o = viewOf(out);
        if (o.varId < 0 || o.varId >= prog.numVars() ||
            prog.var(o.varId).role != VarRole::ArrayParam ||
            !prog.var(o.varId).isOutput)
            return false;
        const ArraySlot &slot = args->arraySlot(o.varId);
        if (!slot.data || slot.physSize != static_cast<int64_t>(o.size))
            return false;
    }
    for (const auto &out : outputs) {
        const OutputView o = viewOf(out);
        if (o.shared && args->shareOutput(o.varId, o.shared, o.digest))
            continue;
        if (o.size)
            std::memcpy(args->arraySlot(o.varId).data, o.data,
                        o.size * sizeof(double));
    }
    return true;
}

std::string
diskPathFor(const std::string &dir, uint64_t key)
{
    char name[32];
    std::snprintf(name, sizeof name, "%016llx",
                  static_cast<unsigned long long>(key));
    return dir + "/" + name + ".nppeval";
}

/** The payload of a disk entry: kind byte, the report (Gpu) or the
 *  work counts (Reference), then the output arrays. */
std::string
serializeEntry(const CacheEntry &entry, const std::vector<OutputArray> &outs)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(entry.kind()));
    if (const SimReport *report = std::get_if<SimReport>(&entry.payload)) {
        putReport(w, *report);
    } else {
        const WorkCounts &work = std::get<WorkCounts>(entry.payload);
        w.u64(work.computeOps);
        w.u64(work.bytesRead);
        w.u64(work.bytesWritten);
        w.u64(work.iterations);
    }
    w.u8(entry.hasOutputs ? 1 : 0);
    w.u64(outs.size());
    for (const OutputArray &o : outs) {
        w.i64(o.varId);
        w.u64(o.size);
        w.buf.append(reinterpret_cast<const char *>(o.contents()),
                     o.size * sizeof(double));
    }
    return std::move(w.buf);
}

bool
deserializeEntry(const std::string &payload, CacheEntry *out,
                 std::vector<OutputArray> *outs)
{
    ByteReader r{payload.data(), payload.size()};
    const uint8_t kind = r.u8();
    if (!r.ok || kind > static_cast<uint8_t>(EntryKind::Reference))
        return false;
    if (EntryKind(kind) == EntryKind::Gpu) {
        out->payload = getReport(r);
    } else {
        WorkCounts work;
        work.computeOps = r.u64();
        work.bytesRead = r.u64();
        work.bytesWritten = r.u64();
        work.iterations = r.u64();
        out->payload = work;
    }
    out->hasOutputs = r.u8() != 0;
    const uint64_t count = r.u64();
    if (!r.ok || count > (r.n - r.off) / (2 * sizeof(uint64_t)))
        return false;
    outs->clear();
    outs->reserve(count);
    for (uint64_t i = 0; i < count; i++) {
        const int64_t varId = r.i64();
        const uint64_t elems = r.u64();
        if (!r.ok || elems > (r.n - r.off) / sizeof(double))
            return false;
        OutputArray o;
        o.varId = static_cast<int>(varId);
        o.size = elems;
        auto contents = std::make_shared<std::vector<double>>(elems);
        if (!r.take(contents->data(), elems * sizeof(double)))
            return false;
        o.owned = std::move(contents);
        outs->push_back(std::move(o));
    }
    return r.exhausted();
}

enum class DiskRead { Ok, NotFound, Reject };

/** Read + validate one disk entry. Every failure mode past "file does
 *  not exist" — short header, bad magic, version, model-tag or build
 *  mismatch, key mismatch (renamed file), size or checksum mismatch,
 *  payload that under- or over-runs — is a Reject: counted, treated as
 *  a miss, and never allowed to crash or corrupt the caller. */
DiskRead
readDiskEntry(const std::string &path, uint64_t key, CacheEntry *out,
              std::vector<OutputArray> *outs)
{
    std::string data;
    switch (readWholeFile(path, &data)) {
    case FileRead::NotFound: return DiskRead::NotFound;
    case FileRead::Error: return DiskRead::Reject;
    case FileRead::Ok: break;
    }

    ByteReader r{data.data(), data.size()};
    char magic[sizeof kDiskMagic];
    if (!r.take(magic, sizeof magic) ||
        std::memcmp(magic, kDiskMagic, sizeof magic) != 0)
        return DiskRead::Reject;
    if (r.u32() != kEvalCacheDiskFormatVersion)
        return DiskRead::Reject;
    const uint32_t tagLen = r.u32();
    const std::string tag = kCoalesceModelVersion;
    if (!r.ok || tagLen != tag.size() || r.n - r.off < tagLen ||
        std::memcmp(r.p + r.off, tag.data(), tagLen) != 0)
        return DiskRead::Reject;
    r.off += tagLen;
    if (r.u64() != evalCacheBuildHash())
        return DiskRead::Reject;
    if (r.u64() != key)
        return DiskRead::Reject;
    const uint64_t payloadSize = r.u64();
    const uint64_t payloadFnv = r.u64();
    if (!r.ok || r.n - r.off != payloadSize)
        return DiskRead::Reject;
    if (fnvBytes(r.p + r.off, payloadSize) != payloadFnv)
        return DiskRead::Reject;

    std::string payload(r.p + r.off, payloadSize);
    if (!deserializeEntry(payload, out, outs))
        return DiskRead::Reject;
    out->key = key;
    return DiskRead::Ok;
}

/** Write one disk entry (writeFileAtomic: a concurrent reader either
 *  sees no file or a complete one). Returns false (with a one-line
 *  warning) on I/O failure. */
bool
writeDiskEntry(const std::string &dir, uint64_t key,
               const std::string &payload)
{
    ByteWriter header;
    header.buf.append(kDiskMagic, sizeof kDiskMagic);
    header.u32(kEvalCacheDiskFormatVersion);
    const std::string tag = kCoalesceModelVersion;
    header.u32(static_cast<uint32_t>(tag.size()));
    header.buf.append(tag);
    header.u64(evalCacheBuildHash());
    header.u64(key);
    header.u64(payload.size());
    header.u64(fnvBytes(payload.data(), payload.size()));

    return writeFileAtomic(diskPathFor(dir, key), {header.buf, payload},
                           "eval cache");
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

} // namespace

struct EvalCache::Impl
{
    using Entry = CacheEntry;

    mutable std::mutex mu;
    std::list<Entry> lru; // front = most recent
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
    /** Output blobs by digest (more than one per digest only when
     *  different contents collide). */
    std::unordered_map<uint64_t, std::vector<std::unique_ptr<Blob>>> blobs;
    std::string diskDir; // empty = no disk tier
    /** Effectiveness counters plus the resident byte total: entries
     *  and distinct blobs, each counted once (`entries` is filled in
     *  by snapshots from lru.size()). */
    EvalCacheStats counters;

    /** Zero every effectiveness counter; caller holds mu. */
    void
    resetCounters()
    {
        counters = EvalCacheStats{.bytes = counters.bytes};
    }

    /** The blob holding `out`'s contents: an existing one whose bytes
     *  compare equal, else a new one (sharing `owned` contents, copying
     *  a view). Caller holds mu. */
    Blob *
    intern(OutputArray &out)
    {
        auto &bucket = blobs[out.digest];
        const double *src = out.contents();
        for (const auto &blob : bucket) {
            if (blob->data->size() == out.size &&
                (out.size == 0 ||
                 std::memcmp(blob->data->data(), src,
                             out.size * sizeof(double)) == 0)) {
                blob->refs++;
                return blob.get();
            }
        }
        auto blob = std::make_unique<Blob>();
        blob->digest = out.digest;
        blob->data = out.owned ? out.owned
                               : std::make_shared<const std::vector<double>>(
                                     src, src + out.size);
        blob->refs = 1;
        counters.bytes += blobFootprint(*blob);
        bucket.push_back(std::move(blob));
        return bucket.back().get();
    }

    /** Drop one use of `blob`, freeing it with its last. Caller holds
     *  mu. */
    void
    release(Blob *blob)
    {
        if (--blob->refs > 0)
            return;
        counters.bytes -= blobFootprint(*blob);
        auto it = blobs.find(blob->digest);
        auto &bucket = it->second;
        for (auto b = bucket.begin(); b != bucket.end(); ++b) {
            if (b->get() == blob) {
                bucket.erase(b);
                break;
            }
        }
        if (bucket.empty())
            blobs.erase(it);
    }

    /** Remove one entry and release its blobs. Caller holds mu. */
    void
    drop(std::list<Entry>::iterator it)
    {
        for (const auto &[varId, blob] : it->outputs)
            release(blob);
        counters.bytes -= entryFootprint(*it);
        index.erase(it->key);
        lru.erase(it);
    }

    void
    evictTo(uint64_t capacity)
    {
        while (counters.bytes > capacity && !lru.empty()) {
            drop(std::prev(lru.end()));
            counters.evictions++;
            NPP_TRACE_COUNT("evalcache.evictions", 1);
        }
    }

    /** Insert (or refresh) an entry whose outputs are `outs`; caller
     *  holds mu. */
    void
    insertLocked(Entry &&entry, std::vector<OutputArray> &outs,
                 uint64_t capacity)
    {
        auto it = index.find(entry.key);
        // Concurrent misses can race to store the same evaluation; keep
        // whichever entry carries outputs (otherwise equal).
        if (it != index.end() && it->second->kind() == entry.kind() &&
            it->second->hasOutputs && !entry.hasOutputs) {
            lru.splice(lru.begin(), lru, it->second);
            return;
        }
        // Intern before dropping the entry this one replaces, so equal
        // contents move over instead of being freed and copied again.
        entry.outputs.reserve(outs.size());
        for (OutputArray &out : outs)
            entry.outputs.emplace_back(out.varId, intern(out));
        if (it != index.end())
            drop(it->second);
        const uint64_t key = entry.key;
        counters.bytes += entryFootprint(entry);
        lru.push_front(std::move(entry));
        index[key] = lru.begin();
        evictTo(capacity);
    }

    /** Probe the memory tier, then the disk tier, for an entry of
     *  `kind` that can answer (see serveEntry). On a hit, `take` reads
     *  the entry and `tierOut` (when non-null) names the tier. */
    template <class Take>
    bool
    probe(uint64_t key, EntryKind kind, bool wantOutputs,
          const Bindings *args, uint64_t capacity, EvalTier *tierOut,
          Take &&take)
    {
        std::string dir;
        {
            std::lock_guard<std::mutex> lock(mu);
            auto it = index.find(key);
            if (it != index.end() && it->second->kind() == kind &&
                serveEntry(it->second->hasOutputs, it->second->outputs,
                           wantOutputs, args)) {
                counters.hits++;
                NPP_TRACE_COUNT("evalcache.hits", 1);
                lru.splice(lru.begin(), lru, it->second);
                if (tierOut)
                    *tierOut = EvalTier::Memory;
                take(*it->second);
                return true;
            }
            counters.misses++;
            NPP_TRACE_COUNT("evalcache.misses", 1);
            dir = diskDir;
        }

        if (dir.empty())
            return false;

        // Memory missed: probe the disk tier outside the lock (atomic
        // renames guarantee any file we open is complete).
        Entry entry;
        std::vector<OutputArray> outs;
        const DiskRead rd =
            readDiskEntry(diskPathFor(dir, key), key, &entry, &outs);
        if (rd != DiskRead::Ok || entry.kind() != kind) {
            std::lock_guard<std::mutex> lock(mu);
            if (rd == DiskRead::Reject) {
                counters.diskRejects++;
                NPP_TRACE_COUNT("evalcache.disk_rejects", 1);
            }
            counters.diskMisses++;
            NPP_TRACE_COUNT("evalcache.disk_misses", 1);
            return false;
        }

        for (OutputArray &o : outs)
            o.digest = digestArray(o.contents(),
                                   static_cast<int64_t>(o.size));
        const bool usable =
            serveEntry(entry.hasOutputs, outs, wantOutputs, args);
        if (usable)
            take(entry);
        {
            std::lock_guard<std::mutex> lock(mu);
            // Promote into memory either way — a later metrics-only
            // probe of the same key should not pay the disk read again.
            insertLocked(std::move(entry), outs, capacity);
            if (usable) {
                counters.diskHits++;
                NPP_TRACE_COUNT("evalcache.disk_hits", 1);
            } else {
                counters.diskMisses++;
                NPP_TRACE_COUNT("evalcache.disk_misses", 1);
            }
        }
        if (usable && tierOut)
            *tierOut = EvalTier::Disk;
        return usable;
    }

    /** Insert into memory and write through to disk. With `outputsOf`
     *  the current contents of its output arrays are captured (digested
     *  in place, copied only if no equal blob is resident), and its host
     *  arrays take those digests. */
    void
    store(Entry &&entry, const Bindings *outputsOf, uint64_t capacity)
    {
        std::vector<OutputArray> outs;
        if (outputsOf) {
            entry.hasOutputs = true;
            for (const auto &v : outputsOf->program().vars()) {
                if (v.role != VarRole::ArrayParam || !v.isOutput)
                    continue;
                const ArraySlot &slot = outputsOf->arraySlot(v.id);
                if (!slot.data)
                    continue;
                OutputArray o;
                o.varId = v.id;
                o.data = slot.data;
                o.size = static_cast<size_t>(slot.physSize);
                o.digest = digestArray(slot.data, slot.physSize);
                outputsOf->setOutputDigest(v.id, o.digest);
                outs.push_back(std::move(o));
            }
        }

        std::string dir;
        {
            std::lock_guard<std::mutex> lock(mu);
            dir = diskDir;
        }
        // Disk files stay self-contained: the payload carries the output
        // contents, read from the bound storage.
        std::string payload;
        if (!dir.empty())
            payload = serializeEntry(entry, outs);
        const uint64_t key = entry.key;
        const bool hasOutputs = entry.hasOutputs;
        {
            std::lock_guard<std::mutex> lock(mu);
            insertLocked(std::move(entry), outs, capacity);
        }

        if (dir.empty())
            return;
        // Write-through. A report-only evaluation never clobbers an
        // existing file (it might carry outputs from a functional run);
        // an evaluation with outputs always refreshes it.
        if (!hasOutputs && fileExists(diskPathFor(dir, key)))
            return;
        if (writeDiskEntry(dir, key, payload)) {
            std::lock_guard<std::mutex> lock(mu);
            counters.diskStores++;
            NPP_TRACE_COUNT("evalcache.disk_stores", 1);
        }
    }
};

EvalCache::EvalCache()
    : impl_(new Impl),
      capacityBytes_(readCapacityBytes())
{
    // Hardened read: unset, empty, and whitespace-only all mean "no
    // disk tier" (a raw getenv used to accept whitespace-only values
    // and root the disk cache at a junk path).
    setDiskDir(parseEnvString("NPP_EVAL_CACHE_DIR"));
}

EvalCache &
EvalCache::instance()
{
    // Intentionally leaked: outlives every static destructor that might
    // still evaluate programs.
    static EvalCache *cache = new EvalCache();
    return *cache;
}

uint64_t
EvalCache::hashProgram(const Program &prog)
{
    const std::string text = printProgram(prog);
    uint64_t h = fnvBytes(text.data(), text.size());
    return mixMap(h, prog.sizeHints());
}

uint64_t
EvalCache::hashCompileOptions(const CompileOptions &copts)
{
    uint64_t h = kFnvBasis;
    h = mix(h, static_cast<uint64_t>(copts.strategy));
    h = mix(h, copts.fixedMapping.hashValue());
    // Consolidation granularity changes the launch geometry (lanes per
    // bin), so the two variants must never share an entry.
    h = mix(h, static_cast<uint64_t>(copts.binGranularity));
    h = mix(h, copts.prealloc.enable ? 1 : 0);
    h = mix(h, copts.prealloc.layoutFromMapping ? 1 : 0);
    h = mix(h, copts.smemPrefetch ? 1 : 0);
    h = mixMap(h, copts.paramValues);
    h = mix(h, static_cast<uint64_t>(copts.objective));
    h = mix(h, copts.rawPointers ? 1 : 0);
    h = mix(h, copts.fuseMapReduce ? 1 : 0);
    // keepCandidates and explainSearch only add diagnostics; they cannot
    // change the spec, so they are deliberately excluded from the key.
    return h;
}

uint64_t
EvalCache::hashDevice(const DeviceConfig &d)
{
    uint64_t h = fnvBytes(d.name.data(), d.name.size());
    h = mix(h, static_cast<uint64_t>(d.numSMs));
    h = mix(h, static_cast<uint64_t>(d.warpSize));
    h = mix(h, static_cast<uint64_t>(d.maxThreadsPerBlock));
    h = mix(h, static_cast<uint64_t>(d.maxThreadsPerSM));
    h = mix(h, static_cast<uint64_t>(d.maxBlocksPerSM));
    for (int dim : d.maxBlockDim)
        h = mix(h, static_cast<uint64_t>(dim));
    h = mix(h, static_cast<uint64_t>(d.dpLanesPerSM));
    h = mixDouble(h, d.clockGHz);
    h = mix(h, static_cast<uint64_t>(d.sharedMemPerSM));
    h = mix(h, static_cast<uint64_t>(d.sharedMemPerBlockLimit));
    h = mixDouble(h, d.dramBandwidthGBs);
    h = mixDouble(h, d.memLatencyCycles);
    h = mix(h, static_cast<uint64_t>(d.transactionBytes));
    h = mix(h, static_cast<uint64_t>(d.sharedMemBanks));
    h = mix(h, static_cast<uint64_t>(d.l1CacheBytes));
    h = mixDouble(h, d.pcieBandwidthGBs);
    h = mixDouble(h, d.kernelLaunchOverheadUs);
    h = mixDouble(h, d.blockScheduleCycles);
    h = mixDouble(h, d.deviceMallocCycles);
    h = mixDouble(h, d.mallocParallelism);
    h = mixDouble(h, d.syncthreadsCycles);
    h = mixDouble(h, d.wrapperTrafficFactor);
    h = mix(h, static_cast<uint64_t>(d.minBlockSize));
    h = mix(h, static_cast<uint64_t>(d.maxLogicalDims));
    return h;
}

uint64_t
EvalCache::hashBindings(const Bindings &args)
{
    return args.fingerprint();
}

uint64_t
EvalCache::hashExec(const ExecOptions &eopts)
{
    // metricsOnly and blockClasses are excluded on purpose: they are
    // report-identical execution modes (determinism test + the classed
    // differential suite), so trials in any mode can share entries; the
    // classedBlocks/classReason diagnostics of a replayed report may
    // therefore reflect the mode that originally populated the cache.
    // siteStats is NOT report-identical (it adds the per-site table), so
    // it is keyed.
    uint64_t h = mix(kFnvBasis, static_cast<uint64_t>(eopts.maxSampledBlocks));
    h = mix(h, eopts.siteStats ? 1 : 0);
    // Root shards are mixed in only when requested so every key of an
    // unsharded run — including all pre-existing disk-tier entries —
    // stays byte-identical to before the multi-device layer existed.
    if (eopts.sharded()) {
        h = mix(h, 0x5da4dull); // shard tag: distinct from the flat tail
        h = mix(h, static_cast<uint64_t>(eopts.rootShardLo));
        h = mix(h, static_cast<uint64_t>(eopts.rootShardHi));
    }
    return h;
}

uint64_t
EvalCache::hashFleet(const FleetConfig &fleet)
{
    uint64_t h = mix(kFnvBasis, hashDevice(fleet.device));
    h = mix(h, static_cast<uint64_t>(fleet.deviceCount));
    h = mixDouble(h, fleet.peerBandwidthGBs);
    h = mixDouble(h, fleet.peerLatencyUs);
    return h;
}

uint64_t
EvalCache::combine(uint64_t a, uint64_t b)
{
    return mix(mix(kFnvBasis, a), b);
}

uint64_t
EvalCache::specSeed(const Program &prog, const CompileOptions &copts,
                    const DeviceConfig &device)
{
    return combine(combine(hashProgram(prog), hashCompileOptions(copts)),
                   hashDevice(device));
}

uint64_t
EvalCache::referenceSeed(const Program &prog)
{
    // A spec seed's last input is a device hash; this fixed tag stands
    // where the compile-option and device hashes would be. The entry's
    // kind byte keeps the two apart even if keys ever collided.
    constexpr uint64_t kReferenceTag = 0x7265666572656e63ULL; // "referenc"
    return combine(hashProgram(prog), kReferenceTag);
}

std::optional<SimReport>
EvalCache::find(uint64_t key, bool wantOutputs, const Bindings *args,
                EvalTier *tierOut)
{
    std::optional<SimReport> report;
    if (enabled()) {
        impl_->probe(key, EntryKind::Gpu, wantOutputs, args,
                     static_cast<uint64_t>(capacityBytes_), tierOut,
                     [&](const CacheEntry &e) {
                         report = std::get<SimReport>(e.payload);
                     });
    }
    return report;
}

void
EvalCache::store(uint64_t key, const SimReport &report,
                 const Bindings *outputsOf)
{
    if (!enabled())
        return;
    CacheEntry entry;
    entry.key = key;
    entry.payload = report;
    impl_->store(std::move(entry), outputsOf,
                 static_cast<uint64_t>(capacityBytes_));
}

std::optional<WorkCounts>
EvalCache::findReference(uint64_t key, const Bindings &args,
                         EvalTier *tierOut)
{
    std::optional<WorkCounts> work;
    if (enabled()) {
        impl_->probe(key, EntryKind::Reference, /*wantOutputs=*/true, &args,
                     static_cast<uint64_t>(capacityBytes_), tierOut,
                     [&](const CacheEntry &e) {
                         work = std::get<WorkCounts>(e.payload);
                     });
    }
    return work;
}

void
EvalCache::storeReference(uint64_t key, const WorkCounts &work,
                          const Bindings &outputsOf)
{
    if (!enabled())
        return;
    CacheEntry entry;
    entry.key = key;
    entry.payload = work;
    impl_->store(std::move(entry), &outputsOf,
                 static_cast<uint64_t>(capacityBytes_));
}

EvalCacheStats
EvalCache::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    EvalCacheStats s = impl_->counters;
    s.entries = impl_->lru.size();
    return s;
}

std::string
EvalCacheStats::toJson() const
{
    return fmt("{\"hits\":{},\"misses\":{},\"evictions\":{},"
               "\"entries\":{},\"bytes\":{},\"hit_rate\":{},"
               "\"disk_hits\":{},\"disk_misses\":{},\"disk_stores\":{},"
               "\"disk_rejects\":{}}",
               hits, misses, evictions, entries, bytes,
               fixed(hitRate(), 6), diskHits, diskMisses, diskStores,
               diskRejects);
}

void
EvalCache::clear()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->lru.clear();
    impl_->index.clear();
    impl_->blobs.clear();
    impl_->counters.bytes = 0;
    impl_->resetCounters();
}

void
EvalCache::setCapacityBytes(int64_t bytes)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    capacityBytes_ = bytes;
    impl_->evictTo(static_cast<uint64_t>(bytes > 0 ? bytes : 0));
}

void
EvalCache::setDiskDir(const std::string &dir)
{
    if (!dir.empty() && !ensureDir(dir))
        NPP_WARN("eval cache: cannot create {} ({}); disk tier will "
                 "miss/fail open",
                 dir, std::strerror(errno));
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->diskDir = dir;
}

std::string
EvalCache::diskDir() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->diskDir;
}

void
EvalCache::resetCounters()
{
    // Every effectiveness counter resets together: a per-phase report
    // must not show phase N's evictions or disk traffic next to phase
    // N+1's hit rate.
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->resetCounters();
}

namespace {

std::mutex gObserverMutex;
ExactEvalObserver gObserver;

/** Copy-then-call: a concurrent setExactEvalObserver never races a
 *  running callback, and the callback runs outside the lock. */
void
notifyExactEval(const ExactEvalInfo &info)
{
    ExactEvalObserver obs;
    {
        std::lock_guard<std::mutex> lock(gObserverMutex);
        obs = gObserver;
    }
    if (obs)
        obs(info);
}

} // namespace

void
setExactEvalObserver(ExactEvalObserver observer)
{
    std::lock_guard<std::mutex> lock(gObserverMutex);
    gObserver = std::move(observer);
}

SimReport
cachedCompileAndRun(const Gpu &gpu, const Program &prog,
                    const Bindings &args, const CompileOptions &copts,
                    const ExecOptions &eopts, bool wantOutputs,
                    EvalTier *tierOut, const EvalKeyParts *hashed)
{
    EvalCache &cache = EvalCache::instance();
    EvalKeyParts parts;
    if (hashed)
        parts = *hashed;
    else if (cache.enabled())
        parts = {EvalCache::hashProgram(prog),
                 EvalCache::hashDevice(gpu.config()),
                 EvalCache::hashBindings(args)};
    ExecOptions eo = eopts;
    eo.metricsOnly = !wantOutputs;
    if (tierOut)
        *tierOut = EvalTier::Simulated;
    const uint64_t key = EvalCache::combine(
        EvalCache::combine(
            EvalCache::combine(
                EvalCache::combine(parts.program,
                                   EvalCache::hashCompileOptions(copts)),
                parts.device),
            parts.bindings),
        EvalCache::hashExec(eo));
    if (auto hit = cache.find(key, wantOutputs, &args, tierOut))
        return *hit;
    const CompileResult compiled = compileProgram(prog, gpu.config(), copts);
    SimReport report = gpu.run(compiled.spec, args, eo);
    cache.store(key, report, wantOutputs ? &args : nullptr);
    // A fixed mapping names itself (compile may still apply hard spans;
    // the sweeps enumerate hard-feasible candidates, so the two agree).
    notifyExactEval({&prog,
                     copts.strategy == Strategy::Fixed
                         ? &copts.fixedMapping
                         : &compiled.spec.mapping,
                     &copts.paramValues, &eo, &gpu.config(), &report});
    return report;
}

SimReport
cachedRun(const Gpu &gpu, const KernelSpec &spec, const Bindings &args,
          const ExecOptions &eopts, uint64_t specSeed, bool wantOutputs,
          EvalTier *tierOut)
{
    const uint64_t bindingsHash = EvalCache::instance().enabled()
                                      ? EvalCache::hashBindings(args)
                                      : 0;
    return cachedRun(gpu, spec, args, eopts, specSeed, bindingsHash,
                     wantOutputs, tierOut);
}

SimReport
cachedRun(const Gpu &gpu, const KernelSpec &spec, const Bindings &args,
          const ExecOptions &eopts, uint64_t specSeed,
          uint64_t bindingsHash, bool wantOutputs, EvalTier *tierOut)
{
    EvalCache &cache = EvalCache::instance();
    ExecOptions eo = eopts;
    eo.metricsOnly = !wantOutputs;
    if (tierOut)
        *tierOut = EvalTier::Simulated;
    if (!cache.enabled()) {
        SimReport report = gpu.run(spec, args, eo);
        notifyExactEval({spec.prog, &spec.mapping, &spec.paramValues, &eo,
                         &gpu.config(), &report});
        return report;
    }

    const uint64_t key = EvalCache::combine(
        EvalCache::combine(specSeed, bindingsHash), EvalCache::hashExec(eo));
    if (auto hit = cache.find(key, wantOutputs, &args, tierOut))
        return *hit;
    SimReport report = gpu.run(spec, args, eo);
    cache.store(key, report, wantOutputs ? &args : nullptr);
    notifyExactEval({spec.prog, &spec.mapping, &spec.paramValues, &eo,
                     &gpu.config(), &report});
    return report;
}

WorkCounts
cachedReference(const Program &prog, const Bindings &args,
                uint64_t referenceSeed, EvalTier *tierOut,
                const std::string *rootRefusal)
{
    EvalCache &cache = EvalCache::instance();
    if (tierOut)
        *tierOut = EvalTier::Simulated;
    const auto run = [&] {
        NPP_TRACE_SCOPE("runtime.reference");
        return ReferenceInterp().run(prog, args, rootRefusal);
    };
    if (!cache.enabled())
        return run();

    const uint64_t key = EvalCache::combine(referenceSeed,
                                            EvalCache::hashBindings(args));
    if (auto hit = cache.findReference(key, args, tierOut))
        return *hit;
    const WorkCounts work = run();
    cache.storeReference(key, work, args);
    return work;
}

} // namespace npp
