/**
 * @file
 * The `serve` workload: an in-process MappingServer on a Unix socket
 * with its disk tier in a fresh scratch directory, driven by a closed
 * loop of two clients, each on one persistent connection (its callers,
 * `nppc --client` and compile jobs, wait for every reply).
 *
 * One seeded stream interleaves three request classes across the whole
 * run, so a slow drift of the machine moves every class alike:
 *   - cold: a key never seen before (the request simulates);
 *   - mem:  a key of the 32-key hot set evaluated during set-up;
 *   - disk: a key evaluated during set-up whose memory entry was then
 *           dropped; each is requested exactly once.
 * A class is fixed by how its requests are built, never by cache luck.
 *
 * Set-up starts the server, primes the disk keys and warms the hot
 * set; the untraced run repeats it from scratch after the stream and
 * reports the median.
 *
 * Gates: every response is ok and carries its class's provenance, and
 * every mem and disk response has the same mapping, score, dop and
 * report as that key's cold response from set-up, compared as parsed
 * values bit for bit. Repeated set-ups reproduce the first one's
 * responses.
 *
 * The traced run also replays a seeded sample of each class through the
 * public calls the request handler makes (request parse, build + bind,
 * fingerprint, explained compile, cachedRun / EvalCache::find,
 * consolidation sweep, rendering) from the same tier state, and reports
 * which share of the server's own request span those calls account for.
 */

#include <dirent.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/consolidate.h"
#include "analysis/search.h"
#include "common.h"
#include "server/json.h"
#include "server/programs.h"
#include "server/server.h"
#include "sim/consolidation.h"
#include "sim/evalcache.h"
#include "support/strings.h"
#include "support/trace.h"

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr int kHotKeys = 32;
/** The stream carries one disk request every kDiskStride rounds: each
 *  disk key costs set-up a cold evaluation to prime it. */
constexpr size_t kDiskStride = 4;
/** Set-ups per untraced run (the median is reported). */
constexpr int kSetupReps = 3;
/** Keys per program and class replayed by the traced run, and the
 *  paired measurements (server request, replay) per key. */
constexpr int kReplayPerProgram = 4;
constexpr int kReplayReps = 5;

enum Class { Cold = 0, Mem = 1, Disk = 2 };
const char *const kClassName[] = {"cold", "mem", "disk"};
const char *const kProvenance[] = {"simulated", "memory", "disk"};

/** A client on one persistent connection (newline-delimited JSON). */
class Client
{
  public:
    Client() = default;
    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool
    connect(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof addr);
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof addr.sun_path)
            return false;
        std::memcpy(addr.sun_path, path.c_str(), path.size());
        return ::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                         sizeof addr) == 0;
    }

    /** Send one request line and read one response line; "" on I/O
     *  failure. */
    std::string
    roundTrip(const std::string &request)
    {
        const std::string line = request + "\n";
        size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + off,
                                     line.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return "";
            off += static_cast<size_t>(n);
        }
        size_t nl;
        while ((nl = buffer_.find('\n')) == std::string::npos) {
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0)
                return "";
            buffer_.append(chunk, static_cast<size_t>(n));
        }
        std::string response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return response;
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** One request of a stream and what came back. */
struct Call
{
    Class cls = Cold;
    const DrawKey *key = nullptr;
    double latencyS = 0.0;
    std::string response;
};

/** Send `calls` in order over the clients (closed loop: each client
 *  sends its next request only after the previous reply). */
void
runCalls(std::vector<Call> &calls,
         std::vector<std::unique_ptr<Client>> &clients)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (auto &client : clients) {
        threads.emplace_back([&calls, &next, c = client.get()] {
            for (size_t i; (i = next.fetch_add(1)) < calls.size();) {
                const auto t0 = Clock::now();
                calls[i].response = c->roundTrip(calls[i].key->request());
                calls[i].latencyS = secondsSince(t0);
            }
        });
    }
    for (auto &t : threads)
        t.join();
}

/** Append canonical text of a parsed JSON value to `out`: members in
 *  their order, numbers as hex floats, so equal text means equal values
 *  bit for bit. */
void
canonical(const npp::JsonValue &v, std::string &out)
{
    using Kind = npp::JsonValue::Kind;
    switch (v.kind) {
    case Kind::Null: out += "null"; return;
    case Kind::Bool: out += v.boolean ? "true" : "false"; return;
    case Kind::Number: {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%a", v.number);
        out += buf;
        return;
    }
    case Kind::String:
        out += '"';
        out += npp::jsonEscape(v.string);
        out += '"';
        return;
    case Kind::Array:
        out += '[';
        for (const npp::JsonValue &e : v.elements) {
            canonical(e, out);
            out += ',';
        }
        out += ']';
        return;
    case Kind::Object:
        out += '{';
        for (const auto &[key, member] : v.members) {
            out += '"';
            out += npp::jsonEscape(key);
            out += "\":";
            canonical(member, out);
            out += ',';
        }
        out += '}';
        return;
    }
}

/** What the gates read from one response line. */
struct Reply
{
    bool ok = false; //!< parsed, with "ok": true
    std::string provenance;
    /** mapping, score, dop and report, canonical: the parts that must
     *  match bit for bit across tiers. */
    std::string decision;
};

Reply
parseReply(const std::string &line)
{
    Reply r;
    const std::optional<npp::JsonValue> v = npp::parseJson(line);
    if (!v || !v->isObject())
        return r;
    const npp::JsonValue *ok = v->get("ok");
    r.ok = ok && ok->isBool() && ok->boolean;
    if (const npp::JsonValue *p = v->get("provenance"))
        r.provenance = p->asString();
    for (const char *field : {"mapping", "score", "dop", "report"}) {
        if (const npp::JsonValue *f = v->get(field))
            canonical(*f, r.decision);
        else
            r.decision += "missing";
        r.decision += '|';
    }
    return r;
}

bool
okWithProvenance(const Reply &reply, Class cls)
{
    return reply.ok && reply.provenance == kProvenance[cls];
}

/** Change one digit of the response's mapping after its first ',' (a
 *  mapping that differs from the reference past its first level
 *  field, which the decision gate must catch). */
void
breakMapping(std::string &resp)
{
    const std::string tag = "\"mapping\":\"";
    const size_t begin = resp.find(tag) + tag.size();
    const size_t end = resp.find('"', begin);
    const size_t comma = resp.find(',', begin);
    for (size_t i = comma; i < end; i++) {
        if (resp[i] >= '0' && resp[i] <= '9') {
            resp[i] = resp[i] == '9' ? '8' : static_cast<char>(resp[i] + 1);
            return;
        }
    }
    std::fprintf(stderr, "perfbench: no digit to break in %s\n",
                 resp.substr(0, 200).c_str());
    std::exit(70);
}

/** Wall times of one replay of the request handler's public calls. */
struct Replay
{
    double parseS = 0, bindS = 0, hashS = 0, compileS = 0, runS = 0;
    double consolidationS = 0, renderS = 0, releaseS = 0;
    double fingerprintS = 0, fingerprintBytes = 0; //!< hashBindings alone
    uint64_t cacheKey = 0;
    npp::EvalTier tier = npp::EvalTier::Simulated;

    double
    totalS() const
    {
        return parseS + bindS + hashS + compileS + runS + consolidationS +
               renderS + releaseS;
    }
};

Replay
replayRequest(const DrawKey &key, const npp::Gpu &gpu)
{
    Replay r;
    auto t = Clock::now();
    {
        std::string error;
        t = Clock::now();
        const std::optional<npp::JsonValue> request =
            npp::parseJson(key.request(), &error);
        r.parseS = secondsSince(t);

        t = Clock::now();
        std::unique_ptr<npp::DemoProgram> demo =
            npp::buildDemoProgram(key.program, key.sizes, &error);
        npp::Bindings args(*demo->prog);
        demo->bind(args);
        r.bindS = secondsSince(t);

        npp::CompileOptions copts;
        copts.paramValues = demo->params;
        copts.fuseMapReduce = demo->fuse;
        copts.explainSearch = true;
        npp::ExecOptions eopts;
        eopts.metricsOnly = true;
        // The handler's request fingerprint; cachedRun below hashes the
        // bindings a second time, as the handler's call does.
        t = Clock::now();
        const uint64_t specSeed = npp::EvalCache::combine(
            npp::EvalCache::combine(npp::EvalCache::hashProgram(*demo->prog),
                                    npp::EvalCache::hashCompileOptions(copts)),
            npp::EvalCache::hashDevice(gpu.config()));
        const auto tf = Clock::now();
        const uint64_t fingerprint = npp::EvalCache::hashBindings(args);
        r.fingerprintS = secondsSince(tf);
        r.cacheKey = npp::EvalCache::combine(
            npp::EvalCache::combine(specSeed, fingerprint),
            npp::EvalCache::hashExec(eopts));
        r.hashS = secondsSince(t);
        r.fingerprintBytes = bindingBytes(*demo->prog, args);

        t = Clock::now();
        npp::CompileResult compiled =
            npp::compileProgram(*demo->prog, gpu.config(), copts);
        r.compileS = secondsSince(t);

        t = Clock::now();
        const npp::SimReport report =
            npp::cachedRun(gpu, compiled.spec, args, eopts, specSeed,
                           /*wantOutputs=*/false, &r.tier);
        r.runS = secondsSince(t);

        t = Clock::now();
        std::string consolidationJson;
        if (npp::hasDynamicInnerExtent(*demo->prog)) {
            const npp::ConsolidationChoice choice = npp::searchConsolidation(
                gpu, *demo->prog, args, copts, eopts);
            consolidationJson = npp::consolidationChoiceJson(choice);
            compiled.explanation.consolidationNote =
                npp::formatConsolidationChoice(choice);
            compiled.explanation.consolidationJson = consolidationJson;
        }
        r.consolidationS = secondsSince(t);

        // Rendering: the explanation and the response line, field by field
        // as the handler writes them.
        t = Clock::now();
        const std::string explanation =
            npp::formatSearchExplanation(compiled.explanation);
        std::string resp = "{\"ok\":true,";
        resp += npp::fmt("\"program\":\"{}\",", npp::jsonEscape(key.program));
        resp += npp::fmt("\"mapping\":\"{}\",",
                         npp::jsonEscape(compiled.spec.mapping.toString()));
        resp += npp::fmt("\"score\":{},\"dop\":{},", compiled.spec.score,
                         compiled.spec.dop);
        resp += npp::fmt("\"provenance\":\"{}\",", npp::evalTierName(r.tier));
        if (!consolidationJson.empty())
            resp += "\"consolidation\":" + consolidationJson + ",";
        resp += npp::fmt("\"coalesced\":false,\"coalesce_model\":\"{}\",",
                         npp::kCoalesceModelVersion);
        resp += "\"report\":" + report.toJson(gpu.config().transactionBytes) +
                "}";
        r.renderS = secondsSince(t);
        if (!request || explanation.empty())
            std::fprintf(stderr, "perfbench: replay of %s: %s\n",
                         key.id().c_str(), error.c_str());
        t = Clock::now();
    } // frees the program, inputs, compile result and report, as the
      // handler does before its span ends
    r.releaseS = secondsSince(t);
    return r;
}

/** Ids of the process's threads, sorted. */
std::vector<int>
threadIds()
{
    std::vector<int> ids;
    if (DIR *dir = ::opendir("/proc/self/task")) {
        while (const dirent *e = ::readdir(dir))
            if (e->d_name[0] != '.')
                ids.push_back(std::atoi(e->d_name));
        ::closedir(dir);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

/**
 * Connect `client` to the server at `socketPath`, then pin the calling
 * thread and the server thread that took the connection (the thread
 * that appeared with it) to the CPU the caller is on. On a shared
 * machine the CPUs' speeds differ from moment to moment by as much as
 * the calls a replay compares, so the two sides of the comparison run
 * on one CPU; they never run at once (the client waits for each reply).
 */
void
connectPinned(Client &client, const std::string &socketPath)
{
    const std::vector<int> before = threadIds();
    if (!client.connect(socketPath) ||
        client.roundTrip("{\"type\":\"ping\"}").empty()) {
        std::fprintf(stderr, "perfbench: cannot connect to %s\n",
                     socketPath.c_str());
        std::exit(1);
    }
    const std::vector<int> after = threadIds();
    std::vector<int> tids = {0}; // 0: the calling thread
    std::set_difference(after.begin(), after.end(), before.begin(),
                        before.end(), std::back_inserter(tids));
    cpu_set_t cpu;
    CPU_ZERO(&cpu);
    CPU_SET(::sched_getcpu(), &cpu);
    for (int tid : tids) {
        if (::sched_setaffinity(tid, sizeof cpu, &cpu) != 0)
            std::fprintf(stderr, "perfbench: cannot pin thread %d; "
                                 "coverage will be noisier\n",
                         tid);
    }
}

/** Server-side request span of one request sent now (seconds). */
double
serverSpanS(Client &client, const DrawKey &key, Class cls, Result &out)
{
    const npp::TraceTimerStat before =
        npp::Trace::instance().timerStat("server.request");
    const std::string resp = client.roundTrip(key.request());
    const npp::TraceTimerStat after =
        npp::Trace::instance().timerStat("server.request");
    out.gate(okWithProvenance(parseReply(resp), cls),
             std::string("replay reference ") + kClassName[cls] + " " +
                 key.id() + ": " + resp.substr(0, 200));
    return (after.totalUs - before.totalUs) * 1e-6;
}

/** A started server and its connected clients after set-up: the disk
 *  keys primed (their memory entries then dropped) and the hot set
 *  warmed. */
struct Setup
{
    std::string socketPath;
    std::unique_ptr<npp::MappingServer> server;
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<Call> primeDisk, primeHot;
    double seconds = 0.0;

    /** Close the clients, then stop the server. */
    void
    stop()
    {
        clients.clear();
        server->stop();
    }
};

/** One set-up, with the socket and a fresh disk tier under `dir`. */
Setup
setUp(const std::string &dir, const std::vector<DrawKey> &diskKeys,
      const std::vector<DrawKey> &hotKeys)
{
    const std::string diskDir = dir + "/disk";
    const std::string socketPath = dir + "/serve.sock";
    if (!makeDirs(diskDir)) {
        std::fprintf(stderr, "perfbench: cannot create %s\n",
                     diskDir.c_str());
        std::exit(1);
    }
    Setup s;
    s.socketPath = socketPath;
    for (const DrawKey &k : diskKeys)
        s.primeDisk.push_back({Cold, &k, 0.0, {}});
    for (const DrawKey &k : hotKeys)
        s.primeHot.push_back({Cold, &k, 0.0, {}});

    npp::EvalCache &cache = npp::EvalCache::instance();
    const auto t0 = Clock::now();
    cache.setDiskDir(diskDir);
    cache.clear();
    npp::ServeOptions sopts;
    sopts.socketPath = socketPath;
    s.server = std::make_unique<npp::MappingServer>(sopts);
    std::string error;
    if (!s.server->start(&error)) {
        std::fprintf(stderr, "perfbench: server: %s\n", error.c_str());
        std::exit(1);
    }
    for (int i = 0; i < kClients; i++) {
        s.clients.push_back(std::make_unique<Client>());
        if (!s.clients.back()->connect(socketPath)) {
            std::fprintf(stderr, "perfbench: cannot connect to %s\n",
                         socketPath.c_str());
            std::exit(1);
        }
    }
    runCalls(s.primeDisk, s.clients);
    cache.clear(); // memory tier only: the disk entries stay
    runCalls(s.primeHot, s.clients);
    s.seconds = secondsSince(t0);
    return s;
}

} // namespace

void
runServe(const RunConfig &cfg, Result &out)
{
    printHeader(cfg, kClients, {cfg.scratch});

    // Keys: one seeded stream of draws over all seven demo programs.
    // Requests scale with --seconds: cold and mem fill the stream, and
    // disk gets one request for every kDiskStride cold ones (>= 15 per
    // program, so every class percentile has >= 100 samples). The hot
    // set's make-up is fixed (five keys of each sum program, four of the
    // others), so the seed changes its sizes but not its mix.
    const std::vector<std::string> &programs = npp::demoProgramNames();
    const int diskPerProgram = std::max(15, cfg.seconds * 18 / 5);
    const int perProgram = static_cast<int>(kDiskStride) * diskPerProgram;
    npp::Rng rng(0x5e7e000000000000ULL ^ cfg.seed);
    std::vector<std::string> taken;
    std::vector<DrawKey> coldKeys, diskKeys, hotKeys;
    const auto draw = [&](std::vector<DrawKey> &into, const std::string &p,
                          int n) {
        for (auto &k : drawKeys(p, n, Ranges::Serve, rng, taken))
            into.push_back(std::move(k));
    };
    for (size_t i = 0; i < programs.size(); i++) {
        draw(coldKeys, programs[i], perProgram);
        draw(diskKeys, programs[i], diskPerProgram);
        draw(hotKeys, programs[i], i < 4 ? 5 : 4);
    }
    if (hotKeys.size() != static_cast<size_t>(kHotKeys)) {
        std::fprintf(stderr, "perfbench: hot set has %zu keys\n",
                     hotKeys.size());
        std::exit(70);
    }
    shuffle(coldKeys, rng);
    shuffle(diskKeys, rng);

    // The stream: round i carries the i-th cold and mem request, and
    // every kDiskStride-th round the next disk request, in a seeded
    // order. mem walks whole reshuffled cycles of the hot set, so every
    // hot key is requested equally often.
    std::vector<const DrawKey *> memOrder;
    while (memOrder.size() < coldKeys.size()) {
        std::vector<const DrawKey *> cycle;
        for (const DrawKey &k : hotKeys)
            cycle.push_back(&k);
        shuffle(cycle, rng);
        memOrder.insert(memOrder.end(), cycle.begin(), cycle.end());
    }
    std::vector<Call> stream;
    for (size_t i = 0; i < memOrder.size(); i++) {
        std::vector<Call> round;
        round.push_back({Mem, memOrder[i], 0.0, {}});
        if (i < coldKeys.size())
            round.push_back({Cold, &coldKeys[i], 0.0, {}});
        if (i % kDiskStride == 0 && i / kDiskStride < diskKeys.size())
            round.push_back({Disk, &diskKeys[i / kDiskStride], 0.0, {}});
        shuffle(round, rng);
        stream.insert(stream.end(), round.begin(), round.end());
    }

    // Set-up: start the server, prime the disk keys (then drop their
    // memory entries), warm the hot set. The untraced run sets up
    // kSetupReps - 1 more times after the stream, each time from
    // scratch on the same keys, and reports the median.
    npp::EvalCache &cache = npp::EvalCache::instance();
    Setup setup = setUp(cfg.scratch + "/serve-0", diskKeys, hotKeys);

    // The reference (cold) decision of every primed key comes from the
    // first set-up; a repeated set-up must reproduce it.
    std::map<const DrawKey *, std::string> reference;
    const auto gateSetUp = [&](const Setup &s, int rep) {
        for (const std::vector<Call> *prime : {&s.primeDisk, &s.primeHot}) {
            for (const Call &c : *prime) {
                const Reply reply = parseReply(c.response);
                if (rep == 0)
                    reference[c.key] = reply.decision;
                out.gate(okWithProvenance(reply, Cold) &&
                             reply.decision == reference.at(c.key),
                         "set-up " + std::to_string(rep) + " " +
                             c.key->id() + ": " + c.response.substr(0, 200));
            }
        }
    };
    gateSetUp(setup, 0);

    // The measured stream.
    npp::Trace &tr = npp::Trace::instance(); // on: the server enabled it
    tr.clear();
    cache.resetCounters();
    const npp::ServerStats before = setup.server->stats();
    const auto streamStart = Clock::now();
    runCalls(stream, setup.clients);
    const double streamS = secondsSince(streamStart);
    const npp::ServerStats after = setup.server->stats();
    const npp::EvalCacheStats cstats = cache.stats();

    if (cfg.breakGate) {
        for (Call &c : stream) {
            if (c.cls == Mem) {
                breakMapping(c.response);
                break;
            }
        }
    }
    std::vector<double> latencyMs[3];
    double classS[3] = {0, 0, 0};
    double clientS = 0.0;
    for (const Call &c : stream) {
        latencyMs[c.cls].push_back(1e3 * c.latencyS);
        classS[c.cls] += c.latencyS;
        clientS += c.latencyS;
        const Reply reply = parseReply(c.response);
        bool ok = okWithProvenance(reply, c.cls);
        if (ok && c.cls != Cold)
            ok = reply.decision == reference.at(c.key);
        out.gate(ok, std::string(kClassName[c.cls]) + " " + c.key->id() +
                         ": " + c.response.substr(0, 200));
    }
    std::printf("{\"serve_classes\": {");
    for (int k = 0; k < 3; k++) {
        std::printf("%s\"%s\": {\"count\": %zu, \"p50_ms\": %.6g, "
                    "\"p90_ms\": %.6g}",
                    k ? ", " : "", kClassName[k], latencyMs[k].size(),
                    percentile(latencyMs[k], 0.5),
                    percentile(latencyMs[k], 0.9));
    }
    std::printf("}}\n");

    if (!cfg.trace) {
        out.set("cold_s", classS[Cold]);
        out.set("warm_s", classS[Mem] + classS[Disk]);
        out.set("req_per_s", static_cast<double>(stream.size()) / streamS);
        out.set("peak_rss_mb", peakRssMb());
        std::vector<double> setups = {setup.seconds};
        setup.stop();
        for (int rep = 1; rep < kSetupReps; rep++) {
            Setup again = setUp(cfg.scratch + "/serve-" +
                                    std::to_string(rep),
                                diskKeys, hotKeys);
            again.stop();
            setups.push_back(again.seconds);
            gateSetUp(again, rep);
        }
        out.set("setup_s", median(setups));
        return;
    }

    // Per-layer readings of the stream.
    LayerReadings layers;
    layers.add();
    layers.emit(out);
    emitCacheStats(cstats, out);
    const double requests = spanCount("server.request");
    const double requestS = spanSeconds("server.request");
    out.set("server.requests",
            static_cast<double>(after.requests - before.requests));
    out.set("server.errors", static_cast<double>(after.errors - before.errors));
    out.set("server.coalesced",
            static_cast<double>(after.coalesced - before.coalesced));
    out.set("server.request_ms",
            requests > 0 ? 1e3 * requestS / requests : 0.0);
    out.set("server.wait_ms", 1e3 * (clientS - requestS) /
                                  static_cast<double>(stream.size()));
    const char *const pct[3][3] = {
        {"server.cold_p50_ms", "server.cold_p90_ms", "server.cold_count"},
        {"server.mem_p50_ms", "server.mem_p90_ms", "server.mem_count"},
        {"server.disk_p50_ms", "server.disk_p90_ms", "server.disk_count"}};
    for (int k = 0; k < 3; k++) {
        out.set(pct[k][0], percentile(latencyMs[k], 0.5));
        out.set(pct[k][1], percentile(latencyMs[k], 0.9));
        out.set(pct[k][2], static_cast<double>(latencyMs[k].size()));
    }

    // Replay a seeded sample of each class from the same tier state the
    // server saw, and compare with the server's own request span for
    // the same key. Order matters: mem first (the hot set is still in
    // memory), then disk (memory dropped before each server request and
    // each replay), then cold (fresh keys; the replay's disk tier is a
    // second empty directory).
    const npp::Gpu gpu;
    Client client; // the replay's own connection, see connectPinned
    std::vector<double> keyCoverage[3]; //!< replay / span, per key
    double bindS = 0, renderS = 0, hashS = 0, hashBytes = 0;
    double findS[3] = {0, 0, 0};
    int replays = 0;
    std::vector<const DrawKey *> sample[3];
    for (const std::string &p : programs) {
        int memTaken = 0, diskTaken = 0;
        for (const DrawKey &k : hotKeys)
            if (k.program == p && memTaken < kReplayPerProgram) {
                sample[Mem].push_back(&k);
                memTaken++;
            }
        for (const DrawKey &k : diskKeys)
            if (k.program == p && diskTaken < kReplayPerProgram) {
                sample[Disk].push_back(&k);
                diskTaken++;
            }
    }
    std::vector<DrawKey> freshKeys;
    for (const std::string &p : programs)
        for (auto &k : drawKeys(p, kReplayPerProgram, Ranges::Serve, rng,
                                taken))
            freshKeys.push_back(std::move(k));
    for (const DrawKey &k : freshKeys)
        sample[Cold].push_back(&k);

    // Each sampled key is measured kReplayReps times: one server request
    // and one replay back to back, from the same tier state, so both
    // see the same state of the machine. A key's coverage is the median
    // over its pairs of replay / span: ms-scale requests on a shared
    // machine carry more scheduling noise than the difference being
    // measured. A class's coverage is the median over its keys, so the
    // few largest keys do not carry the whole ratio. The per-layer
    // times come from each key's fastest replay.
    int freshDirs = 0;
    const auto prepare = [&](Class cls) {
        if (cls == Disk) {
            cache.clear(); // memory dropped, the disk entry stays
        } else if (cls == Cold) {
            cache.clear(); // and a fresh, empty disk tier
            const std::string dir = cfg.scratch + "/serve-replay-" +
                                    std::to_string(freshDirs++);
            makeDirs(dir);
            cache.setDiskDir(dir);
        }
    };
    const auto measure = [&](const DrawKey &key, Class cls) {
        std::vector<double> ratios;
        Replay best;
        for (int rep = 0; rep < kReplayReps; rep++) {
            // The order within a pair alternates, so neither side always
            // runs on a machine the other has just warmed up.
            double span = 0.0;
            Replay r;
            for (int side = 0; side < 2; side++) {
                prepare(cls);
                if ((side == 0) == (rep % 2 == 0))
                    span = serverSpanS(client, key, cls, out);
                else
                    r = replayRequest(key, gpu);
            }
            // Class and tier enums share their order: cold = simulated.
            out.gate(r.tier == static_cast<npp::EvalTier>(cls),
                     std::string("replay tier ") + kClassName[cls] + " " +
                         key.id());
            ratios.push_back(r.totalS() / span);
            if (best.totalS() == 0 || r.totalS() < best.totalS())
                best = r;
        }
        keyCoverage[cls].push_back(median(ratios));
        bindS += best.bindS;
        renderS += best.renderS;
        hashS += best.fingerprintS;
        hashBytes += best.fingerprintBytes;
        replays++;
        if (cls != Cold) {
            prepare(cls);
            const auto t = Clock::now();
            const bool hit = cache.find(best.cacheKey, false, nullptr)
                                 .has_value();
            findS[cls] += secondsSince(t);
            out.gate(hit, std::string("find ") + kClassName[cls] + " " +
                              key.id());
        }
    };
    // The replay runs on its own thread, like the server's connection
    // thread, with its own connection to the server for the requests it
    // compares with. First both replay the mem sample once untimed
    // (memory hits change no tier state), so both threads' allocator
    // arenas are warm: a cold arena's page faults otherwise make one
    // side look slower. Order: mem (the hot set is still in memory),
    // disk, cold (which moves the disk tier to fresh directories).
    std::thread replayer([&] {
        connectPinned(client, setup.socketPath);
        for (const DrawKey *k : sample[Mem]) {
            replayRequest(*k, gpu);
            client.roundTrip(k->request());
        }
        for (Class cls : {Mem, Disk, Cold})
            for (const DrawKey *k : sample[cls])
                measure(*k, cls);
    });
    replayer.join();
    setup.stop();

    double coverage = 1.0;
    const char *const coverageName[3] = {"server.coverage_cold",
                                         "server.coverage_mem",
                                         "server.coverage_disk"};
    for (int k = 0; k < 3; k++) {
        const double share = median(keyCoverage[k]);
        out.set(coverageName[k], share);
        coverage = std::min(coverage, share);
    }
    out.set("server.coverage", coverage);
    out.set("bench.coverage", coverage);
    out.set("server.bind_ms", 1e3 * bindS / replays);
    out.set("server.render_ms", 1e3 * renderS / replays);
    out.set("runtime.fingerprint_ms", 1e3 * hashS / replays);
    out.set("runtime.fingerprint_gb_per_s", hashBytes / hashS * 1e-9);
    out.set("sim.cache_find_mem_ms",
            1e3 * findS[Mem] / static_cast<double>(sample[Mem].size()));
    out.set("sim.cache_find_disk_ms",
            1e3 * findS[Disk] / static_cast<double>(sample[Disk].size()));
    out.set("support.trace_overhead_pct",
            traceOverheadPct(layers.spans, streamS));
}

} // namespace perfbench
