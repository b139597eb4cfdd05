#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/consolidate.h"
#include "analysis/search.h"
#include "predict/predict.h"
#include "server/json.h"
#include "server/programs.h"
#include "sim/consolidation.h"
#include "sim/evalcache.h"
#include "sim/fleet.h"
#include "sim/gpu.h"
#include "support/logging.h"
#include "support/strings.h"
#include "support/trace.h"

namespace npp {

namespace {

/** A hostile client must not make the server buffer unbounded input:
 *  requests are one line of machine-generated JSON, so anything past
 *  1 MB is a protocol violation and drops the connection. */
constexpr size_t kMaxRequestBytes = 1 << 20;

/** The result of one evaluation, shared verbatim between a coalescing
 *  leader and its waiters. */
struct EvalOutcome
{
    bool ok = false;
    std::string error;
    std::string mapping;
    double score = 0.0;
    double dop = 0.0;
    int fusedPatterns = 0;
    std::string explanation;
    SimReport report;
    EvalTier tier = EvalTier::Simulated;
    /** Multi-device sweep result (requests with "devices" > 1). */
    int devices = 1;
    std::string fleetJson;
    /** Consolidation sweep result (programs with a runtime-sized inner
     *  domain); empty for static-shaped programs. */
    std::string consolidationJson;
    /** Predictive-pruning provenance (NPP_PREDICT=1 servers): the
     *  ranked candidates, survive/prune verdicts, and empirical winner.
     *  Empty when the predictor is off. */
    std::string predictJson;
};

bool
parseStrategy(const std::string &name, Strategy *out, std::string *error)
{
    if (name.empty() || name == "multidim")
        *out = Strategy::MultiDim;
    else if (name == "1d")
        *out = Strategy::OneD;
    else if (name == "tbt")
        *out = Strategy::ThreadBlockThread;
    else if (name == "warp")
        *out = Strategy::WarpBased;
    else if (name == "consolidate")
        *out = Strategy::Consolidate;
    else {
        *error = fmt("unknown strategy \"{}\" "
                     "(multidim|1d|tbt|warp|consolidate)",
                     name);
        return false;
    }
    return true;
}

/** Render the part of the request echoed into every response. */
std::string
echoPrefix(const JsonValue &req)
{
    const JsonValue *id = req.get("id");
    if (!id)
        return "";
    if (id->isNumber())
        return fmt("\"id\":{},", id->number);
    if (id->isString())
        return fmt("\"id\":\"{}\",", jsonEscape(id->string));
    return "";
}

std::string
errorResponse(const JsonValue *req, const std::string &message)
{
    return fmt("{\"ok\":false,{}\"error\":\"{}\"}",
               req ? echoPrefix(*req) : std::string(),
               jsonEscape(message));
}

void
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0)
            return; // peer went away; nothing to salvage
        off += static_cast<size_t>(n);
    }
}

} // namespace

struct MappingServer::Impl
{
    ServeOptions opts;
    Gpu gpu;

    int listenFd = -1;
    int stopPipe[2] = {-1, -1};
    std::thread acceptThread;
    std::vector<std::thread> connThreads;
    std::vector<int> connFds; //!< open connections, for shutdown on stop
    std::mutex connMutex;
    std::atomic<bool> stopping{false};
    std::atomic<bool> started{false};

    /** In-flight evaluations keyed by the EvalCache fingerprint: the
     *  first request for a key evaluates; identical concurrent requests
     *  wait on its future instead of simulating again. */
    std::mutex inflightMutex;
    std::unordered_map<uint64_t,
                       std::shared_future<std::shared_ptr<const EvalOutcome>>>
        inflight;

    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> evaluations{0};
    std::atomic<uint64_t> simulations{0};
    std::atomic<uint64_t> coalesced{0};
    std::atomic<uint64_t> memoryHits{0};
    std::atomic<uint64_t> diskHits{0};

    explicit Impl(ServeOptions o) : opts(std::move(o)) {}

    std::shared_ptr<const EvalOutcome>
    evaluate(const DemoProgram &demo, const CompileOptions &copts,
             const Bindings &args, const ExecOptions &eopts,
             uint64_t specSeed, uint64_t bindingsHash, int devices)
    {
        auto out = std::make_shared<EvalOutcome>();

        if (opts.holdEvalMs > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.holdEvalMs));

        CompileResult compiled =
            compileProgram(*demo.prog, gpu.config(), copts);

        EvalTier tier = EvalTier::Simulated;
        out->report = cachedRun(gpu, compiled.spec, args, eopts, specSeed,
                                bindingsHash, /*wantOutputs=*/false, &tier);
        out->tier = tier;
        out->ok = true;
        out->mapping = compiled.spec.mapping.toString();
        out->score = compiled.spec.score;
        out->dop = compiled.spec.dop;
        out->fusedPatterns = compiled.fusedPatterns;
        if (devices > 1) {
            // Score (deviceCount, splitPoint) across the fleet and fold
            // the verdicts into the decision report.
            const FleetChoice choice =
                searchFleet(gpu, compiled.spec, args, fleetK20c(devices),
                            eopts, specSeed);
            out->devices = devices;
            out->fleetJson = fleetChoiceJson(choice);
            compiled.explanation.fleetNote = formatFleetChoice(choice);
            compiled.explanation.fleetJson = out->fleetJson;
        }
        if (hasDynamicInnerExtent(*demo.prog)) {
            // Runtime-sized inner domains: sweep the consolidation
            // candidates so the response names why consolidation won
            // or lost against the best static mapping.
            const ConsolidationChoice choice = searchConsolidation(
                gpu, *demo.prog, args, copts, eopts);
            out->consolidationJson = consolidationChoiceJson(choice);
            compiled.explanation.consolidationNote =
                formatConsolidationChoice(choice);
            compiled.explanation.consolidationJson =
                out->consolidationJson;
        }
        if (PredictRuntime::instance().active()) {
            // Predictive provenance: rank + prune + exactly simulate the
            // survivors, and report every verdict alongside the
            // score-based selection the response is built from.
            const PredictSweep sweep = PredictRuntime::instance().sweep(
                gpu, *demo.prog, args, copts);
            out->predictJson = sweep.toJson();
            compiled.explanation.predictNote = sweep.note();
            compiled.explanation.predictJson = out->predictJson;
        }
        out->explanation = formatSearchExplanation(compiled.explanation);
        return out;
    }

    std::string
    handleEval(const JsonValue &req)
    {
        const std::string program =
            req.get("program") ? req.get("program")->asString() : "";
        if (program.empty()) {
            errors.fetch_add(1);
            return errorResponse(&req, "missing \"program\"");
        }

        Strategy strategy = Strategy::MultiDim;
        std::string err;
        const std::string strategyStr =
            req.get("strategy") ? req.get("strategy")->asString() : "";
        if (!parseStrategy(strategyStr, &strategy, &err)) {
            errors.fetch_add(1);
            return errorResponse(&req, err);
        }

        std::map<std::string, int64_t> sizes;
        if (const JsonValue *sz = req.get("sizes")) {
            if (!sz->isObject()) {
                errors.fetch_add(1);
                return errorResponse(&req, "\"sizes\" must be an object");
            }
            for (const auto &[key, val] : sz->members) {
                if (!val.isNumber()) {
                    errors.fetch_add(1);
                    return errorResponse(
                        &req, fmt("size \"{}\" must be a number", key));
                }
                sizes[key] = val.asInt();
            }
        }

        // Fingerprint the request the same way the EvalCache would, so
        // identical in-flight requests coalesce onto one evaluation.
        // Building the program (and binding its deterministic inputs)
        // is cheap relative to search + simulate, which the leader
        // alone pays.
        std::unique_ptr<DemoProgram> demo =
            buildDemoProgram(program, sizes, &err);
        if (!demo) {
            errors.fetch_add(1);
            return errorResponse(&req, err);
        }
        CompileOptions copts;
        copts.strategy = strategy;
        copts.paramValues = demo->params;
        copts.fuseMapReduce = demo->fuse;
        // Always explain: a waiter coalesced onto this evaluation may
        // have asked for the explanation even if the leader did not,
        // and explainSearch cannot change the spec (or the cache key).
        copts.explainSearch = true;
        Bindings args(*demo->prog);
        demo->bind(args);
        int devices = 1;
        if (const JsonValue *dv = req.get("devices")) {
            if (!dv->isNumber() || dv->asInt() < 1 || dv->asInt() > 32) {
                errors.fetch_add(1);
                return errorResponse(
                    &req, "\"devices\" must be an integer in [1, 32]");
            }
            devices = static_cast<int>(dv->asInt());
        }

        ExecOptions eopts;
        eopts.metricsOnly = true; // report-only: race-free, classed speed
        const uint64_t specSeed =
            EvalCache::specSeed(*demo->prog, copts, gpu.config());
        // Hashed once: the evaluation below reuses it for its cache key.
        const uint64_t bindingsHash = EvalCache::hashBindings(args);
        uint64_t key = EvalCache::combine(
            EvalCache::combine(specSeed, bindingsHash),
            EvalCache::hashExec(eopts));
        // The fleet joins the fingerprint only when requested, so
        // single-device fingerprints — and what coalesces with what —
        // are unchanged, while evaluations against different fleet
        // sizes can never share one leader.
        if (devices > 1) {
            key = EvalCache::combine(
                key, EvalCache::hashFleet(fleetK20c(devices)));
        }

        bool leader = false;
        std::shared_future<std::shared_ptr<const EvalOutcome>> future;
        std::promise<std::shared_ptr<const EvalOutcome>> promise;
        {
            std::lock_guard<std::mutex> lock(inflightMutex);
            auto it = inflight.find(key);
            if (it == inflight.end()) {
                leader = true;
                future = promise.get_future().share();
                inflight.emplace(key, future);
            } else {
                future = it->second;
            }
        }

        if (leader) {
            std::shared_ptr<const EvalOutcome> outcome =
                evaluate(*demo, copts, args, eopts, specSeed, bindingsHash,
                         devices);
            promise.set_value(outcome);
            std::lock_guard<std::mutex> lock(inflightMutex);
            inflight.erase(key);
        } else {
            coalesced.fetch_add(1);
            NPP_TRACE_COUNT("server.coalesced", 1);
        }
        std::shared_ptr<const EvalOutcome> outcome = future.get();

        evaluations.fetch_add(1);
        if (!outcome->ok) {
            errors.fetch_add(1);
            return errorResponse(&req, outcome->error);
        }
        if (leader) {
            switch (outcome->tier) {
            case EvalTier::Simulated: simulations.fetch_add(1); break;
            case EvalTier::Memory: memoryHits.fetch_add(1); break;
            case EvalTier::Disk: diskHits.fetch_add(1); break;
            }
        }

        const bool explain =
            req.get("explain") && req.get("explain")->asBool();
        std::string resp = "{\"ok\":true," + echoPrefix(req);
        resp += fmt("\"program\":\"{}\",", jsonEscape(program));
        resp += fmt("\"mapping\":\"{}\",", jsonEscape(outcome->mapping));
        resp += fmt("\"score\":{},\"dop\":{},", outcome->score, outcome->dop);
        if (outcome->fusedPatterns)
            resp += fmt("\"fused_patterns\":{},", outcome->fusedPatterns);
        if (explain)
            resp += fmt("\"explanation\":\"{}\",",
                        jsonEscape(outcome->explanation));
        resp += fmt("\"provenance\":\"{}\",", evalTierName(outcome->tier));
        if (outcome->devices > 1) {
            resp += fmt("\"devices\":{},", outcome->devices);
            resp += "\"fleet\":" + outcome->fleetJson + ",";
        }
        if (!outcome->consolidationJson.empty()) {
            resp += "\"consolidation\":" + outcome->consolidationJson +
                    ",";
        }
        if (!outcome->predictJson.empty())
            resp += "\"predict\":" + outcome->predictJson + ",";
        resp += fmt("\"coalesced\":{},", leader ? "false" : "true");
        resp += fmt("\"coalesce_model\":\"{}\",", kCoalesceModelVersion);
        resp += "\"report\":" +
                outcome->report.toJson(gpu.config().transactionBytes) + "}";
        return resp;
    }

    std::string
    handleStats(const JsonValue &req)
    {
        const TraceTimerStat timer =
            Trace::instance().timerStat("server.request");
        std::string resp = "{\"ok\":true," + echoPrefix(req);
        resp += fmt("\"type\":\"stats\",\"requests\":{},\"errors\":{},"
                    "\"evaluations\":{},\"simulations\":{},"
                    "\"coalesced\":{},\"memory_hits\":{},\"disk_hits\":{},",
                    requests.load(), errors.load(), evaluations.load(),
                    simulations.load(), coalesced.load(), memoryHits.load(),
                    diskHits.load());
        resp += fmt("\"request_timer\":{\"count\":{},\"total_us\":{},"
                    "\"max_us\":{}},",
                    timer.count, timer.totalUs, timer.maxUs);
        resp += "\"eval_cache\":" + EvalCache::instance().stats().toJson() +
                ",\"predict\":" + predictStatsJson() + "}";
        return resp;
    }

    /** Process one request line; returns the response line (without the
     *  trailing newline) and sets *shutdown for the shutdown type. */
    std::string
    handleLine(const std::string &line, bool *shutdown)
    {
        NPP_TRACE_SCOPE("server.request");
        requests.fetch_add(1);
        NPP_TRACE_COUNT("server.requests", 1);

        std::string parseError;
        std::optional<JsonValue> req = parseJson(line, &parseError);
        if (!req) {
            errors.fetch_add(1);
            return errorResponse(nullptr,
                                 "malformed request: " + parseError);
        }
        if (!req->isObject()) {
            errors.fetch_add(1);
            return errorResponse(nullptr, "request must be a JSON object");
        }

        const std::string type =
            req->get("type") ? req->get("type")->asString("eval") : "eval";
        if (type == "eval")
            return handleEval(*req);
        if (type == "ping")
            return "{\"ok\":true," + echoPrefix(*req) +
                   "\"type\":\"pong\"}";
        if (type == "stats")
            return handleStats(*req);
        if (type == "shutdown") {
            *shutdown = true;
            return "{\"ok\":true," + echoPrefix(*req) +
                   "\"type\":\"shutdown\"}";
        }
        errors.fetch_add(1);
        return errorResponse(&*req, fmt("unknown request type \"{}\"", type));
    }

    void
    serveConnection(int fd)
    {
        std::string buffer;
        char chunk[4096];
        bool shutdown = false;
        while (!shutdown && !stopping.load()) {
            const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<size_t>(n));
            size_t pos;
            while ((pos = buffer.find('\n')) != std::string::npos) {
                const std::string line = buffer.substr(0, pos);
                buffer.erase(0, pos + 1);
                if (line.empty())
                    continue;
                writeAll(fd, handleLine(line, &shutdown) + "\n");
                if (shutdown)
                    break;
            }
            if (buffer.size() > kMaxRequestBytes) {
                writeAll(fd, errorResponse(nullptr, "request too large") +
                                 "\n");
                break;
            }
        }
        {
            std::lock_guard<std::mutex> lock(connMutex);
            connFds.erase(std::remove(connFds.begin(), connFds.end(), fd),
                          connFds.end());
        }
        ::close(fd);
        if (shutdown)
            signalStop();
    }

    void
    signalStop()
    {
        if (stopping.exchange(true))
            return;
        const char byte = 'x';
        if (stopPipe[1] >= 0)
            (void)!::write(stopPipe[1], &byte, 1);
        // Unblock connection threads parked in recv() on clients that
        // keep their connection open.
        std::lock_guard<std::mutex> lock(connMutex);
        for (int fd : connFds)
            ::shutdown(fd, SHUT_RDWR);
    }

    void
    acceptLoop()
    {
        while (!stopping.load()) {
            struct pollfd fds[2];
            fds[0] = {listenFd, POLLIN, 0};
            fds[1] = {stopPipe[0], POLLIN, 0};
            const int rc = ::poll(fds, 2, -1);
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                NPP_WARN("serve: poll failed: {}", std::strerror(errno));
                break;
            }
            if (fds[1].revents || stopping.load())
                break;
            if (!(fds[0].revents & POLLIN))
                continue;
            const int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0) {
                // Transient conditions must not tear down the listener:
                // a stray signal (EINTR), a client that gave up between
                // poll and accept (ECONNABORTED), or a connection that
                // vanished before accept could pick it up (EAGAIN —
                // possible even on a blocking socket per accept(2)).
                if (errno == EINTR || errno == ECONNABORTED ||
                    errno == EAGAIN || errno == EWOULDBLOCK)
                    continue;
                NPP_WARN("serve: accept failed: {}; listener kept alive",
                         std::strerror(errno));
                continue;
            }
            std::lock_guard<std::mutex> lock(connMutex);
            connFds.push_back(fd);
            connThreads.emplace_back(
                [this, fd] { serveConnection(fd); });
        }
    }
};

MappingServer::MappingServer(ServeOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts)))
{}

MappingServer::~MappingServer()
{
    stop();
}

bool
MappingServer::start(std::string *error)
{
    Impl &im = *impl_;
    if (im.opts.socketPath.empty()) {
        if (error)
            *error = "empty socket path";
        return false;
    }
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (im.opts.socketPath.size() >= sizeof addr.sun_path) {
        if (error)
            *error = fmt("socket path too long ({} bytes, max {})",
                         im.opts.socketPath.size(),
                         sizeof addr.sun_path - 1);
        return false;
    }
    std::memcpy(addr.sun_path, im.opts.socketPath.c_str(),
                im.opts.socketPath.size());

    if (::pipe(im.stopPipe) != 0) {
        if (error)
            *error = fmt("pipe: {}", std::strerror(errno));
        return false;
    }
    im.listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (im.listenFd < 0) {
        if (error)
            *error = fmt("socket: {}", std::strerror(errno));
        return false;
    }
    ::unlink(im.opts.socketPath.c_str()); // stale socket from a dead server
    if (::bind(im.listenFd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(im.listenFd, 64) != 0) {
        if (error)
            *error = fmt("bind/listen {}: {}", im.opts.socketPath,
                         std::strerror(errno));
        ::close(im.listenFd);
        im.listenFd = -1;
        return false;
    }
    // Request latency spans and coalescing counters are part of the
    // protocol (the stats request reports them), so the registry is
    // always on while serving.
    Trace::instance().setEnabled(true);
    im.started.store(true);
    im.acceptThread = std::thread([&im] { im.acceptLoop(); });
    return true;
}

void
MappingServer::wait()
{
    Impl &im = *impl_;
    if (im.acceptThread.joinable())
        im.acceptThread.join();
    // Joining must not hold connMutex: a connection thread that carried
    // a shutdown request takes the lock inside signalStop().
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(im.connMutex);
        threads.swap(im.connThreads);
    }
    for (auto &t : threads)
        if (t.joinable())
            t.join();
}

void
MappingServer::stop()
{
    Impl &im = *impl_;
    if (!im.started.load()) {
        im.stopping.store(true);
        return;
    }
    im.signalStop();
    wait();
    if (im.listenFd >= 0) {
        ::close(im.listenFd);
        im.listenFd = -1;
    }
    for (int &fd : im.stopPipe)
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    ::unlink(im.opts.socketPath.c_str());
    im.started.store(false);
}

ServerStats
MappingServer::stats() const
{
    const Impl &im = *impl_;
    ServerStats s;
    s.requests = im.requests.load();
    s.errors = im.errors.load();
    s.evaluations = im.evaluations.load();
    s.simulations = im.simulations.load();
    s.coalesced = im.coalesced.load();
    s.memoryHits = im.memoryHits.load();
    s.diskHits = im.diskHits.load();
    return s;
}

const std::string &
MappingServer::socketPath() const
{
    return impl_->opts.socketPath;
}

bool
serveRoundTrip(const std::string &socketPath, const std::string &request,
               std::string *response, std::string *error)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = fmt("socket: {}", std::strerror(errno));
        return false;
    }
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof addr.sun_path) {
        if (error)
            *error = "socket path too long";
        ::close(fd);
        return false;
    }
    std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size());
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof addr) != 0) {
        if (error)
            *error = fmt("connect {}: {}", socketPath,
                         std::strerror(errno));
        ::close(fd);
        return false;
    }
    writeAll(fd, request + "\n");
    std::string buffer;
    char chunk[4096];
    while (buffer.find('\n') == std::string::npos) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0) {
            if (error)
                *error = "connection closed before a response arrived";
            ::close(fd);
            return false;
        }
        buffer.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    if (response)
        *response = buffer.substr(0, buffer.find('\n'));
    return true;
}

} // namespace npp
