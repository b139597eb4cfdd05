/**
 * @file
 * Mapping-as-a-service: a long-lived Unix-socket server that keeps the
 * process-global EvalCache warm across requests. Clients send one JSON
 * request per line (newline-delimited) and receive one JSON response
 * per line; a request names a demo program plus size hints and compile
 * options, and the response carries the selected mapping, the search
 * explanation, the simulated timing report, and cache-tier provenance
 * (memory / disk / simulated). See DESIGN.md "Tiered eval cache +
 * mapping service" for the protocol.
 *
 * Request object:
 *     {"type":"eval",            // default; also ping | stats | shutdown
 *      "program":"sumrows",      // see demoProgramNames()
 *      "sizes":{"rows":512},     // optional, program-specific keys
 *      "strategy":"multidim",    // multidim | 1d | tbt | warp
 *      "explain":true,           // include the decision report text
 *      "devices":4,              // optional fleet size in [1, 32]; when
 *                                // > 1 the response gains "devices" and
 *                                // a "fleet" object with the sharding
 *                                // sweep (sim/fleet.h)
 *      "id":7}                   // echoed back verbatim
 *
 * An eval response carries "protocol":kServeProtocol. Its "fleet",
 * "consolidation" (programs with a runtime-sized inner domain) and
 * "predict" (NPP_PREDICT=1 servers) objects are sweep sections in the
 * one schema of sweepJson (sim/sweep.h):
 *     {"sweep":"fleet","title":"...","best":1,"best_ms":...,
 *      "baseline_ms":...,"speedup":...,"selected":"devices=2 ...",
 *      "points":[{"label":"devices=1","devices":1,"split":512,
 *                 "score":0,"predicted_ms":0,"score_choice":true,
 *                 "status":"simulated","ms":...,"note":"..."}, ...]}
 * where "best" indexes "points" (-1: nothing simulated) and a point's
 * "status" is simulated (with "ms"), pruned, or filtered (with the
 * hard-filter "verdict").
 *
 * Concurrency: one thread per connection, joined by the accept loop
 * once its client is done. Identical in-flight requests
 * — same program, sizes, strategy, device, fleet — are coalesced onto a single
 * evaluation keyed by the same fingerprint the EvalCache uses; the
 * waiters share the leader's outcome and their responses are marked
 * "coalesced":true. Per-request latency is recorded under the
 * "server.request" trace span and surfaced by the stats request.
 */

#ifndef NPP_SERVER_SERVER_H
#define NPP_SERVER_SERVER_H

#include <cstdint>
#include <memory>
#include <string>

namespace npp {

/** Version of the eval response, sent as "protocol". 2: the fleet,
 *  consolidation and predict objects follow the sweep section schema. */
inline constexpr int kServeProtocol = 2;

struct ServeOptions
{
    /** Filesystem path for the AF_UNIX listening socket. A stale file
     *  at this path is replaced. */
    std::string socketPath;

    /** Test hook: hold each leader evaluation open for this many
     *  milliseconds before simulating, so concurrent identical requests
     *  deterministically land in the coalescing window. */
    int holdEvalMs = 0;
};

/** Lifetime counters for one server instance (monotonic; the stats
 *  request also reports them). */
struct ServerStats
{
    uint64_t requests = 0;    //!< lines received (any type)
    uint64_t errors = 0;      //!< responses with "ok":false
    uint64_t evaluations = 0; //!< eval requests completed
    uint64_t simulations = 0; //!< evaluations that actually simulated
    uint64_t coalesced = 0;   //!< eval requests served by a leader
    uint64_t memoryHits = 0;  //!< evaluations served from the memory tier
    uint64_t diskHits = 0;    //!< evaluations served from the disk tier
};

/**
 * The serve loop. start() binds and listens, then accepts connections
 * on a background thread; stop() (or a client "shutdown" request)
 * drains and joins everything. The destructor stops implicitly.
 */
class MappingServer
{
  public:
    explicit MappingServer(ServeOptions opts);
    ~MappingServer();

    MappingServer(const MappingServer &) = delete;
    MappingServer &operator=(const MappingServer &) = delete;

    /** Bind, listen, and spawn the accept loop. Returns false (with a
     *  description in `error`) when the socket cannot be set up. */
    bool start(std::string *error);

    /** Block until the server is stopped — by stop(), a "shutdown"
     *  request, or a fatal accept error. */
    void wait();

    /** Ask the accept loop to exit and join every connection thread.
     *  Idempotent. */
    void stop();

    ServerStats stats() const;
    const std::string &socketPath() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Client helper: connect to `socketPath`, send `request` as one line,
 * and read the one-line reply into `response`. Returns false with
 * `error` filled on connect/IO failure. Used by `nppc --client` and the
 * tests; the wire protocol stays trivially reimplementable (nc -U).
 */
bool serveRoundTrip(const std::string &socketPath,
                    const std::string &request, std::string *response,
                    std::string *error);

} // namespace npp

#endif // NPP_SERVER_SERVER_H
