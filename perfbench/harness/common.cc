#include "common.h"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "ir/program.h"
#include "runtime/binding.h"
#include "support/parallel.h"
#include "support/trace.h"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"cold_s", "s"},
    {"warm_s", "s"},
    {"req_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    // sim executor
    {"sim.runs", "count"},
    {"sim.blocks", "count"},
    {"sim.classed_blocks", "count"},
    {"sim.class_fallbacks", "count"},
    {"sim.run_s", "s"},
    {"sim.us_per_block", "us"},
    // sim evalcache
    {"sim.cache_hits", "count"},
    {"sim.cache_misses", "count"},
    {"sim.cache_hit_ratio", "ratio"},
    {"sim.cache_bytes", "bytes"},
    {"sim.cache_find_mem_ms", "ms"},
    {"sim.cache_find_disk_ms", "ms"},
    {"sim.cache_disk_hits", "count"},
    {"sim.cache_disk_stores", "count"},
    {"sim.cache_disk_rejects", "count"},
    // sim sweeps
    {"sim.consolidation_s", "s"},
    {"sim.fleet_s", "s"},
    // runtime
    {"runtime.fingerprint_ms", "ms"},
    {"runtime.fingerprint_gb_per_s", "GB/s"},
    // server
    {"server.requests", "count"},
    {"server.errors", "count"},
    {"server.coalesced", "count"},
    {"server.request_ms", "ms"},
    {"server.wait_ms", "ms"},
    {"server.bind_ms", "ms"},
    {"server.render_ms", "ms"},
    {"server.coverage", "ratio"},
    {"server.coverage_cold", "ratio"},
    {"server.coverage_mem", "ratio"},
    {"server.coverage_disk", "ratio"},
    {"server.cold_p50_ms", "ms"},
    {"server.cold_p90_ms", "ms"},
    {"server.cold_count", "count"},
    {"server.mem_p50_ms", "ms"},
    {"server.mem_p90_ms", "ms"},
    {"server.mem_count", "count"},
    {"server.disk_p50_ms", "ms"},
    {"server.disk_p90_ms", "ms"},
    {"server.disk_count", "count"},
    // codegen, analysis
    {"codegen.compiles", "count"},
    {"codegen.compile_ms", "ms"},
    {"analysis.search_ms", "ms"},
    {"analysis.candidates", "count"},
    {"codegen.autotune_s", "s"},
    {"codegen.autotune_trials", "count"},
    // predict
    {"predict.train_s", "s"},
    {"predict.samples", "count"},
    {"predict.sweep_s", "s"},
    {"predict.survivors", "count"},
    {"predict.pruned", "count"},
    // apps
    {"apps.launches", "count"},
    {"apps.fig12_cold_s", "s"},
    {"apps.fig13_cold_s", "s"},
    {"apps.fig14_cold_s", "s"},
    {"apps.fig12_warm_s", "s"},
    {"apps.fig13_warm_s", "s"},
    {"apps.fig14_warm_s", "s"},
    {"apps.launch_self_cold_s", "s"},
    {"apps.launch_self_warm_s", "s"},
    // support
    {"support.parallel_jobs", "count"},
    {"support.parallel_s", "s"},
    {"support.trace_overhead_pct", "%"},
    // the harness itself
    {"bench.coverage", "ratio"},
};

Result::Result(bool trace)
    : table_(trace ? &kPerLayer : &kEndToEnd)
{
    for (const MetricDef &m : *table_)
        values_[m.name] = 0.0;
}

void
Result::set(const std::string &name, double value)
{
    auto it = values_.find(name);
    if (it == values_.end()) {
        std::fprintf(stderr, "perfbench: metric %s is not in this mode's "
                             "table\n",
                     name.c_str());
        std::exit(70);
    }
    it->second = value;
}

void
Result::gate(bool ok, const std::string &what)
{
    attempted_++;
    if (!ok) {
        failed_++;
        std::fprintf(stderr, "perfbench: gate failed: %s\n", what.c_str());
    }
}

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &m : *table_) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", m.name, values_.at(m.name), m.unit);
        out += buf;
        first = false;
    }
    out += "}}";
    return out;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(p * static_cast<double>(samples.size()));
    const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

bool
makeDirs(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return !ec;
}

std::string
fsType(const std::string &path)
{
    struct statfs st;
    if (::statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0x794c7630UL: return "overlay";
    case 0xef53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683eUL: return "btrfs";
    default: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%lx",
                      static_cast<unsigned long>(st.f_type));
        return buf;
    }
    }
}

namespace {

struct SizeRange
{
    const char *key;
    double lo;
    double hi;
};

/** The serve workload's size ranges per demo program
 *  (server/programs.cc size keys). */
const std::vector<SizeRange> &
serveRanges(const std::string &program)
{
    static const std::map<std::string, std::vector<SizeRange>> ranges = {
        {"sumrows", {{"rows", 128, 1024}, {"cols", 128, 1024}}},
        {"sumcols", {{"rows", 128, 1024}, {"cols", 128, 1024}}},
        {"weightedrows", {{"rows", 128, 1024}, {"cols", 128, 1024}}},
        {"weightedcols", {{"rows", 128, 1024}, {"cols", 128, 1024}}},
        {"pagerank", {{"nodes", 1024, 16384}}},
        {"mandelbrot", {{"height", 32, 128}, {"width", 128, 512}}},
        {"spmv", {{"rows", 1024, 8192}, {"avgdeg", 4, 12}}},
    };
    auto it = ranges.find(program);
    if (it == ranges.end()) {
        std::fprintf(stderr, "perfbench: no size ranges for %s\n",
                     program.c_str());
        std::exit(70);
    }
    return it->second;
}

/** The sweeps workload's ranges: a band of 1.25x either way around the
 *  sizes bench/fig_predict sweeps (large enough that simulation
 *  dominates compile time, small enough that 48-candidate sweeps stay
 *  tractable). A narrow band keeps the cost of a handful of draws
 *  nearly the same from seed to seed. */
std::vector<SizeRange>
sweepRanges(const std::string &program)
{
    static const std::map<std::string,
                          std::vector<std::pair<const char *, double>>>
        centers = {
            {"sumrows", {{"rows", 512}, {"cols", 512}}},
            {"sumcols", {{"rows", 512}, {"cols", 512}}},
            {"weightedrows", {{"rows", 512}, {"cols", 512}}},
            {"weightedcols", {{"rows", 512}, {"cols", 512}}},
            {"pagerank", {{"nodes", 4096}}},
            {"mandelbrot", {{"height", 128}, {"width", 256}}},
            {"spmv", {{"rows", 2048}, {"avgdeg", 8}}},
        };
    std::vector<SizeRange> band;
    for (const auto &[key, center] : centers.at(program))
        band.push_back({key, center / 1.25, center * 1.25});
    return band;
}

/** The multiplier of a rank-1 lattice over n strata: the integer
 *  nearest n/phi that is coprime to n (1 when n < 3). */
int
latticeMultiplier(int n)
{
    int best = 1;
    for (int a = 1; a < n; a++) {
        if (std::gcd(a, n) == 1 &&
            std::abs(a - 0.618 * n) < std::abs(best - 0.618 * n))
            best = a;
    }
    return best;
}

} // namespace

std::string
DrawKey::id() const
{
    std::string s = program;
    for (const auto &[k, v] : sizes)
        s += " " + k + "=" + std::to_string(v);
    return s;
}

std::string
DrawKey::request() const
{
    std::string s = "{\"type\":\"eval\",\"program\":\"" + program +
                    "\",\"sizes\":{";
    bool first = true;
    for (const auto &[k, v] : sizes) {
        s += (first ? "\"" : ",\"") + k + "\":" + std::to_string(v);
        first = false;
    }
    return s + "}}";
}

std::vector<DrawKey>
drawKeys(const std::string &program, int n, Ranges ranges, npp::Rng &rng,
         std::vector<std::string> &taken)
{
    const std::vector<SizeRange> dims = ranges == Ranges::Serve
                                            ? serveRanges(program)
                                            : sweepRanges(program);
    // Point i takes stratum order[i] of the first size dimension and
    // stratum order[i] * a mod n of the second: the pairing is a fixed
    // lattice, so the set of (stratum, stratum) cells is the same for
    // every seed and only the jitter inside each cell and the order of
    // the keys vary.
    std::vector<int> order;
    for (int i = 0; i < n; i++)
        order.push_back(i);
    shuffle(order, rng);
    const int a = latticeMultiplier(n);
    std::vector<DrawKey> keys;
    for (int i = 0; i < n; i++) {
        DrawKey key;
        key.program = program;
        for (int attempt = 0;; attempt++) {
            for (size_t d = 0; d < dims.size(); d++) {
                const int cell = d == 0 ? order[static_cast<size_t>(i)]
                                        : order[static_cast<size_t>(i)] *
                                              a % n;
                const double u = (cell + rng.uniform()) / n;
                const double lo = std::log(dims[d].lo);
                const double hi = std::log(dims[d].hi);
                key.sizes[dims[d].key] =
                    std::llround(std::exp(lo + u * (hi - lo)));
            }
            if (std::find(taken.begin(), taken.end(), key.id()) ==
                taken.end())
                break;
            if (attempt > 1000) {
                std::fprintf(stderr, "perfbench: cannot draw a fresh %s "
                                     "key\n",
                             program.c_str());
                std::exit(70);
            }
        }
        taken.push_back(key.id());
        keys.push_back(std::move(key));
    }
    return keys;
}

#if defined(__clang__)
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "g++ " __VERSION__;
#endif

void
printHeader(const RunConfig &cfg, int clients,
            const std::vector<std::string> &paths)
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(" \t", colon + 1));
            break;
        }
    }
    std::string pathsJson;
    for (const std::string &p : paths) {
        pathsJson += pathsJson.empty() ? "" : ", ";
        pathsJson += "{\"path\": \"" + p + "\", \"fs\": \"" + fsType(p) +
                     "\"}";
    }
    std::printf("{\"header\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %d, \"trace\": %d, \"nproc\": %ld, "
                "\"cpu_model\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"pool_threads\": %d, "
                "\"clients\": %d, \"scratch\": [%s]}}\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
                cpu.c_str(), kCompiler, PERFBENCH_BUILD_TYPE,
                npp::parallelThreadCount(), clients, pathsJson.c_str());
    std::fflush(stdout);
}

double
spanSeconds(const char *name)
{
    return npp::Trace::instance().timerStat(name).totalUs * 1e-6;
}

double
spanCount(const char *name)
{
    return static_cast<double>(npp::Trace::instance().timerStat(name).count);
}

void
LayerReadings::add()
{
    const npp::Trace &tr = npp::Trace::instance();
    simRuns += spanCount("sim.run");
    simBlocks += tr.counterValue("sim.blocks");
    classed += tr.counterValue("sim.classed_blocks");
    fallbacks += tr.counterValue("sim.class_fallbacks");
    simRunS += spanSeconds("sim.run");
    compiles += spanCount("codegen.compile");
    compileS += spanSeconds("codegen.compile");
    searches += spanCount("analysis.search");
    searchS += spanSeconds("analysis.search");
    candidates += tr.counterValue("search.candidates");
    autotuneS += spanSeconds("codegen.autotune");
    trials += tr.counterValue("autotune.trials");
    predictS += spanSeconds("predict.sweep");
    survivors += tr.counterValue("predict.survivors");
    pruned += tr.counterValue("predict.pruned");
    consolidationS += spanSeconds("consolidation.search");
    fleetS += spanSeconds("fleet.search");
    parallelJobs += tr.counterValue("parallel.jobs");
    parallelS += spanSeconds("parallel.for");
    spans += static_cast<double>(tr.spanCount() + tr.droppedSpans());
}

void
LayerReadings::emit(Result &out) const
{
    out.set("sim.runs", simRuns);
    out.set("sim.blocks", simBlocks);
    out.set("sim.classed_blocks", classed);
    out.set("sim.class_fallbacks", fallbacks);
    out.set("sim.run_s", simRunS);
    out.set("sim.us_per_block", simBlocks > 0 ? simRunS * 1e6 / simBlocks
                                              : 0.0);
    out.set("sim.consolidation_s", consolidationS);
    out.set("sim.fleet_s", fleetS);
    out.set("codegen.compiles", compiles);
    out.set("codegen.compile_ms",
            compiles > 0 ? 1e3 * compileS / compiles : 0.0);
    out.set("analysis.search_ms",
            searches > 0 ? 1e3 * searchS / searches : 0.0);
    out.set("analysis.candidates", candidates);
    out.set("codegen.autotune_s", autotuneS);
    out.set("codegen.autotune_trials", trials);
    out.set("predict.sweep_s", predictS);
    out.set("predict.survivors", survivors);
    out.set("predict.pruned", pruned);
    out.set("support.parallel_jobs", parallelJobs);
    out.set("support.parallel_s", parallelS);
}

void
addCacheStats(npp::EvalCacheStats &sum, const npp::EvalCacheStats &c)
{
    sum.hits += c.hits;
    sum.misses += c.misses;
    sum.diskHits += c.diskHits;
    sum.diskStores += c.diskStores;
    sum.diskRejects += c.diskRejects;
    sum.bytes = c.bytes;
}

void
emitCacheStats(const npp::EvalCacheStats &s, Result &out)
{
    out.set("sim.cache_hits", static_cast<double>(s.hits));
    out.set("sim.cache_misses", static_cast<double>(s.misses));
    out.set("sim.cache_hit_ratio", s.hitRate());
    out.set("sim.cache_bytes", static_cast<double>(s.bytes));
    out.set("sim.cache_disk_hits", static_cast<double>(s.diskHits));
    out.set("sim.cache_disk_stores", static_cast<double>(s.diskStores));
    out.set("sim.cache_disk_rejects", static_cast<double>(s.diskRejects));
}

double
bindingBytes(const npp::Program &prog, const npp::Bindings &args)
{
    double bytes = 0.0;
    for (int v = 0; v < prog.numVars(); v++) {
        const npp::ArraySlot &slot = args.arraySlot(v);
        if (slot.data)
            bytes += 8.0 * static_cast<double>(slot.size);
    }
    return bytes;
}

double
traceOverheadPct(double spansRecorded, double wallS)
{
    npp::Trace &trace = npp::Trace::instance();
    const bool wasOn = trace.enabled();
    trace.setEnabled(true);
    trace.clear();
    constexpr int kCalibrationSpans = 200000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalibrationSpans; i++) {
        npp::ScopedTimer span("perfbench.calibrate");
    }
    const double perSpanS = secondsSince(t0) / kCalibrationSpans;
    trace.clear();
    trace.setEnabled(wasOn);
    return wallS > 0 ? 100.0 * spansRecorded * perSpanS / wallS : 0.0;
}

} // namespace perfbench
