/**
 * @file
 * Shared helpers for the figure-reproduction benches: fixed-width table
 * printing in the shape of the paper's charts, the normalized-bar
 * convention (each figure states what the bars are normalized to), and
 * machine-readable diagnostics shared by every figure binary:
 *
 *     fig13_fixed2d [--json=FILE] [--trace=FILE] [--stats=FILE]
 *
 * --json dumps every printed table (per-row labels and values) as JSON,
 * --trace records pipeline spans to chrome://tracing JSON, and --stats
 * writes the flat trace-counter summary plus EvalCache counters. All
 * three are off by default; the printed tables are bit-identical with
 * and without them.
 *
 * Every table is validated before printing: a row with no values (an
 * empty candidate/result set upstream) or a NaN/inf value aborts the
 * binary with a nonzero exit code naming the offending row, so sweeps
 * that silently produce garbage cannot masquerade as green in scripts.
 */

#ifndef NPP_BENCH_COMMON_H
#define NPP_BENCH_COMMON_H

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/evalcache.h"
#include "support/strings.h"
#include "support/trace.h"

namespace npp {

/** One row of a normalized-bars table. */
struct Row
{
    std::string label;
    std::vector<double> values;
};

/** Process-wide bench I/O state: output paths parsed from argv and the
 *  JSON sections accumulated by table(). */
struct BenchIo
{
    std::string jsonPath;
    std::string tracePath;
    std::string statsPath;
    std::string sectionTitle; // most recent banner
    std::string sectionsJson; // accumulated table() sections
};

inline BenchIo &
benchIo()
{
    static BenchIo io;
    return io;
}

/** Parse the shared bench flags; returns 0 to proceed, nonzero (the
 *  process exit code) on an unrecognized argument. Enables tracing when
 *  --trace or --stats is given (both consume the recorded registry). */
inline int
benchInit(int argc, char **argv)
{
    BenchIo &io = benchIo();
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0)
            io.jsonPath = arg.substr(std::strlen("--json="));
        else if (arg.rfind("--trace=", 0) == 0)
            io.tracePath = arg.substr(std::strlen("--trace="));
        else if (arg.rfind("--stats=", 0) == 0)
            io.statsPath = arg.substr(std::strlen("--stats="));
        else {
            std::fprintf(stderr,
                         "usage: %s [--json=FILE] [--trace=FILE] "
                         "[--stats=FILE]\n",
                         argv[0]);
            return 2;
        }
    }
    if (!io.tracePath.empty() || !io.statsPath.empty())
        Trace::instance().setEnabled(true);
    return 0;
}

/** Write the outputs requested by benchInit(); returns the process exit
 *  code (nonzero if any file could not be written). */
inline int
benchFinish()
{
    BenchIo &io = benchIo();
    int rc = 0;
    if (!io.jsonPath.empty()) {
        const std::string doc =
            "{\"sections\":[" + io.sectionsJson + "]}\n";
        FILE *f = std::fopen(io.jsonPath.c_str(), "wb");
        if (!f) {
            std::fprintf(stderr, "bench: cannot write %s\n",
                         io.jsonPath.c_str());
            rc = 1;
        } else {
            std::fwrite(doc.data(), 1, doc.size(), f);
            std::fclose(f);
        }
    }
    if (!io.tracePath.empty() &&
        !Trace::instance().writeChromeTrace(io.tracePath))
        rc = 1;
    if (!io.statsPath.empty()) {
        const std::string doc =
            "{\"trace\":" + Trace::instance().flatJson() +
            ",\"eval_cache\":" + EvalCache::instance().stats().toJson() +
            "}\n";
        FILE *f = std::fopen(io.statsPath.c_str(), "wb");
        if (!f) {
            std::fprintf(stderr, "bench: cannot write %s\n",
                         io.statsPath.c_str());
            rc = 1;
        } else {
            std::fwrite(doc.data(), 1, doc.size(), f);
            std::fclose(f);
        }
    }
    return rc;
}

/** Print a figure banner. */
inline void
banner(const std::string &title, const std::string &note)
{
    benchIo().sectionTitle = title;
    std::printf("\n%s\n", repeat("=", 72).c_str());
    std::printf("%s\n", title.c_str());
    if (!note.empty())
        std::printf("%s\n", note.c_str());
    std::printf("%s\n", repeat("=", 72).c_str());
}

/** Abort with a nonzero exit naming the first broken row: no values at
 *  all (an empty candidate/result set upstream) or a NaN/inf value. */
inline void
validateRows(const std::vector<Row> &rows)
{
    for (const auto &row : rows) {
        if (row.values.empty()) {
            std::fprintf(stderr,
                         "bench: row \"%s\" produced no values (empty "
                         "candidate/result set)\n",
                         row.label.c_str());
            std::exit(3);
        }
        for (double v : row.values) {
            if (!std::isfinite(v)) {
                std::fprintf(stderr,
                             "bench: row \"%s\" contains a non-finite "
                             "value (%g)\n",
                             row.label.c_str(), v);
                std::exit(3);
            }
        }
    }
}

/** Print a table of normalized values with one column per series.
 *  Validates every row first (see validateRows) and, when --json was
 *  given, appends the table as a JSON section. */
inline void
table(const std::vector<std::string> &series, const std::vector<Row> &rows,
      int labelWidth = 22)
{
    validateRows(rows);

    BenchIo &io = benchIo();
    if (!io.jsonPath.empty()) {
        std::string sec;
        sec += "{\"title\":\"" + jsonEscape(io.sectionTitle) + "\"";
        sec += ",\"series\":[";
        for (size_t i = 0; i < series.size(); i++) {
            sec += (i ? "," : "");
            sec += "\"" + jsonEscape(series[i]) + "\"";
        }
        sec += "],\"rows\":[";
        for (size_t i = 0; i < rows.size(); i++) {
            sec += (i ? "," : "");
            sec += "{\"label\":\"" + jsonEscape(rows[i].label) +
                   "\",\"values\":[";
            for (size_t j = 0; j < rows[i].values.size(); j++) {
                char buf[40];
                std::snprintf(buf, sizeof buf, "%s%.17g", j ? "," : "",
                              rows[i].values[j]);
                sec += buf;
            }
            sec += "]}";
        }
        sec += "]}";
        if (!io.sectionsJson.empty())
            io.sectionsJson += ",";
        io.sectionsJson += sec;
    }

    std::printf("%s", padRight("", labelWidth).c_str());
    for (const auto &s : series)
        std::printf("%s", padLeft(s, 14).c_str());
    std::printf("\n");
    for (const auto &row : rows) {
        std::printf("%s", padRight(row.label, labelWidth).c_str());
        for (double v : row.values)
            std::printf("%s", padLeft(fixed(v, 2), 14).c_str());
        std::printf("\n");
    }
}

} // namespace npp

#endif // NPP_BENCH_COMMON_H
