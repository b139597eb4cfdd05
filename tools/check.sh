#!/usr/bin/env bash
# Full verification driver: the default build + ctest, then (optionally)
# sanitizer builds in separate build trees. Usage:
#
#   tools/check.sh              # default job: build (warnings are
#                               # errors) + ctest
#   tools/check.sh asan         # AddressSanitizer + UBSan build + ctest
#   tools/check.sh tsan         # ThreadSanitizer build + ctest
#   tools/check.sh ubsan        # UBSan-only build + ctest
#   tools/check.sh label REGEX  # the ctest label(s) matching REGEX in
#                               # the default AND asan trees
#   tools/check.sh all          # all four builds, in order
#   tools/check.sh rows [BASE]  # row identity: build BASE (default HEAD)
#                               # from `git archive` into build-rows/,
#                               # then diff the fig12/13/14 --json rows,
#                               # every demo program's nppc --stats
#                               # export and its --predict mapping
#                               # against the working tree, and the
#                               # working tree's disk-warm fig12/14 rows
#                               # against its cold ones
#
# Every ctest invocation runs the full suite. The labels pick out the
# suites worth a quick focused rerun, and the `label` job runs them in
# the default tree for speed and in the asan tree so hostile inputs
# (corrupt cache and model files, malformed requests) exercise the
# deserializers under sanitizers:
#   differential  block classing is bit-exact against full simulation
#   coalesce      coalescing-model contracts (shift invariance)
#   server        mapping service, request coalescing, hostile disk
#                 entries (each test uses its own NPP_EVAL_CACHE_DIR)
#   multidev      outer-domain partitioner and fleet sharding
#   dynsize       runtime-sized domains and consolidation differentials
#   predict       learned cost model: featurizer determinism, hostile
#                 model files, pruned-vs-full sweep differential
#   sweep         the sweep engine: every sweep's winner against goldens,
#                 the section renderers, one bindings digest per call
# e.g. `tools/check.sh label 'coalesce|differential'`.
#
# The `rows` job proves a change leaves every result byte-identical: the
# figure rows (full precision) and the simulator counter export of all
# seven demo programs, plus spmv under Strategy::Consolidate so the
# consolidation fields are non-zero, and three shapes whose searched
# mapping is Split(k) (sumrows and weightedrows at 16x200000, sumcols
# at 200000x16) so the combiner and its replay are covered. It also
# diffs the `== Mapping` block of `nppc <prog> --predict --mapping`
# for the seven programs: with no model loaded that is the winner of
# the full 48-candidate predictive sweep. Both trees
# run with every NPP_* variable unset, so neither can replay the other's
# disk-cache entries. It then runs fig12 and fig14 twice in the working
# tree against one fresh NPP_EVAL_CACHE_DIR and diffs the second run's
# rows against the first: the second replays every launch and every
# reference validation from disk, and fig14 divides by the replayed
# reference work counts (cpuMs).
#
# Each job uses its own build directory (build/, build-asan/,
# build-tsan/, build-ubsan/, build-rows/) so sanitizer and plain objects
# never mix.
# Exits nonzero on the first failing configure, build, or test.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="${1:-default}"

run_job() {
    local name="$1" dir="$2"
    shift 2
    echo "== check: ${name} (${dir}) =="
    cmake -B "${dir}" -S . "$@"
    cmake --build "${dir}" -j
    ctest --test-dir "${dir}" --output-on-failure -j "$(nproc)"
}

case "${jobs}" in
default)
    run_job default build -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
    ;;
asan)
    run_job asan build-asan -DNPP_ASAN=ON
    ;;
tsan)
    run_job tsan build-tsan -DNPP_TSAN=ON
    ;;
ubsan)
    run_job ubsan build-ubsan -DNPP_UBSAN=ON
    ;;
label)
    regex="${2:?usage: tools/check.sh label REGEX}"
    for dir in build build-asan; do
        echo "== check: label ${regex} (${dir}) =="
        flags=()
        [ "${dir}" = build-asan ] && flags=(-DNPP_ASAN=ON)
        cmake -B "${dir}" -S . "${flags[@]}"
        cmake --build "${dir}" -j
        ctest --test-dir "${dir}" --output-on-failure -j "$(nproc)" \
            -L "${regex}"
    done
    ;;
rows)
    base="${2:-HEAD}"
    rows_dir=build-rows
    targets=(fig12_rodinia fig13_fixed2d fig14_realworld nppc)
    echo "== check: rows (${base} in ${rows_dir}/ vs working tree) =="
    rm -rf "${rows_dir}/src" "${rows_dir}/out"
    mkdir -p "${rows_dir}/src"
    git archive "${base}" | tar -x -C "${rows_dir}/src"
    cmake -B "${rows_dir}/build" -S "${rows_dir}/src"
    cmake --build "${rows_dir}/build" -j "$(nproc)" --target "${targets[@]}"
    cmake -B build -S .
    cmake --build build -j "$(nproc)" --target "${targets[@]}"
    for var in $(compgen -e | grep '^NPP_' || true); do
        unset "${var}"
    done
    for tree in "base=${rows_dir}/build" "head=build"; do
        bin="${tree#*=}"
        out="${rows_dir}/out/${tree%%=*}"
        mkdir -p "${out}"
        for fig in fig12_rodinia fig13_fixed2d fig14_realworld; do
            "${bin}/bench/${fig}" --json="${out}/${fig}.json" >/dev/null
        done
        for prog in sumrows sumcols weightedrows weightedcols pagerank \
            mandelbrot spmv; do
            "${bin}/tools/nppc" "${prog}" --run \
                --stats="${out}/${prog}.json" >/dev/null
            "${bin}/tools/nppc" "${prog}" --predict --mapping |
                sed -n '/^== Mapping/,/^$/p' >"${out}/${prog}-predict.txt"
        done
        "${bin}/tools/nppc" spmv --strategy=consolidate --run \
            --stats="${out}/spmv-consolidate.json" >/dev/null
        for prog in sumrows weightedrows; do
            "${bin}/tools/nppc" "${prog}" --size=rows=16 --size=cols=200000 \
                --run --stats="${out}/${prog}-split.json" >/dev/null
        done
        "${bin}/tools/nppc" sumcols --size=rows=200000 --size=cols=16 \
            --run --stats="${out}/sumcols-split.json" >/dev/null
    done
    if ! diff -r "${rows_dir}/out/base" "${rows_dir}/out/head"; then
        echo "== check: rows differ from ${base} ==" >&2
        exit 1
    fi
    warm="${rows_dir}/out/warm"
    mkdir -p "${warm}/cache"
    for fig in fig12_rodinia fig14_realworld; do
        for run in cold disk; do
            NPP_EVAL_CACHE_DIR="${warm}/cache" "build/bench/${fig}" \
                --json="${warm}/${fig}-${run}.json" >/dev/null
        done
        if ! diff "${warm}/${fig}-cold.json" "${warm}/${fig}-disk.json"; then
            echo "== check: ${fig} rows replayed from disk differ ==" >&2
            exit 1
        fi
    done
    rm -rf "${warm}/cache"
    ;;
all)
    run_job default build -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
    run_job asan build-asan -DNPP_ASAN=ON
    run_job tsan build-tsan -DNPP_TSAN=ON
    run_job ubsan build-ubsan -DNPP_UBSAN=ON
    ;;
*)
    echo "usage: tools/check.sh [default|asan|tsan|ubsan|label REGEX|all|rows [BASE]]" >&2
    exit 2
    ;;
esac

echo "== check: ${jobs} OK =="
