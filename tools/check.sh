#!/usr/bin/env bash
# Full verification driver: the default build + ctest, then (optionally)
# sanitizer builds in separate build trees. Usage:
#
#   tools/check.sh              # default job: build + ctest
#   tools/check.sh asan         # AddressSanitizer + UBSan build + ctest
#   tools/check.sh tsan         # ThreadSanitizer build + ctest
#   tools/check.sh ubsan        # UBSan-only build + ctest
#   tools/check.sh differential # build + classed-vs-full suite only
#   tools/check.sh coalesce     # asan build + shift-invariance and
#                               # differential suites
#   tools/check.sh server       # mapping-service + disk-cache suite in
#                               # the default AND asan trees
#   tools/check.sh multidev     # multi-device sharding suite in the
#                               # default AND asan trees
#   tools/check.sh dynsize      # runtime-sized-domain suite (randomized
#                               # parity + consolidation differentials)
#                               # in the default AND asan trees
#   tools/check.sh predict      # learned-cost-model suite (featurizer
#                               # determinism, hostile model files,
#                               # pruned-vs-full sweep differential) in
#                               # the default AND asan trees
#   tools/check.sh all          # all four builds, in order
#   tools/check.sh rows [BASE]  # row identity: build BASE (default HEAD)
#                               # from `git archive` into build-rows/,
#                               # then diff the fig12/13/14 --json rows
#                               # and every demo program's nppc --stats
#                               # export against the working tree
#
# Every ctest invocation runs the full suite, including the classed
# differential tests (labeled `differential`), the coalescing-model
# suite (labeled `coalesce`), the mapping-service suite (labeled
# `server`), and the multi-device sharding suite (labeled `multidev`); the `differential` job builds the default tree and runs
# just that label for a quick check of the block-classing bit-exactness
# contract, the `coalesce` job runs the coalescing-model contracts
# (shift invariance, classing regressions, classed-vs-full bit
# identity) under AddressSanitizer, and the `server` job runs the
# mapping-service protocol, request-coalescing, and hostile-disk-entry
# tests twice — default build for speed, asan build so corrupt cache
# files and malformed requests exercise the deserializer under
# sanitizers. The `multidev` job runs the outer-domain partitioner and
# fleet-sharding contracts (N=1 bit identity, shard/fleet cache-key
# separation) in the default and asan trees. The `dynsize` job runs the
# runtime-sized-domain suite (seeded randomized CSR parity, the
# consolidation-vs-static differential, and the mapping-service
# consolidation-verdict regression, labeled `dynsize`) in the default
# and asan trees. The `predict` job runs the learned-cost-model suite
# (featurizer determinism across rebuilds, corrupt/truncated/stale
# model files rejected as "no model", the pruned-vs-full sweep
# differential on every demo program, and NPP_PREDICT* env hardening,
# labeled `predict`) in the default and asan trees. Each server-suite
# test creates its own temp
# NPP_EVAL_CACHE_DIR, so parallel jobs never share cache state.
#
# The `rows` job proves a change leaves every result byte-identical: the
# figure rows (full precision) and the simulator counter export of all
# seven demo programs, plus spmv under Strategy::Consolidate so the
# consolidation fields are non-zero. Both trees run with every NPP_*
# variable unset, so neither can replay the other's disk-cache entries.
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
    run_job default build
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
differential)
    echo "== check: differential (build) =="
    cmake -B build -S .
    cmake --build build -j
    ctest --test-dir build --output-on-failure -j "$(nproc)" -L differential
    ;;
coalesce)
    echo "== check: coalesce (build-asan) =="
    cmake -B build-asan -S . -DNPP_ASAN=ON
    cmake --build build-asan -j
    ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
        -L 'coalesce|differential'
    ;;
server)
    echo "== check: server (build) =="
    cmake -B build -S .
    cmake --build build -j
    ctest --test-dir build --output-on-failure -j "$(nproc)" -L server
    echo "== check: server (build-asan) =="
    cmake -B build-asan -S . -DNPP_ASAN=ON
    cmake --build build-asan -j
    ctest --test-dir build-asan --output-on-failure -j "$(nproc)" -L server
    ;;
multidev)
    echo "== check: multidev (build) =="
    cmake -B build -S .
    cmake --build build -j
    ctest --test-dir build --output-on-failure -j "$(nproc)" -L multidev
    echo "== check: multidev (build-asan) =="
    cmake -B build-asan -S . -DNPP_ASAN=ON
    cmake --build build-asan -j
    ctest --test-dir build-asan --output-on-failure -j "$(nproc)" -L multidev
    ;;
dynsize)
    echo "== check: dynsize (build) =="
    cmake -B build -S .
    cmake --build build -j
    ctest --test-dir build --output-on-failure -j "$(nproc)" -L dynsize
    echo "== check: dynsize (build-asan) =="
    cmake -B build-asan -S . -DNPP_ASAN=ON
    cmake --build build-asan -j
    ctest --test-dir build-asan --output-on-failure -j "$(nproc)" -L dynsize
    ;;
predict)
    echo "== check: predict (build) =="
    cmake -B build -S .
    cmake --build build -j
    ctest --test-dir build --output-on-failure -j "$(nproc)" -L predict
    echo "== check: predict (build-asan) =="
    cmake -B build-asan -S . -DNPP_ASAN=ON
    cmake --build build-asan -j
    ctest --test-dir build-asan --output-on-failure -j "$(nproc)" -L predict
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
        done
        "${bin}/tools/nppc" spmv --strategy=consolidate --run \
            --stats="${out}/spmv-consolidate.json" >/dev/null
    done
    if ! diff -r "${rows_dir}/out/base" "${rows_dir}/out/head"; then
        echo "== check: rows differ from ${base} ==" >&2
        exit 1
    fi
    ;;
all)
    run_job default build
    run_job asan build-asan -DNPP_ASAN=ON
    run_job tsan build-tsan -DNPP_TSAN=ON
    run_job ubsan build-ubsan -DNPP_UBSAN=ON
    ;;
*)
    echo "usage: tools/check.sh [default|asan|tsan|ubsan|differential|coalesce|server|multidev|dynsize|predict|all|rows [BASE]]" >&2
    exit 2
    ;;
esac

echo "== check: ${jobs} OK =="
