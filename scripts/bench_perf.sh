#!/usr/bin/env sh
# Host-performance checks on a Release build: the tier-1 tests,
# crw-bench fig11, the determinism gate, the warm-start gate and the
# observability-overhead check. Each passing run appends one JSON line
# to BENCH_warm_start.json at the repo root: git SHA, date, host and
# the warm-start counters and wall times; a tree without a git SHA
# (e.g. a `git archive` copy) is refused, since a row must name the
# commit it measured. End-to-end timing of the
# `crw-bench all` plan is perfbench's job (python3 perfbench/run.py).
#
# Run from the repo root. The Release tree lives in build-perf/ so it
# never disturbs an existing default (often Debug) build/ tree.
#
# Usage: scripts/bench_perf.sh [build-dir]
#   build-dir  CMake Release build tree (default: build-perf)
set -eu

build_dir=${1:-build-perf}

repo_root=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo_root"

git_sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$git_sha" = unknown ]; then
    echo "error: no git SHA for this tree; BENCH_warm_start.json rows" \
         "must name their commit (run from a git checkout or clone)" >&2
    exit 1
fi
# Stamped into every --metrics-out manifest by the bench harness.
CRW_GIT_SHA=$git_sha
export CRW_GIT_SHA

# The build must print no compiler warning: a Release (-O3) build
# warns where the default build does not, and warnings left standing
# bury new ones. Only what the build recompiles is checked, so a new
# build-dir checks every file.
echo "== configure + build ($build_dir, Release, no warnings)"
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release
build_log=$(mktemp)
status=0
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" \
    > "$build_log" 2>&1 || status=$?
cat "$build_log"
warnings=$(grep -c 'warning:' "$build_log" || true)
rm -f "$build_log"
[ "$status" -eq 0 ] || exit "$status"
if [ "$warnings" -ne 0 ]; then
    echo "FAIL: the Release build printed $warnings compiler warning(s)" >&2
    exit 1
fi

echo "== tier-1 gate (ctest -L tier1)"
ctest --test-dir "$build_dir" -L tier1 \
    -j"$(nproc 2>/dev/null || echo 2)" --output-on-failure

echo "== crw-bench fig11"
"$build_dir/bench/crw-bench" fig11

echo "== determinism gate (incl. observability + result cache +" \
     "on-disk stores + policy family/synthetic behaviors)"
"$repo_root/scripts/check_determinism.sh" "$build_dir"

crwbench_abs=$(cd "$build_dir/bench" && pwd)/crw-bench
counter() {
    v=$(grep -o "\"$2\": [0-9]*" "$1" | head -n1 | sed 's/.*: //' \
        || true)
    echo "${v:-0}"
}

# Warm-start gate (DESIGN.md section 13): with the on-disk stores
# populated, a warm `crw-bench fig11 table2 microtrace` rerun must
# replay zero points, predecode zero flat traces and replay zero walk
# steps — every point result and walk cell attaches from
# store.crwstore, so it must also beat the cold run's wall time. The
# cold run must have replayed walks (microtrace.steps > 0). A run that
# passes appends its cold/warm split to BENCH_warm_start.json, with
# cold_flat_bytes: the bytes the cold leg left under bench_out/flat/.
echo "== warm-start gate (crw-bench fig11 table2 microtrace cold vs warm)"
warm_dir=$(mktemp -d)
t0=$(date +%s%N 2>/dev/null || date +%s)
(cd "$warm_dir" &&
 "$crwbench_abs" fig11 table2 microtrace --metrics-out cold.json \
     > /dev/null)
t1=$(date +%s%N 2>/dev/null || date +%s)
cold_flat_bytes=$(find "$warm_dir/bench_out/flat" -type f -exec cat {} + \
    2>/dev/null | wc -c | tr -d ' ')
tw=$(date +%s%N 2>/dev/null || date +%s) # the warm leg starts here
(cd "$warm_dir" &&
 "$crwbench_abs" fig11 table2 microtrace --metrics-out warm.json \
     > /dev/null)
t2=$(date +%s%N 2>/dev/null || date +%s)
case "$t0" in
    *N) cold_ms=$(( (t1 - t0) * 1000 )); warm_ms=$(( (t2 - tw) * 1000 )) ;;
    *)  cold_ms=$(( (t1 - t0) / 1000000 )); warm_ms=$(( (t2 - tw) / 1000000 )) ;;
esac
ws_cold_replays=$(counter "$warm_dir/cold.json" "replay.points")
ws_warm_replays=$(counter "$warm_dir/warm.json" "replay.points")
ws_warm_predecodes=$(counter "$warm_dir/warm.json" "flat.predecode")
ws_cold_walk_steps=$(counter "$warm_dir/cold.json" "microtrace.steps")
ws_warm_walk_steps=$(counter "$warm_dir/warm.json" "microtrace.steps")
rm -rf "$warm_dir"
echo "  cold: ${cold_ms} ms (${ws_cold_replays} replays," \
     "${ws_cold_walk_steps} walk steps);" \
     "warm: ${warm_ms} ms (${ws_warm_replays} replays," \
     "${ws_warm_predecodes} predecodes, ${ws_warm_walk_steps} walk steps)"
if [ "$ws_cold_replays" -eq 0 ] || [ "$ws_warm_replays" -ne 0 ] ||
   [ "$ws_warm_predecodes" -ne 0 ]; then
    echo "error: warm start still replayed or predecoded" \
         "(replays=$ws_warm_replays predecodes=$ws_warm_predecodes)" >&2
    exit 1
fi
if [ "$ws_cold_walk_steps" -eq 0 ] || [ "$ws_warm_walk_steps" -ne 0 ]; then
    echo "error: walk cells not served from the result store" \
         "(cold steps=$ws_cold_walk_steps" \
         "warm steps=$ws_warm_walk_steps)" >&2
    exit 1
fi
if [ "$warm_ms" -ge "$cold_ms" ]; then
    echo "error: warm start (${warm_ms} ms) not faster than cold" \
         "(${cold_ms} ms)" >&2
    exit 1
fi
cpu_model=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo \
    2>/dev/null | head -n1 | tr -d '"\\')
printf '{"bench": "crw-bench fig11 table2 microtrace", "git_sha": "%s", "date": "%s", "nproc": %s, "cpu": "%s", "cold_ms": %s, "warm_ms": %s, "cold_replays": %s, "warm_replays": %s, "warm_predecodes": %s, "cold_walk_steps": %s, "warm_walk_steps": %s, "cold_flat_bytes": %s}\n' \
    "$git_sha" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    "$(nproc 2>/dev/null || echo 0)" "${cpu_model:-$(uname -m)}" \
    "$cold_ms" "$warm_ms" "$ws_cold_replays" "$ws_warm_replays" \
    "$ws_warm_predecodes" "$ws_cold_walk_steps" "$ws_warm_walk_steps" \
    "$cold_flat_bytes" >> "$repo_root/BENCH_warm_start.json"
echo "  appended to BENCH_warm_start.json:"
tail -n1 "$repo_root/BENCH_warm_start.json"

# Observability overhead check: crw-bench fig11 with --metrics-out
# must stay within 5% of the plain run's wall time (a warning, not a
# gate). --trace-out is timed apart and only printed: it is not the
# same work instrumented (it turns the result store off and replays
# the w8 points on the oracle loop with a timeline observer), so no
# bound applies. Best-of-3 per mode to shed scheduler noise; timing in
# ms via date +%s%N where available (falls back to whole seconds).
now_ms() {
    t=$(date +%s%N 2>/dev/null)
    case "$t" in
        *N|'') echo "$(( $(date +%s) * 1000 ))" ;;
        *) echo "$(( t / 1000000 ))" ;;
    esac
}
best_ms() {
    # $@: command; runs it 3 times in a scratch dir, prints best ms
    best=
    for _i in 1 2 3; do
        d=$(mktemp -d)
        t0=$(now_ms)
        (cd "$d" && "$@" > /dev/null)
        t1=$(now_ms)
        rm -rf "$d"
        dt=$((t1 - t0))
        if [ -z "$best" ] || [ "$dt" -lt "$best" ]; then
            best=$dt
        fi
    done
    echo "$best"
}
echo "== observability overhead (crw-bench fig11, best of 3)"
off_ms=$(best_ms "$crwbench_abs" fig11)
on_ms=$(best_ms "$crwbench_abs" fig11 --metrics-out metrics.json)
trace_ms=$(best_ms "$crwbench_abs" fig11 --trace-out trace.json)
echo "  obs off: ${off_ms} ms   --metrics-out: ${on_ms} ms"
if [ "$off_ms" -gt 0 ] && \
   [ $((on_ms * 100)) -gt $((off_ms * 105)) ]; then
    echo "  WARN --metrics-out overhead exceeds 5% of wall time" >&2
fi
echo "  --trace-out (live replays + timeline, no bound): ${trace_ms} ms"
