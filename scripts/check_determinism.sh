#!/usr/bin/env sh
# Verify that the bench pipeline's output bytes do not depend on how
# it runs. DESIGN.md and the sources cite the parts below by number,
# so the numbers stay fixed. There is no part 2, 5, 7 or 9: the
# replay shape — oracle vs flat loop, lockstep batch width, follower
# SIMD tier — is pinned in-process by the tier-1 replay net,
# tests/bench/test_replay_net.cc.
#
#  1. The parallel sweep runner is deterministic: run `crw-bench
#     fig11` serially (--jobs 1) and in parallel (--jobs N), then
#     require every emitted CSV to be byte-for-byte identical. A cached trace
#     is shared between the two runs, so any difference is a
#     scheduling bug in ParallelSweep, not workload noise.
#
#  3. The observability layer honors its determinism contract
#     (DESIGN.md section 10): `crw-bench fig11 --metrics-out` output is
#     byte-identical across repeated runs and across --jobs 1 vs
#     --jobs N, once the wall-clock-valued "host" section and the
#     "jobs" manifest line (the two documented exceptions) are
#     stripped. And turning the flag on must not perturb the primary
#     outputs: CSVs and stdout stay identical to the obs-off runs of
#     part 1.
#
#  4. The point-result cache is invisible in every output byte: a
#     cold-cache run, a warm-cache rerun and a --no-cache run of
#     `crw-bench fig11` produce byte-identical stdout and CSVs — and
#     identical to part 1's serial run — while the cache.* and
#     replay.points counters prove the warm run replayed nothing. A combined `crw-bench fig11 fig12 fig13` run shares
#     one sweep: its CSVs match three standalone runs byte-for-byte
#     and its replay count equals fig11's alone (fig12 and fig13
#     contribute no new points).
#
#  6. The on-disk stores (DESIGN.md section 13) are invisible in
#     every output byte: cold, warm and --no-cache runs of
#     `crw-bench fig11 table2` produce byte-identical stdout and
#     CSVs; the warm run replays and predecodes nothing (served
#     entirely from store.crwstore); a warm --trace-out run attaches
#     its flat traces from disk (flat.attach > 0); cold and
#     --no-cache metrics agree once the cache/flat counters (which
#     legitimately record store traffic) are stripped; a concurrent
#     read-only `crw-bench cache` attacher perturbs nothing; two cold
#     `crw-bench fig11` processes sharing one directory both succeed
#     with no store warning, and a warm --trace-out run there attaches
#     every flat file they wrote; and no run leaves a *.metrics file
#     beside store.crwstore.
#
#  8. The synthetic behavior generator and the policy family
#     (DESIGN.md section 15) are deterministic end to end: `crw-bench
#     synth --no-cache` regenerates byte-identical synth-*.trace
#     files and produces byte-identical CSVs, stdout and normalized
#     metrics across --jobs 1 vs --jobs N — all five policies
#     included.
#
# Usage: scripts/check_determinism.sh [build-dir] [jobs]
#   build-dir  CMake build tree containing bench/ (default: build)
#   jobs       parallel worker count for the second run
#              (default: number of processors, minimum 2)
set -eu

build_dir=${1:-build}
jobs=${2:-$(nproc 2>/dev/null || echo 2)}
[ "$jobs" -ge 2 ] || jobs=2

crwbench="$build_dir/bench/crw-bench"
if [ ! -x "$crwbench" ]; then
    echo "error: $crwbench not found or not executable." >&2
    echo "Build first: cmake -B $build_dir -S . && \\" >&2
    echo "             cmake --build $build_dir -j" >&2
    exit 2
fi

# bench_out/ is created relative to the working directory; give each
# run its own so the CSVs cannot overwrite each other. The shared
# trace cache is re-captured per run (also deterministic).
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
crwbench_abs=$(cd "$(dirname "$crwbench")" && pwd)/$(basename "$crwbench")

run() {
    # $1: subdir, $2: --jobs value
    mkdir -p "$workdir/$1"
    (cd "$workdir/$1" &&
     "$crwbench_abs" fig11 --jobs "$2" > stdout.txt)
}

echo "== crw-bench fig11 --jobs 1"
run serial 1
echo "== crw-bench fig11 --jobs $jobs"
run parallel "$jobs"

status=0
found=0
for serial_csv in "$workdir"/serial/bench_out/*.csv; do
    [ -e "$serial_csv" ] || break
    found=1
    name=$(basename "$serial_csv")
    parallel_csv="$workdir/parallel/bench_out/$name"
    if cmp -s "$serial_csv" "$parallel_csv"; then
        echo "  ok   $name"
    else
        echo "  FAIL $name differs between --jobs 1 and --jobs $jobs"
        status=1
    fi
done
if [ "$found" -eq 0 ]; then
    echo "error: the serial run produced no CSVs" >&2
    exit 2
fi

if ! cmp -s "$workdir/serial/stdout.txt" \
            "$workdir/parallel/stdout.txt"; then
    echo "  FAIL stdout differs between --jobs 1 and --jobs $jobs"
    status=1
fi

# Part 3: the observability layer's determinism contract. Everything
# outside the "host" JSON section must be byte-identical across
# repeated runs and across worker counts; the "jobs" manifest field
# legitimately records the worker count, so it is normalized before
# comparing. The CSVs and stdout of an obs-on run must also match the
# obs-off runs from part 1 exactly — observing a run may never change
# its result.
run_metrics() {
    # $1: subdir, $2: --jobs value
    mkdir -p "$workdir/$1"
    (cd "$workdir/$1" &&
     "$crwbench_abs" fig11 --jobs "$2" --metrics-out metrics.json \
         > stdout.txt)
}

# The deterministic view: host section dropped (it is the last JSON
# object, so delete from its opening line to EOF), jobs normalized.
metrics_view() {
    sed -e '/^  "host": {/,$d' \
        -e 's/^    "jobs": "[0-9]*"/    "jobs": "N"/' "$1"
}

echo "== crw-bench fig11 --jobs 1 --metrics-out (run A)"
run_metrics obs_a 1
echo "== crw-bench fig11 --jobs 1 --metrics-out (run B)"
run_metrics obs_b 1
echo "== crw-bench fig11 --jobs $jobs --metrics-out"
run_metrics obs_par "$jobs"

for m in obs_a obs_b obs_par; do
    if [ ! -s "$workdir/$m/metrics.json" ]; then
        echo "error: $m produced no metrics.json" >&2
        exit 2
    fi
done

metrics_view "$workdir/obs_a/metrics.json" > "$workdir/a.view"
metrics_view "$workdir/obs_b/metrics.json" > "$workdir/b.view"
metrics_view "$workdir/obs_par/metrics.json" > "$workdir/p.view"

if cmp -s "$workdir/a.view" "$workdir/b.view"; then
    echo "  ok   metrics.json identical across repeated runs"
else
    echo "  FAIL metrics.json differs between two --jobs 1 runs"
    status=1
fi
if cmp -s "$workdir/a.view" "$workdir/p.view"; then
    echo "  ok   metrics.json identical at --jobs 1 and --jobs $jobs"
else
    echo "  FAIL metrics.json differs between --jobs 1 and --jobs $jobs"
    status=1
fi

for serial_csv in "$workdir"/serial/bench_out/*.csv; do
    [ -e "$serial_csv" ] || break
    name=$(basename "$serial_csv")
    if cmp -s "$serial_csv" "$workdir/obs_a/bench_out/$name"; then
        echo "  ok   $name unchanged by --metrics-out"
    else
        echo "  FAIL $name changed when --metrics-out was given"
        status=1
    fi
done
if cmp -s "$workdir/serial/stdout.txt" "$workdir/obs_a/stdout.txt"; then
    echo "  ok   stdout unchanged by --metrics-out"
else
    echo "  FAIL stdout changed when --metrics-out was given"
    status=1
fi

# Part 4: the point-result cache. The cached sweep must be invisible
# in every output byte — cold, warm and --no-cache runs identical to
# each other and to part 1's serial run — and the cache/replay obs
# counters must prove the warm run replayed nothing and a combined
# run shared its sweep.

# "name": N in a metrics.json, 0 when the counter never fired.
counter() {
    v=$(grep -o "\"$2\": [0-9]*" "$1" | head -n1 | sed 's/.*: //' \
        || true)
    echo "${v:-0}"
}

echo "== crw-bench fig11 (cold cache)"
mkdir -p "$workdir/cache"
(cd "$workdir/cache" &&
 "$crwbench_abs" fig11 --metrics-out cold.json > stdout_cold.txt)
echo "== crw-bench fig11 (warm cache)"
(cd "$workdir/cache" &&
 "$crwbench_abs" fig11 --metrics-out warm.json > stdout_warm.txt)
echo "== crw-bench fig11 --no-cache"
mkdir -p "$workdir/nocache"
(cd "$workdir/nocache" &&
 "$crwbench_abs" fig11 --no-cache > stdout.txt)

for pair in "cache/stdout_cold.txt cold-cache" \
            "cache/stdout_warm.txt warm-cache" \
            "nocache/stdout.txt no-cache"; do
    f=${pair%% *}
    label=${pair#* }
    if cmp -s "$workdir/serial/stdout.txt" "$workdir/$f"; then
        echo "  ok   $label stdout matches the serial run"
    else
        echo "  FAIL $label stdout differs from the serial run"
        status=1
    fi
done
for serial_csv in "$workdir"/serial/bench_out/*.csv; do
    [ -e "$serial_csv" ] || break
    name=$(basename "$serial_csv")
    if cmp -s "$serial_csv" "$workdir/cache/bench_out/$name" &&
       cmp -s "$serial_csv" "$workdir/nocache/bench_out/$name"; then
        echo "  ok   $name identical cold, warm and --no-cache"
    else
        echo "  FAIL $name differs across cache states"
        status=1
    fi
done

cold_replays=$(counter "$workdir/cache/cold.json" "replay.points")
warm_replays=$(counter "$workdir/cache/warm.json" "replay.points")
cold_stores=$(counter "$workdir/cache/cold.json" "cache.store")
warm_hits=$(counter "$workdir/cache/warm.json" "cache.hit")
if [ "$cold_replays" -gt 0 ] && [ "$warm_replays" -eq 0 ] &&
   [ "$warm_hits" -eq "$cold_stores" ]; then
    echo "  ok   warm cache: 0 replays, $warm_hits hits" \
         "(cold: $cold_replays replays)"
else
    echo "  FAIL cache counters: cold replays=$cold_replays" \
         "stores=$cold_stores, warm replays=$warm_replays" \
         "hits=$warm_hits"
    status=1
fi

echo "== crw-bench fig11 fig12 fig13 (one shared sweep)"
mkdir -p "$workdir/combo" "$workdir/f12" "$workdir/f13"
(cd "$workdir/combo" &&
 "$crwbench_abs" fig11 fig12 fig13 --metrics-out combo.json \
     > stdout.txt)
(cd "$workdir/f12" && "$crwbench_abs" fig12 > stdout.txt)
(cd "$workdir/f13" && "$crwbench_abs" fig13 > stdout.txt)

for spec in "fig11 serial" "fig12 f12" "fig13 f13"; do
    fig=${spec%% *}
    dir=${spec#* }
    for combo_csv in "$workdir/combo/bench_out/$fig"_*.csv; do
        [ -e "$combo_csv" ] || break
        name=$(basename "$combo_csv")
        if cmp -s "$combo_csv" "$workdir/$dir/bench_out/$name"; then
            echo "  ok   $name matches the standalone run"
        else
            echo "  FAIL $name differs from the standalone run"
            status=1
        fi
    done
done

combo_replays=$(counter "$workdir/combo/combo.json" "replay.points")
if [ "$combo_replays" -eq "$cold_replays" ]; then
    echo "  ok   combined run replayed $combo_replays points —" \
         "exactly fig11's own sweep, shared three ways"
else
    echo "  FAIL combined run replayed $combo_replays points," \
         "fig11 alone replayed $cold_replays"
    status=1
fi

# Part 6: the on-disk stores. One directory runs `crw-bench
# fig11 table2` cold (populating bench_out/flat/ and
# bench_out/results/store.crwstore), then warm (everything must come
# from the stores: zero replays, zero predecodes), then warm with
# --trace-out (the result cache is off for timelines, so the replays
# come back — but the flat traces must attach from disk, not
# re-predecode). A --no-cache run bypasses both stores and must still
# produce the same bytes; its metrics agree with the cold run's once
# the store-traffic counters (cache.*, flat.*) are stripped. Finally
# the cold run is repeated with a concurrent read-only `crw-bench
# cache` attacher hammering the live store — same bytes again.
echo "== crw-bench fig11 table2 (cold stores)"
mkdir -p "$workdir/store" "$workdir/store_nocache"
(cd "$workdir/store" &&
 "$crwbench_abs" fig11 table2 --metrics-out cold.json \
     > stdout_cold.txt)
echo "== crw-bench fig11 table2 (warm stores)"
(cd "$workdir/store" &&
 "$crwbench_abs" fig11 table2 --metrics-out warm.json \
     > stdout_warm.txt)
echo "== crw-bench fig11 table2 --no-cache"
(cd "$workdir/store_nocache" &&
 "$crwbench_abs" fig11 table2 --no-cache --metrics-out nocache.json \
     > stdout.txt)

if cmp -s "$workdir/store/stdout_cold.txt" \
          "$workdir/store/stdout_warm.txt" &&
   cmp -s "$workdir/store/stdout_cold.txt" \
          "$workdir/store_nocache/stdout.txt"; then
    echo "  ok   stdout identical cold, warm and --no-cache"
else
    echo "  FAIL stdout differs across store states"
    status=1
fi
found=0
for cold_csv in "$workdir"/store/bench_out/*.csv; do
    [ -e "$cold_csv" ] || break
    found=1
    name=$(basename "$cold_csv")
    if cmp -s "$cold_csv" "$workdir/store_nocache/bench_out/$name"; then
        echo "  ok   $name identical with the stores bypassed"
    else
        echo "  FAIL $name differs under --no-cache"
        status=1
    fi
done
if [ "$found" -eq 0 ]; then
    echo "error: the cold store run produced no CSVs" >&2
    exit 2
fi

warm_replays=$(counter "$workdir/store/warm.json" "replay.points")
warm_predecodes=$(counter "$workdir/store/warm.json" "flat.predecode")
warm_hits=$(counter "$workdir/store/warm.json" "cache.hit")
cold_flat_stores=$(counter "$workdir/store/cold.json" "flat.store")
if [ "$warm_replays" -eq 0 ] && [ "$warm_predecodes" -eq 0 ] &&
   [ "$warm_hits" -gt 0 ] && [ "$cold_flat_stores" -gt 0 ]; then
    echo "  ok   warm start: $warm_hits hits, 0 replays," \
         "0 predecodes (cold wrote $cold_flat_stores flat files)"
else
    echo "  FAIL warm-start counters: hits=$warm_hits" \
         "replays=$warm_replays predecodes=$warm_predecodes" \
         "cold flat stores=$cold_flat_stores"
    status=1
fi

# Warm --trace-out: live replays (timelines need them), but the flat
# files must attach, not rebuild.
echo "== crw-bench fig11 table2 --trace-out (warm flat store)"
(cd "$workdir/store" &&
 "$crwbench_abs" fig11 table2 --trace-out trace.json \
     --metrics-out trace_metrics.json > stdout_trace.txt)
trace_attaches=$(counter "$workdir/store/trace_metrics.json" \
    "flat.attach")
trace_predecodes=$(counter "$workdir/store/trace_metrics.json" \
    "flat.predecode")
if [ "$trace_attaches" -gt 0 ] && [ "$trace_predecodes" -eq 0 ]; then
    echo "  ok   --trace-out run attached $trace_attaches flat" \
         "files, predecoded none"
else
    echo "  FAIL --trace-out run: attaches=$trace_attaches" \
         "predecodes=$trace_predecodes"
    status=1
fi
if cmp -s "$workdir/store/stdout_cold.txt" \
          "$workdir/store/stdout_trace.txt"; then
    echo "  ok   stdout unchanged by --trace-out"
else
    echo "  FAIL stdout changed when --trace-out was given"
    status=1
fi

# Cold vs --no-cache metrics: identical but for the store-traffic
# counters themselves.
strip_store_counters() {
    metrics_view "$1" | grep -v '^    "cache\.' |
        grep -v '^    "flat\.'
}
strip_store_counters "$workdir/store/cold.json" > "$workdir/cold.sview"
strip_store_counters "$workdir/store_nocache/nocache.json" \
    > "$workdir/nocache.sview"
if cmp -s "$workdir/cold.sview" "$workdir/nocache.sview"; then
    echo "  ok   metrics identical cold vs --no-cache (minus" \
         "cache/flat counters)"
else
    echo "  FAIL metrics differ between cold and --no-cache runs"
    status=1
fi

# Concurrent read-only attacher: `crw-bench cache` loops against the
# live store while a fresh cold run executes. The attacher must
# always exit 0 (reader mode, never a crash or a torn read) and the
# observed run must produce the same bytes as the first cold run.
echo "== crw-bench fig11 table2 with a concurrent cache attacher"
mkdir -p "$workdir/store_observed"
(cd "$workdir/store_observed" &&
 "$crwbench_abs" fig11 table2 > stdout.txt) &
bench_pid=$!
attacher_rc=0
while kill -0 "$bench_pid" 2>/dev/null; do
    (cd "$workdir/store_observed" &&
     "$crwbench_abs" cache > /dev/null 2>&1) || attacher_rc=1
done
wait "$bench_pid" || {
    echo "  FAIL observed bench run exited non-zero"
    status=1
}
if [ "$attacher_rc" -eq 0 ]; then
    echo "  ok   concurrent cache attacher always exited cleanly"
else
    echo "  FAIL a concurrent cache attacher invocation failed"
    status=1
fi
if cmp -s "$workdir/store/stdout_cold.txt" \
          "$workdir/store_observed/stdout.txt"; then
    echo "  ok   observed run's stdout identical to the cold run"
else
    echo "  FAIL concurrent attacher perturbed the bench output"
    status=1
fi
for cold_csv in "$workdir"/store/bench_out/*.csv; do
    [ -e "$cold_csv" ] || break
    name=$(basename "$cold_csv")
    if cmp -s "$cold_csv" "$workdir/store_observed/bench_out/$name"; then
        echo "  ok   $name identical under concurrent attach"
    else
        echo "  FAIL $name differs under concurrent attach"
        status=1
    fi
done
# Two cold benches in one directory race on every file they write:
# the trace and flat-trace saves (each through a temp file of its
# own, then a rename) and the result store's writer election. Both
# must succeed with the serial run's bytes and without a store
# warning, and what they leave must attach: a warm --trace-out run
# replays every point over flat files it attaches, never predecodes.
echo "== two concurrent cold crw-bench fig11 runs in one directory"
mkdir -p "$workdir/store_twin"
(cd "$workdir/store_twin" &&
 "$crwbench_abs" fig11 > stdout_a.txt 2> stderr_a.txt) &
twin_a=$!
(cd "$workdir/store_twin" &&
 "$crwbench_abs" fig11 > stdout_b.txt 2> stderr_b.txt) &
twin_b=$!
twin_rc=0
wait "$twin_a" || twin_rc=1
wait "$twin_b" || twin_rc=1
if [ "$twin_rc" -eq 0 ]; then
    echo "  ok   both concurrent cold runs exited 0"
else
    echo "  FAIL a concurrent cold run exited non-zero"
    status=1
fi
if grep -q 'could not \(store\|cache\)' \
        "$workdir/store_twin/stderr_a.txt" \
        "$workdir/store_twin/stderr_b.txt"; then
    echo "  FAIL a concurrent cold run could not write a store file:"
    grep -h 'could not' "$workdir"/store_twin/stderr_*.txt | sed 's/^/       /'
    status=1
else
    echo "  ok   no store warning from either concurrent cold run"
fi
if cmp -s "$workdir/serial/stdout.txt" "$workdir/store_twin/stdout_a.txt" &&
   cmp -s "$workdir/serial/stdout.txt" "$workdir/store_twin/stdout_b.txt"
then
    echo "  ok   both concurrent cold runs print the serial stdout"
else
    echo "  FAIL a concurrent cold run's stdout differs from --jobs 1"
    status=1
fi
(cd "$workdir/store_twin" &&
 "$crwbench_abs" fig11 --trace-out trace.json \
     --metrics-out trace_metrics.json > /dev/null)
twin_files=$(find "$workdir/store_twin/bench_out/flat" -name '*.flat' |
    wc -l)
twin_attaches=$(counter "$workdir/store_twin/trace_metrics.json" \
    "flat.attach")
twin_predecodes=$(counter "$workdir/store_twin/trace_metrics.json" \
    "flat.predecode")
if [ "$twin_files" -gt 0 ] && [ "$twin_attaches" -eq "$twin_files" ] &&
   [ "$twin_predecodes" -eq 0 ]; then
    echo "  ok   warm --trace-out attached all $twin_files flat files" \
         "the concurrent runs left, predecoded none"
else
    echo "  FAIL after the concurrent runs: files=$twin_files" \
         "attaches=$twin_attaches predecodes=$twin_predecodes"
    status=1
fi

# The store is the only result container, even for a bench that lost
# the writer election to an attacher: no part-6 run may leave a
# per-point file under its bench_out/results/.
stray=$(find "$workdir"/store*/bench_out/results -name '*.metrics' \
    2>/dev/null | wc -l)
if [ "$stray" -eq 0 ]; then
    echo "  ok   no *.metrics file beside the result store"
else
    echo "  FAIL $stray *.metrics files under part-6 bench_out/results"
    status=1
fi

# Part 8: the policy family and the synthetic behavior generator.
# `crw-bench synth` sweeps generated behaviors x schemes x windows x
# all five scheduling policies; the generator is a pure function of
# its seeded spec, so the emitted trace files, every sweep CSV and
# the normalized metrics must be byte-identical across --jobs 1 vs
# --jobs N. The runs mix the residency-blind policies (FIFO/RR/PRI),
# which batch under every scheme, with the working-set family, which
# the static batch rule batches under NS and replays one lane at a
# time under SNP/SP.
run_synth() {
    # $1: subdir, $2: --jobs value
    mkdir -p "$workdir/$1"
    (cd "$workdir/$1" &&
     "$crwbench_abs" synth --no-cache --jobs "$2" \
         --metrics-out metrics.json > stdout.txt)
}

echo "== crw-bench synth --no-cache (--jobs 1)"
run_synth synth_serial 1
echo "== crw-bench synth --no-cache (--jobs $jobs)"
run_synth synth_par "$jobs"

found=0
for trace in "$workdir"/synth_serial/bench_out/traces/synth-*.trace; do
    [ -e "$trace" ] || break
    found=1
    name=$(basename "$trace")
    if cmp -s "$trace" \
              "$workdir/synth_par/bench_out/traces/$name"; then
        echo "  ok   $name regenerated byte-identical in both runs"
    else
        echo "  FAIL $name differs between generator runs"
        status=1
    fi
done
if [ "$found" -eq 0 ]; then
    echo "error: the synth run generated no trace files" >&2
    exit 2
fi

found=0
for serial_csv in "$workdir"/synth_serial/bench_out/*.csv; do
    [ -e "$serial_csv" ] || break
    found=1
    name=$(basename "$serial_csv")
    if cmp -s "$serial_csv" "$workdir/synth_par/bench_out/$name"; then
        echo "  ok   $name identical at --jobs 1 and --jobs $jobs"
    else
        echo "  FAIL $name differs between --jobs 1 and --jobs $jobs"
        status=1
    fi
done
if [ "$found" -eq 0 ]; then
    echo "error: the synth run produced no CSVs" >&2
    exit 2
fi
if cmp -s "$workdir/synth_serial/stdout.txt" \
          "$workdir/synth_par/stdout.txt"; then
    echo "  ok   synth stdout identical at --jobs 1 and --jobs $jobs"
else
    echo "  FAIL synth stdout differs between --jobs 1 and --jobs $jobs"
    status=1
fi

metrics_view "$workdir/synth_serial/metrics.json" \
    > "$workdir/synth_serial.view"
metrics_view "$workdir/synth_par/metrics.json" \
    > "$workdir/synth_par.view"
if cmp -s "$workdir/synth_serial.view" "$workdir/synth_par.view"; then
    echo "  ok   synth metrics identical at --jobs 1 and --jobs $jobs"
else
    echo "  FAIL synth metrics differ between --jobs 1 and --jobs $jobs"
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "determinism check passed: identical output at --jobs 1 and" \
         "--jobs $jobs, with observability on and off," \
         "with the result cache cold," \
         "warm, shared and disabled, with the on-disk stores cold," \
         "warm, bypassed, concurrently attached" \
         "and concurrently written, and with the synthetic policy" \
         "sweep across job counts"
else
    echo "determinism check FAILED" >&2
fi
exit "$status"
