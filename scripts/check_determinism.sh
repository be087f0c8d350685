#!/usr/bin/env sh
# Verify that the bench pipeline's output bytes do not depend on how
# it runs. DESIGN.md and the sources cite the parts below by number,
# so the numbers stay fixed (there is no part 2 or 5; the oracle vs
# flat-loop comparison is the tier-1 test
# BatchExecutor.EveryUnitKindMatchesOracleAtAnyJobs):
#
#  1. The parallel sweep runner is deterministic: run bench_fig11
#     serially (--jobs 1) and in parallel (--jobs N), then require
#     every emitted CSV to be byte-for-byte identical. A cached trace
#     is shared between the two runs, so any difference is a
#     scheduling bug in ParallelSweep, not workload noise.
#
#  3. The observability layer honors its determinism contract
#     (DESIGN.md section 10): bench_fig11 --metrics-out output is
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
#     identical to the legacy bench_fig11 wrapper — while the
#     cache.*/replay.points counters prove the warm run replayed
#     nothing. A combined `crw-bench fig11 fig12 fig13` run shares
#     one sweep: its CSVs match three standalone runs byte-for-byte
#     and its replay count equals fig11's alone (fig12 and fig13
#     contribute no new points).
#
#  6. The arena-backed stores (DESIGN.md section 13) are invisible in
#     every output byte: cold, warm and --no-cache runs of
#     `crw-bench fig11 table2` produce byte-identical stdout and
#     CSVs; the warm run replays and predecodes nothing (served
#     entirely from store.crwstore); a warm --trace-out run attaches
#     its flat traces from disk (flat.attach > 0); cold and
#     --no-cache metrics agree once the cache/flat counters (which
#     legitimately record store traffic) are stripped; a concurrent
#     read-only `crw-bench cache` attacher perturbs nothing; and no
#     run leaves a *.metrics file beside store.crwstore.
#
#  7. Lockstep batch replay (DESIGN.md section 14) is semantically
#     invisible: `crw-bench fig11 fig12 fig13 --no-cache` with
#     CRW_REPLAY_BATCH=0 (every point replayed individually) and with
#     the default batching produces byte-identical stdout, CSVs and
#     normalized metrics (minus the replay.batch* counters, which only
#     the batching run records), the batched run agrees with itself at
#     --jobs 1 vs --jobs N, and the counters prove the batched run
#     really replayed lockstep batches while the pinned run replayed
#     none.
#
#  8. The synthetic behavior generator and the policy family
#     (DESIGN.md section 15) are deterministic end to end: `crw-bench
#     synth --no-cache` regenerates byte-identical synth-*.trace
#     files and produces byte-identical CSVs, stdout and normalized
#     metrics across --jobs 1 vs --jobs N and across batched vs
#     CRW_REPLAY_BATCH=0 replay — all five policies included.
#
#  9. The SIMD follower pass (DESIGN.md section 16) is semantically
#     invisible: `crw-bench fig11 fig12 fig13 --no-cache` under
#     CRW_SIMD=scalar (per-lane oracle replay), =sse2 and =avx2
#     (lane-SoA vector kernels; avx2 clamps with a warning on hosts
#     without it) produces byte-identical CSVs, stdout and normalized
#     metrics — minus the replay.simd_path counter, which records the
#     tier itself — and the widest tier agrees with itself at
#     --jobs 1 vs --jobs N. The counters prove each run took the
#     tier it was pinned to.
#
# Usage: scripts/check_determinism.sh [build-dir] [jobs]
#   build-dir  CMake build tree containing bench/ (default: build)
#   jobs       parallel worker count for the second run
#              (default: number of processors, minimum 2)
set -eu

build_dir=${1:-build}
jobs=${2:-$(nproc 2>/dev/null || echo 2)}
[ "$jobs" -ge 2 ] || jobs=2

bench="$build_dir/bench/bench_fig11"
if [ ! -x "$bench" ]; then
    echo "error: $bench not found or not executable." >&2
    echo "Build first: cmake -B $build_dir -S . && \\" >&2
    echo "             cmake --build $build_dir -j" >&2
    exit 2
fi

# bench_out/ is created relative to the working directory; give each
# run its own so the CSVs cannot overwrite each other. The shared
# trace cache is re-captured per run (also deterministic).
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
bench_abs=$(cd "$(dirname "$bench")" && pwd)/$(basename "$bench")

run() {
    # $1: subdir, $2: --jobs value
    mkdir -p "$workdir/$1"
    (cd "$workdir/$1" && "$bench_abs" --jobs "$2" > stdout.txt)
}

echo "== bench_fig11 --jobs 1"
run serial 1
echo "== bench_fig11 --jobs $jobs"
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
     "$bench_abs" --jobs "$2" --metrics-out metrics.json > stdout.txt)
}

# The deterministic view: host section dropped (it is the last JSON
# object, so delete from its opening line to EOF), jobs normalized.
metrics_view() {
    sed -e '/^  "host": {/,$d' \
        -e 's/^    "jobs": "[0-9]*"/    "jobs": "N"/' "$1"
}

echo "== bench_fig11 --jobs 1 --metrics-out (run A)"
run_metrics obs_a 1
echo "== bench_fig11 --jobs 1 --metrics-out (run B)"
run_metrics obs_b 1
echo "== bench_fig11 --jobs $jobs --metrics-out"
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
# each other and to the legacy wrapper — and the cache/replay obs
# counters must prove the warm run replayed nothing and a combined
# run shared its sweep.
crwbench="$build_dir/bench/crw-bench"
if [ ! -x "$crwbench" ]; then
    echo "error: $crwbench not found or not executable." >&2
    exit 2
fi
crwbench_abs=$(cd "$(dirname "$crwbench")" && pwd)/$(basename "$crwbench")

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
        echo "  ok   $label stdout matches the legacy wrapper"
    else
        echo "  FAIL $label stdout differs from the legacy wrapper"
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

# Part 6: the arena-backed stores. One directory runs `crw-bench
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
         "0 predecodes (cold wrote $cold_flat_stores flat arenas)"
else
    echo "  FAIL warm-start counters: hits=$warm_hits" \
         "replays=$warm_replays predecodes=$warm_predecodes" \
         "cold flat stores=$cold_flat_stores"
    status=1
fi

# Warm --trace-out: live replays (timelines need them), but the flat
# arenas must attach, not rebuild.
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
         "arenas, predecoded none"
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

# Part 7: lockstep batch replay. CRW_REPLAY_BATCH=0 pins every cache
# miss to the per-point replay; the default groups misses that
# share a (behavior, scheme, cost model, policy) batch key into one
# lockstep pass per trace. Both must produce the same bytes, and the
# counters must show the batched run actually batched. --no-cache
# keeps every point a live replay; the fig11+fig12+fig13 union is the
# workload the batching was built for (one walk per scheme).
run_batchmode() {
    # $1: subdir, $2: CRW_REPLAY_BATCH value, $3: --jobs value
    mkdir -p "$workdir/$1"
    (cd "$workdir/$1" &&
     CRW_REPLAY_BATCH="$2" "$crwbench_abs" fig11 fig12 fig13 \
         --no-cache --jobs "$3" --metrics-out metrics.json \
         > stdout.txt)
}

echo "== crw-bench fig11 fig12 fig13 --no-cache (CRW_REPLAY_BATCH=0)"
run_batchmode batch_off 0 1
echo "== crw-bench fig11 fig12 fig13 --no-cache (batched)"
run_batchmode batch_on "" 1
echo "== crw-bench fig11 fig12 fig13 --no-cache (batched, --jobs $jobs)"
run_batchmode batch_on_par "" "$jobs"

found=0
for off_csv in "$workdir"/batch_off/bench_out/*.csv; do
    [ -e "$off_csv" ] || break
    found=1
    name=$(basename "$off_csv")
    if cmp -s "$off_csv" "$workdir/batch_on/bench_out/$name" &&
       cmp -s "$off_csv" "$workdir/batch_on_par/bench_out/$name"; then
        echo "  ok   $name identical batched and per-point"
    else
        echo "  FAIL $name differs between batched and per-point replay"
        status=1
    fi
done
if [ "$found" -eq 0 ]; then
    echo "error: the CRW_REPLAY_BATCH=0 run produced no CSVs" >&2
    exit 2
fi
if cmp -s "$workdir/batch_off/stdout.txt" \
          "$workdir/batch_on/stdout.txt" &&
   cmp -s "$workdir/batch_off/stdout.txt" \
          "$workdir/batch_on_par/stdout.txt"; then
    echo "  ok   stdout identical batched and per-point"
else
    echo "  FAIL stdout differs between batched and per-point replay"
    status=1
fi

# Only batched runs record the replay.batch* counters — and
# replay.simd_path, which only the batched follower pass records;
# strip both for the batched-vs-per-point views. The batched runs keep
# them: across job counts they must agree. Stripping a counter that
# happened to be last in its block leaves the new last line with a
# now-spurious trailing comma, so the views drop counter-line commas
# before comparing.
strip_batch_counters() {
    metrics_view "$1" | grep -v '^    "replay\.batch' |
        grep -v '^    "replay\.simd' | sed 's/,$//'
}
strip_batch_counters "$workdir/batch_off/metrics.json" \
    > "$workdir/batch_off.view"
strip_batch_counters "$workdir/batch_on/metrics.json" \
    > "$workdir/batch_on.view"
metrics_view "$workdir/batch_on/metrics.json" \
    > "$workdir/batch_on_full.view"
metrics_view "$workdir/batch_on_par/metrics.json" \
    > "$workdir/batch_on_par.view"
if cmp -s "$workdir/batch_off.view" "$workdir/batch_on.view"; then
    echo "  ok   metrics identical batched and per-point (minus" \
         "replay.batch* counters)"
else
    echo "  FAIL metrics differ between batched and per-point replay"
    status=1
fi
if cmp -s "$workdir/batch_on_full.view" "$workdir/batch_on_par.view"; then
    echo "  ok   batched metrics identical at --jobs 1 and --jobs $jobs"
else
    echo "  FAIL batched metrics differ between --jobs 1 and --jobs $jobs"
    status=1
fi

off_batches=$(counter "$workdir/batch_off/metrics.json" \
    "replay.batches")
on_batches=$(counter "$workdir/batch_on/metrics.json" "replay.batches")
on_lanes=$(counter "$workdir/batch_on/metrics.json" \
    "replay.batched_points")
on_width=$(counter "$workdir/batch_on/metrics.json" \
    "replay.batch_width")
off_points=$(counter "$workdir/batch_off/metrics.json" "replay.points")
on_points=$(counter "$workdir/batch_on/metrics.json" "replay.points")
if [ "$off_batches" -eq 0 ] && [ "$on_batches" -gt 0 ] &&
   [ "$on_lanes" -gt 0 ] && [ "$on_width" -gt 1 ] &&
   [ "$on_points" -eq "$off_points" ]; then
    echo "  ok   batched run: $on_batches batches, $on_lanes lanes" \
         "(width <= $on_width) over the same $on_points points"
else
    echo "  FAIL batch counters: off batches=$off_batches" \
         "on batches=$on_batches lanes=$on_lanes width=$on_width" \
         "points $off_points vs $on_points"
    status=1
fi

# Part 8: the policy family and the synthetic behavior generator.
# `crw-bench synth` sweeps generated behaviors x schemes x windows x
# all five scheduling policies; the generator is a pure function of
# its seeded spec, so the emitted trace files, every sweep CSV and
# the normalized metrics must be byte-identical across --jobs 1 vs
# --jobs N and across batched vs CRW_REPLAY_BATCH=0 replay. The
# batched run mixes the residency-blind policies (FIFO/RR/PRI), which
# batch under every scheme, with the working-set family, which the
# static batch rule batches under NS and replays one lane at a time
# under SNP/SP — both halves of the rule against the pinned
# per-point baseline.
run_synth() {
    # $1: subdir, $2: CRW_REPLAY_BATCH value, $3: --jobs value
    mkdir -p "$workdir/$1"
    (cd "$workdir/$1" &&
     CRW_REPLAY_BATCH="$2" "$crwbench_abs" synth --no-cache \
         --jobs "$3" --metrics-out metrics.json > stdout.txt)
}

echo "== crw-bench synth --no-cache (--jobs 1)"
run_synth synth_serial "" 1
echo "== crw-bench synth --no-cache (--jobs $jobs)"
run_synth synth_par "" "$jobs"
echo "== crw-bench synth --no-cache (CRW_REPLAY_BATCH=0)"
run_synth synth_nobatch 0 1

found=0
for trace in "$workdir"/synth_serial/bench_out/traces/synth-*.trace; do
    [ -e "$trace" ] || break
    found=1
    name=$(basename "$trace")
    if cmp -s "$trace" \
              "$workdir/synth_par/bench_out/traces/$name" &&
       cmp -s "$trace" \
              "$workdir/synth_nobatch/bench_out/traces/$name"; then
        echo "  ok   $name regenerated byte-identical in every run"
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
    if cmp -s "$serial_csv" "$workdir/synth_par/bench_out/$name" &&
       cmp -s "$serial_csv" \
              "$workdir/synth_nobatch/bench_out/$name"; then
        echo "  ok   $name identical across jobs and batch modes"
    else
        echo "  FAIL $name differs across jobs or batch modes"
        status=1
    fi
done
if [ "$found" -eq 0 ]; then
    echo "error: the synth run produced no CSVs" >&2
    exit 2
fi
if cmp -s "$workdir/synth_serial/stdout.txt" \
          "$workdir/synth_par/stdout.txt" &&
   cmp -s "$workdir/synth_serial/stdout.txt" \
          "$workdir/synth_nobatch/stdout.txt"; then
    echo "  ok   synth stdout identical across jobs and batch modes"
else
    echo "  FAIL synth stdout differs across jobs or batch modes"
    status=1
fi

metrics_view "$workdir/synth_serial/metrics.json" \
    > "$workdir/synth_serial.view"
metrics_view "$workdir/synth_par/metrics.json" \
    > "$workdir/synth_par.view"
strip_batch_counters "$workdir/synth_serial/metrics.json" \
    > "$workdir/synth_serial_nb.view"
strip_batch_counters "$workdir/synth_nobatch/metrics.json" \
    > "$workdir/synth_nobatch.view"
if cmp -s "$workdir/synth_serial.view" "$workdir/synth_par.view"; then
    echo "  ok   synth metrics identical at --jobs 1 and --jobs $jobs"
else
    echo "  FAIL synth metrics differ between --jobs 1 and --jobs $jobs"
    status=1
fi
if cmp -s "$workdir/synth_serial_nb.view" \
          "$workdir/synth_nobatch.view"; then
    echo "  ok   synth metrics identical batched and per-point (minus" \
         "replay.batch* counters)"
else
    echo "  FAIL synth metrics differ between batched and per-point" \
         "replay"
    status=1
fi

# Part 9: the SIMD follower pass. CRW_SIMD pins the batched follower
# replay to one dispatch tier: `scalar` is the per-lane oracle, the
# named vector tiers run the lane-SoA pass for NS/INF batches (the
# sharing schemes replay per lane on every tier). Every tier must
# produce the same bytes —
# the tier may only change host wall time. The replay.simd_path
# counter records the tier taken, so it is stripped from the
# cross-tier metrics view and then used to prove each run really ran
# its pinned tier (scalar=0, sse2=1, avx2=2; avx2 clamps to the
# host's widest tier, so it is only required to be >= sse2).
run_simd() {
    # $1: subdir, $2: CRW_SIMD value, $3: --jobs value
    mkdir -p "$workdir/$1"
    (cd "$workdir/$1" &&
     CRW_SIMD="$2" "$crwbench_abs" fig11 fig12 fig13 --no-cache \
         --jobs "$3" --metrics-out metrics.json > stdout.txt)
}

echo "== crw-bench fig11 fig12 fig13 --no-cache (CRW_SIMD=scalar)"
run_simd simd_scalar scalar 1
echo "== crw-bench fig11 fig12 fig13 --no-cache (CRW_SIMD=sse2)"
run_simd simd_sse2 sse2 1
echo "== crw-bench fig11 fig12 fig13 --no-cache (CRW_SIMD=avx2)"
run_simd simd_avx2 avx2 1
echo "== crw-bench fig11 fig12 fig13 --no-cache (CRW_SIMD=avx2," \
     "--jobs $jobs)"
run_simd simd_avx2_par avx2 "$jobs"

found=0
for scalar_csv in "$workdir"/simd_scalar/bench_out/*.csv; do
    [ -e "$scalar_csv" ] || break
    found=1
    name=$(basename "$scalar_csv")
    if cmp -s "$scalar_csv" "$workdir/simd_sse2/bench_out/$name" &&
       cmp -s "$scalar_csv" "$workdir/simd_avx2/bench_out/$name" &&
       cmp -s "$scalar_csv" "$workdir/simd_avx2_par/bench_out/$name"; then
        echo "  ok   $name identical across every simd tier"
    else
        echo "  FAIL $name differs between simd tiers or job counts"
        status=1
    fi
done
if [ "$found" -eq 0 ]; then
    echo "error: the CRW_SIMD=scalar run produced no CSVs" >&2
    exit 2
fi
if cmp -s "$workdir/simd_scalar/stdout.txt" \
          "$workdir/simd_sse2/stdout.txt" &&
   cmp -s "$workdir/simd_scalar/stdout.txt" \
          "$workdir/simd_avx2/stdout.txt" &&
   cmp -s "$workdir/simd_scalar/stdout.txt" \
          "$workdir/simd_avx2_par/stdout.txt"; then
    echo "  ok   stdout identical across every simd tier"
else
    echo "  FAIL stdout differs between simd tiers or job counts"
    status=1
fi

strip_simd_counters() {
    metrics_view "$1" | grep -v '^    "replay\.simd' | sed 's/,$//'
}
strip_simd_counters "$workdir/simd_scalar/metrics.json" \
    > "$workdir/simd_scalar.view"
strip_simd_counters "$workdir/simd_sse2/metrics.json" \
    > "$workdir/simd_sse2.view"
strip_simd_counters "$workdir/simd_avx2/metrics.json" \
    > "$workdir/simd_avx2.view"
metrics_view "$workdir/simd_avx2/metrics.json" \
    > "$workdir/simd_avx2_full.view"
metrics_view "$workdir/simd_avx2_par/metrics.json" \
    > "$workdir/simd_avx2_par.view"
if cmp -s "$workdir/simd_scalar.view" "$workdir/simd_sse2.view" &&
   cmp -s "$workdir/simd_scalar.view" "$workdir/simd_avx2.view"; then
    echo "  ok   metrics identical across simd tiers (minus" \
         "replay.simd_path)"
else
    echo "  FAIL metrics differ between simd tiers"
    status=1
fi
if cmp -s "$workdir/simd_avx2_full.view" \
          "$workdir/simd_avx2_par.view"; then
    echo "  ok   widest-tier metrics identical at --jobs 1 and" \
         "--jobs $jobs"
else
    echo "  FAIL widest-tier metrics differ between --jobs 1 and" \
         "--jobs $jobs"
    status=1
fi

scalar_tier=$(counter "$workdir/simd_scalar/metrics.json" \
    "replay.simd_path")
sse2_tier=$(counter "$workdir/simd_sse2/metrics.json" \
    "replay.simd_path")
avx2_tier=$(counter "$workdir/simd_avx2/metrics.json" \
    "replay.simd_path")
if [ "$scalar_tier" -eq 0 ] && [ "$sse2_tier" -eq 1 ] &&
   [ "$avx2_tier" -ge 1 ]; then
    echo "  ok   simd_path counters: scalar=$scalar_tier" \
         "sse2=$sse2_tier avx2=$avx2_tier"
else
    echo "  FAIL simd_path counters: scalar=$scalar_tier" \
         "sse2=$sse2_tier avx2=$avx2_tier"
    status=1
fi

# Batching follows a static (scheme, policy) rule, so no batch can
# diverge and fall back to per-point replay: no run of parts 7-9 may
# count a replay.batch_fallback.
fallback_runs=""
for run in batch_off batch_on batch_on_par synth_serial synth_par \
           synth_nobatch simd_scalar simd_sse2 simd_avx2 simd_avx2_par; do
    n=$(counter "$workdir/$run/metrics.json" "replay.batch_fallback")
    [ "$n" -eq 0 ] || fallback_runs="$fallback_runs $run=$n"
done
if [ -z "$fallback_runs" ]; then
    echo "  ok   no batch fell back to per-point replay in parts 7-9"
else
    echo "  FAIL replay.batch_fallback counted in:$fallback_runs"
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "determinism check passed: identical output at --jobs 1 and" \
         "--jobs $jobs, with observability on and off," \
         "with the result cache cold," \
         "warm, shared and disabled, with the arena stores cold," \
         "warm, bypassed" \
         "and concurrently attached, with lockstep batch replay" \
         "on and off, with the synthetic policy sweep across" \
         "job counts and batch modes, and with the follower replay" \
         "pinned to every simd tier"
else
    echo "determinism check FAILED" >&2
fi
exit "$status"
