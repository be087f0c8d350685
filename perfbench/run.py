#!/usr/bin/env python3
"""The crw benchmark: the `crw-bench all` plan in three store states.

    python3 perfbench/run.py --workload cold|warm|nocache --seed N \\
        --seconds S --trace 0|1

Run from the repository root. The first run builds the repository's
libraries, crw-bench and the two benchmark drivers into
.bench_build/perfbench; every run works in .bench_runs/ and removes it.

One run:
  1. reference pass: an untimed cold driver pass with --metrics-out.
     Its stdout and bench_out/*.csv are the paper output; its metrics
     give the sim_digest; its bench_out/ is the primed store.
  2. fidelity: `crw-bench all --no-cache` over the reference pass's
     traces must print the same paper output, byte for byte.
  3. state check: one untimed pass in the workload's state with
     --metrics-out; its counters must show that state (a warm pass
     that replays, or a cold one that stores fewer than all points,
     fails the run).
  4. samples for --seconds: each a fresh driver process in its own
     working directory (the executor's memos are process-global and
     bench_out/ is cwd-relative), one at a time (a closed loop, one
     client). Every sample's paper output must equal the reference.
     With --trace 1 an untraced and a traced sample alternate; the
     traced driver records layer spans, and its span counts must
     agree with the program's own --metrics-out counters.

The last stdout line is the result JSON: the end-to-end metrics
(medians over the untraced samples) with --trace 0, the per-layer
metrics (medians over the traced samples) with --trace 1. The lines
before it are the one-screen summary; each sample's numbers go to
stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_runs")
CRW_BENCH = os.path.join(BUILD, "crw", "bench", "crw-bench")
PERF = os.path.join(BUILD, "crw_perf")
PERF_TRACED = os.path.join(BUILD, "crw_perf_traced")

STATES = ("cold", "warm", "nocache")
MIN_SAMPLES = 3
EXHIBITS = []  # the `all` set, from `crw-bench list` (see run())
NPROC = len(os.sched_getaffinity(0))
JOBS = min(4, NPROC)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build():
    for rel in ("CMakeLists.txt", "src", "bench", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} not found: run from the repository root")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", str(JOBS), "--target",
         "crw-bench", "crw_perf", "crw_perf_traced"],
        stdout=sys.stderr, check=True)


def all_exhibits():
    """The exhibits `crw-bench all` runs, as `crw-bench list` reports them."""
    out = subprocess.run([CRW_BENCH, "list"], capture_output=True,
                         text=True, check=True).stdout
    names = [line.split()[0] for line in out.splitlines()[1:]
             if line.strip() and "not part of 'all'" not in line]
    if not names:
        raise BenchError("crw-bench list named no exhibits")
    return names


# -------------------------------------------------------------- samples


def paper_files(workdir):
    """stdout plus every CSV under bench_out/, as {relative path: bytes}."""
    files = {"stdout": read_bytes(os.path.join(workdir, "stdout.txt"))}
    out_dir = os.path.join(workdir, "bench_out")
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                files[os.path.relpath(path, workdir)] = read_bytes(path)
    return files


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def digest(files):
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def run_process(args, workdir):
    """Run one process to completion; wall from spawn to reap, rusage."""
    with open(os.path.join(workdir, "stdout.txt"), "wb") as out, \
            open(os.path.join(workdir, "stderr.txt"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(args, cwd=workdir, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage


class Sample:
    """One driver process: its timings, checks and (if asked) counters."""

    def __init__(self, state, workdir, seed, traced=False, metrics=False,
                 run_id=0):
        args = [PERF_TRACED if traced else PERF, "--jobs", str(JOBS),
                "--perf-seed", str(seed), "--perf-record", "record.json"]
        if state == "nocache":
            args.append("--no-cache")
        if metrics:
            args += ["--metrics-out", "metrics.json"]
        if traced:
            args += ["--perf-spans", "spans.jsonl",
                     "--perf-run-id", str(run_id)]
        start, end, rc, usage = run_process(args + EXHIBITS, workdir)
        self.state = state
        self.traced = traced
        self.rc = rc
        self.wall_s = end - start
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.files = paper_files(workdir)
        stdout = self.files["stdout"].decode(errors="replace")
        self.checks_ok = stdout.count("[ok]")
        self.checks_fail = stdout.count("[FAIL]")
        record_path = os.path.join(workdir, "record.json")
        self.record = (json.load(open(record_path))
                       if os.path.exists(record_path) else None)
        if self.record is None:
            tail = read_bytes(os.path.join(workdir, "stderr.txt"))[-2000:]
            raise BenchError(f"driver exited {rc} without a record:\n"
                             + tail.decode(errors="replace"))
        self.setup_s = self.record["setup_end_ns"] / 1e9 - start
        self.bad_reports = sum(1 for v in self.record["reports"].values()
                               if v != 0)
        self.counters = {}
        self.points = None
        if metrics:
            doc = json.load(open(os.path.join(workdir, "metrics.json")))
            self.counters = doc.get("counters", {})
            self.points = doc.get("points", {})
        self.spans = []
        if traced:
            with open(os.path.join(workdir, "spans.jsonl")) as f:
                self.spans = [json.loads(line) for line in f]

    @property
    def checks_attempted(self):
        return self.checks_ok + self.checks_fail

    @property
    def failed(self):
        return self.rc != 0 or self.checks_fail or self.bad_reports


def prepare(state, template, workdir):
    """A working directory in @p state: empty (cold) or a copy of the
    primed store (warm, nocache). Trace and flat files are hard-linked
    (the stores only ever replace them by rename); the rest is copied."""
    os.makedirs(workdir)
    if state == "cold":
        return
    src_root = os.path.join(template, "bench_out")
    for dirpath, _, names in os.walk(src_root):
        rel = os.path.relpath(dirpath, src_root)
        dst_dir = os.path.normpath(os.path.join(workdir, "bench_out", rel))
        os.makedirs(dst_dir, exist_ok=True)
        linkable = rel.split(os.sep)[0] in ("traces", "flat")
        for name in names:
            src = os.path.join(dirpath, name)
            dst = os.path.join(dst_dir, name)
            if linkable:
                os.link(src, dst)
            else:
                shutil.copy2(src, dst)


# ------------------------------------------------------- state checks


def expected_counters(state, record):
    """What the program's counters must read in each store state
    (counters absent from the metrics file read 0)."""
    points = record["plan_points"]
    behaviors = record["behaviors"]
    if state == "cold":
        return {"cache.hit": 0, "cache.miss": points, "cache.store": points,
                "flat.predecode": behaviors, "flat.store": behaviors,
                "flat.attach": 0, "replay.points": points}
    if state == "warm":
        return {"cache.hit": points, "cache.miss": 0, "cache.store": 0,
                "flat.predecode": 0, "flat.attach": 0, "flat.store": 0,
                "replay.points": 0, "replay.batches": 0}
    # --no-cache skips the probe but still counts every point a miss.
    return {"cache.hit": 0, "cache.miss": points, "cache.store": 0,
            "flat.predecode": behaviors, "flat.attach": 0, "flat.store": 0,
            "replay.points": points}


def check_state(sample):
    want = expected_counters(sample.state, sample.record)
    got = {k: sample.counters.get(k, 0) for k in want}
    if got != want:
        raise BenchError(f"{sample.state} pass is not in its claimed "
                         f"state: counters {got}, expected {want}")


def check_layers(sample, layers):
    """The traced sample's span counts against the program's own
    counters (which check_state holds to the workload state), plus what
    only spans can show: live captures, and no store traffic at all
    under --no-cache."""
    c = lambda name: sample.counters.get(name, 0)  # noqa: E731
    pairs = {
        "flat.predecode": (layers["flat.predecode"], c("flat.predecode")),
        "flat.attach": (layers["flat.attach"], c("flat.attach")),
        "flat.store": (layers["flat.store"], c("flat.store")),
        "replay.points": (layers["replay.points"], c("replay.points")),
        "replay.batches": (layers["replay.batches"], c("replay.batches")),
        "replay.batched_points": (layers["_batched_points"],
                                  c("replay.batched_points")),
        "replay.batch_fallback": (layers["_fallbacks"],
                                  c("replay.batch_fallback")),
        "replay.simd_path": (layers["replay.simd_path"],
                             c("replay.simd_path")),
        "store.hit": (layers["store.hit"], c("cache.hit")),
        "store.stored": (layers["store.stored"], c("cache.store")),
    }
    cold = sample.state == "cold"
    expect = {"capture.traces":
              sample.record["spell_behaviors"] if cold else 0}
    if sample.state == "nocache":
        expect.update({"store.hit": 0, "store.miss": 0, "store.stored": 0})
    else:
        pairs["store.miss"] = (layers["store.miss"], c("cache.miss"))
    problems = [f"{k}: spans {a} vs counter {b}"
                for k, (a, b) in pairs.items() if a != b]
    problems += [f"{k}: {layers[k]}, expected {v}"
                 for k, v in expect.items() if layers[k] != v]
    if problems:
        raise BenchError(f"traced {sample.state} sample: "
                         + "; ".join(problems))
    check_state(sample)


# ------------------------------------------------------------ layers

LAYERS = {"capture", "trace", "flat", "store", "replay", "pool", "report"}


def layer_of(name):
    """Span name -> layer; the driver's own phase spans are "driver"."""
    prefix = name.split(".")[0]
    return prefix if prefix in LAYERS else "driver"


def self_times(spans):
    """Span id -> duration minus the part its same-thread children
    cover (children on other threads ran in parallel, not inside)."""
    by_id = {s["id"]: s for s in spans}
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["tid"] == s["tid"]:
            own[parent["id"]] -= s["end_ns"] - s["start_ns"]
    return own


def layer_metrics(sample):
    spans = sample.spans
    own = self_times(spans)
    points = sample.record["plan_points"]

    def named(name, **attrs):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in attrs.items())]

    def secs(selected):
        return sum(own[s["id"]] for s in selected) / 1e9

    m = {}
    m["capture.s"] = secs(named("capture"))
    m["capture.traces"] = len(named("capture"))
    trace_spans = (named("trace.load") + named("trace.generate")
                   + named("trace.save"))
    m["trace.load_s"] = secs(trace_spans)
    m["trace.loaded"] = len(named("trace.load", ok=1)) + len(
        named("trace.generate"))
    m["flat.s"] = secs([s for s in spans if layer_of(s["name"]) == "flat"])
    m["flat.predecode"] = len(named("flat.predecode"))
    m["flat.attach"] = len(named("flat.attach", ok=1))
    m["flat.store"] = len(named("flat.store", ok=1))
    m["flat.bytes"] = sum(s.get("bytes", 0) for s in
                          named("flat.predecode") + named("flat.attach", ok=1))
    m["store.probe_s"] = secs(named("store.probe"))
    m["store.write_s"] = secs(named("store.write"))
    m["store.hit"] = len(named("store.probe", hit=1))
    m["store.miss"] = len(named("store.probe", hit=0))
    m["store.stored"] = len(named("store.write", ok=1))
    m["store.hit_ratio"] = m["store.hit"] / points
    replays = named("replay.point") + named("replay.batch")
    batches = named("replay.batch", diverged=0)
    fallbacks = named("replay.batch", diverged=1)
    m["replay.s"] = secs(replays)
    m["replay.events"] = sum(s["events"] for s in replays)
    m["replay.mevps"] = (m["replay.events"] / m["replay.s"] / 1e6
                         if m["replay.s"] else 0.0)
    m["_batched_points"] = sum(s["lanes"] for s in batches)
    m["_fallbacks"] = len(fallbacks)
    m["replay.points"] = len(named("replay.point")) + m["_batched_points"]
    m["replay.batches"] = len(batches)
    m["replay.batched_share"] = (m["_batched_points"] / m["replay.points"]
                                 if m["replay.points"] else 0.0)
    m["replay.fallback_ratio"] = (len(fallbacks) / (len(batches)
                                                    + len(fallbacks))
                                  if batches or fallbacks else 0.0)
    m["replay.simd_path"] = max((s["simd"] for s in batches), default=0)
    tasks = named("pool.task")
    m["pool.busy_s"] = sum(s["end_ns"] - s["start_ns"] for s in tasks) / 1e9
    capacity = sum(s["jobs"] * (s["end_ns"] - s["start_ns"])
                   for s in named("pool.run")) / 1e9
    m["pool.util"] = m["pool.busy_s"] / capacity if capacity else 0.0
    m["report.s"] = secs(named("report"))
    for s in named("report"):
        m[f"report.{s['label']}_s"] = own[s["id"]] / 1e9
    layer_self = {}
    for s in spans:
        layer = layer_of(s["name"])
        layer_self[layer] = layer_self.get(layer, 0) + own[s["id"]] / 1e9
    m["_layer_self"] = layer_self
    return m


# -------------------------------------------------------------- output


def median(values):
    return statistics.median(values) if values else 0.0


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def summary(args, ref, untraced, traced, layers, e2e_values, sim_digest):
    lines = [
        f"crw benchmark: workload {args.workload}, seed {args.seed}, "
        f"--jobs {JOBS} (nproc {NPROC}), simd {ref.record['simd_tier']}, "
        f"plan {ref.record['plan_points']} points "
        f"({ref.record['paper_points']} paper + "
        f"{ref.record['plan_points'] - ref.record['paper_points']} "
        f"seeded synth)",
        f"  sim_digest {sim_digest}",
        f"  paper output identical to crw-bench all and across samples; "
        f"self-checks {ref.checks_ok} ok",
        f"  end-to-end, median of {len(untraced)} samples:",
    ]
    for name, (value, unit) in e2e_values.items():
        lines.append(f"    {name:<18} {value:12.4f} {unit}")
    if traced:
        lines.append(f"  where the time went, median of {len(traced)} traced "
                     f"samples (self time summed over threads):")
        ranked = {}
        for m in layers:
            for layer, secs in m["_layer_self"].items():
                ranked.setdefault(layer, []).append(secs)
        total = sum(median(v) for v in ranked.values())
        for layer, values in sorted(ranked.items(),
                                    key=lambda kv: -median(kv[1])):
            share = median(values) / total * 100 if total else 0.0
            lines.append(f"    {layer:<10} {median(values):9.4f} s "
                         f"{share:5.1f}%")
    print("\n".join(lines))


def run(args):
    build()
    global EXHIBITS
    EXHIBITS = all_exhibits()
    e2e_decl, layer_decl = load_declared()
    workdir = os.path.join(RUNS, f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return measure(args, workdir, e2e_decl, layer_decl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass


def measure(args, workdir, e2e_decl, layer_decl):
    # 1. Reference pass (untimed, cold): paper output, sim_digest and
    #    the primed store the warm and nocache samples start from.
    template = os.path.join(workdir, "template")
    os.makedirs(template)
    ref = Sample("cold", template, args.seed, metrics=True)
    if ref.failed:
        raise BenchError("reference pass failed its self-checks")
    check_state(ref)
    reference = digest(ref.files)
    sim = dict((k, v) for k, v in ref.files.items() if k != "stdout")
    sim["points"] = json.dumps(ref.points, sort_keys=True).encode()
    sim_digest = digest(sim)[:16]

    # 2. Fidelity: crw-bench all, replaying from the same traces.
    crw_dir = os.path.join(workdir, "crw-bench")
    os.makedirs(os.path.join(crw_dir, "bench_out", "traces"))
    for name in os.listdir(os.path.join(template, "bench_out", "traces")):
        os.link(os.path.join(template, "bench_out", "traces", name),
                os.path.join(crw_dir, "bench_out", "traces", name))
    _, _, rc, _ = run_process([CRW_BENCH, "--jobs", str(JOBS),
                               "--no-cache", "all"], crw_dir)
    crw_files = paper_files(crw_dir)
    if rc != 0 or digest(crw_files) != reference:
        differ = sorted(k for k in set(crw_files) | set(ref.files)
                        if crw_files.get(k) != ref.files.get(k))
        raise BenchError(f"driver output differs from crw-bench all "
                         f"(rc {rc}): {differ[:5]}")
    shutil.rmtree(crw_dir)

    # 3. The workload's own state, with counters (cold: the reference).
    if args.workload != "cold":
        state_dir = os.path.join(workdir, "state")
        prepare(args.workload, template, state_dir)
        probe = Sample(args.workload, state_dir, args.seed, metrics=True)
        check_state(probe)
        if digest(probe.files) != reference:
            raise BenchError(f"{args.workload} paper output differs from "
                             f"the cold pass")
        shutil.rmtree(state_dir)

    # 4. Timed samples.
    samples, traced, layers = [], [], []
    failed = checks = check_fails = 0
    kinds = [False, True] if args.trace else [False]
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or len(samples) < MIN_SAMPLES * len(kinds):
        for is_traced in kinds:
            index = len(samples) + failed
            sample_dir = os.path.join(workdir, f"sample{index}")
            prepare(args.workload, template, sample_dir)
            s = Sample(args.workload, sample_dir, args.seed,
                       traced=is_traced, metrics=is_traced, run_id=index)
            shutil.rmtree(sample_dir)
            same = digest(s.files) == reference
            log(f"sample {index}{' traced' if is_traced else ''}: "
                f"wall {s.wall_s:.4f} s, setup {s.setup_s:.4f} s, "
                f"cpu {s.cpu_s:.4f} s, rss {s.peak_rss_mb:.1f} MB"
                + ("" if same else ", paper output differs"))
            checks += s.checks_attempted
            check_fails += s.checks_fail + s.bad_reports
            if s.failed or not same:
                failed += 1
                continue
            samples.append(s)
            if is_traced:
                m = layer_metrics(s)
                check_layers(s, m)
                traced.append(s)
                layers.append(m)

    untraced = [s for s in samples if not s.traced]
    e2e = {
        "wall_s": median([s.wall_s for s in untraced]),
        "setup_s": median([s.setup_s for s in untraced]),
        "cpu_s": median([s.cpu_s for s in untraced]),
        "peak_rss_mb": median([s.peak_rss_mb for s in untraced]),
    }
    e2e_values = {d["name"]: (e2e[d["name"]], d["unit"]) for d in e2e_decl}
    summary(args, ref, untraced, traced, layers, e2e_values, sim_digest)

    if args.trace:
        per_layer = {}
        for name in {k for m in layers for k in m}:
            if not name.startswith("_"):
                per_layer[name] = median([m.get(name, 0) for m in layers])
        traced_wall = median([s.wall_s for s in traced])
        per_layer["bench.trace_overhead"] = (traced_wall / e2e["wall_s"]
                                             if e2e["wall_s"] else 0.0)
        per_layer["check_fail_ratio"] = check_fails / checks if checks else 1.0
        values = {d["name"]: (per_layer.get(d["name"], 0.0), d["unit"])
                  for d in layer_decl}
    else:
        values = e2e_values
    correct = failed == 0 and bool(untraced) and (bool(traced) or not args.trace)
    result = {
        "correct": correct,
        "attempted": len(samples) + failed,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=STATES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as err:
        log(f"benchmark failed: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
