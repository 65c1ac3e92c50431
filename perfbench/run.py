#!/usr/bin/env python3
"""liftcpp repo benchmark: one workload, one run.

    python3 perfbench/run.py --workload <tune-native|tune-model|run-target>
                             --seed N --seconds S --trace <0|1>

Run from the root of a liftcpp checkout. The first run builds the
libraries from ./src plus the driver in perfbench/ (CMake, into
.bench_build/, or $CARGO_TARGET_DIR when that is set). Every workload
runs in a fresh process with its own empty TMPDIR, so compiled kernels
never outlive the run. The human-readable report goes to stdout; the
last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md). The exit code is 0 only when
every operation succeeded and every output matched its golden reference.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 175  # the whole run, a build of the driver excluded
BUILD_LIMIT_S = 850

WORKLOADS = ("tune-native", "tune-model", "run-target")

END_TO_END = [
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("peak_rss_mb", "MB"),
]

RUN_TARGET_STENCILS = ("Jacobi2D5pt", "Gaussian", "Hotspot2D", "Jacobi3D7pt",
                       "Heat", "Hotspot3D")
RUN_TARGET_VARIANTS = ("global", "global-spec", "tiled16-local")


def per_layer_metrics():
    m = [
        ("rewrite.explore_ms", "ms"), ("rewrite.lower_ms", "ms"),
        ("rewrite.lower_calls", "count"),
        ("analysis.refute_ms", "ms"), ("analysis.specialize_ms", "ms"),
        ("analysis.loops_split", "count"),
        ("codegen.compile_ms", "ms"), ("codegen.calls", "count"),
        ("ocl.sim_ms", "ms"), ("ocl.sim_calls", "count"),
        ("ocl.model_ms", "ms"), ("ocl.memo_hit_ratio", "ratio"),
        ("native.cc_ms", "ms"), ("native.cc_calls", "count"),
        ("native.cache_hits", "count"), ("native.cache_misses", "count"),
        ("native.emit_ms", "ms"), ("native.emit_bytes", "B"),
        ("native.run_ms", "ms"), ("native.run_overhead_ms", "ms"),
        ("native.peak_triad_gbs", "GB/s"), ("native.peak_fma_gflops", "GFLOP/s"),
        ("native.round_ms", "ms"),
        ("native.kernel_gelems_s.1t", "GElem/s"),
        ("native.kernel_gelems_s.mt", "GElem/s"),
    ]
    for s in RUN_TARGET_STENCILS:
        for v in RUN_TARGET_VARIANTS:
            m.append(("native.kernel_ms.%s.%s.1t" % (s, v), "ms"))
            m.append(("native.kernel_ms.%s.%s.mt" % (s, v), "ms"))
            m.append(("native.kernel_gbs.%s.%s.mt" % (s, v), "GB/s"))
    m += [
        ("tuner.candidates", "count"), ("tuner.valid", "count"),
        ("tuner.pruned", "count"), ("tuner.cold_ms", "ms"),
        ("tuner.retune_ms", "ms"),
        ("tuner.replay_ms", "ms"), ("tuner.replay_share", "ratio"),
        ("tuner.self_ms", "ms"),
        ("tuner.winner_target_ms.Jacobi2D5pt", "ms"),
        ("tuner.winner_target_ms.Jacobi3D7pt", "ms"),
        ("stencil.inputs_ms", "ms"), ("check.golden_ms", "ms"),
        ("bench.trace_overhead_ms", "ms"),
    ]
    return m


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no liftcpp sources next to perfbench/ (expected src/CMakeLists.txt)")
        return None
    out = os.path.join(bdir, "perfbench")
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "liftbench"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_LIMIT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return None
        if r.returncode != 0:
            log("build failed: %s" % " ".join(cmd))
            return None
    exe = os.path.join(out, "liftbench")
    return exe if os.access(exe, os.X_OK) else None


def run_child(argv, tmp_root, tag, deadline):
    """Runs one driver process with a fresh empty TMPDIR, killing it at
    the deadline. Returns (exit code, parsed result or None)."""
    sys.stdout.flush()
    tmp = os.path.join(tmp_root, "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    result = os.path.join(tmp_root, "%s-%d.result.json" % (tag, os.getpid()))
    if os.path.exists(result):
        os.remove(result)
    env = dict(os.environ, TMPDIR=tmp)
    left = deadline - time.monotonic()
    code = -1
    proc = subprocess.Popen(argv + ["--result", result], env=env,
                            stdout=sys.stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        log("%s: timed out, killing it" % tag)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if code < 0:
        log("%s: died with signal %d" % (tag, -code))
    res = None
    if code == 0 and os.path.isfile(result):
        with open(result) as f:
            res = json.load(f)
    shutil.rmtree(tmp, ignore_errors=True)
    if os.path.exists(result):
        os.remove(result)
    return code, res


def print_report(workload, seed, res, extra):
    named = res.get("named", {})
    e2e = res["end_to_end"]
    attempted, failed = res["attempted"], res["failed"]
    print("== perfbench %s (seed %d) ==" % (workload, seed))
    rows = [(n, e2e.get(n), u) for n, u in END_TO_END]
    if workload == "run-target":
        rows += [("compile_s (= cold_s)", named.get("compile_s"), "s"),
                 ("round_s", named.get("round_s"), "s"),
                 ("rounds", named.get("rounds"), "count"),
                 ("kernel_gelems_s_1t", named.get("kernel_gelems_s_1t"), "GElem/s"),
                 ("kernel_gelems_s_mt", named.get("kernel_gelems_s_mt"), "GElem/s")]
    else:
        rows += [("tune_s (= cold_s)", named.get("tune_s"), "s"),
                 ("retune_s", named.get("retune_s"), "s"),
                 ("warm_passes", named.get("warm_passes"), "count")]
    rows.append(("failed_frac", failed / attempted if attempted else 1.0, "ratio"))
    for name, value, unit in rows + extra:
        if value is not None:
            print("%-28s %14.6g %s" % (name, value, unit))
    print("context: " + json.dumps(res.get("context", {}), sort_keys=True))


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 2
    if time.monotonic() - start > 30:
        start = time.monotonic()  # this run compiled the driver
    deadline = start + RUN_LIMIT_S
    tmp_root = os.path.join(bdir, "tmp")
    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(tmp_root, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    tag = "%s-seed%d" % (a.workload, a.seed)

    argv = [exe, "run", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds)]
    cands = None
    if a.trace:
        argv += ["--trace", "--spans",
                 os.path.join(trace_dir, tag + ".run.spans.json")]
        if a.workload != "run-target":
            cands = os.path.join(trace_dir, tag + ".candidates.txt")
            argv += ["--candidates", cands]
    code, res = run_child(argv, tmp_root, tag + "-run", deadline)
    if res is None:
        # A crash or timeout is a failed run, never a skipped one.
        log("workload process failed (exit %d)" % code)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    layers = dict(res.get("layers", {}))
    extra = []
    if cands:
        # A fresh process replays every candidate of the cold sweeps
        # through the tuner's public calls, one span per call.
        code, rep = run_child(
            [exe, "replay", "--candidates", cands, "--seed", str(a.seed),
             "--spans", os.path.join(trace_dir, tag + ".replay.spans.json")],
            tmp_root, tag + "-replay", deadline)
        if rep is None:
            log("replay process failed (exit %d)" % code)
            res["attempted"] += 1
            res["failed"] += 1
        else:
            for k, v in rep["layers"].items():
                if not k.startswith("native.peak_"):
                    layers[k] = v
            extra.append(("replay_share_of_tune",
                          layers["tuner.replay_share"], "ratio"))

    print_report(a.workload, a.seed, res, extra)
    correct = res["failed"] == 0
    if a.trace:
        metrics = {n: {"value": float(layers.get(n, 0.0)), "unit": u}
                   for n, u in per_layer_metrics()}
        for n, u in per_layer_metrics():
            print("%-52s %14.6g %s" % (n, metrics[n]["value"], u))
    else:
        metrics = {n: {"value": float(res["end_to_end"][n]), "unit": u}
                   for n, u in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
