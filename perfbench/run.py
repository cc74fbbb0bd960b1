#!/usr/bin/env python3
"""The repo benchmark: build, run one workload repeatedly, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/main.exe with dune, then
starts one fresh process per run of the workload (Wcache and Kmem keep
process-global registries) until S seconds of runs have passed, at least
three times.  Every run's correctness gates must hold and every run must
print the same fingerprint.  Human-readable lines go first; the last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json:
set-up time as the median over the runs, the rest as the mean of the
middle 60% of the runs (see steady()).  With --trace 1 untraced and
traced runs alternate; the metrics are the per_layer ones, taken from the traced run
of median wall time so that they add up to its wall time, plus the
tracing overhead.  Layers a workload does not pass through read 0.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ("load-mixed", "dur-stack", "refine-crash", "lint-tree")
EXPORT_VARS = ("KSIM_WCACHE_EXPORT", "KSIM_KMEM_EXPORT", "KSIM_LOCKDEP_EXPORT")
MIN_RUNS = 3
TRIM_SHARE = 0.2
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail("build failed", 1)


def run_once(workload, seed, trace, check):
    """One fresh process; returns its record with setup_s added."""
    spawned = time.monotonic_ns()
    proc = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--trace", str(trace),
         "--check", str(int(check))],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s run exited with %d" % (workload, proc.returncode), 1)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    # main.exe reads the same CLOCK_MONOTONIC: set-up is everything from
    # spawning the process to the start of its timed region.
    rec["setup_s"] = (rec["timed_start_ns"] - spawned) / 1e9
    if not 0 < rec["setup_s"] < RUN_TIMEOUT_S:
        fail("implausible set-up time %r" % rec["setup_s"], 1)
    rec["trace"] = trace
    return rec


def end_to_end(rec):
    wall_s = rec["wall_ns"] / 1e9
    return {
        "setup_s": rec["setup_s"],
        "wall_s": wall_s,
        "ops_per_s": rec["work"] / wall_s,
        "peak_heap_mb": rec["top_heap_bytes"] / 2**20,
        "alloc_words_per_op": rec["alloc_words"] / rec["work"],
    }


def steady(xs):
    """Mean of the runs left after dropping the fastest and the slowest
    TRIM_SHARE of them.  The reference host's CPU speed drifts by up to
    2x in phases of seconds to minutes; a median over 30 s of runs jumps
    between the fast and the slow phase, while this estimate averages the
    phases and still ignores single outliers."""
    xs = sorted(xs)
    k = int(len(xs) * TRIM_SHARE)
    return statistics.mean(xs[k:len(xs) - k])


def lower_median_run(runs):
    ordered = sorted(runs, key=lambda r: r["wall_ns"])
    return ordered[(len(ordered) - 1) // 2]


def host():
    info = {
        "nproc": os.cpu_count(),
        "mem_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "commit": "unknown",
    }
    if os.path.isdir(".git") and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            info["commit"] = proc.stdout.strip()
    return info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exported = [v for v in EXPORT_VARS if os.environ.get(v)]
    if exported:
        fail("refusing to run with %s set: the exporters keep every cache and heap alive"
             % ", ".join(exported))
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    build()

    # The first run checks the outputs against their reference (the spec
    # replay, the engine's own lint); every later run must repeat its
    # fingerprint.  Traced runs alternate with untraced ones, for the
    # tracing overhead.  A run starts only if it is expected to end
    # within the measuring time.
    runs = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS * (1 + args.trace) and \
                elapsed * (len(runs) + 1) / len(runs) > args.seconds:
            break
        trace = args.trace and len(runs) % 2
        runs.append(run_once(args.workload, args.seed, trace, check=not runs))

    failed_gates = sorted({"%s (%s)" % (g, "traced" if r["trace"] else "untraced")
                           for r in runs for g, ok in r["gates"].items() if not ok})
    fingerprints = sorted({r["fingerprint"] for r in runs})
    correct = not failed_gates and len(fingerprints) == 1
    untraced = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]
    first = runs[0]
    attempted, failed = first["attempted"], first["failed"]

    per_run = {k: [end_to_end(r)[k] for r in untraced] for k in end_to_end(first)}
    e2e = {k: (statistics.median if k == "setup_s" else steady)(xs) for k, xs in per_run.items()}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print("perfbench %s seed %d: %d untraced + %d traced runs in fresh processes"
          % (args.workload, args.seed, len(untraced), len(traced)))
    for name, value in e2e.items():
        print("  %-22s %14.6g %s" % (name, value, units.get(name, "")))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "host": dict(host(), ocaml=first["ocaml_version"]),
        "runs": len(runs),
        "fingerprint": fingerprints,
        "failed_gates": failed_gates,
        "fail_share": first["fail_share_num"] / first["attempted"],
        "work_per_run": first["work"],
        "wall_s_median": statistics.median(per_run["wall_s"]),
    }
    for key in sorted({k for r in untraced for k in r["extra"]}):
        detail[key] = statistics.median([r["extra"][key] for r in untraced])
    print("detail: " + json.dumps(detail, sort_keys=True))

    if args.trace:
        pick = lower_median_run(traced)
        layers = dict(pick["layers"])
        layers["trace.wall_s"] = pick["wall_ns"] / 1e9
        layers["trace.untraced_wall_s"] = e2e["wall_s"]
        traced_wall_s = steady([r["wall_ns"] / 1e9 for r in traced])
        layers["trace.overhead_share"] = traced_wall_s / e2e["wall_s"] - 1
        names = [m["name"] for m in bench["per_layer"]]
        unknown = sorted(set(layers) - set(names))
        if unknown:
            fail("per-layer figures missing from BENCHMARK.json: %s" % ", ".join(unknown), 1)
        for name in names:
            if name in layers:
                print("  %-26s %14.6g %s" % (name, layers[name], units[name]))
        metrics = {n: {"value": layers.get(n, 0), "unit": units[n]} for n in names}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    if not correct:
        print("INCORRECT: failed gates %s; fingerprints %s" % (failed_gates, fingerprints))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
