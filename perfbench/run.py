#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end metrics, per-layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kernels --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 0            # every workload, one table

It builds the simulator and the benchmark from source with dune (into
.bench_build/), runs the workload in a fresh process, checks its outputs and
prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off.  With --trace 1 they are its per-layer metrics:
the same fixed work runs twice, untraced and traced, each in a fresh
process; their exact counters must agree, and their wall times give
trace.overhead_pct.  A per-layer metric the workload does not exercise
reads 0.  perfbench/README.md explains every workload and metric.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["kernels", "campaign", "campaign-resume", "serve"]
# One run, build excluded, must end within 180 s: the children share this.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (no dune-project / lib here)")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir, "--no-config",
           "--profile", "release", "-j", "2", "--display", "quiet",
           "./perfbench/bench.exe", "./bin/spf.exe"]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})")
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    spf = os.path.join(build_dir, "default", "bin", "spf.exe")
    return os.path.abspath(exe), os.path.abspath(spf)


def child(exe, spf, scratch, workload, seed, seconds, mode, deadline):
    """Run one bench.exe process; echo its report, return its RESULT."""
    cmd = [exe, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--spf", spf, "--scratch", scratch]
    env = dict(os.environ, TMPDIR=os.path.abspath(scratch))
    # Its own process group, so a timeout also stops the serve daemon it spawned.
    p = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{workload} ({mode}) did not finish within the run's {RUN_BUDGET_S}s")
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if p.returncode != 0 or result is None:
        fail(f"{workload} ({mode}) exited {p.returncode} without a result")
    return result


@contextlib.contextmanager
def scratch(runs, workload):
    """A per-run directory; trace files survive it, the rest is removed."""
    d = os.path.join(runs, f"{workload}-{os.getpid()}")
    os.makedirs(d, exist_ok=True)
    try:
        yield d
    finally:
        for name in os.listdir(d):
            if name.startswith("trace-"):
                os.replace(os.path.join(d, name), os.path.join(runs, name))
        shutil.rmtree(d, ignore_errors=True)


def pick(spec_metrics, measured, fill_missing):
    out = {}
    for m in spec_metrics:
        got = measured.get(m["name"])
        if got is None or got["value"] is None:
            if not fill_missing:
                fail(f"metric {m['name']} was not measured")
            value = 0.0
        else:
            value = got["value"]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run_one(spec, exe, spf, scratch, workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    if not trace:
        r = child(exe, spf, scratch, workload, seed, seconds, "measure", deadline)
        bounded = {m["name"] for m in spec["end_to_end"]}
        for name, m in r["e2e"].items():
            note = "" if name in bounded else "  (printed only: no bound)"
            print(f"  {name:<16} {m['value']:>14.6g} {m['unit']}{note}")
        print(f"  fail_rate        {r['failed'] / r['attempted']:>14.6g} "
              f"({r['failed']} of {r['attempted']})")
        return r["attempted"], r["failed"], pick(spec["end_to_end"], r["e2e"], False)
    u = child(exe, spf, scratch, workload, seed, seconds, "untraced", deadline)
    t = child(exe, spf, scratch, workload, seed, seconds, "traced", deadline)
    # An absent counter is 0; the traced side may add counters of its own.
    differing = sorted(k for k, v in u["counters"].items() if t["counters"].get(k, 0) != v)
    for k in differing:
        print(f"  counter {k}: untraced {u['counters'][k]} traced {t['counters'].get(k, 0)}")
    print(f"  traced and untraced exact counters: "
          f"{'identical' if not differing else 'DIFFER'} ({len(u['counters'])} compared)")
    layers = dict(t["layers"])
    overhead = 100.0 * (t["wall_s"] - u["wall_s"]) / u["wall_s"]
    layers["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    print(f"  wall: untraced {u['wall_s']:.3f}s traced {t['wall_s']:.3f}s "
          f"(overhead {overhead:+.2f}%)")
    for m in spec["per_layer"]:
        if m["name"] in layers:
            print(f"  {m['name']:<32} {layers[m['name']]['value']:>14.6g} {m['unit']}")
    failed = u["failed"] + t["failed"] + (1 if differing else 0)
    return (u["attempted"] + t["attempted"], failed,
            pick(spec["per_layer"], layers, True))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload NAME or --all")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    exe, spf = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    runs = os.path.abspath(".bench_run")
    os.makedirs(runs, exist_ok=True)

    if args.all:
        table = {}
        for w in WORKLOADS:
            print(f"== {w} (seed {args.seed}, {seconds:g}s)")
            with scratch(runs, w) as d:
                attempted, failed, metrics = run_one(spec, exe, spf, d, w, args.seed,
                                                     seconds, False)
            table[w] = {"attempted": attempted, "failed": failed, "metrics": metrics}
        names = [m["name"] for m in spec["end_to_end"]]
        print(f"{'metric':<16}" + "".join(f"{w:>17}" for w in WORKLOADS))
        for n in names:
            unit = table[WORKLOADS[0]]["metrics"][n]["unit"]
            print(f"{n + ' [' + unit + ']':<16}"
                  + "".join(f"{table[w]['metrics'][n]['value']:>17.6g}" for w in WORKLOADS))
        print(f"{'fail_rate':<16}"
              + "".join(f"{table[w]['failed'] / table[w]['attempted']:>17.6g}"
                        for w in WORKLOADS))
        path = os.path.join(runs, f"all-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump(table, f, indent=1)
        print(f"wrote {path}")
        sys.exit(1 if any(t["failed"] for t in table.values()) else 0)

    with scratch(runs, args.workload) as d:
        attempted, failed, metrics = run_one(spec, exe, spf, d, args.workload,
                                             args.seed, seconds, args.trace == 1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
