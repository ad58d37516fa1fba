#!/usr/bin/env python3
"""Benchmark runner for the three frontier pipelines.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload answer-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, default settings

It builds perfbench/worker.exe from source with dune, then runs every
timed repetition as its own cold worker process. Each repetition also
times the building of its inputs, which gives set-up time. With --trace 1
it alternates traced and untraced repetitions and reports the per-layer
metrics of the traced ones.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when every
output check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "dune")
WORKER = os.path.join(BUILD_DIR, "default", "perfbench", "worker.exe")
TRACE_DIR = os.path.join(".bench_build", "traces")
WORKER_TIMEOUT_S = 120

# Runnable by name but left out of BENCHMARK.json: with more than one
# domain their run time swings by up to 2x with the host's CPU steal (see
# README.md).
EXTRA_WORKLOADS = ["chase-td-par", "marked-e2-par"]

# Jobs per workload: "nproc" is the machine's usable core count.
JOBS = {
    "answer-grid": "nproc",
    "chase-td": 1,
    "chase-td-par": "nproc",
    "marked-e2": 1,
    "marked-e2-par": "nproc",
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def jobs_for(workload):
    j = JOBS[workload]
    return nproc() if j == "nproc" else j


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Build the worker inside the checkout, without the shared dune cache."""
    dune = shutil.which("dune")
    if dune is None:
        prefix = os.environ.get("OPAM_SWITCH_PREFIX")
        if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
            dune = os.path.join(prefix, "bin", "dune")
        else:
            fail("dune is not on PATH", 3)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(".bench_build", "cache"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = [dune, "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--display", "quiet", "./perfbench/worker.exe"]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(WORKER):
        fail("build failed", 3)


def worker(args):
    """Run one cold worker process; return (wall seconds, parsed JSON or None)."""
    t0 = time.perf_counter()
    try:
        r = subprocess.run([WORKER] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None
    wall = time.perf_counter() - t0
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        return wall, None
    try:
        return wall, json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return wall, None


def median(xs):
    return statistics.median(xs) if xs else float("nan")


class Tally:
    """Pipeline calls attempted and failed, with the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, out):
        self.attempted += 1
        if out is None or not out.get("ok"):
            self.failed += 1
            self.errors.append("worker crashed or timed out" if out is None
                               else out.get("error", "check failed"))


def rep_args(workload, seed, jobs, trace_file=None):
    args = ["rep", "--workload", workload, "--seed", str(seed), "--jobs", str(jobs)]
    return args + (["--trace", trace_file] if trace_file else [])


def timed_reps(workload, seed, seconds, tally):
    """Cold repetitions until the next one would overrun the time budget."""
    jobs, start, walls, reps = jobs_for(workload), time.perf_counter(), [], []
    while True:
        wall, out = worker(rep_args(workload, seed, jobs))
        tally.record(out)
        walls.append(wall)
        if out is not None:
            reps.append(out)
        if time.perf_counter() - start + median(walls) > seconds:
            return reps


def traced_reps(workload, seed, seconds, tally):
    """Alternate traced and untraced cold repetitions (at least one each)."""
    jobs, start, walls = jobs_for(workload), time.perf_counter(), []
    traced, plain = [], []
    os.makedirs(TRACE_DIR, exist_ok=True)
    while True:
        k = len(traced)
        trace_file = os.path.join(TRACE_DIR, f"{workload}-seed{seed}-{k}.json")
        for args, sink in ((rep_args(workload, seed, jobs, trace_file), traced),
                           (rep_args(workload, seed, jobs), plain)):
            wall, out = worker(args)
            tally.record(out)
            walls.append(wall)
            if out is not None:
                sink.append(out)
        if time.perf_counter() - start + 2 * median(walls) > seconds:
            return traced, plain


def print_config(workload, seed, reps):
    sizes = reps[0]["sizes"] if reps else {}
    print(f"config {workload}: nproc={nproc()} jobs={jobs_for(workload)} "
          f"seed={seed} " + " ".join(f"{k}={v}" for k, v in sizes.items()))


def run_untraced(spec, workload, seed, seconds):
    tally = Tally()
    reps = timed_reps(workload, seed, seconds, tally)
    if not reps:
        fail(f"{workload}: every repetition crashed: {tally.errors[0]}", 1)
    print_config(workload, seed, reps)
    values = {
        "setup_s": median([r["setup_s"] for r in reps]),
        "run_s": median([r["run_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    notes = {
        "setup_s": f"median of {len(reps)} in-process input builds",
        "run_s": f"median of {len(reps)} cold repetitions, CPU "
                 f"{median([r['cpu_s'] for r in reps]):.3g} s",
        "peak_rss_mb": f"median of {len(reps)} cold repetitions",
        "ok_frac": f"failed_frac = {tally.failed}/{tally.attempted}",
    }
    metrics = report(spec["end_to_end"], values, notes, workload)
    return tally, metrics


def run_traced(spec, workload, seed, seconds):
    tally = Tally()
    traced, plain = traced_reps(workload, seed, seconds, tally)
    print_config(workload, seed, traced)
    values = {}
    if traced:
        for name in traced[0]["layers"]:
            values[name] = median([r["layers"][name] for r in traced])
    if traced and plain:
        values["trace.overhead_s"] = (median([r["run_s"] for r in traced])
                                      - median([r["run_s"] for r in plain]))
    notes = {name: f"median of {len(traced)} traced repetitions" for name in values}
    notes["trace.overhead_s"] = (f"traced minus untraced run_s, {len(traced)} "
                                 f"and {len(plain)} repetitions")
    metrics = report(spec["per_layer"], values, notes, workload)
    return tally, metrics


def report(declared, values, notes, workload):
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name not in values:
            fail(f"{workload}: metric {name} was not measured", 1)
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{workload:14s} {name:30s} {values[name]:16.6g} {unit:6s} "
              f"({notes.get(name, '')})")
    return metrics


def main():
    if not (os.path.isfile("BENCHMARK.json") and os.path.isfile("dune-project")
            and os.path.isdir("lib")):
        fail("run from the root of a frontier checkout (BENCHMARK.json, "
             "dune-project and lib/ are needed)")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="one of %s, or all" % (names + EXTRA_WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.workload != "all" and a.workload not in names + EXTRA_WORKLOADS:
        fail(f"unknown workload {a.workload!r} "
             f"(known: {', '.join(names + EXTRA_WORKLOADS)})")
    build()
    run = run_traced if a.trace else run_untraced
    chosen = names if a.workload == "all" else [a.workload]
    attempted = failed = 0
    metrics = {}
    for w in chosen:
        tally, m = run(spec, w, a.seed, a.seconds)
        attempted += tally.attempted
        failed += tally.failed
        for err in tally.errors:
            print(f"{w}: FAILED CHECK: {err}")
        metrics.update(m if len(chosen) == 1 else
                       {f"{w}/{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
