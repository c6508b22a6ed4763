"""Benchmark entry point: time one workload end to end, or trace it.

Usage (from the repository root)::

    python3 perfbench/run.py --workload static-fabric
    python3 perfbench/run.py --workload punt-storm --seed 7 --seconds 40
    python3 perfbench/run.py --workload tenant-mix --trace 1

Each repetition is a fresh single-threaded interpreter running
``perfbench/child.py``, one at a time, until ``--seconds`` is spent.
Every repetition's digest and flow counts are checked: against the
workload's pin at its pinned seed, and against each other at any seed.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions; times are first rescaled to the undisturbed host, see
:func:`undisturbed`.  ``--trace 1`` spends about a third of the budget on
untraced repetitions and the rest on traced ones, and reports the
per-layer metrics (medians over the traced repetitions) plus
``trace.overhead``.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
self-describing record of every invocation is appended to
``perfbench/results/records.jsonl``.
"""

from __future__ import annotations

import argparse
import collections
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = os.path.join(HERE, "workloads")
RESULTS = os.path.join(HERE, "results")
#: Wall-clock limit of one invocation, repetitions included.
DEADLINE_S = 170.0

#: Mean probe-kernel time on the undisturbed host (see child.py): about
#: the fastest the probe runs on an Intel Xeon 2-vCPU VM with Python 3.11.
PROBE_REF_S = 150e-6

#: End-to-end metrics, in the order printed.
END_TO_END = ("events_per_s", "setup_s", "peak_rss_mb")
#: Printed and recorded, not gated.  ``run_s`` scales with the offered
#: volume, which varies with the seed; ``events_per_s`` divides it out.
UNGATED = ("run_s", "run_s_median", "setup_s_median", "probe_s_median")
UNITS = {"events_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
         "run_s": "s", "run_s_median": "s", "setup_s_median": "s",
         "probe_s_median": "s"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def workload_names() -> list:
    if not os.path.isdir(WORKLOADS):
        return []
    return sorted(name[:-5] for name in os.listdir(WORKLOADS)
                  if name.endswith(".json"))


def load_workload(name: str) -> dict:
    with open(os.path.join(WORKLOADS, f"{name}.json")) as fh:
        return json.load(fh)


def run_child(name: str, seed: int, trace: bool, deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns its report."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           os.path.join(WORKLOADS, f"{name}.json"), "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=deadline - started)
    except subprocess.TimeoutExpired:
        fail(f"{name} repetition did not finish within {DEADLINE_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{name} repetition exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_s"] = time.perf_counter() - started
    report["traced"] = trace
    return report


def repeat(name: str, seed: int, trace: bool, budget_s: float,
           minimum: int, deadline: float) -> list:
    """Repetitions until the next would likely overrun ``budget_s``."""
    reports = []
    started = time.perf_counter()
    while True:
        reports.append(run_child(name, seed, trace, deadline))
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["wall_s"] for r in reports)
        if len(reports) >= minimum and elapsed + typical > budget_s:
            return reports


def check(reports: list, pin, pinned: bool) -> tuple:
    """(reference digest, failed count) over every repetition.

    At the pinned seed each repetition must match the pin; at any other
    seed each must match the digest most repetitions agree on.
    """
    def key(r):
        return (r["digest"], r["flows_started"], r["flows_completed"])

    if pinned and pin is not None:
        reference = (pin["digest"], pin["flows_started"],
                     pin["flows_completed"])
    else:
        reference = collections.Counter(
            key(r) for r in reports).most_common(1)[0][0]
    failed = sum(1 for r in reports if key(r) != reference)
    return reference[0], failed


def undisturbed(seconds: float, report: dict) -> float:
    """A wall time of one repetition rescaled to the undisturbed host.

    The host's speed drifts by up to 2x over seconds and minutes,
    whatever runs on it.  A fixed probe kernel, run at regular
    simulated-time ticks inside the traffic window (its own time
    excluded), measures that speed as the repetition runs; scaling by
    :data:`PROBE_REF_S` over the probe's mean time removes the drift the
    two share.  Set-up is rescaled with the same repetition's probe: it
    runs in the seconds just before the window.
    """
    return seconds * PROBE_REF_S / report["probe_s"]


def end_to_end(reports: list) -> dict:
    med = statistics.median
    return {
        "run_s": med(undisturbed(r["run_s"], r) for r in reports),
        "events_per_s": med(r["events"] / undisturbed(r["run_s"], r)
                            for r in reports),
        "setup_s": med(undisturbed(r["setup_s"], r) for r in reports),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reports),
        "run_s_median": med(r["run_s"] for r in reports),
        "setup_s_median": med(r["setup_s"] for r in reports),
        "probe_s_median": med(r["probe_s"] for r in reports),
    }


def per_layer(traced: list, untraced: list) -> dict:
    names = traced[0]["layers"].keys()
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in names}
    run_traced = statistics.median(r["run_s"] for r in traced)
    out["trace.run_s"] = run_traced
    out["trace.setup_s"] = statistics.median(r["setup_s"] for r in traced)
    out["trace.untraced_run_s"] = statistics.median(
        r["run_s"] for r in untraced)
    out["trace.overhead"] = run_traced / out["trace.untraced_run_s"]
    return out


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"]
                for m in json.load(fh)["per_layer"]}


# ----------------------------------------------------------------------
# Self-describing record
# ----------------------------------------------------------------------
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> str:
    """HEAD of the checkout's own ``.git``, without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    """Digest of every file under ``src/`` (the checkout may lack git)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def machine(load_at_start) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def append_record(record: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "records.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time or trace one perfbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measurement budget for this invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail(f"no program to measure: {SRC}/repro is missing")
    if args.workload not in workload_names():
        fail(f"unknown workload {args.workload!r}; "
             f"pick one of {workload_names()}")

    deadline = time.perf_counter() + DEADLINE_S
    load_at_start = list(os.getloadavg())
    doc = load_workload(args.workload)
    pinned_seed = doc["spec"]["seed"]
    seed = pinned_seed if args.seed is None else args.seed
    pinned = seed == pinned_seed

    if args.trace:
        untraced = repeat(args.workload, seed, False,
                          args.seconds / 3, 1, deadline)
        spent = sum(r["wall_s"] for r in untraced)
        traced = repeat(args.workload, seed, True,
                        args.seconds - spent, 1, deadline)
        reports = untraced + traced
    else:
        reports = repeat(args.workload, seed, False, args.seconds, 2,
                         deadline)
        untraced, traced = reports, []

    digest, failed = check(reports, doc.get("pin"), pinned)
    e2e = end_to_end(untraced)
    if args.trace:
        metrics = per_layer(traced, untraced)
        units = per_layer_units()
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
        units = UNITS

    print(f"workload {args.workload}  seed {seed}"
          f"{' (pinned)' if pinned else ''}  "
          f"repetitions {len(untraced)} untraced, {len(traced)} traced")
    print(f"digest {digest}  failed {failed}/{len(reports)}")
    for name in END_TO_END + UNGATED:
        print(f"  {name:<14} {e2e[name]:>14.6g} {UNITS[name]}")
    if args.trace:
        for name in sorted(metrics):
            print(f"  {name:<40} {metrics[name]:>14.6g} "
                  f"{units.get(name, '')}")

    append_record({
        "bench": "perfbench",
        "schema": 1,
        "time_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": seed,
        "pinned_seed": pinned,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(load_at_start),
        "commit": commit(),
        "source_sha256": source_sha256(),
        "digest": digest,
        "attempted": len(reports),
        "failed": failed,
        "end_to_end": e2e,
        "layers": metrics if args.trace else None,
        "repetitions": reports,
    })
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
