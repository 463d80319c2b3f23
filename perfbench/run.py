"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_analytic --seed 1 --seconds 20 --trace 0

``--trace 0`` measures every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs a separate traced measurement and reports every
per-layer metric.  The work runs in child processes (``child.py``) started
with a pinned environment; this process aggregates their estimates by
median, prints a detail line (host, per-phase figures, the paper-fidelity
table) and, last, one JSON result line.  Any failed correctness check
turns the run into an error: the result line carries ``correct: false``
and no metrics, and the exit code is 1.  See ``README.md`` here for the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import spec as bench_spec  # noqa: E402

#: whole-run deadline; the contract allows 180 s
RUN_DEADLINE_S = 170.0
#: set-up samples per measured run (children spawned for set-up alone)
SETUP_SAMPLES = 3

#: the paper's reported figures: (headline key, paper value, label)
PAPER_FIGURES = (
    ("tacitmap_max", 154.0, "TacitMap-ePCM max speedup (x)"),
    ("tacitmap_avg", 78.0, "TacitMap-ePCM avg speedup (x)"),
    ("einsteinbarrier_max", 3113.0, "EinsteinBarrier max speedup (x)"),
    ("einsteinbarrier_avg", 1205.0, "EinsteinBarrier avg speedup (x)"),
    ("tacitmap_energy_ratio", 5.35, "TacitMap-ePCM energy vs baseline"),
    ("einsteinbarrier_energy_ratio", 0.64, "EinsteinBarrier energy vs baseline"),
)
#: the paper bounds EinsteinBarrier's energy overhead at 60%
PAPER_ENERGY_OVERHEAD = 0.60


def child_env() -> Dict[str, str]:
    """The environment of every child: no foreign ``REPRO_*`` settings.

    The engine configuration is pinned, so two checkouts measure the same
    kernels.  The autotune cache is off: its measured dispatch boundary
    and conv block size swing between processes on a shared host, so the
    built-in defaults are used.  The streaming pipeline is always on for
    multi-chunk ``forward_batch`` calls: its ``auto`` verdict is itself a
    timing and flips between processes.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "REPRO_AUTOTUNE_CACHE": "off",
        "REPRO_ENGINE_PIPELINE": "on",
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def host_info() -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "effective_cpus": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


class Runner:
    """Spawns children within the run deadline and collects their output."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.results: List[dict] = []

    def spawn(self, *, mode: str = "measure", budget: float = 0.0,
              trace: int = 0) -> None:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--budget", repr(budget), "--trace", str(trace),
               "--mode", mode, "--workdir", WORKDIR,
               "--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=remaining,
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1])
        except (IndexError, ValueError):
            out = {"error": f"child exited {proc.returncode} without a result"}
        out["mode"], out["trace"] = mode, trace
        self.results.append(out)

    def errors(self) -> List[str]:
        return [r["error"] for r in self.results if "error" in r]


def collect(runner: Runner) -> None:
    args = runner.args
    if args.trace:
        runner.spawn(budget=args.seconds / 2)
        runner.spawn(budget=args.seconds / 2, trace=1)
        return
    runner.spawn(budget=args.seconds)
    for _ in range(SETUP_SAMPLES - 1):
        if runner.errors():
            break
        runner.spawn(mode="setup")


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def aggregate(runner: Runner, spec: dict) -> Dict[str, float]:
    measured = [r for r in runner.results
                if r["mode"] == "measure" and not r["trace"]]
    if runner.args.trace:
        traced = [r for r in runner.results if r["trace"]]
        values = {}
        for name in bench_spec.metric_names(spec, trace=True):
            values[name] = median([r["per_layer"][name] for r in traced])
        untraced_wall = median([w for r in measured
                                for w in r["estimates"]["main_wall"]])
        traced_wall = median([w for r in traced
                              for w in r["estimates"]["main_wall"]])
        values["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
        return values
    values = {"setup_s": median([r["setup_s"] for r in runner.results]),
              "peak_rss_mb": median([r["rss_mb"] for r in measured])}
    for name in bench_spec.metric_names(spec, trace=False):
        if name not in values:
            values[name] = median([v for r in measured
                                   for v in r["estimates"][name]])
    return values


def fidelity_table(headline: Dict[str, float]) -> List[str]:
    """The simulated headline numbers beside the paper's."""
    lines = [f"{'paper figure':38s} {'simulated':>10s} {'paper':>8s} "
             f"{'rel.err':>8s}"]
    for key, paper, label in PAPER_FIGURES:
        value = headline[key]
        lines.append(f"{label:38s} {value:10.2f} {paper:8.2f} "
                     f"{(value - paper) / paper:+8.1%}")
    overhead = headline["einsteinbarrier_energy_ratio"] - 1.0
    lines.append(f"{'EinsteinBarrier energy overhead':38s} {overhead:+10.1%} "
                 f"{'<=' + format(PAPER_ENERGY_OVERHEAD, '.0%'):>8s} "
                 f"{'within' if overhead <= PAPER_ENERGY_OVERHEAD else 'OVER':>8s}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = bench_spec.load(spec_path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {spec_path}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no src/repro in this checkout; run the benchmark from "
              "the root of a full checkout", file=sys.stderr)
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    for stale in os.listdir(WORKDIR):
        if stale.startswith("sharded-"):
            shutil.rmtree(os.path.join(WORKDIR, stale), ignore_errors=True)
    runner = Runner(args)
    try:
        collect(runner)
    except (TimeoutError, subprocess.TimeoutExpired) as exc:
        runner.results.append({"error": f"timed out: {exc}", "mode": "",
                               "trace": 0})

    attempted = sum(r.get("attempted", 0) for r in runner.results)
    failed = sum(r.get("failed", 0) for r in runner.results)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host_info(),
        "children": [{k: r[k] for k in ("mode", "trace", "setup_s", "engine",
                                         "rss_mb", "estimates", "detail",
                                         "layer_shares", "spans")
                      if k in r} for r in runner.results],
    }
    errors = runner.errors()
    if errors:
        detail["errors"] = errors
        print(json.dumps(detail))
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": max(1, failed), "metrics": {}}))
        return 1
    headline = next((r["detail"]["headline"] for r in runner.results
                     if "headline" in r.get("detail", {})), None)
    if headline is not None:
        print("\n".join(fidelity_table(headline)))
    print(json.dumps(detail))
    values = aggregate(runner, spec)
    print(json.dumps(bench_spec.result_line(
        spec, trace=bool(args.trace), correct=True, attempted=attempted,
        failed=failed, values=values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
