"""Interleaved A/B of one perfbench workload: a git ref against the working tree.

The ref is extracted with ``git archive`` into ``.perfbench/ab-<commit>/``
(gitignored; reused when it already exists).  Each pair runs
``perfbench/run.py`` once in the ref's checkout and once in the working
tree, with seed ``i`` for pair ``i`` (1..N), alternating which side goes
first so host drift falls on both sides alike.  Per end-to-end metric of
``BENCHMARK.json`` the tool prints the median change/ref ratio, how many
pairs the change won, the median gap against the interquartile range (IQR)
of the ref's runs, and a verdict: ``WORSE`` when the median ratio is worse
than the metric's bound, ``unresolved`` when the ref's IQR is wider than
the bound relative to its median (the host's spread hides a change of that
size), ``ok`` otherwise.  ``ok`` is a no-regression reading, not a gain: a
gain also needs the change to win nearly every pair and a median gap wider
than the ref's IQR.

Run from the repo root::

    python tools/perfbench_ab.py --workload sweep_analytic --ref HEAD --pairs 10

Every run must report ``correct: true``; the tool exits 1 otherwise, and 2
when a metric's median is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(REPO_ROOT, ".perfbench")


def extract_ref(ref: str) -> str:
    """Checkout directory of ``ref``, extracted with ``git archive`` once."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=REPO_ROOT,
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    target = os.path.join(WORKDIR, f"ab-{commit[:12]}")
    if not os.path.isdir(target):
        partial = target + ".partial"
        os.makedirs(partial, exist_ok=True)
        archive = subprocess.run(["git", "archive", commit], cwd=REPO_ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", partial], input=archive,
                       check=True)
        os.replace(partial, target)
    return target


def run_once(checkout: str, workload: str, seed: int,
             seconds: float) -> Dict[str, float]:
    """End-to-end metric values of one perfbench run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not result.get("correct") or result.get("failed"):
        raise SystemExit(f"run failed in {checkout} (seed {seed}, exit "
                         f"{proc.returncode}): {proc.stderr[-2000:]}")
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def quartile_gap(values: List[float]) -> float:
    """Distance between the first and third quartiles (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(metrics: List[Dict[str, object]], ref_runs: List[Dict],
              new_runs: List[Dict]) -> List[Dict[str, object]]:
    """Per-metric median ratio, wins and verdict of paired runs."""
    rows = []
    for metric in metrics:
        name, bound = metric["name"], float(metric["bound"])
        higher = metric["better"] == "higher"
        pairs = [(r[name], n[name]) for r, n in zip(ref_runs, new_runs)
                 if name in r and name in n]
        if not pairs:
            continue
        ratios = [n / r if r else float("inf") for r, n in pairs]
        wins = sum((n > r) if higher else (n < r) for r, n in pairs)
        ratio = statistics.median(ratios)
        worse = ratio < 1 - bound if higher else ratio > 1 + bound
        ref_values = [r for r, _ in pairs]
        ref_median = statistics.median(ref_values)
        gap = statistics.median([n for _, n in pairs]) - ref_median
        ref_iqr = quartile_gap(ref_values)
        if worse:
            verdict = "WORSE"
        elif ref_iqr > bound * abs(ref_median):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({
            "metric": name, "better": metric["better"], "bound": bound,
            "median_ratio": ratio, "wins": wins, "pairs": len(pairs),
            "median_gap": gap, "ref_iqr": ref_iqr, "verdict": verdict,
        })
    return rows


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="perfbench workload name")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="interleaved run pairs, one seed each")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="perfbench --seconds per run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    ref_checkout = extract_ref(args.ref)
    ref_runs: List[Dict[str, float]] = []
    new_runs: List[Dict[str, float]] = []
    for pair in range(args.pairs):
        seed = pair + 1
        sides = [(ref_checkout, ref_runs), (REPO_ROOT, new_runs)]
        for checkout, runs in sides if pair % 2 == 0 else sides[::-1]:
            runs.append(run_once(checkout, args.workload, seed, args.seconds))
        print(f"pair {pair + 1}/{args.pairs} (seed {seed}) done",
              file=sys.stderr, flush=True)

    rows = summarise(metrics, ref_runs, new_runs)
    print(f"{args.workload}: working tree vs {args.ref}, "
          f"{args.pairs} interleaved pairs, {args.seconds:g} s per run")
    print(f"{'metric':<20} {'better':<7} {'median ratio':>12} {'wins':>6} "
          f"{'median gap':>12} {'ref IQR':>10} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['metric']:<20} {row['better']:<7} "
              f"{row['median_ratio']:>11.3f}x {row['wins']:>3}/{row['pairs']:<2} "
              f"{row['median_gap']:>12.4g} {row['ref_iqr']:>10.4g} "
              f"{row['bound']:>6.2f}  {row['verdict']}")
    return 2 if any(row["verdict"] == "WORSE" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
