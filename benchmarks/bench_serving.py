#!/usr/bin/env python
"""Serving-layer benchmark: flush policy (max_batch x max_delay) sweep.

Drives a live :class:`repro.serving.InferenceService` with closed-loop
client threads — each submits one image, waits for its logits and
immediately submits the next — across a grid of flush policies, and
records requests/sec plus p50/p95/p99 end-to-end latency per policy into
``BENCH_serving.json`` at the repo root (``--smoke`` writes the
``BENCH_serving.smoke.json`` sibling CI uploads and gates via
``benchmarks/perf_thresholds.json``).

Policy keys are dot-free (``b8_d2000us`` = max_batch 8, max_delay 2 ms)
so the perf gate's dotted metric paths can address them.  Unlike the
pytest-benchmark suites this is a plain script — a concurrent
closed-loop benchmark has nothing useful to hand to a single-function
timing loop::

    PYTHONPATH=src python benchmarks/bench_serving.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bnn.model import InferenceEngine
from repro.bnn.networks import build_network, list_networks
from repro.eval.reporting import host_info, write_json_report
from repro.serving import InferenceService, RejectedError
from repro.utils.rng import make_rng

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the checked-in full-run artifact; smoke runs write a sibling file so the
#: CI smoke job never clobbers the committed full-scale measurements
ARTIFACT_PATH = os.path.join(REPO_ROOT, "BENCH_serving.json")
SMOKE_ARTIFACT_PATH = os.path.join(REPO_ROOT, "BENCH_serving.smoke.json")

#: the acceptance grid: at least 3x3 (max_batch x max_delay_ms)
FULL_GRID_BATCH = (1, 8, 32)
FULL_GRID_DELAY_MS = (0.5, 2.0, 8.0)

FULL_NETWORK = "MLP-L"
FULL_CLIENTS = 16
FULL_REQUESTS = 2048

SMOKE_NETWORK = "MLP-S"
SMOKE_CLIENTS = 8
SMOKE_REQUESTS = 256

#: distinct synthetic images the clients cycle through
IMAGE_POOL = 128


def policy_key(max_batch: int, max_delay_ms: float) -> str:
    """Dot-free policy name (delay in whole microseconds)."""
    return f"b{max_batch}_d{int(round(max_delay_ms * 1000))}us"


class _Countdown:
    """Thread-safe shared request budget for the closed-loop clients."""

    def __init__(self, total: int) -> None:
        self._remaining = total
        self._lock = threading.Lock()

    def take(self) -> bool:
        with self._lock:
            if self._remaining <= 0:
                return False
            self._remaining -= 1
            return True


def _drive(service: InferenceService, images: np.ndarray, *,
           clients: int, total_requests: int) -> Dict[str, int]:
    """Run the closed loop to exhaustion; returns completion counters."""
    budget = _Countdown(total_requests)
    counters = {"completed": 0, "rejected": 0}
    lock = threading.Lock()

    def loop(offset: int) -> None:
        cursor = offset  # de-phase the clients across the image pool
        completed = rejected = 0
        while budget.take():
            image = images[cursor % len(images)]
            cursor += 1
            try:
                service.submit(image).result(timeout=60.0)
                completed += 1
            except RejectedError:
                rejected += 1
        with lock:
            counters["completed"] += completed
            counters["rejected"] += rejected

    threads = [threading.Thread(target=loop, args=(index,), daemon=True)
               for index in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return counters


def run_policy(engine: InferenceEngine, images: np.ndarray, *,
               max_batch: int, max_delay_ms: float, clients: int,
               total_requests: int, queue_capacity: int = 1024
               ) -> Dict[str, object]:
    """Measure one flush policy under closed-loop load."""
    with InferenceService(engine, max_batch=max_batch,
                          max_delay_ms=max_delay_ms,
                          queue_capacity=queue_capacity) as service:
        started = time.monotonic()
        counters = _drive(service, images, clients=clients,
                          total_requests=total_requests)
        elapsed = time.monotonic() - started
        stats = service.stats()
    latency = stats["latency_ms"]
    batches = stats["batches"]
    return {
        "max_batch": max_batch,
        "max_delay_ms": max_delay_ms,
        "clients": clients,
        "requests": total_requests,
        "completed": counters["completed"],
        "rejected": counters["rejected"],
        "elapsed_s": elapsed,
        "requests_per_s": counters["completed"] / max(elapsed, 1e-9),
        "p50_ms": latency["p50"],
        "p95_ms": latency["p95"],
        "p99_ms": latency["p99"],
        "mean_batch_occupancy": batches["mean_occupancy"],
        "batch_count": batches["count"],
        "flush_triggers": batches["flush_triggers"],
    }


def run_sweep(*, network: str, clients: int, requests: int,
              grid_batch: Sequence[int], grid_delay_ms: Sequence[float],
              smoke: bool, seed: int = 0) -> Dict[str, object]:
    """The full policy grid over one shared engine; returns the payload."""
    model = build_network(network)
    engine = InferenceEngine(model, seed=seed)
    rng = make_rng(seed)
    images = rng.uniform(-1.0, 1.0, size=(IMAGE_POOL, *model.input_shape))
    # warm the pack caches and BLAS pools outside the measured loops, and
    # pin the exactness baseline the served path must reproduce
    direct = engine.forward_batch(images, batch_size=len(images))
    direct_pred = direct.argmax(axis=1)

    policies: Dict[str, Dict[str, object]] = {}
    for max_batch in grid_batch:
        for max_delay_ms in grid_delay_ms:
            key = policy_key(max_batch, max_delay_ms)
            result = run_policy(
                engine, images, max_batch=max_batch,
                max_delay_ms=max_delay_ms, clients=clients,
                total_requests=requests,
            )
            policies[key] = result
            print(f"{key:>12s}: {result['requests_per_s']:8.1f} req/s  "
                  f"p50 {result['p50_ms']:7.2f} ms  "
                  f"p99 {result['p99_ms']:7.2f} ms  "
                  f"occupancy {result['mean_batch_occupancy']:.2f}",
                  flush=True)

    # served predictions must match the direct engine (noise-free engine,
    # one policy of each flavour) — the fine-grained property tests live
    # in tests/serving/, this is the bench's own sanity gate
    for max_batch, max_delay_ms in ((grid_batch[0], grid_delay_ms[-1]),
                                    (grid_batch[-1], grid_delay_ms[0])):
        with InferenceService(engine, max_batch=max_batch,
                              max_delay_ms=max_delay_ms) as service:
            futures = [service.submit(image) for image in images]
            served = np.stack([f.result(timeout=60.0) for f in futures])
        if not np.array_equal(served.argmax(axis=1), direct_pred):
            raise AssertionError(
                f"served predictions diverged from the direct engine under "
                f"policy b{max_batch}/d{max_delay_ms}"
            )

    best_key = max(policies, key=lambda k: policies[k]["requests_per_s"])
    best = policies[best_key]

    return {
        "smoke": smoke,
        "host": host_info(),
        "network": network,
        "clients": clients,
        "requests_per_policy": requests,
        "grid": {
            "max_batch": list(grid_batch),
            "max_delay_ms": list(grid_delay_ms),
        },
        "policies": policies,
        "best": {
            "policy": best_key,
            "max_batch": best["max_batch"],
            "max_delay_ms": best["max_delay_ms"],
            "requests_per_s": best["requests_per_s"],
            "p50_ms": best["p50_ms"],
            "p99_ms": best["p99_ms"],
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized configuration; writes the .smoke.json "
                             "artifact sibling")
    parser.add_argument("--network", default=None, choices=list_networks(),
                        help="override the benched workload")
    parser.add_argument("--clients", type=int, default=None,
                        help="override the closed-loop client count")
    parser.add_argument("--requests", type=int, default=None,
                        help="override the per-policy request budget")
    parser.add_argument("--output", default=None,
                        help="override the artifact path")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the synthetic image pool")
    args = parser.parse_args(argv)

    network = args.network or (SMOKE_NETWORK if args.smoke else FULL_NETWORK)
    clients = args.clients or (SMOKE_CLIENTS if args.smoke else FULL_CLIENTS)
    requests = args.requests or (SMOKE_REQUESTS if args.smoke
                                 else FULL_REQUESTS)
    print(f"serving bench: {network}, {clients} clients, "
          f"{requests} requests/policy, "
          f"grid {len(FULL_GRID_BATCH)}x{len(FULL_GRID_DELAY_MS)}",
          flush=True)
    payload = run_sweep(
        network=network, clients=clients, requests=requests,
        grid_batch=FULL_GRID_BATCH, grid_delay_ms=FULL_GRID_DELAY_MS,
        smoke=args.smoke, seed=args.seed,
    )
    artifact = args.output or (SMOKE_ARTIFACT_PATH if args.smoke
                               else ARTIFACT_PATH)
    write_json_report(artifact, payload)
    best = payload["best"]
    print(f"best policy {best['policy']}: {best['requests_per_s']:.1f} req/s "
          f"(p99 {best['p99_ms']:.2f} ms)")
    print(f"wrote {artifact}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
