"""Operator CLI: serve a workload under synthetic client load.

``python -m repro.serving`` builds a packed
:class:`~repro.bnn.model.InferenceEngine` for the chosen network, wraps
it in an :class:`~repro.serving.service.InferenceService`, drives it
with closed-loop client threads (each submits one image, waits for its
logits, repeats), and prints a machine-readable stats snapshot (one JSON
line) every ``--stats-interval-s``.  The run ends after ``--requests``
completions, after ``--duration-s`` seconds, or on SIGTERM/SIGINT —
whichever comes first — and always drains in-flight work gracefully
before printing the final snapshot.

The flush-policy knobs default from the ``REPRO_SERVING_MAX_BATCH`` /
``REPRO_SERVING_MAX_DELAY_MS`` environment toggles so a fleet can be
re-tuned without editing unit files; explicit flags win.  See
``docs/serving.md`` for the tuning guide.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from typing import List, Optional

import numpy as np

from repro.bnn.model import InferenceEngine
from repro.bnn.networks import build_network, list_networks
from repro.serving.admission import CircuitBreaker, RateLimiter, RejectedError
from repro.serving.service import InferenceService
from repro.utils.rng import make_rng

#: environment defaults of the flush-policy knobs (flags win)
MAX_BATCH_ENV = "REPRO_SERVING_MAX_BATCH"
MAX_DELAY_ENV = "REPRO_SERVING_MAX_DELAY_MS"

#: distinct synthetic images the clients cycle through
_IMAGE_POOL = 128


def _env_default(name: str, fallback: float, cast) -> float:
    value = os.environ.get(name, "").strip()
    if not value:
        return fallback
    try:
        return cast(value)
    except ValueError as exc:
        raise SystemExit(f"{name}={value!r} is not a valid number") from exc


class _Client(threading.Thread):
    """Closed-loop synthetic client: submit, wait, think, repeat."""

    def __init__(self, index: int, service: InferenceService,
                 images: np.ndarray, stop: threading.Event,
                 budget: "_RequestBudget", think_s: float) -> None:
        super().__init__(name=f"repro-serving-client-{index}", daemon=True)
        self.service = service
        self.images = images
        self.stop_event = stop
        self.budget = budget
        self.think_s = think_s
        self.completed = 0
        self.rejected = 0
        self.errors = 0
        self._cursor = index  # de-phase the clients across the pool

    def run(self) -> None:
        while not self.stop_event.is_set() and self.budget.take():
            image = self.images[self._cursor % len(self.images)]
            self._cursor += 1
            try:
                self.service.submit(image).result(timeout=60.0)
                self.completed += 1
            except RejectedError:
                self.rejected += 1
                # admission said "not now": back off for one flush period
                self.stop_event.wait(self.service.batcher.max_delay_s or 1e-3)
            except Exception:  # noqa: BLE001 - keep driving under faults
                self.errors += 1
            if self.think_s > 0.0:
                self.stop_event.wait(self.think_s)


class _RequestBudget:
    """Thread-safe countdown of the total request budget (None =∞)."""

    def __init__(self, total: Optional[int]) -> None:
        self._remaining = total
        self._lock = threading.Lock()

    def take(self) -> bool:
        with self._lock:
            if self._remaining is None:
                return True
            if self._remaining <= 0:
                return False
            self._remaining -= 1
            return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--network", default="MLP-S", choices=list_networks(),
                        help="workload to serve (default: %(default)s)")
    parser.add_argument(
        "--max-batch", type=int,
        default=int(_env_default(MAX_BATCH_ENV, 32, int)),
        help=f"flush when this many requests are queued (default: "
             f"%(default)s, env {MAX_BATCH_ENV})")
    parser.add_argument(
        "--max-delay-ms", type=float,
        default=_env_default(MAX_DELAY_ENV, 5.0, float),
        help=f"flush when the oldest request waited this long (default: "
             f"%(default)s, env {MAX_DELAY_ENV})")
    parser.add_argument("--queue-capacity", type=int, default=256,
                        help="bounded request-queue size (default: %(default)s)")
    parser.add_argument("--deadline-budget-ms", type=float, default=None,
                        help="fast-reject when estimated wait exceeds this "
                             "(default: disabled)")
    parser.add_argument("--rate", type=float, default=None,
                        help="token-bucket rate limit, requests/sec "
                             "(default: unlimited)")
    parser.add_argument("--burst", type=int, default=None,
                        help="token-bucket burst size (default: ceil(rate))")
    parser.add_argument("--breaker-failures", type=int, default=3,
                        help="consecutive engine failures tripping the "
                             "circuit breaker (default: %(default)s)")
    parser.add_argument("--breaker-p99-ms", type=float, default=None,
                        help="p99 latency tripping the breaker (default: off)")
    parser.add_argument("--breaker-reset-s", type=float, default=5.0,
                        help="breaker cool-down before half-open probes "
                             "(default: %(default)s)")
    parser.add_argument("--clients", type=int, default=4,
                        help="closed-loop client threads (default: %(default)s)")
    parser.add_argument("--requests", type=int, default=512,
                        help="total request budget across clients; 0 means "
                             "unlimited (default: %(default)s)")
    parser.add_argument("--duration-s", type=float, default=None,
                        help="stop after this many seconds (default: until "
                             "the request budget is spent)")
    parser.add_argument("--think-ms", type=float, default=0.0,
                        help="per-client pause between requests (default: 0)")
    parser.add_argument("--stats-interval-s", type=float, default=1.0,
                        help="seconds between stats snapshots (default: "
                             "%(default)s)")
    parser.add_argument("--flip-rate", type=float, default=0.0,
                        help="per-popcount bit-flip rate of the engine "
                             "(default: 0 — bit-exact)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the synthetic images and flip noise")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.clients < 1:
        raise SystemExit("--clients must be >= 1")
    if args.requests < 0:
        raise SystemExit("--requests must be non-negative")

    model = build_network(args.network)
    engine = InferenceEngine(model, flip_rate=args.flip_rate, seed=args.seed)
    rng = make_rng(args.seed)
    images = rng.uniform(-1.0, 1.0,
                         size=(_IMAGE_POOL, *model.input_shape))

    limiter = RateLimiter(args.rate, args.burst) if args.rate else None
    breaker = CircuitBreaker(
        failure_threshold=args.breaker_failures,
        reset_timeout_s=args.breaker_reset_s,
        p99_threshold_ms=args.breaker_p99_ms,
    )
    service = InferenceService(
        engine, max_batch=args.max_batch, max_delay_ms=args.max_delay_ms,
        queue_capacity=args.queue_capacity,
        deadline_budget_ms=args.deadline_budget_ms,
        rate_limiter=limiter, circuit_breaker=breaker,
    )
    print(f"serving {args.network}: max_batch={args.max_batch} "
          f"max_delay_ms={args.max_delay_ms:g} "
          f"queue_capacity={args.queue_capacity} clients={args.clients}",
          flush=True)

    stop = threading.Event()

    def _handle_signal(signum, _frame) -> None:
        print(f"signal {signal.Signals(signum).name}: draining...",
              flush=True)
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _handle_signal)

    budget = _RequestBudget(args.requests if args.requests > 0 else None)
    clients = [
        _Client(index, service, images, stop, budget,
                think_s=args.think_ms / 1e3)
        for index in range(args.clients)
    ]
    started = time.monotonic()
    for client in clients:
        client.start()

    deadline = (started + args.duration_s
                if args.duration_s is not None else None)
    try:
        while any(client.is_alive() for client in clients):
            if deadline is not None and time.monotonic() >= deadline:
                stop.set()
            for client in clients:
                client.join(timeout=args.stats_interval_s / len(clients))
            if any(client.is_alive() for client in clients):
                print(json.dumps(service.stats(), sort_keys=True), flush=True)
    finally:
        stop.set()
        for client in clients:
            client.join(timeout=30.0)
        service.close(drain=True, timeout=30.0)

    final = service.stats()
    print(json.dumps(final, sort_keys=True), flush=True)
    completed = sum(client.completed for client in clients)
    rejected = sum(client.rejected for client in clients)
    errors = sum(client.errors for client in clients)
    elapsed = time.monotonic() - started
    print(f"done: {completed} completed, {rejected} rejected, "
          f"{errors} errors in {elapsed:.2f}s "
          f"({completed / max(elapsed, 1e-9):.1f} req/s)", flush=True)
    return 0 if errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
