"""The assembled serving front door: admission → micro-batcher → engine.

:class:`InferenceService` is what operators run (and what
``python -m repro.serving`` wraps): one compiled
:class:`~repro.bnn.model.InferenceEngine`, one
:class:`~repro.serving.batcher.MicroBatcher`, one
:class:`~repro.serving.metrics.ServingMetrics`, and the admission gates
of :mod:`repro.serving.admission` composed in front of ``submit`` in
cheapest-first order:

1. closed check (draining services accept nothing),
2. circuit breaker (shed while the engine errors or p99 is breached),
3. token-bucket rate limiter,
4. wait-budget fast-reject (estimated queue wait vs the deadline
   budget),
5. the batcher's own bounded-queue capacity check.

Every gate raises a distinct
:class:`~repro.serving.admission.RejectedError` subclass and is counted
per reason in the metrics, so backpressure is observable, not silent.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Callable, Dict, Optional

import numpy as np

from repro.serving.admission import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineError,
    RateLimitedError,
    RateLimiter,
    RejectedError,
    ServiceClosedError,
    estimate_wait_s,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.metrics import ServingMetrics

#: streaming p99 is only fed to the breaker once the window holds this
#: many samples — a handful of warm-up requests must not trip it
DEFAULT_MIN_P99_SAMPLES = 32


class InferenceService:
    """Long-lived online inference over one shared packed engine.

    Parameters
    ----------
    engine:
        The compiled :class:`~repro.bnn.model.InferenceEngine` (or any
        object honouring its ``forward_batch`` contract).
    max_batch / max_delay_ms / queue_capacity:
        The flush policy and queue bound, forwarded to
        :class:`~repro.serving.batcher.MicroBatcher`.
    deadline_budget_ms:
        Fast-reject budget: a submission whose *estimated* queue wait
        (see :func:`~repro.serving.admission.estimate_wait_s`) exceeds
        this is refused immediately.  ``None`` disables the gate.
    rate_limiter / circuit_breaker:
        Optional :class:`~repro.serving.admission.RateLimiter` /
        :class:`~repro.serving.admission.CircuitBreaker` instances; both
        gates are skipped when omitted.  The breaker is wired to the
        batcher's per-flush outcomes and to the streaming p99.
    min_p99_samples:
        Latency-window population required before p99 feeds the breaker.
    metrics:
        Injectable :class:`~repro.serving.metrics.ServingMetrics`.
    clock:
        Injectable monotonic clock, shared with every component built
        here.
    """

    def __init__(self, engine, *, max_batch: int = 32,
                 max_delay_ms: float = 5.0, queue_capacity: int = 256,
                 deadline_budget_ms: Optional[float] = None,
                 rate_limiter: Optional[RateLimiter] = None,
                 circuit_breaker: Optional[CircuitBreaker] = None,
                 min_p99_samples: int = DEFAULT_MIN_P99_SAMPLES,
                 metrics: Optional[ServingMetrics] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if deadline_budget_ms is not None and deadline_budget_ms <= 0.0:
            raise ValueError("deadline_budget_ms must be positive")
        self.engine = engine
        self.metrics = metrics if metrics is not None else \
            ServingMetrics(clock=clock)
        self.rate_limiter = rate_limiter
        self.circuit_breaker = circuit_breaker
        self.deadline_budget_s = (float(deadline_budget_ms) / 1e3
                                  if deadline_budget_ms is not None else None)
        self.min_p99_samples = int(min_p99_samples)
        self.batcher = MicroBatcher(
            engine, max_batch=max_batch, max_delay_ms=max_delay_ms,
            queue_capacity=queue_capacity, metrics=self.metrics,
            after_batch=self._after_batch, clock=clock,
        )

    # ------------------------------------------------------------------ #
    # Breaker feedback from the dispatcher
    # ------------------------------------------------------------------ #
    def _after_batch(self, ok: bool) -> None:
        breaker = self.circuit_breaker
        if breaker is None:
            return
        if ok:
            breaker.record_success()
            breaker.record_p99(self.metrics.p99_ms(self.min_p99_samples))
        else:
            breaker.record_failure()

    # ------------------------------------------------------------------ #
    # Client surface
    # ------------------------------------------------------------------ #
    def submit(self, image: np.ndarray) -> Future:
        """Admit one image and return the future of its logits row.

        Raises a :class:`~repro.serving.admission.RejectedError`
        subclass when any admission gate refuses; each rejection is
        counted per reason in :meth:`stats`.
        """
        try:
            if self.batcher.closed:
                raise ServiceClosedError("the service is closed")
            if self.circuit_breaker is not None \
                    and not self.circuit_breaker.allow():
                raise CircuitOpenError(
                    f"circuit open "
                    f"(cause: {self.circuit_breaker.last_trip_cause})"
                )
            if self.rate_limiter is not None \
                    and not self.rate_limiter.try_acquire():
                raise RateLimitedError(
                    f"over the {self.rate_limiter.rate_per_s:g} req/s budget"
                )
            if self.deadline_budget_s is not None:
                estimate = self.estimate_wait_s()
                if estimate > self.deadline_budget_s:
                    raise DeadlineError(
                        f"estimated wait {estimate * 1e3:.1f} ms exceeds the "
                        f"{self.deadline_budget_s * 1e3:.1f} ms budget"
                    )
            return self.batcher.submit(image)
        except RejectedError as exc:
            self.metrics.record_reject(exc.reason)
            raise

    def predict(self, image: np.ndarray, *,
                timeout: Optional[float] = None) -> int:
        """Blocking convenience: submit one image, return its arg-max."""
        logits = self.submit(image).result(timeout=timeout)
        return int(np.argmax(logits))

    def estimate_wait_s(self) -> float:
        """Projected queue wait of the next admitted request."""
        return estimate_wait_s(
            self.batcher.queue_depth(),
            max_batch=self.batcher.max_batch,
            max_delay_s=self.batcher.max_delay_s,
            ewma_rps=self.metrics.ewma_throughput_rps(),
        )

    def stats(self) -> Dict[str, object]:
        """The metrics snapshot plus admission/backpressure state."""
        snapshot = self.metrics.stats()
        admission: Dict[str, object] = {
            "queue_capacity": self.batcher.queue_capacity,
            "max_batch": self.batcher.max_batch,
            "max_delay_ms": self.batcher.max_delay_s * 1e3,
            "deadline_budget_ms": (self.deadline_budget_s * 1e3
                                   if self.deadline_budget_s is not None
                                   else None),
            "estimated_wait_ms": self.estimate_wait_s() * 1e3,
        }
        if self.rate_limiter is not None:
            admission["rate_limiter"] = {
                "rate_per_s": self.rate_limiter.rate_per_s,
                "burst": self.rate_limiter.burst,
                "tokens": self.rate_limiter.available(),
            }
        if self.circuit_breaker is not None:
            admission["circuit_breaker"] = {
                "state": self.circuit_breaker.state,
                "trips": self.circuit_breaker.trips,
                "last_trip_cause": self.circuit_breaker.last_trip_cause,
            }
        snapshot["admission"] = admission
        return snapshot

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, *, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Stop admitting; drain (default) or fail the queued requests."""
        self.batcher.close(drain=drain, timeout=timeout)

    @property
    def closed(self) -> bool:
        return self.batcher.closed

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InferenceService({self.batcher!r}, "
                f"breaker={self.circuit_breaker is not None}, "
                f"limiter={self.rate_limiter is not None})")
