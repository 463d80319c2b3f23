"""Micro-batching front door over :class:`~repro.bnn.model.InferenceEngine`.

Concurrent producers call :meth:`MicroBatcher.submit` with one image
each; a single dispatcher thread coalesces the bounded request queue
into packed micro-batches and runs each through
``engine.forward_batch(batch, batch_size=len(batch))`` — one contiguous
chunk, exactly as a direct caller would — then fans the per-request rows
back out through :class:`concurrent.futures.Future` objects.

A flush fires when either

* **size** — ``max_batch`` requests are waiting (throughput bound), or
* **deadline** — the *oldest* queued request has waited ``max_delay_ms``
  (latency bound), or
* **drain** — the batcher is closing and flushes whatever remains.

Transport exactness is the core guarantee, and it is property-tested:
the rows a future resolves to are byte-identical to calling
``engine.forward_batch`` directly on the flushed stack (the batcher adds
zero numerical artifacts, flip-noise engines included).  Because the
engine derives flip-noise streams from chunk offsets and the dense
first/last layers inherit BLAS's shape-dependent rounding, *logits* may
differ in the last ulp between different flush compositions — arg-max
predictions are composition-independent in practice, which is the
cross-policy property the serving tests pin down.  The
:meth:`flush_log` records which requests shared each batch so tests (and
operators) can replay any served batch directly.

The batcher is transport only: admission control (queue budget
fast-reject, rate limiting, circuit breaking) lives in
:mod:`repro.serving.admission` and is composed in front of ``submit`` by
:class:`repro.serving.service.InferenceService`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.admission import QueueFullError, ServiceClosedError
from repro.serving.metrics import RequestTimestamps, ServingMetrics

#: flush triggers recorded into the metrics and the flush log
TRIGGER_SIZE = "size"
TRIGGER_DEADLINE = "deadline"
TRIGGER_DRAIN = "drain"

#: default bound of the in-memory flush log (old entries age out)
DEFAULT_FLUSH_LOG = 256


@dataclass(frozen=True)
class FlushRecord:
    """One flushed micro-batch, for replay/debugging.

    ``request_ids`` are the monotonically increasing ids assigned at
    submit (also set as the ``request_id`` attribute of each returned
    future), in batch-row order — row ``i`` of the flushed stack was
    request ``request_ids[i]``.  Replaying
    ``engine.forward_batch(stack, batch_size=size)`` reproduces the
    served rows byte-for-byte.
    """

    request_ids: Tuple[int, ...]
    trigger: str
    ok: bool

    @property
    def size(self) -> int:
        return len(self.request_ids)


class _Request:
    """One queued request: its image, future, stamps and id."""

    __slots__ = ("image", "future", "stamps", "request_id")

    def __init__(self, image: np.ndarray, future: Future,
                 stamps: RequestTimestamps, request_id: int) -> None:
        self.image = image
        self.future = future
        self.stamps = stamps
        self.request_id = request_id


class MicroBatcher:
    """Deadline-flushed micro-batching over a shared inference engine.

    Parameters
    ----------
    engine:
        Anything with ``forward_batch(x, batch_size=...)`` — in
        production an :class:`~repro.bnn.model.InferenceEngine` (the
        thread-safety contract documented there is what makes one shared
        engine safe here); tests inject slow/failing stubs.
    max_batch:
        Flush as soon as this many requests are queued; also the size
        cap of every flushed batch.
    max_delay_ms:
        Flush when the oldest queued request has waited this long —
        the per-request latency the operator trades for occupancy.
    queue_capacity:
        Bound of the request queue; :meth:`submit` raises
        :class:`~repro.serving.admission.QueueFullError` beyond it
        instead of blocking (backpressure surfaces at the caller).
    input_shape:
        Expected per-sample shape.  Defaults to the engine model's
        ``input_shape``; submissions with any other shape are rejected
        before they can poison a whole batch.
    metrics:
        A :class:`~repro.serving.metrics.ServingMetrics` to stamp
        requests into (a private one is created when omitted).
    after_batch:
        Optional ``callable(ok: bool)`` invoked after every flush —
        the seam the service's circuit breaker listens on.
    flush_log:
        How many recent :class:`FlushRecord` entries to retain.
    clock:
        Injectable monotonic clock shared with the metrics.
    """

    def __init__(self, engine, *, max_batch: int = 32,
                 max_delay_ms: float = 5.0, queue_capacity: int = 256,
                 input_shape: Optional[Sequence[int]] = None,
                 metrics: Optional[ServingMetrics] = None,
                 after_batch: Optional[Callable[[bool], None]] = None,
                 flush_log: int = DEFAULT_FLUSH_LOG,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_ms < 0.0:
            raise ValueError("max_delay_ms must be non-negative")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if flush_log < 1:
            raise ValueError("flush_log must be >= 1")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_ms) / 1e3
        self.queue_capacity = int(queue_capacity)
        if input_shape is None:
            model = getattr(engine, "model", None)
            input_shape = getattr(model, "input_shape", None)
        self.input_shape = (tuple(int(d) for d in input_shape)
                            if input_shape is not None else None)
        self.metrics = metrics if metrics is not None else \
            ServingMetrics(clock=clock)
        self._after_batch = after_batch
        self._clock = clock
        self._cond = threading.Condition()
        self._pending: Deque[_Request] = deque()
        self._next_id = 0
        self._closed = False
        self._drain_on_close = True
        self._flush_log: Deque[FlushRecord] = deque(maxlen=int(flush_log))
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serving-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def submit(self, image: np.ndarray) -> Future:
        """Enqueue one image; the future resolves to its logits row.

        Never blocks: a full queue raises
        :class:`~repro.serving.admission.QueueFullError`, a closed
        batcher :class:`~repro.serving.admission.ServiceClosedError`.
        The returned future carries the assigned ``request_id``
        attribute, matching :meth:`flush_log` entries.
        """
        x = np.asarray(image)
        if self.input_shape is not None and tuple(x.shape) != self.input_shape:
            raise ValueError(
                f"expected one sample of shape {self.input_shape}, got "
                f"{tuple(x.shape)} (batching is the service's job)"
            )
        future: Future = Future()
        with self._cond:
            if self._closed:
                raise ServiceClosedError("the batcher is closed")
            if len(self._pending) >= self.queue_capacity:
                raise QueueFullError(
                    f"request queue at capacity ({self.queue_capacity})"
                )
            stamps = self.metrics.record_enqueue(len(self._pending) + 1)
            request = _Request(x, future, stamps, self._next_id)
            future.request_id = self._next_id
            self._next_id += 1
            self._pending.append(request)
            self._cond.notify_all()
        return future

    def queue_depth(self) -> int:
        """Number of requests currently waiting for a flush."""
        with self._cond:
            return len(self._pending)

    def flush_log(self) -> List[FlushRecord]:
        """Recent flushed batches, oldest first (bounded window)."""
        with self._cond:
            return list(self._flush_log)

    # ------------------------------------------------------------------ #
    # Dispatcher side
    # ------------------------------------------------------------------ #
    def _take_batch(self) -> Tuple[Optional[List[_Request]], str, int]:
        """Block until a flush is due; pop it.  ``(None, ..)`` = shut down."""
        with self._cond:
            while True:
                if self._pending:
                    if len(self._pending) >= self.max_batch:
                        trigger = TRIGGER_SIZE
                        break
                    if self._closed:
                        trigger = TRIGGER_DRAIN
                        break
                    now = self._clock()
                    oldest = self._pending[0].stamps.enqueue
                    deadline = oldest + self.max_delay_s
                    if now >= deadline:
                        trigger = TRIGGER_DEADLINE
                        break
                    self._cond.wait(timeout=deadline - now)
                else:
                    if self._closed:
                        return None, "", 0
                    self._cond.wait()
            size = min(self.max_batch, len(self._pending))
            batch = [self._pending.popleft() for _ in range(size)]
            if self._closed and not self._drain_on_close:
                for request in batch:
                    request.future.set_exception(
                        ServiceClosedError("closed without draining"))
                return self._take_batch_tail()
            return batch, trigger, len(self._pending)

    def _take_batch_tail(self) -> Tuple[Optional[List[_Request]], str, int]:
        """Continue the non-draining close: fail everything left."""
        while self._pending:
            self._pending.popleft().future.set_exception(
                ServiceClosedError("closed without draining"))
        return None, "", 0

    def _dispatch_loop(self) -> None:
        while True:
            batch, trigger, depth_after = self._take_batch()
            if batch is None:
                return
            self._flush(batch, trigger, depth_after)

    def _flush(self, batch: List[_Request], trigger: str,
               depth_after: int) -> None:
        stamps = [request.stamps for request in batch]
        self.metrics.record_flush(stamps, queue_depth=depth_after,
                                  trigger=trigger)
        stack = np.stack([request.image for request in batch])
        try:
            logits = self.engine.forward_batch(stack, batch_size=len(batch))
        except Exception as exc:  # noqa: BLE001 - futures carry the cause
            self.metrics.record_batch_done(stamps, max_batch=self.max_batch,
                                           failed=True)
            self._log_flush(batch, trigger, ok=False)
            # the hook runs before the futures resolve so a client that
            # observed the outcome sees the breaker already updated
            if self._after_batch is not None:
                self._after_batch(False)
            for request in batch:
                request.future.set_exception(exc)
            return
        self.metrics.record_batch_done(stamps, max_batch=self.max_batch)
        self._log_flush(batch, trigger, ok=True)
        if self._after_batch is not None:
            self._after_batch(True)
        for row, request in enumerate(batch):
            # a private row copy: futures must not alias one shared batch
            # output (or each other) once handed to client threads
            request.future.set_result(np.array(logits[row]))

    def _log_flush(self, batch: List[_Request], trigger: str, *,
                   ok: bool) -> None:
        record = FlushRecord(
            request_ids=tuple(request.request_id for request in batch),
            trigger=trigger, ok=ok,
        )
        with self._cond:
            self._flush_log.append(record)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work; by default flush everything in flight.

        ``drain=True`` (the default) lets the dispatcher flush every
        queued request — their futures resolve normally — before the
        thread exits.  ``drain=False`` fails queued requests with
        :class:`~repro.serving.admission.ServiceClosedError` instead.
        Idempotent; ``timeout`` bounds the join.
        """
        with self._cond:
            self._closed = True
            self._drain_on_close = bool(drain)
            self._cond.notify_all()
        self._dispatcher.join(timeout)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MicroBatcher(max_batch={self.max_batch}, "
                f"max_delay_ms={self.max_delay_s * 1e3:g}, "
                f"queue_capacity={self.queue_capacity})")
