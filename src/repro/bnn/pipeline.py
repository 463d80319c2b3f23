"""Streaming packed pipeline: stage-overlapped execution of a compiled plan.

The paper's accelerator owes its throughput to a pipelined dataflow: the
full-precision first layer and the binary crossbar blocks process
*different* inputs concurrently instead of serialising per image.  This
module is the software analogue for :class:`~repro.bnn.model.InferenceEngine`:
the compiled step plan is split into stages —

::

    chunks ──> [ dense prefix ] ──> [ packed body ] ──> ( packed body 2 ) ──> [ dense tail ] ──> logits
       k+2          BLAS      queue  XNOR/popcount queue   (optional split) queue    BLAS
                 (chunk k+2)          (chunk k+1)             (chunk k)           (chunk k-1)

— each stage on its own worker thread, connected by small bounded
hand-off queues, so chunk *k+1*'s BLAS prefix overlaps chunk *k*'s
XNOR/popcount body.  Threads (not processes) are the right substrate:
both kernel families release the GIL (BLAS GEMM inside NumPy ``dot``,
the packed XNOR/popcount kernels inside NumPy ufuncs), and staying
in-process means activations hand off by reference — no pickle, no
shared memory.

**Bit-exactness is non-negotiable.**  Chunk boundaries are unchanged and
every stage runs :meth:`InferenceEngine._run_steps` with *global* plan
indices, so the per-``(offset, step_index)`` flip-noise seed derivation
is identical to the serial path — pipelined output is byte-identical to
``_run_chunk`` per chunk, including seeded flip noise (property-tested
in ``tests/bnn/test_pipeline.py``).

Dispatch (``maybe_stream``) is a static rule, not a measurement: the
pipeline runs iff the host has at least two effective CPUs, the batch has
at least two chunks and the plan splits into at least two stages;
otherwise :meth:`InferenceEngine.forward_batch` runs the serial chunk loop.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.bnn.model import (
    _STEP_BINARY_DENSE,
    _STEP_FUSED,
    _STEP_SIGN,
    _binary_num_outputs,
)
from repro.utils.host import effective_cpus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.bnn.model import InferenceEngine, _PlanStep

#: bounded hand-off depth between adjacent stages: deep enough to absorb
#: per-chunk jitter, shallow enough that at most a few chunks of
#: activations are in flight per stage boundary
QUEUE_DEPTH = 2

_SENTINEL = object()


def pipeline_mode() -> str:
    """The host half of the dispatch rule: ``"on"`` with >= 2 effective CPUs.

    Stage threads only overlap when the scheduler can run two of them at
    once; on a single effective CPU the hand-offs are pure overhead.
    """
    return "on" if effective_cpus() >= 2 else "off"


# --------------------------------------------------------------------------- #
# Stage planning
# --------------------------------------------------------------------------- #

#: step kinds that operate on packed bit-planes (the crossbar body)
_PACKED_KINDS = (_STEP_FUSED, _STEP_BINARY_DENSE, _STEP_SIGN)


@dataclass(frozen=True)
class Stage:
    """A contiguous ``[start, stop)`` slice of the compiled plan."""

    name: str
    start: int
    stop: int

    @property
    def num_steps(self) -> int:
        return self.stop - self.start


def _fused_cost(step: "_PlanStep") -> int:
    # XNOR-MAC count per output position: vector length x output channels
    # (spatial extent ignored — it only reorders convs against convs of
    # similar depth, and the split just needs the heaviest step)
    return step.vector_length * _binary_num_outputs(step.layer)


def plan_stages(steps: Sequence["_PlanStep"], *,
                split_body: bool = True) -> List[Stage]:
    """Split a compiled plan into pipeline stages.

    Dense prefix (everything before the first packed-kind step), packed
    binary body, dense tail (everything after the last packed-kind step).
    With ``split_body`` the body is additionally split *before* its most
    expensive fused step (XNOR-MAC proxy), so the two body stages carry
    comparable work.  A plan with no packed steps degenerates to a single
    stage — the caller falls back to the serial path.
    """
    packed = [i for i, step in enumerate(steps)
              if step.kind in _PACKED_KINDS]
    if not packed:
        return [Stage("plan", 0, len(steps))]
    body_start, body_stop = packed[0], packed[-1] + 1
    stages: List[Stage] = []
    if body_start > 0:
        stages.append(Stage("dense_prefix", 0, body_start))
    fused = [i for i in range(body_start, body_stop)
             if steps[i].kind == _STEP_FUSED]
    boundary = None
    if split_body and len(fused) >= 2:
        heaviest = max(fused, key=lambda i: _fused_cost(steps[i]))
        # the heaviest fused step opens the second body stage so it never
        # shares a thread with the rest of the body's fused work
        boundary = heaviest if heaviest > body_start else heaviest + 1
    if boundary is not None and body_start < boundary < body_stop:
        stages.append(Stage("packed_body", body_start, boundary))
        stages.append(Stage("packed_body_2", boundary, body_stop))
    else:
        stages.append(Stage("packed_body", body_start, body_stop))
    if body_stop < len(steps):
        stages.append(Stage("dense_tail", body_stop, len(steps)))
    return stages


# --------------------------------------------------------------------------- #
# The streaming pipeline
# --------------------------------------------------------------------------- #

@dataclass
class StageStats:
    """Per-stage occupancy from one :meth:`StreamingPipeline.run`."""

    name: str
    num_steps: int
    busy_s: float = 0.0
    chunks: int = 0
    occupancy: float = 0.0

    def as_dict(self) -> dict:
        return {"name": self.name, "num_steps": self.num_steps,
                "busy_s": round(self.busy_s, 6), "chunks": self.chunks,
                "occupancy": round(self.occupancy, 4)}


@dataclass
class _Failure:
    exc: Optional[BaseException] = None
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, exc: BaseException) -> None:
        with self.lock:
            if self.exc is None:
                self.exc = exc


class StreamingPipeline:
    """Run an engine's chunks through stage worker threads.

    One pipeline is cheap to build (stage planning is ``O(steps)``) and
    holds no threads between runs — workers live only inside
    :meth:`run`, which joins every one of them before returning, even
    when a stage raises (the first stage exception is re-raised in the
    caller after the join, so a crash leaves no live threads behind).
    """

    def __init__(self, engine: "InferenceEngine", *,
                 split_body: bool = True,
                 queue_depth: int = QUEUE_DEPTH) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.engine = engine
        self.stages = plan_stages(engine._steps, split_body=split_body)
        self.queue_depth = int(queue_depth)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def run(self, x: np.ndarray, batch_size: int
            ) -> Tuple[np.ndarray, List[StageStats]]:
        """Stream ``x`` through the stages; returns ``(logits, stats)``.

        Byte-identical to the serial path: chunk boundaries are the same
        ``range(0, n, batch_size)`` slices and every stage runs
        ``_run_steps`` with global plan indices.
        """
        engine = self.engine
        stages = self.stages
        offsets = list(range(0, x.shape[0], batch_size))
        stats = [StageStats(stage.name, stage.num_steps) for stage in stages]
        if len(stages) == 1 or len(offsets) == 1:
            # degenerate: nothing to overlap — run serially in the caller
            wall = time.perf_counter()
            logits = engine._run_serial(x, batch_size)
            stats[0].busy_s = time.perf_counter() - wall
            stats[0].chunks = len(offsets)
            stats[0].occupancy = 1.0
            return logits, stats

        queues = [queue.Queue(maxsize=self.queue_depth)
                  for _ in range(len(stages))]
        failure = _Failure()
        abort = threading.Event()
        results: dict = {}

        def _put(q: "queue.Queue", item: object) -> bool:
            while not abort.is_set():
                try:
                    q.put(item, timeout=0.05)
                    return True
                except queue.Full:
                    continue
            return False

        def _stage_worker(index: int) -> None:
            stage = stages[index]
            inbox = queues[index]
            outbox = queues[index + 1] if index + 1 < len(stages) else None
            last = outbox is None
            while True:
                item = inbox.get()
                if item is _SENTINEL:
                    if outbox is not None:
                        # unconditional: the next stage drains its inbox
                        # until the sentinel arrives, so this cannot block
                        # forever even mid-abort
                        outbox.put(_SENTINEL)
                    return
                if abort.is_set():
                    continue  # drain so upstream puts never deadlock
                offset, state = item
                try:
                    tick = time.perf_counter()
                    state = engine._run_steps(state, offset, stage.start,
                                              stage.stop)
                    if last:
                        state = engine._finalise(state)
                    stats[index].busy_s += time.perf_counter() - tick
                    stats[index].chunks += 1
                except BaseException as exc:
                    failure.record(exc)
                    abort.set()
                    continue
                if last:
                    results[offset] = state
                elif not _put(outbox, (offset, state)):
                    continue

        wall = time.perf_counter()
        workers = [
            threading.Thread(target=_stage_worker, args=(index,),
                             name=f"repro-pipeline-s{index}", daemon=True)
            for index in range(len(stages))
        ]
        for worker in workers:
            worker.start()
        try:
            for offset in offsets:
                if not _put(queues[0], (offset, x[offset:offset + batch_size])):
                    break
        finally:
            # unconditional: the sentinel is what lets every stage return,
            # and stage 0 keeps draining its inbox until it sees one, so a
            # blocking put cannot deadlock even mid-abort
            queues[0].put(_SENTINEL)
            for worker in workers:
                worker.join()
        if failure.exc is not None:
            raise failure.exc
        wall = time.perf_counter() - wall
        for stat in stats:
            stat.occupancy = min(1.0, stat.busy_s / wall) if wall > 0 else 0.0
        return (
            np.concatenate([results[off] for off in offsets], axis=0),
            stats,
        )


# --------------------------------------------------------------------------- #
# forward_batch integration
# --------------------------------------------------------------------------- #

def maybe_stream(engine: "InferenceEngine", x: np.ndarray,
                 batch_size: int) -> Optional[np.ndarray]:
    """Run ``x`` through the streaming pipeline, or ``None`` for serial.

    The static rule: stream iff the host has >= 2 effective CPUs
    (:func:`pipeline_mode`), ``x`` spans >= 2 chunks and the plan has
    >= 2 stages.
    """
    if pipeline_mode() == "off" or x.shape[0] <= batch_size:
        return None
    pipe = StreamingPipeline(engine)
    if pipe.num_stages < 2:
        return None  # degenerate plan (e.g. fully dense)
    logits, _ = pipe.run(x, batch_size)
    return logits
