"""Chunk-parallel packed inference: whole chunks on worker threads.

The paper's accelerator owes its throughput to parallelism: TacitMap fills
the crossbar and WDM adds one more parallel dimension.  This module is the
software analogue for :meth:`~repro.bnn.model.InferenceEngine.forward_batch`:
the chunks of a multi-chunk call run on ``W`` worker threads, each worker
taking the next whole chunk through the serial oracle ``_run_chunk``:

::

    chunks ──> [ worker 0 (caller): _run_chunk(x[o:o+bs], o) ] ──┐
           ──> [ worker 1:          _run_chunk(x[o:o+bs], o) ] ──┴──> concatenate by offset

Threads (not processes) are the right substrate: the BLAS GEMMs of the
full-precision layers and the packed XNOR/popcount ufuncs release the
GIL, and staying in-process shares inputs and logits by reference — no
pickle, no shared memory.

**Bit-exactness is by construction.**  Chunk boundaries are the serial
loop's ``range(0, n, batch_size)`` slices, every chunk runs the same
``_run_chunk(chunk, offset)`` call (so the per-``(offset, step_index)``
flip-noise seeds are unchanged) and results are concatenated in offset
order, so the output is byte-identical to ``_run_serial``
(property-tested in ``tests/bnn/test_pipeline.py``).

Dispatch is a static rule, nothing is timed:
``W = min(chunks, effective_cpus() // blas_threads())`` and the parallel
path runs iff ``W >= 2``.  Each worker's GEMMs use ``blas_threads()``
threads of their own, so ``W`` workers keep ``W * blas_threads()`` cores
busy; with BLAS at its default of one thread per CPU the cores are
already taken and chunk workers would only oversubscribe them.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.utils import host

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.bnn.model import InferenceEngine


def chunk_workers(chunks: int) -> int:
    """``W`` for a call of ``chunks`` chunks: the dispatch rule's count."""
    return min(chunks, host.effective_cpus() // host.blas_threads())


def pipeline_mode() -> str:
    """``"on"`` when a call of two or more chunks runs in parallel."""
    return "on" if chunk_workers(2) >= 2 else "off"


class StreamingPipeline:
    """Run an engine's chunks on worker threads, whole chunks at a time.

    Holds no threads between runs: the calling thread is worker 0 and the
    other ``W - 1`` workers live only inside :meth:`run`, which joins
    every one of them before returning.  When a chunk raises, no further
    chunk starts and the first exception is re-raised in the caller after
    the join, so a crash leaves no live threads behind.
    """

    def __init__(self, engine: "InferenceEngine") -> None:
        self.engine = engine

    def run(self, x: np.ndarray, batch_size: int) -> np.ndarray:
        """Logits for ``x`` in ``batch_size`` chunks on ``W`` workers.

        With ``W < 2`` the caller runs every chunk itself, in order.
        """
        engine = self.engine
        offsets = range(0, x.shape[0], batch_size)
        results: List[Optional[np.ndarray]] = [None] * len(offsets)
        lock = threading.Lock()
        pending = iter(range(len(offsets)))  # guarded by ``lock``
        failures: List[BaseException] = []  # guarded by ``lock``

        def _worker() -> None:
            while True:
                with lock:
                    if failures:
                        return
                    index = next(pending, None)
                if index is None:
                    return
                offset = offsets[index]
                try:
                    results[index] = engine._run_chunk(
                        x[offset:offset + batch_size], offset)
                except BaseException as exc:  # re-raised by run() after join
                    with lock:
                        failures.append(exc)
                    return

        # the caller is worker 0: one thread fewer to start and to wake,
        # which is most of the overhead on calls of a few short chunks
        threads = [
            threading.Thread(target=_worker, name=f"repro-pipeline-w{index}",
                             daemon=True)
            for index in range(1, chunk_workers(len(offsets)))
        ]
        for thread in threads:
            thread.start()
        _worker()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        return np.concatenate(results, axis=0)
