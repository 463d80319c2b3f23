"""Tests for chunk-parallel ``forward_batch``.

The contract under test: running whole chunks on worker threads is
*byte-identical* to the serial chunk loop at the same chunking — on all
evaluation networks, with seeded flip noise, at odd tail chunks and
``batch_size=1`` — because every chunk runs the serial oracle
``_run_chunk(chunk, offset)`` and results are concatenated in offset
order.  Around that: the static dispatch rule
``W = min(chunks, effective_cpus() // blas_threads())`` (parallel iff
``W >= 2``; no timing, nothing persisted), and crash behaviour (a chunk's
exception propagates to the caller after every worker has joined, no
chunk starts after it, and no pipeline thread outlives the call).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bnn import pipeline as pipeline_mod
from repro.bnn.layers import (
    BatchNorm,
    BinaryConv2d,
    BinaryLinear,
    Flatten,
    Linear,
    MaxPool2d,
    SignActivation,
)
from repro.bnn.model import BNNModel, InferenceEngine
from repro.bnn.networks import build_network, list_networks
from repro.bnn.pipeline import StreamingPipeline, chunk_workers, pipeline_mode
from repro.utils import host
from repro.utils.rng import make_rng

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _small_mlp(rng) -> BNNModel:
    layers = [
        Linear(12, 10, rng=rng),
        BatchNorm(10),
        SignActivation(),
        BinaryLinear(10, 9, rng=rng),
        BatchNorm(9),
        SignActivation(),
        BinaryLinear(9, 8, rng=rng),
        BatchNorm(8),
        SignActivation(),
        Linear(8, 4, rng=rng),
    ]
    return BNNModel(layers, name="tiny-mlp", input_shape=(12,))


def _small_cnn(rng) -> BNNModel:
    layers = [
        BinaryConv2d(3, 8, 3, padding=1, rng=rng),
        BatchNorm(8),
        SignActivation(),
        MaxPool2d(2),
        BinaryConv2d(8, 6, 3, rng=rng),
        BatchNorm(6),
        SignActivation(),
        Flatten(),
        BinaryLinear(6 * 2 * 2, 5, rng=rng),
        BatchNorm(5),
        SignActivation(),
        Linear(5, 3, rng=rng),
    ]
    return BNNModel(layers, name="tiny-cnn", input_shape=(3, 8, 8))


@pytest.fixture
def host_setup(monkeypatch):
    """Set the effective CPU count and the BLAS thread variables.

    ``blas`` maps each of ``BLAS_VARS`` to its value, ``None`` for unset;
    variables it does not name are unset, so the host's own environment
    never leaks into the rule.
    """
    def configure(cpus: int, **blas) -> None:
        monkeypatch.setattr(host, "effective_cpus", lambda: cpus)
        for name in BLAS_VARS:
            value = blas.get(name)
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
    return configure


@pytest.fixture
def run_calls(monkeypatch):
    """Batch sizes of every ``StreamingPipeline.run`` call in the test."""
    calls = []
    original = StreamingPipeline.run

    def spy(self, x, batch_size):
        calls.append(batch_size)
        return original(self, x, batch_size)

    monkeypatch.setattr(StreamingPipeline, "run", spy)
    return calls


@pytest.fixture
def parallel(host_setup, run_calls):
    """Force the parallel path (two CPUs, one BLAS thread); the run calls."""
    host_setup(2, OPENBLAS_NUM_THREADS="1")
    return run_calls


def _pipeline_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-pipeline-")]


def _assert_parallel_exact(runs, engine: InferenceEngine, x: np.ndarray,
                           batch_size: int) -> None:
    """``forward_batch`` on the parallel path equals ``_run_serial``."""
    serial = engine._run_serial(x, batch_size)
    before = len(runs)
    out = engine.forward_batch(x, batch_size=batch_size)
    assert out.tobytes() == serial.tobytes()
    # >= 2 chunks take the parallel path; one chunk runs serially
    assert len(runs) - before == (x.shape[0] > batch_size)


# --------------------------------------------------------------------------- #
# The dispatch rule
# --------------------------------------------------------------------------- #

#: ``effective_cpus() // blas_threads()`` per (CPUs, BLAS variable value):
#: unset, zero and non-numeric values read as OpenBLAS's default of one
#: thread per CPU
CPU_BUDGET = {
    (1, None): 1, (1, "1"): 1, (1, "2"): 0, (1, "0"): 1, (1, "many"): 1,
    (2, None): 1, (2, "1"): 2, (2, "2"): 1, (2, "0"): 1, (2, "many"): 1,
    (4, None): 1, (4, "1"): 4, (4, "2"): 2, (4, "0"): 1, (4, "many"): 1,
}


class TestDispatchRule:
    """``W = min(chunks, effective_cpus() // blas_threads())``."""

    @pytest.mark.parametrize("var", BLAS_VARS)
    @pytest.mark.parametrize("cpus,value", list(CPU_BUDGET))
    @pytest.mark.parametrize("chunks", [1, 2, 16])
    def test_rule_table(self, host_setup, run_calls, var, cpus, value,
                        chunks):
        host_setup(cpus, **{var: value})
        workers = min(chunks, CPU_BUDGET[(cpus, value)])
        assert chunk_workers(chunks) == workers

        rng = make_rng(3)
        model = _small_mlp(rng)
        model.eval()
        engine = InferenceEngine(model, flip_rate=0.05, seed=4)
        x = rng.uniform(-1, 1, size=(2 * chunks, 12))
        out = engine.forward_batch(x, batch_size=2)
        assert bool(run_calls) == (workers >= 2)
        assert out.tobytes() == engine._run_serial(x, 2).tobytes()

    def test_openblas_variable_comes_first(self, host_setup):
        host_setup(4, OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="1")
        assert host.blas_threads() == 4
        # a non-positive OpenBLAS value falls through to OMP_NUM_THREADS
        host_setup(4, OPENBLAS_NUM_THREADS="0", OMP_NUM_THREADS="2")
        assert host.blas_threads() == 2

    def test_pipeline_mode_reports_the_rule(self, host_setup):
        host_setup(1, OPENBLAS_NUM_THREADS="1")
        assert pipeline_mode() == "off"
        host_setup(2)
        assert pipeline_mode() == "off"  # BLAS already uses both CPUs
        host_setup(2, OMP_NUM_THREADS="1")
        assert pipeline_mode() == "on"

    def test_forward_batch_persists_nothing(self, tmp_path):
        """No timing probe, no per-host cache file under ``$HOME``."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(pipeline_mod.__file__))))
        env["HOME"] = str(tmp_path)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import numpy as np\n"
            "from repro.bnn.model import InferenceEngine\n"
            "from repro.bnn.networks import build_network\n"
            "model = build_network('MLP-S', seed=1)\n"
            "x = np.random.default_rng(0).uniform(\n"
            "    -1, 1, size=(64, *model.input_shape))\n"
            "InferenceEngine(model).forward_batch(x, batch_size=16)\n"
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       timeout=120)
        assert not (tmp_path / ".cache").exists()


# --------------------------------------------------------------------------- #
# Byte-identity on the parallel path
# --------------------------------------------------------------------------- #

FIXTURE_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestBitExactness:
    @settings(max_examples=20, **FIXTURE_SETTINGS)
    @given(seed=st.integers(0, 2**16), batch=st.integers(2, 11),
           chunk=st.integers(1, 5))
    def test_mlp_property(self, parallel, seed, batch, chunk):
        rng = np.random.default_rng(seed)
        model = _small_mlp(rng)
        model.eval()
        engine = InferenceEngine(model)
        x = rng.uniform(-2, 2, size=(batch, 12))
        _assert_parallel_exact(parallel, engine, x, chunk)

    @settings(max_examples=10, **FIXTURE_SETTINGS)
    @given(seed=st.integers(0, 2**16), flip_ppm=st.integers(1, 200_000),
           chunk=st.integers(1, 4))
    def test_seeded_flip_noise_property(self, parallel, seed, flip_ppm, chunk):
        rng = np.random.default_rng(seed)
        model = _small_cnn(rng)
        model.eval()
        engine = InferenceEngine(model, flip_rate=flip_ppm / 1e6, seed=seed)
        x = rng.uniform(-2, 2, size=(9, 3, 8, 8))
        _assert_parallel_exact(parallel, engine, x, chunk)

    @pytest.mark.parametrize("name", list_networks())
    def test_evaluation_networks(self, parallel, name):
        model = build_network(name)
        model.eval()
        rng = make_rng(11)
        x = rng.uniform(-1, 1, size=(7, *model.input_shape))
        engine = InferenceEngine(model, flip_rate=0.01, seed=2)
        # 7 rows / 3-row chunks: an odd tail chunk by construction
        _assert_parallel_exact(parallel, engine, x, 3)

    def test_batch_size_one(self, parallel):
        rng = make_rng(12)
        model = _small_mlp(rng)
        model.eval()
        engine = InferenceEngine(model, flip_rate=0.05, seed=9)
        x = rng.uniform(-1, 1, size=(6, 12))
        _assert_parallel_exact(parallel, engine, x, 1)


def test_more_workers_than_cores_run_each_chunk_once(host_setup):
    """Eight workers on a short switch interval: no chunk lost or repeated."""
    host_setup(8, OPENBLAS_NUM_THREADS="1")
    rng = make_rng(19)
    model = _small_cnn(rng)
    model.eval()
    engine = InferenceEngine(model, flip_rate=0.02, seed=5)
    x = rng.uniform(-1, 1, size=(64, 3, 8, 8))
    serial = engine._run_serial(x, 1)
    original = engine._run_chunk
    lock = threading.Lock()
    runs = []

    def spy(chunk, offset):
        with lock:
            runs.append(offset)
        return original(chunk, offset)

    engine._run_chunk = spy
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = engine.forward_batch(x, batch_size=1)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(runs) == list(range(64))
    assert out.tobytes() == serial.tobytes()


# --------------------------------------------------------------------------- #
# Crashes
# --------------------------------------------------------------------------- #

@pytest.mark.usefixtures("parallel")
class TestCrash:
    def test_failure_joins_every_worker_and_starts_no_chunk(self):
        """Worker 1's chunk fails while the caller's chunk is in flight.

        The caller's chunk returns only after worker 1 has exited (so the
        failure is recorded); the caller must then stop instead of taking
        a third chunk, and ``run`` re-raises only after joining worker 1.
        """
        rng = make_rng(16)
        engine = InferenceEngine(_small_cnn(rng))
        x = rng.uniform(-1, 1, size=(32, 3, 8, 8))
        original = engine._run_chunk
        lock = threading.Lock()
        started = []
        finished = []
        failing = []
        in_flight = threading.Event()
        failed = threading.Event()

        def spy(chunk, offset):
            with lock:
                started.append(offset)
            if threading.current_thread().name.startswith("repro-pipeline-"):
                assert in_flight.wait(timeout=10)
                failing.append(threading.current_thread())
                failed.set()
                raise RuntimeError("chunk kaboom")
            in_flight.set()
            assert failed.wait(timeout=10)
            failing[0].join(timeout=10)
            out = original(chunk, offset)
            finished.append(offset)
            return out

        engine._run_chunk = spy
        before = _pipeline_threads()
        with pytest.raises(RuntimeError, match="chunk kaboom"):
            StreamingPipeline(engine).run(x, 2)
        assert not failing[0].is_alive()
        assert sorted(started) == [0, 2]  # one chunk per worker, no third
        assert len(finished) == 1
        assert _pipeline_threads() == before

    def test_every_chunk_failing_does_not_deadlock(self):
        rng = make_rng(17)
        engine = InferenceEngine(_small_mlp(rng))
        x = rng.uniform(-1, 1, size=(12, 12))

        def exploding(chunk, offset):
            raise ValueError("no chunk survives")

        engine._run_chunk = exploding
        with pytest.raises(ValueError, match="no chunk survives"):
            StreamingPipeline(engine).run(x, 2)
        assert not _pipeline_threads()

    def test_forward_batch_surfaces_the_chunk_error(self):
        rng = make_rng(18)
        engine = InferenceEngine(_small_mlp(rng))
        x = rng.uniform(-1, 1, size=(8, 12))
        original = engine._run_chunk

        def exploding(chunk, offset):
            if offset == 2:
                raise RuntimeError("mid-batch")
            return original(chunk, offset)

        engine._run_chunk = exploding
        with pytest.raises(RuntimeError, match="mid-batch"):
            engine.forward_batch(x, batch_size=2)
        assert not _pipeline_threads()
