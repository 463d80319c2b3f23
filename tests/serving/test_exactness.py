"""Property tests: the serving layer adds zero numerical artifacts.

Two guarantees, layered:

* **Transport exactness** (every engine, flip noise included): the row a
  future resolves to is byte-identical to calling
  ``engine.forward_batch`` directly on the *same flushed stack* — the
  batcher's :meth:`flush_log` records exactly which requests shared each
  batch, so every served batch is replayed and compared bit for bit.
* **Cross-policy prediction identity** (noise-free engines): arg-max
  predictions match the direct single-call engine across flush policies.
  Cross-policy *logit* identity is deliberately not asserted — the dense
  first/last layers inherit BLAS's batch-shape-dependent last-ulp
  rounding and flip-noise streams derive from chunk offsets, both
  documented in ``docs/serving.md``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bnn.autotune import PACKED_MAX_ROWS
from repro.bnn.model import InferenceEngine
from repro.bnn.networks import build_network
from repro.serving import InferenceService
from repro.utils.rng import make_rng

#: the two flush-policy flavours the acceptance criteria require: purely
#: deadline-driven singles vs size-driven packed batches
POLICIES = ((1, 4.0), (8, 1.0))

N_IMAGES = 24


@pytest.fixture(scope="module")
def model():
    return build_network("MLP-S")


@pytest.fixture(scope="module")
def engine(model):
    return InferenceEngine(model)


@pytest.fixture(scope="module")
def noisy_engine(model):
    return InferenceEngine(model, flip_rate=0.05, seed=7)


def _serve(service, images):
    futures = [service.submit(image) for image in images]
    results = [future.result(timeout=30.0) for future in futures]
    by_id = {future.request_id: result
             for future, result in zip(futures, results)}
    return results, by_id


def _assert_transport_exact(engine, service, images, by_id):
    """Replay every logged flushed batch directly through the engine."""
    records = service.batcher.flush_log()
    assert sum(record.size for record in records) == len(images)
    for record in records:
        assert record.ok
        stack = np.stack([images[rid] for rid in record.request_ids])
        replay = engine.forward_batch(stack, batch_size=record.size)
        for row, rid in enumerate(record.request_ids):
            np.testing.assert_array_equal(by_id[rid], replay[row])


@pytest.mark.parametrize("max_batch,max_delay_ms", POLICIES)
def test_served_rows_are_byte_identical_to_direct_replay(
        engine, max_batch, max_delay_ms):
    images = make_rng(0).uniform(-1.0, 1.0,
                                 size=(N_IMAGES, *engine.model.input_shape))
    with InferenceService(engine, max_batch=max_batch,
                          max_delay_ms=max_delay_ms) as service:
        _, by_id = _serve(service, images)
    _assert_transport_exact(engine, service, images, by_id)


@pytest.mark.parametrize("max_batch,max_delay_ms", POLICIES)
def test_transport_exactness_holds_under_flip_noise(
        noisy_engine, max_batch, max_delay_ms):
    # flip-noise streams derive from chunk offsets, so replaying the
    # recorded stack reproduces the served rows exactly; request ids map
    # rows through arbitrary flush compositions
    images = make_rng(1).uniform(
        -1.0, 1.0, size=(N_IMAGES, *noisy_engine.model.input_shape))
    with InferenceService(noisy_engine, max_batch=max_batch,
                          max_delay_ms=max_delay_ms) as service:
        _, by_id = _serve(service, images)
    _assert_transport_exact(noisy_engine, service, images, by_id)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_predictions_match_direct_engine_across_policies(engine, seed):
    """Property: any seeded batch serves to the direct predictions."""
    images = make_rng(seed).uniform(
        -1.0, 1.0, size=(N_IMAGES, *engine.model.input_shape))
    direct_pred = engine.forward_batch(
        images, batch_size=N_IMAGES).argmax(axis=1)
    for max_batch, max_delay_ms in POLICIES:
        with InferenceService(engine, max_batch=max_batch,
                              max_delay_ms=max_delay_ms) as service:
            results, by_id = _serve(service, images)
        served_pred = np.stack(results).argmax(axis=1)
        np.testing.assert_array_equal(served_pred, direct_pred)
        _assert_transport_exact(engine, service, images, by_id)


def test_concurrent_producers_replay_exactly(engine):
    """Producer threads racing the dispatcher stay byte-exact: every
    flushed batch, whatever its composition, replays identically."""
    import threading

    images = make_rng(4).uniform(-1.0, 1.0,
                                 size=(64, *engine.model.input_shape))
    id_to_image = {}
    id_to_result = {}
    lock = threading.Lock()
    with InferenceService(engine, max_batch=8, max_delay_ms=0.5,
                          queue_capacity=256) as service:

        def produce(chunk):
            for image in chunk:
                future = service.submit(image)
                with lock:
                    id_to_image[future.request_id] = image
                result = future.result(timeout=30.0)
                with lock:
                    id_to_result[future.request_id] = result

        threads = [threading.Thread(target=produce, args=(images[k::4],))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    assert len(id_to_result) == len(images)
    for record in service.batcher.flush_log():
        stack = np.stack([id_to_image[rid] for rid in record.request_ids])
        replay = engine.forward_batch(stack, batch_size=record.size)
        for row, rid in enumerate(record.request_ids):
            np.testing.assert_array_equal(id_to_result[rid], replay[row])


def test_flushes_across_the_dispatch_boundary_match_the_blas_engine(model):
    """Whichever kernel the row-count rule picks for a flush, the served
    rows are byte-identical to the all-BLAS engine on the same stack."""
    engine = InferenceEngine(model)
    blas_engine = InferenceEngine(model, kernel="blas")
    sizes = range(1, PACKED_MAX_ROWS + 3)
    images = make_rng(5).uniform(
        -1.0, 1.0, size=(sum(sizes), *model.input_shape))
    start = 0
    for size in sizes:
        stack = images[start:start + size]
        start += size
        # a size-triggered flush: the deadline is far beyond the test
        with InferenceService(engine, max_batch=size,
                              max_delay_ms=60_000.0) as service:
            results, _ = _serve(service, stack)
        assert [record.size for record in service.batcher.flush_log()] \
            == [size]
        expected = blas_engine.forward_batch(stack, batch_size=size)
        for row, result in enumerate(results):
            assert result.tobytes() == expected[row].tobytes(), (size, row)
