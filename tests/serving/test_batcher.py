"""Concurrency torture tests of the micro-batcher (stub engines)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from _helpers import FailingEngine, GatedEngine, StubEngine

from repro.serving.admission import QueueFullError, ServiceClosedError
from repro.serving.batcher import (
    TRIGGER_DEADLINE,
    TRIGGER_DRAIN,
    TRIGGER_SIZE,
    MicroBatcher,
)

SHAPE = (4,)


def _image(value: float) -> np.ndarray:
    return np.full(SHAPE, value)


class TestFlushTriggers:
    def test_deadline_flush_of_a_partial_batch(self):
        engine = StubEngine()
        with MicroBatcher(engine, max_batch=100, max_delay_ms=5.0,
                          input_shape=SHAPE) as batcher:
            futures = [batcher.submit(_image(v)) for v in (1.0, 2.0, 3.0)]
            results = [f.result(timeout=10.0) for f in futures]
        for value, result in zip((1.0, 2.0, 3.0), results):
            np.testing.assert_array_equal(result,
                                          StubEngine.expected(_image(value)))
        log = batcher.flush_log()
        assert [record.trigger for record in log].count(TRIGGER_DEADLINE) >= 1
        assert sum(record.size for record in log) == 3

    def test_size_flush_fires_before_the_deadline(self):
        engine = GatedEngine()
        batcher = MicroBatcher(engine, max_batch=4, max_delay_ms=10_000.0,
                               input_shape=SHAPE)
        try:
            futures = [batcher.submit(_image(float(i))) for i in range(4)]
            # a 10s deadline cannot be the trigger inside this timeout
            engine.entered.wait(timeout=10.0)
            engine.gate.set()
            for future in futures:
                future.result(timeout=10.0)
        finally:
            engine.gate.set()
            batcher.close()
        assert batcher.flush_log()[0].trigger == TRIGGER_SIZE
        assert batcher.flush_log()[0].size == 4

    def test_deadline_vs_size_race_under_load(self):
        # larger flushes while the engine is busy, deadline stragglers at
        # the tail — every request must still resolve to its own row
        engine = StubEngine()
        with MicroBatcher(engine, max_batch=8, max_delay_ms=1.0,
                          input_shape=SHAPE, queue_capacity=10_000) as batcher:
            values = [float(i) for i in range(200)]
            futures = [batcher.submit(_image(v)) for v in values]
            results = [f.result(timeout=30.0) for f in futures]
        for value, result in zip(values, results):
            np.testing.assert_array_equal(result,
                                          StubEngine.expected(_image(value)))
        assert all(size <= 8 for size in engine.batch_sizes)
        assert sum(engine.batch_sizes) == 200


class TestProducerTorture:
    @pytest.mark.parametrize("max_batch,max_delay_ms", [(4, 1.0), (32, 0.5)])
    def test_many_producers_each_get_their_own_row(self, max_batch,
                                                   max_delay_ms):
        engine = StubEngine()
        per_producer = 50
        producers = 8
        errors: list = []
        with MicroBatcher(engine, max_batch=max_batch,
                          max_delay_ms=max_delay_ms, input_shape=SHAPE,
                          queue_capacity=10_000) as batcher:

            def produce(base: int) -> None:
                try:
                    for i in range(per_producer):
                        value = float(base * per_producer + i)
                        result = batcher.submit(_image(value)).result(
                            timeout=30.0)
                        np.testing.assert_array_equal(
                            result, StubEngine.expected(_image(value)))
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            threads = [threading.Thread(target=produce, args=(n,))
                       for n in range(producers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert not errors
        assert sum(engine.batch_sizes) == producers * per_producer
        stats = batcher.metrics.stats()
        assert stats["requests"]["completed"] == producers * per_producer
        assert stats["requests"]["failed"] == 0


class TestBackpressure:
    def test_full_queue_fast_rejects(self):
        engine = GatedEngine()
        batcher = MicroBatcher(engine, max_batch=1, max_delay_ms=0.0,
                               input_shape=SHAPE, queue_capacity=2)
        try:
            first = batcher.submit(_image(0.0))
            engine.entered.wait(timeout=10.0)  # dispatcher is now blocked
            # the queue (capacity 2) fills behind the in-flight request
            admitted = [first]
            with pytest.raises(QueueFullError):
                for i in range(10):
                    admitted.append(batcher.submit(_image(float(i + 1))))
            assert len(admitted) <= 3  # 1 in flight + 2 queued
            assert batcher.queue_depth() == 2
        finally:
            engine.gate.set()
            batcher.close()
        for future in admitted:
            assert future.result(timeout=10.0) is not None

    def test_submit_rejects_wrong_shape(self):
        engine = StubEngine()
        with MicroBatcher(engine, input_shape=SHAPE) as batcher:
            with pytest.raises(ValueError):
                batcher.submit(np.zeros((2, *SHAPE)))  # pre-batched input
            with pytest.raises(ValueError):
                batcher.submit(np.zeros(3))


class TestLifecycle:
    def test_close_drains_in_flight_requests(self):
        engine = GatedEngine()
        batcher = MicroBatcher(engine, max_batch=2, max_delay_ms=50.0,
                               input_shape=SHAPE, queue_capacity=100)
        futures = [batcher.submit(_image(float(i))) for i in range(7)]
        engine.entered.wait(timeout=10.0)
        closer = threading.Thread(
            target=lambda: batcher.close(drain=True, timeout=30.0))
        closer.start()
        engine.gate.set()
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(
                future.result(timeout=1.0),
                StubEngine.expected(_image(float(i))))
        assert any(record.trigger == TRIGGER_DRAIN
                   for record in batcher.flush_log())

    def test_close_without_drain_fails_queued_requests(self):
        engine = GatedEngine()
        batcher = MicroBatcher(engine, max_batch=1, max_delay_ms=0.0,
                               input_shape=SHAPE, queue_capacity=100)
        in_flight = batcher.submit(_image(1.0))
        engine.entered.wait(timeout=10.0)
        queued = [batcher.submit(_image(float(i))) for i in range(3)]
        closer = threading.Thread(
            target=lambda: batcher.close(drain=False, timeout=30.0))
        closer.start()
        engine.gate.set()
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        # the batch already inside the engine still completes...
        np.testing.assert_array_equal(in_flight.result(timeout=10.0),
                                      StubEngine.expected(_image(1.0)))
        # ...but everything still queued fails fast
        for future in queued:
            with pytest.raises(ServiceClosedError):
                future.result(timeout=10.0)

    def test_submit_after_close_rejects(self):
        batcher = MicroBatcher(StubEngine(), input_shape=SHAPE)
        batcher.close()
        assert batcher.closed
        with pytest.raises(ServiceClosedError):
            batcher.submit(_image(0.0))

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(StubEngine(), input_shape=SHAPE)
        batcher.close()
        batcher.close()

    def test_futures_carry_request_ids_matching_the_flush_log(self):
        engine = StubEngine()
        with MicroBatcher(engine, max_batch=4, max_delay_ms=1.0,
                          input_shape=SHAPE) as batcher:
            futures = [batcher.submit(_image(float(i))) for i in range(10)]
            for future in futures:
                future.result(timeout=10.0)
        logged = [rid for record in batcher.flush_log()
                  for rid in record.request_ids]
        assert sorted(logged) == sorted(f.request_id for f in futures)


class TestEngineFailures:
    def test_engine_exception_fans_out_to_the_batch(self):
        engine = FailingEngine(fail_first=1)
        # the 50ms deadline comfortably coalesces the three fast submits
        # into one flush even on a loaded CI runner
        with MicroBatcher(engine, max_batch=100, max_delay_ms=50.0,
                          input_shape=SHAPE) as batcher:
            failing = [batcher.submit(_image(float(i))) for i in range(3)]
            for future in failing:
                with pytest.raises(RuntimeError, match="engine fault"):
                    future.result(timeout=10.0)
            # the batcher survives the fault and serves the next flush
            recovered = batcher.submit(_image(7.0)).result(timeout=10.0)
        np.testing.assert_array_equal(recovered,
                                      StubEngine.expected(_image(7.0)))
        stats = batcher.metrics.stats()
        assert stats["requests"]["failed"] == 3
        assert stats["batches"]["failures"] == 1

    def test_after_batch_hook_sees_outcomes(self):
        outcomes = []
        engine = FailingEngine(fail_first=1)
        with MicroBatcher(engine, max_batch=1, max_delay_ms=0.0,
                          input_shape=SHAPE,
                          after_batch=outcomes.append) as batcher:
            failed = batcher.submit(_image(0.0))
            with pytest.raises(RuntimeError):
                failed.result(timeout=10.0)
            batcher.submit(_image(1.0)).result(timeout=10.0)
        assert outcomes[0] is False
        assert True in outcomes


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"max_delay_ms": -1.0},
        {"queue_capacity": 0},
        {"flush_log": 0},
    ])
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatcher(StubEngine(), input_shape=SHAPE, **kwargs)

    def test_input_shape_defaults_from_the_engine_model(self):
        class Model:
            input_shape = (3, 2)

        class Engine(StubEngine):
            model = Model()

        batcher = MicroBatcher(Engine())
        try:
            assert batcher.input_shape == (3, 2)
        finally:
            batcher.close()

    def test_zero_delay_flushes_immediately(self):
        engine = StubEngine()
        with MicroBatcher(engine, max_batch=64, max_delay_ms=0.0,
                          input_shape=SHAPE) as batcher:
            result = batcher.submit(_image(2.0)).result(timeout=10.0)
        np.testing.assert_array_equal(result,
                                      StubEngine.expected(_image(2.0)))


def test_dispatcher_thread_exits_after_close():
    batcher = MicroBatcher(StubEngine(), input_shape=SHAPE)
    batcher.submit(_image(1.0)).result(timeout=10.0)
    batcher.close(timeout=10.0)
    deadline = time.monotonic() + 5.0
    while batcher._dispatcher.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not batcher._dispatcher.is_alive()
