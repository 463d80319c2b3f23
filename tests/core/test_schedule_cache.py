"""Tests for the layer-schedule memoisation in repro.core.schedule."""

from __future__ import annotations

import pytest

from repro.bnn.workload import LayerSpec, get_workload
from repro.core.mapping_base import TileShape
from repro.core.schedule import (
    build_layer_schedule,
    clear_schedule_cache,
    schedule_cache_stats,
)


@pytest.fixture()
def spec():
    return LayerSpec(name="layer01:BinaryLinear", kind="linear", is_binary=True,
                     vector_length=512, num_weight_vectors=256,
                     num_input_vectors=1)


def test_memoised_calls_return_shared_schedule(spec):
    clear_schedule_cache()
    first = build_layer_schedule(spec, mapping="tacitmap", wdm_capacity=16)
    second = build_layer_schedule(spec, mapping="tacitmap", wdm_capacity=16)
    assert first is second
    stats = schedule_cache_stats()
    assert stats == {"hits": 1, "misses": 1, "size": 1}


def test_distinct_parameters_are_distinct_entries(spec):
    clear_schedule_cache()
    tacit = build_layer_schedule(spec, mapping="tacitmap")
    wdm = build_layer_schedule(spec, mapping="tacitmap", wdm_capacity=16)
    small_tile = build_layer_schedule(spec, mapping="tacitmap",
                                      tile_shape=TileShape(64, 64))
    assert len({id(s) for s in (tacit, wdm, small_tile)}) == 3
    assert schedule_cache_stats()["size"] == 3


def test_validation_errors_bypass_cache(spec):
    clear_schedule_cache()
    with pytest.raises(ValueError):
        build_layer_schedule(spec, mapping="nonsense")
    with pytest.raises(ValueError):
        build_layer_schedule(spec, mapping="custbinarymap", wdm_capacity=4)
    assert schedule_cache_stats()["size"] == 0


def test_get_workload_is_memoised():
    first = get_workload("MLP-S")
    second = get_workload("MLP-S")
    assert first is second
    assert first.binary_layers
