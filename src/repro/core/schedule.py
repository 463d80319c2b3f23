"""Operation-count schedules for mapped BNN layers.

The architecture-level timing and energy models (both for EinsteinBarrier and
for the baselines) do not re-simulate tensor values — they consume *operation
counts*: how many crossbar activations a layer needs, how many of them are on
the critical path when tiles run in parallel, how many ADC conversions / PCSA
senses / digital additions accompany them, and how many cells must be
programmed.  This module derives those counts from a
:class:`~repro.bnn.workload.LayerSpec` plus a mapping and tile geometry.

The counts encode the paper's first-order claims directly:

* TacitMap needs ``ceil(v / K)`` crossbar steps per tile for ``v`` activation
  vectors and WDM capacity ``K`` (``K = 1`` on ePCM), independent of how many
  weight vectors the tile stores — the "1-step XNOR+Popcount" property;
* CustBinaryMap needs one row activation per stored weight vector per
  activation vector, plus a digital popcount per output — the "n-step"
  behaviour TacitMap removes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bnn.workload import LayerSpec, NetworkWorkload
from repro.core.custbinarymap import CustBinaryMap
from repro.core.mapping_base import TileShape
from repro.core.tacitmap import TacitMap


@dataclass(frozen=True)
class LayerSchedule:
    """Operation counts for one binary layer under one mapping.

    All counts are per single inference (one input sample).

    Attributes
    ----------
    layer_name, mapping_name:
        Identification of the layer and the mapping that produced the counts.
    wdm_capacity:
        WDM capacity K used when grouping activation vectors (1 = no WDM).
    num_tiles:
        Physical crossbar tiles occupied by the layer's weights.
    crossbar_activations:
        Total analog array activations (every tile counted individually).
    sequential_steps:
        Activations on the critical path assuming all tiles of the layer
        operate concurrently (the intra-layer parallelism both designs have).
    adc_conversions:
        Analog-to-digital conversions performed (TacitMap/EinsteinBarrier).
    pcsa_senses:
        Sense-amplifier operations performed (CustBinaryMap baseline).
    dac_drives:
        Row/bit-line driver conversions performed.
    digital_adds:
        Two-input digital additions (popcount trees for the baseline,
        partial-count accumulation across row segments for TacitMap).
    popcount_tree_depth:
        Depth of the baseline's popcount tree (0 when unused).
    cells_programmed:
        Crossbar cells written when loading the layer's weights.
    """

    layer_name: str
    mapping_name: str
    wdm_capacity: int
    num_tiles: int
    crossbar_activations: int
    sequential_steps: int
    adc_conversions: int
    pcsa_senses: int
    dac_drives: int
    digital_adds: int
    popcount_tree_depth: int
    cells_programmed: int


@dataclass(frozen=True)
class NetworkSchedule:
    """Schedules of every binary layer of a network under one mapping."""

    network_name: str
    mapping_name: str
    wdm_capacity: int
    tile_shape: TileShape
    layer_schedules: List[LayerSchedule]
    full_precision_layers: List[LayerSpec]

    @property
    def total_crossbar_activations(self) -> int:
        """Sum of crossbar activations across all binary layers."""
        return sum(s.crossbar_activations for s in self.layer_schedules)

    @property
    def total_sequential_steps(self) -> int:
        """Critical-path crossbar steps across all binary layers (layers are
        executed one after another because of the data dependency)."""
        return sum(s.sequential_steps for s in self.layer_schedules)

    @property
    def total_adc_conversions(self) -> int:
        """Total ADC conversions across all binary layers."""
        return sum(s.adc_conversions for s in self.layer_schedules)

    @property
    def total_pcsa_senses(self) -> int:
        """Total PCSA sense operations across all binary layers."""
        return sum(s.pcsa_senses for s in self.layer_schedules)

    @property
    def total_digital_adds(self) -> int:
        """Total digital additions across all binary layers."""
        return sum(s.digital_adds for s in self.layer_schedules)

    @property
    def total_tiles(self) -> int:
        """Total crossbar tiles occupied by the network."""
        return sum(s.num_tiles for s in self.layer_schedules)


def _tacitmap_layer_schedule(spec: LayerSpec, tile: TileShape,
                             wdm_capacity: int) -> LayerSchedule:
    elements_per_segment = max(tile.rows // 2, 1)
    segments = math.ceil(spec.vector_length / elements_per_segment)
    groups = math.ceil(spec.num_weight_vectors / tile.cols)
    tiles = segments * groups

    activation_rounds = math.ceil(spec.num_input_vectors / wdm_capacity)
    crossbar_activations = tiles * activation_rounds
    sequential_steps = activation_rounds

    # Each activation ends with one column conversion per used output column:
    # the TIA/ADC chain runs once per activation window and deserialises the
    # (up to K) wavelengths within it, which is how EinsteinBarrier "uses the
    # same crossbar, ADCs, and other peripheries" for multiple outputs
    # (Sec. VI-B) — so grouping K vectors divides the conversion count by K.
    adc_conversions = segments * spec.num_weight_vectors * activation_rounds
    dac_drives = crossbar_activations * min(
        2 * spec.vector_length, tile.rows
    )
    # partial counts of the row segments are accumulated digitally
    digital_adds = (
        (segments - 1) * spec.num_weight_vectors * spec.num_input_vectors
    )
    cells_programmed = 2 * spec.vector_length * spec.num_weight_vectors
    return LayerSchedule(
        layer_name=spec.name,
        mapping_name=TacitMap.name,
        wdm_capacity=wdm_capacity,
        num_tiles=tiles,
        crossbar_activations=crossbar_activations,
        sequential_steps=sequential_steps,
        adc_conversions=adc_conversions,
        pcsa_senses=0,
        dac_drives=dac_drives,
        digital_adds=digital_adds,
        popcount_tree_depth=0,
        cells_programmed=cells_programmed,
    )


def _custbinarymap_layer_schedule(spec: LayerSpec,
                                  tile: TileShape) -> LayerSchedule:
    output_groups = math.ceil(spec.num_weight_vectors / tile.rows)
    vector_segments = math.ceil(spec.vector_length / tile.cols)
    tiles = output_groups * vector_segments

    # one row activation per stored weight vector per segment per input vector
    crossbar_activations = (
        spec.num_weight_vectors * vector_segments * spec.num_input_vectors
    )
    # tiles holding different output groups run in parallel; tiles holding
    # different segments of the same weight vector also fire in parallel
    rows_per_group = math.ceil(spec.num_weight_vectors / output_groups)
    sequential_steps = rows_per_group * spec.num_input_vectors

    pcsa_senses = (
        spec.num_weight_vectors * spec.vector_length * spec.num_input_vectors
    )
    dac_drives = crossbar_activations * min(spec.vector_length, tile.cols)
    popcount_adds_per_output = CustBinaryMap.popcount_tree_adds(spec.vector_length)
    digital_adds = (
        popcount_adds_per_output * spec.num_weight_vectors * spec.num_input_vectors
    )
    cells_programmed = spec.vector_length * spec.num_weight_vectors
    return LayerSchedule(
        layer_name=spec.name,
        mapping_name=CustBinaryMap.name,
        wdm_capacity=1,
        num_tiles=tiles,
        crossbar_activations=crossbar_activations,
        sequential_steps=sequential_steps,
        adc_conversions=0,
        pcsa_senses=pcsa_senses,
        dac_drives=dac_drives,
        digital_adds=digital_adds,
        popcount_tree_depth=CustBinaryMap.popcount_tree_depth(spec.vector_length),
        cells_programmed=cells_programmed,
    )


#: memoisation table for :func:`build_layer_schedule`.  Every input is a
#: frozen (hashable) dataclass and every output is immutable, so schedules
#: can be shared freely across the cost, hierarchy, area and sweep callers —
#: including concurrently: the runtime layer's thread backend
#: (:class:`repro.runtime.executors.ThreadExecutor`) shares this per-process
#: cache across worker threads, so lookups/inserts and the hit/miss counters
#: are serialised under a lock.
_SCHEDULE_CACHE: Dict[Tuple[LayerSpec, str, TileShape, int], LayerSchedule] = {}
_CACHE_LOCK = threading.Lock()
_CACHE_HITS = 0
_CACHE_MISSES = 0


def clear_schedule_cache() -> None:
    """Empty the layer-schedule memoisation table and reset its counters."""
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        _SCHEDULE_CACHE.clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0


def schedule_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the layer-schedule memoisation table."""
    with _CACHE_LOCK:
        return {
            "hits": _CACHE_HITS,
            "misses": _CACHE_MISSES,
            "size": len(_SCHEDULE_CACHE),
        }


def build_layer_schedule(spec: LayerSpec, *, mapping: str,
                         tile_shape: Optional[TileShape] = None,
                         wdm_capacity: int = 1) -> LayerSchedule:
    """Build the operation-count schedule of one binary layer.

    Results are memoised by ``(spec, mapping, tile_shape, wdm_capacity)``:
    the same layer schedule is built by the network schedule the latency
    and energy models share (:func:`repro.arch.compiler.compile_network`),
    by the hierarchy allocator's footprint and by the area model, and
    design-space sweeps revisit identical layers across grid points, so
    the cache removes the dominant rebuild cost.

    Parameters
    ----------
    spec:
        The layer's operation-count description.
    mapping:
        ``"tacitmap"`` or ``"custbinarymap"``.
    tile_shape:
        Physical crossbar tile dimensions (256x256 by default).
    wdm_capacity:
        WDM capacity K (only meaningful for TacitMap on oPCM; must be 1 for
        the baseline mapping).
    """
    global _CACHE_HITS, _CACHE_MISSES
    if not spec.is_binary:
        raise ValueError(
            f"layer {spec.name} is not binary; only binary layers are mapped "
            "onto the crossbars"
        )
    tile = tile_shape if tile_shape is not None else TileShape()
    if wdm_capacity < 1:
        raise ValueError("wdm_capacity must be >= 1")
    key = (spec, mapping, tile, wdm_capacity)
    with _CACHE_LOCK:
        cached = _SCHEDULE_CACHE.get(key)
        if cached is not None:
            _CACHE_HITS += 1
            return cached
    if mapping == TacitMap.name:
        schedule = _tacitmap_layer_schedule(spec, tile, wdm_capacity)
    elif mapping == CustBinaryMap.name:
        if wdm_capacity != 1:
            raise ValueError("the baseline mapping does not support WDM")
        schedule = _custbinarymap_layer_schedule(spec, tile)
    else:
        raise ValueError(f"unknown mapping {mapping!r}")
    # two threads may race to build the same schedule; both build the
    # identical immutable value, the first insert wins and the counters
    # stay consistent because they only move under the lock
    with _CACHE_LOCK:
        if key not in _SCHEDULE_CACHE:
            _CACHE_MISSES += 1
            _SCHEDULE_CACHE[key] = schedule
        else:
            _CACHE_HITS += 1
        return _SCHEDULE_CACHE[key]


def build_network_schedule(workload: NetworkWorkload, *, mapping: str,
                           tile_shape: Optional[TileShape] = None,
                           wdm_capacity: int = 1) -> NetworkSchedule:
    """Build per-layer schedules for every binary layer of a network."""
    tile = tile_shape if tile_shape is not None else TileShape()
    schedules = [
        build_layer_schedule(
            spec, mapping=mapping, tile_shape=tile, wdm_capacity=wdm_capacity
        )
        for spec in workload.binary_layers
    ]
    return NetworkSchedule(
        network_name=workload.name,
        mapping_name=mapping,
        wdm_capacity=wdm_capacity,
        tile_shape=tile,
        layer_schedules=schedules,
        full_precision_layers=list(workload.full_precision_layers),
    )
