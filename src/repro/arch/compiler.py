"""Lowering: a BNN workload's operation counts on one accelerator design.

:func:`compile_network` derives the mapping schedule of every binary layer
(tiling, crossbar activations, read-out and digital post-processing counts)
for the design's mapping, tile shape and WDM capacity.  The two helpers
below give the few per-layer operands the schedule does not hold: the
geometry of one crossbar step and the bytes a layer moves over the on-chip
network.  The latency and energy models turn these into closed-form costs.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.arch.config import AcceleratorConfig
from repro.bnn.workload import LayerSpec, NetworkWorkload
from repro.core.schedule import NetworkSchedule, build_network_schedule


def compile_network(workload: NetworkWorkload,
                    config: AcceleratorConfig) -> NetworkSchedule:
    """Schedule every binary layer of ``workload`` on one design."""
    return build_network_schedule(
        workload,
        mapping=config.mapping,
        tile_shape=config.tile_shape,
        wdm_capacity=config.wdm_capacity,
    )


def crossbar_step(spec: LayerSpec, config: AcceleratorConfig) -> Tuple[int, int, int]:
    """Active rows, read columns and wavelengths of one crossbar step.

    A TacitMap step drives both rails of the input vector and converts one
    column per stored weight vector, carrying up to ``K`` activation
    vectors on separate wavelengths; a CustBinaryMap step activates one
    word line and senses the input vector's bit lines.
    """
    if config.mapping == "tacitmap":
        return (
            min(2 * spec.vector_length, config.tile.rows),
            min(spec.num_weight_vectors, config.tile.cols),
            min(config.wdm_capacity, max(spec.num_input_vectors, 1)),
        )
    return 1, min(spec.vector_length, config.tile.cols), 1


def transfer_bytes(spec: LayerSpec, config: AcceleratorConfig) -> Tuple[int, int]:
    """Bytes a layer loads (its inputs) and stores (its outputs).

    Binary layers read ``activation_bits``-wide inputs; full-precision
    layers read ``full_precision_bits``-wide ones.  Every layer writes
    ``full_precision_bits``-wide outputs.  Odd widths round up to whole bytes.
    """
    input_bits = config.activation_bits if spec.is_binary else config.full_precision_bits
    inputs = spec.vector_length * spec.num_input_vectors
    outputs = spec.num_weight_vectors * spec.num_input_vectors
    return (
        math.ceil(inputs * input_bits / 8),
        math.ceil(outputs * config.full_precision_bits / 8),
    )
