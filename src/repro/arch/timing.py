"""Per-inference latency model.

The latency of one inference is the sum over layers (layers are strictly
dependent, so they execute back-to-back) of:

* **binary layers** — the critical-path crossbar steps of the layer's mapping
  schedule (all tiles of a layer fire concurrently, exactly as both the
  baseline and the proposed designs allow), each step costing one crossbar
  activation of the appropriate kind (PCSA row read for CustBinaryMap, ADC
  VMM/MMM for TacitMap/EinsteinBarrier) plus, for the baseline, the popcount
  tree traversal, plus, for TacitMap, the digital merge of row-segment
  partial counts;
* **full-precision layers** — the MACs of the first/last layers executed on
  the ECore digital unit at its peak MAC throughput;
* **data movement** — activations moved over the on-chip network between
  layers.

Every term is closed-form arithmetic on the layer's
:class:`~repro.bnn.workload.LayerSpec` and its
:class:`~repro.core.schedule.LayerSchedule`.

One-time weight programming is reported separately and *not* included in the
steady-state inference latency (inference-time accelerators programme the
weights once), mirroring the paper's evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.arch.compiler import compile_network, crossbar_step, transfer_bytes
from repro.arch.config import AcceleratorConfig
from repro.bnn.workload import NetworkWorkload
from repro.core.schedule import NetworkSchedule
from repro.crossbar.tile import CrossbarTile


@dataclass(frozen=True)
class LatencyBreakdown:
    """Latency of one inference, broken down by contribution.

    All values are in seconds.
    """

    design_name: str
    network_name: str
    per_layer: Dict[str, float] = field(default_factory=dict)
    binary_compute: float = 0.0
    full_precision_compute: float = 0.0
    data_movement: float = 0.0
    weight_programming: float = 0.0

    @property
    def total(self) -> float:
        """End-to-end inference latency (excludes one-time weight writes)."""
        return self.binary_compute + self.full_precision_compute + self.data_movement


class LatencyModel:
    """Estimates inference latency for one accelerator design."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config
        self._tile = CrossbarTile(config.tile)

    # ------------------------------------------------------------------ #
    # Per-step costs
    # ------------------------------------------------------------------ #
    def binary_step_latency(self, active_rows: int, read_columns: int,
                            wavelengths: int, popcount_tree_depth: int) -> float:
        """Latency of one crossbar step of the configured mapping."""
        if self.config.mapping == "tacitmap":
            cost = self._tile.vmm_cost(
                max(active_rows, 1), max(read_columns, 1),
                wavelengths=max(wavelengths, 1),
            )
            return cost["latency"]
        cost = self._tile.pcsa_row_cost(max(read_columns, 1))
        tree = (
            popcount_tree_depth * self.config.digital.add_latency_cycles
            / self.config.digital.clock_hz
        )
        return cost["latency"] + tree

    def transfer_latency(self, num_bytes: int) -> float:
        """Latency of moving ``num_bytes`` over the on-chip network."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return (
            self.config.interconnect.hop_latency
            + num_bytes / self.config.interconnect.bandwidth_bytes_per_s
        )

    # ------------------------------------------------------------------ #
    # Whole-network estimation
    # ------------------------------------------------------------------ #
    def estimate(self, workload: NetworkWorkload,
                 schedule: NetworkSchedule | None = None) -> LatencyBreakdown:
        """Estimate the inference latency of ``workload`` on this design.

        One pass over the layers; each layer's terms are added in the
        order load, weight programming, crossbar steps, digital adds (or
        MACs), store.
        """
        config = self.config
        if schedule is None:
            schedule = compile_network(workload, config)
        digital = config.digital
        write_latency = config.tile.resolved_device_config.write_latency
        row_cells = max(config.tile.cols, 1)
        layer_schedules = iter(schedule.layer_schedules)
        per_layer: Dict[str, float] = {}
        binary_compute = 0.0
        full_precision_compute = 0.0
        data_movement = 0.0
        weight_programming = 0.0

        for spec in workload.layers:
            load_bytes, store_bytes = transfer_bytes(spec, config)
            load = self.transfer_latency(load_bytes)
            data_movement += load
            layer_time = load
            if spec.is_binary:
                layer = next(layer_schedules)
                weight_programming += (
                    math.ceil(layer.cells_programmed / row_cells) * write_latency
                )
                crossbar = layer.sequential_steps * self.binary_step_latency(
                    *crossbar_step(spec, config), layer.popcount_tree_depth
                )
                binary_compute += crossbar
                layer_time += crossbar
                if layer.digital_adds:
                    cycles = math.ceil(
                        layer.digital_adds / digital.macs_per_cycle
                    ) * digital.add_latency_cycles
                    adds = cycles / digital.clock_hz
                    binary_compute += adds
                    layer_time += adds
            else:
                macs = spec.macs / digital.macs_per_second
                full_precision_compute += macs
                layer_time += macs
            store = self.transfer_latency(store_bytes)
            data_movement += store
            per_layer[spec.name] = layer_time + store

        return LatencyBreakdown(
            design_name=config.name,
            network_name=workload.name,
            per_layer=per_layer,
            binary_compute=binary_compute,
            full_precision_compute=full_precision_compute,
            data_movement=data_movement,
            weight_programming=weight_programming,
        )
