"""Spatial hierarchy of EinsteinBarrier: VCore → ECore → Tile → Node.

Fig. 4 of the paper shows EinsteinBarrier as a PUMA-like spatial machine:
VMM-enabled cores (*VCores*, one crossbar plus its read/write periphery) sit
inside *ECores* (which add the instruction pipeline, register file, scalar
functional units and — for the photonic variant — the transmitter), several
ECores share a *Tile* (with its shared memory and receiver buffer), and Tiles
are assembled into *Nodes* connected by chip-to-chip links.

For the reproduction the hierarchy answers the resource questions the
evaluation depends on: how many VCores does a network need, does it fit in a
node, what is the static power and area bill of the photonic extras, and how
is the per-design accelerator provisioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.arch.config import AcceleratorConfig
from repro.bnn.workload import NetworkWorkload
from repro.core.schedule import build_network_schedule
from repro.crossbar.cell import OneT1RCell, TwoT2RCell
from repro.crossbar.tile import CrossbarTile
from repro.photonics.power import crossbar_receiver_power, transmitter_power


@dataclass(frozen=True)
class VCore:
    """One VMM-enabled core: a crossbar tile plus its periphery."""

    index: int
    config: AcceleratorConfig

    @property
    def crossbar_cells(self) -> int:
        """Number of device cells in this VCore's crossbar."""
        return self.config.tile.rows * self.config.tile.cols

    @property
    def receiver_static_power(self) -> float:
        """Static receiver power (Eq. 2) of this VCore, in watts."""
        return CrossbarTile(self.config.tile).receiver_static_power()

    @property
    def area_mm2(self) -> float:
        """Crude area estimate of the crossbar array in mm^2."""
        cell = (
            OneT1RCell() if self.config.mapping == "tacitmap" else TwoT2RCell()
        )
        return self.crossbar_cells * cell.area_um2 * 1e-6


@dataclass(frozen=True)
class ECore:
    """External core: VCores + instruction pipeline + (optional) transmitter."""

    index: int
    config: AcceleratorConfig

    @property
    def num_vcores(self) -> int:
        """VCores inside this ECore."""
        return self.config.vcores_per_ecore

    @property
    def transmitter_power(self) -> float:
        """Transmitter power (Eq. 3) of this ECore; zero for ePCM designs."""
        if self.config.technology != "opcm":
            return 0.0
        return transmitter_power(
            self.config.wdm_capacity,
            self.config.tile.rows,
            laser_power=self.config.laser_power_w,
        )

    @property
    def static_power(self) -> float:
        """Static power of this ECore's photonic extras (transmitter + TIAs)."""
        receiver = 0.0
        if self.config.technology == "opcm":
            receiver = self.num_vcores * crossbar_receiver_power(
                self.config.tile.cols
            )
        return self.transmitter_power + receiver


@dataclass(frozen=True)
class Tile:
    """Architecture tile: several ECores sharing memory and a receiver buffer."""

    index: int
    config: AcceleratorConfig

    @property
    def num_ecores(self) -> int:
        """ECores inside this tile."""
        return self.config.ecores_per_tile

    @property
    def num_vcores(self) -> int:
        """Total VCores inside this tile."""
        return self.num_ecores * self.config.vcores_per_ecore

    @property
    def static_power(self) -> float:
        """Static photonic power of this tile's ECores."""
        return self.num_ecores * ECore(0, self.config).static_power


@dataclass(frozen=True)
class Node:
    """One chip: several tiles plus chip-to-chip interconnect."""

    index: int
    config: AcceleratorConfig

    @property
    def num_tiles(self) -> int:
        """Architecture tiles per node."""
        return self.config.tiles_per_node

    @property
    def num_vcores(self) -> int:
        """Total VCores per node."""
        return self.num_tiles * Tile(0, self.config).num_vcores

    @property
    def static_power(self) -> float:
        """Static photonic power of the whole node."""
        return self.num_tiles * Tile(0, self.config).static_power


@dataclass(frozen=True)
class Footprint:
    """Hierarchy-free resource needs of a network on one design.

    Everything here follows from the network schedule alone (mapping,
    crossbar shape, WDM capacity), never from the VCore/ECore/Tile/Node
    sizing, so one footprint serves every sizing of a design.
    """

    design_name: str
    network_name: str
    vcores_required: int
    crossbar_cells_required: int
    per_layer_vcores: Dict[str, int]
    crossbar_area_mm2: float


@dataclass(frozen=True)
class AllocationReport(Footprint):
    """How a network maps onto the hierarchy of one design.

    A :class:`Footprint` plus what the sizing provisions for it
    (see :func:`provision`).
    """

    vcores_per_node: int
    nodes_required: int
    static_optical_power: float

    @property
    def fits_single_node(self) -> bool:
        """True when the whole network fits in one node."""
        return self.nodes_required <= 1

    @property
    def vcores_provisioned(self) -> int:
        """Total VCores in the provisioned nodes (allocation granularity)."""
        return self.nodes_required * self.vcores_per_node

    @property
    def node_utilisation(self) -> float:
        """Fraction of provisioned VCores the network actually occupies.

        Nodes are the provisioning granularity, so a network needing one
        VCore more than a node holds pays for a whole second node — the
        effect the hierarchy-sizing sweep axes expose.  A workload with no
        binary layers occupies zero VCores and utilises nothing.
        """
        if self.vcores_required <= 0:
            return 0.0
        return self.vcores_required / self.vcores_provisioned


class EinsteinBarrierSystem:
    """System-level façade over the hierarchy for one accelerator design."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config

    def node(self, index: int = 0) -> Node:
        """Materialise a node descriptor."""
        return Node(index, self.config)

    def footprint(self, workload: NetworkWorkload) -> Footprint:
        """The sizing-independent VCore, cell and area needs of a network."""
        schedule = build_network_schedule(
            workload,
            mapping=self.config.mapping,
            tile_shape=self.config.tile_shape,
            wdm_capacity=self.config.wdm_capacity,
        )
        per_layer = {
            layer.layer_name: layer.num_tiles for layer in schedule.layer_schedules
        }
        vcores_required = schedule.total_tiles
        return Footprint(
            design_name=self.config.name,
            network_name=workload.name,
            vcores_required=vcores_required,
            crossbar_cells_required=sum(
                s.cells_programmed for s in schedule.layer_schedules
            ),
            per_layer_vcores=per_layer,
            crossbar_area_mm2=vcores_required * VCore(0, self.config).area_mm2,
        )

    def allocate(self, workload: NetworkWorkload) -> AllocationReport:
        """Compute the VCore/node requirements of a network on this design.

        The network's :meth:`footprint` provisioned for this config's
        sizing.  Only :func:`provision` reads ``vcores_per_ecore``,
        ``ecores_per_tile`` and ``tiles_per_node``, so a caller that sizes
        one design many ways computes the footprint once and provisions it
        per sizing — the design-space sweep does that arithmetic inline
        (:func:`repro.eval.sweep.evaluate_point`).
        """
        return provision(self.footprint(workload), self.config)


def provision(footprint: Footprint,
              config: AcceleratorConfig) -> AllocationReport:
    """Provision ``footprint`` on the VCore/ECore/Tile/Node sizing of ``config``.

    Nodes are whole: a network needing VCores provisions enough nodes to
    hold them, and at least one.  The static optical power is that of the
    ECores the VCores fill (zero for electronic designs).  ``footprint``
    must come from a design that differs from ``config`` at most in its
    sizing; an :class:`AllocationReport` is a footprint too, so a report
    can be re-provisioned for another sizing directly.
    """
    vcores_required = footprint.vcores_required
    vcores_per_node = Node(0, config).num_vcores
    static_power = 0.0
    if config.technology == "opcm":
        ecores_required = math.ceil(vcores_required / config.vcores_per_ecore)
        static_power = ecores_required * ECore(0, config).static_power
    return AllocationReport(
        design_name=footprint.design_name,
        network_name=footprint.network_name,
        vcores_required=vcores_required,
        crossbar_cells_required=footprint.crossbar_cells_required,
        per_layer_vcores=footprint.per_layer_vcores,
        crossbar_area_mm2=footprint.crossbar_area_mm2,
        vcores_per_node=vcores_per_node,
        nodes_required=max(math.ceil(vcores_required / vcores_per_node), 1),
        static_optical_power=static_power,
    )
