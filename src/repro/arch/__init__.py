"""EinsteinBarrier architecture simulator (and its ePCM siblings).

The paper implements EinsteinBarrier as "a heavily extended version of the
PUMA architecture and compiler" (Sec. V-A).  This package is an
analytical model of it: every figure is closed-form arithmetic over
per-layer operation counts, with no instruction-level simulation.

* :mod:`repro.arch.config` — accelerator configuration dataclasses and the
  three evaluated designs (Baseline-ePCM, TacitMap-ePCM, EinsteinBarrier);
* :mod:`repro.arch.compiler` — schedules a BNN workload's binary layers on
  a design (mapping, tile shape, WDM grouping);
* :mod:`repro.arch.hierarchy` — the spatial organisation
  (VCore → ECore → Tile → Node) with capacity, area and static-power queries;
* :mod:`repro.arch.timing` / :mod:`repro.arch.energy` — per-inference latency
  and energy models that consume the mapping schedules, the crossbar tile
  costs and the photonic power equations;
* :mod:`repro.arch.accelerator` — the user-facing façade tying it together.
"""

from repro.arch.accelerator import AcceleratorModel, InferenceReport
from repro.arch.area import AreaBreakdown, estimate_area
from repro.arch.compiler import compile_network
from repro.arch.config import (
    AcceleratorConfig,
    DigitalUnitConfig,
    InterconnectConfig,
    baseline_epcm_config,
    einsteinbarrier_config,
    tacitmap_epcm_config,
)
from repro.arch.energy import EnergyBreakdown, EnergyModel
from repro.arch.hierarchy import ECore, EinsteinBarrierSystem, Node, Tile, VCore
from repro.arch.timing import LatencyBreakdown, LatencyModel

__all__ = [
    "AcceleratorModel",
    "InferenceReport",
    "AreaBreakdown",
    "estimate_area",
    "compile_network",
    "AcceleratorConfig",
    "DigitalUnitConfig",
    "InterconnectConfig",
    "baseline_epcm_config",
    "einsteinbarrier_config",
    "tacitmap_epcm_config",
    "EnergyBreakdown",
    "EnergyModel",
    "ECore",
    "EinsteinBarrierSystem",
    "Node",
    "Tile",
    "VCore",
    "LatencyBreakdown",
    "LatencyModel",
]
