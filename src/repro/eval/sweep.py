"""Declarative design-space sweeps with memoised models and parallel workers.

The ablation helpers in :mod:`repro.eval.ablations` sweep one parameter at a
time.  Production design-space exploration needs the full cross product —
*which network, on which design, at which crossbar size, with how many
wavelengths, under how much read noise* — evaluated quickly and repeatably.
This module provides that as a small subsystem:

* :class:`SweepGrid` — a declarative description of the grid.  Axes that do
  not apply to a design are collapsed automatically (only EinsteinBarrier
  sweeps WDM capacity; the electronic designs are evaluated once at K = 1).
* :func:`run_sweep` — evaluates every grid point through the unified
  runtime layer (:mod:`repro.runtime`): ``backend=`` selects the executor
  (serial / thread / process / queue), ``workers=`` keeps the historical
  ``multiprocessing`` semantics, and the ``REPRO_RUNTIME_BACKEND``
  environment variable can force a backend fleet-wide (CI uses it to run
  the tier-1 suite over the process backend).  Repeated structure across
  the grid is built once per process, in these caches:

  - workloads: :func:`repro.bnn.workload.get_workload`, derived from the
    networks' shape table without allocating weights;
  - configs and accelerator models: one per design configuration at the
    default hierarchy sizing;
  - reports: per network and default-sizing configuration, the cost
    (latency, energy and the allocation's footprint);
    each hierarchy sizing is arithmetic on that cost in
    :func:`evaluate_point` — no config, model or report per sizing;
  - layer schedules: :mod:`repro.core.schedule`.
* :class:`SweepRecord` / :class:`SweepResult` — structured results with a
  JSON-ready payload (:meth:`SweepResult.to_payload`,
  :func:`write_sweep_json`) consumed by the benchmarks and CI artifacts.
* :class:`AccuracySweepGrid` / :func:`run_accuracy_sweep` — the *functional*
  scenario: end-to-end accuracy of (optionally quickly trained) evaluation
  networks under per-popcount read-noise bit flips, produced through the
  batched packed :class:`~repro.bnn.model.InferenceEngine` so whole
  accuracy-vs-noise curves sweep in seconds.

Beyond read noise, the analytical grid exposes the remaining noise axes of
:class:`repro.crossbar.noise.NoiseConfig` (thermal, shot, IR drop), the
ADC-sharing factor ``columns_per_adc`` and the spatial hierarchy sizing
(``vcores_per_ecore`` / ``ecores_per_tile`` / ``tiles_per_node`` of
:mod:`repro.arch.hierarchy`) as first-class axes; axes that do not apply to
a design are collapsed automatically, exactly like the WDM axis.  The
hierarchy axes surface provisioning metrics (nodes required, VCore
utilisation) in every record.

Determinism: every stochastic quantity (the optional popcount-error metric,
the accuracy scenario's training/noise streams) is seeded per grid point
with :func:`repro.utils.rng.derive_seed` (a grid derives all of its point
seeds in one :func:`repro.utils.rng.derive_seeds` pass), so results are
identical run-to-run and independent of worker count or execution order.

Example
-------
>>> grid = SweepGrid(networks=("MLP-S",), designs=("einsteinbarrier",),
...                  crossbar_sizes=(128, 256), wdm_capacities=(4, 16))
>>> result = run_sweep(grid)
>>> len(result.records)
4
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.accelerator import AcceleratorModel, InferenceReport
from repro.arch.config import (
    AcceleratorConfig,
    baseline_epcm_config,
    einsteinbarrier_config,
    tacitmap_epcm_config,
)
from repro.bnn.datasets import load_dataset
from repro.bnn.model import BNNModel, InferenceEngine
from repro.bnn.networks import build_network, dataset_for_network
from repro.bnn.training import train
from repro.bnn.workload import get_workload
from repro.eval.robustness import popcount_error_rate, popcount_flip_rate_fn
from repro.eval.reporting import write_json_report
from repro.runtime.executors import Executor, resolve_executor
from repro.utils.rng import derive_seed, derive_seeds

#: config factory per design key (the paper's three evaluated designs)
DESIGN_FACTORIES = {
    "baseline_epcm": baseline_epcm_config,
    "tacitmap_epcm": tacitmap_epcm_config,
    "einsteinbarrier": einsteinbarrier_config,
}

#: designs whose WDM capacity axis is meaningful (photonic crossbars only)
WDM_DESIGNS = frozenset({"einsteinbarrier"})

#: designs whose column ADCs can be shared (ADC read-out; the baseline's
#: per-column PCSAs have no sharing knob, so the axis collapses for it)
ADC_SHARING_DESIGNS = frozenset({"tacitmap_epcm", "einsteinbarrier"})

#: designs whose VCore/ECore/Tile hierarchy sizing is a provisioning knob
#: (the PUMA-like TacitMap machines of Fig. 4; the baseline's fixed
#: crossbar organisation contributes one point at its factory default,
#: mirroring the WDM and ADC collapses)
HIERARCHY_DESIGNS = frozenset({"tacitmap_epcm", "einsteinbarrier"})

#: hierarchy sizing triple (VCores/ECore, ECores/Tile, Tiles/Node); ``None``
#: components keep the design factory's default
Hierarchy = Tuple[Optional[int], Optional[int], Optional[int]]

_DEFAULT_HIERARCHY: Hierarchy = (None, None, None)

#: the hierarchy sizing fields, in :data:`Hierarchy` order
_HIERARCHY_FIELDS = ("vcores_per_ecore", "ecores_per_tile", "tiles_per_node")

_ModelKey = Tuple[str, int, int, Optional[int], Hierarchy]
_CONFIG_CACHE: Dict[_ModelKey, AcceleratorConfig] = {}
_MODEL_CACHE: Dict[_ModelKey, AcceleratorModel] = {}
_REPORT_CACHE: Dict[Tuple[_ModelKey, str], InferenceReport] = {}
_TRAINED_CACHE: Dict[Tuple[str, int, int], BNNModel] = {}


def clear_sweep_caches() -> None:
    """Empty the per-process config, model, report and trained-net caches."""
    _CONFIG_CACHE.clear()
    _MODEL_CACHE.clear()
    _REPORT_CACHE.clear()
    _TRAINED_CACHE.clear()


def _effective_columns_per_adc(design: str,
                               columns_per_adc: Optional[int]) -> Optional[int]:
    return columns_per_adc if design in ADC_SHARING_DESIGNS else None


def _effective_hierarchy(design: str, hierarchy: Hierarchy) -> Hierarchy:
    return hierarchy if design in HIERARCHY_DESIGNS else _DEFAULT_HIERARCHY


def _model_key(design: str, crossbar_size: int, wdm_capacity: int,
               columns_per_adc: Optional[int],
               hierarchy: Hierarchy) -> _ModelKey:
    effective_wdm = wdm_capacity if design in WDM_DESIGNS else 1
    return (design, crossbar_size, effective_wdm,
            _effective_columns_per_adc(design, columns_per_adc),
            _effective_hierarchy(design, hierarchy))


def _unsized(key: _ModelKey) -> _ModelKey:
    """``key`` at the factory's default hierarchy sizing."""
    return key[:-1] + (_DEFAULT_HIERARCHY,)


def _sized_config(key: _ModelKey) -> AcceleratorConfig:
    """Memoised configuration of one model key.

    The factory builds the configuration at the default hierarchy sizing;
    every other sizing is that configuration with the explicit
    ``vcores_per_ecore`` / ``ecores_per_tile`` / ``tiles_per_node`` values
    overridden, which is what the factory's own keywords produce.  The
    sweep asks only for default sizings; a sized key comes from
    :func:`get_accelerator_model` with explicit sizing keywords.
    """
    config = _CONFIG_CACHE.get(key)
    if config is None:
        design, crossbar_size, wdm_capacity, columns_per_adc, hierarchy = key
        if hierarchy == _DEFAULT_HIERARCHY:
            kwargs: Dict[str, int] = {"crossbar_size": crossbar_size}
            if design in WDM_DESIGNS:
                kwargs["wdm_capacity"] = wdm_capacity
            if columns_per_adc is not None:
                kwargs["columns_per_adc"] = columns_per_adc
            config = DESIGN_FACTORIES[design](**kwargs)
        else:
            config = _sized_config(_unsized(key)).with_overrides(**{
                name: value
                for name, value in zip(_HIERARCHY_FIELDS, hierarchy)
                if value is not None
            })
        _CONFIG_CACHE[key] = config
    return config


def _model(key: _ModelKey) -> AcceleratorModel:
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = _MODEL_CACHE[key] = AcceleratorModel(_sized_config(key))
    return model


def get_accelerator_model(design: str, *, crossbar_size: int = 256,
                          wdm_capacity: int = 1,
                          columns_per_adc: Optional[int] = None,
                          vcores_per_ecore: Optional[int] = None,
                          ecores_per_tile: Optional[int] = None,
                          tiles_per_node: Optional[int] = None
                          ) -> AcceleratorModel:
    """Memoised :class:`AcceleratorModel` for one design configuration.

    Model construction instantiates the latency/energy/hierarchy models;
    sharing instances across grid points (and with the figure-regeneration
    experiments) is safe because the models are stateless after ``__init__``.
    ``columns_per_adc = None`` keeps each design's factory default; explicit
    values apply only to the ADC-readout designs (the baseline's PCSAs have
    no sharing knob, mirroring how the WDM axis collapses for ePCM).  The
    hierarchy sizing triple behaves the same way: ``None`` components keep
    the factory default, and explicit values apply only to the PUMA-like
    designs in :data:`HIERARCHY_DESIGNS`.  The sweep itself asks only for
    models at the default sizing: it sizes them by arithmetic
    (see :func:`evaluate_point`).
    """
    if design not in DESIGN_FACTORIES:
        raise ValueError(
            f"unknown design {design!r}; choose from {sorted(DESIGN_FACTORIES)}"
        )
    return _model(_model_key(
        design, crossbar_size, wdm_capacity, columns_per_adc,
        (vcores_per_ecore, ecores_per_tile, tiles_per_node),
    ))


def _cached_report(key: _ModelKey, network: str) -> InferenceReport:
    """The report of ``network`` on one model key, computed once per process.

    The sweep asks only for hierarchy-free keys (see :func:`_unsized`):
    the network schedule, the latency and energy models and the allocation's
    footprint never read the hierarchy sizing, so one report is the cost
    of every sizing, and :func:`evaluate_point` provisions each sizing by
    arithmetic on it.
    """
    report = _REPORT_CACHE.get((key, network))
    if report is None:
        report = _REPORT_CACHE[(key, network)] = \
            _model(key).run_inference(get_workload(network))
    return report


@dataclass(frozen=True)
class SweepGrid:
    """Declarative description of a design-space parameter grid.

    Attributes
    ----------
    networks:
        Evaluation network names (see :func:`repro.bnn.networks.list_networks`).
    designs:
        Design keys from :data:`DESIGN_FACTORIES`.
    crossbar_sizes:
        Square crossbar array sizes to sweep.
    wdm_capacities:
        WDM capacities K; applied only to designs in :data:`WDM_DESIGNS`,
        the electronic designs contribute one point at K = 1.
    noise_sigmas:
        Read-noise levels for the optional popcount-error metric.  Empty
        (the default) skips the functional noise simulation entirely and
        every record carries ``popcount_error = None`` — unless one of the
        dense noise axes below is non-ideal, in which case the simulation
        runs with zero read noise.
    thermal_sigmas, shot_factors, ir_drop_alphas:
        The remaining noise axes of
        :class:`repro.crossbar.noise.NoiseConfig`, applied to the
        functional popcount-error simulation.  Defaults are the ideal
        single point, leaving existing grids (and their derived seeds)
        unchanged.
    columns_per_adc:
        ADC-sharing factors to sweep; ``None`` keeps each design's factory
        default.  Applies only to designs in :data:`ADC_SHARING_DESIGNS`
        (the baseline's PCSA read-out contributes one point per
        combination, like the WDM collapse).
    vcores_per_ecore, ecores_per_tile, tiles_per_node:
        Spatial hierarchy sizing axes (:mod:`repro.arch.hierarchy`);
        ``None`` keeps each design factory's default (8/8/8).  They apply
        only to designs in :data:`HIERARCHY_DESIGNS` — the baseline's
        fixed organisation contributes one point per combination — and
        they surface as provisioning metrics (``nodes_required``,
        ``node_utilisation``) on every record.
    noise_trials, noise_vector_length, noise_num_outputs:
        Size of the functional popcount-error simulation per point.
    seed:
        Base seed; every point derives its own stream so results do not
        depend on evaluation order or worker count.
    """

    networks: Tuple[str, ...] = ("CNN-L",)
    designs: Tuple[str, ...] = tuple(DESIGN_FACTORIES)
    crossbar_sizes: Tuple[int, ...] = (256,)
    wdm_capacities: Tuple[int, ...] = (16,)
    noise_sigmas: Tuple[float, ...] = ()
    thermal_sigmas: Tuple[float, ...] = (0.0,)
    shot_factors: Tuple[float, ...] = (0.0,)
    ir_drop_alphas: Tuple[float, ...] = (0.0,)
    columns_per_adc: Tuple[Optional[int], ...] = (None,)
    vcores_per_ecore: Tuple[Optional[int], ...] = (None,)
    ecores_per_tile: Tuple[Optional[int], ...] = (None,)
    tiles_per_node: Tuple[Optional[int], ...] = (None,)
    noise_trials: int = 4
    noise_vector_length: int = 64
    noise_num_outputs: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("networks", "designs", "crossbar_sizes",
                     "wdm_capacities", "noise_sigmas", "thermal_sigmas",
                     "shot_factors", "ir_drop_alphas", "columns_per_adc",
                     "vcores_per_ecore", "ecores_per_tile", "tiles_per_node"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("networks", "designs", "crossbar_sizes", "wdm_capacities",
                     "thermal_sigmas", "shot_factors", "ir_drop_alphas",
                     "columns_per_adc", "vcores_per_ecore", "ecores_per_tile",
                     "tiles_per_node"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for design in self.designs:
            if design not in DESIGN_FACTORIES:
                raise ValueError(
                    f"unknown design {design!r}; choose from "
                    f"{sorted(DESIGN_FACTORIES)}"
                )
        if any(size < 2 for size in self.crossbar_sizes):
            raise ValueError("crossbar sizes must be >= 2")
        if any(capacity < 1 for capacity in self.wdm_capacities):
            raise ValueError("WDM capacities must be >= 1")
        if any(not 0 <= sigma <= 1 for sigma in self.noise_sigmas):
            # fail fast here rather than deep inside a pool worker: the
            # device configs bound read_noise_sigma to [0, 1]
            raise ValueError("noise sigmas must be within [0, 1]")
        if any(sigma < 0 for sigma in self.thermal_sigmas):
            raise ValueError("thermal sigmas must be non-negative")
        if any(factor < 0 for factor in self.shot_factors):
            raise ValueError("shot factors must be non-negative")
        if any(not 0 <= alpha < 1 for alpha in self.ir_drop_alphas):
            # NoiseConfig bounds ir_drop_alpha to [0, 1)
            raise ValueError("IR-drop alphas must be within [0, 1)")
        if any(cols is not None and cols < 1 for cols in self.columns_per_adc):
            raise ValueError("columns_per_adc values must be None or >= 1")
        for name in ("vcores_per_ecore", "ecores_per_tile", "tiles_per_node"):
            if any(v is not None and v < 1 for v in getattr(self, name)):
                raise ValueError(f"{name} values must be None or >= 1")
        if self.noise_trials < 1:
            raise ValueError("noise_trials must be >= 1")

    @property
    def num_points(self) -> int:
        """``len(self.points())``, counted without building any spec."""
        per_network = sum(
            (len(self.wdm_capacities) if design in WDM_DESIGNS else 1)
            * (len(self.columns_per_adc)
               if design in ADC_SHARING_DESIGNS else 1)
            * (len(self.vcores_per_ecore) * len(self.ecores_per_tile)
               * len(self.tiles_per_node)
               if design in HIERARCHY_DESIGNS else 1)
            for design in self.designs
        )
        return (len(self.networks) * per_network * len(self.crossbar_sizes)
                * len(self.noise_sigmas or (None,))
                * len(self.thermal_sigmas) * len(self.shot_factors)
                * len(self.ir_drop_alphas))

    def points(self) -> List["SweepPointSpec"]:
        """Expand the grid into self-contained, picklable point specs.

        Expansion is row-major over (network, design, crossbar size, WDM
        capacity, ADC sharing, hierarchy sizing, read noise, thermal, shot,
        IR drop), with the WDM, ADC and hierarchy axes collapsed for designs
        they do not apply to.  Point seeds are salted with the axis values;
        the salt of a point whose new axes sit at their defaults is
        identical to the pre-extension salt, so adding axes to the grid
        never reshuffles existing points' derived seeds.  All seeds are
        derived at once (:func:`repro.utils.rng.derive_seeds`).
        """
        sigmas: Tuple[Optional[float], ...] = self.noise_sigmas or (None,)
        rows: List[tuple] = []
        salts: List[str] = []
        for network in self.networks:
            for design in self.designs:
                capacities = (
                    self.wdm_capacities if design in WDM_DESIGNS else (1,)
                )
                adc_sharings = (
                    self.columns_per_adc
                    if design in ADC_SHARING_DESIGNS else (None,)
                )
                hierarchies: Tuple[Hierarchy, ...]
                if design in HIERARCHY_DESIGNS:
                    hierarchies = tuple(product(
                        self.vcores_per_ecore, self.ecores_per_tile,
                        self.tiles_per_node,
                    ))
                else:
                    hierarchies = (_DEFAULT_HIERARCHY,)
                axes = product(
                    self.crossbar_sizes, capacities, adc_sharings,
                    hierarchies, sigmas, self.thermal_sigmas,
                    self.shot_factors, self.ir_drop_alphas,
                )
                for (size, capacity, cols, hierarchy, sigma, thermal,
                     shot, alpha) in axes:
                    salt = f"{network}/{design}/{size}/{capacity}/{sigma}"
                    if (thermal, shot, alpha, cols) != (0.0, 0.0, 0.0, None):
                        salt += f"/{thermal}/{shot}/{alpha}/{cols}"
                    if hierarchy != _DEFAULT_HIERARCHY:
                        salt += (f"/h{hierarchy[0]}/{hierarchy[1]}"
                                 f"/{hierarchy[2]}")
                    salts.append(salt)
                    rows.append((network, design, size, capacity, sigma,
                                 cols, hierarchy, thermal, shot, alpha))
        noise_sizes = (self.noise_trials, self.noise_vector_length,
                       self.noise_num_outputs)
        # positional, in SweepPointSpec field order
        return [
            SweepPointSpec(network, design, size, capacity, sigma,
                           *noise_sizes, seed, cols, *hierarchy, thermal,
                           shot, alpha)
            for (network, design, size, capacity, sigma, cols, hierarchy,
                 thermal, shot, alpha), seed
            in zip(rows, derive_seeds(self.seed, salts))
        ]


@dataclass(frozen=True)
class SweepPointSpec:
    """One fully resolved grid point (self-contained and picklable)."""

    network: str
    design: str
    crossbar_size: int
    wdm_capacity: int
    noise_sigma: Optional[float]
    noise_trials: int
    noise_vector_length: int
    noise_num_outputs: int
    seed: int
    columns_per_adc: Optional[int] = None
    vcores_per_ecore: Optional[int] = None
    ecores_per_tile: Optional[int] = None
    tiles_per_node: Optional[int] = None
    thermal_sigma: float = 0.0
    shot_factor: float = 0.0
    ir_drop_alpha: float = 0.0

    @property
    def hierarchy(self) -> Hierarchy:
        """Hierarchy sizing triple (``None`` components = factory default)."""
        return (self.vcores_per_ecore, self.ecores_per_tile,
                self.tiles_per_node)

    @property
    def has_functional_noise(self) -> bool:
        """Whether the point requires the functional popcount simulation."""
        return (self.noise_sigma is not None
                or self.thermal_sigma > 0.0
                or self.shot_factor > 0.0
                or self.ir_drop_alpha > 0.0)


@dataclass(frozen=True)
class SweepRecord:
    """Evaluated metrics of one grid point.

    ``speedup_vs_baseline`` and ``energy_ratio_vs_baseline`` compare against
    Baseline-ePCM at the *same* crossbar size, so the ratios always compare
    equal-capacity arrays.  ``popcount_error`` is the functional TacitMap
    column read error rate under the point's noise knobs (``None`` when the
    grid carries no active noise axis).  ``columns_per_adc`` is the value
    actually configured — the design's factory default when the grid left
    the axis at ``None`` or the design has no sharing knob.
    """

    network: str
    design: str
    crossbar_size: int
    wdm_capacity: int
    noise_sigma: Optional[float]
    latency_s: float
    energy_j: float
    speedup_vs_baseline: float
    energy_ratio_vs_baseline: float
    popcount_error: Optional[float]
    columns_per_adc: int = 1
    thermal_sigma: float = 0.0
    shot_factor: float = 0.0
    ir_drop_alpha: float = 0.0
    vcores_per_ecore: int = 8
    ecores_per_tile: int = 8
    tiles_per_node: int = 8
    vcores_required: int = 0
    nodes_required: int = 1
    node_utilisation: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dictionary of this record."""
        return asdict(self)


def evaluate_point(spec: SweepPointSpec) -> SweepRecord:
    """Evaluate one grid point (deterministic given the spec).

    The point's cost is the cached report of its hierarchy-free key; its
    sizing only provisions that cost, with the expressions of
    :func:`repro.arch.hierarchy.provision`: whole nodes of
    ``tiles_per_node * ecores_per_tile * vcores_per_ecore`` VCores, at
    least one.
    """
    design = spec.design
    key = _model_key(design, spec.crossbar_size, spec.wdm_capacity,
                     spec.columns_per_adc, _DEFAULT_HIERARCHY)
    report = _cached_report(key, spec.network)
    baseline = _cached_report(
        _model_key("baseline_epcm", spec.crossbar_size, 1, None,
                   _DEFAULT_HIERARCHY),
        spec.network,
    )
    config = _sized_config(key)
    v, e, t = _effective_hierarchy(design, spec.hierarchy)
    v = config.vcores_per_ecore if v is None else v
    e = config.ecores_per_tile if e is None else e
    t = config.tiles_per_node if t is None else t
    if min(v, e, t) < 1:
        raise ValueError(
            f"hierarchy sizing {(v, e, t)} of {design} must be >= 1")
    vcores_required = report.allocation.vcores_required
    vcores_per_node = t * (e * v)
    nodes_required = max(math.ceil(vcores_required / vcores_per_node), 1)
    node_utilisation = (
        0.0 if vcores_required <= 0
        else vcores_required / (nodes_required * vcores_per_node)
    )
    popcount_error: Optional[float] = None
    if spec.has_functional_noise:
        popcount_error = popcount_error_rate(
            vector_length=spec.noise_vector_length,
            num_outputs=spec.noise_num_outputs,
            read_noise_sigma=spec.noise_sigma or 0.0,
            thermal_sigma=spec.thermal_sigma,
            shot_factor=spec.shot_factor,
            ir_drop_alpha=spec.ir_drop_alpha,
            technology=config.technology,
            trials=spec.noise_trials,
            rng=spec.seed,
        )
    latency = report.latency.total
    energy = report.energy.total
    # positional, in SweepRecord field order
    return SweepRecord(
        spec.network, design, spec.crossbar_size, spec.wdm_capacity,
        spec.noise_sigma, latency, energy,
        baseline.latency.total / latency, energy / baseline.energy.total,
        popcount_error, config.tile.columns_per_adc, spec.thermal_sigma,
        spec.shot_factor, spec.ir_drop_alpha, v, e, t, vcores_required,
        nodes_required, node_utilisation,
    )


@dataclass(frozen=True)
class SweepResult:
    """All records of one sweep, in grid (row-major) order."""

    grid: SweepGrid
    records: List[SweepRecord] = field(default_factory=list)

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready payload: the grid definition plus every record."""
        return {
            "grid": asdict(self.grid),
            "records": [record.to_dict() for record in self.records],
        }

    def best(self, metric: str = "speedup_vs_baseline") -> SweepRecord:
        """Record maximising ``metric`` across the whole grid."""
        if not self.records:
            raise ValueError(
                f"best({metric!r}) on an empty SweepResult: the sweep "
                f"published no records yet.  A partially-resumed or "
                f"still-running sharded sweep has its published rows in "
                f"the root's columnar store (repro.eval.shard."
                f"aggregate_sweep raises with the resume instruction); "
                f"an ordinary run_sweep returning empty means the grid "
                f"expanded to zero points."
            )
        return max(self.records, key=lambda r: getattr(r, metric))


def _run_points(fn, points, *, workers: Optional[int],
                backend: Optional[str],
                executor: Optional[Executor],
                backend_options: Optional[Dict[str, object]] = None
                ) -> List[object]:
    """Fan grid points out over the runtime layer (ordered results).

    An explicitly supplied ``executor`` is used as-is and left open (the
    caller owns its lifecycle); otherwise the backend is resolved from
    ``backend=``, the ``REPRO_RUNTIME_BACKEND`` environment variable, or
    the historical ``workers=`` semantics, and closed after the run.
    """
    if executor is not None:
        if backend_options:
            # same fail-loud rule resolve_executor applies to the legacy
            # workers= path: a pre-built executor carries its own knobs,
            # so options passed alongside it would be silently ignored
            raise ValueError(
                "backend_options cannot be combined with an explicit "
                "executor=; construct the executor with those knobs instead"
            )
        return executor.map(fn, points)
    with resolve_executor(backend=backend, workers=workers,
                          options=backend_options) as runner:
        return runner.map(fn, points)


def run_sweep(grid: SweepGrid, *, workers: Optional[int] = None,
              backend: Optional[str] = None,
              executor: Optional[Executor] = None,
              backend_options: Optional[Dict[str, object]] = None
              ) -> SweepResult:
    """Evaluate every point of ``grid`` through the runtime layer.

    Parameters
    ----------
    grid:
        The parameter grid to evaluate.
    workers:
        Backward-compatible worker count: ``None``/``0``/``1`` evaluates
        serially in-process (sharing the memoisation caches with the
        caller); larger values fan the points out over the process backend
        — exactly the old :class:`multiprocessing.Pool` behaviour.
    backend:
        Runtime backend name (``"serial"``, ``"thread"``, ``"process"``,
        ``"queue"``); overrides the ``workers`` heuristic and the
        ``REPRO_RUNTIME_BACKEND`` environment toggle.
    executor:
        A pre-built :class:`repro.runtime.Executor` to reuse across calls
        (the caller keeps ownership; it is not closed).
    backend_options:
        Backend-specific constructor keywords, e.g. the queue backend's
        fleet-hardening knobs (``lease_s``, ``max_retries``,
        ``compact_threshold``, ``timeout_s``), its storage backend
        (``store="dir"``/``"object"`` — S3-style conditional-put
        semantics via :mod:`repro.runtime.store`) and ``autoscale_hook``
        for huge multi-host grids.

    Records are bit-identical for any backend and worker count — each
    point is self-contained and seeded, and every backend returns results
    in submission order (the queue backend additionally recovers tasks
    from crashed workers without perturbing the records).
    """
    records = _run_points(evaluate_point, grid.points(), workers=workers,
                          backend=backend, executor=executor,
                          backend_options=backend_options)
    return SweepResult(grid=grid, records=records)


def write_sweep_json(path: str, result: SweepResult) -> Dict[str, object]:
    """Serialise a sweep result to ``path`` and return the payload."""
    payload = result.to_payload()
    write_json_report(path, payload)
    return payload


# --------------------------------------------------------------------------- #
# Accuracy-vs-noise sweeps through the batched packed inference engine
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class AccuracySweepGrid:
    """Grid of the functional accuracy-under-read-noise scenario.

    Every point runs whole image batches through the batched packed
    :class:`~repro.bnn.model.InferenceEngine` with per-popcount bit-flip
    rates taken from the functional crossbar simulation
    (:func:`repro.eval.robustness.popcount_flip_rate_fn`), yielding one
    accuracy measurement per (network, technology, read-noise sigma).

    Attributes
    ----------
    networks:
        Evaluation network names.
    technologies:
        PCM technologies whose device noise profile parameterises the flip
        rates (``"epcm"`` / ``"opcm"``).
    read_noise_sigmas:
        Read-noise levels; 0.0 gives the clean reference accuracy.  Column
        noise accumulates over the whole vector, so the interesting range
        sits around the device default (0.005) — by 0.02 long columns are
        already fully garbled and accuracy saturates at chance.
    train_epochs:
        Quick-training epochs per network on its synthetic dataset before
        evaluating (0 evaluates the untrained network — fast, but accuracy
        hovers at chance).  Training is seeded per network, so every worker
        reproduces the identical model.
    num_images:
        Test images evaluated per point (the synthetic test split size).
    batch_size:
        Engine chunk size; part of the determinism contract (flip streams
        are derived per chunk).
    flip_trials, flip_num_outputs:
        Size of the per-layer flip-rate estimation.
    seed:
        Base seed; per-point streams derive from it, so results are
        independent of worker count and evaluation order.
    """

    networks: Tuple[str, ...] = ("MLP-S",)
    technologies: Tuple[str, ...] = ("epcm",)
    read_noise_sigmas: Tuple[float, ...] = (0.0, 0.002, 0.005, 0.01, 0.02)
    train_epochs: int = 1
    num_images: int = 128
    batch_size: int = 64
    flip_trials: int = 4
    flip_num_outputs: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("networks", "technologies", "read_noise_sigmas"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for technology in self.technologies:
            if technology not in ("epcm", "opcm"):
                raise ValueError(
                    f"unknown technology {technology!r}; choose 'epcm' or 'opcm'"
                )
        if any(not 0 <= sigma <= 1 for sigma in self.read_noise_sigmas):
            raise ValueError("read-noise sigmas must be within [0, 1]")
        if self.train_epochs < 0:
            raise ValueError("train_epochs must be non-negative")
        if self.num_images < 1 or self.batch_size < 1:
            raise ValueError("num_images and batch_size must be >= 1")
        if self.flip_trials < 1 or self.flip_num_outputs < 1:
            raise ValueError("flip_trials and flip_num_outputs must be >= 1")

    def points(self) -> List["AccuracyPointSpec"]:
        """Expand into self-contained, picklable point specs."""
        specs: List[AccuracyPointSpec] = []
        for network in self.networks:
            train_seed = derive_seed(self.seed, f"train/{network}")
            for technology in self.technologies:
                for sigma in self.read_noise_sigmas:
                    salt = f"accuracy/{network}/{technology}/{sigma}"
                    specs.append(AccuracyPointSpec(
                        network=network,
                        technology=technology,
                        read_noise_sigma=sigma,
                        train_epochs=self.train_epochs,
                        train_seed=train_seed,
                        num_images=self.num_images,
                        batch_size=self.batch_size,
                        flip_trials=self.flip_trials,
                        flip_num_outputs=self.flip_num_outputs,
                        seed=derive_seed(self.seed, salt),
                    ))
        return specs


@dataclass(frozen=True)
class AccuracyPointSpec:
    """One fully resolved accuracy-sweep point (picklable)."""

    network: str
    technology: str
    read_noise_sigma: float
    train_epochs: int
    train_seed: int
    num_images: int
    batch_size: int
    flip_trials: int
    flip_num_outputs: int
    seed: int


@dataclass(frozen=True)
class AccuracyRecord:
    """Accuracy of one network/technology under one read-noise level."""

    network: str
    technology: str
    read_noise_sigma: float
    accuracy: float
    mean_flip_rate: float
    num_images: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dictionary of this record."""
        return asdict(self)


def _trained_network(network: str, train_epochs: int,
                     train_seed: int, num_images: int) -> BNNModel:
    """Per-process memoised (quickly trained) evaluation network.

    Training is fully seeded, so every process materialises the identical
    model no matter which sweep points it happens to evaluate.
    """
    key = (network, train_epochs, train_seed)
    model = _TRAINED_CACHE.get(key)
    if model is None:
        model = build_network(network)
        if train_epochs > 0:
            data = _accuracy_dataset(network, num_images)
            train(model, data, epochs=train_epochs, batch_size=64,
                  seed=train_seed)
        model.eval()
        _TRAINED_CACHE[key] = model
    return model


def _accuracy_dataset(network: str, num_images: int):
    return load_dataset(
        dataset_for_network(network), train_size=512, test_size=num_images
    )


def evaluate_accuracy_point(spec: AccuracyPointSpec) -> AccuracyRecord:
    """Evaluate one accuracy point (deterministic given the spec)."""
    model = _trained_network(
        spec.network, spec.train_epochs, spec.train_seed, spec.num_images
    )
    data = _accuracy_dataset(spec.network, spec.num_images)
    images = data.test_images
    if len(model.input_shape) == 1:
        images = images.reshape(images.shape[0], -1)
    flip_rate = 0.0
    if spec.read_noise_sigma > 0.0:
        flip_rate = popcount_flip_rate_fn(
            read_noise_sigma=spec.read_noise_sigma,
            technology=spec.technology,
            num_outputs=spec.flip_num_outputs,
            trials=spec.flip_trials,
            seed=spec.seed,
        )
    engine = InferenceEngine(model, flip_rate=flip_rate, seed=spec.seed)
    predictions = engine.predict_batch(images, batch_size=spec.batch_size)
    rates = list(engine.noise_flip_rates.values())
    return AccuracyRecord(
        network=spec.network,
        technology=spec.technology,
        read_noise_sigma=spec.read_noise_sigma,
        accuracy=float(np.mean(predictions == data.test_labels)),
        mean_flip_rate=float(np.mean(rates)) if rates else 0.0,
        num_images=spec.num_images,
    )


@dataclass(frozen=True)
class AccuracySweepResult:
    """All accuracy records of one sweep, in grid (row-major) order."""

    grid: AccuracySweepGrid
    records: List[AccuracyRecord] = field(default_factory=list)

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready payload: the grid definition plus every record."""
        return {
            "grid": asdict(self.grid),
            "records": [record.to_dict() for record in self.records],
        }

    def curve(self, network: str, technology: str = "epcm"
              ) -> List[Tuple[float, float]]:
        """(sigma, accuracy) pairs of one network's accuracy-vs-noise curve."""
        return [
            (record.read_noise_sigma, record.accuracy)
            for record in self.records
            if record.network == network and record.technology == technology
        ]


def run_accuracy_sweep(grid: AccuracySweepGrid, *,
                       workers: Optional[int] = None,
                       backend: Optional[str] = None,
                       executor: Optional[Executor] = None,
                       backend_options: Optional[Dict[str, object]] = None
                       ) -> AccuracySweepResult:
    """Evaluate every accuracy point of ``grid`` through the runtime layer.

    ``workers``/``backend``/``executor``/``backend_options`` behave
    exactly like :func:`run_sweep`; each point is self-contained and
    seeded (and quick training is seeded per network), so the records are
    identical for any backend and worker count.
    """
    records = _run_points(evaluate_accuracy_point, grid.points(),
                          workers=workers, backend=backend,
                          executor=executor,
                          backend_options=backend_options)
    return AccuracySweepResult(grid=grid, records=records)


def write_accuracy_sweep_json(path: str,
                              result: AccuracySweepResult) -> Dict[str, object]:
    """Serialise an accuracy sweep result to ``path``, returning the payload."""
    payload = result.to_payload()
    write_json_report(path, payload)
    return payload
