"""User-facing accelerator façade.

:class:`AcceleratorModel` ties the network schedule, the latency model, the
energy model and the hierarchy allocator together behind the call most users
want::

    model = AcceleratorModel(einsteinbarrier_config())
    report = model.run_inference(extract_workload(build_network("CNN-L")))
    print(report.latency.total, report.energy.total)

It is the object the evaluation harness instantiates once per design per
network to regenerate Fig. 7 and Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.arch.compiler import compile_network
from repro.arch.config import AcceleratorConfig
from repro.arch.energy import EnergyBreakdown, EnergyModel
from repro.arch.hierarchy import AllocationReport, EinsteinBarrierSystem
from repro.arch.timing import LatencyBreakdown, LatencyModel
from repro.bnn.model import BNNModel
from repro.bnn.workload import NetworkWorkload, extract_workload


@dataclass(frozen=True)
class InferenceReport:
    """Complete per-inference report of one network on one design."""

    design_name: str
    network_name: str
    latency: LatencyBreakdown
    energy: EnergyBreakdown
    allocation: AllocationReport

    @property
    def throughput_inferences_per_s(self) -> float:
        """Steady-state single-stream inference throughput."""
        return 1.0 / self.latency.total if self.latency.total > 0 else float("inf")

    @property
    def energy_delay_product(self) -> float:
        """Energy-delay product, a common CIM figure of merit."""
        return self.energy.total * self.latency.total


class AcceleratorModel:
    """End-to-end analytical model of one accelerator design."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config
        self._latency_model = LatencyModel(config)
        self._energy_model = EnergyModel(config)
        self._system = EinsteinBarrierSystem(config)

    @property
    def name(self) -> str:
        """Design name (e.g. ``"EinsteinBarrier"``)."""
        return self.config.name

    def run_inference(self, workload: NetworkWorkload | BNNModel) -> InferenceReport:
        """Estimate latency, energy and resource usage of one inference."""
        if isinstance(workload, BNNModel):
            workload = extract_workload(workload)
        schedule = compile_network(workload, self.config)
        latency = self._latency_model.estimate(workload, schedule)
        energy = self._energy_model.estimate(workload, schedule)
        allocation = self._system.allocate(workload)
        return InferenceReport(
            design_name=self.config.name,
            network_name=workload.name,
            latency=latency,
            energy=energy,
            allocation=allocation,
        )
