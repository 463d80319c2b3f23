"""Tests for the latency/energy models, the hierarchy, and the façade."""

from __future__ import annotations

import math

import pytest

from repro.arch.accelerator import AcceleratorModel
from repro.arch.config import (
    baseline_epcm_config,
    einsteinbarrier_config,
    tacitmap_epcm_config,
)
from repro.arch.energy import EnergyModel
from repro.arch.hierarchy import (
    ECore,
    EinsteinBarrierSystem,
    Footprint,
    Node,
    Tile,
    VCore,
    provision,
)
from repro.arch.timing import LatencyModel
from repro.bnn.networks import build_network, list_networks
from repro.bnn.workload import LayerSpec, NetworkWorkload, extract_workload
from repro.photonics.power import crossbar_receiver_power


@pytest.fixture(scope="module")
def workloads():
    return {
        name: extract_workload(build_network(name))
        for name in ("CNN-S", "CNN-L", "MLP-S", "MLP-L")
    }


@pytest.fixture(scope="module")
def models():
    return {
        "baseline": AcceleratorModel(baseline_epcm_config()),
        "tacitmap": AcceleratorModel(tacitmap_epcm_config()),
        "einsteinbarrier": AcceleratorModel(einsteinbarrier_config()),
    }


class TestLatencyModel:
    def test_breakdown_components_positive(self, workloads):
        latency = LatencyModel(tacitmap_epcm_config()).estimate(workloads["CNN-S"])
        assert latency.binary_compute > 0
        assert latency.full_precision_compute > 0
        assert latency.data_movement > 0
        assert latency.total == pytest.approx(
            latency.binary_compute + latency.full_precision_compute
            + latency.data_movement
        )

    def test_per_layer_sums_to_total(self, workloads):
        latency = LatencyModel(einsteinbarrier_config()).estimate(workloads["CNN-S"])
        assert sum(latency.per_layer.values()) == pytest.approx(
            latency.total, rel=1e-9
        )

    def test_weight_programming_excluded_from_total(self, workloads):
        latency = LatencyModel(tacitmap_epcm_config()).estimate(workloads["MLP-S"])
        assert latency.weight_programming > 0
        assert latency.weight_programming not in (latency.total,)

    def test_tacitmap_faster_than_baseline_everywhere(self, workloads, models):
        for name, workload in workloads.items():
            baseline = models["baseline"].run_inference(workload).latency.total
            tacit = models["tacitmap"].run_inference(workload).latency.total
            assert tacit < baseline, name

    def test_einsteinbarrier_fastest(self, workloads, models):
        for name, workload in workloads.items():
            tacit = models["tacitmap"].run_inference(workload).latency.total
            einstein = models["einsteinbarrier"].run_inference(workload).latency.total
            assert einstein < tacit, name

    def test_speedup_grows_with_network_size(self, workloads, models):
        """Larger BNNs expose more parallel XNOR+Popcounts (Sec. VI-A)."""
        def speedup(name):
            base = models["baseline"].run_inference(workloads[name]).latency.total
            einstein = models["einsteinbarrier"].run_inference(
                workloads[name]
            ).latency.total
            return base / einstein

        assert speedup("CNN-L") > speedup("CNN-S")
        assert speedup("MLP-L") > speedup("MLP-S")

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(baseline_epcm_config()).transfer_latency(-1)


class TestEnergyModel:
    def test_breakdown_totals_consistent(self, workloads):
        energy = EnergyModel(einsteinbarrier_config()).estimate(workloads["CNN-S"])
        component_sum = (
            energy.crossbar_array + energy.adc + energy.sense_amplifier
            + energy.driver + energy.digital + energy.data_movement
            + energy.optical_overhead + energy.full_precision
        )
        assert energy.total == pytest.approx(component_sum)

    def test_per_layer_sums_to_total(self, workloads):
        energy = EnergyModel(baseline_epcm_config()).estimate(workloads["MLP-S"])
        assert sum(energy.per_layer.values()) == pytest.approx(energy.total, rel=1e-9)

    def test_baseline_spends_on_senses_not_adcs(self, workloads):
        energy = EnergyModel(baseline_epcm_config()).estimate(workloads["MLP-L"])
        assert energy.sense_amplifier > 0
        assert energy.adc == 0.0
        assert energy.optical_overhead == 0.0

    def test_tacitmap_spends_on_adcs_not_senses(self, workloads):
        energy = EnergyModel(tacitmap_epcm_config()).estimate(workloads["MLP-L"])
        assert energy.adc > 0
        assert energy.sense_amplifier == 0.0

    def test_einsteinbarrier_pays_optical_overhead(self, workloads):
        energy = EnergyModel(einsteinbarrier_config()).estimate(workloads["CNN-L"])
        assert energy.optical_overhead > 0

    def test_tacitmap_epcm_costs_more_energy_than_baseline(self, workloads, models):
        """Fig. 8 observation 1: TacitMap-ePCM > Baseline-ePCM in energy."""
        for name in ("CNN-S", "CNN-L", "MLP-L"):
            baseline = models["baseline"].run_inference(workloads[name]).energy.total
            tacit = models["tacitmap"].run_inference(workloads[name]).energy.total
            assert tacit > baseline, name

    def test_einsteinbarrier_beats_tacitmap_epcm_energy(self, workloads, models):
        """Fig. 8 observation 2: EinsteinBarrier < TacitMap-ePCM in energy."""
        for name in ("CNN-L", "MLP-L"):
            tacit = models["tacitmap"].run_inference(workloads[name]).energy.total
            einstein = models["einsteinbarrier"].run_inference(
                workloads[name]
            ).energy.total
            assert einstein < tacit, name

    def test_einsteinbarrier_beats_baseline_on_large_cnn(self, workloads, models):
        baseline = models["baseline"].run_inference(workloads["CNN-L"]).energy.total
        einstein = models["einsteinbarrier"].run_inference(
            workloads["CNN-L"]
        ).energy.total
        assert einstein < baseline

    def test_weight_programming_reported_separately(self, workloads):
        energy = EnergyModel(tacitmap_epcm_config()).estimate(workloads["MLP-S"])
        assert energy.weight_programming > 0


class TestHierarchy:
    def test_vcore_counts_multiply_up(self):
        config = einsteinbarrier_config()
        assert Node(0, config).num_vcores == (
            config.tiles_per_node * config.ecores_per_tile * config.vcores_per_ecore
        )
        assert Tile(0, config).num_vcores == (
            config.ecores_per_tile * config.vcores_per_ecore
        )

    def test_opcm_ecore_has_transmitter_power(self):
        assert ECore(0, einsteinbarrier_config()).transmitter_power > 0
        assert ECore(0, tacitmap_epcm_config()).transmitter_power == 0.0

    def test_vcore_receiver_power_only_for_opcm(self):
        assert VCore(0, einsteinbarrier_config()).receiver_static_power > 0
        assert VCore(0, baseline_epcm_config()).receiver_static_power == 0.0

    def test_allocation_counts_tiles(self, workloads):
        system = EinsteinBarrierSystem(einsteinbarrier_config())
        report = system.allocate(workloads["MLP-L"])
        assert report.vcores_required > 0
        assert report.nodes_required >= 1
        assert set(report.per_layer_vcores) == {
            layer.name for layer in workloads["MLP-L"].binary_layers
        }

    def test_small_network_fits_one_node(self, workloads):
        system = EinsteinBarrierSystem(einsteinbarrier_config())
        assert system.allocate(workloads["MLP-S"]).fits_single_node

    def test_allocation_area_positive(self, workloads):
        system = EinsteinBarrierSystem(baseline_epcm_config())
        assert system.allocate(workloads["CNN-S"]).crossbar_area_mm2 > 0

    @pytest.mark.parametrize("vcores_per_ecore", [1, 2, 8])
    def test_static_optical_power_counts_each_ecore_once(self, workloads,
                                                         vcores_per_ecore):
        # CNN-L needs 400 VCores; every provisioned ECore draws its
        # transmitter plus one receiver per VCore, once
        config = einsteinbarrier_config(vcores_per_ecore=vcores_per_ecore)
        report = EinsteinBarrierSystem(config).allocate(workloads["CNN-L"])
        assert report.vcores_required == 400
        ecores = math.ceil(400 / vcores_per_ecore)
        per_ecore = (ECore(0, config).transmitter_power
                     + vcores_per_ecore * crossbar_receiver_power(config.tile.cols))
        assert report.static_optical_power == pytest.approx(ecores * per_ecore)
        if vcores_per_ecore == 8:
            assert report.static_optical_power == pytest.approx(1397.84, rel=1e-5)

    def test_epcm_has_no_static_optical_power(self, workloads):
        config = tacitmap_epcm_config(vcores_per_ecore=2)
        report = EinsteinBarrierSystem(config).allocate(workloads["CNN-L"])
        assert report.static_optical_power == 0.0


class TestAcceleratorFacade:
    def test_report_fields(self, workloads, models):
        report = models["einsteinbarrier"].run_inference(workloads["CNN-S"])
        assert report.design_name == "EinsteinBarrier"
        assert report.latency.total > 0
        assert report.energy.total > 0
        assert report.throughput_inferences_per_s > 0
        assert report.energy_delay_product > 0

    def test_accepts_model_instances(self, models):
        report = models["baseline"].run_inference(build_network("MLP-S"))
        assert report.network_name == "MLP-S"

    def test_all_networks_run_on_all_designs(self, models):
        for name in list_networks():
            workload = extract_workload(build_network(name))
            for model in models.values():
                report = model.run_inference(workload)
                assert report.latency.total > 0
                assert report.energy.total > 0


class TestAllocationUtilisation:
    """Edge cases of the node-provisioning utilisation metric."""

    def _allocate(self, workloads, name="MLP-S", **hier):
        config = einsteinbarrier_config(**hier)
        return EinsteinBarrierSystem(config).allocate(workloads[name])

    def test_utilisation_bounded_and_consistent(self, workloads):
        for name in ("MLP-S", "MLP-L", "CNN-S", "CNN-L"):
            report = self._allocate(workloads, name)
            assert 0.0 < report.node_utilisation <= 1.0
            assert report.vcores_provisioned \
                == report.nodes_required * report.vcores_per_node
            assert report.node_utilisation \
                == report.vcores_required / report.vcores_provisioned

    def test_exact_fit_is_full_utilisation(self, workloads):
        # shrink the node until it exactly matches the VCore requirement
        base = self._allocate(workloads)
        required = base.vcores_required
        report = self._allocate(workloads, vcores_per_ecore=required,
                                ecores_per_tile=1, tiles_per_node=1)
        assert report.nodes_required == 1
        assert report.node_utilisation == 1.0

    def test_overflow_by_one_vcore_pays_a_whole_node(self, workloads):
        base = self._allocate(workloads)
        required = base.vcores_required
        assert required > 1
        # node one VCore smaller than the requirement: a second node
        # is provisioned and utilisation drops to about one half
        report = self._allocate(workloads, vcores_per_ecore=required - 1,
                                ecores_per_tile=1, tiles_per_node=1)
        assert report.nodes_required == 2
        assert report.node_utilisation == pytest.approx(
            required / (2 * (required - 1))
        )

    def test_single_vcore_nodes_always_fully_utilised(self, workloads):
        report = self._allocate(workloads, vcores_per_ecore=1,
                                ecores_per_tile=1, tiles_per_node=1)
        assert report.nodes_required == report.vcores_required
        assert report.node_utilisation == 1.0

    def test_oversized_node_keeps_one_node_and_low_utilisation(self, workloads):
        report = self._allocate(workloads, vcores_per_ecore=64,
                                ecores_per_tile=64, tiles_per_node=64)
        assert report.nodes_required == 1
        assert report.node_utilisation \
            == report.vcores_required / (64 * 64 * 64)

    def test_hierarchy_sizing_flows_from_config_factories(self):
        config = tacitmap_epcm_config(vcores_per_ecore=2, ecores_per_tile=3,
                                      tiles_per_node=4)
        node = Node(0, config)
        assert node.num_vcores == 2 * 3 * 4
        assert Tile(0, config).num_vcores == 2 * 3
        assert ECore(0, config).num_vcores == 2


class TestProvisioning:
    """``allocate`` is the sizing-free footprint provisioned for a sizing."""

    SIZINGS = [dict(vcores_per_ecore=1, ecores_per_tile=1, tiles_per_node=1),
               dict(vcores_per_ecore=3, ecores_per_tile=5, tiles_per_node=7),
               {}]

    @pytest.mark.parametrize("factory", [baseline_epcm_config,
                                         tacitmap_epcm_config,
                                         einsteinbarrier_config])
    def test_allocate_provisions_the_footprint(self, workloads, factory):
        config = factory()
        system = EinsteinBarrierSystem(config)
        for workload in workloads.values():
            footprint = system.footprint(workload)
            assert type(footprint) is Footprint
            report = system.allocate(workload)
            assert report == provision(footprint, config)
            # the report is a footprint itself, and provisioning it again
            # for the same sizing is the identity
            assert provision(report, config) == report

    def test_footprint_ignores_the_sizing(self, workloads):
        first, *others = [
            EinsteinBarrierSystem(einsteinbarrier_config(**sizing))
            .footprint(workloads["CNN-L"])
            for sizing in self.SIZINGS
        ]
        assert all(other == first for other in others)

    @pytest.mark.parametrize("factory", [tacitmap_epcm_config,
                                         einsteinbarrier_config])
    def test_workload_without_binary_layers(self, factory):
        digital = NetworkWorkload(
            name="digital-only", dataset="mnist", input_shape=(784,),
            layers=(LayerSpec("fc", "linear", False, 784, 10, 1),),
        )
        for sizing in self.SIZINGS:
            report = EinsteinBarrierSystem(factory(**sizing)).allocate(digital)
            assert report.vcores_required == 0
            assert report.per_layer_vcores == {}
            assert report.nodes_required == 1
            assert report.node_utilisation == 0.0
            assert report.static_optical_power == 0.0
