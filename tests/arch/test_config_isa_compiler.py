"""Tests for accelerator configurations and the per-layer network schedule."""

from __future__ import annotations

import math

import pytest

from repro.arch.compiler import compile_network, crossbar_step, transfer_bytes
from repro.arch.config import (
    AcceleratorConfig,
    DigitalUnitConfig,
    InterconnectConfig,
    all_design_configs,
    baseline_epcm_config,
    einsteinbarrier_config,
    tacitmap_epcm_config,
)
from repro.arch.energy import EnergyModel
from repro.arch.timing import LatencyModel
from repro.bnn.networks import build_network
from repro.bnn.workload import LayerSpec, NetworkWorkload, extract_workload


class TestConfigs:
    def test_three_designs_exist(self):
        names = [config.name for config in all_design_configs()]
        assert names == ["Baseline-ePCM", "TacitMap-ePCM", "EinsteinBarrier"]

    def test_baseline_uses_custbinarymap_and_pcsa(self):
        config = baseline_epcm_config()
        assert config.mapping == "custbinarymap"
        assert config.tile.readout == "pcsa"
        assert config.wdm_capacity == 1

    def test_tacitmap_epcm_uses_adc_readout(self):
        config = tacitmap_epcm_config()
        assert config.mapping == "tacitmap"
        assert config.tile.readout == "adc"
        assert config.technology == "epcm"

    def test_einsteinbarrier_uses_opcm_and_wdm(self):
        config = einsteinbarrier_config()
        assert config.technology == "opcm"
        assert config.wdm_capacity == 16
        assert config.tile.wdm_capacity == 16

    def test_same_pcm_for_baseline_and_tacitmap(self):
        """Sec. V-B: the same PCM configuration backs both ePCM designs."""
        baseline = baseline_epcm_config().tile.resolved_device_config
        tacit = tacitmap_epcm_config().tile.resolved_device_config
        assert baseline == tacit

    def test_wdm_on_epcm_rejected(self):
        with pytest.raises(ValueError):
            tacitmap_epcm_config().with_overrides(wdm_capacity=16)

    def test_wdm_on_baseline_mapping_rejected(self):
        config = einsteinbarrier_config()
        with pytest.raises(ValueError):
            config.with_overrides(mapping="custbinarymap")

    def test_with_overrides_creates_modified_copy(self):
        base = einsteinbarrier_config()
        modified = base.with_overrides(wdm_capacity=8, name="EB-K8")
        assert modified.wdm_capacity == 8 and base.wdm_capacity == 16

    def test_crossbar_size_parameter(self):
        config = einsteinbarrier_config(crossbar_size=128)
        assert config.tile.rows == 128 and config.tile.cols == 128

    def test_digital_unit_validation(self):
        with pytest.raises(ValueError):
            DigitalUnitConfig(clock_hz=0)
        with pytest.raises(ValueError):
            DigitalUnitConfig(macs_per_cycle=0)

    def test_interconnect_validation(self):
        with pytest.raises(ValueError):
            InterconnectConfig(bandwidth_bytes_per_s=0)

    def test_invalid_mapping_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(
                name="x", mapping="magic", technology="epcm",
                tile=baseline_epcm_config().tile,
            )


class TestCompiler:
    """What the schedule and the cost breakdowns say about each design."""

    @pytest.fixture(scope="class")
    def workload(self):
        return extract_workload(build_network("CNN-S"))

    def test_one_block_per_mac_layer(self, workload):
        config = einsteinbarrier_config()
        names = [spec.name for spec in workload.layers]
        assert list(LatencyModel(config).estimate(workload).per_layer) == names
        assert list(EnergyModel(config).estimate(workload).per_layer) == names

    def test_binary_blocks_have_schedules(self, workload):
        schedule = compile_network(workload, einsteinbarrier_config())
        assert [s.layer_name for s in schedule.layer_schedules] \
            == [spec.name for spec in workload.binary_layers]
        assert schedule.mapping_name == "tacitmap"
        assert schedule.wdm_capacity == 16

    def test_full_precision_layers_become_macs(self, workload):
        config = baseline_epcm_config()
        schedule = compile_network(workload, config)
        assert sum(spec.macs for spec in schedule.full_precision_layers) \
            == workload.full_precision_macs
        latency = LatencyModel(config).estimate(workload, schedule)
        energy = EnergyModel(config).estimate(workload, schedule)
        assert latency.full_precision_compute == pytest.approx(
            workload.full_precision_macs / config.digital.macs_per_second
        )
        assert energy.full_precision == pytest.approx(
            workload.full_precision_macs * config.digital.energy_per_mac
        )

    def test_baseline_emits_row_reads_not_vmm(self, workload):
        config = baseline_epcm_config()
        schedule = compile_network(workload, config)
        for layer in schedule.layer_schedules:
            assert layer.crossbar_activations > 0
            assert layer.pcsa_senses > 0
            assert layer.adc_conversions == 0
        energy = EnergyModel(config).estimate(workload, schedule)
        assert energy.sense_amplifier > 0
        assert energy.adc == 0.0

    def test_tacitmap_epcm_emits_mvm(self, workload):
        config = tacitmap_epcm_config()
        schedule = compile_network(workload, config)
        for spec, layer in zip(workload.binary_layers, schedule.layer_schedules):
            assert layer.adc_conversions > 0
            assert layer.pcsa_senses == 0
            assert crossbar_step(spec, config)[2] == 1
            assert layer.sequential_steps == spec.num_input_vectors
        energy = EnergyModel(config).estimate(workload, schedule)
        assert energy.sense_amplifier == 0.0
        assert energy.optical_overhead == 0.0

    def test_einsteinbarrier_emits_mmm_for_conv_layers(self, workload):
        config = einsteinbarrier_config()
        schedule = compile_network(workload, config)
        conv = [(spec, layer) for spec, layer
                in zip(workload.binary_layers, schedule.layer_schedules)
                if spec.kind == "conv"]
        assert conv
        for spec, layer in conv:
            assert crossbar_step(spec, config)[2] > 1
            assert layer.sequential_steps \
                == math.ceil(spec.num_input_vectors / config.wdm_capacity)
        assert EnergyModel(config).estimate(workload, schedule).optical_overhead > 0

    def test_einsteinbarrier_mlp_layers_stay_mvm(self):
        """MLP layers have a single activation vector, so there is nothing to
        group over wavelengths even with WDM available."""
        workload = extract_workload(build_network("MLP-S"))
        config = einsteinbarrier_config()
        schedule = compile_network(workload, config)
        for spec, layer in zip(workload.binary_layers, schedule.layer_schedules):
            assert crossbar_step(spec, config)[2] == 1
            assert layer.sequential_steps == 1

    def test_wdm_reduces_crossbar_instruction_count(self, workload):
        plain = compile_network(workload, tacitmap_epcm_config())
        wdm = compile_network(workload, einsteinbarrier_config())
        assert wdm.total_crossbar_activations < plain.total_crossbar_activations
        assert wdm.total_sequential_steps < plain.total_sequential_steps

    def test_every_block_moves_data(self, workload):
        config = einsteinbarrier_config()
        moved = 0
        for spec in workload.layers:
            load, store = transfer_bytes(spec, config)
            assert load > 0 and store > 0
            moved += load + store
        energy = EnergyModel(config).estimate(workload)
        assert energy.data_movement == pytest.approx(
            moved * config.interconnect.energy_per_byte
        )

    def test_baseline_emits_popcount_adds(self, workload):
        config = baseline_epcm_config()
        schedule = compile_network(workload, config)
        assert schedule.total_digital_adds > 0
        assert all(layer.popcount_tree_depth > 0
                   for layer in schedule.layer_schedules)
        assert EnergyModel(config).estimate(workload, schedule).digital > 0


class TestFullPrecisionCompilation:
    """Direct coverage of the digital (non-binary) layer costs."""

    def _full_precision_spec(self, *, kind="linear", vector_length=784,
                             num_weight_vectors=128, num_input_vectors=1):
        return LayerSpec(
            name="layer00:Linear", kind=kind, is_binary=False,
            vector_length=vector_length,
            num_weight_vectors=num_weight_vectors,
            num_input_vectors=num_input_vectors,
        )

    @staticmethod
    def _workload(spec):
        return NetworkWorkload(name="one-layer", dataset="mnist",
                               input_shape=(1, 28, 28), layers=(spec,))

    def test_block_structure_load_mac_store(self):
        spec = self._full_precision_spec()
        config = baseline_epcm_config()
        load, store = transfer_bytes(spec, config)
        model = LatencyModel(config)
        latency = model.estimate(self._workload(spec))
        assert latency.per_layer[spec.name] == (
            model.transfer_latency(load)
            + spec.macs / config.digital.macs_per_second
            + model.transfer_latency(store)
        )
        assert latency.binary_compute == 0.0
        assert latency.weight_programming == 0.0
        energy = EnergyModel(config).estimate(self._workload(spec))
        byte_energy = config.interconnect.energy_per_byte
        assert energy.per_layer[spec.name] == (
            load * byte_energy + spec.macs * config.digital.energy_per_mac
            + store * byte_energy
        )

    def test_mac_count_matches_spec(self):
        spec = self._full_precision_spec(vector_length=100,
                                         num_weight_vectors=10,
                                         num_input_vectors=7)
        config = baseline_epcm_config()
        assert spec.macs == 100 * 10 * 7
        workload = self._workload(spec)
        assert LatencyModel(config).estimate(workload).full_precision_compute \
            == spec.macs / config.digital.macs_per_second
        assert EnergyModel(config).estimate(workload).full_precision \
            == spec.macs * config.digital.energy_per_mac

    def test_byte_operands_respect_full_precision_width(self):
        spec = self._full_precision_spec(vector_length=16,
                                         num_weight_vectors=4,
                                         num_input_vectors=3)
        config = baseline_epcm_config().with_overrides(full_precision_bits=8)
        # one byte per element
        assert transfer_bytes(spec, config) == (16 * 3, 4 * 3)
        wide = baseline_epcm_config().with_overrides(full_precision_bits=16)
        assert transfer_bytes(spec, wide) == (2 * 16 * 3, 2 * 4 * 3)

    def test_odd_bit_widths_round_bytes_up(self):
        spec = self._full_precision_spec(vector_length=3,
                                         num_weight_vectors=3,
                                         num_input_vectors=1)
        config = baseline_epcm_config().with_overrides(full_precision_bits=5)
        # ceil(3 elements * 5 bits / 8) = 2 bytes
        assert transfer_bytes(spec, config) == (2, 2)

    def test_full_precision_blocks_identical_across_designs(self):
        spec = self._full_precision_spec()
        workload = self._workload(spec)
        costs = {
            (LatencyModel(config).estimate(workload).per_layer[spec.name],
             EnergyModel(config).estimate(workload).per_layer[spec.name])
            for config in all_design_configs()
        }
        assert len(costs) == 1

    def test_compile_network_routes_non_binary_layers_here(self):
        workload = extract_workload(build_network("MLP-S"))
        schedule = compile_network(workload, baseline_epcm_config())
        full_precision = schedule.full_precision_layers
        # first and last layers of every evaluation network stay digital
        assert len(full_precision) == 2
        scheduled = {layer.layer_name for layer in schedule.layer_schedules}
        for spec in full_precision:
            assert spec.macs > 0
            assert spec.name not in scheduled
