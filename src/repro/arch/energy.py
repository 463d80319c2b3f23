"""Per-inference energy model.

Energy is accumulated per layer, in closed form, from the mapping schedule's
operation counts and the component models:

* **crossbar array** — per-cell read energy of every activation (the long
  analog integration window for ADC-read VMMs, the short sensing window for
  PCSA row reads — see :meth:`repro.crossbar.tile.CrossbarTile.pcsa_row_cost`);
* **periphery** — ADC conversions (TacitMap / EinsteinBarrier), PCSA senses
  (baseline) and row/bit-line driver conversions;
* **digital** — popcount-tree additions (baseline) and partial-count merges
  (TacitMap), plus the full-precision layers' MACs;
* **data movement** — activation bytes over the on-chip network;
* **optical overhead** (EinsteinBarrier only) — the transmitter and receiver
  power of Eq. 2 / Eq. 3 integrated over the time the photonic core is busy,
  which is how the extra parallelism "comes at the cost of power for the
  additional components" (Sec. IV-B) while still winning on energy because
  the busy time shrinks by a larger factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.arch.compiler import compile_network, crossbar_step, transfer_bytes
from repro.arch.config import AcceleratorConfig
from repro.bnn.workload import NetworkWorkload
from repro.core.schedule import NetworkSchedule
from repro.crossbar.tile import CrossbarTile
from repro.photonics.power import crossbar_receiver_power, transmitter_power


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one inference, broken down by component class (joules)."""

    design_name: str
    network_name: str
    per_layer: Dict[str, float] = field(default_factory=dict)
    crossbar_array: float = 0.0
    adc: float = 0.0
    sense_amplifier: float = 0.0
    driver: float = 0.0
    digital: float = 0.0
    data_movement: float = 0.0
    optical_overhead: float = 0.0
    full_precision: float = 0.0
    weight_programming: float = 0.0

    @property
    def total(self) -> float:
        """Total inference energy (excludes one-time weight programming)."""
        return (
            self.crossbar_array
            + self.adc
            + self.sense_amplifier
            + self.driver
            + self.digital
            + self.data_movement
            + self.optical_overhead
            + self.full_precision
        )


class EnergyModel:
    """Estimates inference energy for one accelerator design."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config
        self._tile = CrossbarTile(config.tile)

    def estimate(self, workload: NetworkWorkload,
                 schedule: NetworkSchedule | None = None) -> EnergyBreakdown:
        """Estimate the inference energy of ``workload`` on this design.

        One pass over the layers; each layer's terms are added in the
        order load, weight programming, crossbar array, read-out and
        drivers, optical overhead, digital adds (or MACs), store.
        """
        config = self.config
        if schedule is None:
            schedule = compile_network(workload, config)
        device = config.tile.resolved_device_config
        adc_energy = config.tile.adc_config.energy_per_conversion
        dac_energy = config.tile.dac_config.energy_per_conversion
        sense_energy = config.tile.pcsa_config.energy_per_sense
        add_energy = config.digital.energy_per_add
        mac_energy = config.digital.energy_per_mac
        byte_energy = config.interconnect.energy_per_byte
        tacitmap = config.mapping == "tacitmap"
        optical = tacitmap and config.technology == "opcm"
        layer_schedules = iter(schedule.layer_schedules)

        per_layer: Dict[str, float] = {}
        crossbar_array = adc = sense_amplifier = driver = digital = 0.0
        data_movement = optical_overhead = full_precision = 0.0
        weight_programming = 0.0

        for spec in workload.layers:
            load_bytes, store_bytes = transfer_bytes(spec, config)
            load = load_bytes * byte_energy
            data_movement += load
            layer_energy = load
            if spec.is_binary:
                layer = next(layer_schedules)
                weight_programming += (
                    layer.cells_programmed * device.write_energy_per_cell
                )
                active_rows, read_columns, wavelengths = crossbar_step(spec, config)
                drives = layer.dac_drives * dac_energy
                if tacitmap:
                    array = (
                        layer.crossbar_activations * active_rows * read_columns
                        * device.read_energy_per_cell
                    )
                    readout = layer.adc_conversions * adc_energy
                    adc += readout
                else:
                    step = self._tile.pcsa_row_cost(max(read_columns, 1))
                    array = max(layer.crossbar_activations * (
                        step["energy"]
                        - read_columns * sense_energy
                        - read_columns * dac_energy
                    ), 0.0)
                    readout = layer.pcsa_senses * sense_energy
                    sense_amplifier += readout
                crossbar_array += array
                driver += drives
                layer_energy += array
                layer_energy += readout + drives
                if optical:
                    overhead = self._optical_overhead_energy(
                        layer.sequential_steps, active_rows, read_columns,
                        wavelengths,
                    )
                    optical_overhead += overhead
                    layer_energy += overhead
                if layer.digital_adds:
                    adds = layer.digital_adds * add_energy
                    digital += adds
                    layer_energy += adds
            else:
                macs = spec.macs * mac_energy
                full_precision += macs
                layer_energy += macs
            store = store_bytes * byte_energy
            data_movement += store
            per_layer[spec.name] = layer_energy + store

        return EnergyBreakdown(
            design_name=config.name,
            network_name=workload.name,
            per_layer=per_layer,
            crossbar_array=crossbar_array,
            adc=adc,
            sense_amplifier=sense_amplifier,
            driver=driver,
            digital=digital,
            data_movement=data_movement,
            optical_overhead=optical_overhead,
            full_precision=full_precision,
            weight_programming=weight_programming,
        )

    # ------------------------------------------------------------------ #
    # Optical overhead (Eq. 2 + Eq. 3 integrated over busy time)
    # ------------------------------------------------------------------ #
    def _optical_overhead_energy(self, steps: int, active_rows: int,
                                 read_columns: int, wavelengths: int) -> float:
        """Transmitter + receiver power during the layer's optical traversal.

        The laser, comb tuning, modulators and TIAs (Eq. 2 + Eq. 3) only need
        to illuminate the array while light traverses the crossbar; during
        the subsequent ADC deserialisation the receiver works on the sampled
        photocurrents, so the overhead power is integrated over
        ``steps x optical_read_latency`` rather than the full step latency.
        """
        busy_time = steps * self.config.tile.resolved_device_config.read_latency
        power = transmitter_power(
            max(wavelengths, 1), active_rows,
            laser_power=self.config.laser_power_w,
        ) + crossbar_receiver_power(read_columns)
        return power * busy_time
