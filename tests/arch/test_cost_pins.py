"""Golden pins of every latency and energy number the cost models produce.

The latency and energy models are closed-form sums over each layer's
operation counts.  Floating-point addition is not associative, so the
order in which a layer's terms reach each accumulator is part of the
result.  These pins fix that order: each breakdown field and each
``per_layer`` value is compared by ``float.hex``, so a one-ulp move in
any accumulation fails.

* ``cost_pins.json`` holds the 18 default cases (six networks, three
  designs) field by field, so a failure names the number that moved;
* ``GRID_SHA256`` covers the same serialization over 696 cases: every
  network on crossbar sizes 64/128/256/512, the baseline, TacitMap-ePCM
  with 1/2/8/16 columns per ADC, and EinsteinBarrier with the same ADC
  sharing at WDM capacity 1/2/4/8/16/32.

Regenerate both after a deliberate change to a simulated number with
``PYTHONPATH=src python tests/arch/test_cost_pins.py``, and say in the
change which numbers moved and why.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.arch.accelerator import AcceleratorModel
from repro.arch.config import (
    AcceleratorConfig,
    all_design_configs,
    baseline_epcm_config,
    einsteinbarrier_config,
    tacitmap_epcm_config,
)
from repro.arch.energy import EnergyModel
from repro.arch.timing import LatencyModel
from repro.bnn.workload import get_workload

PINS_PATH = Path(__file__).with_name("cost_pins.json")

NETWORKS = ("CNN-S", "CNN-M", "CNN-L", "MLP-S", "MLP-M", "MLP-L")
CROSSBAR_SIZES = (64, 128, 256, 512)
COLUMNS_PER_ADC = (1, 2, 8, 16)
WDM_CAPACITIES = (1, 2, 4, 8, 16, 32)

GRID_CASES = 696
GRID_SHA256 = "94a0fdc5ec1fcbb180699cf45edc68ced4e8f92f9fe250707569577d0a0e6994"


def _hexed(breakdown) -> Dict[str, object]:
    """Every float field of a breakdown as ``float.hex``, in field order;
    ``per_layer`` keeps the model's layer order."""
    out: Dict[str, object] = {}
    for field in fields(breakdown):
        value = getattr(breakdown, field.name)
        if field.name == "per_layer":
            out[field.name] = {name: cost.hex() for name, cost in value.items()}
        elif isinstance(value, float):
            out[field.name] = value.hex()
    return out


def _case(config: AcceleratorConfig, network: str) -> Dict[str, object]:
    report = AcceleratorModel(config).run_inference(get_workload(network))
    return {"latency": _hexed(report.latency), "energy": _hexed(report.energy)}


def _label(config: AcceleratorConfig) -> str:
    return (f"{config.name}/xbar{config.tile.rows}"
            f"/cpa{config.tile.columns_per_adc}/wdm{config.wdm_capacity}")


def grid_configs() -> Iterator[AcceleratorConfig]:
    """The 116 design points of the pinned grid (per network)."""
    for size in CROSSBAR_SIZES:
        yield baseline_epcm_config(crossbar_size=size)
        for columns in COLUMNS_PER_ADC:
            yield tacitmap_epcm_config(crossbar_size=size, columns_per_adc=columns)
        for wdm in WDM_CAPACITIES:
            for columns in COLUMNS_PER_ADC:
                yield einsteinbarrier_config(crossbar_size=size, wdm_capacity=wdm,
                                             columns_per_adc=columns)


def grid_lines() -> List[str]:
    """One canonical JSON line per grid case, in a fixed order (keys in
    field and layer order, so a reordered ``per_layer`` changes it)."""
    return [
        json.dumps([network, _label(config), _case(config, network)],
                   separators=(",", ":"))
        for network in NETWORKS
        for config in grid_configs()
    ]


def default_cases() -> Dict[str, Dict[str, object]]:
    return {
        f"{network}/{config.name}": _case(config, network)
        for network in NETWORKS
        for config in all_design_configs()
    }


def _default_params() -> List[Tuple[str, AcceleratorConfig]]:
    return [(network, config) for network in NETWORKS
            for config in all_design_configs()]


@pytest.fixture(scope="module")
def pins() -> Dict[str, Dict[str, object]]:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize(
    "network,config", _default_params(),
    ids=[f"{n}/{c.name}" for n, c in _default_params()],
)
def test_default_case_is_pinned(pins, network, config):
    pinned = pins[f"{network}/{config.name}"]
    actual = _case(config, network)
    for model in ("latency", "energy"):
        for name, value in pinned[model].items():
            assert actual[model][name] == value, f"{model}.{name} moved"
        assert list(actual[model]) == list(pinned[model])
        assert list(actual[model]["per_layer"]) == list(pinned[model]["per_layer"])


@pytest.mark.parametrize(
    "network,config", _default_params(),
    ids=[f"{n}/{c.name}" for n, c in _default_params()],
)
def test_standalone_estimates_match_the_report(network, config):
    workload = get_workload(network)
    report = AcceleratorModel(config).run_inference(workload)
    assert _hexed(LatencyModel(config).estimate(workload)) == _hexed(report.latency)
    assert _hexed(EnergyModel(config).estimate(workload)) == _hexed(report.energy)


def test_pinned_grid_digest():
    lines = grid_lines()
    assert len(lines) == GRID_CASES
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GRID_SHA256


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(default_cases(), indent=1) + "\n")
    print(hashlib.sha256("\n".join(grid_lines()).encode()).hexdigest())
