"""Golden digests of :func:`repro.eval.columnar.task_identity`.

Every published row of a sharded sweep is keyed by its task identity,
so an identity that changes without a schema bump silently recomputes
(or, worse, mismatches) a whole store.  The digests below were computed
by the ``json.dumps``-of-``asdict`` encoder the direct field encoder
replaced; each one is also checked against that reference, computed
here, so a failure says which of the two moved.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, is_dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.columnar import task_identity
from repro.eval.sweep import SweepGrid

_DESIGNS = ("baseline_epcm", "tacitmap_epcm", "einsteinbarrier")

#: (axes, points, sha256 of the newline-joined identities, first, last)
#: for the benchmark's analytical grid, noise slice and sharded grid
GRIDS = {
    "full": (
        dict(networks=("CNN-S", "CNN-M", "CNN-L", "MLP-S", "MLP-M", "MLP-L"),
             designs=_DESIGNS, crossbar_sizes=(64, 128, 256, 512),
             wdm_capacities=(1, 4, 16), columns_per_adc=(None, 2),
             vcores_per_ecore=(None, 2, 4), ecores_per_tile=(None, 2, 4),
             tiles_per_node=(None, 1, 2)),
        5208,
        "de2594da4e2f644e90c68625de8f4242db856a4922b1f2a4359166c8a615fc80",
        "7e97221d5d321408e8d0765dc174671049213cca415555daf1f930f108450bac",
        "403d9012a10165078d4b7a852965c87552f06350c16eed95c0e2b6cdd971e3bf",
    ),
    "noise": (
        dict(networks=("MLP-S", "CNN-S"),
             designs=("tacitmap_epcm", "einsteinbarrier"),
             crossbar_sizes=(256,), wdm_capacities=(16,),
             noise_sigmas=(0.002, 0.005, 0.01), thermal_sigmas=(0.0, 0.01)),
        24,
        "7529baaf5a3385f94b4e9416336fc4255a80c0a9e13093ea9554ef299c4d49e5",
        "903b65be4156f2969fcfe8e30c66a8f9180493b9d896c403f9262e1bce7e19c1",
        "f53d90152aed2ae0a089f25d7f4fc69090f49be881f1616e65e71e7bdd412032",
    ),
    "shard": (
        dict(networks=("MLP-S", "CNN-S"), designs=_DESIGNS,
             crossbar_sizes=(128, 256), wdm_capacities=(1, 4, 16),
             columns_per_adc=(None, 2), vcores_per_ecore=(None, 2),
             ecores_per_tile=(None, 2), tiles_per_node=(None, 1, 2, 4)),
        516,
        "1ea1c5d1a4628d50658a8ffd1059bbd2ed6686ced863b9af5e2f466c2a1d01c5",
        "14d3f0a7cadf5d40aaa7799d0ceaa8d1b3bcc002cfd88f9cae4069ad045b0c64",
        "f05d0d7e415979574f6210e738541f2313fe88d378fa4a781d9dd10edb05d6d5",
    ),
}


@dataclass(frozen=True)
class Probe:
    value: object
    label: str = "probe"
    count: Optional[int] = 3


@dataclass(frozen=True)
class Outer:
    inner: Probe
    ratio: float = 0.5


#: ``task_identity(Probe(value))`` for values at the edges of the JSON
#: scalar encoding: non-finite and subnormal floats, signed zero, ints
#: past 64 bits, bools, None, non-ASCII, escapes and a lone surrogate
ADVERSARIAL = [
    (float("nan"),
     "a2836043389ab3c47c6cc2db5693b52af3f2cb3e072323a62b14a6ac7835c3fb"),
    (float("inf"),
     "8794d6d8ac7b96404e26dddf20ed2d0325cfa967178f4288b69c174dd40e30a8"),
    (float("-inf"),
     "ab8096a7767f2665ea98359bff65a5f4cbd5127822aaeecf252b2b067ae701a1"),
    (-0.0,
     "d616078e1193d6a622392f46af3024e641969a080bfd5449b50e50f6b8755f83"),
    (0.0,
     "925bea2aa93e55a7de18e63c17a6ea65f875462072ce1ce43752299646bc0b58"),
    (1e-310,
     "05463b822cefd3679a6a9125af95e1330b8a32b49e75f564ed885126efc2c6e4"),
    (5e-324,
     "872de62eda5ce12d6ef2d6d034e18d8c69e375809f5aa7e4b8044117de8cbbfd"),
    (1.7976931348623157e308,
     "74d26b7931b12db479cfd46732e58aead784d4986b996efad7c467e9376ee62f"),
    (0.1,
     "1ca0a2ef9872cec11a33c7e04ed8746a2b45343a27d610a44e5f3aa32b14af15"),
    (2 ** 70,
     "eb33ffb37c3d7eab9d9f1d44ae966674ad57bd2ce269101c905dd085e70895d5"),
    (-2 ** 70,
     "8c4d6d6177ab8bccdb37cb4ddd35c3252f4e4da3225e2839d78f2d952ccc315d"),
    (True,
     "834ad3fe082982d26e9ab4c6a56b5241196e740cbc028f3f0c7d6e3c201dbdc8"),
    (False,
     "cbf4002fd168e52d91e610492b6ecef4aae35e759959a1481ae8f8b51684022d"),
    (None,
     "af9c950e879625cc122912793b8924c2e6adbc02bc17a4fe7e0cf7aee22dd2f6"),
    (0,
     "e1e353c354599e06ec5e99bca5bd09787e46931138e9a61d343d0be2d35fd2d5"),
    (-1,
     "862bf9cf23269ee8b7899193be2a4229899574d8e4a077903e79fee5fb6eff8d"),
    ("Ünïcødé-网",
     "64b7bc30ca082e9bb5dbb3851c8a75a151233be9a67e71930a3ccc7e17516e5a"),
    ("\U0001f642",
     "12c898f914ade20d1f1b131920362babcfb4f06422edc3684df7f390fdd41765"),
    ('"quoted"',
     "cc9aee1256607ca903d091b3cdac740019076a87c2c5348ef6e135cedba3d322"),
    ("back\\slash",
     "7dae13290c976291c171517accd6be633c5f1a4869ecae50497f6ab849e2b235"),
    ("\x00\x01\x1f\n\r\t\x7f",
     "5a7e4e7ff684ee9c5dd72e1f51289833ae9f1c0b19dce269a245211fc6104343"),
    ("\ud800",
     "e289940633da3f9c4cd221701a05c3a5fea0dbe08911f865e8a9d3dc93801e73"),
    ("",
     "eee98ee5225905a0a2a544031c393926e5d943acb4f564b29e00dd1fb0115d0d"),
]


def _reference(point, *, schema_version: int = 1) -> str:
    """The canonical-JSON identity, spelled with ``json.dumps``."""
    values = asdict(point) if is_dataclass(point) else dict(point)
    blob = json.dumps({"point": values, "schema": schema_version},
                      sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_identities_are_pinned(name):
    axes, count, digest, first, last = GRIDS[name]
    points = SweepGrid(**axes, seed=11).points()
    identities = [task_identity(point) for point in points]
    assert len(identities) == count
    assert identities[0] == first and identities[-1] == last
    assert hashlib.sha256(
        "\n".join(identities).encode("ascii")).hexdigest() == digest
    assert identities == [_reference(point) for point in points]


@pytest.mark.parametrize("value,digest", ADVERSARIAL,
                         ids=[repr(value) for value, _ in ADVERSARIAL])
def test_adversarial_scalars_are_pinned(value, digest):
    assert task_identity(Probe(value)) == digest
    assert _reference(Probe(value)) == digest


@pytest.mark.parametrize("point,digest", [
    (Outer(Probe(0.25)),
     "3e017b183e55c3307e874f66dbacd32c5bda0721a6df9586977b4a0ba9e6d14b"),
    (Probe((1, "a", None)),
     "fae1e08c3f77943ae21ee67e8ec5cf32229a287c029e2c97bc4dd67cd5a5c1ea"),
    # a float subclass takes the fallback route and encodes like a float
    (Probe(np.float64(0.25)),
     "c0a6d79e72300408b7073b98c8330c216bf80d485624180dd10c097645e0ac61"),
    (Probe(0.25),
     "c0a6d79e72300408b7073b98c8330c216bf80d485624180dd10c097645e0ac61"),
    ({"b": 1, "a": [1.5, None], "c": {"z": "é"}},
     "1095e121a4c7efd5d2f05fc7d32cb2edf0c043b5a74465cc1e82fd03f17b63cc"),
], ids=["nested-dataclass", "tuple", "numpy-float64", "float", "mapping"])
def test_fallback_routes_and_mappings_are_pinned(point, digest):
    assert task_identity(point) == digest
    assert _reference(point) == digest


def test_schema_version_is_hashed():
    digest = "637a6be21406ca42bf9d97747f97e7bcc805c5571480a62d36860044c352961d"
    assert task_identity(Probe(1), schema_version=2) == digest
    assert _reference(Probe(1), schema_version=2) == digest
    assert task_identity(Probe(1)) != digest


def test_values_json_cannot_encode_raise_on_both_routes():
    with pytest.raises(TypeError):
        task_identity(Probe(np.int64(3)))
    with pytest.raises(TypeError):
        _reference(Probe(np.int64(3)))
    with pytest.raises(TypeError, match="dataclass instance or a mapping"):
        task_identity(Probe)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(),
)


@settings(max_examples=300, deadline=None)
@given(value=_SCALARS, label=st.text(), count=st.one_of(st.none(),
                                                         st.integers()))
def test_direct_encoder_matches_json_dumps(value, label, count):
    point = Probe(value, label=label, count=count)
    assert task_identity(point) == _reference(point)
