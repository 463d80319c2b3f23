"""Workload extraction: from a BNN model to per-layer operation counts.

The accelerator timing and energy models do not care about tensor *values* —
they care about how many XNOR+Popcount vector operations each layer needs,
how long those vectors are, and how many of them exist.  This module distils
a :class:`~repro.bnn.model.BNNModel` into a :class:`NetworkWorkload`, a list
of :class:`LayerSpec` records in the paper's vocabulary:

* ``vector_length`` (*m* in Fig. 3) — length of one input/weight vector,
* ``num_weight_vectors`` (*n* in Fig. 3) — how many weight vectors (crossbar
  columns under TacitMap / crossbar rows under CustBinaryMap) the layer has,
* ``num_input_vectors`` — how many activation vectors one inference produces
  (1 for a fully connected layer, ``out_h*out_w`` sliding windows for a
  convolution — the coloured vectors of Fig. 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from repro.bnn.layers import (
    BinaryConv2d,
    BinaryLinear,
    Conv2d,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
)
from repro.bnn.model import BNNModel
from repro.bnn.networks import dataset_for_network, network_shape


@dataclass(frozen=True)
class LayerSpec:
    """Operation-count description of a single MAC layer.

    Attributes
    ----------
    name:
        Human-readable layer label, e.g. ``"layer03:BinaryConv2d"``.
    kind:
        ``"linear"`` or ``"conv"``.
    is_binary:
        Whether the layer's MACs are XNOR+Popcount (binary hidden layer) or
        full precision (first/last layers, executed on digital units).
    vector_length:
        Length *m* of one input/weight vector (``in_features`` for linear,
        ``in_channels * k * k`` for conv).
    num_weight_vectors:
        Number *n* of weight vectors (output neurons / output channels).
    num_input_vectors:
        Number of activation vectors per single inference (1 for linear,
        number of sliding windows for conv).
    """

    name: str
    kind: str
    is_binary: bool
    vector_length: int
    num_weight_vectors: int
    num_input_vectors: int

    @property
    def macs(self) -> int:
        """Total multiply-accumulate (or XNOR+accumulate) scalar operations."""
        return self.vector_length * self.num_weight_vectors * self.num_input_vectors

    @property
    def xnor_popcount_ops(self) -> int:
        """Number of vector-level XNOR+Popcount operations (Eq. 1 instances)."""
        return self.num_weight_vectors * self.num_input_vectors

    @property
    def weight_bits(self) -> int:
        """Number of weight bits the layer stores (before complementing)."""
        return self.vector_length * self.num_weight_vectors


@dataclass(frozen=True)
class NetworkWorkload:
    """All MAC layers of one evaluation network, in execution order.

    ``layers`` is a tuple so instances are deeply immutable (and hashable):
    :func:`get_workload` shares one cached instance across the experiment,
    ablation and sweep runners.
    """

    name: str
    dataset: str
    input_shape: Tuple[int, ...]
    layers: Tuple[LayerSpec, ...] = ()

    @property
    def binary_layers(self) -> List[LayerSpec]:
        """The hidden binary layers (the ones the crossbar accelerates)."""
        return [layer for layer in self.layers if layer.is_binary]

    @property
    def full_precision_layers(self) -> List[LayerSpec]:
        """The non-binary first/last layers (executed digitally)."""
        return [layer for layer in self.layers if not layer.is_binary]

    @property
    def total_macs(self) -> int:
        """Total MACs per inference across all layers."""
        return sum(layer.macs for layer in self.layers)

    @property
    def binary_macs(self) -> int:
        """MACs per inference inside binary layers."""
        return sum(layer.macs for layer in self.binary_layers)

    @property
    def full_precision_macs(self) -> int:
        """MACs per inference inside full-precision layers."""
        return sum(layer.macs for layer in self.full_precision_layers)

    @property
    def binary_fraction(self) -> float:
        """Fraction of all MACs that are binary (the Amdahl knob of Fig. 7)."""
        total = self.total_macs
        return self.binary_macs / total if total else 0.0


def _conv_output_hw(kernel_size: int, stride: int, padding: int,
                    input_shape: Tuple[int, ...]) -> Tuple[int, int]:
    _, height, width = input_shape
    out_h = (height + 2 * padding - kernel_size) // stride + 1
    out_w = (width + 2 * padding - kernel_size) // stride + 1
    return out_h, out_w


def _linear_spec(label: str, is_binary: bool, in_features: int,
                 out_features: int) -> LayerSpec:
    return LayerSpec(
        name=label,
        kind="linear",
        is_binary=is_binary,
        vector_length=in_features,
        num_weight_vectors=out_features,
        num_input_vectors=1,
    )


def _conv_spec(label: str, is_binary: bool, in_channels: int,
               out_channels: int, kernel_size: int,
               out_hw: Tuple[int, int]) -> LayerSpec:
    return LayerSpec(
        name=label,
        kind="conv",
        is_binary=is_binary,
        vector_length=in_channels * kernel_size * kernel_size,
        num_weight_vectors=out_channels,
        num_input_vectors=out_hw[0] * out_hw[1],
    )


def extract_workload(model: BNNModel) -> NetworkWorkload:
    """Extract the per-layer operation counts of ``model``.

    Only MAC layers (Linear / Conv2d and their binary variants) contribute a
    :class:`LayerSpec`; normalisation, pooling and activation layers carry a
    negligible operation count that all compared designs execute identically
    in their digital periphery, so they are excluded from the accounting just
    as in the paper.
    """
    specs: List[LayerSpec] = []
    for index, (layer, in_shape, _out_shape) in enumerate(model.iter_with_shapes()):
        spec = _layer_spec(layer, in_shape, index)
        if spec is not None:
            specs.append(spec)
    try:
        dataset = dataset_for_network(model.name)
    except ValueError:
        dataset = "custom"
    return NetworkWorkload(
        name=model.name,
        dataset=dataset,
        input_shape=model.input_shape,
        layers=tuple(specs),
    )


@lru_cache(maxsize=None)
def get_workload(network_name: str) -> NetworkWorkload:
    """Memoised workload of one of the named evaluation networks.

    The layer specs are derived from the network's shape table
    (:data:`repro.bnn.networks.NETWORK_TABLE`) by shape arithmetic, so no
    weight tensor is allocated; the result equals
    ``extract_workload(build_network(network_name))``.  The
    :class:`NetworkWorkload` is immutable, so figure regeneration and
    design-space sweeps share one instance per network.  Use
    :func:`extract_workload` for ad-hoc models.
    """
    table = network_shape(network_name)
    specs: List[LayerSpec] = []
    shape = table.input_shape
    for index, row in enumerate(table.layers):
        label = f"layer{index:02d}:{row.kind.__name__}"
        if row.kind in (Linear, BinaryLinear):
            in_features, out_features = row.sizes
            specs.append(_linear_spec(label, row.kind.is_binary,
                                      in_features, out_features))
            shape = (out_features,)
        elif row.kind in (Conv2d, BinaryConv2d):
            in_channels, out_channels, kernel_size = row.sizes
            out_hw = _conv_output_hw(kernel_size, 1, row.padding, shape)
            specs.append(_conv_spec(label, row.kind.is_binary, in_channels,
                                    out_channels, kernel_size, out_hw))
            shape = (out_channels, *out_hw)
        elif row.kind is MaxPool2d:
            (kernel_size,) = row.sizes
            shape = (shape[0], *_conv_output_hw(kernel_size, kernel_size, 0,
                                                shape))
        elif row.kind is Flatten:
            shape = (math.prod(shape),)
    return NetworkWorkload(
        name=table.name,
        dataset=table.dataset,
        input_shape=table.input_shape,
        layers=tuple(specs),
    )


def _layer_spec(layer: Layer, in_shape: Tuple[int, ...], index: int) -> LayerSpec | None:
    label = f"layer{index:02d}:{type(layer).__name__}"
    if isinstance(layer, (Linear, BinaryLinear)):
        return _linear_spec(label, layer.is_binary, layer.in_features,
                            layer.out_features)
    if isinstance(layer, (Conv2d, BinaryConv2d)):
        out_hw = _conv_output_hw(layer.kernel_size, layer.stride,
                                 layer.padding, in_shape)
        return _conv_spec(label, layer.is_binary, layer.in_channels,
                          layer.out_channels, layer.kernel_size, out_hw)
    return None
