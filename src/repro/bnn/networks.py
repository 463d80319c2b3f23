"""The six evaluation BNNs (MlBench-style MLPs and CNNs).

The paper evaluates "6 BNNs (3 convolutional networks and 3 multilayer
perceptrons) with various sizes from MlBench" (the benchmark suite introduced
by PRIME) on MNIST and CIFAR-10.  The exact layer dimensions are not listed
in the paper, so we follow the PRIME / MlBench network definitions the paper
cites:

* ``MLP-S``:  784 - 500 - 250 - 10              (MNIST)
* ``MLP-M``:  784 - 1000 - 500 - 250 - 10       (MNIST)
* ``MLP-L``:  784 - 2000 - 1500 - 1000 - 500 - 10 (MNIST)
* ``CNN-S``:  LeNet-style conv6-pool-conv16-pool-fc120-fc10 (MNIST)
* ``CNN-M``:  conv32-conv32-pool-conv64-conv64-pool-fc512-fc10 (CIFAR-10)
* ``CNN-L``:  VGG-like conv128x2-pool-conv256x2-pool-conv512x2-pool-fc1024-fc10
  (CIFAR-10)

Following Sec. II-B of the paper the first and last layers stay in full
precision; every hidden MAC layer is binary.  Each binary layer is preceded
by batch-norm and followed by a sign activation, the standard BinaryNet
recipe.

The six networks are declared once, in :data:`NETWORK_TABLE`: one
:class:`NetworkShape` per network, holding its dataset, input shape,
default seed, the number of generator streams it spawns, and one
:class:`LayerShape` row per layer (the layer class and its integer sizes,
in execution order).  Two consumers read the table:

* :func:`build_network` instantiates the rows.  MAC rows take the spawned
  generators in order, so a network's weights depend only on its seed.
  The MLPs spawn one stream more than they use, as they always have; the
  spare stream is the last one drawn, so it does not move any weight.
* :func:`repro.bnn.workload.get_workload` derives each layer's operation
  counts from the rows by shape arithmetic, without allocating a weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Type

from repro.bnn.layers import (
    BatchNorm,
    BinaryConv2d,
    BinaryLinear,
    Conv2d,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
    SignActivation,
)
from repro.bnn.model import BNNModel
from repro.utils.rng import RngLike, spawn_rngs

MNIST_INPUT = (784,)
MNIST_IMAGE_INPUT = (1, 28, 28)
CIFAR_IMAGE_INPUT = (3, 32, 32)
NUM_CLASSES = 10

#: layer classes that own weights (and draw one generator stream each)
_MAC_KINDS = (Linear, BinaryLinear, Conv2d, BinaryConv2d)


@dataclass(frozen=True)
class LayerShape:
    """One row of a network's shape table.

    ``sizes`` are the layer class's positional arguments: ``(in, out)``
    features for linear layers, ``(in, out, kernel)`` for convolutions
    (stride 1), ``(features,)`` for batch-norm, ``(kernel,)`` for pooling
    and nothing for sign and flatten.
    """

    kind: Type[Layer]
    sizes: Tuple[int, ...] = ()
    padding: int = 0

    @property
    def is_mac(self) -> bool:
        """Whether the row is a weight-bearing MAC layer."""
        return self.kind in _MAC_KINDS

    def build(self, rng: RngLike = None) -> Layer:
        """Instantiate the layer; MAC rows draw their weights from ``rng``."""
        kwargs: Dict[str, object] = {}
        if self.is_mac:
            kwargs["rng"] = rng
        if self.padding:
            kwargs["padding"] = self.padding
        return self.kind(*self.sizes, **kwargs)


@dataclass(frozen=True)
class NetworkShape:
    """Shape table of one evaluation network."""

    name: str
    dataset: str
    input_shape: Tuple[int, ...]
    default_seed: int
    rng_streams: int
    layers: Tuple[LayerShape, ...]


def _bn_sign(features: int) -> Tuple[LayerShape, LayerShape]:
    return LayerShape(BatchNorm, (features,)), LayerShape(SignActivation)


_POOL = LayerShape(MaxPool2d, (2,))
_FLATTEN = LayerShape(Flatten)


def _conv3(kind: Type[Layer], in_channels: int,
           out_channels: int) -> Tuple[LayerShape, ...]:
    """A padded 3x3 convolution followed by batch-norm and sign."""
    return (LayerShape(kind, (in_channels, out_channels, 3), padding=1),
            *_bn_sign(out_channels))


def _mlp(name: str, hidden_sizes: List[int], seed: int) -> NetworkShape:
    """Full-precision first/last layers around binary hidden layers."""
    sizes = [MNIST_INPUT[0], *hidden_sizes, NUM_CLASSES]
    layers: List[LayerShape] = []
    for index in range(len(sizes) - 1):
        last = index == len(sizes) - 2
        kind = Linear if index == 0 or last else BinaryLinear
        layers.append(LayerShape(kind, (sizes[index], sizes[index + 1])))
        if not last:
            layers.extend(_bn_sign(sizes[index + 1]))
    return NetworkShape(name, "mnist", MNIST_INPUT, default_seed=seed,
                        rng_streams=len(sizes), layers=tuple(layers))


NETWORK_TABLE: Dict[str, NetworkShape] = {
    "MLP-S": _mlp("MLP-S", [500, 250], seed=1),
    "MLP-M": _mlp("MLP-M", [1000, 500, 250], seed=2),
    "MLP-L": _mlp("MLP-L", [2000, 1500, 1000, 500], seed=3),
    # conv(1->6,k5) - pool - Bconv(6->16,k5) - pool - Bfc(400->120) - fc(120->10)
    "CNN-S": NetworkShape(
        "CNN-S", "mnist", MNIST_IMAGE_INPUT, default_seed=4, rng_streams=4,
        layers=(
            LayerShape(Conv2d, (1, 6, 5), padding=2), *_bn_sign(6), _POOL,
            LayerShape(BinaryConv2d, (6, 16, 5)), *_bn_sign(16), _POOL,
            _FLATTEN,
            LayerShape(BinaryLinear, (16 * 5 * 5, 120)), *_bn_sign(120),
            LayerShape(Linear, (120, NUM_CLASSES)),
        ),
    ),
    # conv(3->32) - Bconv(32->32) - pool - Bconv(32->64) - Bconv(64->64) -
    # pool - Bfc(4096->512) - fc(512->10)
    "CNN-M": NetworkShape(
        "CNN-M", "cifar10", CIFAR_IMAGE_INPUT, default_seed=5, rng_streams=6,
        layers=(
            *_conv3(Conv2d, 3, 32), *_conv3(BinaryConv2d, 32, 32), _POOL,
            *_conv3(BinaryConv2d, 32, 64), *_conv3(BinaryConv2d, 64, 64), _POOL,
            _FLATTEN,
            LayerShape(BinaryLinear, (64 * 8 * 8, 512)), *_bn_sign(512),
            LayerShape(Linear, (512, NUM_CLASSES)),
        ),
    ),
    # VGG-like: conv(3->128) - Bconv(128->128) - pool - Bconv(128->256) -
    # Bconv(256->256) - pool - Bconv(256->512) - Bconv(512->512) - pool -
    # Bfc(8192->1024) - fc(1024->10)
    "CNN-L": NetworkShape(
        "CNN-L", "cifar10", CIFAR_IMAGE_INPUT, default_seed=6, rng_streams=8,
        layers=(
            *_conv3(Conv2d, 3, 128), *_conv3(BinaryConv2d, 128, 128), _POOL,
            *_conv3(BinaryConv2d, 128, 256), *_conv3(BinaryConv2d, 256, 256),
            _POOL,
            *_conv3(BinaryConv2d, 256, 512), *_conv3(BinaryConv2d, 512, 512),
            _POOL,
            _FLATTEN,
            LayerShape(BinaryLinear, (512 * 4 * 4, 1024)), *_bn_sign(1024),
            LayerShape(Linear, (1024, NUM_CLASSES)),
        ),
    ),
}


def list_networks() -> List[str]:
    """Names of the six evaluation networks, in the paper's reporting order."""
    return ["CNN-S", "CNN-M", "CNN-L", "MLP-S", "MLP-M", "MLP-L"]


def network_shape(name: str) -> NetworkShape:
    """Shape table of one evaluation network (``"mlp_s"`` works too)."""
    key = name.upper().replace("_", "-")
    if key not in NETWORK_TABLE:
        raise ValueError(
            f"unknown network {name!r}; available: {sorted(NETWORK_TABLE)}"
        )
    return NETWORK_TABLE[key]


def build_network(name: str, *, seed: RngLike = None) -> BNNModel:
    """Build one of the six evaluation networks by name.

    ``seed = None`` uses the network's default seed from the table.
    """
    shape = network_shape(name)
    streams = iter(spawn_rngs(
        shape.default_seed if seed is None else seed, shape.rng_streams
    ))
    layers = [row.build(next(streams) if row.is_mac else None)
              for row in shape.layers]
    return BNNModel(layers, name=shape.name, input_shape=shape.input_shape)


def dataset_for_network(name: str) -> str:
    """Dataset name ('mnist' or 'cifar10') associated with a network."""
    return network_shape(name).dataset
