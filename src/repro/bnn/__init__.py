"""Binary Neural Network (BNN) software substrate.

This package implements, from scratch on NumPy, everything the paper's
evaluation needs from the neural-network side:

* binarisation utilities and the XNOR+Popcount identity of Eq. 1
  (:mod:`repro.bnn.binarize`, :mod:`repro.bnn.xnor_ops`),
* binary layers with latent full-precision weights and straight-through
  estimator gradients (:mod:`repro.bnn.layers`),
* a small sequential-model container (:mod:`repro.bnn.model`),
* the six MlBench-style evaluation networks — MLP-S/M/L and CNN-S/M/L —
  (:mod:`repro.bnn.networks`),
* deterministic synthetic MNIST/CIFAR-10-like datasets
  (:mod:`repro.bnn.datasets`),
* a training loop and metrics (:mod:`repro.bnn.training`,
  :mod:`repro.bnn.metrics`), and
* workload extraction used by the architecture timing/energy models
  (:mod:`repro.bnn.workload`).
"""

from repro.bnn.binarize import binarize_sign, to_bipolar, to_unipolar
from repro.bnn.layers import (
    BatchNorm,
    BinaryConv2d,
    BinaryLinear,
    Conv2d,
    Flatten,
    HardTanh,
    Layer,
    Linear,
    MaxPool2d,
    SignActivation,
)
from repro.bnn.model import BNNModel, InferenceEngine, fold_batchnorm_sign
from repro.bnn.networks import build_network, list_networks
from repro.bnn.pipeline import StreamingPipeline
from repro.bnn.workload import (
    LayerSpec,
    NetworkWorkload,
    extract_workload,
    get_workload,
)
from repro.bnn.xnor_ops import (
    PackedTensor,
    PackedWeights,
    SignSpec,
    binary_conv2d,
    binary_conv2d_reference,
    binary_dot,
    binary_matmul,
    binary_matmul_packed,
    binary_matmul_reference,
    choose_matmul_kernel,
    fused_conv2d_sign,
    fused_matmul_sign,
    im2col,
    pack_bipolar,
    pack_conv_weights,
    pack_linear_weights,
    packed_flatten,
    packed_maxpool2d,
    popcount,
    xnor,
    xnor_popcount,
)

__all__ = [
    "binarize_sign",
    "to_bipolar",
    "to_unipolar",
    "Layer",
    "Linear",
    "Conv2d",
    "BinaryLinear",
    "BinaryConv2d",
    "BatchNorm",
    "SignActivation",
    "HardTanh",
    "MaxPool2d",
    "Flatten",
    "BNNModel",
    "InferenceEngine",
    "fold_batchnorm_sign",
    "StreamingPipeline",
    "PackedTensor",
    "PackedWeights",
    "SignSpec",
    "choose_matmul_kernel",
    "fused_matmul_sign",
    "fused_conv2d_sign",
    "pack_linear_weights",
    "pack_conv_weights",
    "packed_maxpool2d",
    "packed_flatten",
    "build_network",
    "list_networks",
    "LayerSpec",
    "NetworkWorkload",
    "extract_workload",
    "get_workload",
    "xnor",
    "popcount",
    "xnor_popcount",
    "binary_dot",
    "binary_matmul",
    "binary_matmul_packed",
    "binary_matmul_reference",
    "binary_conv2d",
    "binary_conv2d_reference",
    "im2col",
    "pack_bipolar",
]
