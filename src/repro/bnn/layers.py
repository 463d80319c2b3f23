"""Neural-network layers used by the evaluation BNNs.

The paper keeps the *first and last* layers of every network in higher
precision and binarises only the hidden layers (Sec. II-B); the layer classes
here therefore come in two flavours:

* full-precision layers (:class:`Linear`, :class:`Conv2d`) that execute on the
  digital scalar units of the accelerators, and
* binary layers (:class:`BinaryLinear`, :class:`BinaryConv2d`) whose forward
  pass uses the XNOR+Popcount identity of Eq. 1 and whose training pass uses
  latent full-precision weights with a straight-through estimator.

All layers implement a minimal ``forward`` / ``backward`` protocol operating
on NumPy arrays so the whole stack runs without any deep-learning framework.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.bnn.binarize import binarize_sign, clip_latent, ste_backward
from repro.bnn.xnor_ops import (
    PackedTensor,
    PackedWeights,
    SignSpec,
    binary_conv2d,
    binary_matmul,
    fused_conv2d_sign,
    fused_matmul_sign,
    im2col,
    pack_conv_weights,
    pack_linear_weights,
    packed_flatten,
    packed_maxpool2d,
)
from repro.utils.rng import RngLike, make_rng


class Layer:
    """Base class for all layers.

    Sub-classes implement :meth:`forward` and :meth:`backward` and expose
    trainable parameters through :attr:`params` / :attr:`grads` dictionaries
    keyed by parameter name.
    """

    #: whether the layer's MAC work is binary (runs on the crossbar) or not
    is_binary: bool = False

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.training: bool = False

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def train(self) -> None:
        """Switch the layer to training mode."""
        self.training = True

    def eval(self) -> None:
        """Switch the layer to inference mode."""
        self.training = False

    def num_parameters(self) -> int:
        """Total number of trainable scalars in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape of the output for a single sample of ``input_shape``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _kaiming_init(shape: Tuple[int, ...], fan_in: int,
                  rng: np.random.Generator) -> np.ndarray:
    """He-style initialisation appropriate for sign activations."""
    scale = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, scale, size=shape)


class _BinaryWeightCache:
    """Mixin caching the binarised and bit-packed weights of a binary layer.

    The latent weights only change through optimiser steps, yet the seed
    implementation re-ran ``binarize_sign`` on every forward call — even in
    eval mode, where the weights are frozen.  The mixin memoises both the
    bipolar weights and the :class:`~repro.bnn.xnor_ops.PackedWeights`
    operands of the fused kernels, and invalidates them wherever the
    training loop can mutate the latents: on :meth:`train`, on every
    training-mode forward (the optimiser updates ``params['weight']`` in
    place between forwards), and on :meth:`clip_latent_weights`.  Code that
    mutates ``params['weight']`` outside the training protocol must call
    :meth:`invalidate_weight_cache` explicitly.

    Get-or-compute and invalidation are serialised by a per-layer lock so
    eval-mode layers are safe to share across threads (the serving layer
    keeps one compiled :class:`~repro.bnn.model.InferenceEngine` alive
    across a dispatcher thread while clients probe the same model; without
    the lock two first-touch threads could each pack the weights, or a
    concurrent ``invalidate`` could expose a half-populated entry).  The
    lock is recreated — not shipped — on unpickling, so engines still
    cross the process/queue backends' IPC boundary.
    """

    def _init_weight_cache(self) -> None:
        self._weight_cache: Dict[str, object] = {}
        # reentrant: packing the fused operands reads `binary_weight`,
        # which re-enters the get-or-compute path on the same thread
        self._weight_cache_lock = threading.RLock()

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        # locks are not picklable; __setstate__ makes a fresh one
        state.pop("_weight_cache_lock", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._weight_cache_lock = threading.RLock()

    def invalidate_weight_cache(self) -> None:
        """Drop the cached binary/packed weights (after a weight mutation)."""
        with self._weight_cache_lock:
            self._weight_cache.clear()

    def _pack_weight_operands(self) -> PackedWeights:  # pragma: no cover - interface
        raise NotImplementedError

    def _cached_weight_operand(self, key: str,
                               compute: "Callable[[], object]") -> object:
        """Get-or-compute one cache entry under the per-layer lock.

        Holding the lock across ``compute`` means a concurrent first touch
        blocks instead of duplicating the (deterministic but costly)
        binarise/pack work, and never observes a partially-published entry.
        """
        with self._weight_cache_lock:
            cached = self._weight_cache.get(key)
            if cached is None:
                cached = compute()
                self._weight_cache[key] = cached
            return cached

    @property
    def binary_weight(self) -> np.ndarray:
        """Bipolar {-1,+1} weights actually used at inference (memoised)."""
        return self._cached_weight_operand(
            "binary", lambda: binarize_sign(self.params["weight"]))

    @property
    def packed_weights(self) -> PackedWeights:
        """Pre-packed fused-kernel operands for the binary weights (memoised)."""
        return self._cached_weight_operand("packed", self._pack_weight_operands)

    def train(self) -> None:
        super().train()
        self.invalidate_weight_cache()

    def clip_latent_weights(self) -> None:
        """Clip latent weights to [-1, 1] after an optimiser step."""
        self.params["weight"] = clip_latent(self.params["weight"])
        self.invalidate_weight_cache()


class Linear(Layer):
    """Full-precision fully connected layer ``y = x @ W.T + b``."""

    is_binary = False

    def __init__(self, in_features: int, out_features: int, *,
                 bias: bool = True, rng: RngLike = None) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.use_bias = bool(bias)
        generator = make_rng(rng)
        self.params["weight"] = _kaiming_init(
            (out_features, in_features), in_features, generator
        )
        if bias:
            self.params["bias"] = np.zeros(out_features)
        self._cache_input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        self._cache_input = x if self.training else None
        out = x @ self.params["weight"].T
        if self.use_bias:
            out = out + self.params["bias"]
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache_input is None:
            raise RuntimeError("backward called before a training-mode forward")
        x = self._cache_input
        self.grads["weight"] = grad.T @ x
        if self.use_bias:
            self.grads["bias"] = grad.sum(axis=0)
        return grad @ self.params["weight"]

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.out_features,)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class BinaryLinear(_BinaryWeightCache, Layer):
    """Fully connected layer with binary weights (and binary inputs).

    At inference the latent weights are binarised with ``sign`` and the output
    is computed with :func:`repro.bnn.xnor_ops.binary_matmul`, i.e. through
    exactly the XNOR+Popcount path that the crossbar mappings implement.
    The binarised/packed weights are memoised (see :class:`_BinaryWeightCache`)
    and :meth:`forward_packed` runs the layer on bit-packed activations.
    """

    is_binary = True

    def __init__(self, in_features: int, out_features: int, *,
                 rng: RngLike = None) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        generator = make_rng(rng)
        self.params["weight"] = _kaiming_init(
            (out_features, in_features), in_features, generator
        )
        self._init_weight_cache()
        self._cache_input: Optional[np.ndarray] = None

    def _pack_weight_operands(self) -> PackedWeights:
        return pack_linear_weights(self.binary_weight)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        x_binary = binarize_sign(x)
        if self.training:
            # the optimiser may have stepped the latents since the last call
            self.invalidate_weight_cache()
            self._cache_input = np.asarray(x, dtype=np.float64)
        else:
            self._cache_input = None
        weight_binary = self.binary_weight
        return binary_matmul(x_binary, weight_binary).astype(np.float64)

    def forward_packed(self, x: PackedTensor,
                       sign: Optional[SignSpec] = None, *,
                       kernel: str = "auto", flip_rate: float = 0.0,
                       rng: Optional[np.random.Generator] = None):
        """Packed-path forward on bit-packed activations.

        With ``sign`` the following batch-norm + sign pair is folded in and
        a :class:`~repro.bnn.xnor_ops.PackedTensor` comes back; without it
        the dense float64 pre-activations are returned (identical to
        :meth:`forward` on the unpacked input).
        """
        if len(x.shape) != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected packed input of shape (batch, {self.in_features}), "
                f"got {x.shape}"
            )
        out = fused_matmul_sign(
            x, self.packed_weights, sign, kernel=kernel,
            flip_rate=flip_rate, rng=rng,
        )
        if sign is None:
            return out.astype(np.float64)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache_input is None:
            raise RuntimeError("backward called before a training-mode forward")
        x_latent = self._cache_input
        x_binary = binarize_sign(x_latent).astype(np.float64)
        # Gradient w.r.t. binary weights, passed straight through to latents.
        grad_weight = grad.T @ x_binary
        self.grads["weight"] = ste_backward(grad_weight, self.params["weight"])
        # Gradient w.r.t. binary inputs, then STE through the input sign().
        grad_input_binary = grad @ binarize_sign(self.params["weight"]).astype(np.float64)
        return ste_backward(grad_input_binary, x_latent)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.out_features,)

    def __repr__(self) -> str:
        return f"BinaryLinear({self.in_features}, {self.out_features})"


class Conv2d(Layer):
    """Full-precision 2-D convolution (used for non-binarised first layers)."""

    is_binary = False

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: RngLike = None) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size) <= 0:
            raise ValueError("channels and kernel_size must be positive")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.use_bias = bool(bias)
        fan_in = in_channels * kernel_size * kernel_size
        generator = make_rng(rng)
        self.params["weight"] = _kaiming_init(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in, generator
        )
        if bias:
            self.params["bias"] = np.zeros(out_channels)
        self._cache: Optional[Tuple[np.ndarray, int, int, Tuple[int, ...]]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        patches, out_h, out_w = im2col(
            x, self.kernel_size, stride=self.stride, padding=self.padding,
            pad_value=0.0,
        )
        flat_weight = self.params["weight"].reshape(self.out_channels, -1)
        out = patches @ flat_weight.T
        if self.use_bias:
            out = out + self.params["bias"]
        batch = x.shape[0]
        if self.training:
            self._cache = (patches, out_h, out_w, x.shape)
        else:
            self._cache = None
        return out.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        patches, out_h, out_w, input_shape = self._cache
        batch = input_shape[0]
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        flat_weight = self.params["weight"].reshape(self.out_channels, -1)
        self.grads["weight"] = (grad_flat.T @ patches).reshape(
            self.params["weight"].shape
        )
        if self.use_bias:
            self.grads["bias"] = grad_flat.sum(axis=0)
        grad_patches = grad_flat @ flat_weight
        return _col2im(
            grad_patches, input_shape, self.kernel_size, self.stride,
            self.padding, out_h, out_w,
        )

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        _, height, width = input_shape
        out_h = (height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel_size) // self.stride + 1
        return (self.out_channels, out_h, out_w)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class BinaryConv2d(_BinaryWeightCache, Layer):
    """2-D convolution with binary weights and binary activations.

    The forward pass flattens each receptive field (im2col) and evaluates the
    XNOR+Popcount identity, mirroring how TacitMap flattens kernels into
    crossbar columns (Fig. 5, "Flattened Kernels").  The binarised/packed
    kernels are memoised (see :class:`_BinaryWeightCache`) and
    :meth:`forward_packed` runs the layer on channel-packed activations.
    """

    is_binary = True

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0, rng: RngLike = None) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size) <= 0:
            raise ValueError("channels and kernel_size must be positive")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        fan_in = in_channels * kernel_size * kernel_size
        generator = make_rng(rng)
        self.params["weight"] = _kaiming_init(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in, generator
        )
        self._init_weight_cache()
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, int, int, Tuple[int, ...]]] = None

    def _pack_weight_operands(self) -> PackedWeights:
        return pack_conv_weights(self.binary_weight)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        x_binary = binarize_sign(x)
        if self.training:
            # the optimiser may have stepped the latents since the last call
            self.invalidate_weight_cache()
        out = binary_conv2d(
            x_binary, self.binary_weight, stride=self.stride, padding=self.padding
        ).astype(np.float64)
        if self.training:
            patches_latent, out_h, out_w = im2col(
                np.asarray(x, dtype=np.float64), self.kernel_size,
                stride=self.stride, padding=self.padding, pad_value=-1.0,
            )
            self._cache = (patches_latent, x_binary, out_h, out_w, x.shape)
        else:
            self._cache = None
        return out

    def forward_packed(self, x: PackedTensor,
                       sign: Optional[SignSpec] = None, *,
                       kernel: str = "auto", flip_rate: float = 0.0,
                       rng: Optional[np.random.Generator] = None):
        """Packed-path forward on channel-packed activations.

        With ``sign`` the following batch-norm + sign pair is folded in and
        a channel-packed :class:`~repro.bnn.xnor_ops.PackedTensor` comes
        back; without it the dense float64 pre-activations are returned
        (identical to :meth:`forward` on the unpacked input).
        """
        if len(x.shape) != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected packed input (batch, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        out = fused_conv2d_sign(
            x, self.packed_weights, self.kernel_size, sign,
            stride=self.stride, padding=self.padding, kernel=kernel,
            flip_rate=flip_rate, rng=rng,
        )
        if sign is None:
            return out.astype(np.float64)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        patches_latent, _, out_h, out_w, input_shape = self._cache
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        patches_binary = binarize_sign(patches_latent).astype(np.float64)
        grad_weight_flat = grad_flat.T @ patches_binary
        grad_weight = ste_backward(
            grad_weight_flat.reshape(self.params["weight"].shape),
            self.params["weight"],
        )
        self.grads["weight"] = grad_weight
        flat_weight = binarize_sign(self.params["weight"]).reshape(
            self.out_channels, -1
        ).astype(np.float64)
        grad_patches_binary = grad_flat @ flat_weight
        grad_patches = ste_backward(grad_patches_binary, patches_latent)
        return _col2im(
            grad_patches, input_shape, self.kernel_size, self.stride,
            self.padding, out_h, out_w,
        )

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        _, height, width = input_shape
        out_h = (height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel_size) // self.stride + 1
        return (self.out_channels, out_h, out_w)

    def __repr__(self) -> str:
        return (
            f"BinaryConv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


def _col2im(grad_patches: np.ndarray, input_shape: Tuple[int, ...],
            kernel_size: int, stride: int, padding: int,
            out_h: int, out_w: int) -> np.ndarray:
    """Scatter patch gradients back to image layout (inverse of im2col).

    Loops over the ``kernel_size**2`` kernel offsets (not over output
    positions): for a fixed offset every output position touches a distinct
    input pixel, so each offset is one strided vectorised accumulation.
    """
    batch, channels, height, width = input_shape
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding)
    )
    grad_patches = grad_patches.reshape(
        batch, out_h, out_w, channels, kernel_size, kernel_size
    ).transpose(0, 3, 1, 2, 4, 5)
    for dr in range(kernel_size):
        for dc in range(kernel_size):
            padded[:, :,
                   dr:dr + out_h * stride:stride,
                   dc:dc + out_w * stride:stride] += grad_patches[..., dr, dc]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class BatchNorm(Layer):
    """Batch normalisation over the channel/feature axis.

    Works for both 2-D ``(batch, features)`` and 4-D ``(batch, channels, H, W)``
    inputs.  BNNs rely on batch-norm before each sign activation to keep the
    binarisation threshold centred.
    """

    is_binary = False

    def __init__(self, num_features: int, *, momentum: float = 0.1,
                 eps: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.params["gamma"] = np.ones(num_features)
        self.params["beta"] = np.zeros(num_features)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _moments_axes(self, x: np.ndarray) -> Tuple[int, ...]:
        if x.ndim == 2:
            return (0,)
        if x.ndim == 4:
            return (0, 2, 3)
        raise ValueError(f"BatchNorm expects 2-D or 4-D input, got {x.ndim}-D")

    def _broadcast(self, stat: np.ndarray, ndim: int) -> np.ndarray:
        if ndim == 2:
            return stat.reshape(1, -1)
        return stat.reshape(1, -1, 1, 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        axes = self._moments_axes(x)
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        std = np.sqrt(var + self.eps)
        mean_b = self._broadcast(mean, x.ndim)
        std_b = self._broadcast(std, x.ndim)
        gamma_b = self._broadcast(self.params["gamma"], x.ndim)
        beta_b = self._broadcast(self.params["beta"], x.ndim)
        if self.training:
            x_hat = (x - mean_b) / std_b
            self._cache = (x_hat, std, x)
            return gamma_b * x_hat + beta_b
        # eval: the same operations in the same order, in one output buffer
        # instead of a temporary per operation (chunk workers run several
        # of these at once, so the temporaries would add up in peak memory)
        self._cache = None
        out = x - mean_b
        out /= std_b
        out *= gamma_b
        out += beta_b
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        x_hat, std, x = self._cache
        axes = self._moments_axes(x)
        count = x.size / self.num_features
        self.grads["gamma"] = np.sum(grad * x_hat, axis=axes)
        self.grads["beta"] = np.sum(grad, axis=axes)
        gamma = self._broadcast(self.params["gamma"], x.ndim)
        std_b = self._broadcast(std, x.ndim)
        grad_xhat = grad * gamma
        grad_input = (
            grad_xhat
            - self._broadcast(np.mean(grad_xhat, axis=axes), x.ndim)
            - x_hat * self._broadcast(
                np.sum(grad_xhat * x_hat, axis=axes) / count, x.ndim
            )
        ) / std_b
        return grad_input

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape

    def __repr__(self) -> str:
        return f"BatchNorm({self.num_features})"


class SignActivation(Layer):
    """Sign activation producing bipolar {-1,+1} outputs (STE backward)."""

    is_binary = False

    def __init__(self) -> None:
        super().__init__()
        self._cache_input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.training:
            self._cache_input = x
        else:
            self._cache_input = None
        return binarize_sign(x).astype(np.float64)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache_input is None:
            raise RuntimeError("backward called before a training-mode forward")
        return ste_backward(grad, self._cache_input)

    def forward_packed(self, x: PackedTensor) -> PackedTensor:
        """Sign of an already-binarised packed activation is the identity."""
        return x

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape


class HardTanh(Layer):
    """Hard tanh non-linearity (used before output layers in some BNNs)."""

    is_binary = False

    def __init__(self) -> None:
        super().__init__()
        self._cache_input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.training:
            self._cache_input = x
        else:
            self._cache_input = None
        return np.clip(x, -1.0, 1.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache_input is None:
            raise RuntimeError("backward called before a training-mode forward")
        mask = (np.abs(self._cache_input) <= 1.0).astype(np.float64)
        return grad * mask

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape


class MaxPool2d(Layer):
    """Max pooling with a square window."""

    is_binary = False

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...]]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError(f"MaxPool2d expects 4-D input, got shape {x.shape}")
        batch, channels, height, width = x.shape
        k, s = self.kernel_size, self.stride
        out_h = (height - k) // s + 1
        out_w = (width - k) // s + 1
        windows = np.lib.stride_tricks.sliding_window_view(
            x, (k, k), axis=(2, 3)
        )[:, :, ::s, ::s].reshape(batch, channels, out_h, out_w, k * k)
        out = windows.max(axis=-1)
        if self.training:
            argmax = windows.argmax(axis=-1)
            self._cache = (argmax, x.shape)
        else:
            self._cache = None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        argmax, input_shape = self._cache
        k, s = self.kernel_size, self.stride
        out_h, out_w = grad.shape[2], grad.shape[3]
        grad_input = np.zeros(input_shape)
        dr, dc = np.divmod(argmax, k)
        b_idx, c_idx, row_idx, col_idx = np.ogrid[
            :grad.shape[0], :grad.shape[1], :out_h, :out_w
        ]
        # overlapping windows can select the same input pixel, so scatter-add
        np.add.at(
            grad_input,
            (b_idx, c_idx, row_idx * s + dr, col_idx * s + dc),
            grad,
        )
        return grad_input

    def forward_packed(self, x: PackedTensor) -> PackedTensor:
        """Max pooling on packed signs: bytewise OR over each window."""
        return packed_maxpool2d(x, self.kernel_size, self.stride)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        channels, height, width = input_shape
        out_h = (height - self.kernel_size) // self.stride + 1
        out_w = (width - self.kernel_size) // self.stride + 1
        return (channels, out_h, out_w)

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    is_binary = False

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad.reshape(self._input_shape)

    def forward_packed(self, x: PackedTensor) -> PackedTensor:
        """Repack a channel-packed activation into the linear-layer layout."""
        return packed_flatten(x)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        size = 1
        for dim in input_shape:
            size *= dim
        return (size,)
