"""XNOR + Popcount arithmetic (Equation 1 of the paper).

The central identity the whole paper builds on is::

    In (*) W = 2 * popcount(In' XNOR W') - L            (Eq. 1)

where ``In`` and ``W`` are bipolar {-1,+1} vectors of length ``L``, ``(*)``
is the dot product (the inner kernel of convolution), and ``In'``, ``W'`` are
the unipolar {0,1} encodings of the same vectors.  This module provides the
unipolar-domain primitives (``xnor``, ``popcount``) and the bipolar-domain
operations (``binary_dot``, ``binary_matmul``, ``binary_conv2d``) used both
by the BNN layers and by the mapping-equivalence tests.

The batched operations come in three interchangeable kernels, selectable via
the ``kernel`` argument of :func:`binary_matmul` / :func:`binary_conv2d`:

* ``"blas"`` — one float64 matrix product over the bipolar operands.  Exact
  (the accumulators stay far below 2**53) and the fastest on CPU.
* ``"packed"`` — the bit-parallel path: operands are packed 8 bits per byte
  with :func:`numpy.packbits` and mismatches are counted through a 256-entry
  popcount look-up table, mirroring how a digital XNOR+Popcount engine (or
  the crossbar read-out) works on words rather than scalars.  Uses 8x less
  memory per operand than the unpacked encodings.
* ``"reference"`` — the original unipolar match-counting implementation
  (:func:`binary_matmul_reference`, retained verbatim, as is
  :func:`im2col_reference`).  :func:`binary_conv2d_reference` is a
  *newly written* per-scalar oracle used for equivalence testing and as a
  scalar-engine speedup baseline — it is not the implementation this
  module's fast paths replaced.

The default ``"auto"`` dispatches through :func:`choose_matmul_kernel`, a
measured size heuristic: the BLAS kernel wins on every non-trivial operand
size on CPU, so ``auto`` selects ``"packed"`` only for tiny products where
the two are within measurement noise and the packed operands' 8x smaller
workspace is worth having.  Sweeps that model the packed hardware datapath
can still opt into ``"packed"`` explicitly at any size.

Beyond the 2-D matmul kernels this module also provides the *batched packed
inference* primitives used by :class:`repro.bnn.model.InferenceEngine`:

* :class:`PackedTensor` — activations kept bit-packed *between* layers
  (``np.packbits`` along the feature/channel axis plus logical shape
  metadata), so layer boundaries stop round-tripping through dense bipolar
  arrays;
* :class:`PackedWeights` / :func:`pack_linear_weights` /
  :func:`pack_conv_weights` — pre-packed binary weight operands cached by
  the binary layers;
* :class:`SignSpec` — per-output-channel integer threshold rules that fold
  an inference-mode batch-norm + sign pair into a single comparison on the
  integer popcount outputs;
* :func:`fused_matmul_sign` / :func:`fused_conv2d_sign` — fused
  ``matmul -> sign`` / ``conv -> sign`` kernels that consume and emit
  :class:`PackedTensor` activations directly, with optional per-popcount
  bit-flip noise injection;
* :func:`packed_maxpool2d` (max over bipolar signs == OR over bits) and
  :func:`packed_flatten` (layout change into the linear-layer packing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.bnn.autotune import CONV_BLOCK_BYTES, DISPATCH_MACS
from repro.bnn.binarize import to_unipolar
from repro.utils.validation import check_binary, check_bipolar

#: number of set bits for every uint8 value — the popcount LUT of the packed
#: kernel (equivalent to an 8-bit hardware popcount unit)
_POPCOUNT_LUT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

#: row-block size used when materialising XOR intermediates in the packed
#: kernel, keeping the (block x outputs x bytes) workspace cache-resident
_PACKED_BLOCK_ROWS = 512


def xnor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise XNOR of two unipolar {0,1} arrays."""
    a = check_binary("a", a)
    b = check_binary("b", b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return (a == b).astype(np.int8)


def popcount(bits: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Population count (number of set bits) along ``axis``.

    With ``axis=None`` the total count over all elements is returned.
    """
    bits = check_binary("bits", bits)
    return np.sum(bits.astype(np.int64), axis=axis)


def xnor_popcount(a: np.ndarray, b: np.ndarray, axis: int | None = None) -> np.ndarray:
    """``popcount(a XNOR b)`` — the crossbar-friendly form of a binary dot."""
    return popcount(xnor(a, b), axis=axis)


def binary_dot(in_bipolar: np.ndarray, w_bipolar: np.ndarray) -> int:
    """Reference bipolar dot product ``sum(in_i * w_i)`` of two {-1,+1} vectors."""
    in_bipolar = np.asarray(in_bipolar, dtype=np.int64)
    w_bipolar = np.asarray(w_bipolar, dtype=np.int64)
    if in_bipolar.shape != w_bipolar.shape:
        raise ValueError(
            f"shape mismatch: {in_bipolar.shape} vs {w_bipolar.shape}"
        )
    return int(np.sum(in_bipolar * w_bipolar))


def binary_dot_via_xnor(in_bipolar: np.ndarray, w_bipolar: np.ndarray) -> int:
    """Evaluate the bipolar dot product through Eq. 1 (XNOR + popcount path)."""
    in_bits = to_unipolar(in_bipolar)
    w_bits = to_unipolar(w_bipolar)
    length = in_bits.size
    return int(2 * xnor_popcount(in_bits.ravel(), w_bits.ravel()) - length)


def _check_matmul_shapes(inputs: np.ndarray, weights: np.ndarray) -> None:
    if inputs.ndim != 2 or weights.ndim != 2:
        raise ValueError("binary_matmul expects 2-D inputs and weights")
    if inputs.shape[1] != weights.shape[1]:
        raise ValueError(
            f"vector length mismatch: inputs {inputs.shape[1]} vs "
            f"weights {weights.shape[1]}"
        )


def _check_matmul_operands(inputs_bipolar: np.ndarray,
                           weights_bipolar: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    in_bits = to_unipolar(inputs_bipolar)
    w_bits = to_unipolar(weights_bipolar)
    _check_matmul_shapes(in_bits, w_bits)
    return in_bits, w_bits


def binary_matmul_reference(inputs_bipolar: np.ndarray,
                            weights_bipolar: np.ndarray) -> np.ndarray:
    """Oracle bipolar matrix product via unipolar match counting.

    This is the original implementation, retained unchanged as the ground
    truth the fast kernels are verified against.
    """
    in_bits, w_bits = _check_matmul_operands(inputs_bipolar, weights_bipolar)
    length = in_bits.shape[1]
    # XNOR(a, b) summed over the length axis == a.b + (1-a).(1-b) in 0/1 algebra.
    matches = (
        in_bits.astype(np.int64) @ w_bits.astype(np.int64).T
        + (1 - in_bits.astype(np.int64)) @ (1 - w_bits.astype(np.int64)).T
    )
    return 2 * matches - length


def pack_bipolar(bipolar: np.ndarray) -> tuple[np.ndarray, int]:
    """Pack bipolar {-1,+1} rows into uint8 words, 8 bits per byte.

    Returns ``(packed, length)`` where ``packed`` has the last axis packed
    with :func:`numpy.packbits` (zero-padded to a whole number of bytes) and
    ``length`` is the original last-axis bit count.
    """
    bits = to_unipolar(bipolar)
    if bits.ndim < 1:
        raise ValueError("pack_bipolar expects at least 1-D input")
    return np.packbits(bits, axis=-1), bits.shape[-1]


def packed_mismatches(a_packed: np.ndarray, b_packed: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between packed bit rows.

    ``a_packed`` is ``(n, nbytes)`` and ``b_packed`` is ``(m, nbytes)``; the
    result is the ``(n, m)`` int64 matrix of set bits in ``a XOR b``.

    Precondition: both operands must be packed from the *same* original bit
    length (as :func:`binary_matmul_packed` guarantees).  Only then does the
    zero padding added by :func:`numpy.packbits` line up and cancel in the
    XOR; equal byte widths alone cannot prove equal bit lengths, so rows
    packed from different lengths produce silently inflated distances.
    """
    if a_packed.ndim != 2 or b_packed.ndim != 2:
        raise ValueError("packed operands must be 2-D")
    if a_packed.shape[1] != b_packed.shape[1]:
        raise ValueError(
            f"packed width mismatch: {a_packed.shape[1]} vs {b_packed.shape[1]}"
        )
    n = a_packed.shape[0]
    out = np.empty((n, b_packed.shape[0]), dtype=np.int64)
    for start in range(0, n, _PACKED_BLOCK_ROWS):
        stop = min(start + _PACKED_BLOCK_ROWS, n)
        xor = a_packed[start:stop, None, :] ^ b_packed[None, :, :]
        out[start:stop] = _POPCOUNT_LUT[xor].sum(axis=-1, dtype=np.int64)
    return out


def binary_matmul_packed(inputs_bipolar: np.ndarray,
                         weights_bipolar: np.ndarray) -> np.ndarray:
    """Bipolar matrix product on bit-packed operands (packbits + LUT).

    With ``d`` mismatching bits out of ``L``, the bipolar dot product is
    ``L - 2 d`` — the XOR-domain restatement of Eq. 1.
    """
    in_bits, w_bits = _check_matmul_operands(inputs_bipolar, weights_bipolar)
    length = in_bits.shape[1]
    in_packed = np.packbits(in_bits, axis=-1)
    w_packed = np.packbits(w_bits, axis=-1)
    return length - 2 * packed_mismatches(in_packed, w_packed)


def _binary_matmul_blas(inputs_bipolar: np.ndarray,
                        weights_bipolar: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs_bipolar)
    weights = np.asarray(weights_bipolar)
    _check_matmul_shapes(inputs, weights)
    if inputs.size == 0 or weights.size == 0:
        # degenerate batch/length: the other kernels return all-zero counts
        return np.zeros((inputs.shape[0], weights.shape[0]), dtype=np.int64)
    inputs = check_bipolar("inputs_bipolar", inputs)
    weights = check_bipolar("weights_bipolar", weights)
    # one BLAS product straight over the bipolar operands; exact because
    # every accumulator is an integer well below 2**53
    return np.rint(
        inputs.astype(np.float64) @ weights.astype(np.float64).T
    ).astype(np.int64)


_MATMUL_KERNELS = {
    "blas": _binary_matmul_blas,
    "packed": binary_matmul_packed,
    "reference": binary_matmul_reference,
}


def binary_matmul(inputs_bipolar: np.ndarray, weights_bipolar: np.ndarray, *,
                  kernel: str = "auto") -> np.ndarray:
    """Bipolar matrix product computed through the XNOR+Popcount identity.

    Parameters
    ----------
    inputs_bipolar:
        Array of shape ``(batch, length)`` with values in {-1, +1}.
    weights_bipolar:
        Array of shape ``(n_outputs, length)`` with values in {-1, +1}; each
        row is one weight vector (one output neuron).
    kernel:
        ``"auto"`` (default), ``"blas"``, ``"packed"`` or ``"reference"`` —
        see the module docstring.  All kernels return bit-exact results.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``(batch, n_outputs)`` equal to
        ``inputs_bipolar @ weights_bipolar.T``.
    """
    if kernel == "auto":
        kernel = "blas"
    try:
        implementation = _MATMUL_KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from "
            f"{sorted(_MATMUL_KERNELS)} or 'auto'"
        ) from None
    return implementation(inputs_bipolar, weights_bipolar)


def _pad_and_extent(images: np.ndarray, kernel_size: int, stride: int,
                    padding: int, pad_value: float
                    ) -> tuple[np.ndarray, int, int]:
    if images.ndim != 4:
        raise ValueError(f"images must be 4-D (N, C, H, W), got shape {images.shape}")
    _, _, height, width = images.shape
    if padding > 0:
        images = np.pad(
            images,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
            constant_values=pad_value,
        )
        height += 2 * padding
        width += 2 * padding
    out_h = (height - kernel_size) // stride + 1
    out_w = (width - kernel_size) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {kernel_size} with stride {stride} does not fit "
            f"input of size {height}x{width}"
        )
    return images, out_h, out_w


def im2col_reference(images: np.ndarray, kernel_size: int, stride: int = 1,
                     padding: int = 0, pad_value: float = -1.0
                     ) -> tuple[np.ndarray, int, int]:
    """Oracle im2col walking every output position with Python loops.

    Retained unchanged as the ground truth :func:`im2col` is tested against.
    """
    images = np.asarray(images)
    images, out_h, out_w = _pad_and_extent(
        images, kernel_size, stride, padding, pad_value
    )
    batch, channels = images.shape[:2]
    patches = np.empty(
        (batch, out_h, out_w, channels, kernel_size, kernel_size),
        dtype=images.dtype,
    )
    for row in range(out_h):
        top = row * stride
        for col in range(out_w):
            left = col * stride
            patches[:, row, col] = images[
                :, :, top:top + kernel_size, left:left + kernel_size
            ]
    flat = patches.reshape(batch * out_h * out_w,
                           channels * kernel_size * kernel_size)
    return flat, out_h, out_w


def im2col(images: np.ndarray, kernel_size: int, stride: int = 1,
           padding: int = 0, pad_value: float = -1.0) -> tuple[np.ndarray, int, int]:
    """Unfold image patches into rows so convolution becomes a matrix product.

    Vectorised with :func:`numpy.lib.stride_tricks.sliding_window_view` — no
    Python-level loop over output positions (see :func:`im2col_reference`
    for the loop oracle).

    Parameters
    ----------
    images:
        Array of shape ``(batch, channels, height, width)``.
    kernel_size:
        Square kernel extent.
    stride:
        Sliding-window stride.
    padding:
        Symmetric zero-...well, ``pad_value``-padding added to both spatial
        sides.  BNNs pad with ``-1`` (the bipolar encoding of bit 0) so padded
        positions stay binary.
    pad_value:
        Value used for padding.

    Returns
    -------
    (patches, out_h, out_w):
        ``patches`` has shape ``(batch * out_h * out_w,
        channels * kernel_size * kernel_size)``; each row is one flattened
        receptive field (one "activation vector" in the paper's terminology).
    """
    images = np.asarray(images)
    images, out_h, out_w = _pad_and_extent(
        images, kernel_size, stride, padding, pad_value
    )
    batch, channels = images.shape[:2]
    windows = np.lib.stride_tricks.sliding_window_view(
        images, (kernel_size, kernel_size), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    # (batch, channels, out_h, out_w, k, k) -> (batch, out_h, out_w, channels, k, k)
    flat = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch * out_h * out_w, channels * kernel_size * kernel_size
    )
    return flat, out_h, out_w


def binary_conv2d_reference(images_bipolar: np.ndarray,
                            kernels_bipolar: np.ndarray,
                            stride: int = 1, padding: int = 0) -> np.ndarray:
    """Oracle bipolar convolution: one Eq. 1 dot product per output scalar.

    Quadruple-nested loop over (batch, out_channel, out_row, out_col) — the
    per-pixel evaluation order a scalar XNOR+Popcount engine would follow.
    Written (new in this module, alongside the retained
    :func:`im2col_reference`/:func:`binary_matmul_reference`) as an
    independent ground truth and scalar-engine baseline for the vectorised
    :func:`binary_conv2d`.
    """
    images = np.asarray(images_bipolar)
    kernels = np.asarray(kernels_bipolar)
    if kernels.ndim != 4:
        raise ValueError("kernels must be 4-D (out_c, in_c, k, k)")
    out_channels, in_channels, k_h, k_w = kernels.shape
    if k_h != k_w:
        raise ValueError("only square kernels are supported")
    images, out_h, out_w = _pad_and_extent(images, k_h, stride, padding, -1)
    batch = images.shape[0]
    flat_kernels = [
        to_unipolar(kernels[oc]).ravel() for oc in range(out_channels)
    ]
    length = in_channels * k_h * k_w
    out = np.empty((batch, out_channels, out_h, out_w), dtype=np.int64)
    for b in range(batch):
        for row in range(out_h):
            top = row * stride
            for col in range(out_w):
                left = col * stride
                patch = to_unipolar(
                    images[b, :, top:top + k_h, left:left + k_w]
                ).ravel()
                for oc in range(out_channels):
                    matches = xnor_popcount(patch, flat_kernels[oc])
                    out[b, oc, row, col] = 2 * int(matches) - length
    return out


def binary_conv2d(images_bipolar: np.ndarray, kernels_bipolar: np.ndarray,
                  stride: int = 1, padding: int = 0, *,
                  kernel: str = "auto") -> np.ndarray:
    """Bipolar 2-D convolution evaluated through the XNOR+Popcount identity.

    The im2col-based batched path: every receptive field becomes one row of a
    patch matrix and the whole layer collapses into a single
    :func:`binary_matmul` (mirroring how TacitMap flattens kernels into
    crossbar columns).  ``kernel`` selects the matmul kernel; see
    :func:`binary_conv2d_reference` for the per-pixel loop oracle.

    Parameters
    ----------
    images_bipolar:
        Array ``(batch, in_channels, height, width)`` of {-1,+1} activations.
    kernels_bipolar:
        Array ``(out_channels, in_channels, k, k)`` of {-1,+1} weights.
    kernel:
        Matmul kernel: ``"auto"``, ``"blas"``, ``"packed"`` or ``"reference"``.

    Returns
    -------
    numpy.ndarray
        Integer array ``(batch, out_channels, out_h, out_w)``.
    """
    kernels_bipolar = np.asarray(kernels_bipolar)
    if kernels_bipolar.ndim != 4:
        raise ValueError("kernels must be 4-D (out_c, in_c, k, k)")
    out_channels, in_channels, k_h, k_w = kernels_bipolar.shape
    if k_h != k_w:
        raise ValueError("only square kernels are supported")
    patches, out_h, out_w = im2col(
        images_bipolar, k_h, stride=stride, padding=padding, pad_value=-1
    )
    flat_kernels = kernels_bipolar.reshape(out_channels, in_channels * k_h * k_w)
    result = binary_matmul(patches, flat_kernels, kernel=kernel)
    batch = np.asarray(images_bipolar).shape[0]
    return result.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)


# --------------------------------------------------------------------------- #
# Packed activation tensors and fused layer kernels (batched inference path)
# --------------------------------------------------------------------------- #

def choose_matmul_kernel(num_rows: int, num_outputs: int, length: int) -> str:
    """Auto-select the matmul kernel from the operand sizes.

    Returns ``"blas"`` or ``"packed"``.  The decision is a measured size
    heuristic, not a model: one float32 BLAS product beats the byte-wise
    XOR+LUT popcount on this class of CPU for every operand above a few
    thousand MACs, so only tiny products (where both kernels cost single
    microseconds and the packed path needs 8x less workspace) dispatch to
    the packed kernel.  The boundary is the static
    :data:`repro.bnn.autotune.DISPATCH_MACS`; both kernels are
    bit-identical, so the boundary only ever affects speed.
    """
    if num_rows < 0 or num_outputs < 0 or length < 0:
        raise ValueError("operand sizes must be non-negative")
    macs = num_rows * num_outputs * length
    return "packed" if macs <= DISPATCH_MACS else "blas"


def _packed_width(bits: int) -> int:
    """Bytes needed to store ``bits`` packed bits."""
    return (bits + 7) // 8


@dataclass(frozen=True)
class PackedTensor:
    """A bipolar activation tensor kept bit-packed between layers.

    The unipolar encoding (``+1 -> 1``, ``-1 -> 0``) is packed 8 bits per
    byte with :func:`numpy.packbits` along one axis; the logical bipolar
    shape is retained as metadata so layers can reason about batch/channel
    extents without unpacking.

    Two layouts exist, selected by the rank of ``shape``:

    * logical ``(batch, features)`` — ``data`` is ``(batch, ceil(F/8))``
      with ``bit_length == features`` (linear-layer packing);
    * logical ``(batch, channels, height, width)`` — ``data`` is
      ``(batch, height, width, ceil(C/8))`` with ``bit_length == channels``
      (channel-last packing, so spatial windows slide over whole bytes and
      convolution never touches individual bits).

    The zero bits :func:`numpy.packbits` pads with encode bipolar ``-1`` —
    the same value the binary layers pad convolutions with — so padding
    cancels exactly in every XOR/popcount and GEMM below.
    """

    data: np.ndarray
    bit_length: int
    shape: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.data.dtype != np.uint8:
            raise TypeError("PackedTensor data must be uint8")
        if len(self.shape) == 2:
            batch, features = self.shape
            expected = (batch, _packed_width(features))
            if self.bit_length != features:
                raise ValueError("bit_length must equal the feature count")
        elif len(self.shape) == 4:
            batch, channels, height, width = self.shape
            expected = (batch, height, width, _packed_width(channels))
            if self.bit_length != channels:
                raise ValueError("bit_length must equal the channel count")
        else:
            raise ValueError(
                f"PackedTensor supports 2-D or 4-D logical shapes, got {self.shape}"
            )
        if tuple(self.data.shape) != expected:
            raise ValueError(
                f"data shape {self.data.shape} does not match logical shape "
                f"{self.shape} (expected {expected})"
            )

    @property
    def batch(self) -> int:
        """Number of samples in the tensor."""
        return self.shape[0]

    @classmethod
    def _from_bits(cls, bits: np.ndarray) -> "PackedTensor":
        """Pack a unipolar bit array in the layout its rank dictates."""
        if bits.ndim == 2:
            return cls(np.packbits(bits, axis=-1), bits.shape[1], bits.shape)
        if bits.ndim == 4:
            channel_last = np.ascontiguousarray(bits.transpose(0, 2, 3, 1))
            return cls(
                np.packbits(channel_last, axis=-1), bits.shape[1], bits.shape
            )
        raise ValueError(
            f"expected a 2-D or 4-D array, got shape {bits.shape}"
        )

    @classmethod
    def pack_signs(cls, dense: np.ndarray) -> "PackedTensor":
        """Binarise-and-pack an arbitrary real tensor in one pass.

        Equivalent to ``from_bipolar(binarize_sign(dense))`` (zero maps to
        bit 1, the BinaryConnect convention) but without materialising the
        bipolar intermediate or paying the value-validation scan — this is
        the packing entry point of the batched inference engine.
        """
        dense = np.asarray(dense)
        return cls._from_bits((dense >= 0).astype(np.uint8))

    @classmethod
    def from_bipolar(cls, bipolar: np.ndarray) -> "PackedTensor":
        """Pack a bipolar {-1,+1} array of shape (B, F) or (B, C, H, W)."""
        return cls._from_bits(to_unipolar(bipolar))

    def to_unipolar(self) -> np.ndarray:
        """Unpack to a unipolar {0,1} uint8 array in the logical shape."""
        bits = np.unpackbits(self.data, axis=-1, count=self.bit_length)
        if len(self.shape) == 4:
            return np.ascontiguousarray(bits.transpose(0, 3, 1, 2))
        return bits

    def to_bipolar(self) -> np.ndarray:
        """Unpack to a bipolar {-1,+1} int8 array in the logical shape."""
        bits = self.to_unipolar()
        return (bits.astype(np.int8) * 2 - 1).astype(np.int8)


@dataclass(frozen=True)
class PackedWeights:
    """Pre-packed binary weight operands consumed by the fused kernels.

    ``f32`` carries the bipolar rows as float32 (the BLAS operand; exact
    because every accumulator is an integer far below 2**24) and ``packed``
    the same rows bit-packed (the XOR+popcount operand).  For convolutions
    the rows are laid out in channel-last ``(k, k, C)`` order with the
    per-position byte padding matching :class:`PackedTensor` windows, and
    ``bit_length`` is the *logical* vector length ``C * k * k``.
    """

    f32: np.ndarray
    packed: np.ndarray
    bit_length: int

    @property
    def num_outputs(self) -> int:
        """Number of weight rows (output neurons / channels)."""
        return self.f32.shape[0]


def pack_linear_weights(weights_bipolar: np.ndarray) -> PackedWeights:
    """Pack the (n_outputs, in_features) bipolar rows of a linear layer."""
    weights = np.asarray(weights_bipolar)
    if weights.ndim != 2:
        raise ValueError("linear weights must be 2-D (n_outputs, in_features)")
    bits = to_unipolar(weights)
    return PackedWeights(
        f32=weights.astype(np.float32),
        packed=np.packbits(bits, axis=-1),
        bit_length=weights.shape[1],
    )


def pack_conv_weights(kernels_bipolar: np.ndarray) -> PackedWeights:
    """Pack the (out_c, in_c, k, k) bipolar kernels of a conv layer.

    Rows are flattened in channel-last ``(k, k, C)`` order so they line up
    with the byte windows a channel-packed :class:`PackedTensor` produces.
    """
    kernels = np.asarray(kernels_bipolar)
    if kernels.ndim != 4:
        raise ValueError("conv kernels must be 4-D (out_c, in_c, k, k)")
    out_channels, in_channels, k_h, k_w = kernels.shape
    if k_h != k_w:
        raise ValueError("only square kernels are supported")
    channel_last = np.ascontiguousarray(kernels.transpose(0, 2, 3, 1))
    bits = to_unipolar(channel_last)
    packed = np.packbits(bits, axis=-1).reshape(out_channels, -1)
    return PackedWeights(
        f32=channel_last.reshape(out_channels, -1).astype(np.float32),
        packed=packed,
        bit_length=in_channels * k_h * k_w,
    )


#: comparison codes of :class:`SignSpec`
SIGN_GE = 0   #: bit = (x >= threshold)   — batch-norm scale > 0 (or no BN)
SIGN_LE = 1   #: bit = (x <= threshold)   — batch-norm scale < 0
SIGN_CONST = 2  #: bit = constant          — batch-norm scale == 0


@dataclass(frozen=True)
class SignSpec:
    """Per-output-channel integer decision rules for a fused sign.

    Inference-mode batch-norm followed by ``sign`` is a monotone function
    of the integer popcount output per channel, so it folds into a single
    integer comparison: ``mode`` selects the comparison direction per
    channel, ``threshold`` the integer boundary, ``constant`` the fixed bit
    for channels whose batch-norm scale is exactly zero.
    """

    mode: np.ndarray       #: int8 per channel, one of SIGN_GE/SIGN_LE/SIGN_CONST
    threshold: np.ndarray  #: int64 per channel
    constant: np.ndarray   #: uint8 per channel (used where mode == SIGN_CONST)

    def __post_init__(self) -> None:
        if not (self.mode.shape == self.threshold.shape == self.constant.shape):
            raise ValueError("SignSpec arrays must share one (channels,) shape")
        if self.mode.ndim != 1:
            raise ValueError("SignSpec arrays must be 1-D")

    @property
    def num_channels(self) -> int:
        """Number of output channels the spec covers."""
        return self.mode.shape[0]

    @classmethod
    def plain(cls, num_channels: int) -> "SignSpec":
        """The bare ``sign(x)`` rule (bit = x >= 0) for every channel."""
        return cls(
            mode=np.zeros(num_channels, dtype=np.int8),
            threshold=np.zeros(num_channels, dtype=np.int64),
            constant=np.zeros(num_channels, dtype=np.uint8),
        )


def apply_sign_spec(accumulators: np.ndarray, spec: SignSpec) -> np.ndarray:
    """Evaluate a :class:`SignSpec` on (rows, channels) integer accumulators.

    Returns the uint8 bit matrix (1 encodes bipolar +1).
    """
    if accumulators.ndim != 2 or accumulators.shape[1] != spec.num_channels:
        raise ValueError(
            f"accumulators must be (rows, {spec.num_channels}), "
            f"got shape {accumulators.shape}"
        )
    if np.all(spec.mode == SIGN_GE):
        # by far the common case (positive batch-norm scales): one compare
        return (accumulators >= spec.threshold).astype(np.uint8)
    ge_bits = accumulators >= spec.threshold
    le_bits = accumulators <= spec.threshold
    bits = np.where(
        spec.mode == SIGN_GE, ge_bits,
        np.where(spec.mode == SIGN_LE, le_bits, spec.constant.astype(bool)),
    )
    return bits.astype(np.uint8)


def inject_bit_flips(bits: np.ndarray, flip_rate: float,
                     rng: Optional[np.random.Generator]) -> np.ndarray:
    """Flip each bit independently with probability ``flip_rate``.

    Models a crossbar read returning a wrong popcount: the functional
    effect on the binarised activation is a flipped sign bit.  A zero rate
    (or no generator) returns ``bits`` unchanged.
    """
    if flip_rate < 0 or flip_rate > 1:
        raise ValueError(f"flip_rate must be in [0, 1], got {flip_rate!r}")
    if flip_rate == 0.0 or rng is None:
        return bits
    mask = rng.random(bits.shape) < flip_rate
    return bits ^ mask.astype(np.uint8)


def _packed_accumulate(patches_f32: Optional[np.ndarray],
                       patches_packed: Optional[np.ndarray],
                       weights: PackedWeights, kernel: str) -> np.ndarray:
    """Shared matmul core of the fused kernels.

    Exactly one of ``patches_f32`` / ``patches_packed`` is consulted,
    depending on ``kernel``.  Returns the integer-valued bipolar products
    as the dtype the kernel naturally produces (float32 for BLAS).
    """
    if kernel == "blas":
        return patches_f32 @ weights.f32.T
    mismatches = packed_mismatches(patches_packed, weights.packed)
    return weights.bit_length - 2 * mismatches


def fused_matmul_sign(x: PackedTensor, weights: PackedWeights,
                      sign: Optional[SignSpec] = None, *,
                      kernel: str = "auto", flip_rate: float = 0.0,
                      rng: Optional[np.random.Generator] = None):
    """Fused ``matmul -> sign`` on a packed (batch, features) activation.

    With a :class:`SignSpec` the result is a :class:`PackedTensor` of shape
    ``(batch, n_outputs)`` — the activations never materialise densely.
    Without one the integer pre-activations are returned as an int64 array
    (the caller continues on the dense path, e.g. into a full-precision
    output layer).
    """
    if len(x.shape) != 2:
        raise ValueError(f"fused_matmul_sign expects a 2-D activation, got {x.shape}")
    if x.bit_length != weights.bit_length:
        raise ValueError(
            f"vector length mismatch: activations {x.bit_length} vs "
            f"weights {weights.bit_length}"
        )
    if kernel == "auto":
        kernel = choose_matmul_kernel(x.batch, weights.num_outputs, x.bit_length)
    if kernel == "blas":
        bipolar = np.unpackbits(
            x.data, axis=-1, count=x.bit_length
        ).astype(np.float32)
        bipolar *= 2.0
        bipolar -= 1.0
        acc = _packed_accumulate(bipolar, None, weights, "blas")
    elif kernel == "packed":
        acc = _packed_accumulate(None, x.data, weights, "packed")
    else:
        raise ValueError(f"unknown fused kernel {kernel!r}; choose 'auto', "
                         f"'blas' or 'packed'")
    if sign is None:
        return np.rint(acc).astype(np.int64)
    bits = apply_sign_spec(acc, sign)
    bits = inject_bit_flips(bits, flip_rate, rng)
    out_features = weights.num_outputs
    return PackedTensor(
        np.packbits(bits, axis=-1), out_features, (x.batch, out_features)
    )


def fused_conv2d_sign(x: PackedTensor, weights: PackedWeights,
                      kernel_size: int, sign: Optional[SignSpec] = None, *,
                      stride: int = 1, padding: int = 0,
                      kernel: str = "auto", flip_rate: float = 0.0,
                      rng: Optional[np.random.Generator] = None):
    """Fused ``conv2d -> sign`` on a channel-packed (B, C, H, W) activation.

    Spatial padding pads the packed bytes with zeros — the unipolar
    encoding of bipolar ``-1``, exactly the dense path's ``pad_value=-1``.
    With a :class:`SignSpec` the output is the channel-packed
    :class:`PackedTensor` of logical shape ``(B, out_c, out_h, out_w)``;
    without one the integer pre-activations come back as a dense int64
    array in that shape.
    """
    if len(x.shape) != 4:
        raise ValueError(f"fused_conv2d_sign expects a 4-D activation, got {x.shape}")
    batch, channels, height, width = x.shape
    if weights.bit_length != channels * kernel_size * kernel_size:
        raise ValueError(
            f"weight vector length {weights.bit_length} does not match "
            f"{channels} channels x {kernel_size}x{kernel_size} kernel"
        )
    data = x.data
    if padding > 0:
        data = np.pad(
            data, ((0, 0), (padding, padding), (padding, padding), (0, 0))
        )
    padded_h = height + 2 * padding
    padded_w = width + 2 * padding
    out_h = (padded_h - kernel_size) // stride + 1
    out_w = (padded_w - kernel_size) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {kernel_size} with stride {stride} does not fit "
            f"input of size {padded_h}x{padded_w}"
        )
    num_rows = batch * out_h * out_w
    if kernel == "auto":
        kernel = choose_matmul_kernel(
            num_rows, weights.num_outputs, weights.bit_length
        )
    if kernel == "blas":
        # bipolar int8 in place (0/1 -> -1/+1); the strided window gather
        # then moves 1-byte elements and the float32 conversion runs on
        # contiguous blocks — measurably faster than gathering float32
        bipolar = np.unpackbits(data, axis=-1, count=channels).view(np.int8)
        bipolar <<= 1
        bipolar -= 1
        windows = np.lib.stride_tricks.sliding_window_view(
            bipolar, (kernel_size, kernel_size), axis=(1, 2)
        )[:, ::stride, ::stride]
        # (B, OH, OW, C, k, k) -> rows in the weights' (k, k, C) order;
        # gather + convert + GEMM per cache-sized row block so the patch
        # workspace never leaves cache (per-image at most)
        transposed = windows.transpose(0, 1, 2, 4, 5, 3)
        row_length = weights.bit_length
        rows_per_block = max(1, CONV_BLOCK_BYTES // (row_length * 4))
        oh_per_block = max(1, rows_per_block // out_w)
        acc = np.empty((num_rows, weights.num_outputs), dtype=np.float32)
        weights_t = weights.f32.T
        for image in range(batch):
            for oh_start in range(0, out_h, oh_per_block):
                oh_stop = min(out_h, oh_start + oh_per_block)
                block = np.ascontiguousarray(
                    transposed[image, oh_start:oh_stop]
                ).reshape(-1, row_length).astype(np.float32)
                row_start = (image * out_h + oh_start) * out_w
                acc[row_start:row_start + block.shape[0]] = block @ weights_t
    elif kernel == "packed":
        windows = np.lib.stride_tricks.sliding_window_view(
            data, (kernel_size, kernel_size), axis=(1, 2)
        )[:, ::stride, ::stride]
        # (B, OH, OW, nbytes, k, k) -> (k, k, nbytes) byte rows, matching the
        # per-position padding of pack_conv_weights so padding bits cancel;
        # the row width is spelled out (not -1) so zero-row batches
        # reshape unambiguously
        patches = windows.transpose(0, 1, 2, 4, 5, 3).reshape(
            num_rows, kernel_size * kernel_size * data.shape[-1])
        patches = np.ascontiguousarray(patches)
        acc = _packed_accumulate(None, patches, weights, "packed")
    else:
        raise ValueError(f"unknown fused kernel {kernel!r}; choose 'auto', "
                         f"'blas' or 'packed'")
    out_channels = weights.num_outputs
    if sign is None:
        dense = np.rint(acc).astype(np.int64)
        return dense.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    bits = apply_sign_spec(acc, sign)
    bits = inject_bit_flips(bits, flip_rate, rng)
    packed = np.packbits(bits.reshape(batch, out_h, out_w, out_channels), axis=-1)
    return PackedTensor(packed, out_channels, (batch, out_channels, out_h, out_w))


def packed_maxpool2d(x: PackedTensor, kernel_size: int, stride: int) -> PackedTensor:
    """Max pooling on a channel-packed activation via bytewise OR.

    Over bipolar signs ``max == OR`` of the unipolar bits, so the pool
    reduces whole bytes without unpacking; channel padding bits stay zero.
    """
    if len(x.shape) != 4:
        raise ValueError(f"packed_maxpool2d expects a 4-D activation, got {x.shape}")
    batch, channels, height, width = x.shape
    out_h = (height - kernel_size) // stride + 1
    out_w = (width - kernel_size) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"pool window {kernel_size} with stride {stride} does not fit "
            f"input of size {height}x{width}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(
        x.data, (kernel_size, kernel_size), axis=(1, 2)
    )[:, ::stride, ::stride]
    # the window extent is spelled out (not -1) so zero-row batches
    # reshape unambiguously
    pooled = np.bitwise_or.reduce(
        windows.reshape(batch, out_h, out_w, x.data.shape[-1],
                        kernel_size * kernel_size),
        axis=-1,
    )
    return PackedTensor(pooled, channels, (batch, channels, out_h, out_w))


def packed_flatten(x: PackedTensor) -> PackedTensor:
    """Flatten a channel-packed (B, C, H, W) activation to (B, C*H*W).

    The dense :class:`~repro.bnn.layers.Flatten` ravels in (C, H, W) order,
    so the bits are unpacked, reordered channel-major and repacked — a
    byte-level shuffle on what is by this point a small tensor.
    """
    if len(x.shape) == 2:
        return x
    batch, channels, height, width = x.shape
    bits = x.to_unipolar().reshape(batch, channels * height * width)
    return PackedTensor(
        np.packbits(bits, axis=-1), bits.shape[1], (batch, bits.shape[1])
    )
