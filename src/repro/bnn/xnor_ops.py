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
  (the accumulators stay far below 2**53).
* ``"packed"`` — the bit-parallel path: operands are packed 8 bits per byte
  with :func:`numpy.packbits`, each row zero-padded to whole 64-bit words,
  and mismatches are counted with :func:`numpy.bitwise_count` over the
  XORed ``uint64`` words — how a digital XNOR+Popcount engine (or the
  crossbar read-out) works on words rather than scalars.  Uses 8x less
  memory per operand than the unpacked encodings.
* ``"reference"`` — the original unipolar match-counting implementation
  (:func:`binary_matmul_reference`, retained verbatim, as is
  :func:`im2col_reference`).  :func:`binary_conv2d_reference` is a
  *newly written* per-scalar oracle used for equivalence testing and as a
  scalar-engine speedup baseline — it is not the implementation this
  module's fast paths replaced.

The default ``"auto"`` of the 2-D kernels is ``"blas"``.  The fused
inference kernels below dispatch ``"auto"`` through
:func:`choose_matmul_kernel`, a static row-count rule: products over a
handful of activation rows (serving flushes) are bound by reading the
weights and run on the packed words, larger ones (offline batches, conv
patch matrices) on float32 BLAS.  Sweeps that model the packed hardware
datapath can still opt into ``"packed"`` explicitly at any size.

The float32 BLAS conv has two formulations, chosen by a second static
rule on the layer's shape: 3x3 stride-1 convs over at least
:data:`repro.bnn.autotune.WINOGRAD_MIN_CHANNELS` input channels run as
Winograd's minimal filtering F(2x2,3x3) (Lavin & Gray, arXiv:1509.09308),
which does 2.25x fewer multiplies; every other conv runs as an im2col GEMM.
On bipolar operands, with the weight transform scaled to integers, every
Winograd intermediate is an integer of magnitude at most ``324 * C``.  Up
to ``C = 51,781`` input channels (:func:`winograd_exact`) that is below
2**24, so float32 computes it exactly in any summation order and both
formulations return the same accumulators bit for bit.

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

from repro.bnn.autotune import (
    CONV_BLOCK_BYTES,
    PACKED_MAX_ROWS,
    WINOGRAD_MIN_CHANNELS,
)
from repro.bnn.binarize import to_unipolar
from repro.utils.validation import check_binary, check_bipolar

#: byte budget of the (rows x outputs x words) uint64 XOR workspace the
#: packed kernel materialises per row block, keeping it cache-resident
_PACKED_BLOCK_BYTES = 1 << 20

#: tile rows per image block of the Winograd conv: each of its 16 GEMMs
#: re-reads a (C x O) weight slice per block, so a block holds whole
#: images up to this many 2x2 output tiles.  Median ms of one 32-image
#: ``_conv_winograd`` call at 1 / 2 / 4 / 8 / 16 / 32 images per block,
#: one BLAS thread, 2-vCPU x86 host (2 MB L2 per core):
#:
#: ===================== ==== ==== ==== ==== ==== ====
#: layer (tiles/image)   1    2    4    8    16   32
#: ===================== ==== ==== ==== ==== ==== ====
#: 64->64, H 16 (64)     4.8  4.0  4.2  5.8  6.2  7.0
#: 128->128, H 32 (256)  43.3 41.2 43.1 43.2 45.9 60.2
#: 256->256, H 16 (64)   44.4 38.3 32.3 30.4 33.2 32.2
#: 512->512, H 8 (16)    81.2 54.3 38.1 31.0 27.4 26.3
#: ===================== ==== ==== ==== ==== ==== ====
#:
#: A fixed byte budget misses both ends: the 512-channel layer is fastest
#: with 16-32 MB of transformed inputs and products per block, the
#: 64-channel one with 1 MB.  256 rows sits within 10% of every row's best.
_WINOGRAD_BLOCK_ROWS = 256


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


def _word_width(nbytes: int) -> int:
    """Bytes in ``nbytes`` rounded up to whole 8-byte words."""
    return -(-nbytes // 8) * 8


def _pad_to_words(packed: np.ndarray) -> np.ndarray:
    """Zero-pad (rows, nbytes) packed rows to a whole number of 8-byte words.

    Returns a C-contiguous uint8 array whose rows view as ``uint64``;
    already word-padded contiguous rows come back unchanged (no copy).
    """
    rows, nbytes = packed.shape
    width = _word_width(nbytes)
    if width == nbytes:
        return np.ascontiguousarray(packed, dtype=np.uint8)
    padded = np.zeros((rows, width), dtype=np.uint8)
    padded[:, :nbytes] = packed
    return padded


def packed_mismatches(a_packed: np.ndarray, b_packed: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between packed bit rows.

    ``a_packed`` is ``(n, nbytes)`` and ``b_packed`` is ``(m, nbytes)``
    uint8; the result is the ``(n, m)`` int64 matrix of set bits in
    ``a XOR b``.  Rows are zero-padded to whole 8-byte words (a no-op for
    rows stored word-padded, as :class:`PackedWeights` are), XORed as
    ``uint64`` words and counted with :func:`numpy.bitwise_count`, one
    cache-sized block of ``a`` rows at a time.

    Precondition: both operands must be packed from the *same* original bit
    length (as :func:`binary_matmul_packed` guarantees).  Only then does the
    zero padding added by :func:`numpy.packbits` and by the word padding
    line up and cancel in the XOR; equal widths alone cannot prove equal bit
    lengths, so rows packed from different lengths produce silently
    inflated distances.
    """
    if a_packed.ndim != 2 or b_packed.ndim != 2:
        raise ValueError("packed operands must be 2-D")
    if _word_width(a_packed.shape[1]) != _word_width(b_packed.shape[1]):
        raise ValueError(
            f"packed width mismatch: {a_packed.shape[1]} vs {b_packed.shape[1]}"
        )
    a_words = _pad_to_words(a_packed).view(np.uint64)
    b_words = _pad_to_words(b_packed).view(np.uint64)
    n, m = a_words.shape[0], b_words.shape[0]
    out = np.empty((n, m), dtype=np.int64)
    # the per-word counts sum faster in uint16 whenever no row can overflow it
    max_count = 64 * b_words.shape[1]
    sum_dtype = np.uint16 if max_count <= np.iinfo(np.uint16).max else np.int64
    block_rows = max(1, _PACKED_BLOCK_BYTES // max(1, b_words.nbytes))
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        xor = a_words[start:stop, None, :] ^ b_words[None, :, :]
        out[start:stop] = np.bitwise_count(xor).sum(axis=-1, dtype=sum_dtype)
    return out


def binary_matmul_packed(inputs_bipolar: np.ndarray,
                         weights_bipolar: np.ndarray) -> np.ndarray:
    """Bipolar matrix product on bit-packed operands (packbits + word popcount).

    Both operands are packed with :func:`numpy.packbits` and compared by
    :func:`packed_mismatches`.  With ``d`` mismatching bits out of ``L``,
    the bipolar dot product is ``L - 2 d`` — the XOR-domain restatement of
    Eq. 1.
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
    """Auto-select the fused kernel from the operand sizes.

    Returns ``"packed"`` iff ``num_rows`` is at most the static
    :data:`repro.bnn.autotune.PACKED_MAX_ROWS`, else ``"blas"``.  A
    product over a few rows (a serving flush) is bound by reading the
    weights, and the packed uint64 words are 32x smaller than the float32
    rows BLAS reads; over many rows (offline batches, conv patch matrices)
    BLAS's arithmetic rate wins.  ``num_outputs`` and ``length`` are
    validated but do not move the boundary.  Both kernels are
    bit-identical, so the rule only ever affects speed.
    """
    if num_rows < 0 or num_outputs < 0 or length < 0:
        raise ValueError("operand sizes must be non-negative")
    return "packed" if num_rows <= PACKED_MAX_ROWS else "blas"


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
    the same rows bit-packed (the XOR+popcount operand), zero-padded once
    to a whole number of 8-byte words so :func:`packed_mismatches` views
    them as ``uint64`` without a per-call copy.  For convolutions the rows
    are laid out in channel-last ``(k, k, C)`` order with the per-position
    byte padding matching :class:`PackedTensor` windows, and
    ``bit_length`` is the *logical* vector length ``C * k * k``.

    ``winograd`` is the Winograd F(2x2,3x3) operand of a 3x3 conv the
    static rule sends to Winograd (else ``None``): the integer transformed
    kernels ``U' = (2G) g (2G)^T`` as float32 ``(16, C, out_c)``, one
    ``(C, out_c)`` matrix per transform point.  It is built with the other
    operands, so the binary layers' weight cache holds and drops it with
    them.
    """

    f32: np.ndarray
    packed: np.ndarray
    bit_length: int
    winograd: Optional[np.ndarray] = None

    @property
    def num_outputs(self) -> int:
        """Number of weight rows (output neurons / channels)."""
        return self.f32.shape[0]


#: Winograd F(2x2,3x3) weight transform ``G`` doubled to integers, so
#: the transformed kernels ``U' = (2G) g (2G)^T = 4U`` are exact
_WINOGRAD_G2 = np.array([[2, 0, 0], [1, 1, 1], [1, -1, 1], [0, 0, 2]],
                        dtype=np.float32)

#: Winograd F(2x2,3x3) output transform ``A^T``, and ``A^T (x) A^T``,
#: which maps a tile's 16 transform points ``(xi, nu)`` to its 2x2
#: output positions ``(r, c)``
_WINOGRAD_AT = np.array([[1, 1, 1, 0], [0, 1, -1, -1]], dtype=np.float32)
_WINOGRAD_A = np.kron(_WINOGRAD_AT, _WINOGRAD_AT)


def winograd_exact(in_channels: int) -> bool:
    """Whether Winograd F(2x2,3x3) over ``in_channels`` is exact in float32.

    On bipolar operands the input transform is bounded by 4, the doubled
    weight transform by 9, the channel sum by ``36 * in_channels`` and the
    output transform by ``324 * in_channels``.  Every partial sum is an
    integer no larger than that, and float32 holds all integers below
    2**24 exactly, in any BLAS summation order.
    """
    return 324 * in_channels < 1 << 24


def _winograd_applies(kernel_size: int, stride: int, in_channels: int) -> bool:
    """The static rule of the ``"blas"`` conv: Winograd or im2col.

    3x3 stride-1 convs over at least
    :data:`repro.bnn.autotune.WINOGRAD_MIN_CHANNELS` input channels, within
    the exactness bound, take Winograd; every other conv takes im2col.
    """
    return (kernel_size == 3 and stride == 1
            and in_channels >= WINOGRAD_MIN_CHANNELS
            and winograd_exact(in_channels))


def pack_linear_weights(weights_bipolar: np.ndarray) -> PackedWeights:
    """Pack the (n_outputs, in_features) bipolar rows of a linear layer."""
    weights = np.asarray(weights_bipolar)
    if weights.ndim != 2:
        raise ValueError("linear weights must be 2-D (n_outputs, in_features)")
    bits = to_unipolar(weights)
    return PackedWeights(
        f32=weights.astype(np.float32),
        packed=_pad_to_words(np.packbits(bits, axis=-1)),
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
    winograd = None
    if _winograd_applies(k_h, 1, in_channels):
        # U' = (2G) g (2G)^T for every (in, out) kernel: kernel rows, then
        # columns, as (4 x 3) products over (k, k, in_c * out_c) operands
        g = np.ascontiguousarray(kernels.transpose(2, 3, 1, 0),
                                 dtype=np.float32).reshape(3, -1)
        rows = (_WINOGRAD_G2 @ g).reshape(4, 3, -1)
        winograd = (_WINOGRAD_G2 @ rows).reshape(16, in_channels, out_channels)
    return PackedWeights(
        f32=channel_last.reshape(out_channels, -1).astype(np.float32),
        packed=_pad_to_words(packed),
        bit_length=in_channels * k_h * k_w,
        winograd=winograd,
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


def _unpack_bipolar(data: np.ndarray, channels: int) -> np.ndarray:
    """Channel-packed bytes -> bipolar int8 ``(..., channels)`` (0/1 -> -1/+1).

    The convs' strided gathers then move 1-byte elements and the float32
    conversion runs on contiguous blocks — measurably faster than
    gathering float32.
    """
    bipolar = np.unpackbits(data, axis=-1, count=channels).view(np.int8)
    bipolar <<= 1
    bipolar -= 1
    return bipolar


def _conv_im2col(data: np.ndarray, channels: int, weights: PackedWeights,
                 kernel_size: int, stride: int, out_h: int,
                 out_w: int) -> np.ndarray:
    """im2col GEMM formulation of the ``"blas"`` conv kernel.

    ``data`` is the spatially padded channel-packed ``(B, H, W, nbytes)``
    activation; returns the ``(B * out_h * out_w, out_c)`` float32
    accumulators.
    """
    batch = data.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(
        _unpack_bipolar(data, channels), (kernel_size, kernel_size),
        axis=(1, 2),
    )[:, ::stride, ::stride]
    # (B, OH, OW, C, k, k) -> rows in the weights' (k, k, C) order;
    # gather + convert + GEMM per cache-sized row block so the patch
    # workspace never leaves cache (per-image at most)
    transposed = windows.transpose(0, 1, 2, 4, 5, 3)
    row_length = weights.bit_length
    rows_per_block = max(1, CONV_BLOCK_BYTES // (row_length * 4))
    oh_per_block = max(1, rows_per_block // out_w)
    acc = np.empty((batch * out_h * out_w, weights.num_outputs),
                   dtype=np.float32)
    weights_t = weights.f32.T
    for image in range(batch):
        for oh_start in range(0, out_h, oh_per_block):
            oh_stop = min(out_h, oh_start + oh_per_block)
            block = np.ascontiguousarray(
                transposed[image, oh_start:oh_stop]
            ).reshape(-1, row_length).astype(np.float32)
            row_start = (image * out_h + oh_start) * out_w
            acc[row_start:row_start + block.shape[0]] = block @ weights_t
    return acc


def _conv_winograd(data: np.ndarray, channels: int, weights: PackedWeights,
                   out_h: int, out_w: int) -> np.ndarray:
    """Winograd F(2x2,3x3) formulation of the ``"blas"`` 3x3 stride-1 conv.

    Same contract as :func:`_conv_im2col`.  Each 4x4 input tile ``d`` of
    the output's 2x2 tiles becomes ``V = B^T d B`` (strided slices of the
    bipolar int8 array, written into a float32 workspace), one stacked
    matmul contracts the channels at each of the 16 transform points
    against ``weights.winograd`` (``U' = 4U``), and ``A^T M A / 4`` gives
    the 2x2 outputs.  Every value is an integer below 2**24 (see
    :func:`winograd_exact`), so the result equals :func:`_conv_im2col`
    bit for bit.  Odd output extents pad one more bipolar ``-1`` row or
    column (packed zero bits) and crop.
    """
    batch = data.shape[0]
    tiles_h, tiles_w = -(-out_h // 2), -(-out_w // 2)
    extra_h = 2 * tiles_h + 2 - data.shape[1]
    extra_w = 2 * tiles_w + 2 - data.shape[2]
    if extra_h or extra_w:
        data = np.pad(data, ((0, 0), (0, extra_h), (0, extra_w), (0, 0)))
    bipolar = _unpack_bipolar(data, channels)
    operand = weights.winograd
    out_channels = operand.shape[2]
    tiles = tiles_h * tiles_w
    images_per_block = max(1, min(batch, -(-_WINOGRAD_BLOCK_ROWS // tiles)))
    rows = images_per_block * tiles
    v_full = np.empty((16, rows, channels), dtype=np.float32)
    m_full = np.empty((16, rows, out_channels), dtype=np.float32)
    y_full = np.empty((4, rows * out_channels), dtype=np.float32)
    acc = np.empty((batch, tiles_h, 2, tiles_w, 2, out_channels),
                   dtype=np.float32)
    for start in range(0, batch, images_per_block):
        stop = min(batch, start + images_per_block)
        n = stop - start
        d = bipolar[start:stop]
        v = v_full[:, :n * tiles]
        v_tiles = v.reshape(4, 4, n, tiles_h, tiles_w, channels)
        # B^T d B: rows of every tile, then columns, straight into float32
        r = [d[:, a:a + 2 * tiles_h:2] for a in range(4)]
        for xi, row in enumerate((r[0] - r[2], r[1] + r[2], r[2] - r[1],
                                  r[1] - r[3])):
            c = [row[:, :, b:b + 2 * tiles_w:2] for b in range(4)]
            out = v_tiles[xi]
            np.subtract(c[0], c[2], out=out[0])
            np.add(c[1], c[2], out=out[1])
            np.subtract(c[2], c[1], out=out[2])
            np.subtract(c[1], c[3], out=out[3])
        m = np.matmul(v, operand, out=m_full[:, :n * tiles])
        # A^T M A as one (4, 16) product over the 16 transform points (a
        # single pass over M); the scale by 1/4 is the copy from
        # (r, c, tile) order into image order
        y = np.matmul(_WINOGRAD_A, m.reshape(16, -1),
                      out=y_full[:, :n * tiles * out_channels])
        y = y.reshape(2, 2, n, tiles_h, tiles_w, out_channels)
        np.multiply(y.transpose(2, 3, 0, 4, 1, 5), 0.25, out=acc[start:stop])
    acc = acc.reshape(batch, 2 * tiles_h, 2 * tiles_w, out_channels)
    # crops the padding tile row / column of odd output extents
    return np.ascontiguousarray(acc[:, :out_h, :out_w]).reshape(
        -1, out_channels)


def fused_conv2d_sign(x: PackedTensor, weights: PackedWeights,
                      kernel_size: int, sign: Optional[SignSpec] = None, *,
                      stride: int = 1, padding: int = 0,
                      kernel: str = "auto", flip_rate: float = 0.0,
                      rng: Optional[np.random.Generator] = None):
    """Fused ``conv2d -> sign`` on a channel-packed (B, C, H, W) activation.

    Spatial padding pads the packed bytes with zeros — the unipolar
    encoding of bipolar ``-1``, exactly the dense path's ``pad_value=-1``.
    The ``"blas"`` kernel runs 3x3 stride-1 convs over at least
    :data:`~repro.bnn.autotune.WINOGRAD_MIN_CHANNELS` input channels (and
    within the :func:`winograd_exact` bound) as exact Winograd F(2x2,3x3)
    on ``weights.winograd``, every other conv as an im2col GEMM; the two
    give bit-identical accumulators, so sign rules, flip injection and the
    ``sign=None`` int64 path see the same values either way.
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
        if (weights.winograd is not None
                and _winograd_applies(kernel_size, stride, channels)):
            acc = _conv_winograd(data, channels, weights, out_h, out_w)
        else:
            acc = _conv_im2col(data, channels, weights, kernel_size, stride,
                               out_h, out_w)
    elif kernel == "packed":
        windows = np.lib.stride_tricks.sliding_window_view(
            data, (kernel_size, kernel_size), axis=(1, 2)
        )[:, ::stride, ::stride]
        # (B, OH, OW, nbytes, k, k) -> (k, k, nbytes) byte rows, matching the
        # per-position padding of pack_conv_weights so padding bits cancel
        # (packed_mismatches word-pads the rows); the row width is spelled
        # out (not -1) so zero-row batches reshape unambiguously
        patches = windows.transpose(0, 1, 2, 4, 5, 3).reshape(
            num_rows, kernel_size * kernel_size * data.shape[-1])
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
