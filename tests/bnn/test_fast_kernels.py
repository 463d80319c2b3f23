"""Equivalence tests: vectorised/bit-packed kernels vs the loop oracles.

The fast paths (`im2col`, the BLAS and packed `binary_matmul` kernels, the
batched `binary_conv2d`) must match the retained reference implementations
bit-for-bit on every shape — Eq. 1 is exact integer arithmetic, so any
deviation is a bug, not a tolerance question.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn import xnor_ops
from repro.bnn.layers import MaxPool2d
from repro.bnn.xnor_ops import (
    binary_conv2d,
    binary_conv2d_reference,
    binary_matmul,
    binary_matmul_packed,
    binary_matmul_reference,
    im2col,
    im2col_reference,
    pack_bipolar,
    packed_mismatches,
)


def _random_bipolar(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1, 1).astype(np.int8)


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 3),
    channels=st.integers(1, 4),
    height=st.integers(3, 9),
    width=st.integers(3, 9),
    kernel_size=st.integers(1, 3),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_im2col_matches_reference(batch, channels, height, width, kernel_size,
                                  stride, padding, seed):
    rng = np.random.default_rng(seed)
    images = _random_bipolar(rng, (batch, channels, height, width))
    fast, fast_h, fast_w = im2col(images, kernel_size, stride=stride,
                                  padding=padding)
    ref, ref_h, ref_w = im2col_reference(images, kernel_size, stride=stride,
                                         padding=padding)
    assert (fast_h, fast_w) == (ref_h, ref_w)
    assert np.array_equal(fast, ref)


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 6),
    length=st.integers(1, 70),
    outputs=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_matmul_kernels_match_reference(batch, length, outputs, seed):
    rng = np.random.default_rng(seed)
    inputs = _random_bipolar(rng, (batch, length))
    weights = _random_bipolar(rng, (outputs, length))
    reference = binary_matmul_reference(inputs, weights)
    assert np.array_equal(reference, inputs.astype(np.int64) @ weights.T)
    assert np.array_equal(reference, binary_matmul_packed(inputs, weights))
    for kernel in ("auto", "blas", "packed", "reference"):
        assert np.array_equal(
            reference, binary_matmul(inputs, weights, kernel=kernel)
        ), kernel


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(1, 2),
    in_channels=st.integers(1, 3),
    out_channels=st.integers(1, 4),
    extent=st.integers(3, 7),
    kernel_size=st.integers(1, 3),
    stride=st.integers(1, 2),
    padding=st.integers(0, 1),
    seed=st.integers(0, 2**16),
)
def test_conv2d_kernels_match_loop_reference(batch, in_channels, out_channels,
                                             extent, kernel_size, stride,
                                             padding, seed):
    rng = np.random.default_rng(seed)
    images = _random_bipolar(rng, (batch, in_channels, extent, extent))
    kernels = _random_bipolar(rng, (out_channels, in_channels,
                                    kernel_size, kernel_size))
    reference = binary_conv2d_reference(images, kernels, stride=stride,
                                        padding=padding)
    for kernel in ("blas", "packed", "reference"):
        fast = binary_conv2d(images, kernels, stride=stride, padding=padding,
                             kernel=kernel)
        assert np.array_equal(reference, fast), kernel


def test_pack_bipolar_pads_to_whole_bytes():
    packed, length = pack_bipolar(np.array([[1, -1, 1]], dtype=np.int8))
    assert length == 3
    assert packed.shape == (1, 1)
    # 101 padded with five zero bits -> 0b10100000
    assert packed[0, 0] == 0b10100000


#: rows of ``a`` that span several XOR workspace blocks against 300 rows
#: of 1000 bits (16 words each)
_MULTI_BLOCK_ROWS = 2 * (xnor_ops._PACKED_BLOCK_BYTES // (300 * 16 * 8)) + 3


@pytest.mark.parametrize("rows,cols,bits", [
    # byte widths that are and are not whole 8-byte words
    *((5, 4, bits) for bits in (1, 7, 8, 9, 37, 63, 64, 65, 500, 1000,
                                1500, 2000)),
    (0, 4, 37), (5, 0, 37), (0, 0, 2000),
    (_MULTI_BLOCK_ROWS, 300, 1000),
])
def test_packed_mismatches_is_hamming_distance(rows, cols, bits):
    rng = np.random.default_rng(7)
    a = _random_bipolar(rng, (rows, bits))
    b = _random_bipolar(rng, (cols, bits))
    a_packed, _ = pack_bipolar(a)
    b_packed, _ = pack_bipolar(b)
    distances = packed_mismatches(a_packed, b_packed)
    expected = (a[:, None, :] != b[None, :, :]).sum(axis=-1)
    assert distances.dtype == np.int64
    assert np.array_equal(distances, expected)


def test_packed_mismatches_counts_past_the_uint16_range():
    # every bit differs, so each distance is the full length
    bits = 70_000
    a_packed, _ = pack_bipolar(np.ones((2, bits), dtype=np.int8))
    b_packed, _ = pack_bipolar(-np.ones((3, bits), dtype=np.int8))
    assert np.array_equal(packed_mismatches(a_packed, b_packed),
                          np.full((2, 3), bits))


def test_packed_mismatches_rejects_unequal_word_widths():
    with pytest.raises(ValueError, match="width mismatch"):
        packed_mismatches(np.zeros((2, 8), dtype=np.uint8),
                          np.zeros((2, 9), dtype=np.uint8))


def test_kernels_agree_on_empty_batch():
    empty = np.empty((0, 8), dtype=np.int8)
    weights = np.ones((3, 8), dtype=np.int8)
    for kernel in ("auto", "blas", "packed", "reference"):
        out = binary_matmul(empty, weights, kernel=kernel)
        assert out.shape == (0, 3), kernel


def test_unknown_kernel_rejected():
    ones = np.ones((1, 4), dtype=np.int8)
    with pytest.raises(ValueError, match="unknown kernel"):
        binary_matmul(ones, ones, kernel="simd")


def test_maxpool_backward_matches_loop_scatter():
    """Vectorised scatter-add backward equals the per-pixel loop, including
    overlapping windows (stride < kernel) where one input feeds several
    outputs."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 6, 6))
    pool = MaxPool2d(kernel_size=3, stride=2)
    pool.train()
    out = pool.forward(x)
    grad = rng.normal(size=out.shape)
    got = pool.backward(grad)

    argmax, input_shape = pool._cache
    expected = np.zeros(input_shape)
    k, s = pool.kernel_size, pool.stride
    for b in range(grad.shape[0]):
        for c in range(grad.shape[1]):
            for row in range(grad.shape[2]):
                for col in range(grad.shape[3]):
                    dr, dc = divmod(int(argmax[b, c, row, col]), k)
                    expected[b, c, row * s + dr, col * s + dc] += grad[b, c, row, col]
    assert np.allclose(got, expected)
