"""Tests for the static kernel-dispatch parameters.

The contract under test: :func:`repro.bnn.autotune.get_params` reports
the fixed constants the kernels actually use, with ``source ==
"defaults"`` (and the attribute names the benchmark reads),
:func:`repro.bnn.xnor_ops.choose_matmul_kernel` switches from the packed
kernel to BLAS exactly one row above ``PACKED_MAX_ROWS``, whatever the
other operand sizes are, and the BLAS conv takes Winograd exactly on the
3x3 stride-1 layers with at least ``WINOGRAD_MIN_CHANNELS`` input channels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bnn import autotune, xnor_ops
from repro.bnn.model import InferenceEngine
from repro.bnn.networks import build_network


def test_get_params_reports_the_static_constants():
    params = autotune.get_params()
    assert params == autotune.AutotuneParams(
        packed_max_rows=8, conv_block_bytes=4 << 20,
        winograd_min_channels=64, source="defaults")
    assert params.packed_max_rows == autotune.PACKED_MAX_ROWS
    assert params.conv_block_bytes == autotune.CONV_BLOCK_BYTES
    assert params.winograd_min_channels == autotune.WINOGRAD_MIN_CHANNELS
    # the three attributes the benchmark's engine report reads
    assert params.dispatch_macs is None
    assert params.source == "defaults"


#: (num_outputs, length) pairs from degenerate to far beyond any network
SHAPES = ((0, 0), (1, 1), (16, 16), (250, 500), (1500, 2000), (512, 4096),
          (4096, 1 << 20))


def test_choose_matmul_kernel_switches_at_the_boundary():
    rows = autotune.PACKED_MAX_ROWS
    for num_outputs, length in SHAPES:
        for num_rows in range(rows + 1):
            assert xnor_ops.choose_matmul_kernel(
                num_rows, num_outputs, length) == "packed"
        for num_rows in (rows + 1, rows + 2, 32, 1 << 16):
            assert xnor_ops.choose_matmul_kernel(
                num_rows, num_outputs, length) == "blas"


@pytest.mark.parametrize("name,im2col,winograd", [
    # CNN-S: one binary 5x5 conv (its first conv is full precision)
    ("CNN-S", {(6, 16, 5)}, set()),
    # CNN-M: the 32-channel layers stay on im2col, 64->64 takes Winograd
    ("CNN-M", {(32, 32, 3), (32, 64, 3)}, {(64, 64, 3)}),
    # CNN-L: every binary conv has >= 128 input channels
    ("CNN-L", set(), {(128, 128, 3), (128, 256, 3), (256, 256, 3),
                      (256, 512, 3), (512, 512, 3)}),
])
def test_conv_formulation_follows_the_static_rule(monkeypatch, name, im2col,
                                                  winograd):
    seen = {"im2col": set(), "winograd": set()}
    real_im2col, real_winograd = xnor_ops._conv_im2col, xnor_ops._conv_winograd

    def spy_im2col(data, channels, weights, kernel_size, *args):
        seen["im2col"].add((channels, weights.num_outputs, kernel_size))
        return real_im2col(data, channels, weights, kernel_size, *args)

    def spy_winograd(data, channels, weights, *args):
        seen["winograd"].add((channels, weights.num_outputs, 3))
        return real_winograd(data, channels, weights, *args)

    monkeypatch.setattr(xnor_ops, "_conv_im2col", spy_im2col)
    monkeypatch.setattr(xnor_ops, "_conv_winograd", spy_winograd)
    model = build_network(name)
    model.eval()
    x = np.random.default_rng(0).uniform(-1, 1, size=(2, *model.input_shape))
    InferenceEngine(model).forward_batch(x, batch_size=2)
    assert seen == {"im2col": im2col, "winograd": winograd}


def test_winograd_rule_needs_3x3_stride_1_and_enough_channels():
    floor = autotune.WINOGRAD_MIN_CHANNELS
    assert xnor_ops._winograd_applies(3, 1, floor)
    assert xnor_ops._winograd_applies(3, 1, 512)
    assert not xnor_ops._winograd_applies(3, 1, floor - 1)
    assert not xnor_ops._winograd_applies(3, 2, 512)
    assert not xnor_ops._winograd_applies(5, 1, 512)
    assert not xnor_ops._winograd_applies(1, 1, 512)
    # past the float32 exactness bound the rule falls back to im2col
    assert xnor_ops._winograd_applies(3, 1, 51_781)
    assert not xnor_ops._winograd_applies(3, 1, 51_782)
