"""Tests for the static kernel-dispatch parameters.

The contract under test: :func:`repro.bnn.autotune.get_params` reports
the fixed constants the kernels actually use, with ``source ==
"defaults"`` (and the attribute names the benchmark reads), and
:func:`repro.bnn.xnor_ops.choose_matmul_kernel` switches from the packed
kernel to BLAS exactly one row above ``PACKED_MAX_ROWS``, whatever the
other operand sizes are.
"""

from __future__ import annotations

from repro.bnn import autotune, xnor_ops


def test_get_params_reports_the_static_constants():
    params = autotune.get_params()
    assert params == autotune.AutotuneParams(
        packed_max_rows=8, conv_block_bytes=4 << 20, source="defaults")
    assert params.packed_max_rows == autotune.PACKED_MAX_ROWS
    assert params.conv_block_bytes == autotune.CONV_BLOCK_BYTES
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
