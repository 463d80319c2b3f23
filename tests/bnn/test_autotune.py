"""Tests for the static kernel-dispatch parameters.

The contract under test: :func:`repro.bnn.autotune.get_params` reports
the fixed constants the kernels actually use, with ``source ==
"defaults"``, and :func:`repro.bnn.xnor_ops.choose_matmul_kernel`
switches from the packed kernel to BLAS exactly at the boundary.
"""

from __future__ import annotations

from repro.bnn import autotune, xnor_ops


def test_get_params_reports_the_static_constants():
    assert autotune.get_params() == autotune.AutotuneParams(
        dispatch_macs=4096, conv_block_bytes=4 << 20, source="defaults")
    assert autotune.get_params().dispatch_macs == autotune.DISPATCH_MACS
    assert autotune.get_params().conv_block_bytes == autotune.CONV_BLOCK_BYTES


def test_choose_matmul_kernel_switches_at_the_boundary():
    # 16 * 16 * 16 = 4096 MACs: packed at the boundary, BLAS one row above
    assert xnor_ops.choose_matmul_kernel(16, 16, 16) == "packed"
    assert xnor_ops.choose_matmul_kernel(17, 16, 16) == "blas"
