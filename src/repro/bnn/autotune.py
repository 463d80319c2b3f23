"""Static kernel-dispatch parameters of the packed engine.

Two size constants steer :mod:`repro.bnn.xnor_ops`: the MAC-count
boundary below which :func:`~repro.bnn.xnor_ops.choose_matmul_kernel`
picks the packed XNOR/popcount kernel over BLAS, and the float32
patch-block budget of the fused conv kernel.  Both kernels are
bit-identical, so these numbers only ever affect speed.  They are fixed:
wall-clock probes of them on a shared host return noise (three runs in a
row gave dispatch boundaries of 131072, 512 and 512 MACs), and a fixed
mapping is also how the paper's accelerator gets its parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

#: MAC-count boundary of :func:`repro.bnn.xnor_ops.choose_matmul_kernel`.
#: The BLAS kernel is faster (often by 10-20x) for every product above a
#: few thousand MACs; below it the two are within measurement noise and
#: the packed operands use 8x less workspace, so packed gets the nod.
DISPATCH_MACS = 4096

#: float32 patch-block budget (bytes) of the fused conv kernel: the
#: gather/convert/GEMM pipeline runs per block of output rows so the patch
#: workspace stays cache-resident (~1.5x faster than one whole-batch
#: patch matrix).
CONV_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class AutotuneParams:
    """The kernel-dispatch parameters plus their provenance."""

    dispatch_macs: int
    conv_block_bytes: int
    source: str


def get_params() -> AutotuneParams:
    """The engine's kernel-dispatch parameters (always the static ones)."""
    return AutotuneParams(DISPATCH_MACS, CONV_BLOCK_BYTES, "defaults")
