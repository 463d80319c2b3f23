"""Static kernel-dispatch parameters of the packed engine.

Two size constants steer :mod:`repro.bnn.xnor_ops`: the row count up to
which :func:`~repro.bnn.xnor_ops.choose_matmul_kernel` picks the packed
XNOR/popcount kernel over BLAS, and the float32 patch-block budget of the
fused conv kernel.  Both kernels are bit-identical, so these numbers only
ever affect speed.  They are fixed, read off a microbenchmark table rather
than timed at run time: wall-clock probes on a shared host return noise
(three runs in a row of the retired MAC-count probe gave boundaries of
131072, 512 and 512 MACs), and a fixed mapping is also how the paper's
accelerator gets its parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Row-count boundary of :func:`repro.bnn.xnor_ops.choose_matmul_kernel`:
#: products over at most this many activation rows run on the packed
#: operands.  A small product is bound by reading the weights, which the
#: packed kernel reads as uint64 words (32x fewer bytes than float32);
#: a large one amortises the float32 weight read over many rows, where
#: BLAS's arithmetic rate wins.  Median ms per ``fused_matmul_sign`` call
#: on MLP-L's binary layers, BLAS / packed, one BLAS thread, 2-vCPU x86
#: host:
#:
#: ========== =========== =========== =========== ===========
#: layer      1 row       8 rows      16 rows     32 rows
#: ========== =========== =========== =========== ===========
#: 2000->1500 0.62 / 0.19 2.65 / 0.90 3.53 / 2.47 4.68 / 4.65
#: 1500->1000 0.30 / 0.09 1.22 / 0.56 1.44 / 1.13 2.14 / 2.64
#: 1000->500  0.07 / 0.04 0.52 / 0.26 0.59 / 0.50 0.76 / 0.96
#: ========== =========== =========== =========== ===========
#:
#: The crossover sits between 16 and 32 rows and moves with the host;
#: 8 keeps a 2x margin below it.
PACKED_MAX_ROWS = 8

#: float32 patch-block budget (bytes) of the fused conv kernel: the
#: gather/convert/GEMM pipeline runs per block of output rows so the patch
#: workspace stays cache-resident (~1.5x faster than one whole-batch
#: patch matrix).
CONV_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class AutotuneParams:
    """The kernel-dispatch parameters plus their provenance."""

    packed_max_rows: int
    conv_block_bytes: int
    source: str

    @property
    def dispatch_macs(self) -> None:
        """The retired MAC-count boundary; always ``None`` (rows decide)."""
        return None


def get_params() -> AutotuneParams:
    """The engine's kernel-dispatch parameters (always the static ones)."""
    return AutotuneParams(PACKED_MAX_ROWS, CONV_BLOCK_BYTES, "defaults")
