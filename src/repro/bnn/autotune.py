"""Static kernel-dispatch parameters of the packed engine.

Three size constants steer :mod:`repro.bnn.xnor_ops`: the row count up
to which :func:`~repro.bnn.xnor_ops.choose_matmul_kernel` picks the packed
XNOR/popcount kernel over BLAS, the float32 patch-block budget of the
im2col conv, and the input-channel count from which a 3x3 stride-1 conv
runs as Winograd F(2x2,3x3) instead of im2col.  Every choice they steer
is bit-identical, so these numbers only ever affect speed.  They are
fixed, read off a microbenchmark table rather than timed at run time:
wall-clock probes on a shared host return noise (three runs in a row of
the retired MAC-count probe gave boundaries of 131072, 512 and 512 MACs),
and a fixed mapping is also how the paper's accelerator gets its
parallelism.
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

#: float32 patch-block budget (bytes) of the im2col conv: the
#: gather/convert/GEMM pipeline runs per block of output rows so the patch
#: workspace stays cache-resident (~1.5x faster than one whole-batch
#: patch matrix).
CONV_BLOCK_BYTES = 4 << 20

#: Smallest input-channel count at which a 3x3 stride-1 binary conv runs
#: as exact Winograd F(2x2,3x3) rather than as an im2col GEMM (see
#: :func:`repro.bnn.xnor_ops.fused_conv2d_sign`).  Winograd does 2.25x
#: fewer multiplies, but its input and output transforms are extra
#: passes over the activations that few channels do not amortise.  Median
#: ms per 32-image conv, im2col / Winograd, one BLAS thread, run alone
#: and as two concurrent calls (how ``forward_batch`` runs chunks on a
#: 2-vCPU host), 2-vCPU x86 host:
#:
#: =================== ============= =============
#: layer (C->O, H)     alone         two at once
#: =================== ============= =============
#: 32->32, 32          7.2 / 5.6     7.2 / 11.7
#: 32->64, 16          2.6 / 2.6     2.9 / 3.6
#: 64->64, 16          4.9 / 4.2     5.3 / 5.7
#: 128->128, 32        63.8 / 42.9   64.0 / 44.4
#: 256->256, 16        57.1 / 30.8   59.1 / 30.7
#: 512->512, 8         76.5 / 26.1   75.8 / 25.4
#: =================== ============= =============
#:
#: 32 channels lose up to 1.6x under two workers; at 64 the layer is
#: within 8% either way, and CNN-M's chunk-parallel ``forward_batch``
#: over 512 images reads the same with or without it (224 vs 221 ms);
#: from 128 channels Winograd wins 1.4-3x.
WINOGRAD_MIN_CHANNELS = 64


@dataclass(frozen=True)
class AutotuneParams:
    """The kernel-dispatch parameters plus their provenance."""

    packed_max_rows: int
    conv_block_bytes: int
    winograd_min_channels: int
    source: str

    @property
    def dispatch_macs(self) -> None:
        """The retired MAC-count boundary; always ``None`` (rows decide)."""
        return None


def get_params() -> AutotuneParams:
    """The engine's kernel-dispatch parameters (always the static ones)."""
    return AutotuneParams(PACKED_MAX_ROWS, CONV_BLOCK_BYTES,
                          WINOGRAD_MIN_CHANNELS, "defaults")
