"""Sequential BNN model container and the batched packed inference engine.

:class:`BNNModel` chains layers, provides forward/backward passes, exposes
the binary layers (the ones the crossbar mappings accelerate), and produces a
human-readable summary that matches the per-layer workload extraction used by
the architecture simulators.

:class:`InferenceEngine` is the batched end-to-end inference path: it
compiles a model into a plan whose activations stay bit-packed *between*
binary layers (no per-layer pack/unpack round trips), folds every
inference-mode batch-norm + sign pair into exact integer thresholds on the
popcount outputs, and optionally injects per-popcount bit-flip errors so
accuracy-vs-read-noise curves come out of the same fast path.

The engine is also the compute substrate of the online serving layer
(:mod:`repro.serving`): one compiled engine stays alive for the lifetime of
the service and every micro-batch flush runs through
:meth:`InferenceEngine.forward_batch` — see the thread-safety notes on
:class:`InferenceEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bnn.layers import (
    BatchNorm,
    BinaryConv2d,
    BinaryLinear,
    Flatten,
    Layer,
    MaxPool2d,
    SignActivation,
)
from repro.bnn.pipeline import StreamingPipeline, chunk_workers
from repro.bnn.xnor_ops import (
    PackedTensor,
    SIGN_CONST,
    SIGN_GE,
    SIGN_LE,
    SignSpec,
)
from repro.utils.rng import derive_seed, make_rng


class BNNModel:
    """A simple sequential container of :class:`~repro.bnn.layers.Layer`.

    Parameters
    ----------
    layers:
        Layers applied in order.
    name:
        Network name used in reports (e.g. ``"MLP-L"``).
    input_shape:
        Per-sample input shape, e.g. ``(784,)`` for MNIST MLPs or
        ``(3, 32, 32)`` for CIFAR-10 CNNs.
    """

    def __init__(self, layers: Sequence[Layer], *, name: str,
                 input_shape: Tuple[int, ...]) -> None:
        if not layers:
            raise ValueError("a model needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.name = str(name)
        self.input_shape = tuple(int(d) for d in input_shape)

    # ------------------------------------------------------------------ #
    # Inference / training passes
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the full forward pass on a batch."""
        out = np.asarray(x)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    __call__ = forward

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad`` through every layer (training mode only)."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Return the arg-max class index for each sample in ``x``."""
        logits = self.forward(x)
        return np.argmax(logits, axis=1)

    def predict_batch(self, x: np.ndarray, *, batch_size: int = 256,
                      **engine_kwargs) -> np.ndarray:
        """Arg-max predictions through the batched packed inference path.

        Convenience wrapper building a one-shot :class:`InferenceEngine`;
        construct the engine directly when running many batches so the
        compiled plan and weight packs are reused.  Note the engine switches
        the model to eval mode (unlike :meth:`predict`) — call
        :meth:`train` again before resuming a training loop.
        """
        engine = InferenceEngine(self, **engine_kwargs)
        return engine.predict_batch(x, batch_size=batch_size)

    def train(self) -> None:
        """Put every layer into training mode."""
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        """Put every layer into inference mode."""
        for layer in self.layers:
            layer.eval()

    # ------------------------------------------------------------------ #
    # Introspection helpers used by the mappers and timing models
    # ------------------------------------------------------------------ #
    def binary_layers(self) -> List[Layer]:
        """Layers whose MAC work is binary (candidates for the crossbar)."""
        return [layer for layer in self.layers if layer.is_binary]

    def iter_with_shapes(self) -> Iterator[Tuple[Layer, Tuple[int, ...], Tuple[int, ...]]]:
        """Yield ``(layer, input_shape, output_shape)`` per layer."""
        shape = self.input_shape
        for layer in self.layers:
            out_shape = layer.output_shape(shape)
            yield layer, shape, out_shape
            shape = out_shape

    def num_parameters(self) -> int:
        """Total trainable scalar count."""
        return sum(layer.num_parameters() for layer in self.layers)

    def num_binary_parameters(self) -> int:
        """Trainable scalar count inside binary layers only."""
        return sum(layer.num_parameters() for layer in self.binary_layers())

    def clip_latent_weights(self) -> None:
        """Clip latent weights of all binary layers (post-optimiser step)."""
        for layer in self.layers:
            if isinstance(layer, (BinaryLinear, BinaryConv2d)):
                layer.clip_latent_weights()

    def summary(self) -> str:
        """Return a layer-by-layer textual summary of the network."""
        lines = [f"{self.name} (input {self.input_shape})"]
        for index, (layer, in_shape, out_shape) in enumerate(self.iter_with_shapes()):
            kind = "binary" if layer.is_binary else "full-precision"
            lines.append(
                f"  [{index:2d}] {layer!r:45s} {in_shape} -> {out_shape} "
                f"({kind}, {layer.num_parameters()} params)"
            )
        lines.append(
            f"  total parameters: {self.num_parameters()} "
            f"({self.num_binary_parameters()} binary)"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BNNModel(name={self.name!r}, layers={len(self.layers)})"


# --------------------------------------------------------------------------- #
# Batched packed inference engine
# --------------------------------------------------------------------------- #

#: per-layer bit-flip rate: one rate for every binary layer, or a callable
#: mapping a layer's XNOR vector length to its rate (the robustness helpers
#: in :mod:`repro.eval.robustness` produce such callables)
FlipRate = Union[float, Callable[[int], float]]

_STEP_FUSED = "fused"          # binary layer (+ folded batch-norm) + sign
_STEP_BINARY_DENSE = "binary"  # binary layer emitting dense pre-activations
_STEP_POOL = "pool"
_STEP_FLATTEN = "flatten"
_STEP_SIGN = "sign"            # pack point (or identity when already packed)
_STEP_DENSE = "dense"          # any other layer, on the dense fallback path


@dataclass
class _PlanStep:
    """One compiled step of the packed execution plan."""

    kind: str
    layer: Layer
    batch_norm: Optional[BatchNorm] = None
    sign_spec: Optional[SignSpec] = None
    flip_rate: float = 0.0
    vector_length: int = 0


def _binary_vector_length(layer: Layer) -> int:
    """Length of the layer's XNOR vectors (m in the paper's Fig. 3)."""
    if isinstance(layer, BinaryLinear):
        return layer.in_features
    if isinstance(layer, BinaryConv2d):
        return layer.in_channels * layer.kernel_size ** 2
    raise TypeError(f"not a binary MAC layer: {layer!r}")


def _binary_num_outputs(layer: Layer) -> int:
    if isinstance(layer, BinaryLinear):
        return layer.out_features
    return layer.out_channels


def fold_batchnorm_sign(batch_norm: Optional[BatchNorm], num_channels: int,
                        vector_length: int) -> SignSpec:
    """Fold inference-mode batch-norm + sign into integer threshold rules.

    The dense path evaluates ``sign(gamma * (x - mean) / std + beta)`` in
    float64 on the integer popcount output ``x``; that expression is
    monotone in ``x`` (non-decreasing for ``gamma > 0``, non-increasing for
    ``gamma < 0``), so per channel there is one integer boundary.  The
    algebraic root is computed first and then nudged by re-evaluating the
    *dense* float64 expression at neighbouring integers, which makes the
    folded rule bit-exact against the dense path including any float64
    rounding at the boundary.  ``x`` is bounded by the layer's
    ``vector_length``, so thresholds are clamped one step outside
    ``[-L, L]`` (always-0 / always-1 rules).
    """
    if batch_norm is None:
        return SignSpec.plain(num_channels)
    if batch_norm.num_features != num_channels:
        raise ValueError(
            f"batch-norm features {batch_norm.num_features} do not match "
            f"{num_channels} layer outputs"
        )
    gamma = np.asarray(batch_norm.params["gamma"], dtype=np.float64)
    beta = np.asarray(batch_norm.params["beta"], dtype=np.float64)
    mean = np.asarray(batch_norm.running_mean, dtype=np.float64)
    std = np.sqrt(np.asarray(batch_norm.running_var, dtype=np.float64)
                  + batch_norm.eps)
    mode = np.empty(num_channels, dtype=np.int8)
    threshold = np.zeros(num_channels, dtype=np.int64)
    constant = np.zeros(num_channels, dtype=np.uint8)
    low, high = -vector_length - 1, vector_length + 1

    for c in range(num_channels):
        def dense_bit(x: float, c: int = c) -> bool:
            # the exact float64 expression of the dense BatchNorm + sign
            return gamma[c] * ((x - mean[c]) / std[c]) + beta[c] >= 0.0

        if gamma[c] == 0.0:
            mode[c] = SIGN_CONST
            constant[c] = 1 if beta[c] >= 0.0 else 0
            continue
        root = mean[c] - beta[c] * std[c] / gamma[c]
        boundary = int(np.clip(np.ceil(root), low, high))
        if gamma[c] > 0.0:
            # smallest integer x with dense_bit(x): bit = (x >= t)
            while boundary > low and dense_bit(boundary - 1):
                boundary -= 1
            while boundary < high and not dense_bit(boundary):
                boundary += 1
            mode[c] = SIGN_GE
        else:
            # largest integer x with dense_bit(x): bit = (x <= t)
            while boundary < high and dense_bit(boundary + 1):
                boundary += 1
            while boundary > low and not dense_bit(boundary):
                boundary -= 1
            mode[c] = SIGN_LE
        threshold[c] = boundary
    return SignSpec(mode=mode, threshold=threshold, constant=constant)


class InferenceEngine:
    """Batched end-to-end inference with activations packed between layers.

    The constructor compiles ``model`` into a step plan: leading
    full-precision layers run densely; the first sign activation becomes the
    pack point; every ``binary layer [+ batch-norm] + sign`` triple executes
    as one fused packed kernel whose integer outputs are thresholded
    (``fold_batchnorm_sign``) and re-packed without ever materialising a
    dense activation; pooling ORs packed bytes and flatten repacks layouts;
    trailing full-precision layers unpack once and finish densely.  With
    ``flip_rate == 0`` the result is bit-exact with ``model.forward``.

    Parameters
    ----------
    model:
        The network to compile.  It is switched to eval mode; batch-norm
        statistics and weights are snapshot at construction — call
        :meth:`refresh` after mutating them.
    kernel:
        Matmul kernel for the fused steps: ``"auto"`` (the row-count rule
        of :func:`~repro.bnn.xnor_ops.choose_matmul_kernel`), ``"blas"`` or
        ``"packed"``.
    flip_rate:
        Per-popcount bit-flip probability modelling noisy crossbar reads —
        a single float applied to every binary layer, or a callable mapping
        the layer's XNOR vector length to a rate (see
        :func:`repro.eval.robustness.popcount_flip_rate`).
    seed:
        Base seed of the flip noise.  Flip streams are derived per
        (chunk offset, step), so results are deterministic for a given
        ``(seed, batch_size)`` no matter how calls are ordered or how many
        sweep workers share the grid.

    **Thread safety** (audited for the serving layer).  After construction
    the compiled plan — steps, folded sign specs, flip rates — is never
    mutated by :meth:`forward_batch`, every execution-path read of layer
    state goes through eval-mode (frozen) parameters, and the memoised
    binarised/packed weight operands are published under each binary
    layer's cache lock (see ``repro.bnn.layers._BinaryWeightCache``), so
    concurrent :meth:`forward_batch` / :meth:`predict_batch` calls on one
    engine are safe from any number of threads.  What is *not* safe
    concurrently with in-flight forwards: :meth:`refresh` (it rebuilds
    ``_steps`` in place), switching the model back to training mode, or
    mutating weights/batch-norm statistics — quiesce the callers (e.g.
    :meth:`repro.serving.InferenceService.close`) before doing any of
    those, then :meth:`refresh` and restart.
    """

    def __init__(self, model: BNNModel, *, kernel: str = "auto",
                 flip_rate: FlipRate = 0.0, seed: int = 0) -> None:
        if kernel not in ("auto", "blas", "packed"):
            raise ValueError(
                f"kernel must be 'auto', 'blas' or 'packed', got {kernel!r}"
            )
        self.model = model
        self.kernel = kernel
        self._seed = int(seed)
        self._flip_rate = flip_rate
        model.eval()
        self._steps: List[_PlanStep] = []
        self.refresh()

    # ------------------------------------------------------------------ #
    # Plan compilation
    # ------------------------------------------------------------------ #
    def _resolve_flip_rate(self, vector_length: int) -> float:
        rate = self._flip_rate
        if callable(rate):
            rate = rate(vector_length)
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"flip rate must be in [0, 1], got {rate!r}")
        return rate

    def refresh(self) -> None:
        """Recompile the plan (after weight / batch-norm mutations)."""
        layers = self.model.layers
        for layer in layers:
            # direct weight mutations bypass the training-protocol
            # invalidation hooks, so drop the memoised packs here
            if isinstance(layer, (BinaryLinear, BinaryConv2d)):
                layer.invalidate_weight_cache()
        steps: List[_PlanStep] = []
        index = 0
        while index < len(layers):
            layer = layers[index]
            if isinstance(layer, (BinaryLinear, BinaryConv2d)):
                follower = index + 1
                batch_norm: Optional[BatchNorm] = None
                if follower < len(layers) and isinstance(layers[follower], BatchNorm):
                    batch_norm = layers[follower]
                    follower += 1
                has_sign = (follower < len(layers)
                            and isinstance(layers[follower], SignActivation))
                length = _binary_vector_length(layer)
                if has_sign:
                    steps.append(_PlanStep(
                        kind=_STEP_FUSED,
                        layer=layer,
                        batch_norm=batch_norm,
                        sign_spec=fold_batchnorm_sign(
                            batch_norm, _binary_num_outputs(layer), length
                        ),
                        flip_rate=self._resolve_flip_rate(length),
                        vector_length=length,
                    ))
                    index = follower + 1
                    continue
                # no trailing sign: emit dense integer pre-activations and
                # let any batch-norm run on the dense fallback path
                steps.append(_PlanStep(kind=_STEP_BINARY_DENSE, layer=layer,
                                       vector_length=length))
                index += 1
                continue
            if isinstance(layer, MaxPool2d):
                steps.append(_PlanStep(kind=_STEP_POOL, layer=layer))
            elif isinstance(layer, Flatten):
                steps.append(_PlanStep(kind=_STEP_FLATTEN, layer=layer))
            elif isinstance(layer, SignActivation):
                steps.append(_PlanStep(kind=_STEP_SIGN, layer=layer))
            else:
                steps.append(_PlanStep(kind=_STEP_DENSE, layer=layer))
            index += 1
        self._steps = steps

    @property
    def noise_flip_rates(self) -> Dict[str, float]:
        """Resolved bit-flip rate per fused binary step (for reporting)."""
        return {
            f"step{idx:02d}:{type(step.layer).__name__}": step.flip_rate
            for idx, step in enumerate(self._steps)
            if step.kind == _STEP_FUSED
        }

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _flip_rng(self, offset: int, step_index: int,
                  rate: float) -> Optional[np.random.Generator]:
        if rate <= 0.0:
            return None
        return make_rng(derive_seed(self._seed, f"{offset}/{step_index}"))

    def _run_chunk(self, chunk: np.ndarray, offset: int) -> np.ndarray:
        """Logits for one chunk: every plan step, then unpack if packed.

        The flip-noise stream of a fused step derives from
        ``(offset, step_index)``, so a chunk draws the same noise whichever
        thread runs it and in whatever order — the bit-exactness contract.
        """
        state: Union[np.ndarray, PackedTensor] = chunk
        for step_index, step in enumerate(self._steps):
            packed = isinstance(state, PackedTensor)
            if step.kind == _STEP_FUSED:
                if not packed:
                    state = PackedTensor.pack_signs(state)
                state = step.layer.forward_packed(
                    state, step.sign_spec, kernel=self.kernel,
                    flip_rate=step.flip_rate,
                    rng=self._flip_rng(offset, step_index, step.flip_rate),
                )
            elif step.kind == _STEP_BINARY_DENSE:
                if not packed:
                    state = PackedTensor.pack_signs(state)
                state = step.layer.forward_packed(state, None, kernel=self.kernel)
            elif step.kind == _STEP_SIGN:
                if not packed:
                    state = PackedTensor.pack_signs(state)
            elif step.kind in (_STEP_POOL, _STEP_FLATTEN):
                if packed:
                    state = step.layer.forward_packed(state)
                else:
                    state = step.layer.forward(state)
            else:
                if packed:
                    state = state.to_bipolar().astype(np.float64)
                state = step.layer.forward(state)
        if isinstance(state, PackedTensor):
            return state.to_bipolar().astype(np.float64)
        return state

    def _run_serial(self, x: np.ndarray, batch_size: int) -> np.ndarray:
        """The serial chunk loop: the oracle every other path must match."""
        return np.concatenate(
            [self._run_chunk(x[offset:offset + batch_size], offset)
             for offset in range(0, x.shape[0], batch_size)],
            axis=0,
        )

    def forward_batch(self, x: np.ndarray, *,
                      batch_size: int = 256) -> np.ndarray:
        """Logits for a whole image batch through the packed plan.

        Each ``batch_size`` chunk is bit-exact with ``model.forward`` on the
        same chunk.  Note the *full-precision* first/last layers inherit
        BLAS's shape-dependent float rounding (the dense path itself differs
        in the last ulp when chunked differently), so compare against a dense
        pass over identical chunks; the binary layers are exact integer
        arithmetic at any chunking.

        Chunks either run one after another or in parallel, whole chunks
        at a time, on worker threads (:mod:`repro.bnn.pipeline`).  A
        static rule picks the path: with
        ``W = min(chunks, effective_cpus() // blas_threads())`` the
        chunks run on ``W`` workers iff ``W >= 2``, so the parallel path
        needs BLAS pinned below the CPU count (``OPENBLAS_NUM_THREADS`` /
        ``OMP_NUM_THREADS``).  Every chunk runs :meth:`_run_chunk` with
        its own offset and the results are concatenated in offset order,
        so the output, including seeded flip noise, is byte-identical
        either way.
        """
        x = np.asarray(x)
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if x.shape[0] == 0:
            raise ValueError("forward_batch needs at least one sample")
        if chunk_workers(-(-x.shape[0] // batch_size)) >= 2:
            return StreamingPipeline(self).run(x, batch_size)
        return self._run_serial(x, batch_size)

    def predict_batch(self, x: np.ndarray, *,
                      batch_size: int = 256) -> np.ndarray:
        """Arg-max class indices for a whole image batch."""
        return np.argmax(self.forward_batch(x, batch_size=batch_size), axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fused = sum(1 for step in self._steps if step.kind == _STEP_FUSED)
        return (
            f"InferenceEngine({self.model.name!r}, steps={len(self._steps)}, "
            f"fused={fused}, kernel={self.kernel!r})"
        )
