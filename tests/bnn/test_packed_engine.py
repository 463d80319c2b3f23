"""Tests for the batched packed inference path.

The contract under test: with noise off, the packed plan (fused
matmul/conv -> integer-threshold sign -> packed activations) is *bit-exact*
with the dense layer-by-layer forward pass, on MLP and CNN workloads, for
every kernel choice — including batch-norm parameter corner cases (negative
and exactly-zero scales) that exercise every folded comparison mode — and
the Winograd and im2col formulations of the BLAS conv are byte-identical,
with noise on or off.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn import xnor_ops
from repro.bnn.layers import (
    BatchNorm,
    BinaryConv2d,
    BinaryLinear,
    Flatten,
    Linear,
    MaxPool2d,
    SignActivation,
)
from repro.bnn.model import BNNModel, InferenceEngine, fold_batchnorm_sign
from repro.bnn.networks import build_network, list_networks
from repro.bnn.xnor_ops import (
    PackedTensor,
    SIGN_CONST,
    SIGN_GE,
    SIGN_LE,
    SignSpec,
    binary_conv2d,
    binary_matmul,
    choose_matmul_kernel,
    fused_conv2d_sign,
    fused_matmul_sign,
    pack_conv_weights,
    pack_linear_weights,
    packed_flatten,
    packed_maxpool2d,
    winograd_exact,
)
from repro.utils.rng import make_rng


def _random_bipolar(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1, 1).astype(np.int8)


def _mixed_sign_spec(rng: np.random.Generator, channels: int,
                     spread: int) -> SignSpec:
    """A folded-batch-norm rule mixing every comparison mode."""
    mode = rng.choice([SIGN_GE, SIGN_LE, SIGN_CONST], size=channels)
    mode[:3] = (SIGN_GE, SIGN_LE, SIGN_CONST)[:channels]
    return SignSpec(
        mode=mode.astype(np.int8),
        threshold=rng.integers(-spread, spread + 1, size=channels),
        constant=rng.integers(0, 2, size=channels).astype(np.uint8),
    )


def _randomise_batchnorm(bn: BatchNorm, rng: np.random.Generator) -> None:
    """Non-trivial inference statistics, including negative/zero scales."""
    n = bn.num_features
    bn.params["gamma"] = rng.normal(1.0, 0.6, size=n)
    if n >= 3:
        bn.params["gamma"][0] = -abs(bn.params["gamma"][0])  # SIGN_LE path
        bn.params["gamma"][1] = 0.0                          # SIGN_CONST path
    bn.params["beta"] = rng.normal(0.0, 1.5, size=n)
    bn.running_mean = rng.normal(0.0, 3.0, size=n)
    bn.running_var = rng.uniform(0.25, 4.0, size=n)


class TestPackedTensor:
    @settings(max_examples=25, deadline=None)
    @given(batch=st.integers(1, 4), features=st.integers(1, 70),
           seed=st.integers(0, 2**16))
    def test_2d_roundtrip(self, batch, features, seed):
        rng = np.random.default_rng(seed)
        bipolar = _random_bipolar(rng, (batch, features))
        packed = PackedTensor.from_bipolar(bipolar)
        assert packed.shape == (batch, features)
        assert np.array_equal(packed.to_bipolar(), bipolar)

    @settings(max_examples=25, deadline=None)
    @given(batch=st.integers(1, 3), channels=st.integers(1, 20),
           extent=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_4d_roundtrip(self, batch, channels, extent, seed):
        rng = np.random.default_rng(seed)
        bipolar = _random_bipolar(rng, (batch, channels, extent, extent))
        packed = PackedTensor.from_bipolar(bipolar)
        assert packed.data.shape == (batch, extent, extent, (channels + 7) // 8)
        assert np.array_equal(packed.to_bipolar(), bipolar)

    def test_pack_signs_matches_binarise_then_pack(self):
        rng = make_rng(3)
        dense = rng.normal(size=(4, 5, 6, 6))
        dense[0, 0, 0, 0] = 0.0  # zero maps to +1 (bit 1)
        via_sign = PackedTensor.pack_signs(dense)
        expected = np.where(dense >= 0, 1, -1).astype(np.int8)
        assert np.array_equal(via_sign.to_bipolar(), expected)

    def test_rejects_malformed_metadata(self):
        data = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="does not match"):
            PackedTensor(data, 10, (2, 10))
        with pytest.raises(TypeError, match="uint8"):
            PackedTensor(np.zeros((2, 2), dtype=np.int8), 16, (2, 16))
        with pytest.raises(ValueError, match="2-D or 4-D"):
            PackedTensor(np.zeros((2, 2), dtype=np.uint8), 16, (2, 4, 4))


class TestFusedKernels:
    @settings(max_examples=30, deadline=None)
    @given(batch=st.integers(1, 5), length=st.integers(1, 64),
           outputs=st.integers(1, 9), seed=st.integers(0, 2**16))
    def test_fused_matmul_matches_binary_matmul(self, batch, length, outputs,
                                                seed):
        rng = np.random.default_rng(seed)
        inputs = _random_bipolar(rng, (batch, length))
        weights = _random_bipolar(rng, (outputs, length))
        reference = binary_matmul(inputs, weights)
        packed_in = PackedTensor.from_bipolar(inputs)
        packed_w = pack_linear_weights(weights)
        for kernel in ("auto", "blas", "packed"):
            assert np.array_equal(
                fused_matmul_sign(packed_in, packed_w, kernel=kernel),
                reference,
            ), kernel
            signed = fused_matmul_sign(
                packed_in, packed_w, SignSpec.plain(outputs), kernel=kernel
            )
            assert np.array_equal(
                signed.to_bipolar(), np.where(reference >= 0, 1, -1)
            ), kernel

    @pytest.mark.parametrize("length,outputs",
                             [(2000, 1500), (1500, 1000), (1000, 500)])
    def test_packed_matches_blas_on_mlp_l_layers(self, length, outputs):
        # MLP-L's binary layers at every serving flush size, on both sides
        # of the row-count dispatch boundary
        rng = make_rng(length)
        weights = pack_linear_weights(_random_bipolar(rng, (outputs, length)))
        assert weights.packed.shape[1] % 8 == 0
        spec = _mixed_sign_spec(rng, outputs, spread=60)
        for rows in range(1, 33):
            x = PackedTensor.from_bipolar(_random_bipolar(rng, (rows, length)))
            acc = fused_matmul_sign(x, weights, kernel="packed")
            assert np.array_equal(
                acc, fused_matmul_sign(x, weights, kernel="blas")), rows
            assert np.array_equal(
                acc, binary_matmul(x.to_bipolar(), weights.f32)), rows
            for flip_rate in (0.0, 0.05):
                outs = [fused_matmul_sign(x, weights, spec, kernel=kernel,
                                          flip_rate=flip_rate,
                                          rng=make_rng(rows))
                        for kernel in ("packed", "blas", "auto")]
                for out in outs[1:]:
                    assert np.array_equal(out.data, outs[0].data), rows

    @pytest.mark.parametrize("channels,kernel_size,stride,padding", [
        (5, 3, 1, 1),    # 3 * 3 * 1 = 9 bytes per patch row
        (20, 3, 2, 1),   # 3 * 3 * 3 = 27 bytes
        (13, 2, 1, 0),   # 2 * 2 * 2 = 8 bytes, exactly one word
        (70, 1, 1, 0),   # 1 * 1 * 9 = 9 bytes
    ])
    def test_packed_conv_matches_blas(self, channels, kernel_size, stride,
                                      padding):
        rng = make_rng(channels)
        kernels = _random_bipolar(rng, (7, channels, kernel_size, kernel_size))
        weights = pack_conv_weights(kernels)
        assert weights.packed.shape[1] % 8 == 0
        images = _random_bipolar(rng, (3, channels, 6, 6))
        x = PackedTensor.from_bipolar(images)
        acc = fused_conv2d_sign(x, weights, kernel_size, stride=stride,
                                padding=padding, kernel="packed")
        assert np.array_equal(acc, fused_conv2d_sign(
            x, weights, kernel_size, stride=stride, padding=padding,
            kernel="blas"))
        assert np.array_equal(acc, binary_conv2d(
            images, kernels, stride=stride, padding=padding))
        spec = _mixed_sign_spec(rng, 7, spread=kernel_size * 4)
        for flip_rate in (0.0, 0.05):
            packed, blas = (
                fused_conv2d_sign(x, weights, kernel_size, spec,
                                  stride=stride, padding=padding,
                                  kernel=kernel, flip_rate=flip_rate,
                                  rng=make_rng(1))
                for kernel in ("packed", "blas"))
            assert np.array_equal(packed.data, blas.data)

    def test_operand_mismatch_rejected(self):
        x = PackedTensor.from_bipolar(np.ones((2, 9), dtype=np.int8))
        weights = pack_linear_weights(np.ones((3, 10), dtype=np.int8))
        with pytest.raises(ValueError, match="length mismatch"):
            fused_matmul_sign(x, weights)
        with pytest.raises(ValueError, match="unknown fused kernel"):
            fused_matmul_sign(
                PackedTensor.from_bipolar(np.ones((2, 10), dtype=np.int8)),
                weights, kernel="simd",
            )

    def test_pool_and_flatten_match_dense(self):
        rng = make_rng(11)
        bipolar = _random_bipolar(rng, (3, 13, 7, 7))
        packed = PackedTensor.from_bipolar(bipolar)
        pool = MaxPool2d(kernel_size=3, stride=2)
        dense_pool = pool.forward(bipolar.astype(np.float64))
        assert np.array_equal(
            packed_maxpool2d(packed, 3, 2).to_bipolar(),
            dense_pool.astype(np.int8),
        )
        flat = packed_flatten(packed)
        assert np.array_equal(flat.to_bipolar(), bipolar.reshape(3, -1))

    def test_dispatch_heuristic_prefers_blas_at_scale(self):
        assert choose_matmul_kernel(1024, 128, 1152) == "blas"
        assert choose_matmul_kernel(1, 4, 16) == "packed"
        with pytest.raises(ValueError):
            choose_matmul_kernel(-1, 4, 16)


#: (spatial size, padding) pairs a 3x3 kernel fits: outputs 1 to 9, odd
#: and even, so the Winograd tiles are cropped and uncropped
WINOGRAD_EXTENTS = [(size, padding) for size in (1, 2, 7, 8, 9)
                    for padding in (0, 1) if size + 2 * padding >= 3]


class TestWinogradConv:
    """Winograd F(2x2,3x3) vs the im2col GEMM: the same bytes, always."""

    def test_exactness_bound(self):
        assert 324 * 51_781 < 2 ** 24 <= 324 * 51_782
        assert winograd_exact(1)
        assert winograd_exact(512)
        assert winograd_exact(51_781)
        assert not winograd_exact(51_782)
        assert not winograd_exact(1 << 20)

    @pytest.mark.parametrize("size,padding", WINOGRAD_EXTENTS)
    @pytest.mark.parametrize("channels", [64, 65, 130, 256])
    def test_winograd_is_byte_identical_to_im2col(self, monkeypatch, channels,
                                                  size, padding):
        rng = make_rng(channels * 100 + size * 10 + padding)
        out_channels = 5
        kernels = _random_bipolar(rng, (out_channels, channels, 3, 3))
        weights = pack_conv_weights(kernels)
        assert weights.winograd is not None and weights.f32 is None
        assert weights.winograd.shape == (16, channels, out_channels)
        # the im2col operand, built on demand with Winograd switched off
        with monkeypatch.context() as patch:
            patch.setattr(xnor_ops, "WINOGRAD_MIN_CHANNELS", 1 << 30)
            im2col_weights = pack_conv_weights(kernels)
        assert im2col_weights.winograd is None
        assert im2col_weights.num_outputs == weights.num_outputs
        out = size + 2 * padding - 2
        tiles = (-(-out // 2)) ** 2
        several_blocks = 2 * -(-xnor_ops._WINOGRAD_BLOCK_ROWS // tiles) + 1
        spec = _mixed_sign_spec(rng, out_channels, spread=12)
        for batch in (1, several_blocks):
            images = _random_bipolar(rng, (batch, channels, size, size))
            x = PackedTensor.from_bipolar(images)
            data = np.pad(x.data, ((0, 0), (padding, padding),
                                   (padding, padding), (0, 0)))
            winograd = xnor_ops._conv_winograd(data, channels, weights,
                                               out, out)
            im2col = xnor_ops._conv_im2col(data, channels, im2col_weights,
                                           3, 1, out, out)
            assert winograd.tobytes() == im2col.tobytes(), batch

            def fused(operands):
                return [fused_conv2d_sign(x, operands, 3, sign,
                                          padding=padding, kernel="blas",
                                          flip_rate=rate, rng=make_rng(3))
                        for sign, rate in ((None, 0.0), (spec, 0.0),
                                           (spec, 0.05))]

            on, off = fused(weights), fused(im2col_weights)
            dense = binary_conv2d(images, kernels, padding=padding)
            assert on[0].dtype == off[0].dtype == np.int64
            assert on[0].tobytes() == off[0].tobytes() == dense.tobytes()
            for a, b in zip(on[1:], off[1:]):
                assert a.shape == b.shape
                assert a.data.tobytes() == b.data.tobytes(), batch

    def test_cnn_l_noisy_forward_batch_is_byte_identical(self, monkeypatch):
        model = build_network("CNN-L")
        model.eval()
        x = make_rng(61).uniform(-1, 1, size=(4, *model.input_shape))
        engine = InferenceEngine(model, flip_rate=0.05, seed=7)
        calls = []
        real = xnor_ops._conv_winograd

        def spy(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(xnor_ops, "_conv_winograd", spy)
        on = engine.forward_batch(x, batch_size=2)
        assert len(calls) == 2 * 5  # two chunks x five binary convs
        with monkeypatch.context() as patch:
            patch.setattr(xnor_ops, "WINOGRAD_MIN_CHANNELS", 1 << 30)
            engine.refresh()  # repacks the im2col operands
            off = engine.forward_batch(x, batch_size=2)
        assert len(calls) == 2 * 5
        assert on.tobytes() == off.tobytes()

    @pytest.mark.parametrize("stride,winograd", [(1, True), (2, False)])
    def test_conv_layer_packs_one_blas_operand(self, stride, winograd):
        conv = BinaryConv2d(64, 8, 3, stride=stride, padding=1, rng=5)
        conv.eval()
        weights = conv.packed_weights
        assert (weights.winograd is not None) is winograd
        assert (weights.f32 is None) is winograd
        assert weights.num_outputs == 8
        images = _random_bipolar(make_rng(stride), (2, 64, 6, 6))
        got = fused_conv2d_sign(PackedTensor.from_bipolar(images), weights,
                                3, stride=stride, padding=1, kernel="blas")
        assert np.array_equal(got, binary_conv2d(
            images, conv.binary_weight, stride=stride, padding=1))

    def test_winograd_only_operand_refuses_im2col(self):
        kernels = _random_bipolar(make_rng(8), (4, 64, 3, 3))
        x = PackedTensor.from_bipolar(
            _random_bipolar(make_rng(9), (1, 64, 5, 5)))
        with pytest.raises(ValueError, match="stride=2"):
            fused_conv2d_sign(x, pack_conv_weights(kernels), 3, stride=2,
                              kernel="blas")
        strided = pack_conv_weights(kernels, stride=2)
        assert np.array_equal(
            fused_conv2d_sign(x, strided, 3, stride=2, kernel="blas"),
            binary_conv2d(x.to_bipolar(), kernels, stride=2))


class TestBatchNormFolding:
    @settings(max_examples=30, deadline=None)
    @given(outputs=st.integers(3, 12), length=st.integers(1, 40),
           batch=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_folded_threshold_matches_dense_batchnorm_sign(self, outputs,
                                                           length, batch,
                                                           seed):
        rng = np.random.default_rng(seed)
        bn = BatchNorm(outputs)
        _randomise_batchnorm(bn, rng)
        bn.eval()
        spec = fold_batchnorm_sign(bn, outputs, length)
        assert spec.mode[0] == SIGN_LE
        assert spec.mode[1] == SIGN_CONST
        # every reachable popcount value, including the extremes
        accumulators = np.tile(
            np.arange(-length, length + 1, dtype=np.int64), (outputs, 1)
        ).T
        dense = np.where(
            bn.forward(accumulators.astype(np.float64)) >= 0, 1, 0
        ).astype(np.uint8)
        from repro.bnn.xnor_ops import apply_sign_spec
        assert np.array_equal(apply_sign_spec(accumulators, spec), dense)

    def test_plain_spec_without_batchnorm(self):
        spec = fold_batchnorm_sign(None, 5, 16)
        assert np.all(spec.mode == SIGN_GE)
        assert np.all(spec.threshold == 0)

    def test_feature_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match"):
            fold_batchnorm_sign(BatchNorm(4), 5, 16)


def _small_mlp(rng) -> BNNModel:
    layers = [
        Linear(12, 10, rng=rng),
        BatchNorm(10),
        SignActivation(),
        BinaryLinear(10, 9, rng=rng),
        BatchNorm(9),
        SignActivation(),
        Linear(9, 4, rng=rng),
    ]
    return BNNModel(layers, name="tiny-mlp", input_shape=(12,))


def _small_cnn(rng) -> BNNModel:
    layers = [
        BinaryConv2d(3, 8, 3, padding=1, rng=rng),
        BatchNorm(8),
        SignActivation(),
        MaxPool2d(2),
        BinaryConv2d(8, 6, 3, rng=rng),
        BatchNorm(6),
        SignActivation(),
        Flatten(),
        BinaryLinear(6 * 2 * 2, 5, rng=rng),
        BatchNorm(5),
        SignActivation(),
        Linear(5, 3, rng=rng),
    ]
    return BNNModel(layers, name="tiny-cnn", input_shape=(3, 8, 8))


class TestInferenceEngine:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), batch=st.integers(1, 6))
    def test_mlp_bit_exact_property(self, seed, batch):
        rng = np.random.default_rng(seed)
        model = _small_mlp(rng)
        for layer in model.layers:
            if isinstance(layer, BatchNorm):
                _randomise_batchnorm(layer, rng)
        model.eval()
        x = rng.uniform(-2, 2, size=(batch, 12))
        dense = model.forward(x)
        for kernel in ("auto", "blas", "packed"):
            engine = InferenceEngine(model, kernel=kernel)
            assert np.array_equal(
                engine.forward_batch(x, batch_size=batch), dense
            ), kernel

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), batch=st.integers(1, 4))
    def test_cnn_bit_exact_property(self, seed, batch):
        rng = np.random.default_rng(seed)
        model = _small_cnn(rng)
        for layer in model.layers:
            if isinstance(layer, BatchNorm):
                _randomise_batchnorm(layer, rng)
        model.eval()
        x = rng.uniform(-2, 2, size=(batch, 3, 8, 8))
        dense = model.forward(x)
        for kernel in ("auto", "blas", "packed"):
            engine = InferenceEngine(model, kernel=kernel)
            assert np.array_equal(
                engine.forward_batch(x, batch_size=batch), dense
            ), kernel

    @pytest.mark.parametrize("name", list_networks())
    def test_evaluation_networks_bit_exact(self, name):
        model = build_network(name)
        model.eval()
        rng = make_rng(17)
        x = rng.uniform(-1, 1, size=(3, *model.input_shape))
        dense = model.forward(x)
        engine = InferenceEngine(model)
        assert np.array_equal(engine.forward_batch(x, batch_size=3), dense)
        assert np.array_equal(
            engine.predict_batch(x, batch_size=3), np.argmax(dense, axis=1)
        )

    def test_predict_batch_convenience_on_model(self):
        model = build_network("MLP-S")
        model.eval()
        rng = make_rng(23)
        x = rng.uniform(-1, 1, size=(5, 784))
        assert np.array_equal(
            model.predict_batch(x, batch_size=5), model.predict(x)
        )

    def test_noise_flips_are_seeded_and_deterministic(self):
        rng = make_rng(29)
        model = _small_mlp(rng)
        model.eval()
        x = rng.uniform(-2, 2, size=(16, 12))
        noisy_a = InferenceEngine(model, flip_rate=0.3, seed=7)
        noisy_b = InferenceEngine(model, flip_rate=0.3, seed=7)
        assert np.array_equal(
            noisy_a.forward_batch(x, batch_size=8),
            noisy_b.forward_batch(x, batch_size=8),
        )
        clean = InferenceEngine(model).forward_batch(x, batch_size=8)
        assert not np.array_equal(
            noisy_a.forward_batch(x, batch_size=8), clean
        )

    def test_flip_rate_callable_resolves_per_layer(self):
        rng = make_rng(31)
        model = _small_cnn(rng)
        lengths = []
        engine = InferenceEngine(
            model, flip_rate=lambda length: lengths.append(length) or 0.01
        )
        # one fused step per binary layer, rates keyed by step
        assert sorted(lengths) == sorted([3 * 9, 8 * 9, 24])
        assert all(rate == 0.01 for rate in engine.noise_flip_rates.values())

    def test_invalid_arguments_rejected(self):
        model = _small_mlp(make_rng(0))
        with pytest.raises(ValueError, match="kernel"):
            InferenceEngine(model, kernel="simd")
        with pytest.raises(ValueError, match="flip rate"):
            InferenceEngine(model, flip_rate=1.5)
        engine = InferenceEngine(model)
        with pytest.raises(ValueError, match="batch_size"):
            engine.forward_batch(np.zeros((2, 12)), batch_size=0)
        with pytest.raises(ValueError, match="at least one sample"):
            engine.forward_batch(np.zeros((0, 12)))

    def test_refresh_picks_up_direct_weight_mutation(self):
        rng = make_rng(41)
        model = _small_mlp(rng)
        model.eval()
        x = rng.uniform(-2, 2, size=(6, 12))
        engine = InferenceEngine(model)
        before = engine.forward_batch(x, batch_size=6)  # populate caches
        for layer in model.layers:
            if isinstance(layer, BinaryLinear):
                layer.params["weight"] *= -1.0
        engine.refresh()  # must drop the stale weight packs
        after = engine.forward_batch(x, batch_size=6)
        assert not np.array_equal(after, before)
        # refresh cleared the layer caches, so the dense pass is fresh too
        assert np.array_equal(after, model.forward(x))

    def test_refresh_picks_up_batchnorm_mutation(self):
        rng = make_rng(37)
        model = _small_mlp(rng)
        model.eval()
        x = rng.uniform(-2, 2, size=(6, 12))
        engine = InferenceEngine(model)
        for layer in model.layers:
            if isinstance(layer, BatchNorm):
                _randomise_batchnorm(layer, rng)
        engine.refresh()
        assert np.array_equal(
            engine.forward_batch(x, batch_size=6), model.forward(x)
        )


class TestWeightPackCache:
    def test_eval_mode_caches_binary_and_packed_weights(self):
        layer = BinaryLinear(16, 8, rng=1)
        layer.eval()
        assert layer.binary_weight is layer.binary_weight
        assert layer.packed_weights is layer.packed_weights

    def test_training_forward_invalidates_after_inplace_update(self):
        layer = BinaryLinear(6, 4, rng=2)
        layer.train()
        x = make_rng(3).uniform(-1, 1, size=(5, 6))
        layer.forward(x)
        stale = layer.binary_weight
        # optimiser-style in-place step flipping every sign
        layer.params["weight"] *= -1.0
        layer.forward(x)  # training-mode forward must re-binarise
        assert np.array_equal(layer.binary_weight, -stale)

    def test_clip_latent_weights_invalidates(self):
        layer = BinaryConv2d(2, 3, 3, rng=4)
        layer.eval()
        stale = layer.binary_weight
        layer.params["weight"] *= -1.0
        assert layer.binary_weight is stale  # documented: explicit mutation
        layer.clip_latent_weights()
        assert np.array_equal(layer.binary_weight, -stale)

    def test_train_switch_invalidates(self):
        layer = BinaryLinear(6, 4, rng=5)
        layer.eval()
        stale = layer.binary_weight
        layer.params["weight"] *= -1.0
        layer.train()
        assert np.array_equal(layer.binary_weight, -stale)

    def test_explicit_invalidate(self):
        layer = BinaryLinear(6, 4, rng=6)
        layer.eval()
        stale = layer.binary_weight
        layer.params["weight"] *= -1.0
        layer.invalidate_weight_cache()
        assert np.array_equal(layer.binary_weight, -stale)

    def test_cached_weights_match_packed_operands(self):
        layer = BinaryConv2d(3, 5, 3, rng=7)
        layer.eval()
        packed = layer.packed_weights
        flat = layer.binary_weight.transpose(0, 2, 3, 1).reshape(5, -1)
        assert np.array_equal(packed.f32, flat.astype(np.float32))
        assert packed.bit_length == 3 * 9


    def test_refresh_rebuilds_the_winograd_operand(self):
        model = build_network("CNN-L")
        model.eval()
        x = make_rng(59).uniform(-1, 1, size=(2, *model.input_shape))
        engine = InferenceEngine(model)
        before = engine.forward_batch(x, batch_size=2)
        conv = next(layer for layer in model.layers
                    if isinstance(layer, BinaryConv2d))
        stale = conv.packed_weights.winograd
        conv.params["weight"] *= -1.0
        engine.refresh()
        after = engine.forward_batch(x, batch_size=2)
        fresh = conv.packed_weights.winograd
        # the transform is linear in the kernels, so negating them must
        # negate the operand; a stale one would silently give wrong logits
        assert fresh is not stale
        assert np.array_equal(fresh, -stale)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, model.forward(x))


class TestChunking:
    """One ``forward_batch`` path: chunks in offset order, noise by offset."""

    def test_noise_streams_follow_chunk_offsets(self):
        """Each chunk equals that chunk run alone at its own offset."""
        rng = make_rng(41)
        model = _small_mlp(rng)
        model.eval()
        x = rng.uniform(-2, 2, size=(20, 12))
        engine = InferenceEngine(model, flip_rate=0.2, seed=7)
        full = engine.forward_batch(x, batch_size=5)
        for offset in range(0, 20, 5):
            assert np.array_equal(
                full[offset:offset + 5],
                engine._run_chunk(x[offset:offset + 5], offset),
            )

    def test_engine_with_flip_rate_callable_is_picklable(self):
        import pickle

        from repro.eval.robustness import popcount_flip_rate_fn

        rng = make_rng(43)
        model = _small_mlp(rng)
        model.eval()
        flip = popcount_flip_rate_fn(read_noise_sigma=0.01, seed=3)
        engine = InferenceEngine(model, flip_rate=flip, seed=9)
        clone = pickle.loads(pickle.dumps(engine))
        x = rng.uniform(-2, 2, size=(6, 12))
        assert np.array_equal(
            engine.forward_batch(x, batch_size=2),
            clone.forward_batch(x, batch_size=2),
        )

    def test_env_toggle_does_not_reach_the_engine(self, monkeypatch):
        """REPRO_RUNTIME_BACKEND governs the sweep fleet, not chunk loops
        (pool workers cannot spawn children)."""
        from repro.runtime.executors import BACKEND_ENV

        rng = make_rng(53)
        model = _small_mlp(rng)
        model.eval()
        x = rng.uniform(-2, 2, size=(8, 12))
        engine = InferenceEngine(model)
        expected = engine.forward_batch(x, batch_size=4)
        monkeypatch.setenv(BACKEND_ENV, "queue")
        assert np.array_equal(engine.forward_batch(x, batch_size=4), expected)
