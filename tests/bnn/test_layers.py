"""Tests for the BNN layer implementations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bnn.layers import (
    BatchNorm,
    BinaryConv2d,
    BinaryLinear,
    Conv2d,
    Flatten,
    HardTanh,
    Linear,
    MaxPool2d,
    SignActivation,
)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(8, 4, rng=1)
        assert layer.forward(rng.normal(size=(3, 8))).shape == (3, 4)

    def test_forward_matches_matmul(self, rng):
        layer = Linear(5, 3, rng=2)
        x = rng.normal(size=(2, 5))
        expected = x @ layer.params["weight"].T + layer.params["bias"]
        assert np.allclose(layer.forward(x), expected)

    def test_no_bias_option(self, rng):
        layer = Linear(5, 3, bias=False, rng=2)
        assert "bias" not in layer.params
        x = rng.normal(size=(2, 5))
        assert np.allclose(layer.forward(x), x @ layer.params["weight"].T)

    def test_rejects_wrong_input_width(self, rng):
        layer = Linear(8, 4)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(3, 9)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 4)

    def test_backward_gradient_shapes(self, rng):
        layer = Linear(6, 4, rng=3)
        layer.train()
        x = rng.normal(size=(5, 6))
        layer.forward(x)
        grad_in = layer.backward(rng.normal(size=(5, 4)))
        assert grad_in.shape == (5, 6)
        assert layer.grads["weight"].shape == (4, 6)
        assert layer.grads["bias"].shape == (4,)

    def test_backward_numerical_gradient(self, rng):
        """Finite-difference check of the weight gradient."""
        layer = Linear(4, 3, rng=4)
        layer.train()
        x = rng.normal(size=(2, 4))
        target = rng.normal(size=(2, 3))

        def loss():
            return 0.5 * np.sum((layer.forward(x) - target) ** 2)

        base_out = layer.forward(x)
        layer.backward(base_out - target)
        analytic = layer.grads["weight"][0, 0]
        eps = 1e-6
        layer.params["weight"][0, 0] += eps
        loss_plus = loss()
        layer.params["weight"][0, 0] -= 2 * eps
        loss_minus = loss()
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert np.isclose(analytic, numeric, rtol=1e-4)

    def test_backward_before_forward_raises(self, rng):
        layer = Linear(4, 3)
        layer.train()
        with pytest.raises(RuntimeError):
            layer.backward(rng.normal(size=(2, 3)))


class TestBinaryLinear:
    def test_forward_output_is_integer_valued(self, rng):
        layer = BinaryLinear(16, 8, rng=1)
        out = layer.forward(rng.normal(size=(4, 16)))
        assert np.allclose(out, np.round(out))

    def test_forward_bounded_by_vector_length(self, rng):
        layer = BinaryLinear(16, 8, rng=1)
        out = layer.forward(rng.normal(size=(4, 16)))
        assert np.all(np.abs(out) <= 16)

    def test_binary_weight_is_bipolar(self):
        layer = BinaryLinear(16, 8, rng=1)
        assert set(np.unique(layer.binary_weight)).issubset({-1, 1})

    def test_forward_matches_explicit_binarisation(self, rng):
        layer = BinaryLinear(10, 5, rng=2)
        x = rng.normal(size=(3, 10))
        x_bin = np.where(x >= 0, 1, -1)
        expected = x_bin @ layer.binary_weight.T.astype(np.int64)
        assert np.array_equal(layer.forward(x), expected)

    def test_backward_shapes(self, rng):
        layer = BinaryLinear(12, 6, rng=3)
        layer.train()
        x = rng.normal(size=(4, 12))
        layer.forward(x)
        grad_in = layer.backward(rng.normal(size=(4, 6)))
        assert grad_in.shape == (4, 12)
        assert layer.grads["weight"].shape == (6, 12)

    def test_clip_latent_weights(self, rng):
        layer = BinaryLinear(8, 4, rng=4)
        layer.params["weight"] = rng.normal(size=(4, 8)) * 10
        layer.clip_latent_weights()
        assert np.all(np.abs(layer.params["weight"]) <= 1.0)

    def test_is_binary_flag(self):
        assert BinaryLinear(4, 2).is_binary
        assert not Linear(4, 2).is_binary


class TestConv2d:
    def test_forward_shape_with_padding(self, rng):
        layer = Conv2d(3, 8, 3, padding=1, rng=1)
        out = layer.forward(rng.normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 8, 16, 16)

    def test_forward_shape_with_stride(self, rng):
        layer = Conv2d(1, 4, 3, stride=2, rng=1)
        out = layer.forward(rng.normal(size=(1, 1, 9, 9)))
        assert out.shape == (1, 4, 4, 4)

    def test_output_shape_helper_matches_forward(self, rng):
        layer = Conv2d(3, 8, 5, padding=2, rng=1)
        out = layer.forward(rng.normal(size=(1, 3, 28, 28)))
        assert out.shape[1:] == layer.output_shape((3, 28, 28))

    def test_backward_shapes(self, rng):
        layer = Conv2d(2, 4, 3, padding=1, rng=2)
        layer.train()
        x = rng.normal(size=(2, 2, 8, 8))
        out = layer.forward(x)
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        assert layer.grads["weight"].shape == layer.params["weight"].shape

    def test_backward_numerical_gradient(self, rng):
        layer = Conv2d(1, 2, 3, rng=3)
        layer.train()
        x = rng.normal(size=(1, 1, 5, 5))

        def loss():
            return 0.5 * np.sum(layer.forward(x) ** 2)

        out = layer.forward(x)
        layer.backward(out)
        analytic = layer.grads["weight"][0, 0, 1, 1]
        eps = 1e-6
        layer.params["weight"][0, 0, 1, 1] += eps
        loss_plus = loss()
        layer.params["weight"][0, 0, 1, 1] -= 2 * eps
        loss_minus = loss()
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert np.isclose(analytic, numeric, rtol=1e-4)


class TestBinaryConv2d:
    def test_forward_shape(self, rng):
        layer = BinaryConv2d(3, 16, 3, padding=1, rng=1)
        out = layer.forward(rng.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 16, 8, 8)

    def test_forward_values_bounded(self, rng):
        layer = BinaryConv2d(3, 4, 3, rng=1)
        out = layer.forward(rng.normal(size=(1, 3, 6, 6)))
        assert np.all(np.abs(out) <= 3 * 3 * 3)

    def test_binary_weight_is_bipolar(self):
        layer = BinaryConv2d(2, 4, 3, rng=1)
        assert set(np.unique(layer.binary_weight)).issubset({-1, 1})

    def test_backward_shapes(self, rng):
        layer = BinaryConv2d(2, 4, 3, padding=1, rng=2)
        layer.train()
        x = rng.normal(size=(2, 2, 6, 6))
        out = layer.forward(x)
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        assert layer.grads["weight"].shape == layer.params["weight"].shape


class TestBatchNorm:
    def test_training_normalises_batch(self, rng):
        layer = BatchNorm(8)
        layer.train()
        x = rng.normal(loc=5.0, scale=3.0, size=(64, 8))
        out = layer.forward(x)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_updated_in_training(self, rng):
        layer = BatchNorm(4)
        layer.train()
        layer.forward(rng.normal(loc=2.0, size=(32, 4)))
        assert not np.allclose(layer.running_mean, 0.0)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm(4)
        layer.train()
        for _ in range(50):
            layer.forward(rng.normal(loc=2.0, size=(32, 4)))
        layer.eval()
        out = layer.forward(np.full((8, 4), 2.0))
        assert np.all(np.abs(out) < 1.0)

    def test_4d_input_supported(self, rng):
        layer = BatchNorm(3)
        layer.train()
        out = layer.forward(rng.normal(size=(4, 3, 5, 5)))
        assert out.shape == (4, 3, 5, 5)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)

    def test_backward_shapes(self, rng):
        layer = BatchNorm(6)
        layer.train()
        x = rng.normal(size=(16, 6))
        layer.forward(x)
        grad_in = layer.backward(rng.normal(size=(16, 6)))
        assert grad_in.shape == x.shape
        assert layer.grads["gamma"].shape == (6,)
        assert layer.grads["beta"].shape == (6,)

    def test_rejects_3d_input(self, rng):
        layer = BatchNorm(4)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(2, 4, 3)))

    @pytest.mark.parametrize("shape", [(16, 5), (3, 5, 4, 4)])
    def test_eval_matches_reference_formula_bytewise(self, rng, shape):
        layer = BatchNorm(5)
        layer.running_mean = rng.normal(size=5)
        layer.running_var = rng.uniform(0.1, 3.0, size=5)
        # negative and zero scales as well as positive ones
        layer.params["gamma"] = np.array([1.5, -0.75, 0.0, -2.0, 0.3])
        layer.params["beta"] = rng.normal(size=5)
        layer.eval()
        x = rng.normal(size=shape)
        before = x.copy()
        view = (1, -1) if len(shape) == 2 else (1, -1, 1, 1)
        std = np.sqrt(layer.running_var + layer.eps)
        expected = (layer.params["gamma"].reshape(view)
                    * ((x - layer.running_mean.reshape(view))
                       / std.reshape(view))
                    + layer.params["beta"].reshape(view))
        out = layer.forward(x)
        assert out.tobytes() == expected.tobytes()
        assert x.tobytes() == before.tobytes()  # input left unmodified


class TestActivationsPoolingFlatten:
    def test_sign_activation_outputs_bipolar(self, rng):
        layer = SignActivation()
        out = layer.forward(rng.normal(size=(4, 7)))
        assert set(np.unique(out)).issubset({-1.0, 1.0})

    def test_sign_activation_ste_backward(self, rng):
        layer = SignActivation()
        layer.train()
        x = np.array([[0.5, -2.0, 0.9]])
        layer.forward(x)
        grad = layer.backward(np.ones((1, 3)))
        assert np.array_equal(grad, np.array([[1.0, 0.0, 1.0]]))

    def test_hardtanh_clips(self):
        layer = HardTanh()
        out = layer.forward(np.array([[-3.0, -0.5, 0.5, 3.0]]))
        assert np.array_equal(out, np.array([[-1.0, -0.5, 0.5, 1.0]]))

    def test_maxpool_shape(self, rng):
        layer = MaxPool2d(2)
        out = layer.forward(rng.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 3, 4, 4)

    def test_maxpool_values(self):
        layer = MaxPool2d(2)
        image = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(image)
        assert np.array_equal(out[0, 0], np.array([[5.0, 7.0], [13.0, 15.0]]))

    def test_maxpool_backward_routes_to_argmax(self):
        layer = MaxPool2d(2)
        layer.train()
        image = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer.forward(image)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        assert grad[0, 0, 1, 1] == 1.0  # position of value 5
        assert grad[0, 0, 0, 0] == 0.0

    def test_flatten_round_trip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(3, 2, 4, 4))
        out = layer.forward(x)
        assert out.shape == (3, 32)
        assert layer.backward(out).shape == x.shape

    def test_output_shape_helpers(self):
        assert MaxPool2d(2).output_shape((16, 8, 8)) == (16, 4, 4)
        assert Flatten().output_shape((16, 4, 4)) == (256,)
        assert SignActivation().output_shape((5,)) == (5,)
