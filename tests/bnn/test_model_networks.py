"""Tests for the model container, the six evaluation networks and workloads."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bnn import layers
from repro.bnn.layers import BinaryLinear, Linear, SignActivation
from repro.bnn.model import BNNModel
from repro.bnn.networks import (
    build_network,
    dataset_for_network,
    list_networks,
)
from repro.bnn.workload import extract_workload, get_workload


class TestBNNModel:
    def _tiny_model(self):
        return BNNModel(
            [
                Linear(8, 16, rng=1),
                SignActivation(),
                BinaryLinear(16, 12, rng=2),
                SignActivation(),
                Linear(12, 4, rng=3),
            ],
            name="tiny",
            input_shape=(8,),
        )

    def test_forward_shape(self, rng):
        model = self._tiny_model()
        assert model.forward(rng.normal(size=(5, 8))).shape == (5, 4)

    def test_predict_returns_class_indices(self, rng):
        model = self._tiny_model()
        preds = model.predict(rng.normal(size=(5, 8)))
        assert preds.shape == (5,)
        assert preds.min() >= 0 and preds.max() < 4

    def test_binary_layers_filter(self):
        model = self._tiny_model()
        assert len(model.binary_layers()) == 1
        assert isinstance(model.binary_layers()[0], BinaryLinear)

    def test_train_eval_propagate(self):
        model = self._tiny_model()
        model.train()
        assert all(layer.training for layer in model.layers)
        model.eval()
        assert not any(layer.training for layer in model.layers)

    def test_iter_with_shapes(self):
        model = self._tiny_model()
        shapes = [out for _, _, out in model.iter_with_shapes()]
        assert shapes[-1] == (4,)

    def test_num_parameters_positive(self):
        model = self._tiny_model()
        assert model.num_parameters() > 0
        assert 0 < model.num_binary_parameters() < model.num_parameters()

    def test_summary_mentions_every_layer(self):
        model = self._tiny_model()
        summary = model.summary()
        assert "BinaryLinear" in summary and "tiny" in summary

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            BNNModel([], name="empty", input_shape=(4,))


class TestEvaluationNetworks:
    def test_six_networks_listed(self):
        names = list_networks()
        assert len(names) == 6
        assert sorted(names) == sorted(
            ["MLP-S", "MLP-M", "MLP-L", "CNN-S", "CNN-M", "CNN-L"]
        )

    @pytest.mark.parametrize("name", ["MLP-S", "MLP-M", "MLP-L"])
    def test_mlp_forward_pass(self, name, rng):
        model = build_network(name)
        out = model.forward(rng.normal(size=(2, 784)))
        assert out.shape == (2, 10)

    def test_cnn_s_forward_pass(self, rng):
        model = build_network("CNN-S")
        assert model.forward(rng.normal(size=(1, 1, 28, 28))).shape == (1, 10)

    def test_cnn_m_forward_pass(self, rng):
        model = build_network("CNN-M")
        assert model.forward(rng.normal(size=(1, 3, 32, 32))).shape == (1, 10)

    def test_unknown_network_raises(self):
        with pytest.raises(ValueError):
            build_network("ResNet-50")

    def test_first_and_last_mac_layers_are_full_precision(self):
        """Sec. II-B: input and output layers stay in higher precision."""
        for name in list_networks():
            workload = extract_workload(build_network(name))
            assert not workload.layers[0].is_binary, name
            assert not workload.layers[-1].is_binary, name

    def test_hidden_mac_layers_are_binary(self):
        for name in list_networks():
            workload = extract_workload(build_network(name))
            for spec in workload.layers[1:-1]:
                assert spec.is_binary, f"{name}:{spec.name}"

    def test_dataset_assignment(self):
        assert dataset_for_network("MLP-L") == "mnist"
        assert dataset_for_network("CNN-L") == "cifar10"
        with pytest.raises(ValueError):
            dataset_for_network("unknown")

    def test_network_sizes_are_ordered(self):
        """S < M < L in binary parameter count for both families."""
        mlp_sizes = [
            extract_workload(build_network(n)).binary_macs
            for n in ["MLP-S", "MLP-M", "MLP-L"]
        ]
        cnn_sizes = [
            extract_workload(build_network(n)).binary_macs
            for n in ["CNN-S", "CNN-M", "CNN-L"]
        ]
        assert mlp_sizes == sorted(mlp_sizes)
        assert cnn_sizes == sorted(cnn_sizes)


class TestWorkloadExtraction:
    def test_mlp_s_layer_counts(self):
        workload = extract_workload(build_network("MLP-S"))
        assert [spec.num_weight_vectors for spec in workload.layers] == [500, 250, 10]
        assert [spec.vector_length for spec in workload.layers] == [784, 500, 250]

    def test_linear_layers_have_one_input_vector(self):
        workload = extract_workload(build_network("MLP-M"))
        assert all(spec.num_input_vectors == 1 for spec in workload.layers)

    def test_conv_layers_have_many_input_vectors(self):
        workload = extract_workload(build_network("CNN-M"))
        conv_specs = [spec for spec in workload.layers if spec.kind == "conv"]
        assert all(spec.num_input_vectors > 1 for spec in conv_specs)

    def test_macs_consistency(self):
        workload = extract_workload(build_network("CNN-S"))
        assert workload.total_macs == (
            workload.binary_macs + workload.full_precision_macs
        )
        assert 0.0 < workload.binary_fraction < 1.0

    def test_xnor_popcount_ops_counts(self):
        workload = extract_workload(build_network("MLP-S"))
        hidden = workload.binary_layers
        assert [spec.xnor_popcount_ops for spec in hidden] == [250]

    def test_conv_output_size_matches_model(self, rng):
        model = build_network("CNN-S")
        workload = extract_workload(model)
        # first conv: 28x28 with padding 2, kernel 5 -> 28x28 windows
        assert workload.layers[0].num_input_vectors == 28 * 28


def _parameter_digest(model: BNNModel) -> str:
    """SHA-256 over every layer's class, scalar settings and arrays."""
    digest = hashlib.sha256()
    for index, layer in enumerate(model.layers):
        digest.update(f"{index}:{type(layer).__name__}".encode())
        state = dict(vars(layer),
                     **{f"param.{k}": v for k, v in layer.params.items()})
        for name in sorted(state):
            value = state[name]
            if isinstance(value, np.ndarray):
                digest.update(f"{name}:{value.dtype.str}:{value.shape}".encode())
                digest.update(value.tobytes())
            elif isinstance(value, (bool, int, float)):
                digest.update(f"{name}={value!r}".encode())
    return digest.hexdigest()


#: parameter digests of the six networks as built before the shape table
#: existed, at the default seeds and at seed 11; they pin the weights the
#: packed engine, the serving layer and their benchmarks run on
PINNED_DIGESTS = {
    (None, "CNN-S"): "80db3777be55bc12c85f9a465b6616fb9715c9e93c8c4467bc93e079ccf4a2ec",
    (None, "CNN-M"): "7c77a666c3c1952609dd499028b84214283af2026e1a20e44e76274ada7255f9",
    (None, "CNN-L"): "d3ff05b98dcc48aea209919d230dfb8c1d25c28db11165c69066ed0c8240f48d",
    (None, "MLP-S"): "c112cc990ab96fac2279a8d202c96a512dce16f0149809bf5bfed88f9373789f",
    (None, "MLP-M"): "a100da00fc5f0fb7c9f0c1c5789a71bcdab4607125a7d766ecdf984a0cfaa36f",
    (None, "MLP-L"): "129e0e0f894ca7e27de4eb17779874ba4fb112a8410ba6bde395d97795e04d93",
    (11, "CNN-S"): "02b526db3472a8c41932563336840d43b90c51ab3ba7ee3b3e57adb2eca20881",
    (11, "CNN-M"): "4188a5aca6581fb69c46354e706ff117a6e10bfc475c3be20e2d2fe3441c1e65",
    (11, "CNN-L"): "bad56c768befbd66e93455c8526d444eb4d7c975418b26450a84a1ac67a6d71a",
    (11, "MLP-S"): "8bdfec0aa5410ab32752dc108b079e6b196994df1106077f4e46b3b4d81ee652",
    (11, "MLP-M"): "acbde8910a1bf86994539a26878e22a98dc9bf7579212aae5318941350750fc9",
    (11, "MLP-L"): "38f7e9e43b5cfcb90970b2b0c6cf33c40a944cf30329028aba9a4e9bc4843e30",
}


class TestShapeTable:
    @pytest.mark.parametrize("name", list_networks())
    def test_get_workload_equals_extraction(self, name):
        assert get_workload(name) == extract_workload(build_network(name))

    def test_get_workload_builds_no_weights(self, monkeypatch):
        def no_weights(*args, **kwargs):
            raise AssertionError("get_workload allocated a weight tensor")

        monkeypatch.setattr(layers, "_kaiming_init", no_weights)
        get_workload.cache_clear()
        try:
            for name in list_networks():
                assert get_workload(name).name == name
        finally:
            get_workload.cache_clear()

    @pytest.mark.parametrize("seed,name", sorted(
        PINNED_DIGESTS, key=lambda key: (key[0] is not None, key[1])
    ))
    def test_weights_match_pinned_digests(self, seed, name):
        model = build_network(name, seed=seed)
        assert _parameter_digest(model) == PINNED_DIGESTS[(seed, name)]
