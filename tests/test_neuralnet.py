"""Tests for the dense network kernel: forward, gradients, serialization."""

import copy

import numpy as np
import pytest

from fiberwalk.errors import ContractViolation, NumericError
from fiberwalk.neuralnet import (
    DenseNet,
    make_dense,
    parse_dense,
    project_to_ball,
    serialize_dense,
)

from .oracles import central_difference, relative_error


def _random_net(rng, dims=None, activations=None):
    if dims is None:
        depth = rng.integers(1, 4)
        dims = [int(rng.integers(1, 6)) for _ in range(depth + 1)]
    if activations is None:
        activations = [
            str(rng.choice(["tanh", "identity"])) for _ in range(len(dims) - 1)
        ]
    net = make_dense(dims, activations, rng)
    # Nonzero biases exercise every parameter slot.
    net.set_param_vector(rng.normal(scale=0.7, size=net.n_params))
    return net


class TestForward:
    def test_zero_tanh_net_outputs_zero(self):
        net = make_dense((3, 4, 2), ["tanh", "tanh"], np.random.default_rng(0))
        net.set_param_vector(np.zeros(net.n_params))
        assert np.array_equal(net.forward(np.array([1.0, -2.0, 3.0])), [0.0, 0.0])

    def test_identity_layer_passthrough(self):
        net = DenseNet(
            weights=[np.eye(3)], biases=[np.zeros(3)], activations=["identity"]
        )
        x = np.array([0.5, -1.5, 2.0])
        assert np.array_equal(net.forward(x), x)

    def test_scalar_affine(self):
        net = DenseNet(
            weights=[np.array([[2.0]])],
            biases=[np.array([1.0])],
            activations=["identity"],
        )
        assert net.forward(np.array([3.0]))[0] == 7.0

    def test_shape_mismatch_rejected(self):
        net = make_dense((3, 2), ["tanh"], np.random.default_rng(0))
        with pytest.raises(ContractViolation):
            net.forward(np.zeros(4))

    def test_nonfinite_reported_with_layer(self):
        net = DenseNet(
            weights=[np.array([[np.inf]]), np.array([[1.0]])],
            biases=[np.zeros(1), np.zeros(1)],
            activations=["identity", "identity"],
        )
        with pytest.raises(NumericError, match="layer 0"):
            net.forward(np.array([1.0]))

    def test_layer_chain_validated(self):
        with pytest.raises(ContractViolation):
            DenseNet(
                weights=[np.zeros((2, 3)), np.zeros((1, 4))],
                biases=[np.zeros(2), np.zeros(1)],
                activations=["tanh", "identity"],
            )


class TestBackward:
    def test_linear_gradient_is_outer_product(self):
        net = DenseNet(
            weights=[np.array([[1.0, 2.0], [3.0, 4.0]])],
            biases=[np.zeros(2)],
            activations=["identity"],
        )
        x = np.array([5.0, -1.0])
        g = np.array([2.0, 3.0])
        _, cache = net.forward_cached(x)
        flat, input_grad = net.backward(cache, g)
        expect_w = np.outer(g, x)
        assert np.allclose(flat[:4], expect_w.ravel())
        assert np.allclose(flat[4:], g)
        assert np.allclose(input_grad, net.weights[0].T @ g)

    def test_zero_output_grad(self):
        rng = np.random.default_rng(1)
        net = _random_net(rng)
        x = rng.normal(size=net.input_dim)
        _, cache = net.forward_cached(x)
        flat, input_grad = net.backward(cache, np.zeros(net.output_dim))
        assert not flat.any() and not input_grad.any()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            net = _random_net(rng)
            x = rng.normal(size=net.input_dim)
            g = rng.normal(size=net.output_dim)
            _, cache = net.forward_cached(x)
            flat, input_grad = net.backward(cache, g)

            theta0 = net.param_vector()

            def param_scalar(theta):
                probe = copy.deepcopy(net)
                probe.set_param_vector(theta)
                return float(g @ probe.forward(x))

            fd = central_difference(param_scalar, theta0)
            assert relative_error(flat, fd) < 1e-4

            fd_in = central_difference(lambda v: float(g @ net.forward(v)), x)
            assert relative_error(input_grad, fd_in) < 1e-4


class TestParamVector:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        net = _random_net(rng)
        vec = net.param_vector()
        clone = copy.deepcopy(net)
        clone.set_param_vector(vec)
        assert np.array_equal(clone.param_vector(), vec)

    def test_length_validated(self):
        net = make_dense((2, 2), ["tanh"], np.random.default_rng(0))
        with pytest.raises(ContractViolation):
            net.set_param_vector(np.zeros(net.n_params + 1))

    def test_init_ranges(self):
        net = make_dense((16, 8), ["tanh"], np.random.default_rng(4))
        bound = 1.0 / 4.0
        assert np.all(np.abs(net.weights[0]) <= bound)
        assert not net.biases[0].any()


class TestProjection:
    def test_inside_ball_untouched(self):
        v = np.array([1.0, 2.0])
        assert project_to_ball(v, 10.0) is v

    def test_outside_ball_scaled(self):
        v = np.array([3.0, 4.0])
        out = project_to_ball(v, 1.0)
        assert np.isclose(np.linalg.norm(out), 1.0)
        assert np.allclose(out, v / 5.0)


class TestSerialization:
    def test_bit_exact_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            net = _random_net(rng)
            back = parse_dense(serialize_dense(net).splitlines(), 0)[0]
            assert back.layout() == net.layout()
            assert np.array_equal(back.param_vector(), net.param_vector())

    def test_rejects_garbage(self):
        from fiberwalk.errors import ValidationError

        with pytest.raises(ValidationError):
            parse_dense(["something else"], 0)

    def test_malformed_layer_line_names_its_line(self):
        from fiberwalk.errors import ValidationError

        lines = serialize_dense(_random_net(np.random.default_rng(1))).splitlines()
        lines[2] = "layer in=3 act=tanh"
        with pytest.raises(ValidationError, match="line 3: expected layer"):
            parse_dense(lines, 0)
