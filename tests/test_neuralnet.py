"""Tests for the dense network kernel: forward, gradients, parameters, serialization."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberwalk.agent import ActorCritic, deserialize_policy, serialize_policy
from fiberwalk.errors import ContractViolation, NumericError
from fiberwalk.neuralnet import DenseNet, make_dense

from .oracles import backward_one, central_difference, relative_error


def _random_net(rng, dims=None):
    if dims is None:
        depth = rng.integers(1, 4)
        dims = [int(rng.integers(1, 6)) for _ in range(depth + 1)]
    net = make_dense(dims, rng)
    # Nonzero biases exercise every parameter slot.
    net.params[:] = rng.normal(scale=0.7, size=net.n_params)
    return net


def _forward(net, x):
    return net.forward_cached(x)[-1]


class TestForward:
    def test_zero_tanh_net_outputs_zero(self):
        net = make_dense((3, 4, 2), np.random.default_rng(0))
        net.params[:] = 0.0
        assert np.array_equal(_forward(net, np.array([1.0, -2.0, 3.0])), [0.0, 0.0])

    def test_scalar_affine(self):
        net = DenseNet((1, 1), np.array([2.0, 1.0]))  # weight 2, bias 1
        assert _forward(net, np.array([3.0]))[0] == 7.0

    def test_tanh_on_every_layer_but_the_last(self):
        net = DenseNet((1, 1, 1), np.array([2.0, 0.0, 3.0, 1.0]))
        cache = net.forward_cached(np.array([1.0]))
        assert cache[1][0] == np.tanh(2.0)
        assert cache[-1][0] == 3.0 * np.tanh(2.0) + 1.0

    def test_layer_chain_validated(self):
        # Parameters for a 3->2 layer then a 4->1 layer, whose fan-in breaks
        # the chain: widths (3, 2, 1) take 11 parameters, not these 13.
        with pytest.raises(ContractViolation, match="do not fill layer widths"):
            DenseNet((3, 2, 1), np.zeros(6 + 2 + 4 + 1))

    def test_shape_mismatch_rejected(self):
        net = make_dense((3, 2), np.random.default_rng(0))
        with pytest.raises(ContractViolation):
            _forward(net, np.zeros(4))

    def test_nonfinite_reported_with_layer(self):
        net = DenseNet((1, 1, 1), np.array([np.nan, 0.0, 1.0, 0.0]))
        with pytest.raises(NumericError, match="layer 0"):
            _forward(net, np.array([1.0]))

    @pytest.mark.parametrize("part", ["weights", "biases"])
    @pytest.mark.parametrize("layer", [1, 2])
    def test_nonfinite_hidden_layer_is_named(self, layer, part):
        # The NaN reaches the head; the error still names the layer it arose in.
        net = _random_net(np.random.default_rng(layer), dims=(2, 3, 3, 3, 2))
        getattr(net, part)[layer].flat[0] = np.nan
        with pytest.raises(NumericError, match=f"layer {layer}$"):
            _forward(net, np.array([0.5, -1.0]))


class TestBackward:
    def test_linear_gradient_is_outer_product(self):
        net = DenseNet((2, 2), np.array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0]))
        x = np.array([5.0, -1.0])
        g = np.array([2.0, 3.0])
        flat = backward_one(net, net.forward_cached(x), g)
        expect_w = np.outer(g, x)
        assert np.allclose(flat[:4], expect_w.ravel())
        assert np.allclose(flat[4:], g)

    def test_zero_output_grad(self):
        rng = np.random.default_rng(1)
        net = _random_net(rng)
        x = rng.normal(size=net.input_dim)
        flat = backward_one(net, net.forward_cached(x), np.zeros(net.output_dim))
        assert not flat.any()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            net = _random_net(rng)
            x = rng.normal(size=net.input_dim)
            g = rng.normal(size=net.output_dim)
            flat = backward_one(net, net.forward_cached(x), g)

            theta0 = net.param_vector()

            def param_scalar(theta):
                probe = copy.deepcopy(net)
                probe.params[:] = theta
                return float(g @ _forward(probe, x))

            fd = central_difference(param_scalar, theta0)
            assert relative_error(flat, fd) < 1e-4


class TestBatchedBackward:
    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 6), min_size=2, max_size=4),
        k=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_is_the_sum_of_its_rows(self, dims, k, seed):
        rng = np.random.default_rng(seed)
        net = _random_net(rng, dims)
        gs = rng.normal(size=(k, net.output_dim))
        caches = [net.forward_cached(x) for x in rng.normal(size=(k, net.input_dim))]
        flat = net.backward([np.array(rows) for rows in zip(*caches)], gs)
        rows = [backward_one(net, cache, g) for cache, g in zip(caches, gs)]
        assert relative_error(flat, np.sum(rows, axis=0)) < 1e-12

    def test_output_grad_of_the_wrong_shape_rejected(self):
        net = make_dense((3, 2), np.random.default_rng(0))
        cache = net.forward_cached(np.zeros(3))
        for shape in [(3,), (1, 3), (1, 1, 2)]:
            with pytest.raises(ContractViolation):
                net.backward(cache, np.zeros(shape))

    def test_one_dimensional_output_grad_rejected(self):
        # Only the (K, out) batch form is taken; one state is the batch of one.
        net = make_dense((3, 2), np.random.default_rng(0))
        cache = net.forward_cached(np.zeros(3))
        with pytest.raises(ContractViolation, match=r"expected \(K, 2\)"):
            net.backward(cache, np.zeros(2))
        flat = net.backward([z[None] for z in cache], np.zeros((1, 2)))
        assert flat.shape == (net.n_params,)


class TestParamVector:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        net = _random_net(rng)
        vec = net.param_vector()
        clone = copy.deepcopy(net)
        clone.params[:] = vec
        assert np.array_equal(clone.param_vector(), vec)

    def test_layers_are_views_of_the_vector_in_its_order(self):
        vec = np.arange(17.0)  # widths 2, 3, 2: 6 + 3 + 6 + 2 parameters
        net = DenseNet((2, 3, 2), vec)
        assert net.dims == (2, 3, 2)
        assert np.array_equal(net.param_vector(), vec)
        assert all(np.shares_memory(part, vec) for part in net.weights + net.biases)
        assert np.array_equal(net.weights[1], [[9.0, 10.0, 11.0], [12.0, 13.0, 14.0]])

    def test_constructed_layers_are_views_of_an_owned_vector(self):
        net = make_dense((2, 3, 2), np.random.default_rng(0))
        assert net.params.base is None and net.params.shape == (17,)
        assert all(np.shares_memory(part, net.params) for part in net.weights + net.biases)
        net.params[:] = np.arange(17.0)
        assert np.array_equal(net.biases[1], [15.0, 16.0])

    def test_length_validated(self):
        for size in (16, 18):  # the widths take 17
            with pytest.raises(ContractViolation, match="do not fill layer widths"):
                DenseNet((2, 3, 2), np.zeros(size))

    def test_init_ranges(self):
        net = make_dense((16, 8), np.random.default_rng(4))
        bound = 1.0 / 4.0
        assert np.all(np.abs(net.weights[0]) <= bound)
        assert not net.biases[0].any()


class TestSerialization:
    def test_bit_exact_round_trip(self):
        # A network's only text form is the policy file that carries it.
        rng = np.random.default_rng(5)
        for _ in range(5):
            hidden = [int(rng.integers(1, 6)) for _ in range(rng.integers(1, 4))]
            dims = [int(rng.integers(1, 6)), *hidden, 2 * int(rng.integers(1, 4))]
            net = _random_net(rng, dims)
            ac = ActorCritic(
                net=net,
                critic_weights=rng.normal(size=hidden[-1]),
                coeff_min=-2,
                coeff_max=2,
                mask_k=None,
                ball_radius=1e3,
                input_scale=1.0,
                sigma_min=0.5,
            )
            back = deserialize_policy(serialize_policy(ac, "ab" * 32))[0].net
            assert back.dims == net.dims
            assert back.param_vector().tobytes() == net.param_vector().tobytes()
