"""Tests for the actor-critic learner: policy, GAE, updates, training."""

import base64
import copy
import dataclasses
import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fiberwalk import agent as agent_module
from fiberwalk.agent import (
    SIGMA_FLOOR_MIN,
    SIGMA_MAX,
    SIGMA_MIN,
    ActorCritic,
    Trajectory,
    TrainConfig,
    _apply_step,
    actor_update,
    compute_gae,
    critic_update,
    critic_value,
    deserialize_policy,
    make_actor_critic,
    mask_coefficients,
    policy_distribution,
    policy_sample,
    serialize_policy,
    train,
    width_defaults,
    window_scores,
    write_train_log,
)
from fiberwalk.errors import ContractViolation, NumericError, ValidationError
from fiberwalk.fibermdp import FiberEnv, MdpConfig
from fiberwalk.lattice import compute_lattice_basis
from fiberwalk.models import (
    all_two_way,
    beta_model,
    build_design_matrix,
    independence,
    observe_graph,
    observe_table,
)
from fiberwalk.neuralnet import DenseNet

from .oracles import (
    central_difference,
    gae_double_sum,
    gaussian_log_density,
    mask_by_every_class,
    mask_coefficients as argsort_mask,
    policy_header_lines,
    policy_log_density,
    relative_error,
    sample_score,
    score_gradient,
    step_score,
    train_every_step,
    window_direction_oracle,
)


def _small_ac(seed=0, state_dim=4, n_coeffs=2, hidden=(5,), **kw):
    ac = make_actor_critic(state_dim, n_coeffs, hidden=hidden, seed=seed, **kw)
    rng = np.random.default_rng(seed + 100)
    ac.net.params[:] = rng.normal(scale=0.4, size=ac.net.n_params)
    ac.critic_weights = rng.normal(scale=0.4, size=len(ac.critic_weights))
    return ac


def _features(ac, state):
    """The network's last hidden layer at ``state`` (input scale 1)."""
    return ac.net.forward_cached(np.asarray(state, dtype=float))[-2]


def _manual_window(ac, states, rng, rewards=None):
    """Roll the policy over fixed states, collecting a Trajectory and its samples."""
    k = len(states) - 1
    samples = [policy_sample(ac, s, rng) for s in states[:-1]]
    end_cache = ac.net.forward_cached(np.asarray(states[-1], dtype=float))
    if rewards is None:
        rewards = -np.abs(np.random.default_rng(5).normal(size=k))
    traj = Trajectory(
        layers=[np.array(rows) for rows in zip(*(x.cache for x in samples), end_cache)],
        scores=np.array([sample_score(ac, x) for x in samples]),
        rewards=np.asarray(rewards, dtype=float),
        values=np.array([critic_value(ac, x.features) for x in samples]),
        bootstrap_value=float(end_cache[-2] @ ac.critic_weights),
    )
    return traj, samples


class TestPolicySample:
    def test_zero_parameters_give_standard_normal(self):
        ac = make_actor_critic(4, 3, hidden=(5,), seed=0)
        ac.net.params[:] = 0.0
        mu, sigma = policy_distribution(ac, np.array([1, 2, 0, 4]))
        assert np.array_equal(mu, np.zeros(3))
        assert np.array_equal(sigma, np.ones(3))

    def test_rounding_clamping_masking_consistent(self):
        rng = np.random.default_rng(7)
        ac = _small_ac(n_coeffs=5, mask_k=2)
        for _ in range(50):
            sample = policy_sample(ac, np.array([1, 0, 2, 3]), rng)
            expect = np.clip(np.rint(sample.continuous), ac.coeff_min, ac.coeff_max)
            expect = mask_coefficients(expect.astype(np.int64), 2)
            assert np.array_equal(sample.coeffs, expect)
            assert np.count_nonzero(sample.coeffs) <= 2

    def test_clamps_to_bounds(self):
        ac = _small_ac(n_coeffs=2)
        # Push the mean head far above the upper bound.
        ac.net.biases[-1][:2] = 50.0
        sample = policy_sample(ac, np.array([0, 0, 0, 0]), np.random.default_rng(0))
        assert np.all(sample.coeffs == ac.coeff_max)

    def test_standard_normal_draw_has_the_bits_of_normal(self):
        # The draw is mu + sigma * standard_normal; every pinned digest assumes
        # it equals rng.normal(mu, sigma) bit for bit.
        mu = np.linspace(-40.0, 40.0, 60)
        sigma = np.tile([SIGMA_MIN, 1.0, SIGMA_MAX, 0.37], 15)
        want = np.random.default_rng(2024).normal(mu, sigma)
        shifted = mu + sigma * np.random.default_rng(2024).standard_normal(len(mu))
        assert np.array_equal(shifted, want)
        ac = make_actor_critic(4, len(mu), hidden=(5,), coeff_min=-50, coeff_max=50)
        drawn = policy_sample(ac, None, np.random.default_rng(2024), dist=(mu, sigma))
        assert np.array_equal(drawn.continuous, want)

    @settings(max_examples=200, deadline=None)
    @given(
        state=hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, 2**60)),
        scale=st.floats(1e-3, 1e6),
    )
    def test_dividing_an_integer_state_casts_it_first(self, state, scale):
        # The network's input is np.divide(state, input_scale); every pinned digest
        # assumes it has the bits of the float cast divided by the scale.
        want = np.asarray(state, dtype=float) / scale
        assert np.divide(state, scale).tobytes() == want.tobytes()
        ac = make_actor_critic(len(state), 2, hidden=(3,), input_scale=scale)
        assert agent_module._forward(ac, state)[0].tobytes() == want.tobytes()

    def test_given_distribution_skips_the_network(self):
        ac = _small_ac(n_coeffs=5, mask_k=2)
        state = np.array([1, 0, 2, 3])
        dist = policy_distribution(ac, state)
        full = policy_sample(ac, state, np.random.default_rng(3))
        reused = policy_sample(ac, state, np.random.default_rng(3), dist=dist)
        assert np.array_equal(full.continuous, reused.continuous)
        assert np.array_equal(full.coeffs, reused.coeffs)
        assert reused.features is None
        assert full.cache is not None and reused.cache is None

    def test_log_prob_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            ac = _small_ac(seed=trial)
            state = rng.integers(0, 5, size=ac.state_dim)
            sample = policy_sample(ac, state, rng)
            theta0 = ac.actor_params()

            def logpi(theta):
                probe = copy.deepcopy(ac)
                probe.net.params[:] = theta
                return policy_log_density(probe, state, sample.continuous)

            fd = central_difference(logpi, theta0)
            assert relative_error(score_gradient(ac, sample), fd) < 1e-4


class TestOneNetworkPass:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"forward_cached": 0, "backward": 0}
        for name in calls:
            original = getattr(DenseNet, name)

            def counted(net, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(net, *args)

            monkeypatch.setattr(DenseNet, name, counted)
        return calls

    def test_policy_evaluation_is_one_forward_pass(self, calls):
        ac = _small_ac(hidden=(5, 4))
        assert [v for v in vars(ac).values() if isinstance(v, DenseNet)] == [ac.net]
        state = np.array([1, 0, 2, 3])
        policy_distribution(ac, state)
        assert calls == {"forward_cached": 1, "backward": 0}
        sample = policy_sample(ac, state, np.random.default_rng(0))
        assert calls == {"forward_cached": 2, "backward": 0}
        assert not [v for v in vars(sample).values() if isinstance(v, DenseNet)]
        assert critic_value(ac, sample.features) == critic_value(ac, _features(ac, state))

    @staticmethod
    def _count_feasible(monkeypatch):
        feasible = []
        original = FiberEnv.step

        def step(env, coeffs):
            outcome = original(env, coeffs)
            feasible.append(outcome.feasible)
            return outcome

        monkeypatch.setattr(FiberEnv, "step", step)
        return feasible

    def test_one_forward_per_state_and_one_backward_per_window(self, calls, monkeypatch):
        feasible = self._count_feasible(monkeypatch)
        dm = build_design_matrix(independence(2, 2))
        env = FiberEnv(dm, compute_lattice_basis(dm), np.array([2, 1, 1, 2]))
        ac = make_actor_critic(4, 1, hidden=(6, 3), seed=0)
        log = train(env, ac, TrainConfig(episodes=1, window=8), start=env.current)
        # One forward pass at each window's first state and one at the state after
        # each feasible step, the bootstrap's included: a step rejected in place
        # reuses the pass at its state.  One backward pass per window, over all of
        # its steps at once.
        assert len(feasible) == env.config.steps_per_episode
        assert (len(log), sum(feasible)) == (13, 74)
        assert calls == {"forward_cached": len(log) + sum(feasible), "backward": len(log)}

    def test_a_rejection_heavy_fiber_skips_most_passes(self, calls, monkeypatch):
        feasible = self._count_feasible(monkeypatch)
        spec = all_two_way(3, 3, 3, structural_zeros={0, 13, 26})
        dm = build_design_matrix(spec)
        table = np.random.default_rng(1).integers(1, 5, size=27)
        table[[0, 13, 26]] = 0
        data = observe_table(spec, dm, table.reshape(3, 3, 3))
        env = FiberEnv(dm, compute_lattice_basis(dm), data.counts)
        ac = make_actor_critic(dm.n_cols, env.basis.count, hidden=(8, 8), seed=1,
                               input_scale=4.0)
        log = train(env, ac, TrainConfig(episodes=2, seed=1), start=data.counts)
        steps = len(feasible)
        assert calls == {"forward_cached": len(log) + sum(feasible), "backward": len(log)}
        assert calls["forward_cached"] < (steps + len(log)) / 2


class TestWindowScores:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 9),
        c=st.integers(1, 6),
        mask_k=st.sampled_from([None, 1, 2]),
        sigma_min=st.sampled_from([SIGMA_MIN, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_each_row_has_the_bits_of_the_per_step_formula(
        self, k, c, mask_k, sigma_min, seed, data
    ):
        assume(mask_k is None or mask_k <= c)
        ac = _small_ac(seed=seed % 1000, n_coeffs=c, hidden=(5,), mask_k=mask_k,
                       sigma_min=sigma_min)
        # Each log-sigma output is pinned below the floor, pinned above SIGMA_MAX, or
        # left free; the last layer's weights are too small to move a pinned one across.
        pins = data.draw(st.lists(st.sampled_from(["floor", "max", "free"]), min_size=c,
                                  max_size=c))
        offsets = {"floor": np.log(sigma_min) - 2.0, "max": np.log(SIGMA_MAX) + 2.0, "free": 0.0}
        ac.net.weights[-1][c:] *= 0.1
        ac.net.biases[-1][c:] = [offsets[pin] for pin in pins]
        rng = np.random.default_rng(seed)
        samples = [policy_sample(ac, rng.integers(0, 5, size=4), rng) for _ in range(k)]
        block = window_scores(ac, np.array([x.cache[-1] for x in samples]),
                              np.array([x.continuous for x in samples]))
        assert block.shape == (k, 2 * c)
        for row, x in zip(block, samples):
            assert row.tobytes() == step_score(ac, x.cache[-1], x.continuous).tobytes()
        free = np.array([pin == "free" for pin in pins])
        assert not block[:, c:][:, ~free].any()

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 9), c=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_finite_for_stddevs_pinned_at_the_least_floor(self, k, c, seed):
        # Every stddev is pinned at the least floor, whose cube is still a normal float.
        ac = _small_ac(seed=seed % 1000, n_coeffs=c, hidden=(5,), sigma_min=SIGMA_FLOOR_MIN)
        ac.net.weights[-1][c:] *= 0.1
        ac.net.biases[-1][c:] = np.log(SIGMA_FLOOR_MIN) - 2.0
        rng = np.random.default_rng(seed)
        states = rng.integers(0, 5, size=(k, 4))
        assert all((policy_distribution(ac, s)[1] == SIGMA_FLOOR_MIN).all() for s in states)
        samples = [policy_sample(ac, s, rng) for s in states]
        block = window_scores(ac, np.array([x.cache[-1] for x in samples]),
                              np.array([x.continuous for x in samples]))
        assert np.isfinite(block).all() and not block[:, c:].any()

    def test_computed_once_per_window(self, monkeypatch):
        calls = []
        original = agent_module.window_scores

        def counted(ac, head_out, continuous):
            calls.append(len(head_out))
            return original(ac, head_out, continuous)

        monkeypatch.setattr(agent_module, "window_scores", counted)
        dm = build_design_matrix(independence(2, 2))
        env = FiberEnv(dm, compute_lattice_basis(dm), np.array([2, 1, 1, 2]))
        ac = make_actor_critic(4, 1, hidden=(6, 3), seed=0)
        log = train(env, ac, TrainConfig(episodes=2, window=8), start=env.current)
        # 100 steps an episode: twelve windows of 8 steps, then one of 4.
        assert len(calls) == len(log) == 26
        assert calls == 2 * ([8] * 12 + [4])

    def test_non_finite_score_raises_before_either_update(self):
        dm = build_design_matrix(independence(2, 2))
        env = FiberEnv(dm, compute_lattice_basis(dm), np.array([2, 1, 1, 2]))
        # The forward pass refuses a non-finite head, and a stddev of at least
        # SIGMA_FLOOR_MIN gives a finite score.  A floor of 1e-300, set after the
        # construction that refuses it, does not: sigma**2 underflows to 0, so the
        # score of a stddev pinned there divides by zero.
        ac = _small_ac(n_coeffs=1, hidden=(3,))
        ac.sigma_min = 1e-300
        ac.net.biases[-1][1] = -800.0
        before = ac.actor_params(), ac.critic_weights.copy()
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            with pytest.raises(NumericError, match="non-finite policy gradient"):
                train(env, ac, TrainConfig(episodes=1, window=4), start=env.current)
        assert ac.actor_params().tobytes() == before[0].tobytes()
        assert ac.critic_weights.tobytes() == before[1].tobytes()


class TestMasking:
    def test_keeps_largest_by_magnitude(self):
        out = mask_coefficients(np.array([1, -3, 2, 0]), 2)
        assert np.array_equal(out, [0, -3, 2, 0])

    def test_ties_break_to_lowest_index(self):
        out = mask_coefficients(np.array([1, -1, 1]), 2)
        assert np.array_equal(out, [1, -1, 0])

    def test_never_increases_support_never_alters_kept(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            coeffs = rng.integers(-2, 3, size=8)
            k = int(rng.integers(1, 9))
            out = mask_coefficients(coeffs, k)
            assert np.count_nonzero(out) <= min(k, np.count_nonzero(coeffs))
            kept = out != 0
            assert np.array_equal(out[kept], coeffs[kept])

    def test_none_is_identity(self):
        coeffs = np.array([2, -1, 0])
        assert mask_coefficients(coeffs, None) is coeffs

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_bytes_as_a_stable_argsort(self, data):
        # Integer draws in a few magnitude classes: ties in every class, all-zero
        # vectors, and mask_k at or above the nonzero count.
        bound = data.draw(st.sampled_from([2, 4]))
        size = data.draw(st.integers(1, 60))
        coeffs = data.draw(hnp.arrays(np.int64, size, elements=st.integers(-bound, bound)))
        if data.draw(st.integers(0, 9)) == 0:
            coeffs[:] = 0
        k = data.draw(st.integers(1, size + 1))
        got, want = mask_coefficients(coeffs, k), argsort_mask(coeffs, k)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_bytes_as_a_scan_of_every_class(self, data):
        # The mask stops once it has kept mask_k entries; the reference scans
        # every smaller class too.  Wide bounds leave many classes to skip.
        bound = data.draw(st.sampled_from([1, 2, 5, 12]))
        size = data.draw(st.integers(1, 60))
        coeffs = data.draw(hnp.arrays(np.int64, size, elements=st.integers(-bound, bound)))
        k = data.draw(st.integers(1, size + 1))
        got, want = mask_coefficients(coeffs, k), mask_by_every_class(coeffs, k)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_stops_once_mask_k_are_kept(self, monkeypatch):
        # The largest class alone fills the mask, so the four smaller ones are never scanned.
        scans = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: scans.append(1) or flatnonzero(a))
        out = mask_coefficients(np.array([5, 0, -1, 2, -5, 3]), 2)
        assert out.tolist() == [5, 0, 0, 0, -5, 0]
        assert len(scans) == 1

    def test_same_bytes_as_a_stable_argsort_on_wide_sparse_draws(self):
        # A wide beta-model draw: 2,345 rounded coefficients, mostly 0.
        rng = np.random.default_rng(7)
        for sigma in (0.3, 0.6, 1.0, 3.0):
            for _ in range(50):
                coeffs = np.rint(rng.normal(0.0, sigma, 2345)).clip(-2, 2).astype(np.int64)
                got, want = mask_coefficients(coeffs, 10), argsort_mask(coeffs, 10)
                assert got.tobytes() == want.tobytes()

    def test_default_rule(self):
        # Past 100 cells the mask keeps 10 coefficients, unless there are at most 10.
        assert width_defaults(100, 50)[0] is None
        assert width_defaults(101, 11)[0] == 10
        assert width_defaults(101, 10)[0] is None
        assert width_defaults(101, 6)[0] is None
        # The stddev floor keys off the same width: a unit floor, then SIGMA_MIN.
        assert (width_defaults(100, 50)[1], width_defaults(101, 6)[1]) == (1.0, SIGMA_MIN)


class TestCriticValue:
    def test_zero_weights(self):
        ac = _small_ac()
        ac.critic_weights = np.zeros(len(ac.critic_weights))
        assert critic_value(ac, _features(ac, np.array([1, 2, 3, 4]))) == 0.0

    def test_scalar_inner_product(self):
        net = DenseNet((1, 1, 2), np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        ac = ActorCritic(
            net=net, critic_weights=np.array([3.0]),
            coeff_min=-2, coeff_max=2, mask_k=None, ball_radius=1e3, input_scale=1.0,
            sigma_min=1.0,
        )
        assert critic_value(ac, _features(ac, np.array([1.0]))) == 3 * np.tanh(2.0)

    def test_lipschitz_in_weights(self):
        rng = np.random.default_rng(1)
        ac = _small_ac()
        state = np.array([2, 1, 0, 3])
        phi = _features(ac, state)
        for _ in range(20):
            bump = rng.normal(scale=0.1, size=len(ac.critic_weights))
            before = critic_value(ac, phi)
            ac2 = copy.deepcopy(ac)
            ac2.critic_weights = ac.critic_weights + bump
            after = critic_value(ac2, phi)
            assert abs(after - before) <= np.linalg.norm(bump) * np.linalg.norm(phi) + 1e-12


class TestComputeGae:
    def test_single_step_is_delta(self):
        adv = compute_gae([-1.0], [0.5], 0.25, 0.9, 0.7)
        delta = -1.0 + 0.9 * 0.25 - 0.5
        assert adv[0] == pytest.approx(delta)

    def test_lambda_zero_collapses_to_deltas(self):
        rng = np.random.default_rng(2)
        rewards = -rng.random(6)
        values = rng.normal(size=6)
        adv = compute_gae(rewards, values, 0.3, 0.99, 0.0)
        deltas = rewards + 0.99 * np.append(values[1:], 0.3) - values
        np.testing.assert_allclose(adv, deltas, atol=1e-15)

    def test_worked_example(self):
        # deltas (1, 1), gamma=0.5, lambda=1 -> first advantage 1.5.
        adv = compute_gae([1.0, 1.0], [0.0, 0.0], 0.0, 0.5, 1.0)
        assert adv[0] == pytest.approx(1.5)
        assert adv[1] == pytest.approx(1.0)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            k = int(rng.integers(1, 21))
            rewards = -rng.random(k)
            values = rng.normal(size=k)
            bootstrap = float(rng.normal())
            gamma = float(rng.uniform(0.5, 0.999))
            lam = float(rng.uniform(0, 1))
            got = compute_gae(rewards, values, bootstrap, gamma, lam)
            want = gae_double_sum(rewards, values, bootstrap, gamma, lam)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_lambda_one_telescopes_to_returns(self):
        rng = np.random.default_rng(6)
        k = 7
        rewards = -rng.random(k)
        values = rng.normal(size=k)
        bootstrap = float(rng.normal())
        gamma = 0.9
        adv = compute_gae(rewards, values, bootstrap, gamma, 1.0)
        for t in range(k):
            ret = sum(gamma ** (l - t) * rewards[l] for l in range(t, k))
            ret += gamma ** (k - t) * bootstrap
            assert adv[t] == pytest.approx(ret - values[t], abs=1e-12)


@pytest.fixture
def uncapped(monkeypatch):
    """Actor steps of any length, so that a step shows the update's whole direction."""
    monkeypatch.setattr(agent_module, "ACTOR_STEP_CAP", np.inf)


class TestActorUpdate:
    def test_zero_advantages_leave_parameters_unchanged(self):
        ac = _small_ac()
        # Zero critic and zero rewards make every temporal difference 0.
        ac.critic_weights = np.zeros(len(ac.critic_weights))
        rng = np.random.default_rng(0)
        states = [np.array([1, 0, 0, 1])] * 4
        traj, _ = _manual_window(ac, states, rng, rewards=np.zeros(3))
        before = ac.actor_params()
        actor_update(ac, traj, 0.1, 0.9, 0.95)
        np.testing.assert_allclose(ac.actor_params(), before, atol=1e-12)

    def test_single_step_direction(self, uncapped):
        ac = _small_ac(seed=3)
        rng = np.random.default_rng(3)
        states = [np.array([2, 0, 1, 1]), np.array([1, 1, 0, 2])]
        traj, samples = _manual_window(ac, states, rng, rewards=[-1.5])
        gamma, lam, step = 0.99, 0.95, 0.01
        delta = traj.rewards[0] + gamma * traj.bootstrap_value - traj.values[0]
        before = ac.actor_params()
        log_prob_grad = score_gradient(ac, samples[0])  # before the update changes the network
        actor_update(ac, traj, step, gamma, lam)
        np.testing.assert_allclose(
            ac.actor_params() - before, step * delta * log_prob_grad, atol=1e-12
        )

    def test_direction_matches_surrogate_finite_differences(self, uncapped):
        ac = _small_ac(seed=9)
        rng = np.random.default_rng(9)
        states = [np.array([1, 1, 0, 0]), np.array([0, 1, 1, 0]), np.array([1, 0, 1, 0])]
        traj, samples = _manual_window(ac, states, rng, rewards=[-0.5, -1.0])
        gamma, lam = 0.9, 0.8
        adv = compute_gae(traj.rewards, traj.values, traj.bootstrap_value, gamma, lam)
        theta0 = ac.actor_params()

        def surrogate(theta):
            probe = copy.deepcopy(ac)
            probe.net.params[:] = theta
            total = 0.0
            for k, s in enumerate(states[:-1]):
                total += adv[k] * policy_log_density(probe, s, samples[k].continuous)
            return total / len(adv)

        fd = central_difference(surrogate, theta0)
        probe = copy.deepcopy(ac)
        actor_update(probe, traj, 1.0, gamma, lam)
        direction = probe.actor_params() - theta0  # step size 1, inside the ball
        assert relative_error(direction, fd) < 1e-4

    @pytest.mark.parametrize("case", ["unmasked", "mask_k=2", "clamped-sigma"])
    def test_direction_is_the_average_of_per_step_score_gradients(self, case, uncapped):
        # A window of 8 steps at 3x3 independence sizes: 9 cells, 4 basis coefficients.
        mask_k = 2 if case == "mask_k=2" else None
        ac = _small_ac(seed=4, state_dim=9, n_coeffs=4, hidden=(6, 5), mask_k=mask_k,
                       sigma_min=1e-3)
        if case == "clamped-sigma":
            ac.net.biases[-1][4:6] = 20.0  # sigma above SIGMA_MAX: pinned by the clamp
        rng = np.random.default_rng(8)
        states = [rng.integers(0, 6, size=9) for _ in range(9)]
        traj, samples = _manual_window(ac, states, rng)
        if case == "clamped-sigma":
            assert not traj.scores[:, 4:6].any() and traj.scores[:, 6:].any()
        gamma, lam = 0.9, 0.7
        adv = compute_gae(traj.rewards, traj.values, traj.bootstrap_value, gamma, lam)
        want = window_direction_oracle(ac, samples, adv)
        theta0 = ac.actor_params()
        actor_update(ac, traj, 1.0, gamma, lam)  # step size 1, inside the ball
        assert relative_error(ac.actor_params() - theta0, want) < 1e-12

    def test_projection_keeps_parameters_in_ball(self):
        ac = _small_ac(ball_radius=1.0)
        rng = np.random.default_rng(12)
        states = [np.array([1, 0, 0, 1])] * 3
        traj, _ = _manual_window(ac, states, rng, rewards=[-3.0, -4.0])
        actor_update(ac, traj, 100.0, 0.99, 0.95)
        assert np.linalg.norm(ac.actor_params()) <= 1.0 + 1e-9

    def test_long_step_is_capped_to_max_step_along_its_direction(self, monkeypatch):
        ac = _small_ac(seed=5)
        rng = np.random.default_rng(5)
        states = [np.array([2, 1, 0, 1]), np.array([0, 1, 2, 1]), np.array([1, 1, 1, 1])]
        traj, _ = _manual_window(ac, states, rng, rewards=[-2.0, -3.0])
        theta0 = ac.actor_params()
        free = copy.deepcopy(ac)
        with monkeypatch.context() as patch:
            patch.setattr(agent_module, "ACTOR_STEP_CAP", np.inf)
            actor_update(free, traj, 1.0, 0.9, 0.8)
        raw = free.actor_params() - theta0
        max_step = agent_module.ACTOR_STEP_CAP
        assert np.linalg.norm(raw) > 2 * max_step
        actor_update(ac, traj, 1.0, 0.9, 0.8)
        applied = ac.actor_params() - theta0
        assert np.linalg.norm(applied) == pytest.approx(max_step, abs=1e-12)
        np.testing.assert_allclose(
            applied / max_step, raw / np.linalg.norm(raw), rtol=0, atol=1e-12
        )

    def test_nonfinite_step_raises_and_leaves_parameters_unchanged(self):
        ac = _small_ac(seed=6)
        rng = np.random.default_rng(6)
        states = [np.array([1, 0, 2, 1])] * 4
        traj, _ = _manual_window(ac, states, rng)
        scores = traj.scores.copy()
        scores[1, 0] = np.nan
        before = ac.actor_params()
        with pytest.raises(NumericError, match="non-finite actor parameters"):
            actor_update(ac, dataclasses.replace(traj, scores=scores), 0.1, 0.9, 0.8)
        assert ac.actor_params().tobytes() == before.tobytes()

    def test_update_peak_memory_is_near_one_parameter_vector(self):
        # The backward pass's gradient is the one parameter-sized array an update
        # makes; building the step by copies took about 4 times the parameters.
        ac = make_actor_critic(400, 200, hidden=(64, 64), seed=2)
        rng = np.random.default_rng(2)
        states = [rng.integers(0, 4, size=400) for _ in range(9)]
        traj, _ = _manual_window(ac, states, rng)
        actor_update(ac, traj, 0.05, 0.9, 0.8)
        tracemalloc.start()
        try:
            actor_update(ac, traj, 0.05, 0.9, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ac.net.params.nbytes


class TestApplyStep:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_direction_raises_before_params_change(self, bad):
        params = np.arange(5.0)
        direction = np.ones(5)
        direction[2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="non-finite w "):
            _apply_step(params, direction, 0.5, 1.0, 1e3, "w")
        assert params.tobytes() == np.arange(5.0).tobytes()

    def test_finite_direction_whose_norm_overflows_takes_a_zero_step(self):
        # Each entry is finite, but the sum of squares is inf: the cap scales the
        # step by max_step / inf = 0.
        params = np.arange(5.0)
        direction = np.full(5, 1e200)
        with np.errstate(over="ignore"):
            _apply_step(params, direction, 1.0, 1.0, 1e3, "w")
        assert params.tobytes() == np.arange(5.0).tobytes()
        assert direction.tobytes() == np.zeros(5).tobytes()


class TestDeepCopy:
    @pytest.mark.parametrize("change", ["actor_update", "params_write"])
    def test_a_copy_changes_only_its_own_vector(self, change):
        ac = _small_ac(seed=7, hidden=(5, 4))
        rng = np.random.default_rng(7)
        states = [np.array([1, 2, 0, 1]), np.array([0, 2, 1, 1]), np.array([1, 1, 1, 1])]
        traj, _ = _manual_window(ac, states, rng, rewards=[-1.0, -2.0])
        x = np.array([1.0, 0.0, 2.0, 1.0])
        theta, out = ac.actor_params(), ac.net.forward_cached(x)[-1]
        probe = copy.deepcopy(ac)
        if change == "actor_update":
            actor_update(probe, traj, 0.5, 0.9, 0.8)
        else:
            probe.net.params[:] = theta + 0.25
        assert not np.array_equal(probe.net.forward_cached(x)[-1], out)
        for part in probe.net.weights + probe.net.biases:
            assert np.shares_memory(part, probe.net.params)
            assert not np.shares_memory(part, ac.net.params)
        assert ac.actor_params().tobytes() == theta.tobytes()
        assert ac.net.forward_cached(x)[-1].tobytes() == out.tobytes()


class TestCriticUpdate:
    def test_exact_values_leave_weights_unchanged(self):
        ac = _small_ac()
        ac.critic_weights = np.zeros(len(ac.critic_weights))
        rng = np.random.default_rng(1)
        states = [np.array([1, 0, 0, 1])] * 4
        traj, _ = _manual_window(ac, states, rng, rewards=np.zeros(3))
        before = ac.critic_weights.copy()
        critic_update(ac, traj, 0.1, 0.99)
        np.testing.assert_allclose(ac.critic_weights, before, atol=1e-12)

    def test_single_step_gamma_zero_direction(self):
        ac = _small_ac(seed=2)
        rng = np.random.default_rng(2)
        states = [np.array([1, 2, 0, 0]), np.array([0, 2, 1, 0])]
        traj, _ = _manual_window(ac, states, rng, rewards=[-2.0])
        omega = ac.critic_weights.copy()
        phi = traj.features[0]
        residual = float(phi @ omega) - (-2.0)
        critic_update(ac, traj, 0.05, 0.0)
        np.testing.assert_allclose(
            ac.critic_weights, omega - 0.05 * residual * phi, atol=1e-12
        )

    def test_repeated_updates_descend_squared_residual(self):
        ac = _small_ac(seed=4)
        rng = np.random.default_rng(4)
        states = [np.array([1, 0, 1, 0]), np.array([0, 1, 0, 1]), np.array([1, 0, 1, 0])]
        traj, _ = _manual_window(ac, states, rng, rewards=[-1.0, -2.0])
        gamma = 0.9
        k = len(traj.rewards)
        decay = gamma ** (k - np.arange(k))
        a = traj.features[:k] - np.outer(decay, traj.features[k])
        returns = np.array(
            [sum(gamma ** (j - t) * traj.rewards[j] for j in range(t, k)) for t in range(k)]
        )

        def objective():
            return float(np.sum((a @ ac.critic_weights - returns) ** 2))

        last = objective()
        for _ in range(40):
            critic_update(ac, traj, 0.02, gamma)
            now = objective()
            assert now <= last + 1e-12
            last = now

    def test_projection_keeps_weights_in_ball(self):
        ac = _small_ac(ball_radius=0.5)
        rng = np.random.default_rng(6)
        states = [np.array([1, 0, 0, 1])] * 3
        traj, _ = _manual_window(ac, states, rng, rewards=[-5.0, -5.0])
        critic_update(ac, traj, 50.0, 0.99)
        assert np.linalg.norm(ac.critic_weights) <= 0.5 + 1e-9


class TestTrajectory:
    def test_positive_rewards_rejected(self):
        with pytest.raises(ContractViolation):
            Trajectory(
                layers=[np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 6))],
                scores=np.zeros((1, 6)),
                rewards=np.array([1.0]),
                values=np.zeros(1),
                bootstrap_value=0.0,
            )

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ContractViolation):
            Trajectory(
                layers=[np.zeros((2, 3)), np.zeros((3, 4)), np.zeros((2, 6))],
                scores=np.zeros((1, 6)),
                rewards=np.array([-1.0]),
                values=np.zeros(1),
                bootstrap_value=0.0,
            )


class TestTrain:
    def _env(self):
        dm = build_design_matrix(independence(2, 2))
        basis = compute_lattice_basis(dm)
        return FiberEnv(dm, basis, np.array([2, 1, 1, 2]))

    def test_zero_episodes_is_a_no_op(self):
        env = self._env()
        ac = make_actor_critic(4, 1, hidden=(6,), seed=0)
        before = ac.actor_params()
        log = train(env, ac, TrainConfig(episodes=0), start=env.current)
        assert log == []
        assert np.array_equal(ac.actor_params(), before)

    def test_identical_seeds_identical_logs(self):
        logs = []
        for _ in range(2):
            env = self._env()
            ac = make_actor_critic(4, 1, hidden=(6,), seed=1)
            logs.append(train(env, ac, TrainConfig(episodes=3, seed=7), start=env.current))
        assert logs[0] == logs[1]

    def test_log_shape_and_bounds(self):
        env = self._env()
        ac = make_actor_critic(4, 1, hidden=(6,), seed=2)
        cfg = TrainConfig(episodes=2, window=8, seed=3)
        log = train(env, ac, cfg, start=env.current)
        # 100 steps per episode in windows of 8: 13 windows per episode.
        assert len(log) == 2 * 13
        for row in log:
            assert row.mean_reward <= 0.0
            assert 0.0 <= row.feasible_fraction <= 1.0
            assert row.alpha > 0 and row.beta > 0
        windows = [row.window for row in log]
        assert windows == sorted(windows)

    @pytest.mark.parametrize("bounds", [(-4, 4), (-1, 1), (-2, 1)])
    def test_policy_bounds_other_than_the_environment_s_refused(self, bounds, monkeypatch):
        # The environment takes -2..2.  A wider policy would die at its first
        # out-of-range draw, a narrower one would train on another action space.
        env = self._env()
        ac = make_actor_critic(4, 1, hidden=(6,), seed=0, coeff_min=bounds[0],
                               coeff_max=bounds[1])
        before = ac.actor_params()
        monkeypatch.setattr(FiberEnv, "step", lambda *args: pytest.fail("stepped"))
        with pytest.raises(ContractViolation, match=r"\[-2, 2\]"):
            train(env, ac, TrainConfig(episodes=1), start=env.current)
        assert np.array_equal(ac.actor_params(), before)

    def test_empty_basis_rejected(self):
        dm = build_design_matrix(independence(2, 2))
        from fiberwalk.lattice import LatticeBasis
        from fiberwalk.errors import ValidationError

        basis = LatticeBasis(vectors=np.zeros((0, 4), dtype=np.int64))
        env = FiberEnv(dm, basis, np.array([1, 0, 0, 1]))
        ac = make_actor_critic(4, 0, hidden=(6,), seed=0)
        with pytest.raises(ValidationError):
            train(env, ac, TrainConfig(episodes=1), start=env.current)

    @settings(max_examples=40, deadline=None)
    @given(
        graph=st.booleans(),
        shape=st.tuples(st.integers(2, 3), st.integers(2, 3)),
        nodes=st.integers(4, 5),
        window=st.integers(1, 9),
        episodes=st.integers(1, 3),
        steps=st.integers(1, 40),
        mask_k=st.sampled_from([None, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_keeping_a_pass_matches_a_pass_at_every_step(
        self, graph, shape, nodes, window, episodes, steps, mask_k, seed
    ):
        rng = np.random.default_rng(seed)
        if graph:  # a random 0/1 graph under the beta model
            spec = beta_model(nodes)
            dm = build_design_matrix(spec)
            pairs = [(i, j) for i in range(nodes) for j in range(i + 1, nodes)]
            edges = [pair for pair in pairs if rng.random() < 0.5]
            counts = observe_graph(spec, dm, edges).counts
        else:  # a random independence table
            spec = independence(*shape)
            dm = build_design_matrix(spec)
            counts = observe_table(spec, dm, rng.integers(0, 5, size=shape)).counts
        basis = compute_lattice_basis(dm)
        ac = make_actor_critic(dm.n_cols, basis.count, hidden=(5, 3), seed=seed % 1000,
                               mask_k=mask_k, input_scale=max(1.0, float(counts.max())))
        cfg = TrainConfig(window=window, episodes=episodes, seed=seed)
        runs = []
        for run in (train, train_every_step):
            env = FiberEnv(dm, basis, counts, MdpConfig(steps_per_episode=steps))
            learner = copy.deepcopy(ac)
            log = run(env, learner, cfg, start=counts)
            runs.append((learner.net.params.tobytes(), learner.critic_weights.tobytes(),
                         [repr(dataclasses.astuple(row)) for row in log]))
        assert runs[0] == runs[1]

    def test_write_train_log(self, tmp_path):
        env = self._env()
        ac = make_actor_critic(4, 1, hidden=(6,), seed=2)
        log = train(env, ac, TrainConfig(episodes=1, seed=3), start=env.current)
        path = tmp_path / "log.csv"
        write_train_log(path, log)
        lines = path.read_text().splitlines()
        assert lines[0] == "window,mean_reward,feasible_fraction,discovered_count,alpha,beta"
        assert len(lines) == len(log) + 1


class TestSchedulesAndConfig:
    def test_default_schedules_decay(self):
        actor, critic = TrainConfig().schedules()
        assert actor(1) == pytest.approx(0.05)
        assert actor(8) == pytest.approx(0.05 / 4.0)
        assert critic(10) == pytest.approx(0.005)
        # The critic schedule vanishes faster.
        assert critic(1000) / actor(1000) < 0.1

    def test_swap_exchanges_decay_laws(self):
        actor, critic = TrainConfig(swap=True).schedules()
        assert actor(8) == pytest.approx(0.05 / 8.0)
        assert critic(8) == pytest.approx(0.05 / 4.0)

    def test_swap_keeps_each_learner_s_scale(self):
        # a0 is the actor's scale under either pairing; only the decay laws move.
        actor, critic = TrainConfig(a0=0.5, b0=0.01, swap=True).schedules()
        assert (actor(1), critic(1)) == (0.5, 0.01)
        assert actor(8) == pytest.approx(0.5 / 8.0)
        assert critic(8) == pytest.approx(0.01 / 4.0)

    def test_invalid_gamma(self):
        with pytest.raises(ContractViolation):
            TrainConfig(gamma=1.0)

    def test_bad_lambda_rejected(self):
        with pytest.raises(ContractViolation):
            TrainConfig(lam=1.5)

    @pytest.mark.parametrize("scales", [{"a0": 0.0}, {"b0": -0.05}], ids=["a0=0", "b0<0"])
    def test_nonpositive_step_scale_rejected(self, scales):
        with pytest.raises(ContractViolation):
            TrainConfig(**scales)


class TestPolicySettings:
    @pytest.mark.parametrize(
        "setting",
        [{"sigma_min": SIGMA_MAX}, {"sigma_min": 1e6}, {"sigma_min": np.inf},
         {"sigma_min": np.nan}, {"sigma_min": 1e-300},
         {"sigma_min": float(np.nextafter(SIGMA_FLOOR_MIN, 0))},
         {"input_scale": np.inf}, {"input_scale": np.nan}],
        ids=["sigma_min=SIGMA_MAX", "sigma_min=1e6", "sigma_min=inf", "sigma_min=nan",
             "sigma_min=1e-300", "sigma_min-below-the-least-floor",
             "input_scale=inf", "input_scale=nan"],
    )
    def test_setting_that_would_do_something_else_rejected(self, setting):
        # The head clips every stddev to SIGMA_MAX, so a floor there or above would pin
        # sigma with a zero score; the cube of a stddev pinned below the least floor
        # underflows, so its score would divide by zero; an infinite scale would map
        # every state to one input.
        with pytest.raises(ContractViolation, match=next(iter(setting))):
            make_actor_critic(4, 2, hidden=(5,), **setting)

    def test_floor_just_below_the_ceiling_accepted(self):
        ac = make_actor_critic(4, 2, hidden=(5,), sigma_min=float(np.nextafter(SIGMA_MAX, 0)))
        _, sigma = policy_distribution(ac, np.array([1, 0, 2, 3]))
        assert np.all((sigma >= ac.sigma_min) & (sigma <= SIGMA_MAX))


class TestGaussianDensity:
    def test_matches_scipy(self):
        from scipy.stats import norm

        rng = np.random.default_rng(0)
        z = rng.normal(size=4)
        mu = rng.normal(size=4)
        sigma = rng.uniform(0.5, 2.0, size=4)
        want = float(np.sum(norm.logpdf(z, loc=mu, scale=sigma)))
        assert gaussian_log_density(z, mu, sigma) == pytest.approx(want)


class TestPolicySerialization:
    def test_round_trip(self):
        ac = _small_ac(seed=8, mask_k=1)
        text = serialize_policy(ac, basis_sha256="ab" * 32)
        back, sha = deserialize_policy(text)
        assert sha == "ab" * 32
        assert back.mask_k == 1
        assert (back.coeff_min, back.coeff_max) == (ac.coeff_min, ac.coeff_max)
        assert np.array_equal(back.actor_params(), ac.actor_params())
        assert np.array_equal(back.critic_weights, ac.critic_weights)

    def test_pin_is_read_as_text(self):
        # "none" is no pin-free form: it is read as text, which no basis file's sha256 equals.
        text = serialize_policy(_small_ac(seed=9), "none")
        assert "\nbasis_sha256=none\n" in text
        assert deserialize_policy(text)[1] == "none"

    def test_file_bytes(self):
        net = DenseNet((2, 1, 2), np.array([0.5, -0.25, 0.1, 1.5, -0.0, 0.0, 5e-324]))
        ac = ActorCritic(
            net=net, critic_weights=np.array([-1e300]),
            coeff_min=-2, coeff_max=3, mask_k=1, ball_radius=1e3, input_scale=4.0,
            sigma_min=0.001,
        )
        # The parameter vector (layer by layer, weights then biases), then the critic.
        values = (0.5, -0.25, 0.1, 1.5, -0.0, 0.0, 5e-324, -1e300)
        body = (
            "AAAAAAAA4D8AAAAAAADQv5qZmZmZmbk/AAAAAAAA+D8"
            "AAAAAAAAAgAAAAAAAAAAAAQAAAAAAAACcdQCIPOQ3/g=="
        )
        assert base64.b64decode(body, validate=True) == struct.pack("<8d", *values)
        text = (
            "fiberwalk-policy v3\ncoeff_min=-2\ncoeff_max=3\nmask_k=1\nball_radius=1000.0\n"
            "input_scale=4.0\nsigma_min=0.001\n"
            "basis_sha256=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n"
            "layers=2,1,2\n" + body + "\n"
        )
        assert serialize_policy(ac, hashlib.sha256(b"").hexdigest()) == text
        assert serialize_policy(*deserialize_policy(text)) == text

    def test_read_draws_no_random_weights(self, monkeypatch):
        text = serialize_policy(_small_ac(seed=9), "ab" * 32)
        monkeypatch.setattr("fiberwalk.agent.make_dense", None)
        back, _ = deserialize_policy(text)
        assert back.net.dims == (4, 5, 4)

    def _policy_lines(self):
        # Widths 4, 5, 4: 25 + 24 parameters and 5 critic weights, 432 bytes,
        # so line 10 holds 576 base64 characters.
        return serialize_policy(_small_ac(seed=9), basis_sha256="ab" * 32).splitlines()

    def _body(self, values):
        return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()

    def test_truncated_file_names_the_missing_line(self):
        text = "\n".join(self._policy_lines()[:3]) + "\n"
        with pytest.raises(ValidationError, match="line 4: expected mask_k="):
            deserialize_policy(text)

    def test_bad_header_value_names_its_line(self):
        lines = self._policy_lines()
        assert lines[1].startswith("coeff_min=")
        lines[1] = "coeff_min=x"
        with pytest.raises(ValidationError, match="line 2: expected coeff_min="):
            deserialize_policy("\n".join(lines))

    def test_header_line_without_equals_names_its_line(self):
        lines = self._policy_lines()
        assert lines[4].startswith("ball_radius=")
        lines[4] = "ball_radius 1000.0"
        with pytest.raises(ValidationError, match="line 5: expected ball_radius="):
            deserialize_policy("\n".join(lines))

    def test_bad_number_in_a_parameter_block_names_its_line(self):
        lines = self._policy_lines()
        assert lines[8] == "layers=4,5,4" and len(lines) == 10 and len(lines[9]) == 576
        values = np.frombuffer(base64.b64decode(lines[9]), "<f8")
        for bad in (np.nan, np.inf, -np.inf):
            lines[9] = self._body(np.where(np.arange(values.size) == 11, bad, values))
            with pytest.raises(ValidationError, match="line 10: a value is not finite"):
                deserialize_policy("\n".join(lines))

    def _edited(self, edit):
        lines = self._policy_lines()
        edit(lines)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda ls: ls.__setitem__(0, "fiberwalk-policy v1"),
             "line 1: a v1 policy file, which this version does not read; retrain"),
            (lambda ls: ls.__setitem__(0, "fiberwalk-policy v2"),
             "line 1: a v2 policy file, which this version does not read; retrain"),
            (lambda ls: ls.__setitem__(0, "fiberwalk-densenet v3"), "line 1: not a v3 policy"),
            (lambda ls: ls.__setitem__(8, "layers=4,4"), "line 9: expected layers="),
            (lambda ls: ls.__setitem__(8, "layers=4,x,4"), "line 9: expected layers="),
            (lambda ls: ls.__setitem__(8, "layers=4,0,4"), "line 9: expected layers="),
            (lambda ls: ls.__setitem__(8, "layer=4,5,4"), "line 9: expected layers="),
            # 30 + 28 parameters and 6 critic weights: 512 bytes.
            (lambda ls: ls.__setitem__(8, "layers=4,6,4"),
             "line 10: 576 characters, but the layer widths fix 64 values, which take 684"),
            (lambda ls: ls.append("AAAA"),
             "line 10: expected the end of the file after the values"),
            (lambda ls: ls.append(""), "line 10: expected the end of the file after the values"),
            # 20 + 20 parameters and 4 critic weights: 352 bytes.
            (lambda ls: ls.__setitem__(8, "layers=4,4,4"),
             "line 10: 576 characters, but the layer widths fix 44 values, which take 472"),
            (lambda ls: ls.__setitem__(9, ls[9][:-4]),
             "line 10: 572 characters, but the layer widths fix 54 values, which take 576"),
            (lambda ls: ls.__setitem__(9, ls[9] + "AAAA"),
             "line 10: 580 characters, but the layer widths fix 54 values, which take 576"),
            (lambda ls: ls.__setitem__(9, ls[9][:288] + " " + ls[9][288:]),
             "line 10: 577 characters"),
            (lambda ls: ls.insert(9, ""), "line 10: 0 characters"),
            (lambda ls: ls.__setitem__(9, " " + ls[9]), "line 10: 577 characters"),
            (lambda ls: ls.__setitem__(9, ls[9] + "\r"), "line 10: 577 characters"),
            # The length is right, but one character is outside the alphabet.
            (lambda ls: ls.__setitem__(9, ls[9][:100] + "*" + ls[9][101:]),
             "line 10: not the base64 of 54 float64 values"),
            (lambda ls: ls.__setitem__(9, ls[9][:100] + "\u00e9" + ls[9][101:]),
             "line 10: not the base64 of 54 float64 values"),
            (lambda ls: ls.__setitem__(9, ls[9][:102] + "==" + ls[9][104:]),
             "line 10: not the base64 of 54 float64 values"),
        ],
        ids=[
            "v1-header", "v2-header", "other-header", "one-hidden-width-short",
            "width-not-a-number", "zero-width", "layers-key-misspelt", "widths-promise-more",
            "extra-value", "blank-line-after-the-values", "widths-promise-fewer",
            "short-body", "long-body", "two-numbers-on-a-line", "blank-line", "leading-space",
            "carriage-return", "counts-that-balance", "non-ascii-character", "padding-inside",
        ],
    )
    def test_malformed_file_names_its_line(self, edit, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            deserialize_policy(self._edited(edit))

    def test_missing_final_newline_is_accepted(self):
        ac = _small_ac(seed=9)
        back, _ = deserialize_policy(serialize_policy(ac, "ab" * 32).rstrip("\n"))
        assert np.array_equal(back.critic_weights, ac.critic_weights)

    @pytest.mark.parametrize(
        "line",
        ["mask_k=0", "sigma_min=0.0", "sigma_min=1e-300", "input_scale=-1.0",
         "sigma_min=1000.0", "sigma_min=inf", "input_scale=inf"],
    )
    def test_out_of_range_setting_rejected(self, line):
        lines = self._policy_lines()
        key = line.split("=")[0]
        lines[next(i for i, text in enumerate(lines) if text.startswith(key + "="))] = line
        with pytest.raises(ContractViolation, match=key):
            deserialize_policy("\n".join(lines))

    def test_short_critic_block_rejected(self):
        lines = self._policy_lines()
        lines[9] = self._body(np.frombuffer(base64.b64decode(lines[9]), "<f8")[:-1])
        with pytest.raises(
            ValidationError,
            match="line 10: 568 characters, but the layer widths fix 54 values, which take 576",
        ):
            deserialize_policy("\n".join(lines))

    def test_read_peak_memory_is_near_the_text_size(self):
        # The body line and its decoded bytes coexist once: 1.75 times the
        # text.  One Python float and string per value took about 5.5 times.
        ac = make_actor_critic(200, 100, hidden=(200,), seed=1)
        assert ac.actor_params().size >= 50_000
        text = serialize_policy(ac, "ab" * 32)
        tracemalloc.start()
        try:
            back, _ = deserialize_policy(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.actor_params(), ac.actor_params())
        assert peak < 2.0 * len(text)


# Finite doubles with the awkward cases drawn often: signed zeros,
# subnormals, the extremes of the range and values near 1e300.
_PARAM = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1.0, 1e300]),
    st.floats(min_value=5e-324, max_value=1e300),
)
# A stddev floor lies from the least floor, whose cube is a normal float, to below
# SIGMA_MAX, the ceiling the head clips every stddev to.
_SIGMA_MIN = st.one_of(
    st.sampled_from([SIGMA_FLOOR_MIN, 1e-100, 1.0, float(np.nextafter(SIGMA_MAX, 0))]),
    st.floats(min_value=SIGMA_FLOOR_MIN, max_value=SIGMA_MAX, exclude_max=True),
)


class TestPolicySerializationProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_bit_exact(self, data):
        # Bounds may be numpy ints and the ball radius an int; each header line is the
        # one the earlier line-by-line writer gave.
        integer = st.sampled_from([int, np.int32, np.int64])
        state_dim = data.draw(st.integers(1, 6))
        n_coeffs = data.draw(st.integers(1, 4))
        hidden = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
        cmin = data.draw(st.integers(-4, 3))
        ac = make_actor_critic(
            state_dim,
            n_coeffs,
            hidden=hidden,
            coeff_min=data.draw(integer)(cmin),
            coeff_max=data.draw(integer)(data.draw(st.integers(cmin + 1, 4))),
            mask_k=data.draw(st.one_of(st.none(), st.integers(1, n_coeffs))),
            ball_radius=data.draw(st.one_of(st.integers(1, 10**6), _POSITIVE)),
            input_scale=data.draw(_POSITIVE),
            sigma_min=data.draw(_SIGMA_MIN),
        )
        size = ac.actor_params().size
        ac.net.params[:] = data.draw(st.lists(_PARAM, min_size=size, max_size=size))
        width = len(ac.critic_weights)
        ac.critic_weights = np.array(data.draw(st.lists(_PARAM, min_size=width, max_size=width)))
        sha = data.draw(st.binary(min_size=32, max_size=32)).hex()

        text = serialize_policy(ac, basis_sha256=sha)
        assert text.split("\n")[:9] == policy_header_lines(ac, sha)
        back, back_sha = deserialize_policy(text)
        assert serialize_policy(back, basis_sha256=back_sha) == text
        assert back_sha == sha
        for got, want in [
            (back.actor_params(), ac.actor_params()),
            (back.critic_weights, ac.critic_weights),
            (
                np.array([back.ball_radius, back.input_scale, back.sigma_min]),
                np.array([ac.ball_radius, ac.input_scale, ac.sigma_min]),
            ),
        ]:
            assert got.tobytes() == want.astype(float).tobytes()
        assert (back.coeff_min, back.coeff_max, back.mask_k) == (
            ac.coeff_min, ac.coeff_max, ac.mask_k
        )
        assert back.net.dims == ac.net.dims
