"""Tests for the fiber-sampling environment and discovery accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fiberwalk.errors import ContractViolation
from fiberwalk.fibermdp import DiscoveredSet, FiberEnv, MdpConfig, overshoot
from fiberwalk.lattice import compute_lattice_basis
from fiberwalk.models import (
    beta_model,
    build_design_matrix,
    independence,
    observe_graph,
    verify_marginals,
)


@pytest.fixture
def env22():
    dm = build_design_matrix(independence(2, 2))
    basis = compute_lattice_basis(dm)  # single vector (1, -1, -1, 1)
    return FiberEnv(dm, basis, np.array([1, 0, 0, 1]))


class TestMdpConfig:
    def test_defaults_match_contract(self):
        cfg = MdpConfig()
        assert (cfg.coeff_min, cfg.coeff_max) == (-2, 2)
        assert cfg.steps_per_episode == 100

    def test_invalid_bounds(self):
        with pytest.raises(ContractViolation):
            MdpConfig(coeff_min=2, coeff_max=2)


class TestStep:
    def test_feasible_move(self, env22):
        # coeffs (-1) applies move (-1, 1, 1, -1).
        outcome = env22.step(np.array([-1]))
        assert np.array_equal(outcome.next, [0, 1, 1, 0])
        assert outcome.reward == 0.0
        assert outcome.feasible
        assert env22.discovered.count == 2

    def test_zero_move_penalty_is_minus_d(self, env22):
        outcome = env22.step(np.array([0]))
        assert outcome.reward == -4.0
        assert outcome.feasible
        assert np.array_equal(outcome.next, [1, 0, 0, 1])

    def test_infeasible_candidate_stays_put(self, env22):
        env22.step(np.array([-1]))  # now at (0, 1, 1, 0)
        outcome = env22.step(np.array([-1]))  # candidate (-1, 2, 2, -1)
        assert outcome.reward == -2.0
        assert not outcome.feasible
        assert np.array_equal(outcome.next, [0, 1, 1, 0])
        assert np.array_equal(env22.current, [0, 1, 1, 0])

    def test_second_edge_on_a_pair_is_infeasible(self):
        # A 6-cycle plus the chord 0-3; basis vector 3 adds an edge to
        # the pairs (0, 1) and (2, 3), which already hold one.
        spec = beta_model(6)
        dm = build_design_matrix(spec)
        edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]
        start = observe_graph(spec, dm, edges).counts
        env = FiberEnv(dm, compute_lattice_basis(dm), start)
        coeffs = np.zeros(env.basis.count, dtype=np.int64)
        coeffs[3] = 1
        candidate = start + env.basis.vectors[3]
        assert candidate.min() == 0 and sorted(candidate)[-2:] == [2, 2]
        outcome = env.step(coeffs)
        assert not outcome.feasible
        assert outcome.reward == -2.0
        assert np.array_equal(outcome.next, start)
        assert np.array_equal(env.current, start)
        assert env.discovered.count == 1

    def test_out_of_bounds_coefficients_rejected(self, env22):
        with pytest.raises(ContractViolation):
            env22.step(np.array([3]))
        with pytest.raises(ContractViolation):
            env22.step(np.array([-3]))

    def test_zero_length_action_on_an_empty_basis(self):
        # A 2x2 table with one structural zero: 3 cells and a fiber of one point.
        dm = build_design_matrix(independence(2, 2, structural_zeros=[0]))
        basis = compute_lattice_basis(dm)
        assert (basis.dim, basis.count) == (3, 0)
        env = FiberEnv(dm, basis, np.array([1, 2, 3]))
        outcome = env.step(np.zeros(0, dtype=np.int64))
        assert outcome.reward == -3.0 and outcome.feasible
        assert np.array_equal(outcome.next, [1, 2, 3])

    def test_reward_never_positive(self, env22):
        rng = np.random.default_rng(0)
        for _ in range(200):
            coeffs = rng.integers(-2, 3, size=1)
            assert env22.step(coeffs).reward <= 0.0

    def test_state_remains_on_fiber(self, env22):
        rng = np.random.default_rng(1)
        b = env22.design.marginals(env22.current)
        for _ in range(200):
            env22.step(rng.integers(-2, 3, size=1))
            state = env22.current
            assert np.all(state >= 0)
            assert verify_marginals(env22.design, state, b)

    def test_deterministic(self):
        dm = build_design_matrix(independence(2, 2))
        basis = compute_lattice_basis(dm)
        coeff_seq = np.random.default_rng(3).integers(-2, 3, size=(50, 1))
        traces = []
        for _ in range(2):
            env = FiberEnv(dm, basis, np.array([1, 0, 0, 1]))
            traces.append([env.step(c).reward for c in coeff_seq])
        assert traces[0] == traces[1]


class TestReset:
    def test_reset_to_observed_point(self, env22):
        env22.step(np.array([-1]))
        env22.reset(np.array([1, 0, 0, 1]))
        assert np.array_equal(env22.current, [1, 0, 0, 1])

    def test_reset_is_idempotent(self, env22):
        env22.reset(np.array([1, 0, 0, 1]))
        first = env22.current
        env22.reset(np.array([1, 0, 0, 1]))
        assert np.array_equal(env22.current, first)

    def test_discovered_preserved_across_resets(self, env22):
        env22.step(np.array([-1]))
        before = env22.discovered.count
        env22.reset(np.array([1, 0, 0, 1]))
        assert env22.discovered.count >= before

    def test_infeasible_start_rejected(self, env22):
        with pytest.raises(ContractViolation):
            env22.reset(np.array([1, 0, 0, -1]))
        with pytest.raises(ContractViolation):
            env22.reset(np.array([1, 1, 1, 1]))  # different fiber

    def test_discovered_only_grows(self, env22):
        rng = np.random.default_rng(8)
        last = env22.discovered.count
        for _ in range(100):
            env22.step(rng.integers(-2, 3, size=1))
            assert env22.discovered.count >= last
            last = env22.discovered.count


class TestDiscoveredSet:
    def test_add_and_membership(self):
        ds = DiscoveredSet()
        vec = np.array([1, 2, 3])
        ds.add(vec)
        ds.add(vec.copy())
        assert ds.count == 1
        ds.add(np.array([1, 2, 4]))
        assert ds.count == 2


class TestOvershoot:
    @settings(max_examples=300, deadline=None)
    @given(
        x=hnp.arrays(np.int64, st.integers(1, 30), elements=st.integers(-5, 5)),
        upper=st.one_of(st.none(), st.integers(0, 4)),
    )
    def test_distance_outside_the_box(self, x, upper):
        got = overshoot(x, upper)
        inside = bool(np.all(x >= 0)) and (upper is None or bool(np.all(x <= upper)))
        assert (got == 0) == inside
        assert got == -np.abs(x - np.clip(x, 0, upper)).sum()
        if upper is None:
            assert got == x[x < 0].sum()
