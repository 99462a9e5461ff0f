"""Tests for deployment: exploration, Metropolis chains, exact p-values."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.special import ndtr
from scipy.stats import norm

from fiberwalk import sampling
from fiberwalk.agent import (
    SIGMA_MAX,
    SIGMA_MIN,
    make_actor_critic,
    mask_coefficients,
)
from fiberwalk.errors import ContractViolation
from fiberwalk.lattice import (
    compute_lattice_basis,
    decompose_initial_point,
    enumerate_fiber,
    lift_basis,
)
from fiberwalk.models import (
    all_two_way,
    beta_model,
    build_design_matrix,
    chi_square_many,
    fit_expected_counts,
    independence,
    observe_graph,
    observe_table,
    verify_marginals,
)
from fiberwalk.sampling import (
    FiberSample,
    GofTestResult,
    ProposalLaw,
    StateTable,
    besag_clifford_pvalues,
    explore,
    log_accept_ratio,
    mh_uniform,
    null_log_weight,
    proposal_log_prob,
    rank_p_value,
    write_histogram_csv,
    write_pvalues_csv,
    write_results_csv,
    write_sample_csv,
)

from .oracles import range_masses, serial_count_law


def _setup22(start=(1, 0, 0, 1)):
    dm = build_design_matrix(independence(2, 2))
    basis = compute_lattice_basis(dm)
    ac = make_actor_critic(4, basis.count, hidden=(8,), seed=0)
    return dm, basis, ac, np.array(start, dtype=np.int64)


class TestExplore:
    def test_zero_steps_only_start(self):
        dm, basis, ac, start = _setup22()
        sample, discovered = explore(ac, basis, start, 0, np.random.default_rng(0), None, None)
        assert len(sample.points) == 1
        assert np.array_equal(sample.points[0], start)
        assert discovered.count == 1

    def test_two_point_fiber_fully_discovered(self):
        dm, basis, ac, start = _setup22()
        sample, discovered = explore(ac, basis, start, 1000, np.random.default_rng(1), None, None)
        fiber = enumerate_fiber(dm, dm.marginals(start))
        assert discovered.count == len(fiber) == 2
        visited = {tuple(int(v) for v in p) for p in np.unique(sample.points, axis=0)}
        assert visited == fiber

    def test_discovered_never_exceeds_fiber_size(self):
        dm = build_design_matrix(independence(3, 3))
        basis = compute_lattice_basis(dm)
        start = np.array([2, 0, 1, 0, 1, 0, 0, 1, 1], dtype=np.int64)
        fiber = enumerate_fiber(dm, dm.marginals(start))
        ac = make_actor_critic(9, basis.count, hidden=(8,), seed=2)
        sample, discovered = explore(ac, basis, start, 3000, np.random.default_rng(3), None, None)
        assert discovered.count <= len(fiber)
        for point in np.unique(sample.points, axis=0):
            assert np.all(point >= 0)
            assert verify_marginals(dm, point, dm.marginals(start))

    def test_trace_length_counts_rejections(self):
        dm, basis, ac, start = _setup22()
        sample, _ = explore(ac, basis, start, 250, np.random.default_rng(4), None, None)
        assert len(sample.points) == 251

    @pytest.mark.parametrize("walker", [explore, mh_uniform])
    def test_discovered_count_is_the_distinct_trace_rows(self, walker):
        basis, _, ac = _oracle_setup(None)
        for seed in range(4):
            sample, discovered = walker(
                ac, basis, np.array(_T33), 300, np.random.default_rng(seed), expected=None,
                upper=None,
            )
            assert discovered.count == len(np.unique(sample.points, axis=0))

    def test_a_walk_that_never_moves_keeps_one_copy_of_its_trace(self):
        # The start is the only point of this graph's fiber that the untrained policy
        # reaches; its trace repeats it 4,001 times, copied once, into the trace array.
        rng = np.random.default_rng(10)
        edges = [(i, j) for i in range(30) for j in range(i + 1, 30) if rng.random() < 0.1]
        spec = beta_model(30)
        design = build_design_matrix(spec)
        data = observe_graph(spec, design, edges)
        basis = compute_lattice_basis(design)
        ac = make_actor_critic(design.n_cols, basis.count, seed=0)
        tracemalloc.start()
        try:
            sample, discovered = explore(ac, basis, data.counts, 4000, np.random.default_rng(0), None, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert discovered.count == 1 and sample.points.shape == (4001, design.n_cols)
        assert peak <= 1.25 * sample.points.nbytes

    def test_negative_start_rejected(self):
        dm, basis, ac, _ = _setup22()
        with pytest.raises(ContractViolation):
            explore(ac, basis, np.array([-1, 0, 0, 1]), 5, np.random.default_rng(0), None, None)

    def test_stuck_chain_flagged(self):
        dm, basis, ac, _ = _setup22()
        # Single-point fiber; force the policy to always propose +2 with
        # a tiny stddev, so every proposal is infeasible.
        ac.net.params[:] = 0.0
        ac.net.biases[-1][0] = 2.0     # mean
        ac.net.biases[-1][1] = -20.0   # log sigma, clamps to 1e-3
        start = np.array([1, 1, 0, 0], dtype=np.int64)
        sample, discovered = explore(ac, basis, start, 100, np.random.default_rng(5), None, None)
        assert sample.stuck
        assert discovered.count == 1


class TestMhUniform:
    def test_symmetric_proposals_for_zero_policy(self):
        dm, basis, ac, start = _setup22()
        ac.net.params[:] = 0.0
        other = np.array([0, 1, 1, 0], dtype=np.int64)
        table = StateTable(ac, None)
        for coeffs in ([1], [-1], [2]):
            c = np.array(coeffs)
            fwd = proposal_log_prob(table, c, table.lookup(start))
            rev = proposal_log_prob(table, -c, table.lookup(other))
            assert fwd == pytest.approx(rev)

    def test_never_leaves_fiber(self):
        dm, basis, ac, start = _setup22((2, 1, 1, 2))
        sample, _ = mh_uniform(ac, basis, start, 400, np.random.default_rng(6))
        b = dm.marginals(start)
        for point in sample.points:
            assert np.all(point >= 0)
            assert verify_marginals(dm, point, b)

    def test_two_point_fiber_frequencies_near_half(self):
        dm, basis, ac, start = _setup22()
        sample, _ = mh_uniform(ac, basis, start, 4000, np.random.default_rng(7))
        hits = sum(1 for p in sample.points if tuple(p) == (1, 0, 0, 1))
        frac = hits / len(sample.points)
        assert 0.4 < frac < 0.6

    def test_log_weight_sets_the_target(self):
        # Fiber {(a, 3-a, 3-a, a)}: weights 1/(a!(3-a)!)^2 put 0.9 of the
        # mass on a in {1, 2}; the uniform law puts 0.5 there.
        dm, basis, ac, start = _setup22((2, 1, 1, 2))
        sample, _ = mh_uniform(
            ac, basis, start, 4000, np.random.default_rng(7), table=StateTable(ac, null_log_weight)
        )
        frac = float(np.mean(np.isin(sample.points[:, 0], (1, 2))))
        assert 0.85 < frac < 0.95

    def test_statistics_attached_when_expected_given(self):
        dm, basis, ac, start = _setup22((2, 1, 1, 2))
        spec = independence(2, 2)
        data = observe_table(spec, dm, start)
        expected = fit_expected_counts(spec, data)
        sample, _ = mh_uniform(
            ac, basis, start, 50, np.random.default_rng(8), expected=expected
        )
        assert sample.statistics is not None
        assert len(sample.statistics) == len(sample.points)
        assert np.all(sample.statistics >= 0)


# Enumeration oracle: independence(3,3) with margins (3,3,2)/(3,3,2),
# 35 fiber points, 4 basis vectors, so 5^4 rounded and clamped draws.
_T33 = (3, 0, 0, 0, 3, 0, 0, 0, 2)


def _oracle_setup(mask_k):
    dm = build_design_matrix(independence(3, 3))
    basis = compute_lattice_basis(dm)
    fiber = sorted(enumerate_fiber(dm, dm.marginals(np.array(_T33))))
    ac = make_actor_critic(9, basis.count, hidden=(8,), seed=3, input_scale=3.0, mask_k=mask_k)
    # Random parameters make (mu, sigma) vary with the state; the unit
    # sigma floor gives every cell, clamp cells included, real mass.
    ac.net.params[:] = np.random.default_rng(3).normal(scale=0.5, size=ac.net.n_params)
    return basis, fiber, ac


def _draw_law(ac, mu, sigma):
    """True law of the masked action: every rounded, clamped draw, enumerated."""
    values = np.arange(ac.coeff_min, ac.coeff_max + 1)
    upper = np.where(values >= ac.coeff_max, np.inf, values + 0.5)
    lower = np.where(values <= ac.coeff_min, -np.inf, values - 0.5)
    cells = norm.cdf(upper[:, None], mu, sigma) - norm.cdf(lower[:, None], mu, sigma)
    idx = np.array(list(itertools.product(range(len(values)), repeat=len(mu))))
    probs = np.prod(cells[idx, np.arange(len(mu))], axis=1)
    if ac.mask_k is None:  # every draw is its own key, already in sorted order
        return values[idx], probs
    masked = np.array([mask_coefficients(row, ac.mask_k) for row in values[idx]])
    keys, inverse = np.unique(masked, axis=0, return_inverse=True)
    return keys, np.bincount(inverse.ravel(), weights=probs)


def _transition_matrix(ac, basis, fiber, log_weight, upper=np.inf):
    """Exact Metropolis kernel on ``fiber``; candidates outside ``0..upper`` stay put."""
    index = {p: i for i, p in enumerate(fiber)}
    table = StateTable(ac, log_weight)
    dist = {p: table.lookup(np.array(p)) for p in fiber}
    trans = np.zeros((len(fiber), len(fiber)))
    for p in fiber:
        i = index[p]
        keys, probs = _draw_law(ac, dist[p].mu, dist[p].sigma)
        cands = np.array(p) + keys @ basis.vectors
        inside = (cands.min(axis=1) >= 0) & (cands.max(axis=1) <= upper)
        trans[i, i] += probs[~inside].sum()
        for coeffs, prob, cand in zip(keys[inside], probs[inside], cands[inside]):
            cand = tuple(int(v) for v in cand)
            assert cand in index, f"mass leaves the fiber to {cand}"
            ratio = log_accept_ratio(table, coeffs, dist[p], dist[cand])
            accept = min(1.0, math.exp(ratio))
            trans[i, index[cand]] += prob * accept
            trans[i, i] += prob * (1.0 - accept)
    return trans


# Graph oracle: a 6-cycle plus the chord 0-3.  Its fiber holds 54 simple
# graphs (190 points if multigraphs counted); d = 15, 9 basis vectors.
_CYCLE6 = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]


def _graph_oracle_setup(node_sets=None):
    """The oracle graph's model, design, data, basis and a random policy; with
    ``node_sets``, the basis is the moves lifted from their sub-problems."""
    spec = beta_model(6)
    dm = build_design_matrix(spec)
    data = observe_graph(spec, dm, _CYCLE6)
    if node_sets is None:
        basis = compute_lattice_basis(dm)
    else:
        subs = decompose_initial_point(dm, node_sets)
        basis = lift_basis([compute_lattice_basis(s.sub_matrix) for s in subs], subs, dm.n_cols)
    ac = make_actor_critic(dm.n_cols, basis.count, hidden=(8,), seed=3, coeff_min=-1, coeff_max=1)
    ac.net.params[:] = np.random.default_rng(3).normal(scale=0.5, size=ac.net.n_params)
    return spec, dm, data, basis, ac


class TestExactStationaryLaw:
    @pytest.mark.parametrize("mask_k", [None, 1, 2])
    def test_masked_mass_matches_enumeration(self, mask_k):
        _, fiber, ac = _oracle_setup(mask_k)
        table = StateTable(ac, None)
        for p in fiber[:5]:
            law = table.lookup(np.array(p))
            keys, probs = _draw_law(ac, law.mu, law.sigma)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            for coeffs, prob in zip(keys, probs):
                got = math.exp(proposal_log_prob(table, coeffs, law))
                assert got == pytest.approx(prob, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("mask_k", [1, 2])
    def test_masked_mass_matches_enumeration_for_uneven_bounds(self, mask_k):
        # With bounds -1..2 a tie at -2 lies outside them and has no mass.
        _, fiber, ac = _oracle_setup(mask_k)
        ac.coeff_min = -1
        table = StateTable(ac, None)
        for p in fiber[:5]:
            law = table.lookup(np.array(p))
            for coeffs, prob in zip(*_draw_law(ac, law.mu, law.sigma)):
                got = math.exp(proposal_log_prob(table, coeffs, law))
                assert got == pytest.approx(prob, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize(
        "mask_k, log_weight",
        [(None, null_log_weight), (None, None), (1, None), (2, None)],
    )
    def test_stationary_law_is_the_target(self, mask_k, log_weight):
        basis, fiber, ac = _oracle_setup(mask_k)
        trans = _transition_matrix(ac, basis, fiber, log_weight)
        assert np.allclose(trans.sum(axis=1), 1.0, atol=1e-12)
        n_comp, _ = connected_components(trans > 0, connection="strong")
        assert n_comp == 1  # irreducible: the stationary law is unique
        system = np.vstack([trans.T - np.eye(len(fiber)), np.ones(len(fiber))])
        rhs = np.append(np.zeros(len(fiber)), 1.0)
        stationary = np.linalg.lstsq(system, rhs, rcond=None)[0]
        logw = np.array([log_weight(np.array(p)) if log_weight else 0.0 for p in fiber])
        target = np.exp(logw - logw.max())
        target /= target.sum()
        assert np.max(np.abs(stationary - target)) < 1e-9


    def test_graph_chain_is_uniform_on_simple_graphs(self):
        # Coefficients -1..1 give 3^9 draws per state, each enumerated.
        _, dm, data, basis, ac = _graph_oracle_setup()
        fiber = sorted(enumerate_fiber(dm, data.marginals))
        assert len(fiber) == 54
        trans = _transition_matrix(ac, basis, fiber, null_log_weight, upper=1)
        assert np.allclose(trans.sum(axis=1), 1.0, atol=1e-12)
        n_comp, _ = connected_components(trans > 0, connection="strong")
        assert n_comp == 1
        # Detailed balance for the uniform law is a symmetric kernel.
        assert np.max(np.abs(trans - trans.T)) < 1e-9


def _count_law_problem(fiber_name):
    """The null kernel, the Pearson statistics and the null log weights of an oracle fiber."""
    if fiber_name.startswith("graph"):
        # graph-lifted: node sets that share only node 3 lift 2 vectors; the full basis has 9.
        node_sets = [{0, 1, 2, 3}, {3, 4, 5}] if fiber_name == "graph-lifted" else None
        spec, dm, data, basis, ac = _graph_oracle_setup(node_sets)
        fiber = sorted(enumerate_fiber(dm, data.marginals))
        trans = _transition_matrix(ac, basis, fiber, null_log_weight, upper=1)
    else:
        basis, fiber, ac = _oracle_setup(1 if fiber_name == "3x3-mask1" else None)
        spec = independence(3, 3)
        data = observe_table(spec, build_design_matrix(spec), _T33)
        trans = _transition_matrix(ac, basis, fiber, null_log_weight)
    points = np.array(fiber)
    stats = chi_square_many(points, fit_expected_counts(spec, data))
    return trans, stats, np.array([null_log_weight(p) for p in points])


class TestExactPValueLaw:
    """The serial test's p-value law, exact by enumeration when the observation is null."""

    @pytest.mark.parametrize("stride", [1, 20])
    @pytest.mark.parametrize("fiber_name", ["3x3", "3x3-mask1", "graph", "graph-lifted"])
    def test_p_value_is_super_uniform_and_the_randomized_rank_uniform(self, fiber_name, stride):
        n = 10
        trans, stats, log_weights = _count_law_problem(fiber_name)
        law = serial_count_law(trans, stride, n, stats, log_weights)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        above, tied = np.indices(law.shape)
        for k in range(1, n + 2):
            assert law[1 + above + tied <= k].sum() <= k / (n + 1) + 1e-12
        # Ties broken uniformly at random: the observation sits below a + U sampled
        # points, U uniform on 0..e, and that rank is uniform on 0..n.
        rank = np.zeros(n + 1)
        for a, e in zip(*np.nonzero(law)):
            rank[a:a + e + 1] += law[a, e] / (e + 1)
        assert np.max(np.abs(rank - 1 / (n + 1))) < 1e-12


class TestUnevenBounds:
    """With bounds -1..2 a move by +2 has no reverse, so the chain must refuse it."""

    def test_a_move_without_a_reverse_is_refused(self):
        _, fiber, ac = _oracle_setup(None)
        ac.coeff_min = -1
        table = StateTable(ac, None)
        law = table.lookup(np.array(fiber[0]))
        assert log_accept_ratio(table, np.array([2, 0, 0, 0]), law, law) == -np.inf
        assert log_accept_ratio(table, np.array([1, -1, 0, 1]), law, law) > -np.inf

    def test_stationary_law_is_the_target(self):
        basis, fiber, ac = _oracle_setup(None)
        ac.coeff_min = -1
        trans = _transition_matrix(ac, basis, fiber, null_log_weight)
        stationary = np.linalg.matrix_power(trans.T, 4096)[:, 0]
        logw = np.array([null_log_weight(np.array(p)) for p in fiber])
        target = np.exp(logw - logw.max())
        assert np.max(np.abs(stationary - target / target.sum())) < 1e-9


class TestUpperTailMass:
    """A coefficient far above the policy's mean keeps its true mass."""

    def _ac(self, mask_k):
        return make_actor_critic(2, 2, hidden=(3,), seed=0, coeff_min=-2, coeff_max=2,
                                 mask_k=mask_k)

    def _log_prob(self, ac, coeffs):
        law = ProposalLaw(np.full(2, -8.0), np.ones(2), 0.0)
        return proposal_log_prob(StateTable(ac, None), np.array(coeffs), law)

    def test_unmasked_cells_match_the_normal_tail(self):
        ac = self._ac(None)
        # Under N(-8, 1) coefficient 1 is the cell (0.5, 1.5), and 2 is (1.5, inf).
        cell1, cell2 = norm.sf(8.5) - norm.sf(9.5), norm.sf(9.5)
        assert self._log_prob(ac, [1, 2]) == pytest.approx(np.log(cell1 * cell2), abs=1e-9)
        assert self._log_prob(ac, [2, 2]) == pytest.approx(2 * np.log(cell2), abs=1e-9)

    def test_masked_cells_match_the_normal_tail(self):
        ac = self._ac(1)
        # The second coordinate comes after the last tie, so it may round to
        # any magnitude up to the kept one: -1..1 for a kept 1, -2..2 for a 2.
        want = np.log(norm.sf(8.5) - norm.sf(9.5)) + np.log(norm.sf(6.5) - norm.sf(9.5))
        assert self._log_prob(ac, [1, 0]) == pytest.approx(want, abs=1e-9)
        assert self._log_prob(ac, [2, 0]) == pytest.approx(np.log(norm.sf(9.5)), abs=1e-9)

    def test_ranges_at_or_below_the_mean_keep_their_bits(self):
        rng = np.random.default_rng(4)
        mu, sigma = rng.normal(scale=2.0, size=200), rng.uniform(0.01, 3.0, size=200)
        lo = rng.integers(-4, 4, size=200)
        hi = lo + rng.integers(0, 3, size=200)
        edges = np.array([hi + 0.5, lo - 0.5])
        edges[edges < -2] = -np.inf
        edges[edges > 2] = np.inf
        upper, lower = ndtr((edges - mu) / sigma)
        table = StateTable(make_actor_critic(1, 200, hidden=(1,), seed=0), None)
        got = table.ranges(ProposalLaw(mu, sigma, 0.0), lo, hi)
        at_or_below = edges[1] <= mu
        assert 50 < at_or_below.sum() < 200
        assert np.array_equal(got[at_or_below], (upper - lower)[at_or_below])
        above = ~at_or_below
        want = norm.sf((edges[1] - mu) / sigma) - norm.sf((edges[0] - mu) / sigma)
        assert np.allclose(got[above], want[above], rtol=1e-12, atol=0)


class TestProposalLawTable:
    """A state's table prices every mass with the bits of the one-range-at-a-time oracle."""

    @pytest.mark.parametrize("cmin, cmax", [(-2, 2), (-1, 2), (-1, 1)])
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-40.0, 40.0, allow_nan=False),
                st.sampled_from([SIGMA_MIN, 1.0, SIGMA_MAX]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_masses_have_the_oracle_bits(self, cmin, cmax, coords):
        mu, sigma = (np.array(v) for v in zip(*coords))
        ac = make_actor_critic(1, len(mu), hidden=(1,), seed=0, coeff_min=cmin, coeff_max=cmax)
        table, law = StateTable(ac, None), ProposalLaw(mu, sigma, 0.0)
        table.price(law)
        values = np.arange(cmin, cmax + 1)[:, None]
        cells = range_masses(values, values, mu, sigma, cmin, cmax)
        assert np.array_equal(table.ranges(law, values, values), cells)
        assert np.array_equal(law.log_cells, np.log(np.maximum(cells, 1e-300)).T)
        for least in range(1, max(-cmin, cmax) + 1):
            # The masked ranges: |c| < least, then the ties c = least and c = -least.
            lo = np.array([[1 - least], [least], [-least]])
            hi = np.array([[least - 1], [least], [-least]])
            want = range_masses(lo, hi, mu, sigma, cmin, cmax)
            assert np.array_equal(table.ranges(law, lo, hi), want)
        assert np.allclose(np.exp(law.log_cells).sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestOneTablePerState:
    """A state is priced once per table, and only if a feasible proposal leaves or reaches it."""

    @pytest.fixture
    def priced(self, monkeypatch):
        laws = []
        price = StateTable.price

        def counting(table, law):
            laws.append(law)
            price(table, law)

        monkeypatch.setattr(StateTable, "price", counting)
        return laws

    def test_start_and_each_feasible_proposal(self, priced, monkeypatch):
        dm, basis, ac, start = _setup22((2, 1, 1, 2))
        drawn = []
        draw = sampling.policy_sample

        def recording(*args, **kwargs):
            sample = draw(*args, **kwargs)
            drawn.append(sample.coeffs)
            return sample

        monkeypatch.setattr(sampling, "policy_sample", recording)
        sample, _ = mh_uniform(
            ac, basis, start, 400, np.random.default_rng(9), table=StateTable(ac, null_log_weight)
        )
        points = sample.points
        candidates = points[:-1] + np.array(drawn) @ basis.vectors
        feasible = candidates.min(axis=1) >= 0
        stays = (points[1:] == points[:-1]).all(axis=1)
        moved = (candidates != points[:-1]).any(axis=1)
        rejected = feasible & moved & stays
        assert 0 < feasible.sum() < 400
        assert (rejected[1:] & rejected[:-1]).any()  # a state rejects two feasible proposals
        reached = np.vstack([start, candidates[feasible]])
        assert len(priced) == len(np.unique(reached, axis=0)) < 1 + feasible.sum()
        assert len({id(law) for law in priced}) == len(priced)

    def test_walks_sharing_a_table_price_each_state_once(self, priced):
        dm, basis, ac, start = _setup22((5, 3, 3, 5))
        table = StateTable(ac, null_log_weight)
        first = mh_uniform(ac, basis, start, 5, np.random.default_rng(1), table=table)[0]
        key_of = {id(law): key for key, law in table.laws.items()}
        first_keys = {key_of[id(law)] for law in priced}
        n_first = len(priced)
        second = mh_uniform(ac, basis, start, 300, np.random.default_rng(2), table=table)[0]
        key_of = {id(law): key for key, law in table.laws.items()}
        second_keys = [key_of[id(law)] for law in priced[n_first:]]
        assert len(first_keys) == n_first > 1
        assert len(set(second_keys)) == len(second_keys) > 0
        assert not first_keys & set(second_keys)
        # The second walk does reach states the first one priced.
        assert len({p.tobytes() for p in second.points} & first_keys) > 1
        assert len(np.unique(first.points, axis=0)) > 1

    def test_a_table_serves_one_policy_and_one_log_weight(self):
        # The table carries the one log_weight; a table of another policy is refused.
        dm, basis, ac, start = _setup22()
        other = make_actor_critic(4, basis.count, hidden=(8,), seed=1)
        with pytest.raises(ContractViolation, match="one policy"):
            mh_uniform(ac, basis, start, 1, np.random.default_rng(0),
                       table=StateTable(other, null_log_weight))

    def test_no_feasible_proposal_no_table(self, priced):
        dm, basis, ac, _ = _setup22()
        ac.net.params[:] = 0.0
        ac.sigma_min = SIGMA_MIN
        ac.net.biases[-1][0] = 2.0     # every draw is +2, which leaves the box
        ac.net.biases[-1][1] = -20.0
        start = np.array([1, 1, 0, 0], dtype=np.int64)
        sample, _ = mh_uniform(ac, basis, start, 100, np.random.default_rng(5))
        assert len(np.unique(sample.points, axis=0)) == 1
        assert priced == []

    def test_explore_prices_nothing(self, priced):
        dm, basis, ac, start = _setup22((2, 1, 1, 2))
        explore(ac, basis, start, 200, np.random.default_rng(4), None, None)
        assert priced == []


def _oracle_problem():
    basis, _, ac = _oracle_setup(None)
    spec = independence(3, 3)
    return ac, basis, spec, observe_table(spec, build_design_matrix(spec), _T33)


def _zeros_problem():
    zeros = {0, 13, 26}
    spec = all_two_way(3, 3, 3, structural_zeros=zeros)
    dm = build_design_matrix(spec)
    table = np.random.default_rng(12).integers(1, 5, size=27)
    table[list(zeros)] = 0
    basis = compute_lattice_basis(dm)
    ac = make_actor_critic(dm.n_cols, basis.count, hidden=(8,), seed=3, input_scale=3.0)
    ac.net.params[:] = np.random.default_rng(3).normal(scale=0.5, size=ac.net.n_params)
    return ac, basis, spec, observe_table(spec, dm, table)


class TestSharedTable:
    """All walks of one test share one StateTable, within a fixed budget, and no result changes."""

    @pytest.mark.parametrize("problem", [_oracle_problem, _zeros_problem])
    def test_results_equal_walks_with_fresh_tables(self, problem, monkeypatch):
        args = problem()
        evaluated = []
        distribution = sampling.policy_distribution

        def counting(ac, state):
            evaluated.append(state)
            return distribution(ac, state)

        monkeypatch.setattr(sampling, "policy_distribution", counting)
        shared = besag_clifford_pvalues(*args, chains=8, chain_length=20, seed=5)
        n_shared = len(evaluated)
        walk = sampling.mh_uniform
        monkeypatch.setattr(
            sampling, "mh_uniform",
            lambda *a, table, **kw: walk(*a, table=StateTable(table.ac, table.log_weight), **kw),
        )
        fresh = besag_clifford_pvalues(*args, chains=8, chain_length=20, seed=5)
        assert shared == fresh
        assert len({r.p_value for r in shared}) > 1
        assert 0 < n_shared < len(evaluated) - n_shared

    @pytest.mark.parametrize("mask_k", [None, 1, 2])
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 34), st.lists(st.integers(-2, 2), min_size=4, max_size=4)),
            min_size=1,
            max_size=12,
        )
    )
    def test_a_served_law_has_the_bits_of_a_fresh_one(self, mask_k, uses):
        # Any order of first use, revisits included, on the 35-point oracle fiber.
        basis, fiber, ac = _oracle_setup(mask_k)
        table = StateTable(ac, null_log_weight)
        for i, coeffs in uses:
            state, coeffs = np.array(fiber[i]), np.array(coeffs)
            law = table.lookup(state)
            fresh = StateTable(ac, null_log_weight)
            got = proposal_log_prob(table, coeffs, law)
            want = proposal_log_prob(fresh, coeffs, fresh.lookup(state))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert law.weight == null_log_weight(state)

    def test_the_budget_holds_and_keeps_the_start(self, monkeypatch):
        # 10x11 independence: 90 coefficients, so about 7 kB a state.
        spec = independence(10, 11)
        dm = build_design_matrix(spec)
        basis = compute_lattice_basis(dm)
        counts = np.random.default_rng(2).multinomial(2000, np.full(110, 1 / 110))
        data = observe_table(spec, dm, counts)
        ac = make_actor_critic(dm.n_cols, basis.count, hidden=(8,), seed=0, mask_k=2)
        tables, traces = [], []
        walk = sampling.mh_uniform

        def recording(*args, table, **kwargs):
            tables.append(table)
            sample, discovered = walk(*args, table=table, **kwargs)
            traces.append(sample.points)
            return sample, discovered

        monkeypatch.setattr(sampling, "mh_uniform", recording)
        start = data.counts.astype(np.int64).tobytes()
        besag_clifford_pvalues(ac, basis, spec, data, chains=2, chain_length=20, seed=0)
        table = tables[0]
        assert len(tables) == 4 and all(t is table for t in tables)
        assert len(table.laws) == table.capacity and start in table.laws
        visited = {p.tobytes() for p in np.concatenate(traces)}
        assert len(table.laws) < len(visited)
        # A budget below one state still keeps the observation.
        monkeypatch.setattr(sampling, "TABLE_BYTES", 1)
        besag_clifford_pvalues(ac, basis, spec, data, chains=1, chain_length=20, seed=0)
        assert tables[-1] is not table and list(tables[-1].laws) == [start]

    @pytest.mark.parametrize(
        "spec, cmin",
        [(independence(4, 4), -2), (independence(4, 4), -1), (independence(10, 11), -2),
         (beta_model(30), -2)],
        ids=["4x4", "4x4-uneven", "10x11", "beta30"],
    )
    def test_a_full_table_holds_its_budget(self, spec, cmin):
        # A full table's traced footprint, every priced state's key, law, weight,
        # arrays and dict slot, is TABLE_BYTES to 10 %, at c = 9, 90 and 405.
        dm = build_design_matrix(spec)
        basis = compute_lattice_basis(dm)
        ac = make_actor_critic(dm.n_cols, basis.count, seed=0, coeff_min=cmin)
        zero = np.zeros(basis.count, dtype=np.int64)
        tracemalloc.start()
        try:
            table = StateTable(ac, null_log_weight)
            states = np.zeros((table.capacity, dm.n_cols), dtype=np.int64)
            states[:, 0] = np.arange(table.capacity)
            before = tracemalloc.get_traced_memory()[0]
            for state in states:
                proposal_log_prob(table, zero, table.lookup(state))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table.laws) == table.capacity > 1
        assert abs(held / sampling.TABLE_BYTES - 1) < 0.1


class TestGoldenTraces:
    """Explore and Metropolis traces pinned bit for bit on the oracle setup.

    Any change to the walk loop's draws, feasibility test or accept rule
    changes these digests.
    """

    @pytest.mark.parametrize(
        "mask_k, walker, log_weight, digest",
        [
            (None, explore, None,
             "fc60e7f402463ce34ccc0648bb18f521479d7c29280ec1e848ae0c0796788277"),
            (None, mh_uniform, None,
             "94c1a17c90ab445f2e29882cbec5d13d3778733defa4849d97847a386ba81a85"),
            (None, mh_uniform, null_log_weight,
             "9676b602a9f0731d6da4bbaa41df87f098dd2cbf8fbfe5c450f9be180fa681c9"),
            (1, explore, None,
             "f46bac8a4f8ce12b4ea86dd5a17f857c2d01d35c85161144ef689bd1b0a22651"),
            (1, mh_uniform, None,
             "ed6a7ce6aa838ef3ef0b03a737bc9eadd8a154364407041cf17ab0261a98313a"),
            (1, mh_uniform, null_log_weight,
             "506efff91d6f961eef0a17c3e483300d7e6eede44b07fa4b52de5cbb732b3e9f"),
            (2, mh_uniform, null_log_weight,
             "408e339305e241c6325ba7c0f8a01cfef049987427bf1716e2be19537cef8272"),
            (2, explore, None,
             "6d4d787a2683d6a863530f97ed027f211efebf4218d900d126d9efbff739aed1"),
            (2, mh_uniform, None,
             "6fae842977b1ce5c9ef57bf9d0270420050583355aa368c3e81fd7ac0509739f"),
        ],
    )
    def test_trace_digest(self, mask_k, walker, log_weight, digest):
        basis, _, ac = _oracle_setup(mask_k)
        kwargs = {"table": StateTable(ac, log_weight)} if log_weight else {}
        sample, _ = walker(
            ac, basis, np.array(_T33), 2000, np.random.default_rng(11), expected=None,
            upper=None, **kwargs
        )
        got = hashlib.sha256(sample.points.astype(np.int64).tobytes()).hexdigest()
        assert got == digest


class TestMetropolisUniform:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**63))
    def test_random_gives_the_doubles_of_uniform(self, seed):
        # The Metropolis test draws rng.random(); every pinned trace assumes it
        # takes the double that rng.uniform() takes from the same stream.
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert np.float64(a.random()).tobytes() == np.float64(b.uniform()).tobytes()
            assert a.standard_normal(3).tobytes() == b.standard_normal(3).tobytes()


class TestRankPValue:
    def test_observed_above_everything(self):
        stats = np.zeros(99)
        assert rank_p_value(stats, 1.0) == pytest.approx(1 / 100)

    def test_all_equal_gives_one(self):
        stats = np.full(25, 3.0)
        assert rank_p_value(stats, 3.0) == 1.0

    def test_support_grid(self):
        rng = np.random.default_rng(9)
        n = 49
        stats = rng.random(n)
        p = rank_p_value(stats, 0.5)
        assert p in {k / (n + 1) for k in range(1, n + 2)}

    def test_adding_smaller_statistic_never_raises_p(self):
        stats = [1.0, 2.0, 3.0]
        p1 = rank_p_value(stats, 2.5)
        p2 = rank_p_value(stats + [0.1], 2.5)
        assert p2 <= p1

    def test_result_type_validates_rank_form(self):
        with pytest.raises(ContractViolation):
            GofTestResult(
                observed_statistic=1.0,
                p_value=0.123,
                sample_size=10,
                chain_id=0,
                seed=0,
                stuck=False,
            )


class TestBesagClifford:
    def test_protocol_shape_and_reproducibility(self):
        dm, basis, ac, start = _setup22((3, 1, 1, 3))
        spec = independence(2, 2)
        data = observe_table(spec, dm, start)
        runs = []
        for _ in range(2):
            results = besag_clifford_pvalues(
                ac, basis, spec, data, chains=4, chain_length=19, seed=11
            )
            runs.append([r.p_value for r in results])
            assert len(results) == 4
            for i, r in enumerate(results):
                assert r.sample_size == 19
                assert r.chain_id == i
                assert r.seed == 11 + i
                assert 0 < r.p_value <= 1
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("side, total", [(3, 40), (4, 100), (5, 200)])
    def test_chain_that_never_moves_gives_p_one(self, side, total):
        # Every proposal is the zero move, so every sampled point is the
        # observation and must tie with it: p = (n + 1)/(n + 1).
        spec = independence(side, side)
        dm = build_design_matrix(spec)
        basis = compute_lattice_basis(dm)
        table = np.random.default_rng(1).multinomial(total, np.full(side * side, 1 / side**2))
        data = observe_table(spec, dm, table)
        ac = make_actor_critic(dm.n_cols, basis.count, hidden=(4,), seed=0, sigma_min=1e-3)
        ac.net.params[:] = 0.0
        ac.net.biases[-1][basis.count:] = -20.0  # log sigma, clamps to 1e-3
        results = besag_clifford_pvalues(
            ac, basis, spec, data, chains=10, chain_length=10, seed=0, chain_steps=10
        )
        assert [r.p_value for r in results] == [1.0] * 10

    def test_graph_chains_stay_on_simple_graphs(self, monkeypatch):
        spec, _, data, basis, ac = _graph_oracle_setup()
        traces = []

        def recording(*args, **kwargs):
            sample, discovered = mh_uniform(*args, **kwargs)
            traces.append(sample.points)
            return sample, discovered

        monkeypatch.setattr(sampling, "mh_uniform", recording)
        besag_clifford_pvalues(ac, basis, spec, data, chains=5, chain_length=50, seed=3)
        points = np.concatenate(traces)
        assert len(points) == 5 * (100 * 50 + 2)
        assert points.min() == 0 and points.max() == 1
        assert len(np.unique(points, axis=0)) > 1  # the chains do move

    def test_infinite_observed_statistic_gives_smallest_p(self):
        # Observed statistic above every sampled one: p = 1/(n+1) only
        # if no sampled statistic ties it; +inf observed ties +inf.
        stats = np.array([1.0, 2.0])
        assert rank_p_value(stats, math.inf) == pytest.approx(1 / 3)


class TestCsvOutputs:
    def test_sample_csv(self, tmp_path):
        dm, basis, ac, start = _setup22((2, 1, 1, 2))
        spec = independence(2, 2)
        data = observe_table(spec, dm, start)
        expected = fit_expected_counts(spec, data)
        sample, _ = mh_uniform(
            ac, basis, start, 10, np.random.default_rng(0), expected=expected
        )
        path = tmp_path / "sample.csv"
        write_sample_csv(path, sample, dm.column_labels)
        lines = path.read_text().splitlines()
        assert lines[0] == "0_0,0_1,1_0,1_1,statistic"
        assert len(lines) == 12

    def test_results_csv_bytes(self, tmp_path):
        results = [
            GofTestResult(12.5, 0.25, 3, chain_id=0, seed=7, stuck=False),
            GofTestResult(12.5, 1.0, 3, chain_id=1, seed=8, stuck=True),
        ]
        path = tmp_path / "r.csv"
        write_results_csv(path, results)
        assert path.read_text() == (
            "chain_id,seed,p_value,observed_statistic,sample_size,stuck\n"
            "0,7,0.25,12.5,3,0\n"
            "1,8,1.0,12.5,3,1\n"
        )

    def test_pvalues_and_histogram_csv(self, tmp_path):
        results = [
            GofTestResult(1.0, (1 + i) / 11, 10, chain_id=i, seed=i, stuck=False) for i in range(10)
        ]
        pv = tmp_path / "p.csv"
        write_pvalues_csv(pv, results)
        assert pv.read_text().splitlines()[0] == "chain_id,p_value"
        hist = tmp_path / "h.csv"
        write_histogram_csv(hist, [r.p_value for r in results])
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 21
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 10


class TestFiberSampleInvariants:
    def test_statistic_length_enforced(self):
        with pytest.raises(ContractViolation):
            FiberSample(
                points=np.zeros((3, 2), dtype=np.int64),
                statistics=np.zeros(2),
                chain_id=0,
                stuck=False,
            )
