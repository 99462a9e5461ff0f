"""Tests for model families, design matrices, fitting, and the statistic."""

import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fiberwalk import models
from fiberwalk._exact import margin_kernel_basis
from fiberwalk.errors import (
    DegenerateDataError,
    FitError,
    SizingError,
    ValidationError,
)
from fiberwalk.models import (
    ALL_TWO_WAY,
    BETA_MODEL,
    INDEPENDENCE,
    ModelSpec,
    ObservedData,
    all_two_way,
    beta_model,
    build_design_matrix,
    chi_square_many,
    chi_square_statistic,
    fit_expected_counts,
    independence,
    observe_graph,
    observe_table,
    read_edge_list,
    read_table_csv,
)

from . import oracles
from .oracles import embed_full, rational_rank, reference_fit, relative_error


class TestModelSpec:
    def test_rejects_unknown_family(self):
        from fiberwalk.models import ModelSpec

        with pytest.raises(ValidationError):
            ModelSpec("poisson", (2, 2), ())

    def test_rejects_small_dimensions(self):
        with pytest.raises(ValidationError):
            independence(1, 4)

    def test_rejects_bad_structural_zero_index(self):
        with pytest.raises(ValidationError):
            independence(2, 2, structural_zeros={4})

    def test_labels_are_lexicographic(self):
        spec = all_two_way(2, 2, 2)
        labels = spec.cell_labels()
        assert labels == sorted(labels)
        assert labels[0] == (0, 0, 0) and labels[-1] == (1, 1, 1)


class TestBuildDesignMatrix:
    def test_independence_2x2_shape_and_rank(self):
        dm = build_design_matrix(independence(2, 2))
        assert dm.entries.shape == (4, 4)
        assert set(np.unique(dm.entries)) <= {0, 1}
        # Frozen from the rational-elimination oracle.
        assert dm.rank == 3
        assert dm.rank == rational_rank(dm.entries)

    def test_rank_is_computed_on_first_read(self, monkeypatch):
        calls = []

        def counting_basis(n_rows, column_rows):
            calls.append((n_rows, len(column_rows)))
            return margin_kernel_basis(n_rows, column_rows)

        monkeypatch.setattr(models, "margin_kernel_basis", counting_basis)
        dm = build_design_matrix(all_two_way(3, 3, 3, structural_zeros=[0, 13, 26]))
        assert calls == []
        assert dm.rank == rational_rank(dm.entries)
        assert dm.rank == rational_rank(dm.entries)
        assert calls == [dm.entries.shape]

    def test_independence_cell_indicators(self):
        r, c = 3, 4
        dm = build_design_matrix(independence(r, c))
        for col, (i, j) in enumerate(dm.column_labels):
            expect = np.zeros(r + c, dtype=np.int64)
            expect[i] = 1
            expect[r + j] = 1
            assert np.array_equal(dm.entries[:, col], expect)

    def test_all_two_way_rows_are_ij_then_ik_then_jk_margins(self):
        d1, d2, d3 = 2, 3, 4
        dm = build_design_matrix(all_two_way(d1, d2, d3))
        for col, (i, j, k) in enumerate(dm.column_labels):
            expect = np.zeros(d1 * d2 + d1 * d3 + d2 * d3, dtype=np.int64)
            expect[[i * d2 + j, d1 * d2 + i * d3 + k, d1 * d2 + d1 * d3 + j * d3 + k]] = 1
            assert np.array_equal(dm.entries[:, col], expect)

    def test_a_margin_of_structural_zeros_keeps_its_row(self):
        dm = build_design_matrix(independence(2, 3, structural_zeros={0, 1, 2}))
        assert dm.entries.shape == (5, 3)
        assert not dm.entries[0].any()
        spec = independence(2, 3, structural_zeros={0, 1, 2, 5})
        data = observe_table(spec, build_design_matrix(spec), [0, 0, 0, 3, 4, 0])
        np.testing.assert_allclose(fit_expected_counts(spec, data), [3, 4])

    def test_every_cell_a_structural_zero_leaves_no_column(self):
        for spec, n in ((independence(2, 2, range(4)), 4), (beta_model(3, range(3)), 3)):
            assert build_design_matrix(spec).entries.shape == (n, 0)

    def test_beta_model_degree_map(self):
        dm = build_design_matrix(beta_model(3))
        assert dm.entries.shape == (3, 3)
        # Only edge {0,1} present: degree sequence (1, 1, 0).
        assert np.array_equal(dm.marginals(np.array([1, 0, 0])), [1, 1, 0])

    def test_structural_zero_deletes_first_column(self):
        dm = build_design_matrix(independence(2, 2, structural_zeros={0}))
        assert dm.entries.shape == (4, 3)
        assert dm.removed_labels == ((0, 0),)
        assert dm.column_labels == ((0, 1), (1, 0), (1, 1))

    def test_column_sums_count_marginal_families(self):
        assert np.all(build_design_matrix(independence(3, 5)).entries.sum(axis=0) == 2)
        assert np.all(build_design_matrix(beta_model(6)).entries.sum(axis=0) == 2)
        assert np.all(build_design_matrix(all_two_way(2, 3, 4)).entries.sum(axis=0) == 3)

    def test_sizing_error(self):
        assert independence(317, 317).full_dim > models.MAX_COLUMNS
        with pytest.raises(SizingError):
            build_design_matrix(independence(317, 317))

    def test_deletion_commutes_with_marginals(self):
        rng = np.random.default_rng(7)
        full_spec = independence(3, 3)
        full_dm = build_design_matrix(full_spec)
        zero_spec = independence(3, 3, structural_zeros={2, 4})
        zero_dm = build_design_matrix(zero_spec)
        table = rng.integers(0, 6, size=9)
        table[[2, 4]] = 0
        keep = [k for k in range(9) if k not in (2, 4)]
        assert np.array_equal(
            full_dm.marginals(table), zero_dm.marginals(table[keep])
        )

    def test_embed_full_reinserts_zeros(self):
        full = embed_full(independence(2, 2, structural_zeros={1}), np.array([5, 6, 7]))
        assert np.array_equal(full, [5, 0, 6, 7])


class TestObservedData:
    def test_observe_table_rejects_positive_structural_zero(self):
        spec = independence(2, 2, structural_zeros={0})
        dm = build_design_matrix(spec)
        with pytest.raises(ValidationError):
            observe_table(spec, dm, [1, 0, 0, 1])

    def test_observe_graph_counts_edges(self):
        spec = beta_model(4)
        dm = build_design_matrix(spec)
        data = observe_graph(spec, dm, [(0, 1), (2, 3), (2, 1)])
        assert data.counts.sum() == 3
        assert np.array_equal(data.marginals, [1, 2, 2, 1])

    @pytest.mark.parametrize("repeat", [(0, 1), (1, 0)])
    def test_observe_graph_refuses_a_repeated_pair(self, repeat):
        # The beta model gives a multigraph probability 0.
        spec = beta_model(4)
        dm = build_design_matrix(spec)
        with pytest.raises(ValidationError, match=rf"\({repeat[0]}, {repeat[1]}\)"):
            observe_graph(spec, dm, [(0, 1), (2, 3), repeat])

    def test_marginals_consistent(self):
        spec = independence(3, 3)
        dm = build_design_matrix(spec)
        table = np.arange(9)
        data = observe_table(spec, dm, table)
        assert np.array_equal(data.marginals, dm.marginals(data.counts))


def _last_gap(error):
    """The last gap a :class:`FitError` message gives."""
    return float(re.search(r"\(last gap (\S+)\)$", str(error)).group(1))


class TestFitExpectedCounts:
    def test_symmetric_table_is_its_own_fit(self):
        spec = independence(2, 2)
        dm = build_design_matrix(spec)
        data = observe_table(spec, dm, [5, 5, 5, 5])
        np.testing.assert_allclose(fit_expected_counts(spec, data), [5, 5, 5, 5])

    def test_closed_form_diagonal_table(self):
        spec = independence(2, 2)
        dm = build_design_matrix(spec)
        data = observe_table(spec, dm, [10, 0, 0, 10])
        # row*col/total = 10*10/20 = 5 in every cell.
        np.testing.assert_allclose(fit_expected_counts(spec, data), [5, 5, 5, 5])

    def test_all_two_way_fixed_point(self):
        # Rank-one (outer product) tables satisfy the all-two-way model.
        a, b, c = np.array([1, 2]), np.array([1, 3]), np.array([2, 1])
        table = np.einsum("i,j,k->ijk", a, b, c)
        spec = all_two_way(2, 2, 2)
        dm = build_design_matrix(spec)
        data = observe_table(spec, dm, table)
        np.testing.assert_allclose(
            fit_expected_counts(spec, data), table.reshape(-1), atol=1e-7
        )

    def test_margins_match_after_fit(self, monkeypatch):
        rng = np.random.default_rng(3)
        spec = all_two_way(2, 3, 2)
        dm = build_design_matrix(spec)
        table = rng.integers(1, 9, size=(2, 3, 2))
        data = observe_table(spec, dm, table)
        monkeypatch.setattr(models, "FIT_TOL", 1e-10)
        fitted = fit_expected_counts(spec, data)
        np.testing.assert_allclose(
            dm.entries @ fitted, data.marginals.astype(float), atol=1e-8
        )

    def test_structural_zero_held_at_zero_and_margins_match(self, monkeypatch):
        spec = independence(3, 3, structural_zeros={0})
        dm = build_design_matrix(spec)
        table = np.array([0, 3, 2, 4, 1, 1, 2, 2, 5])
        data = observe_table(spec, dm, table)
        monkeypatch.setattr(models, "FIT_TOL", 1e-10)
        fitted = fit_expected_counts(spec, data)
        np.testing.assert_allclose(dm.entries @ fitted, data.marginals, atol=1e-8)

    def test_beta_model_degrees_match(self):
        spec = beta_model(5)
        dm = build_design_matrix(spec)
        edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4), (0, 3)]
        data = observe_graph(spec, dm, edges)
        fitted = fit_expected_counts(spec, data)
        np.testing.assert_allclose(dm.entries @ fitted, data.marginals, atol=1e-6)
        assert np.all(fitted >= 0) and np.all(fitted <= 1)

    def test_beta_model_boundary_sequence_raises_with_gap(self, monkeypatch):
        # A path's degree sequence lies on the boundary of the expected
        # degree polytope; the fixed point cannot close the gap.
        spec = beta_model(4)
        dm = build_design_matrix(spec)
        data = observe_graph(spec, dm, [(0, 1), (1, 2), (2, 3)])
        monkeypatch.setattr(models, "FIT_MAX_ITER", 200)
        with pytest.raises(FitError, match="within 200 iterations") as err:
            fit_expected_counts(spec, data)
        assert _last_gap(err.value) > models.FIT_TOL

    def test_ipf_out_of_sweeps_raises_with_gap(self, monkeypatch):
        spec = all_two_way(2, 3, 2)
        dm = build_design_matrix(spec)
        data = observe_table(spec, dm, np.random.default_rng(3).integers(1, 9, size=(2, 3, 2)))
        monkeypatch.setattr(models, "FIT_MAX_ITER", 1)
        with pytest.raises(FitError, match="within 1 sweeps") as err:
            fit_expected_counts(spec, data)
        assert _last_gap(err.value) > models.FIT_TOL

    def test_bit_equal_to_full_table_ipf_on_the_benchmark_zero_cell_tables(self):
        # The benchmark's table3x3x3z draws: seeds 1-3, ten data sets each.
        spec = all_two_way(3, 3, 3, structural_zeros={0, 13, 26})
        dm = build_design_matrix(spec)
        for seed in (1, 2, 3):
            for k in range(10):
                cells = np.random.default_rng([seed, k]).integers(1, 5, size=27)
                cells[[0, 13, 26]] = 0
                data = observe_table(spec, dm, cells)
                assert np.array_equal(
                    fit_expected_counts(spec, data), reference_fit(spec, data.counts)
                )

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_fit_matches_full_table_reference_within_margins_and_box(self, data):
        family = data.draw(st.sampled_from([INDEPENDENCE, ALL_TWO_WAY, BETA_MODEL]))
        # Beta model: 3-6 nodes; independence: up to 4x4; all-two-way: up to 3x3x3.
        ndim, top = {BETA_MODEL: (1, 6), INDEPENDENCE: (2, 4), ALL_TWO_WAY: (3, 3)}[family]
        low = 3 if family == BETA_MODEL else 2
        shape = data.draw(st.lists(st.integers(low, top), min_size=ndim, max_size=ndim))
        full_dim = ModelSpec(family, shape, ()).full_dim
        zeros = data.draw(st.sets(st.integers(0, full_dim - 1), max_size=full_dim // 3))
        spec = ModelSpec(family, shape, zeros)
        dm = build_design_matrix(spec)
        high = 6 if spec.cell_bound is None else spec.cell_bound
        counts = data.draw(hnp.arrays(np.int64, dm.n_cols, elements=st.integers(0, high)))
        assume(counts.sum() > 0)
        observed = ObservedData(counts, dm.marginals(counts))
        tol, max_iter = models.FIT_TOL, 500
        want = reference_fit(spec, counts, tol, max_iter)
        with patch.object(models, "FIT_MAX_ITER", max_iter):
            if want is None:
                with pytest.raises(FitError):
                    fit_expected_counts(spec, observed)
                return
            got = fit_expected_counts(spec, observed)
        assert relative_error(got, want) <= 1e-12
        assert np.max(np.abs(dm.entries @ got - observed.marginals)) <= tol
        assert got.min() >= 0
        assert spec.cell_bound is None or got.max() <= spec.cell_bound

    @settings(max_examples=100, deadline=None)
    @given(st.integers(5, 70), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1), st.data())
    def test_bernoulli_fit_same_bytes_as_its_earlier_form(self, n, p, seed, data):
        # G(n, p), some nodes isolated and some joined to every node that is not.
        # A full-degree node has no finite MLE, so both forms give up with one message.
        adj = np.triu(np.random.default_rng(seed).random((n, n)) < p, 1)
        isolated = data.draw(st.sets(st.integers(0, n - 1), max_size=2))
        full = data.draw(st.sets(st.integers(0, n - 1), max_size=1)) - isolated
        for i in full:
            adj[i, :] = adj[:, i] = True
        for i in isolated:
            adj[i, :] = adj[:, i] = False
        spec = beta_model(n)
        rows, k = spec._column_rows
        counts = np.triu(adj, 1)[np.triu_indices(n, 1)].astype(np.int64)
        assume(counts.sum() > 0)
        target = oracles._margin_totals(rows, k, counts)
        self._assert_same_fit(rows, target, 300)

    def test_boundary_degree_sequence_fails_with_the_earlier_message(self):
        # A star: the centre's degree is n - 1, the bound of the degree polytope.
        spec = beta_model(8)
        rows, k = spec._column_rows
        counts = np.array([i == 0 for i, _ in spec.cell_labels()], dtype=np.int64)
        message = self._assert_same_fit(rows, oracles._margin_totals(rows, k, counts),
                                        models.FIT_MAX_ITER)
        assert message.startswith("beta-model fit did not reach degree gap 1e-08 within 10000")

    @staticmethod
    def _assert_same_fit(rows, target, max_iter):
        """Both forms' fits, byte for byte, or both FitError messages; returns the message."""
        try:
            want = oracles._fit_bernoulli(rows, target, models.FIT_TOL, max_iter)
        except FitError as err:
            with pytest.raises(FitError) as got:
                models._fit_bernoulli(rows, target, models.FIT_TOL, max_iter)
            assert str(got.value) == str(err)
            return str(err)
        got = models._fit_bernoulli(rows, target, models.FIT_TOL, max_iter)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        return None

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_margin_totals_same_bytes_as_their_earlier_form(self, data):
        # Independence up to 4x4, all-two-way up to 3x3x3, the beta model on 3-8 nodes,
        # each with up to a third of its cells structural zeros.
        family = data.draw(st.sampled_from([INDEPENDENCE, ALL_TWO_WAY, BETA_MODEL]))
        sizes = {BETA_MODEL: (1, 3, 8), INDEPENDENCE: (2, 2, 4), ALL_TWO_WAY: (3, 2, 3)}
        ndim, low, top = sizes[family]
        shape = data.draw(st.lists(st.integers(low, top), min_size=ndim, max_size=ndim))
        full_dim = ModelSpec(family, shape, ()).full_dim
        zeros = data.draw(st.sets(st.integers(0, full_dim - 1), max_size=full_dim // 3))
        rows, n = ModelSpec(family, shape, zeros)._column_rows
        counts = data.draw(hnp.arrays(np.int64, len(rows), elements=st.integers(0, 2**40)))
        reals = data.draw(hnp.arrays(float, len(rows), elements=st.floats(-1e6, 1e6)))
        for values in (counts, reals, reals * 1e-300, counts / 7.0):
            got = models._margin_totals(rows, n, values)
            want = oracles._margin_totals(rows, n, values)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_zero_grand_total_degenerate(self):
        spec = independence(2, 2)
        dm = build_design_matrix(spec)
        data = observe_table(spec, dm, [0, 0, 0, 0])
        with pytest.raises(DegenerateDataError):
            fit_expected_counts(spec, data)


class TestChiSquare:
    def test_perfect_fit(self):
        assert chi_square_statistic([5, 5, 5, 5], [5, 5, 5, 5]) == 0.0

    def test_diagonal_table_value(self):
        # 4 cells, each (o-e)^2/e = 25/5 = 5.
        assert chi_square_statistic([10, 0, 0, 10], [5, 5, 5, 5]) == pytest.approx(20.0)

    def test_excluded_cell_sentinel(self):
        assert chi_square_statistic([1, 0], [0, 1]) == math.inf

    def test_zero_expected_zero_observed_contributes_nothing(self):
        assert chi_square_statistic([0, 4], [0, 4]) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        observed = rng.integers(0, 9, size=8)
        expected = rng.uniform(0.5, 6.0, size=8)
        perm = rng.permutation(8)
        assert chi_square_statistic(observed, expected) == pytest.approx(
            chi_square_statistic(observed[perm], expected[perm])
        )

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(13)
        expected = rng.uniform(0.5, 4.0, size=6)
        points = rng.integers(0, 7, size=(10, 6))
        many = chi_square_many(points, expected)
        for i in range(10):
            assert many[i] == pytest.approx(chi_square_statistic(points[i], expected))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_row_value_does_not_depend_on_the_batch(self, data):
        # The rank p-value needs a sampled copy of the observation to tie
        # with it, so each row must score the same alone, in any batch
        # size and at any position.
        d = data.draw(st.integers(1, 300))
        cells = st.one_of(st.just(0.0), st.floats(0.1, 100.0))
        expected = data.draw(hnp.arrays(float, d, elements=cells))
        table = st.integers(0, 30)
        rows = data.draw(hnp.arrays(np.int64, (data.draw(st.integers(1, 12)), d), elements=table))
        others = data.draw(hnp.arrays(np.int64, (data.draw(st.integers(1, 12)), d), elements=table))
        batch = chi_square_many(rows, expected)
        alone = [chi_square_statistic(row, expected) for row in rows]
        assert np.array_equal(batch, alone)
        assert np.array_equal(chi_square_many(rows[::-1], expected)[::-1], batch)
        assert np.array_equal(chi_square_many(np.vstack([others, rows]), expected)[len(others):], batch)
        assert np.array_equal(chi_square_many(rows[:1], expected), batch[:1])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_bytes_as_the_masked_copy_form(self, data):
        # With and without zero-expected cells, and with observed counts there.
        d = data.draw(st.integers(1, 300))
        cells = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))
        expected = data.draw(hnp.arrays(float, d, elements=cells))
        m = data.draw(st.integers(1, 12))
        points = data.draw(hnp.arrays(np.int64, (m, d), elements=st.integers(0, 30)))
        if data.draw(st.booleans()):
            points[:, expected == 0] = 0
        for block in (points, points.astype(float), points[:1]):
            kept = block.copy()
            got, want = chi_square_many(block, expected), oracles.chi_square_many(block, expected)
            assert got.tobytes() == want.tobytes()
            assert block.tobytes() == kept.tobytes()


    def test_statistics_own_their_data(self):
        # A column view would keep the whole (m, d) float block alive for m values.
        rng = np.random.default_rng(17)
        expected = rng.uniform(0.5, 4.0, size=50)
        points = rng.integers(0, 7, size=(20, 50))
        stats = chi_square_many(points, expected)
        assert stats.base is None and stats.flags.owndata
        assert stats.tobytes() == oracles.chi_square_many(points, expected).tobytes()


class TestFileFormats:
    def test_table_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        cells = np.arange(12)
        path.write_text("dims=3x4\n0,1,2,3\n4,5,6,7\n8,9,10,11\n")
        dims, back = read_table_csv(path)
        assert dims == (3, 4)
        assert np.array_equal(back, cells)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValidationError, match="dims="):
            read_table_csv(path)

    def test_wrong_cell_count_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("dims=2x2\n1,2,3\n")
        with pytest.raises(ValidationError):
            read_table_csv(path)

    def test_edge_list(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 2\n2 3\n\n# comment\n3 1\n")
        edges, max_id = read_edge_list(path)
        assert edges == [(0, 1), (1, 2), (2, 0)]
        assert max_id == 3

    def test_edge_list_rejects_self_loop(self, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("1 1\n")
        with pytest.raises(ValidationError):
            read_edge_list(path)
