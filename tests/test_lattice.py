"""Tests for kernel bases, moves, decomposition, lifting, and enumeration."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fiberwalk import _exact
from fiberwalk._exact import dense_kernel_basis, integer_kernel_basis, integer_rank
from fiberwalk.errors import (
    ContractViolation,
    DecompositionError,
    OracleTooLargeError,
    ValidationError,
)
from fiberwalk.lattice import (
    BRIDGE_CUTS,
    CONNECTED_COMPONENTS,
    INDUCED_SUBGRAPHS,
    K_CORE,
    LatticeBasis,
    Move,
    SubProblem,
    combine_moves,
    compute_lattice_basis,
    decompose_initial_point,
    enumerate_fiber,
    in_kernel,
    lift_basis,
    load_basis,
    save_basis,
)
from fiberwalk.models import (
    DesignMatrix,
    ModelSpec,
    all_two_way,
    beta_model,
    build_design_matrix,
    independence,
    observe_graph,
    verify_marginals,
)

from .oracles import (
    box_fiber,
    box_sides,
    exact_matvec,
    kernel_basis,
    rational_rank,
    sparse_columns,
)


class TestComputeLatticeBasis:
    def test_single_row(self):
        basis = kernel_basis(np.array([[1, 1]]))
        assert basis.count == 1
        assert np.array_equal(basis.vectors[0], [1, -1])

    def test_identity_has_trivial_kernel(self):
        basis = kernel_basis(np.eye(2, dtype=np.int64))
        assert basis.count == 0

    def test_independence_2x2(self):
        dm = build_design_matrix(independence(2, 2))
        basis = compute_lattice_basis(dm)
        assert basis.count == 1
        assert np.array_equal(basis.vectors[0], [1, -1, -1, 1])

    def test_vectors_are_primitive_and_sign_normalized(self):
        basis = kernel_basis(np.array([[2, 4], [1, 2]]))
        assert basis.count == 1
        vec = basis.vectors[0]
        assert vec[np.nonzero(vec)[0][0]] > 0
        assert np.gcd.reduce(np.abs(vec[vec != 0])) == 1

    def test_random_matrices_property(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = rng.integers(1, 9)
            d = rng.integers(n, 21)
            mat = rng.integers(0, 2, size=(n, d))
            basis = kernel_basis(mat)
            assert basis.count == d - rational_rank(mat)
            for vec in basis.vectors:
                assert all(v == 0 for v in exact_matvec(mat, vec))
            if basis.count:
                assert rational_rank(basis.vectors) == basis.count

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContractViolation):
            compute_lattice_basis(
                DesignMatrix(rows=np.zeros((0, 1), dtype=np.int64), n_rows=0, column_labels=())
            )

    def test_integer_rank_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mat = rng.integers(-3, 4, size=(4, 6))
            assert integer_rank(*sparse_columns(mat)) == rational_rank(mat)


# sha256 of each basis as little-endian int64 bytes.  The values come
# from the dense-column form of the elimination; the sparse columns run
# the same operations in the same order and must give the same bytes,
# and so must the int64 array form that wide designs run.
GOLDEN_BASES = [
    ("independence(4,4)", independence(4, 4),
     "544b94f10f3e13d236079a4a0286cdb50ca3b6e1eb36eeb33538ed72c2d00ced"),
    ("all_two_way(3,3,3,zeros)", all_two_way(3, 3, 3, structural_zeros=[0, 13, 26]),
     "f203626dfb786a9d71bdf8a2bf0e7db4e8f06d71df0d2c2eed8956f72629f570"),
    ("beta_model(30)", beta_model(30),
     "014f64ab9e8568a9d235edfb24c98724c0dc82bd93946c2339151f76ac0b3def"),
    ("beta_model(50)", beta_model(50),
     "632900e372237571e0dc3906be41862da38dedcbd8ea8d6addb889a155df75b4"),
    ("beta_model(70)", beta_model(70),
     "6ad290101392cbcda7890e806fa21c676ea936aa932b7fc2320c275ed9d8f429"),
]


@pytest.mark.parametrize(
    "spec, digest", [g[1:] for g in GOLDEN_BASES], ids=[g[0] for g in GOLDEN_BASES]
)
def test_basis_bytes_are_golden(spec, digest):
    basis = compute_lattice_basis(build_design_matrix(spec))
    assert hashlib.sha256(basis.vectors.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "spec, digest", [g[1:] for g in GOLDEN_BASES], ids=[g[0] for g in GOLDEN_BASES]
)
def test_both_forms_give_the_golden_bytes(spec, digest):
    mat = build_design_matrix(spec).entries
    shape, nonzeros = dense = dense_kernel_basis(mat)
    assert _as_lists(dense) == _as_lists(integer_kernel_basis(*sparse_columns(mat)))
    vectors = LatticeBasis(shape=shape, nonzeros=nonzeros).vectors
    assert hashlib.sha256(vectors.astype("<i8").tobytes()).hexdigest() == digest


def _as_lists(result):
    """An elimination's ``(shape, nonzeros)`` as Python ints, whichever form returned it."""
    shape, nonzeros = result
    return tuple(shape), [[int(v) for v in part] for part in nonzeros]


def test_width_picks_the_form(monkeypatch):
    dense_calls = []

    def counting_dense(mat):
        dense_calls.append(mat.shape[1])
        return dense_kernel_basis(mat)

    monkeypatch.setattr(_exact, "dense_kernel_basis", counting_dense)
    for spec in (independence(4, 4), all_two_way(3, 3, 3, structural_zeros=[0, 13, 26]),
                 beta_model(13), beta_model(14), beta_model(70)):
        compute_lattice_basis(build_design_matrix(spec))
    assert dense_calls == [91, 2415]


# Small integer matrices with negative and non-0/1 entries (zeros too,
# so some columns vanish and some rows are dependent).
small_matrices = hnp.arrays(
    np.int64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7),
    elements=st.integers(-4, 4),
)


@st.composite
def elimination_inputs(draw):
    """A small matrix with up to two columns zeroed and, sometimes, an
    added row that is an integer combination of its first two rows."""
    mat = draw(small_matrices)
    mat[:, draw(st.lists(st.integers(0, mat.shape[1] - 1), max_size=2))] = 0
    if len(mat) > 1 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        mat = np.vstack([mat, a * mat[0] + b * mat[1]])
    return mat


class TestEliminationProperties:
    @settings(max_examples=300, deadline=None)
    @given(elimination_inputs())
    # Rows whose least entry does not divide the others take several
    # Euclid rounds: [3, -4] takes three.
    @example(np.array([[3, -4, 0], [4, 3, -2]]))
    @example(np.array([[2, 4, 0], [1, 2, 0], [0, 0, 0]]))
    def test_dense_form_equals_the_dict_form(self, mat):
        dense = dense_kernel_basis(mat)
        assert all(part.dtype == np.int64 for part in dense[1])
        assert _as_lists(dense) == _as_lists(integer_kernel_basis(*sparse_columns(mat)))
        assert mat.shape[1] - dense[0][0] == integer_rank(*sparse_columns(mat))

    @pytest.mark.parametrize("mat", [
        # Row 0 subtracts 2**40 times column 0 from column 1, whose row 1
        # becomes -2**80; the kernel vector holds 2**80.
        [[1, 2**40, 0], [2**40, 0, 1]],
        # The update (column 1 minus column 0) stays small, but its bound
        # 2**61 + 1 + 2**61 does not, so the Python ints take over.
        [[2**61, 2**61 + 1]],
    ])
    def test_dense_form_hands_a_growing_matrix_to_python_ints(self, mat):
        mat = np.array(mat, dtype=np.int64)
        reference = integer_kernel_basis(*sparse_columns(mat))
        assert _as_lists(dense_kernel_basis(mat)) == _as_lists(reference)

    @settings(max_examples=200, deadline=None)
    @given(small_matrices)
    def test_integer_rank_matches_rational_oracle(self, mat):
        assert integer_rank(*sparse_columns(mat)) == rational_rank(mat)

    @settings(max_examples=200, deadline=None)
    @given(small_matrices)
    def test_kernel_basis_is_exact_full_rank_primitive_normalized(self, mat):
        d = mat.shape[1]
        basis = kernel_basis(mat)
        assert basis.vectors.shape == (d - rational_rank(mat), d)
        assert basis.vectors.dtype == np.int64
        if not basis.count:
            return
        # Object dtype multiplies in Python ints, independently of the package.
        assert not (mat.astype(object) @ basis.vectors.T.astype(object)).any()
        assert rational_rank(basis.vectors) == basis.count
        for vec in basis.vectors:
            support = vec[vec != 0]
            assert np.gcd.reduce(np.abs(support)) == 1
            assert support[0] > 0

    @settings(max_examples=200, deadline=None)
    @given(small_matrices, st.data())
    def test_combine_moves_equals_dense_product(self, mat, data):
        kernel = kernel_basis(mat)
        # A random sparse basis (zero rows and c = 0 included), and it lifted
        # onto increasing columns of a wider space.
        sparse = LatticeBasis(vectors=data.draw(hnp.arrays(
            np.int64,
            st.tuples(st.integers(0, 5), st.integers(1, 6)),
            elements=st.sampled_from([0, 0, 0, 1, -1, 7, -2**40]),
        )))
        columns = sorted(data.draw(st.sets(st.integers(0, 9), min_size=sparse.dim, max_size=sparse.dim)))
        bases = [kernel, sparse]
        if sparse.count:
            bases.append(lift_basis([sparse], [_make_sub(columns)], 10))
        for basis in bases:
            coeffs = np.array(
                data.draw(st.lists(st.integers(-3, 3), min_size=basis.count, max_size=basis.count)),
                dtype=np.int64,
            )
            move = combine_moves(coeffs, basis)
            assert move.delta.dtype == np.int64
            assert np.array_equal(move.delta, coeffs @ basis.vectors)
            if basis is kernel:
                assert not any(exact_matvec(mat, move.delta))


class TestCombineMoves:
    def test_scalar_multiple(self):
        basis = LatticeBasis(vectors=np.array([[1, -1, -1, 1]]))
        move = combine_moves(np.array([2]), basis)
        assert np.array_equal(move.delta, [2, -2, -2, 2])

    def test_zero_combination(self):
        basis = LatticeBasis(vectors=np.array([[1, -1, -1, 1]]))
        assert combine_moves(np.array([0]), basis).is_zero

    def test_two_vector_combination(self):
        # Kernel vectors of [[1,1,1]] chosen by hand.
        basis = LatticeBasis(vectors=np.array([[1, -1, 0], [0, 1, -1]]))
        move = combine_moves(np.array([1, -1]), basis)
        assert np.array_equal(move.delta, [1, -2, 1])
        assert exact_matvec([[1, 1, 1]], move.delta) == [0]

    def test_wrong_length_rejected(self):
        basis = LatticeBasis(vectors=np.array([[1, -1]]))
        with pytest.raises(ContractViolation):
            combine_moves(np.array([1, 2]), basis)

    def test_combination_stays_in_kernel(self):
        rng = np.random.default_rng(9)
        mat = rng.integers(0, 2, size=(4, 9))
        basis = kernel_basis(mat)
        for _ in range(25):
            coeffs = rng.integers(-2, 3, size=basis.count)
            assert not any(exact_matvec(mat, combine_moves(coeffs, basis).delta))


def _graph(n, edges, zeros=()):
    """Design and 0/1 counts of a graph on ``n`` nodes (0-based edges)."""
    spec = beta_model(n, structural_zeros=zeros)
    design = build_design_matrix(spec)
    return design, observe_graph(spec, design, edges).counts


class TestDecompose:
    def test_two_disjoint_triangles(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        subs = decompose_initial_point(*_graph(6, edges), "connected_components")
        assert len(subs) == 2
        assert all(len(s.node_set) == 3 for s in subs)
        assert all(s.sub_matrix.n_cols == 3 for s in subs)

    def test_path_has_empty_2_core(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(DecompositionError):
            decompose_initial_point(*_graph(4, edges), "k_core", k=2)

    def test_induced_subgraph_restriction(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        subs = decompose_initial_point(
            *_graph(5, edges), "induced_subgraphs", node_sets=[{0, 1, 2}]
        )
        assert len(subs) == 1
        assert subs[0].sub_matrix.n_cols == 3
        assert subs[0].sub_matrix.column_labels == ((0, 1), (0, 2), (1, 2))
        assert subs[0].columns.tolist() == [0, 1, 4]

    def test_overlapping_induced_subgraphs_rejected(self):
        edges = [(0, 1), (1, 2)]
        with pytest.raises(DecompositionError):
            decompose_initial_point(
                *_graph(3, edges), "induced_subgraphs", node_sets=[{0, 1}, {0, 1, 2}]
            )

    def test_bridge_cuts_split_barbell(self):
        # Two triangles joined by a bridge 2-3.
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
        subs = decompose_initial_point(*_graph(6, edges), "bridge_cuts")
        assert len(subs) == 2
        assert {s.node_set for s in subs} == {(0, 1, 2), (3, 4, 5)}

    def test_parent_edges_at_most_once(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        subs = decompose_initial_point(*_graph(6, edges), "connected_components")
        seen = []
        for s in subs:
            seen.extend(s.columns.tolist())
        assert len(seen) == len(set(seen))

    def test_structural_zero_carries_over(self):
        # A 4-cycle whose chord 0-2 (pair index 1) the model rules out.
        design, counts = _graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)], zeros=[1])
        subs = decompose_initial_point(design, counts, "connected_components")
        cycle = subs[0]
        assert cycle.node_set == (0, 1, 2, 3)
        assert cycle.sub_matrix.column_labels == ((0, 1), (0, 3), (1, 2), (1, 3), (2, 3))
        assert cycle.sub_matrix.cell_bound == 1
        lifted = lift_basis([compute_lattice_basis(s.sub_matrix) for s in subs], subs, 14)
        assert lifted.count == 1
        assert in_kernel(design, lifted.vectors[0])

    def test_node_set_without_allowed_pair_is_skipped(self):
        design, counts = _graph(4, [(0, 1), (1, 3), (2, 3)], zeros=[1])
        subs = decompose_initial_point(
            design, counts, "induced_subgraphs", node_sets=[{0, 2}, {3}, {1, 2, 3}]
        )
        assert [s.node_set for s in subs] == [(1, 2, 3)]

    @pytest.mark.parametrize("node_sets", [[{0, 1, 4}], [{-1, 0, 1}]])
    def test_node_outside_the_graph_refused(self, node_sets):
        with pytest.raises(ValidationError, match="outside 0..3"):
            decompose_initial_point(
                *_graph(4, [(0, 1), (1, 2)]), "induced_subgraphs", node_sets=node_sets
            )

    def test_counts_outside_the_box_refused(self):
        # A repeated pair: the point [2, 1, 1] is not a simple graph.
        design = build_design_matrix(beta_model(3))
        with pytest.raises(ValidationError, match="0/1"):
            decompose_initial_point(design, [2, 1, 1], "connected_components")

    def test_table_design_refused(self):
        design = build_design_matrix(independence(2, 2))
        with pytest.raises(ContractViolation, match="cell bound"):
            decompose_initial_point(design, [1, 0, 0, 1], "connected_components")


class TestLiftMove:
    def test_zero_padding(self):
        sub = _make_sub(columns=[0, 2])
        lifted = lift_basis([LatticeBasis(vectors=[[1, -1]])], [sub], 3)
        assert np.array_equal(lifted.vectors, [[1, 0, -1]])

    def test_zero_move_lifts_to_zero(self):
        sub = _make_sub(columns=[0, 2])
        lifted = lift_basis([LatticeBasis(vectors=[[0, 0]])], [sub], 3)
        assert not lifted.vectors.any()

    def test_triangle_move_lifts_into_parent_kernel(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
        parent, counts = _graph(5, edges)
        # A triangle alone has no move; with node 3 its 6 pairs have 2.
        subs = decompose_initial_point(
            parent, counts, "induced_subgraphs", node_sets=[{0, 1, 2, 3}]
        )
        sub_basis = compute_lattice_basis(subs[0].sub_matrix)
        lifted = lift_basis([sub_basis], subs, parent.n_cols)
        assert lifted.count == 2
        for vec in lifted.vectors:
            assert in_kernel(parent, vec)

    def test_lift_basis_collects_all_vectors(self):
        # Two disjoint 4-cliques; each beta-model kernel has dimension 2.
        edges = [
            (a, b) for group in ([0, 1, 2, 3], [4, 5, 6, 7])
            for i, a in enumerate(group) for b in group[i + 1:]
        ]
        parent, counts = _graph(8, edges)
        subs = decompose_initial_point(parent, counts, "connected_components")
        bases = [compute_lattice_basis(s.sub_matrix) for s in subs]
        lifted = lift_basis(bases, subs, parent.n_cols)
        assert lifted.count == sum(b.count for b in bases)
        for vec in lifted.vectors:
            assert in_kernel(parent, Move(delta=vec))

    def test_columns_out_of_parent_order_refused(self):
        # A lifted vector lists its nonzeros in column order, so a sub-problem's columns increase.
        with pytest.raises(ContractViolation, match="strictly increase"):
            _make_sub(columns=[2, 0])

    def test_nothing_to_lift_rejected(self):
        sub = _make_sub(columns=[0])
        with pytest.raises(DecompositionError):
            lift_basis([LatticeBasis(vectors=np.zeros((0, 1)))], [sub], 3)


@st.composite
def _decomposed_graphs(draw):
    """A random graph, structural zeros off its edges, and a strategy's sub-problems."""
    n = draw(st.integers(4, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    on = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, flag in zip(pairs, on) if flag]
    assume(edges)
    off = [k for k, flag in enumerate(on) if not flag]
    zeros = draw(st.lists(st.sampled_from(off), unique=True)) if off else []
    strategy = draw(st.sampled_from([CONNECTED_COMPONENTS, K_CORE, BRIDGE_CUTS, INDUCED_SUBGRAPHS]))
    # Disjoint node sets share no node, so they share no edge.
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    node_sets = [{v for v in range(n) if labels[v] == g} for g in range(3)]
    design, counts = _graph(n, edges, zeros)
    try:
        subs = decompose_initial_point(
            design, counts, strategy, k=draw(st.integers(1, 3)), node_sets=node_sets
        )
    except DecompositionError:
        assume(False)
    return design, counts, zeros, subs


class TestDecomposeAndLiftProperties:
    @settings(max_examples=150, deadline=None)
    @given(_decomposed_graphs())
    def test_lifted_moves_are_parent_moves_on_their_columns(self, case):
        design, counts, zeros, subs = case
        bases = [compute_lattice_basis(s.sub_matrix) for s in subs]
        try:
            lifted = lift_basis(bases, subs, design.n_cols)
        except DecompositionError:
            assert not sum(b.count for b in bases)
            return
        assert lifted.count == sum(b.count for b in bases)
        row = 0
        for basis, sub in zip(bases, subs):
            outside = np.ones(design.n_cols, dtype=bool)
            outside[sub.columns] = False
            for vec in lifted.vectors[row:row + basis.count]:
                assert in_kernel(design, vec)
                assert not vec[outside].any()
            row += basis.count

    @settings(max_examples=150, deadline=None)
    @given(_decomposed_graphs())
    def test_sub_problems_are_restrictions_of_the_parent(self, case):
        design, counts, zeros, subs = case
        edges_seen = []
        for sub in subs:
            nodes = list(sub.node_set)
            assert np.array_equal(sub.sub_matrix.entries, design.entries[np.ix_(nodes, sub.columns)])
            assert list(sub.columns) == sorted(sub.columns)
            edges_seen.extend(c for c in sub.columns if counts[c])
            if not zeros:
                full = build_design_matrix(beta_model(len(nodes)))
                assert np.array_equal(sub.sub_matrix.entries, full.entries)
        assert len(edges_seen) == len(set(edges_seen))


class TestEnumerateFiber:
    def test_two_point_fiber(self):
        dm = build_design_matrix(independence(2, 2))
        points = enumerate_fiber(dm, np.array([1, 1, 1, 1]))
        assert points == {(0, 1, 1, 0), (1, 0, 0, 1)}

    def test_forced_single_point(self):
        dm = build_design_matrix(independence(2, 2))
        points = enumerate_fiber(dm, np.array([2, 0, 1, 1]))
        assert points == {(1, 1, 0, 0)}

    def test_zero_marginals_single_zero_point(self):
        dm = build_design_matrix(beta_model(4))
        points = enumerate_fiber(dm, np.zeros(4, dtype=np.int64))
        assert points == {(0,) * 6}

    def test_cap_exceeded(self):
        dm = build_design_matrix(independence(3, 3))
        margins = dm.marginals(np.full(9, 4, dtype=np.int64))
        with pytest.raises(OracleTooLargeError):
            enumerate_fiber(dm, margins, cap=5)

    @pytest.mark.parametrize(
        "n, chords, size",
        [(6, [(0, 3)], 54), (7, [(0, 3), (2, 5)], 553)],
    )
    def test_graph_fiber_holds_only_simple_graphs(self, n, chords, size):
        # A cycle plus chords; counting multigraphs too gives 190 and 2,878.
        dm = build_design_matrix(beta_model(n))
        degrees = np.full(n, 2)
        for a, b in chords:
            degrees[[a, b]] += 1
        points = enumerate_fiber(dm, degrees)
        assert len(points) == size
        assert all(max(p) <= 1 for p in points)

    def test_fiber_closed_under_basis_moves(self):
        dm = build_design_matrix(independence(3, 3))
        basis = compute_lattice_basis(dm)
        margins = dm.marginals(np.array([1, 0, 1, 0, 1, 0, 1, 1, 0], dtype=np.int64))
        fiber = enumerate_fiber(dm, margins)
        for point in fiber:
            for vec in basis.vectors:
                for sign in (1, -1):
                    neighbor = np.array(point) + sign * vec
                    if np.all(neighbor >= 0):
                        assert tuple(int(v) for v in neighbor) in fiber


@st.composite
def _small_designs(draw):
    """A small spec of any family with random structural zeros, and its design."""
    family = draw(st.sampled_from(["independence", "all_two_way", "beta_model"]))
    shape = {
        "independence": st.tuples(st.integers(2, 3), st.integers(2, 3)),
        "all_two_way": st.tuples(st.integers(2, 3), st.just(2), st.just(2)),
        "beta_model": st.tuples(st.integers(3, 5)),
    }[family]
    spec = ModelSpec(family, draw(shape))
    zeros = draw(st.sets(st.integers(0, spec.full_dim - 1), max_size=spec.full_dim // 3))
    spec = ModelSpec(family, spec.shape, zeros)
    return spec, build_design_matrix(spec)


class TestDesignProductsMatchTheDenseMatrix:
    """Every product the package takes with a design, against the dense matrix in Python ints."""

    @settings(max_examples=150, deadline=None)
    @given(_small_designs(), st.data())
    def test_marginals_fiber_and_kernel_checks(self, case, data):
        spec, dm = case
        dense = dm.entries.astype(object)
        assert dense.shape == (dm.n_rows, dm.n_cols)
        # Counts past 2**53, where a float product would round.
        big = data.draw(hnp.arrays(np.int64, dm.n_cols, elements=st.integers(0, 2**58)))
        assert dm.marginals(big).dtype == np.int64
        assert np.array_equal(dm.marginals(big), dense @ big.astype(object))
        assert verify_marginals(dm, big, dense @ big.astype(object))

        high = spec.cell_bound or 2
        point = data.draw(hnp.arrays(np.int64, dm.n_cols, elements=st.integers(0, high)))
        b = dense @ point.astype(object)
        row = data.draw(st.integers(0, dm.n_rows - 1))
        shifted = b.copy()
        shifted[row] += data.draw(st.integers(-1, 1))
        assert verify_marginals(dm, point, b)
        assert verify_marginals(dm, point, shifted) == (not (shifted - b).any())

        vec = data.draw(hnp.arrays(np.int64, dm.n_cols, elements=st.integers(-2, 2)))
        assert in_kernel(dm, vec) == (not (dense @ vec.astype(object)).any())
        basis = compute_lattice_basis(dm)
        if basis.count:
            coeffs = data.draw(hnp.arrays(np.int64, basis.count, elements=st.integers(-2, 2)))
            assert in_kernel(dm, combine_moves(coeffs, basis))

        sides = box_sides(dm.entries, shifted, spec.cell_bound)
        assume(math.prod(s + 1 for s in sides) <= 50_000)
        assert enumerate_fiber(dm, shifted) == box_fiber(dm.entries, shifted, spec.cell_bound)


class TestBasisFile:
    def test_round_trip(self, tmp_path):
        dm = build_design_matrix(independence(3, 4))
        basis = compute_lattice_basis(dm)
        path = tmp_path / "basis.txt"
        save_basis(path, basis)
        back = load_basis(path)
        assert np.array_equal(back.vectors, basis.vectors)
        assert path.read_text().startswith(f"fiberwalk-basis v2 c={basis.count} d={basis.dim}\n")

    def test_file_bytes(self, tmp_path):
        path = tmp_path / "basis.txt"
        vectors = np.array([[1, -1, 0], [0, 0, 0], [0, 12, -12]])
        save_basis(path, LatticeBasis(vectors=vectors))
        assert path.read_bytes() == b"fiberwalk-basis v2 c=3 d=3\n0:1 1:-1\n\n1:12 2:-12\n"
        assert np.array_equal(load_basis(path).vectors, vectors)

    def test_version_1_file_refused_naming_line_1(self, tmp_path):
        # Version 1 wrote every entry of each vector after a "c=<count> d=<dim>" header.
        path = tmp_path / "basis.txt"
        path.write_bytes(b"c=3 d=3\n1 -1 0\n0 0 0\n0 12 -12\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:1: .*run train or lift"):
            load_basis(path)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        dm = build_design_matrix(all_two_way(3, 3, 3, structural_zeros=[0, 13, 26]))
        # The second basis has a zero vector, written as an empty line.
        zero_row = lift_basis(
            [LatticeBasis(vectors=[[0, 0]]), LatticeBasis(vectors=[[3, -1]])],
            [_make_sub([0, 2]), _make_sub([1, 4])],
            5,
        )
        for basis in (compute_lattice_basis(dm), zero_row):
            first, second = tmp_path / "first.txt", tmp_path / "second.txt"
            save_basis(first, basis)
            back = load_basis(first)
            save_basis(second, back)
            assert back.vectors.dtype == np.int64
            assert np.array_equal(back.vectors, basis.vectors)
            assert first.read_bytes().startswith(b"fiberwalk-basis v2 ")
            assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() == b"fiberwalk-basis v2 c=2 d=5\n\n1:3 4:-1\n"

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.int64,
            st.tuples(st.integers(0, 6), st.integers(1, 6)),
            elements=st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max),
        )
    )
    @example(np.zeros((0, 3), dtype=np.int64))
    @example(np.array([[0, 0], [np.iinfo(np.int64).min, np.iinfo(np.int64).max], [0, 0]]))
    def test_round_trip_property(self, tmp_path_factory, vectors):
        path = tmp_path_factory.mktemp("basis") / "basis.txt"
        save_basis(path, LatticeBasis(vectors=vectors))
        assert np.array_equal(load_basis(path).vectors, vectors)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vectors follow\n1 2\n")
        with pytest.raises(ValidationError):
            load_basis(path)

    def test_body_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("fiberwalk-basis v2 c=2 d=3\n0:1 2:-1\n")
        with pytest.raises(ValidationError):
            load_basis(path)

    @pytest.mark.parametrize(
        "text",
        [
            "fiberwalk-basis v2 c=1 d=3\n0:1 2:-1\n1:1 2:-1\n",
            "fiberwalk-basis v2 c=1 d=3\n0:1 3:-1\n",
            "fiberwalk-basis v2 c=1 d=3\n5\n",
        ],
        ids=["extra-row", "column-past-width", "not-a-pair"],
    )
    def test_extra_row_or_wrong_width_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValidationError):
            load_basis(path)


def _make_sub(columns):
    """A one-row SubProblem on the given parent columns."""
    rows = np.zeros((len(columns), 1), dtype=np.int64)
    design = DesignMatrix(rows=rows, n_rows=1, column_labels=())
    return SubProblem(design, columns)
