"""Tests for kernel bases, moves, decomposition, lifting, and enumeration."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fiberwalk._exact import exact_matvec, integer_rank
from fiberwalk.errors import (
    ContractViolation,
    DecompositionError,
    LiftError,
    OracleTooLargeError,
    ValidationError,
)
from fiberwalk.lattice import (
    LatticeBasis,
    Move,
    combine_moves,
    compute_lattice_basis,
    decompose_initial_point,
    enumerate_fiber,
    in_kernel,
    lift_basis,
    lift_move,
    load_basis,
    save_basis,
)
from fiberwalk.models import all_two_way, beta_model, build_design_matrix, independence

from .oracles import rational_rank


class TestComputeLatticeBasis:
    def test_single_row(self):
        basis = compute_lattice_basis(np.array([[1, 1]]))
        assert basis.count == 1
        assert np.array_equal(basis.vectors[0], [1, -1])

    def test_identity_has_trivial_kernel(self):
        basis = compute_lattice_basis(np.eye(2, dtype=np.int64))
        assert basis.count == 0

    def test_independence_2x2(self):
        dm = build_design_matrix(independence(2, 2))
        basis = compute_lattice_basis(dm)
        assert basis.count == 1
        assert np.array_equal(basis.vectors[0], [1, -1, -1, 1])

    def test_vectors_are_primitive_and_sign_normalized(self):
        basis = compute_lattice_basis(np.array([[2, 4], [1, 2]]))
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
            basis = compute_lattice_basis(mat)
            assert basis.count == d - rational_rank(mat)
            for vec in basis.vectors:
                assert all(v == 0 for v in exact_matvec(mat, vec))
            if basis.count:
                assert rational_rank(basis.vectors) == basis.count

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContractViolation):
            compute_lattice_basis(np.zeros((0, 0), dtype=np.int64))

    def test_integer_rank_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mat = rng.integers(-3, 4, size=(4, 6))
            assert integer_rank(mat) == rational_rank(mat)


# sha256 of each basis as little-endian int64 bytes.  The values come
# from the dense-column form of the elimination; the sparse columns run
# the same operations in the same order and must give the same bytes.
GOLDEN_BASES = [
    ("independence(4,4)", independence(4, 4),
     "544b94f10f3e13d236079a4a0286cdb50ca3b6e1eb36eeb33538ed72c2d00ced"),
    ("all_two_way(3,3,3,zeros)", all_two_way(3, 3, 3, structural_zeros=[0, 13, 26]),
     "f203626dfb786a9d71bdf8a2bf0e7db4e8f06d71df0d2c2eed8956f72629f570"),
    ("beta_model(30)", beta_model(30),
     "014f64ab9e8568a9d235edfb24c98724c0dc82bd93946c2339151f76ac0b3def"),
    ("beta_model(50)", beta_model(50),
     "632900e372237571e0dc3906be41862da38dedcbd8ea8d6addb889a155df75b4"),
]


@pytest.mark.parametrize(
    "spec, digest", [g[1:] for g in GOLDEN_BASES], ids=[g[0] for g in GOLDEN_BASES]
)
def test_basis_bytes_are_golden(spec, digest):
    basis = compute_lattice_basis(build_design_matrix(spec))
    assert hashlib.sha256(basis.vectors.astype("<i8").tobytes()).hexdigest() == digest


# Small integer matrices with negative and non-0/1 entries (zeros too,
# so some columns vanish and some rows are dependent).
small_matrices = hnp.arrays(
    np.int64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7),
    elements=st.integers(-4, 4),
)


class TestEliminationProperties:
    @settings(max_examples=200, deadline=None)
    @given(small_matrices)
    def test_integer_rank_matches_rational_oracle(self, mat):
        assert integer_rank(mat) == rational_rank(mat)

    @settings(max_examples=200, deadline=None)
    @given(small_matrices)
    def test_kernel_basis_is_exact_full_rank_primitive_normalized(self, mat):
        d = mat.shape[1]
        basis = compute_lattice_basis(mat)
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
        basis = compute_lattice_basis(mat)
        coeffs = np.array(
            data.draw(st.lists(st.integers(-3, 3), min_size=basis.count, max_size=basis.count)),
            dtype=np.int64,
        )
        move = combine_moves(coeffs, basis)
        assert move.delta.dtype == np.int64
        assert np.array_equal(move.delta, coeffs @ basis.vectors)
        assert in_kernel(mat, move)


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
        assert in_kernel(np.array([[1, 1, 1]]), move)

    def test_wrong_length_rejected(self):
        basis = LatticeBasis(vectors=np.array([[1, -1]]))
        with pytest.raises(ContractViolation):
            combine_moves(np.array([1, 2]), basis)

    def test_combination_stays_in_kernel(self):
        rng = np.random.default_rng(9)
        mat = rng.integers(0, 2, size=(4, 9))
        basis = compute_lattice_basis(mat)
        for _ in range(25):
            coeffs = rng.integers(-2, 3, size=basis.count)
            assert in_kernel(mat, combine_moves(coeffs, basis))


class TestDecompose:
    def test_two_disjoint_triangles(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        subs = decompose_initial_point(edges, 6, "connected_components")
        assert len(subs) == 2
        assert all(len(s.node_set) == 3 for s in subs)
        assert all(s.sub_matrix.n_cols == 3 for s in subs)

    def test_path_has_empty_2_core(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(DecompositionError):
            decompose_initial_point(edges, 4, "k_core", k=2)

    def test_induced_subgraph_restriction(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        subs = decompose_initial_point(
            edges, 5, "induced_subgraphs", node_sets=[{0, 1, 2}]
        )
        assert len(subs) == 1
        assert subs[0].sub_matrix.n_cols == 3
        assert subs[0].column_map == ((0, 1), (0, 2), (1, 2))
        assert np.array_equal(subs[0].sub_point, [1, 0, 1])

    def test_overlapping_induced_subgraphs_rejected(self):
        edges = [(0, 1), (1, 2)]
        with pytest.raises(DecompositionError):
            decompose_initial_point(
                edges, 3, "induced_subgraphs", node_sets=[{0, 1}, {0, 1, 2}]
            )

    def test_bridge_cuts_split_barbell(self):
        # Two triangles joined by a bridge 2-3.
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
        subs = decompose_initial_point(edges, 6, "bridge_cuts")
        assert len(subs) == 2
        assert {s.node_set for s in subs} == {(0, 1, 2), (3, 4, 5)}

    def test_parent_edges_at_most_once(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        subs = decompose_initial_point(edges, 6, "connected_components")
        seen = []
        for s in subs:
            seen.extend(s.column_map)
        assert len(seen) == len(set(seen))


class TestLiftMove:
    def test_zero_padding(self):
        sub_design = build_design_matrix(beta_model(2))
        sub = _make_sub(labels=[(0, 1), (2, 3)])
        parent_labels = [(0, 1), (1, 2), (2, 3)]
        lifted = lift_move(Move(delta=np.array([1, -1])), sub, parent_labels)
        assert np.array_equal(lifted.delta, [1, 0, -1])
        del sub_design

    def test_zero_move_lifts_to_zero(self):
        sub = _make_sub(labels=[(0, 1), (2, 3)])
        lifted = lift_move(Move(delta=np.array([0, 0])), sub, [(0, 1), (1, 2), (2, 3)])
        assert lifted.is_zero

    def test_label_mismatch(self):
        sub = _make_sub(labels=[(0, 1), (7, 8)])
        with pytest.raises(LiftError):
            lift_move(Move(delta=np.array([1, -1])), sub, [(0, 1), (1, 2)])

    def test_triangle_move_lifts_into_parent_kernel(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
        parent = build_design_matrix(beta_model(5))
        subs = decompose_initial_point(
            edges, 5, "induced_subgraphs", node_sets=[{0, 1, 2}]
        )
        sub = subs[0]
        sub_basis = compute_lattice_basis(sub.sub_matrix)
        for vec in sub_basis.vectors:
            lifted = lift_move(Move(delta=vec), sub, parent.column_labels)
            assert in_kernel(parent, lifted)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        sub = _make_sub(labels=[(0, 2), (1, 3)])
        delta = np.array([3, -2])
        parent_labels = [(0, 1), (0, 2), (1, 3), (2, 3)]
        base = lift_move(Move(delta=delta), sub, parent_labels)
        perm = rng.permutation(len(parent_labels))
        permuted_labels = [parent_labels[i] for i in perm]
        lifted = lift_move(Move(delta=delta), sub, permuted_labels)
        for i, lab in enumerate(permuted_labels):
            assert lifted.delta[i] == base.delta[parent_labels.index(lab)]

    def test_lift_basis_collects_all_vectors(self):
        # Two disjoint 4-cliques; each beta-model kernel has dimension 2.
        edges = [
            (a, b) for group in ([0, 1, 2, 3], [4, 5, 6, 7])
            for i, a in enumerate(group) for b in group[i + 1:]
        ]
        parent = build_design_matrix(beta_model(8))
        subs = decompose_initial_point(edges, 8, "connected_components")
        bases = [compute_lattice_basis(s.sub_matrix) for s in subs]
        lifted = lift_basis(bases, subs, parent.column_labels)
        assert lifted.count == sum(b.count for b in bases)
        for vec in lifted.vectors:
            assert in_kernel(parent, Move(delta=vec))


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


class TestBasisFile:
    def test_round_trip(self, tmp_path):
        dm = build_design_matrix(independence(3, 4))
        basis = compute_lattice_basis(dm)
        path = tmp_path / "basis.txt"
        save_basis(path, basis)
        back = load_basis(path)
        assert np.array_equal(back.vectors, basis.vectors)
        assert path.read_text().startswith(f"c={basis.count} d={basis.dim}\n")

    def test_file_bytes(self, tmp_path):
        path = tmp_path / "basis.txt"
        save_basis(path, LatticeBasis(vectors=np.array([[1, -1, 0], [0, 12, -12]])))
        assert path.read_bytes() == b"c=2 d=3\n1 -1 0\n0 12 -12\n"

    def test_save_load_save_is_byte_identical(self, tmp_path):
        dm = build_design_matrix(all_two_way(3, 3, 3, structural_zeros=[0, 13, 26]))
        basis = compute_lattice_basis(dm)
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_basis(first, basis)
        back = load_basis(first)
        save_basis(second, back)
        assert back.vectors.dtype == np.int64
        assert np.array_equal(back.vectors, basis.vectors)
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.int64,
            st.tuples(st.integers(0, 6), st.integers(1, 6)),
            elements=st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max),
        )
    )
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
        path.write_text("c=2 d=3\n1 0 -1\n")
        with pytest.raises(ValidationError):
            load_basis(path)

    @pytest.mark.parametrize(
        "text", ["c=1 d=3\n1 0 -1\n0 1 -1\n", "c=1 d=3\n1 -1\n", "c=1 d=3\n5\n"]
    )
    def test_extra_row_or_wrong_width_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValidationError):
            load_basis(path)


def _make_sub(labels):
    """Minimal SubProblem stand-in with the given parent labels."""
    from fiberwalk.lattice import SubProblem

    design = build_design_matrix(beta_model(2))
    # beta_model(2) has exactly one column; widen by stacking boards when
    # more labels are requested.
    if len(labels) == 1:
        return SubProblem(
            sub_matrix=design, sub_point=np.array([0]), column_map=tuple(labels)
        )
    from fiberwalk.models import DesignMatrix

    mat = np.ones((1, len(labels)), dtype=np.int64)
    design = DesignMatrix(entries=mat, rank=1, column_labels=tuple(range(len(labels))))
    return SubProblem(
        sub_matrix=design,
        sub_point=np.zeros(len(labels), dtype=np.int64),
        column_map=tuple(labels),
    )
