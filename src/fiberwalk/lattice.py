"""Kernel bases, move arithmetic, decomposition, and move lifting.

A move is any integer vector in the kernel of the design matrix;
adding one to a fiber point preserves the marginals.  The basis
returned by :func:`compute_lattice_basis` spans that kernel as a
vector space with exactly ``d - rank(M)`` primitive integer vectors.
Large problems can be split into induced subgraphs whose own bases
are computed cheaply and lifted back by zero padding.
"""

from dataclasses import dataclass

import networkx as nx
import numpy as np

from ._exact import exact_matvec, integer_kernel_basis
from .errors import (
    ContractViolation,
    DecompositionError,
    LiftError,
    OracleTooLargeError,
    ValidationError,
)
from .models import DesignMatrix, beta_model, build_design_matrix

CONNECTED_COMPONENTS = "connected_components"
K_CORE = "k_core"
BRIDGE_CUTS = "bridge_cuts"
INDUCED_SUBGRAPHS = "induced_subgraphs"


def _entries(mat):
    return mat.entries if isinstance(mat, DesignMatrix) else np.asarray(mat)


@dataclass(frozen=True)
class LatticeBasis:
    """Integer kernel vectors, one per row of ``vectors``."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=np.int64)
        if arr.ndim != 2:
            raise ContractViolation("basis vectors must form a 2-D array")
        object.__setattr__(self, "vectors", arr)

    @property
    def count(self):
        return self.vectors.shape[0]

    @property
    def dim(self):
        return self.vectors.shape[1]


@dataclass(frozen=True)
class Move:
    """An integer vector in the kernel of a design matrix."""

    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=np.int64))

    @property
    def is_zero(self):
        return not self.delta.any()


@dataclass(frozen=True)
class SubProblem:
    """A sub-fiber induced on a subset of the parent's columns.

    ``column_map`` lists, per sub-matrix column, the parent column
    label it came from; the order matches the sub-matrix columns.
    """

    sub_matrix: DesignMatrix
    sub_point: np.ndarray
    column_map: tuple
    node_set: tuple = ()

    def __post_init__(self):
        if len(self.column_map) != self.sub_matrix.n_cols:
            raise ContractViolation("column_map length must match sub-matrix width")
        if len(set(self.column_map)) != len(self.column_map):
            raise ContractViolation("column_map must be injective")


def compute_lattice_basis(design):
    """Primitive integer kernel basis of a design matrix.

    The elimination is exact (Python integers), so membership in the
    kernel holds with no tolerance.  Vectors are primitive (entry gcd
    1) and sign-normalized (first nonzero entry positive), making the
    result deterministic across platforms.
    """
    mat = _entries(design)
    if mat.size == 0:
        raise ContractViolation("design matrix is empty")
    return LatticeBasis(vectors=integer_kernel_basis(mat))


def combine_moves(coeffs, basis):
    """Integer linear combination of basis vectors."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.shape != (basis.count,):
        raise ContractViolation(
            f"expected {basis.count} coefficients, got {coeffs.shape}"
        )
    if basis.count == 0:
        return Move(delta=np.zeros(basis.dim, dtype=np.int64))
    return Move(delta=coeffs @ basis.vectors)


def in_kernel(design, move):
    """Exact check that ``design @ move == 0``."""
    delta = move.delta if isinstance(move, Move) else move
    return all(v == 0 for v in exact_matvec(_entries(design), delta))


def decompose_initial_point(edges, n_nodes, strategy, k=None, node_sets=None):
    """Split a graph problem into beta-model sub-problems.

    ``edges`` are the 0-based node pairs of a simple graph, as
    :func:`~fiberwalk.models.observe_graph` accepts them.
    Strategies: connected components; the k-core (split into its
    components); bridge cuts (components after removing all bridges);
    or caller-chosen induced subgraphs, which must be pairwise
    edge-disjoint.  Every parent edge lands in at most one sub-problem.
    """
    if not edges:
        raise DecompositionError("graph has no edges")
    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    counts = {}
    for i, j in edges:
        a, b = min(i, j), max(i, j)
        if a == b or b >= n_nodes or a < 0:
            raise ValidationError(f"bad edge ({i}, {j}) for {n_nodes} nodes")
        counts[(a, b)] = counts.get((a, b), 0) + 1
        graph.add_edge(a, b)

    if strategy == CONNECTED_COMPONENTS:
        groups = [c for c in nx.connected_components(graph) if len(c) >= 2]
    elif strategy == K_CORE:
        if k is None:
            raise ContractViolation("k_core strategy requires k")
        core = nx.k_core(graph, k)
        groups = [c for c in nx.connected_components(core) if len(c) >= 2]
    elif strategy == BRIDGE_CUTS:
        pruned = graph.copy()
        pruned.remove_edges_from(list(nx.bridges(graph)))
        groups = [c for c in nx.connected_components(pruned) if len(c) >= 2]
    elif strategy == INDUCED_SUBGRAPHS:
        if not node_sets:
            raise ContractViolation("induced_subgraphs strategy requires node sets")
        groups = [set(int(v) for v in s) for s in node_sets]
        groups = [g for g in groups if len(g) >= 2]
        seen = set()
        for g in groups:
            for a in g:
                for b in g:
                    if a < b and (a, b) in counts:
                        if (a, b) in seen:
                            raise DecompositionError(
                                f"edge ({a}, {b}) appears in more than one induced subgraph"
                            )
                        seen.add((a, b))
    else:
        raise ContractViolation(f"unknown decomposition strategy {strategy!r}")

    subs = []
    for g in groups:
        nodes = tuple(sorted(g))
        spec = beta_model(len(nodes))
        design = build_design_matrix(spec)
        labels = [(nodes[i], nodes[j]) for (i, j) in design.column_labels]
        point = np.array([counts.get(lab, 0) for lab in labels], dtype=np.int64)
        subs.append(
            SubProblem(
                sub_matrix=design,
                sub_point=point,
                column_map=tuple(labels),
                node_set=nodes,
            )
        )
    if not subs:
        raise DecompositionError(f"strategy {strategy!r} produced no usable sub-problem")
    return subs


def lift_move(sub_move, sub, parent_labels):
    """Embed a sub-problem move into the parent coordinate order.

    Walks the parent labels appending either 0 or the matching
    sub-move entry, so the result applies directly to parent points.
    """
    delta = sub_move.delta if isinstance(sub_move, Move) else np.asarray(sub_move)
    if len(delta) != len(sub.column_map):
        raise ContractViolation("sub-move length must match the sub-problem")
    position = {lab: idx for idx, lab in enumerate(parent_labels)}
    out = np.zeros(len(parent_labels), dtype=np.int64)
    for value, label in zip(delta, sub.column_map):
        if label not in position:
            raise LiftError(f"sub-problem label {label!r} missing from parent labels")
        out[position[label]] = value
    return Move(delta=out)


def lift_basis(sub_bases, subs, parent_labels):
    """Lift every vector of every sub-basis; returns one move collection.

    The result spans the direct sum of the sub-kernels inside the
    parent kernel; it is a valid move set but not necessarily a full
    kernel basis of the parent.
    """
    rows = []
    for basis, sub in zip(sub_bases, subs):
        for vec in basis.vectors:
            rows.append(lift_move(Move(delta=vec), sub, parent_labels).delta)
    if not rows:
        raise DecompositionError("no sub-basis vectors to lift")
    return LatticeBasis(vectors=np.array(rows, dtype=np.int64))


def enumerate_fiber(design, marginals, cap=100_000):
    """Exhaustive set of solutions of ``Mx = b`` with ``0 <= x <= design.cell_bound``.

    Depth-first search over coordinates with margin pruning; each
    partial assignment keeps the residual ``b`` nonnegative, and rows
    with no remaining support must have residual zero.  Intended as a
    ground-truth oracle at desk scale; raises once more than ``cap``
    points are found.
    """
    mat = design.entries
    b = np.asarray(marginals, dtype=np.int64)
    n, d = mat.shape
    if np.any(mat < 0):
        raise ContractViolation("enumeration requires a nonnegative matrix")
    if np.any(b < 0):
        return set()
    if d > 0 and np.any(mat.sum(axis=0) == 0):
        raise OracleTooLargeError("a zero column makes the fiber unbounded")

    # support_after[i][r]: does any column >= i touch row r?
    support_after = np.zeros((d + 1, n), dtype=bool)
    for i in range(d - 1, -1, -1):
        support_after[i] = support_after[i + 1] | (mat[:, i] > 0)

    points = set()
    x = np.zeros(d, dtype=np.int64)

    def recurse(i, residual):
        if np.any(residual[~support_after[i]] != 0):
            return
        if i == d:
            if not residual.any():
                if len(points) >= cap:
                    raise OracleTooLargeError(f"fiber exceeds cap of {cap} points")
                points.add(tuple(int(v) for v in x))
            return
        col = mat[:, i]
        rows = col > 0
        ub = int(np.min(residual[rows] // col[rows]))
        if design.cell_bound is not None:
            ub = min(ub, design.cell_bound)
        for v in range(ub + 1):
            x[i] = v
            recurse(i + 1, residual - v * col)
        x[i] = 0

    recurse(0, b.copy())
    return points


# ------------------------------------------------------------------
# Basis file format
# ------------------------------------------------------------------

def save_basis(path, basis):
    """One vector per line, space-separated, under a ``c= d=`` header."""
    with open(path, "w") as fh:
        fh.write(f"c={basis.count} d={basis.dim}\n")
        for vec in basis.vectors:
            fh.write(" ".join(map(str, vec.tolist())) + "\n")


def load_basis(path):
    with open(path) as fh:
        header = fh.readline().split()
        try:
            count = int(header[0].split("=")[1])
            dim = int(header[1].split("=")[1])
            vectors = np.zeros((count, dim), dtype=np.int64)
        except (IndexError, ValueError):
            raise ValidationError(
                f"{path}: basis file must start with 'c=<count> d=<dim>'"
            ) from None
        mismatch = f"{path}: basis body does not match its header"
        rows = 0
        for line in fh:
            if line.strip():
                row = np.array(line.split(), dtype=np.int64)
                if rows == count or row.shape != (dim,):
                    raise ValidationError(mismatch)
                vectors[rows] = row
                rows += 1
    if rows != count:
        raise ValidationError(mismatch)
    return LatticeBasis(vectors=vectors)
