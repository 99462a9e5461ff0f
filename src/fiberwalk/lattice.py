"""Kernel bases, move arithmetic, decomposition, and move lifting.

A move is any integer vector in the kernel of the design matrix;
adding one to a fiber point preserves the marginals.  The basis
returned by :func:`compute_lattice_basis` spans that kernel as a
vector space with exactly ``d - rank(M)`` primitive integer vectors.
A basis is held as its nonzeros, a handful per vector even when d is
in the thousands: the elimination emits them, a move is one integer
scatter of them, and the basis file lists only them.
A large graph problem can be split into sub-problems, each a set of
the parent design's columns, so the parent's structural zeros and 0/1
box carry over; a graph design's rows are its nodes, so a sub-problem's
margin-rows table is the parent's, renumbered to its nodes.  Their small
bases are lifted back by zero padding: each vector's nonzeros are
written at its parent columns.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from ._exact import margin_kernel_basis
from .errors import (
    ContractViolation,
    DecompositionError,
    OracleTooLargeError,
    ValidationError,
    open_utf8,
)
from .models import DesignMatrix, overshoot

CONNECTED_COMPONENTS = "connected_components"
K_CORE = "k_core"
BRIDGE_CUTS = "bridge_cuts"
INDUCED_SUBGRAPHS = "induced_subgraphs"


@dataclass(frozen=True, init=False)
class LatticeBasis:
    """``count`` integer kernel vectors of length ``dim``, held as their nonzeros.

    Nonzero ``k`` is ``vals[k]`` at column ``cols[k]`` of vector
    ``rows[k]``, in vector order and, within a vector, in column order;
    all three are int64.  ``LatticeBasis(vectors)`` takes the nonzeros
    of a dense 2-D array; ``LatticeBasis(shape=(count, dim),
    nonzeros=(rows, cols, vals))`` takes them as they are.  The dense
    ``vectors`` view is built on first read.
    """

    count: int
    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __init__(self, vectors=None, *, shape=None, nonzeros=None):
        if vectors is not None:
            arr = np.asarray(vectors, dtype=np.int64)
            if arr.ndim != 2:
                raise ContractViolation("basis vectors must form a 2-D array")
            rows, cols = np.nonzero(arr)
            shape, nonzeros = arr.shape, (rows, cols, arr[rows, cols])
        for name, value in zip(("count", "dim"), shape):
            object.__setattr__(self, name, int(value))
        for name, value in zip(("rows", "cols", "vals"), nonzeros):
            object.__setattr__(self, name, np.asarray(value, dtype=np.int64))

    @cached_property
    def vectors(self):
        """Dense read-only ``(count, dim)`` view, for display and outside checks; the package never reads it."""
        out = np.zeros((self.count, self.dim), dtype=np.int64)
        out[self.rows, self.cols] = self.vals
        out.flags.writeable = False
        return out


class Move:
    """An integer vector in the kernel of a design matrix."""

    def __init__(self, delta):
        self.delta = np.asarray(delta, dtype=np.int64)

    @property
    def is_zero(self):
        return not np.count_nonzero(self.delta)


@dataclass(frozen=True)
class SubProblem:
    """A sub-fiber on a set of the parent design's columns.

    ``columns`` holds the parent column index of each sub-matrix
    column, strictly increasing.
    """

    sub_matrix: DesignMatrix
    columns: np.ndarray
    node_set: tuple

    def __post_init__(self):
        object.__setattr__(self, "columns", np.asarray(self.columns, dtype=np.int64))
        if len(self.columns) != self.sub_matrix.n_cols:
            raise ContractViolation("columns length must match sub-matrix width")
        if np.any(np.diff(self.columns) <= 0):
            raise ContractViolation("sub-problem columns must strictly increase")


def compute_lattice_basis(design):
    """Primitive integer kernel basis of a :class:`DesignMatrix`.

    The elimination is exact, so membership in the kernel holds with no
    tolerance.  Its form follows the design's width: below
    ``_exact.WIDE_COLUMNS`` columns it runs on dicts of Python ints,
    from there on one dense int64 working array that reduces a row's
    columns in one numpy update and, before an entry could reach
    ``2**62``, gives the margin-rows table to the dicts of Python ints
    instead.  Both forms make the same decisions and
    give the same bytes.  Vectors are primitive (entry gcd 1) and
    sign-normalized (first nonzero entry positive), making the result
    deterministic across platforms.
    """
    if not design.n_rows or not design.n_cols:
        raise ContractViolation("design matrix is empty")
    shape, nonzeros = margin_kernel_basis(design.n_rows, design.rows)
    return LatticeBasis(shape=shape, nonzeros=nonzeros)


def combine_moves(coeffs, basis):
    """Integer linear combination ``coeffs @ vectors`` of the basis vectors.

    One scatter over the stored nonzeros: each adds its vector's
    coefficient times its value at its column, in int64, so the result
    equals the dense product's entry for entry.  The cost is the
    nonzero count, whatever the basis's width.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.shape != (basis.count,):
        raise ContractViolation(
            f"expected {basis.count} coefficients, got {coeffs.shape}"
        )
    delta = np.zeros(basis.dim, dtype=np.int64)
    np.add.at(delta, basis.cols, coeffs[basis.rows] * basis.vals)
    return Move(delta=delta)


def in_kernel(design, delta):
    """Exact check that ``design @ delta == 0``."""
    return not design.marginals(delta).any()


def decompose_initial_point(design, counts, strategy, k=None, node_sets=None):
    """Split a graph problem into sub-problems, each a set of the parent's columns.

    ``counts`` is a point of the graph ``design``'s 0/1 box, as
    :func:`~fiberwalk.models.observe_graph` builds it; its nonzero
    columns are the edges.  Strategies: connected components; the
    k-core (split into its components); bridge cuts (components after
    removing all bridges); or caller-chosen, pairwise edge-disjoint
    induced subgraphs on 0-based nodes.  A sub-problem keeps the
    design's rows for its nodes and the columns whose pairs lie inside
    them, so structural zeros and the box carry over; a node set with
    no such column is skipped.  Every edge lands in at most one.
    """
    import networkx as nx  # here, not at the top: only a decomposing run pays for it

    if design.cell_bound != 1:
        raise ContractViolation("decomposition applies only to graph data (cell bound 1)")
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (design.n_cols,) or overshoot(counts, 1):
        raise ValidationError(f"observed graph must be a 0/1 point of length {design.n_cols}")
    if not counts.any():
        raise DecompositionError("graph has no edges")
    n = design.n_rows
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(design.rows[np.flatnonzero(counts)].tolist())

    if strategy == CONNECTED_COMPONENTS:
        groups = list(nx.connected_components(graph))
    elif strategy == K_CORE:
        if k is None:
            raise ContractViolation("k_core strategy requires k")
        groups = list(nx.connected_components(nx.k_core(graph, k)))
    elif strategy == BRIDGE_CUTS:
        pruned = graph.copy()
        pruned.remove_edges_from(list(nx.bridges(graph)))
        groups = list(nx.connected_components(pruned))
    elif strategy == INDUCED_SUBGRAPHS:
        if not node_sets:
            raise ContractViolation("induced_subgraphs strategy requires node sets")
        groups = [set(int(v) for v in s) for s in node_sets]
        stray = set().union(*groups) - set(range(n))
        if stray:
            raise ValidationError(f"node set names node {min(stray)}, outside 0..{n - 1} (from 0)")
        seen = set()
        for g in groups:
            edges = {tuple(sorted(e)) for e in graph.subgraph(g).edges}
            if seen & edges:
                raise DecompositionError(f"edge {min(seen & edges)} is in two induced subgraphs")
            seen |= edges
    else:
        raise ContractViolation(f"unknown decomposition strategy {strategy!r}")

    subs = []
    for g in groups:
        nodes = sorted(g)
        columns = np.flatnonzero(np.isin(design.rows, nodes).all(axis=1))
        if columns.size:
            sub_matrix = DesignMatrix(
                rows=np.searchsorted(nodes, design.rows[columns]),
                n_rows=len(nodes),
                column_labels=tuple(design.column_labels[c] for c in columns),
                cell_bound=design.cell_bound,
            )
            subs.append(SubProblem(sub_matrix, columns, tuple(nodes)))
    if not subs:
        raise DecompositionError(f"strategy {strategy!r} produced no usable sub-problem")
    return subs


def lift_basis(sub_bases, subs, n_cols):
    """Write each sub-basis vector's nonzeros at its sub-problem's columns of an ``n_cols`` vector.

    The vectors span the direct sum of the sub-kernels inside the parent
    kernel: a valid move set, not necessarily a parent kernel basis.
    """
    counts = [basis.count for basis in sub_bases]
    if not sum(counts):
        raise DecompositionError("no sub-basis vectors to lift")
    offsets = np.cumsum([0] + counts)
    return LatticeBasis(
        shape=(offsets[-1], n_cols),
        nonzeros=(
            np.concatenate([b.rows + off for b, off in zip(sub_bases, offsets)]),
            np.concatenate([sub.columns[b.cols] for b, sub in zip(sub_bases, subs)]),
            np.concatenate([b.vals for b in sub_bases]),
        ),
    )


def enumerate_fiber(design, marginals, cap=100_000):
    """Exhaustive set of solutions of ``Mx = b`` with ``0 <= x <= design.cell_bound``.

    Depth-first search over coordinates with margin pruning; each
    partial assignment keeps the residual ``b`` nonnegative, and rows
    with no remaining support must have residual zero, and a column takes
    at most the smallest residual of its rows.  Intended as a ground-truth
    oracle at desk scale; raises once more than ``cap`` points are found.
    """
    rows = design.rows
    b = np.asarray(marginals, dtype=np.int64)
    d = design.n_cols
    if np.any(b < 0):
        return set()

    # support_after[i][r]: does any column >= i touch row r?
    support_after = np.zeros((d + 1, design.n_rows), dtype=bool)
    for i in range(d - 1, -1, -1):
        support_after[i] = support_after[i + 1]
        support_after[i, rows[i]] = True

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
        ub = int(residual[rows[i]].min())
        if design.cell_bound is not None:
            ub = min(ub, design.cell_bound)
        for v in range(ub + 1):
            x[i] = v
            step = residual.copy()
            step[rows[i]] -= v
            recurse(i + 1, step)
        x[i] = 0

    recurse(0, b.copy())
    return points


# ------------------------------------------------------------------
# Basis file format
# ------------------------------------------------------------------

_V2_HEADER = "fiberwalk-basis v2"


def save_basis(path, basis):
    """Write a version 2 basis file, which lists only the nonzeros.

    A ``fiberwalk-basis v2 c=<count> d=<dim>`` header, then one line per
    vector listing its nonzeros as ``column:value``, columns ascending;
    a zero vector is an empty line.
    """
    pairs = [f"{c}:{v}" for c, v in zip(basis.cols.tolist(), basis.vals.tolist())]
    bounds = np.searchsorted(basis.rows, np.arange(basis.count + 1)).tolist()
    with open(path, "w") as fh:
        fh.write(f"{_V2_HEADER} c={basis.count} d={basis.dim}\n")
        for start, end in zip(bounds, bounds[1:]):
            fh.write(" ".join(pairs[start:end]) + "\n")


def load_basis(path):
    """Read a version 2 basis file, as :func:`save_basis` writes it.

    :func:`_bulk_nonzeros` parses the whole body at once.  A malformed
    file, or a first line that is not a version 2 header, raises
    :class:`ValidationError` naming its path and line: only then is the
    body parsed again by the same function, one line at a time, to name
    the first faulty line or a line count that differs from the header's.
    """
    with open_utf8(path) as fh:
        words = fh.readline().split()
        try:
            (c_key, count), (d_key, dim) = (w.split("=") for w in words[2:])
            count, dim = int(count), int(dim)
            header = [*words[:2], c_key, d_key]
            if header != [*_V2_HEADER.split(), "c", "d"] or min(count, dim) < 0:
                raise ValueError
        except ValueError:
            raise ValidationError(
                f"{path}:1: basis file must start with '{_V2_HEADER} c=<count> d=<dim>' "
                "(other versions are not read; run train or lift again)"
            ) from None
        text = fh.read()
    lines = text.split("\n")  # not splitlines(), which also breaks at \v, \f and others
    if lines[-1] == "":  # the newline that ends the last line
        lines.pop()
    if len(lines) == count:
        try:
            return LatticeBasis(shape=(count, dim), nonzeros=_bulk_nonzeros(text, lines, dim))
        except ValidationError:
            pass  # named below, at its first faulty line
    for lineno, line in enumerate(lines, start=2):
        if lineno - 2 == count:
            raise ValidationError(f"{path}:{lineno}: more vectors than the header's c={count}")
        try:
            _bulk_nonzeros(line, [line], dim)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    raise ValidationError(
        f"{path}:{len(lines) + 2}: {len(lines)} vectors, but the header says c={count}"
    )


def _bulk_nonzeros(text, lines, dim):
    """The rows, columns and values of the pairs on ``lines``, the lines of ``text``, at once.

    A malformed body raises a :class:`ValidationError` that names no
    line.  The faults are checked in this order: a token that is not a
    ``column:value`` pair of int64 integers, columns that do not
    strictly increase within a line, a column outside ``0..dim-1``, a
    zero value; so on one line it names that line's first fault.
    """
    split = [line.split() for line in lines]
    pairs = list(chain.from_iterable(split))
    try:
        # Colons lie only in pairs: as many as there are pairs, one in each, is exactly one each.
        if text.count(":") != len(pairs) or not all(":" in pair for pair in pairs):
            raise ValueError
        fields = ":".join(pairs).split(":") if pairs else []
        cols = np.array(fields[0::2], dtype=np.int64)
        vals = np.array(fields[1::2], dtype=np.int64)
    except (ValueError, OverflowError):
        raise ValidationError("expected column:value pairs of integers in int64 range") from None
    rows = np.repeat(np.arange(len(lines)), [len(words) for words in split])
    if (np.diff(cols)[rows[1:] == rows[:-1]] <= 0).any():
        raise ValidationError("columns must strictly increase")
    if ((cols < 0) | (cols >= dim)).any():
        raise ValidationError(f"column outside 0..{dim - 1}")
    if (vals == 0).any():
        raise ValidationError("a listed value is 0")
    return rows, cols, vals
