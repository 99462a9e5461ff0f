"""Log-linear model families and their design matrices.

Three families are supported: two-way independence, the all-two-way
interaction model for three-way tables, and the beta model for random
graphs (sufficient statistic = degree sequence).  A family plus an
optional set of structural zeros determines a 0/1 design matrix whose
columns are cells (or node pairs) in lexicographic order; structural
zeros are realized by deleting the corresponding columns, so every
vector in the reduced coordinate space obeys the zero constraints by
construction.

A family's margins are written once, in ``ModelSpec._column_rows``:
for each kept cell, its row in each of the family's margins (a table's
row and column, its three two-way margins, or a node pair's two
nodes).  The design matrix is that table, and every product with it
(marginals, the fiber and kernel checks, a fit's margin totals) is one
scatter of the table in reduced coordinates, so a structural zero is
a column that is not there.  The family also fixes each cell's
upper bound, which the design matrix carries and which picks the fit:
no bound (tables) is fitted by iterative proportional fitting, the 0/1
box (simple graphs) by the Bernoulli fixed point of the beta model.
"""

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from ._exact import margin_kernel_basis
from .errors import (
    ContractViolation,
    DegenerateDataError,
    FitError,
    SizingError,
    ValidationError,
    open_utf8,
)

INDEPENDENCE = "independence"
ALL_TWO_WAY = "all_two_way"
BETA_MODEL = "beta_model"

_FAMILIES = (INDEPENDENCE, ALL_TWO_WAY, BETA_MODEL)

MAX_COLUMNS = 100_000
FIT_TOL = 1e-8  # largest max-norm gap between fitted and observed margins a fit accepts
FIT_MAX_ITER = 10_000  # sweeps of IPF, or iterations of the beta-model fit, before FitError


@dataclass(frozen=True)
class ModelSpec:
    """A model family, its dimensions, and its structural zeros.

    ``shape`` is ``(rows, cols)`` for independence, ``(d1, d2, d3)``
    for the all-two-way model, and ``(n_nodes,)`` for the beta model.
    ``structural_zeros`` holds flat indices into the lexicographic
    cell (or node-pair) order of the full problem.
    """

    family: str
    shape: tuple
    structural_zeros: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(f"unknown model family {self.family!r}")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(
            self, "structural_zeros", frozenset(int(i) for i in self.structural_zeros)
        )
        want = 1 if self.family == BETA_MODEL else (2 if self.family == INDEPENDENCE else 3)
        if len(self.shape) != want:
            raise ValidationError(
                f"{self.family} expects {want} dimension(s), got {self.shape}"
            )
        if any(s < 2 for s in self.shape):
            raise ValidationError("all dimensions must be at least 2")
        d = self.full_dim
        for idx in self.structural_zeros:
            if not 0 <= idx < d:
                raise ValidationError(f"structural zero index {idx} out of range 0..{d - 1}")

    @property
    def cell_bound(self):
        """Largest count a cell may hold: 1 for graphs, ``None`` (no bound) for tables."""
        return 1 if self.family == BETA_MODEL else None

    @property
    def full_dim(self):
        """Number of cells before structural-zero deletion."""
        if self.family == BETA_MODEL:
            n = self.shape[0]
            return n * (n - 1) // 2
        return int(np.prod(self.shape))

    def cell_labels(self):
        """All cell/edge labels of the full problem, lexicographic."""
        if self.family == BETA_MODEL:
            n = self.shape[0]
            return [(i, j) for i in range(n) for j in range(i + 1, n)]
        return [tuple(ix) for ix in np.ndindex(*self.shape)]

    @cached_property
    def _column_rows(self):
        """Each kept cell's design row in each of the family's ``k`` margins.

        ``(rows, n)``: ``rows[c, t]`` is the row that column ``c`` adds
        to in margin ``t`` (a read-only ``(d, k)`` integer array in
        column order), and ``n`` is the number of design rows.  A
        table's margins are its row and column sums (k = 2) or its
        (i,j), (i,k) and (j,k) sums (k = 3), laid out one after
        another; a node pair's are its two nodes.  ``n`` comes from the
        family, so a margin whose cells are all structural zeros keeps
        its (all-zero) row.  The design matrix is this table, and the
        fit reads it too, so it is computed once per spec.
        """
        labels = self.cell_labels()
        ndim = len(labels[0])
        cells = np.array(
            [lab for k, lab in enumerate(labels) if k not in self.structural_zeros], dtype=np.int64
        ).reshape(-1, ndim)
        if self.family == BETA_MODEL:
            rows, n = cells, self.shape[0]
        else:
            # A margin sums out one axis; a cell's row in it is the offset of
            # the margin plus the cell's row-major index with that axis dropped.
            strides, offsets, n = [], [], 0
            for axes in combinations(range(ndim), ndim - 1):
                dims = [self.shape[a] if a in axes else 1 for a in range(ndim)]
                strides.append([math.prod(dims[a + 1:]) if a in axes else 0 for a in range(ndim)])
                offsets.append(n)
                n += math.prod(dims)
            rows = cells @ np.array(strides).T + offsets
        rows.flags.writeable = False
        return rows, n


def independence(rows, cols, structural_zeros=()):
    return ModelSpec(INDEPENDENCE, (rows, cols), frozenset(structural_zeros))


def all_two_way(d1, d2, d3, structural_zeros=()):
    return ModelSpec(ALL_TWO_WAY, (d1, d2, d3), frozenset(structural_zeros))


def beta_model(n_nodes, structural_zeros=()):
    return ModelSpec(BETA_MODEL, (n_nodes,), frozenset(structural_zeros))


@dataclass(frozen=True)
class DesignMatrix:
    """0/1 marginal map of a model family, held as its margin-rows table.

    Column ``c`` of the ``n_rows`` x d matrix has its 1s at the rows
    ``rows[c]`` of the spec's read-only ``(d, k)`` table; ``marginals``
    takes a (reduced) count vector to its sufficient statistics.
    ``column_labels`` names the surviving cells in lexicographic order;
    ``removed_labels`` records the columns deleted for structural zeros;
    ``cell_bound`` is the spec's.  The exact ``rank`` and the dense
    ``entries`` view are computed on first read.  ``rank`` is ``d``
    minus the count of the exact kernel basis, by the elimination
    :func:`~fiberwalk.lattice.compute_lattice_basis` runs: on dicts of
    Python ints below ``_exact.WIDE_COLUMNS`` columns, from there on a
    dense int64 array that restarts on Python ints before an entry
    could reach ``2**62``.
    """

    rows: np.ndarray
    n_rows: int
    column_labels: tuple
    removed_labels: tuple = ()
    cell_bound: int = None

    @property
    def n_cols(self):
        return len(self.rows)

    @cached_property
    def entries(self):
        """Dense ``n_rows`` x d view, for display and outside checks; the package never reads it."""
        mat = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        mat[self.rows, np.arange(self.n_cols)[:, None]] = 1
        return mat

    @cached_property
    def rank(self):
        return self.n_cols - margin_kernel_basis(self.n_rows, self.rows)[0][0]

    def marginals(self, counts):
        counts = np.asarray(counts)
        if counts.shape != (self.n_cols,):
            raise ContractViolation(
                f"count vector has length {counts.shape}, expected {self.n_cols}"
            )
        return _margin_totals(self.rows, self.n_rows, counts)


def overshoot(x, upper=None):
    """Minus the total distance of ``x`` outside ``0..upper`` (``None``: no bound); 0 inside."""
    if x.min() >= 0 and (upper is None or x.max() <= upper):
        return 0
    out = np.minimum(x, 0).sum()
    if upper is not None:
        out += np.minimum(upper - x, 0).sum()
    return int(out)


def _margin_totals(rows, n, values):
    """``M @ values`` for the margin-rows table ``rows`` of ``n`` rows.

    Each column's value is added at its rows, in the values' dtype widened
    to at least int64: exact on integer counts, in column order on floats.
    """
    out = np.zeros(n, dtype=np.result_type(values, np.int64))
    np.add.at(out, rows.ravel(), np.repeat(values, rows.shape[1]))
    return out


def build_design_matrix(spec):
    """Design matrix of ``spec`` with structural-zero columns deleted."""
    if spec.full_dim > MAX_COLUMNS:
        raise SizingError(
            f"{spec.full_dim} columns exceeds the configured maximum {MAX_COLUMNS}"
        )
    rows, n = spec._column_rows
    labels = spec.cell_labels()
    return DesignMatrix(
        rows=rows,
        n_rows=n,
        column_labels=tuple(lab for k, lab in enumerate(labels) if k not in spec.structural_zeros),
        removed_labels=tuple(labels[k] for k in sorted(spec.structural_zeros)),
        cell_bound=spec.cell_bound,
    )


@dataclass(frozen=True)
class ObservedData:
    """Reduced count vector plus its marginals under a design matrix."""

    counts: np.ndarray
    marginals: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.counts) < 0):
            raise ValidationError("observed counts must be nonnegative")


def observe_table(spec, design, table):
    """Build ObservedData from a full table (array of ``spec.shape``)."""
    flat = np.asarray(table, dtype=np.int64).reshape(-1)
    if flat.size != spec.full_dim:
        raise ValidationError(
            f"table has {flat.size} cells, model expects {spec.full_dim}"
        )
    for idx in spec.structural_zeros:
        if flat[idx] != 0:
            raise ValidationError(
                f"cell {idx} is a structural zero but has observed count {flat[idx]}"
            )
    keep = [k for k in range(spec.full_dim) if k not in spec.structural_zeros]
    reduced = flat[keep]
    return ObservedData(counts=reduced, marginals=design.marginals(reduced))


def observe_graph(spec, design, edges):
    """Build ObservedData from the 0-based node pairs of a simple graph (no pair twice)."""
    n = spec.shape[0]
    labels = spec.cell_labels()
    flat_index = {lab: k for k, lab in enumerate(labels)}
    flat = np.zeros(len(labels), dtype=np.int64)
    for i, j in edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"bad edge ({i}, {j}) for {n} nodes")
        k = flat_index[(min(i, j), max(i, j))]
        if flat[k]:
            raise ValidationError(
                f"edge ({i}, {j}) (nodes from 0) repeats a node pair; graphs must be simple"
            )
        flat[k] = 1
    return observe_table(spec, design, flat)


def _ipf(rows, target, tol, max_iter):
    """Iterative proportional fitting of the columns to the margin totals ``target``.

    Each sweep takes the margins in turn and scales every column by its
    row's target over the row's current total (0 where that total is
    0).  Starting from all ones, an independence table without
    structural zeros is fitted in one sweep.
    """
    n = len(target)
    fitted = np.ones(len(rows))
    gap = math.inf
    for _ in range(max_iter):
        for margin in rows.T:
            current = np.bincount(margin, fitted, n)
            ratio = np.divide(target, current, out=np.zeros(n), where=current > 0)
            fitted = fitted * ratio[margin]
        gap = float(np.max(np.abs(_margin_totals(rows, n, fitted) - target)))
        if gap <= tol:
            return fitted
    raise FitError(
        f"IPF did not reach margin gap {tol} within {max_iter} sweeps (last gap {gap:.6g})"
    )


def _fit_bernoulli(rows, target, tol, max_iter):
    """Damped fixed-point MLE of the beta model (each column is 0 or 1).

    Works on one weight b per row through the column probability
    p = exp(s) / (1 + exp(s)), s = the sum of its rows' weights; each
    sweep nudges b_i by half of log(target_i / expected_i).  A row with
    target 0 is held at the weight floor.
    """
    n = len(target)
    CAP = 40.0
    zero = target == 0
    beta = np.where(zero, -CAP, 0.0)
    gap = math.inf
    for _ in range(max_iter):
        probs = 1.0 / (1.0 + np.exp(-np.clip(beta[rows].sum(axis=1), -CAP, CAP)))
        expected = _margin_totals(rows, n, probs)
        gap = float(np.max(np.abs(expected - target)))
        if gap <= tol:
            return probs
        live = ~zero & (expected > 0)
        beta[live] += 0.5 * (np.log(target[live]) - np.log(expected[live]))
        beta = np.clip(beta, -CAP, CAP)
        beta[zero] = -CAP
    raise FitError(
        f"beta-model fit did not reach degree gap {tol} within {max_iter} iterations "
        f"(last gap {gap:.6g})"
    )


def fit_expected_counts(spec, data):
    """Expected cell counts under ``spec`` matching the observed margins.

    Tables (no cell bound) are fitted by IPF over their margins, graphs
    (the 0/1 box) by the beta model's Bernoulli fixed point.  Both run
    over ``spec._column_rows``, in the reduced coordinate space of the
    design matrix, to within ``FIT_TOL`` in at most ``FIT_MAX_ITER`` steps.
    """
    counts = np.asarray(data.counts, dtype=np.int64)
    if counts.sum() == 0:
        raise DegenerateDataError("all observed counts are zero")
    rows, n = spec._column_rows
    fit = _ipf if spec.cell_bound is None else _fit_bernoulli
    return fit(rows, _margin_totals(rows, n, counts), FIT_TOL, FIT_MAX_ITER)


def chi_square_statistic(observed, expected):
    """Pearson goodness-of-fit statistic: one row of :func:`chi_square_many`."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if observed.shape != expected.shape:
        raise ContractViolation("observed and expected lengths differ")
    if np.any(expected < 0):
        raise ContractViolation("expected counts must be nonnegative")
    return float(chi_square_many(observed.reshape(1, -1), expected)[0])


def chi_square_many(points, expected):
    """Pearson statistic of each row of a (m, d) block of fiber points.

    Each row is summed left to right, so its value does not depend on
    the other rows of the block.  Cells with expected count 0
    contribute nothing when the observed count is also 0, and force
    the +inf sentinel otherwise (the model rules out a cell that was
    observed).
    """
    pts = np.asarray(points, dtype=float)
    expected = np.asarray(expected, dtype=float)
    zero = expected == 0
    dev = pts[:, ~zero] - expected[~zero]
    out = np.zeros(len(pts))
    if dev.shape[1]:
        out = np.cumsum(dev * dev / expected[~zero], axis=1)[:, -1]
    out[(pts[:, zero] > 0).any(axis=1)] = math.inf
    return out


# ------------------------------------------------------------------
# File formats
# ------------------------------------------------------------------

def read_table_csv(path):
    """Read a contingency table: header ``dims=d1xd2[xd3]``, then cells.

    Cells are nonnegative integers in lexicographic (row-major) order,
    spread over any number of comma-separated lines.
    """
    with open_utf8(path, newline="") as fh:
        header = fh.readline().strip()
        try:
            if not header.startswith("dims="):
                raise ValueError
            dims = tuple(int(p) for p in header[len("dims="):].split("x"))
        except ValueError:
            raise ValidationError(
                f"{path}:1: table CSV must start with a header line 'dims=d1xd2[xd3]'"
            ) from None
        if len(dims) not in (2, 3) or any(s < 2 for s in dims):
            raise ValidationError(f"{path}:1: unsupported table dimensions {dims}")
        cells = []
        reader = csv.reader(fh)
        for row in reader:
            for text in filter(None, map(str.strip, row)):
                if not (text.isdecimal() and int(text) < 2**63):
                    where = f"{path}:{reader.line_num + 1}"
                    raise ValidationError(f"{where}: table cell {text!r} is not in 0..2**63-1")
                cells.append(int(text))
    if len(cells) != int(np.prod(dims)):
        raise ValidationError(  # line_num counts the lines after the header: name the next
            f"{path}:{reader.line_num + 2}: "
            f"table body has {len(cells)} cells, header promises {int(np.prod(dims))}"
        )
    return dims, np.array(cells, dtype=np.int64)


def read_edge_list(path):
    """Read an edge list of 1-based ``i j`` pairs; returns 0-based edges."""
    edges = []
    max_id = 0
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or line.lstrip().startswith("#"):
                continue
            if len(parts) != 2 or not all(p.isdecimal() for p in parts):
                raise ValidationError(f"{path}:{lineno}: expected an 'i j' pair of node ids")
            i, j = (int(p) for p in parts)
            if i < 1 or j < 1 or i == j:
                raise ValidationError(f"{path}:{lineno}: node ids are 1-based and distinct")
            edges.append((i - 1, j - 1))
            max_id = max(max_id, i, j)
    if not edges:
        raise ValidationError(f"{path}: no edges found")
    return edges, max_id


def verify_marginals(design, point, marginals):
    """Exact check that ``design @ point == marginals``."""
    return np.array_equal(design.marginals(point), marginals)
