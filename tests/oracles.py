"""Independent ground-truth helpers for the test suite.

Deliberately different machinery from the package: rational row
reduction with ``fractions.Fraction`` instead of integer column
elimination, and plain central differences for gradients.  Expected
values frozen into tests were computed with these.
"""

from fractions import Fraction

import numpy as np


def rational_rref(mat):
    """Row-reduced echelon form over the rationals; returns (rows, pivots)."""
    rows = [[Fraction(int(v)) for v in row] for row in np.asarray(mat)]
    n = len(rows)
    d = len(rows[0]) if n else 0
    pivots = []
    r = 0
    for c in range(d):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def rational_rank(mat):
    return len(rational_rref(mat)[1])


def rational_nullspace(mat):
    """Basis of the rational kernel via free columns of the RREF."""
    mat = np.asarray(mat)
    d = mat.shape[1]
    rows, pivots = rational_rref(mat)
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * d
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(vec)
    return basis


def central_difference(func, x, eps=1e-5):
    """Componentwise central finite-difference gradient of a scalar func."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = eps
        grad[i] = (func(x + bump) - func(x - bump)) / (2 * eps)
    return grad


def gae_double_sum(rewards, values, bootstrap, gamma, lam):
    """Direct truncated double sum of discounted temporal differences."""
    k = len(rewards)
    next_values = list(values[1:]) + [bootstrap]
    deltas = [rewards[t] + gamma * next_values[t] - values[t] for t in range(k)]
    return np.array(
        [sum((gamma * lam) ** (l - t) * deltas[l] for l in range(t, k)) for t in range(k)]
    )


def relative_error(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def embed_full(spec, reduced):
    """The full-length cell vector of ``spec``: ``reduced`` with a zero put back
    at each structural zero, read off the spec's cell order alone."""
    n_cells = len(spec.cell_labels())
    full = np.zeros(n_cells, dtype=np.asarray(reduced).dtype)
    full[[k for k in range(n_cells) if k not in spec.structural_zeros]] = reduced
    return full
