"""Exact integer elimination primitives.

Everything here works on Python ints, which are arbitrary precision, so
no intermediate result can overflow or pick up rounding error.  The
public entry points are ``integer_rank`` and ``integer_kernel_basis``;
both run the same fraction-free column elimination on sparse columns,
each a dict ``{row: value}`` of its nonzero entries.  Design matrices
and their kernel vectors are mostly zeros, so an update costs the
pivot column's nonzeros rather than the column's full height.
"""

import numpy as np


def _sparse_columns(mat):
    """Return (n_rows, columns), each column a dict of its nonzero entries."""
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return arr.shape[0], [
        {r: v for r, v in enumerate(map(int, column)) if v}
        for column in arr.T.tolist()
    ]


def _column_echelon(cols, n_rows):
    """Reduce the top ``n_rows`` block of ``cols`` to column echelon form.

    Each column is a dict ``{row: value}`` of its nonzeros; entries that
    cancel to 0 are dropped.  Uses unimodular column operations only
    (swap, subtract integer multiples), so the integer span of the
    columns is preserved.  Rows above the current one are already zero
    in every non-pivot column, so an update touches only the pivot
    column's nonzeros, all at the current row or below: each row costs
    one scan of the remaining columns plus, per update, the pivot
    column's nonzero count.  Returns the pivot count, i.e. the rank of
    the top block.
    """
    pivots = 0
    for r in range(n_rows):
        active = [j for j in range(pivots, len(cols)) if r in cols[j]]
        while len(active) > 1:
            # Reduce against the column with the smallest nonzero entry
            # in this row; Euclidean shrinking terminates quickly.
            jmin = min(active, key=lambda j: abs(cols[j][r]))
            piv = cols[jmin]
            pivot_val = piv[r]
            still = []
            for j in active:
                if j == jmin:
                    continue
                col = cols[j]
                q = col[r] // pivot_val
                if q:
                    for i, v in piv.items():
                        w = col.get(i, 0) - q * v
                        if w:
                            col[i] = w
                        else:
                            del col[i]
                if r in col:
                    still.append(j)
            still.append(jmin)
            active = still
        if active:
            j = active[0]
            cols[pivots], cols[j] = cols[j], cols[pivots]
            pivots += 1
    return pivots


def integer_rank(mat):
    """Rank of an integer matrix, computed exactly."""
    n, cols = _sparse_columns(mat)
    return _column_echelon(cols, n)


def integer_kernel_basis(mat):
    """Integer basis of the rational kernel of ``mat``.

    Eliminates the stacked matrix [mat; I] by columns: once the top
    block of a column is zeroed, its bottom block is an exact integer
    kernel vector.  Returns a ``(d - rank(mat), d)`` int64 array whose
    rows are sign-normalized (first nonzero entry positive).  The bottom
    block starts as the identity and only unimodular column operations
    are applied, so it stays unimodular: the rows have full rank and
    each is primitive (entry gcd 1) by construction.
    """
    n, cols = _sparse_columns(mat)
    d = len(cols)
    for j, col in enumerate(cols):
        col[n + j] = 1
    pivots = _column_echelon(cols, n)
    kernel = np.zeros((d - pivots, d), dtype=np.int64)
    for out, col in zip(kernel, cols[pivots:]):
        first = min(col)
        if first < n:  # pragma: no cover
            raise AssertionError("column echelon left a nonzero top block")
        sign = -1 if col[first] < 0 else 1
        for i, v in col.items():
            out[i - n] = sign * v
    return kernel


def exact_matvec(mat, vec):
    """mat @ vec in Python ints over the nonzeros of mat; returns a list."""
    arr = np.asarray(mat)
    rows, cols = np.nonzero(arr)
    xs = [int(v) for v in vec]
    out = [0] * arr.shape[0]
    for r, j, a in zip(rows.tolist(), cols.tolist(), arr[rows, cols].tolist()):
        out[r] += int(a) * xs[j]
    return out
