"""Exact integer elimination primitives.

One fraction-free column elimination, in two forms that make the same
decisions and so return the same bytes.  ``integer_kernel_basis`` (and
``integer_rank``, its top-block half) works on Python ints, which are
arbitrary precision, so no intermediate result can overflow or pick up
rounding error; its columns are dicts ``{row: value}`` of their
nonzeros, so an update costs the pivot column's nonzeros rather than
the column's full height.  ``dense_kernel_basis`` holds the stacked
matrix [M; I] as one dense int64 array and reduces all of a row's active
columns against the pivot in one numpy update, so a row costs a few
numpy calls instead of a Python loop over its columns.  It keeps a
running bound on the entries and, before any update could reach
``INT64_SAFE``, hands the original matrix to the Python-int form, so it
never wraps.

``margin_kernel_basis`` picks the form from a 0/1 design's width: below
``WIDE_COLUMNS`` columns the numpy calls' fixed cost outweighs what
they save, and the dict form is faster.
"""

import numpy as np

# Designs of at least this many columns take the dense form.  Measured
# per design, the dense form first wins at about 45 columns on graphs, 80
# to 120 on two-way tables and 130 to 150 on three-way tables; at 80 the
# wrong form is at worst about 1.6x slower, under a millisecond.  The
# benchmark's tables (16 and 24 columns) stay on the dict form.
WIDE_COLUMNS = 80
# Every entry of the dense form stays below this, so no update wraps int64.
INT64_SAFE = 2**62


def integer_rank(n_rows, cols):
    """Exact rank of the top ``n_rows`` block of ``cols``, reduced in place to column echelon form.

    Each column is a dict ``{row: value}`` of its nonzeros; entries that
    cancel to 0 are dropped.  Uses unimodular column operations only
    (swap, subtract integer multiples), so the integer span of the
    columns is preserved.  Rows above the current one are already zero
    in every non-pivot column, so an update touches only the pivot
    column's nonzeros, all at the current row or below: each row costs
    one scan of the remaining columns plus, per update, the pivot
    column's nonzero count.  Returns the pivot count.
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


def integer_kernel_basis(n_rows, cols):
    """Integer basis of the rational kernel of the matrix with these sparse columns.

    Eliminates the stacked matrix [M; I] by columns: once the top
    block of a column is zeroed, its bottom block is an exact integer
    kernel vector.  Returns ``((c, d), (rows, columns, values))``: the
    shape ``c = d - rank(M)`` and the nonzeros of the sign-normalized
    vectors (first nonzero entry positive), in vector order and, within
    a vector, in column order.  The bottom block starts as the identity
    and only unimodular column operations are applied, so it stays
    unimodular: the vectors have full rank and each is primitive (entry
    gcd 1) by construction.  The column dicts are reduced in place.
    """
    n, d = n_rows, len(cols)
    for j, col in enumerate(cols):
        col[n + j] = 1
    pivots = integer_rank(n, cols)
    rows, columns, values = [], [], []
    for k, col in enumerate(cols[pivots:]):
        keys = sorted(col)
        if keys[0] < n:  # pragma: no cover
            raise AssertionError("column echelon left a nonzero top block")
        sign = -1 if col[keys[0]] < 0 else 1
        rows += [k] * len(keys)
        columns += [i - n for i in keys]
        values += [sign * col[i] for i in keys]
    return (d - pivots, d), (rows, columns, values)


def dense_kernel_basis(mat):
    """``integer_kernel_basis`` of the int64 matrix ``mat``, each row's columns reduced at once.

    The same elimination of [M; I], step for step: the pivot is the
    first active column of least |value|, every other active column
    subtracts ``value // pivot`` times it in one numpy update, the
    pivot moves to the end of the active list, and a row's last active
    column swaps into the next pivot position.  The return value is
    the same, as int64 arrays.  [M; I] is one array, ``M`` on top of
    the rows of ``I`` that can differ from the identity: those of the
    original columns that have served as a pivot.  Any other original
    column's row holds just its own 1, wherever that column has moved,
    so it stays implicit.  ``mat`` itself is left as it is.
    """
    n, d = mat.shape
    stack = np.zeros((2 * n, d), dtype=np.int64)
    stack[:n] = mat
    owners = []  # the original column of each identity row stored, in row order
    order = list(range(d))  # the original column at each position
    # Every |entry| stays at most bound: an update adds at most
    # max|q| * max|pivot column|.  Near INT64_SAFE it is recomputed from
    # the entries, and an update that could still reach it goes to the
    # Python ints instead.
    bound = max(int(mat.max(initial=0)), -int(mat.min(initial=0)))
    if bound >= INT64_SAFE:
        return _python_int_basis(mat)
    pivots = 0
    for r in range(n):
        row = stack[r]
        active = row[pivots:].nonzero()[0] + pivots
        while len(active) > 1:
            vals = row[active]
            k = int(np.abs(vals).argmin())
            jmin = int(active[k])
            others = np.concatenate((active[:k], active[k + 1:]))
            q = np.concatenate((vals[:k], vals[k + 1:])) // vals[k]
            if order[jmin] not in owners:
                if n + len(owners) == len(stack):
                    stack = np.concatenate((stack, np.zeros((len(owners), d), dtype=np.int64)))
                    row = stack[r]
                stack[n + len(owners), jmin] = 1
                owners.append(order[jmin])
            pivot = stack[r:n + len(owners), jmin]
            touched = pivot.nonzero()[0]
            pivot = pivot[touched]
            step = int(np.abs(q).max()) * int(np.abs(pivot).max())
            bound += step
            if bound >= INT64_SAFE:
                bound = int(np.abs(stack[r:n + len(owners)]).max()) + step
                if bound >= INT64_SAFE:
                    return _python_int_basis(mat)
            stack[(touched + r)[:, None], others] -= pivot[:, None] * q
            active = np.concatenate((others[row[others] != 0], (jmin,)))
        if len(active):
            j = int(active[0])
            if j != pivots:
                stack[:, pivots], stack[:, j] = stack[:, j], stack[:, pivots].copy()
                order[pivots], order[j] = order[j], order[pivots]
            pivots += 1
    if stack[:n, pivots:].any():  # pragma: no cover
        raise AssertionError("column echelon left a nonzero top block")
    # Kernel vector k is position pivots + k: its stored identity rows, and
    # the implicit 1 of its own original column when that has no row.
    owners, kept = np.array(owners, dtype=np.int64), np.array(order[pivots:], dtype=np.int64)
    at_row, at = stack[n:n + len(owners), pivots:].nonzero()
    implicit = np.flatnonzero(~np.isin(kept, owners))
    vec = np.concatenate((at, implicit))
    col = np.concatenate((owners[at_row], kept[implicit]))
    val = np.concatenate((stack[at_row + n, at + pivots], np.ones(len(implicit), np.int64)))
    by_vector = np.lexsort((col, vec))
    vec, col, val = vec[by_vector], col[by_vector], val[by_vector]
    first = np.searchsorted(vec, np.arange(d - pivots))
    val *= np.where(val[first] < 0, -1, 1)[vec]
    return (d - pivots, d), (vec, col, val)


def _python_int_basis(mat):
    """``integer_kernel_basis`` of ``mat``, its columns as dicts of Python ints."""
    return integer_kernel_basis(
        len(mat), [{r: v for r, v in enumerate(column) if v} for column in mat.T.tolist()]
    )


def margin_kernel_basis(n_rows, column_rows):
    """Exact kernel basis of the 0/1 matrix whose column ``c`` has its 1s at rows ``column_rows[c]``.

    ``column_rows`` is a design's ``(d, k)`` margin-rows table.  Fewer
    than ``WIDE_COLUMNS`` columns run ``integer_kernel_basis`` on dict
    columns, more run ``dense_kernel_basis``; both return the same.
    """
    d = len(column_rows)
    if d < WIDE_COLUMNS:
        return integer_kernel_basis(n_rows, [dict.fromkeys(r, 1) for r in column_rows.tolist()])
    mat = np.zeros((n_rows, d), dtype=np.int64)
    mat[column_rows, np.arange(d)[:, None]] = 1
    return dense_kernel_basis(mat)
