"""Exact integer elimination primitives.

Everything here works on Python ints, which are arbitrary precision, so
no intermediate result can overflow or pick up rounding error.  The
public entry points are ``integer_rank`` and ``integer_kernel_basis``;
both run the same fraction-free column elimination on a row count and
sparse columns, each a dict ``{row: value}`` of its nonzero entries,
read from a design's margin-rows table.  Design matrices and their
kernel vectors are mostly zeros, so an update costs the pivot column's
nonzeros rather than the column's full height.
"""


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
