"""Model families, design matrices, expected counts, and the test statistic.

Every supported model is determined by a 0/1 design matrix M: the
sufficient statistics of a count vector u are just M @ u.  The package
holds M as its margin-rows table (``dm.rows``: the rows each column
adds to); ``dm.entries`` is the dense view of the same matrix.  This
demo builds M for the three families, fits expected counts, and
evaluates the Pearson statistic.
"""

import numpy as np

from fiberwalk import (
    all_two_way,
    beta_model,
    build_design_matrix,
    chi_square_statistic,
    fit_expected_counts,
    independence,
    observe_graph,
    observe_table,
)

# --- independence model for a 2x2 table --------------------------------
spec = independence(2, 2)
dm = build_design_matrix(spec)
print("independence(2,2) design matrix (rows = row/col indicators):")
print(dm.entries)
print("as its margin-rows table (column -> the rows it adds to):")
print(dm.rows)
print("rank:", dm.rank)

table = np.array([10, 0, 0, 10])  # strongly diagonal
data = observe_table(spec, dm, table)
expected = fit_expected_counts(spec, data)
print("observed:", table, " expected under independence:", expected)
print("chi-square:", chi_square_statistic(data.counts, expected))

# --- structural zeros are deleted columns ------------------------------
zspec = independence(3, 3, structural_zeros={0})
zdm = build_design_matrix(zspec)
print("\n3x3 with a structural zero at cell (0,0):")
print("columns kept:", zdm.column_labels)
print("columns removed:", zdm.removed_labels)

# --- all-two-way interaction model for a 2x2x2 table -------------------
spec3 = all_two_way(2, 2, 2)
dm3 = build_design_matrix(spec3)
print("\nall_two_way(2,2,2): matrix is", dm3.entries.shape, "rank", dm3.rank)
print("every column hits 3 marginal families:", dm3.entries.sum(axis=0))

# --- beta model: sufficient statistic is the degree sequence ------------
bspec = beta_model(5)
bdm = build_design_matrix(bspec)
edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4), (0, 3)]
bdata = observe_graph(bspec, bdm, edges)
print("\nbeta_model(5): degree sequence =", bdata.marginals)
probs = fit_expected_counts(bspec, bdata)
print("fitted edge probabilities:", np.round(probs, 3))
print("expected degrees:", np.round(bdm.marginals(probs), 6))
