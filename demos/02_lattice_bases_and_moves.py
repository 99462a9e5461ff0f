"""Kernel bases and moves: the raw material of fiber walks.

Any integer vector in ker M can be added to a table without changing
its marginals.  A lattice basis is a set of d - rank(M) independent
kernel vectors; the sampler's actions are bounded integer combinations
of them.  The exhaustive enumerator provides ground truth at desk
scale.
"""

import numpy as np

from fiberwalk import (
    build_design_matrix,
    combine_moves,
    compute_lattice_basis,
    enumerate_fiber,
    independence,
)
from fiberwalk.lattice import in_kernel

spec = independence(3, 3)
dm = build_design_matrix(spec)
basis = compute_lattice_basis(dm)
print(f"independence(3,3): d={dm.n_cols}, rank={dm.rank}, "
      f"kernel dimension={basis.count}")
print("basis vectors (each sums to zero on every margin):")
print(basis.vectors)

# integer combinations are again moves
coeffs = np.array([1, -2, 0, 1])
move = combine_moves(coeffs, basis)
print("\ncombination with coefficients", coeffs, "->", move.delta)
print("still in the kernel:", in_kernel(dm, move.delta))

# the fiber of a small table, exhaustively
table = np.array([2, 0, 0, 0, 2, 0, 0, 0, 2])
margins = dm.marginals(table)
fiber = enumerate_fiber(dm, margins)
print(f"\nfiber of margins {margins}: {len(fiber)} points")

# applying any basis move to any fiber point lands on the fiber or
# outside the nonnegative orthant, never on a different fiber
point = np.array(sorted(fiber)[0])
for vec in basis.vectors:
    neighbor = point + vec
    inside = np.all(neighbor >= 0)
    print("move", vec, "->", neighbor, "(feasible)" if inside else "(left the orthant)")
