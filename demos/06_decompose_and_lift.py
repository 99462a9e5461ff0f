"""Subdivide a graph problem, solve small kernels, lift the moves back.

Kernel elimination on a design matrix with millions of columns is
hopeless, but a graph can be cut into highly connected pieces whose
bases are cheap.  Each piece is the parent design restricted to its
nodes and the node pairs inside them, so its moves embed into the
parent kernel by zero padding: each vector is written at its columns.
"""

import numpy as np

from fiberwalk import beta_model, build_design_matrix, decompose_initial_point, observe_graph
from fiberwalk.lattice import compute_lattice_basis, in_kernel, lift_basis

rng = np.random.default_rng(5)

# two dense clusters joined by one bridge edge
cluster_a, cluster_b = range(0, 6), range(6, 12)
edges = []
for group in (cluster_a, cluster_b):
    for i in group:
        for j in group:
            if i < j and rng.random() < 0.8:
                edges.append((i, j))
edges.append((2, 8))  # the bridge
print(f"parent graph: 12 nodes, {len(edges)} edges")

spec = beta_model(12)
parent = build_design_matrix(spec)
counts = observe_graph(spec, parent, edges).counts
print(f"parent design matrix: {parent.n_rows} x {parent.n_cols}")

subs = decompose_initial_point(parent, counts, "bridge_cuts")
print(f"bridge-cut decomposition: {len(subs)} sub-problems, "
      f"sizes {[len(s.node_set) for s in subs]}")

sub_bases = [compute_lattice_basis(s.sub_matrix) for s in subs]
for s, b in zip(subs, sub_bases):
    print(f"  nodes {s.node_set}: {s.sub_matrix.n_cols} columns, kernel dimension {b.count}")

lifted = lift_basis(sub_bases, subs, parent.n_cols)
print(f"\nlifted move collection: {lifted.count} vectors of length {lifted.dim}")
ok = all(in_kernel(parent, vec) for vec in lifted.vectors)
print("every lifted move preserves the parent degree sequence:", ok)

# applying a lifted move to the parent data vector changes no degree
before = parent.marginals(counts)
after = parent.marginals(counts + lifted.vectors[0])
print("degree sequence unchanged after applying a lifted move:",
      bool(np.array_equal(before, after)))
