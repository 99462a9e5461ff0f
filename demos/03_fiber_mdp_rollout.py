"""The fiber-sampling decision process, stepped by hand.

States are fiber points, actions are bounded coefficient vectors over
the lattice basis, and the reward is never positive: leaving the
family's box costs the total distance outside it (for this table, the
sum of the negative coordinates), and proposing the zero move costs -d.  Feasible nonzero moves cost
nothing, so an optimal policy walks the fiber for free.
"""

import numpy as np

from fiberwalk import FiberEnv, build_design_matrix, compute_lattice_basis, independence

spec = independence(2, 2)
dm = build_design_matrix(spec)
basis = compute_lattice_basis(dm)
print("single basis move:", basis.vectors[0])

env = FiberEnv(dm, basis, start=np.array([1, 0, 0, 1]))
print("start:", env.current)

for coeffs in ([-1], [0], [-1], [2]):
    outcome = env.step(np.array(coeffs))
    tag = "feasible" if outcome.feasible else "rejected"
    print(f"coeffs {coeffs}: reward {outcome.reward:+.0f} ({tag}) state -> {outcome.next}")

print("\ndistinct points discovered so far:", env.discovered.count)

# a random walk under the same environment
rng = np.random.default_rng(0)
rewards = []
for _ in range(500):
    rewards.append(env.step(rng.integers(-2, 3, size=1)).reward)
print(f"random policy over 500 steps: mean reward {np.mean(rewards):.2f}, "
      f"discovered {env.discovered.count} of 2 fiber points")
