"""The fiber-sampling decision process.

States are fiber points, inside the box ``0 <= x <= design.cell_bound``;
an action is a bounded integer coefficient vector over the lattice
basis, applied as a move.  Transitions are deterministic.  The reward
never exceeds zero: a candidate outside the box is charged its
:func:`~fiberwalk.models.overshoot`, the distance outside, and the
zero move is charged ``-d`` so the agent cannot stall.
An infeasible candidate leaves the state unchanged, keeping the walk
on the fiber during training exactly as at deployment.  Visited points
are counted, not stored: :class:`DiscoveredSet` keeps one digest per
distinct point.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .lattice import combine_moves
from .models import inside, overshoot, verify_marginals


@dataclass(frozen=True)
class MdpConfig:
    coeff_min: int = -2
    coeff_max: int = 2
    steps_per_episode: int = 100

    def __post_init__(self):
        if self.coeff_min >= self.coeff_max:
            raise ContractViolation("coeff_min must be below coeff_max")
        if self.steps_per_episode < 1:
            raise ContractViolation("steps_per_episode must be at least 1")


@dataclass(frozen=True)
class StepOutcome:
    next: np.ndarray
    reward: float
    feasible: bool


def _digest(vec):
    data = np.ascontiguousarray(vec, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).digest()


class DiscoveredSet:
    """Count of distinct visited fiber points.

    Only a collision-resistant digest of each point is stored, so
    counting very large fibers does not require storing the points; a
    walk's trace holds the points themselves.
    """

    def __init__(self):
        self._digests = set()

    def add(self, vec):
        self._digests.add(_digest(vec))

    @property
    def count(self):
        return len(self._digests)


class FiberEnv:
    """Single-threaded environment over one fiber.

    The discovered set persists across :meth:`reset` calls so that one
    training run accumulates a global discovery count.
    """

    def __init__(self, design, basis, start, config=None):
        self.design = design
        self.basis = basis
        self.config = config or MdpConfig()
        self._marginals = design.marginals(np.asarray(start, dtype=np.int64))
        self.discovered = DiscoveredSet()
        self._current = None
        self.reset(start)

    @property
    def current(self):
        return self._current.copy()

    @property
    def dim(self):
        return self.basis.dim

    def reset(self, start):
        """Jump to a feasible start point; keeps the discovered set."""
        start = np.asarray(start, dtype=np.int64)
        if not inside(start, self.design.cell_bound):
            raise ContractViolation("start point lies outside the box")
        if not verify_marginals(self.design, start, self._marginals):
            raise ContractViolation("start point lies on a different fiber")
        self._current = start.copy()
        self.discovered.add(start)

    def step(self, coeffs):
        """Apply one coefficient action; see the module docstring."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        lo, hi = self.config.coeff_min, self.config.coeff_max
        if coeffs.min(initial=lo) < lo or coeffs.max(initial=hi) > hi:  # an empty action is legal
            raise ContractViolation(f"coefficients must lie in [{lo}, {hi}]")
        move = combine_moves(coeffs, self.basis)
        candidate = self._current + move.delta
        over = overshoot(candidate, self.design.cell_bound)
        reward = float(over)
        if move.is_zero:
            reward -= float(self.dim)
        feasible = not over
        if feasible:
            self._current = candidate
            self.discovered.add(candidate)
        return StepOutcome(next=self._current.copy(), reward=reward, feasible=feasible)
