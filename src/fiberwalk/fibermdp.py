"""The fiber-sampling decision process.

States are fiber points; an action is a bounded integer coefficient
vector over the lattice basis, applied as a move.  Transitions are
deterministic.  The reward never exceeds zero: a candidate that
leaves the nonnegative orthant is charged the sum of its negative
coordinates, and the zero move is charged ``-d`` so the agent cannot
stall.  An infeasible candidate leaves the state unchanged, keeping
the walk on the fiber during training exactly as at deployment.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .lattice import combine_moves
from .models import verify_marginals


@dataclass(frozen=True)
class MdpConfig:
    coeff_min: int = -2
    coeff_max: int = 2
    steps_per_episode: int = 100
    discovered_point_cap: int = 100_000

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
    newly_discovered: bool


def _digest(vec):
    data = np.ascontiguousarray(vec, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).digest()


class DiscoveredSet:
    """Set of visited fiber points, counted by collision-resistant hash.

    Exact vectors are retained only up to ``point_cap``; past that the
    count keeps growing but only digests are stored, so counting very
    large fibers does not require storing them.
    """

    def __init__(self, point_cap=100_000):
        self.point_cap = point_cap
        self._digests = set()
        self._points = []

    def add(self, vec):
        key = _digest(vec)
        if key in self._digests:
            return False
        self._digests.add(key)
        if len(self._points) < self.point_cap:
            self._points.append(np.array(vec, dtype=np.int64))
        return True

    def __contains__(self, vec):
        return _digest(vec) in self._digests

    @property
    def count(self):
        return len(self._digests)

    @property
    def points(self):
        """Retained exact points (all of them while under the cap)."""
        return list(self._points)


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
        self.discovered = DiscoveredSet(self.config.discovered_point_cap)
        self._current = None
        self._step_count = 0
        self.reset(start)

    @property
    def current(self):
        return self._current.copy()

    @property
    def step_count(self):
        return self._step_count

    @property
    def dim(self):
        return self.basis.dim

    @property
    def marginals(self):
        return self._marginals.copy()

    def reset(self, start):
        """Jump to a feasible start point; keeps the discovered set."""
        start = np.asarray(start, dtype=np.int64)
        if np.any(start < 0):
            raise ContractViolation("start point has negative entries")
        if not verify_marginals(self.design, start, self._marginals):
            raise ContractViolation("start point lies on a different fiber")
        self._current = start.copy()
        self._step_count = 0
        self.discovered.add(start)
        return self

    def step(self, coeffs):
        """Apply one coefficient action; see the module docstring."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        cfg = self.config
        if np.any(coeffs < cfg.coeff_min) or np.any(coeffs > cfg.coeff_max):
            raise ContractViolation(
                f"coefficients must lie in [{cfg.coeff_min}, {cfg.coeff_max}]"
            )
        move = combine_moves(coeffs, self.basis)
        candidate = self._current + move.delta
        negative = candidate < 0
        reward = float(candidate[negative].sum())
        if move.is_zero:
            reward -= float(self.dim)
        feasible = not negative.any()
        newly = False
        if feasible:
            self._current = candidate
            newly = self.discovered.add(candidate)
        self._step_count += 1
        return StepOutcome(
            next=self._current.copy(),
            reward=reward,
            feasible=feasible,
            newly_discovered=newly,
        )
