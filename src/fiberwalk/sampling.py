"""Deploying a trained policy on a fiber.

One walk loop with two accept rules: raw exploration takes every
feasible proposal (count what the policy can reach), and the
Metropolis-corrected chain keeps one only if it passes the Metropolis
test, so its stationary law is its table's target on the fiber.  On top of
the chain, the exchangeable-sample protocol turns many independent
chains into one exact conditional p-value each.  A walk stays in the
family's box ``0 <= x <= upper`` (:func:`~fiberwalk.models.overshoot`).
One target serves every family, the conditional null law proportional
to ``1/prod(x_i!)``: for tables given their margins (Diaconis and
Sturmfels 1998), and on the beta model's 0/1 box the uniform law on
simple graphs (Chatterjee, Diaconis and Sly 2011).  A chain started
without a table is uniform.

Every walk records its trace, one point per proposal; the trace's
distinct rows are the points the walk's :class:`DiscoveredSet` counts.
The observation and each trace row are scored by one Pearson kernel
whose value for a row does not depend on the rest of the batch, so a
sampled copy of the observation ties with it exactly, as the rank
p-value requires.

The Metropolis correction needs the probability that the policy
proposes a given integer coefficient vector.  The continuous Gaussian
density is integrated over the unit cell that rounds to each
coefficient, with everything beyond the clamp bounds folded into the
boundary cells.  Each state's law is priced once, by a table of the
normal CDF and survival function at every cell edge (:class:`ProposalLaw`),
so every mass is a lookup; a range whose lower edge lies above the mean
is measured on the survival function, so a far tail keeps its mass.  A
law is priced when a feasible proposal first leaves or reaches its state,
and a :class:`StateTable` keeps it with the state's target log weight:
a walk makes its own table, and all walks of one test share one.  A
table serves one policy and is the one description of the walk's target,
its ``log_weight``; it stops adding states once its bytes reach the
constant ``TABLE_BYTES``, and always keeps the first (the start).  Laws
and weights are deterministic and pricing is idempotent, so no result
depends on which walk evaluated a state first.
Under ``mask_k`` a draw
with fewer than ``mask_k`` nonzeros is the rounded draw itself; a draw
with exactly ``mask_k`` nonzeros on support ``S`` also collects every
rounded draw whose masked-away entries all rank below ``S`` (smaller
magnitude, or equal magnitude at a higher index), which factorizes over
the coordinates.  All of it is kept in log space so very wide
coefficient vectors cannot underflow.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, ndtr

from .agent import policy_distribution, policy_sample
from .errors import ContractViolation
from .fibermdp import DiscoveredSet
from .lattice import combine_moves
from .models import chi_square_many, chi_square_statistic, fit_expected_counts, overshoot

STUCK_FACTOR = 10  # consecutive infeasible proposals per dimension before warning
TABLE_BYTES = 1 << 20  # budget of a StateTable's counted bytes; its first state may exceed it


@dataclass(frozen=True)
class FiberSample:
    """Recorded chain trace; ``statistics`` aligns with ``points``."""

    points: np.ndarray
    statistics: np.ndarray
    chain_id: int
    stuck: bool = False

    def __post_init__(self):
        if self.statistics is not None and len(self.points) != len(self.statistics):
            raise ContractViolation("one statistic per recorded point")


@dataclass(frozen=True)
class GofTestResult:
    """Exact conditional test outcome from one exchangeable sample."""

    observed_statistic: float
    p_value: float
    sample_size: int
    chain_id: int
    seed: int
    stuck: bool = False

    def __post_init__(self):
        n = self.sample_size
        k = round(self.p_value * (n + 1))
        if not (1 <= k <= n + 1) or abs(k / (n + 1) - self.p_value) > 1e-12:
            raise ContractViolation("p-value is not of the form k/(n+1)")


def _walk(ac, basis, start, steps, rng, expected, chain_id, metropolis, table, upper):
    """The walk loop of :func:`explore` and :func:`mh_uniform`.

    A proposal outside ``0..upper`` is rejected in place; a feasible one is
    taken, under ``metropolis`` only if it passes the Metropolis test.
    Each state's law and weight come from ``table``, which evaluates a
    state it does not hold: the candidate's :class:`ProposalLaw` gives
    the reverse mass and, after an accept, the next proposal.
    """
    if steps < 0:
        raise ContractViolation(f"step count cannot be negative, got {steps}")
    state = np.asarray(start, dtype=np.int64)
    if overshoot(state, upper):
        raise ContractViolation("start point lies outside the box")
    discovered = DiscoveredSet()
    discovered.add(state)
    trace = [state]  # an accept rebinds state, never changes it: one copy, at the end
    stuck = False
    consecutive = 0
    limit = STUCK_FACTOR * basis.dim
    here, weight = table.lookup(state)
    for _ in range(steps):
        coeffs = policy_sample(ac, state, rng, dist=(here.mu, here.sigma)).coeffs
        candidate = state + combine_moves(coeffs, basis).delta
        if overshoot(candidate, upper):
            consecutive += 1
            stuck = stuck or consecutive >= limit
        else:
            consecutive = 0
            there, cand_weight = table.lookup(candidate)
            accept = True
            if metropolis:
                ratio = log_accept_ratio(ac, coeffs, here, there, cand_weight - weight)
                accept = ratio > -np.inf and np.log(rng.uniform()) < ratio
            if accept:
                state, here, weight = candidate, there, cand_weight
                discovered.add(state)
        trace.append(state)
    points = np.array(trace, dtype=np.int64)
    stats = chi_square_many(points, expected) if expected is not None else None
    return FiberSample(points, stats, chain_id, stuck), discovered


def explore(ac, basis, start, steps, rng, expected=None, upper=None):
    """Run the raw policy, rejecting proposals outside ``0..upper`` in place.

    Every proposal leaves one recorded point (unchanged when the move
    was thrown away), so the trace has ``steps + 1`` rows counting the
    start.  Returns ``(FiberSample, DiscoveredSet)``; the set counts
    distinct visited points, which are the distinct rows of the trace.
    """
    table = StateTable(ac, None)
    return _walk(ac, basis, start, steps, rng, expected, 0, False, table, upper)


@lru_cache(maxsize=8)
def _grid(cmin, cmax, width):
    """Read-only cell edges, flat row origins and columns of a ``width``-coefficient law."""
    edges = np.r_[-np.inf, np.arange(cmin + 0.5, cmax), np.inf]
    grid = edges, np.arange(width) * (cmax - cmin + 1) - cmin, np.arange(width)
    for a in grid:
        a.flags.writeable = False
    return grid


class ProposalLaw:
    """The policy's proposal at one state: N(mu, sigma), rounded and clamped.

    :meth:`price` fills the table: ``cdf`` and ``sf`` are ``ndtr(z)`` and
    ``ndtr(-z)`` at each cell edge ``cmin - 0.5 .. cmax + 0.5`` (a row;
    the end edges are the clamped tails) and coefficient (a column).
    ``log_cells[j, v - cmin]`` is the log of the mass of ``v`` at
    coefficient ``j``, floored at 1e-300; its flat index is ``origin[j] + v``.
    """

    __slots__ = ("mu", "sigma", "cmin", "above", "cdf", "sf", "log_cells", "origin", "cols")

    def __init__(self, mu, sigma):
        self.mu, self.sigma, self.cdf = mu, sigma, None

    def price(self, cmin, cmax):
        edges, self.origin, self.cols = _grid(cmin, cmax, len(self.mu))
        z = (edges[:, None] - self.mu) / self.sigma
        self.cmin, self.above, self.cdf, self.sf = cmin, z > 0, ndtr(z), ndtr(-z)
        cells = self._between(np.s_[:-1], np.s_[1:])
        self.log_cells = np.log(np.maximum(cells, 1e-300)).T.copy()

    def ranges(self, lo, hi):
        """Mass of the integers ``lo..hi`` at each coefficient, none outside the
        bounds; ``lo <= hi`` broadcast against the coefficients."""
        last = len(self.cdf) - 1
        a, b = (lo - self.cmin).clip(0, last), (hi + 1 - self.cmin).clip(0, last)
        return self._between((a, self.cols), (b, self.cols))

    def _between(self, a, b):
        """Mass between edges ``a`` and ``b`` (indices into the table), measured
        on ``sf`` where edge ``a`` lies above the mean."""
        sf, cdf = self.sf, self.cdf
        return np.abs(np.where(self.above[a], sf[b] - sf[a], cdf[b] - cdf[a]))


class StateTable:
    """Each state's :class:`ProposalLaw` and log weight (0 if ``log_weight`` is
    ``None``), keyed by the state's bytes.  ``nbytes`` counts a kept state's key,
    head output, ``sigma`` and priced ``cdf``, ``sf``, ``above`` and ``log_cells``."""

    def __init__(self, ac, log_weight):
        self.ac, self.log_weight, self.entries, self.nbytes = ac, log_weight, {}, 0
        edges = ac.coeff_max - ac.coeff_min + 2
        self.entry_bytes = ac.n_coeffs * (24 + 17 * edges + 8 * (edges - 1))

    def lookup(self, state):
        """``(law, log weight)`` at ``state``, evaluated on first use."""
        key = state.tobytes()
        entry = self.entries.get(key)
        if entry is None:
            law = ProposalLaw(*policy_distribution(self.ac, state))
            entry = law, self.log_weight(state) if self.log_weight else 0.0
            size = len(key) + self.entry_bytes
            if not self.entries or self.nbytes + size <= TABLE_BYTES:
                self.entries[key] = entry
                self.nbytes += size
        return entry


def proposal_log_prob(ac, coeffs, law):
    """Log-mass that the policy's draw from ``law`` becomes ``coeffs``.

    Exact under rounding, clamping and ``mask_k`` (see the module
    docstring); ``-inf`` for a draw the mask cannot produce.  ``coeffs``
    must lie within the clamp bounds, as every draw does (:func:`log_accept_ratio`
    checks a reverse move first).  The first call at a state prices ``law``.
    """
    coeffs, k = np.asarray(coeffs), ac.mask_k
    if law.cdf is None:
        law.price(ac.coeff_min, ac.coeff_max)
    if k is None or np.count_nonzero(coeffs) < k:
        return float(law.log_cells.take(coeffs + law.origin).sum())
    support = np.flatnonzero(coeffs)
    if len(support) > k:
        return -np.inf
    mags = np.abs(coeffs[support])
    least = int(mags.min())
    last_tie = int(support[mags == least].max())
    # Rows: |c| < least, then the ties c = least and c = -least.
    lo = np.array([[1 - least], [least], [-least]])
    hi = np.array([[least - 1], [least], [-least]])
    below, tie_pos, tie_neg = law.ranges(lo, hi)
    tie = tie_pos + tie_neg
    rest = np.ones(len(coeffs), dtype=bool)
    rest[support] = False
    after = np.arange(len(coeffs)) > last_tie
    mass = np.where(after, below + tie, below)[rest]
    cells = law.log_cells.take(coeffs[support] + law.origin[support])
    return float(cells.sum() + np.log(np.maximum(mass, 1e-300)).sum())


def null_log_weight(counts):
    """ln of ``1/prod(x_i!)`` up to a constant; exactly 0 on a 0/1 point (uniform)."""
    return -float(gammaln(np.asarray(counts) + 1.0).sum())


def log_accept_ratio(ac, coeffs, here, there, weight_gain=0.0):
    """ln of the Metropolis-Hastings ratio for moving by ``coeffs``.

    ``here`` and ``there`` are the policy's :class:`ProposalLaw` at the
    current state and at the candidate; ``weight_gain`` is the target's
    log weight at the candidate minus that at the current state.
    ``-inf`` when the reverse move lies outside the clamp bounds.
    """
    reverse, cmin, cmax = -coeffs, ac.coeff_min, ac.coeff_max
    if reverse.min(initial=cmin) < cmin or reverse.max(initial=cmax) > cmax:
        return -np.inf
    log_fwd = proposal_log_prob(ac, coeffs, here)
    log_rev = proposal_log_prob(ac, reverse, there)
    return log_rev - log_fwd + weight_gain


def mh_uniform(ac, basis, start, steps, rng, expected=None, chain_id=0, upper=None,
               table=None):
    """Metropolis chain targeting the law of ``table`` on the fiber, uniform without one.

    ``table`` is a :class:`StateTable` of ``ac``, whose ``log_weight(x)``
    gives the target's unnormalized log weight: ``StateTable(ac,
    null_log_weight)`` targets the null law.  Proposals come from the
    policy; acceptance uses the ratio of the reverse to the forward
    proposal mass times the ratio of target weights.  Candidates outside
    the box ``0..upper`` are rejected outright, so the chain never leaves
    the fiber.  A table may be shared with other walks of its target; the
    chain's output is the same as with a fresh table of that target.
    """
    if table is None:
        table = StateTable(ac, None)
    elif table.ac is not ac:
        raise ContractViolation("a state table serves one policy")
    return _walk(ac, basis, start, steps, rng, expected, chain_id, True, table, upper)


def rank_p_value(sampled_statistics, observed_statistic):
    """Exact conditional p-value: (1 + #{sampled >= observed}) / (n + 1)."""
    sampled = np.asarray(sampled_statistics, dtype=float)
    return (1 + int(np.sum(sampled >= observed_statistic))) / (len(sampled) + 1)


def besag_clifford_pvalues(ac, basis, spec, data, chains, chain_length, seed, chain_steps=None):
    """One exact test per independent chain through the observed data.

    Each chain targets the null law :func:`null_log_weight` on the
    box ``0..spec.cell_bound`` and builds its exchangeable sample of
    size ``n = chain_length`` by the serial construction of Besag and
    Clifford (1989): it draws ``m`` uniformly from ``0..n`` and walks
    ``m`` strides and then ``n - m`` strides from the observation,
    keeping the point at the end of every stride.  The chain is
    reversible, so the first walk is the reverse-time half of one
    stationary run through the observation, and the observation's rank
    among the ``n + 1`` points is uniform under the null.  A stride is
    ``chain_steps // n`` Metropolis steps (``chain_steps`` defaults to
    100x the sample size); chain ``i`` draws everything from its own
    generator seeded ``seed + i``, so results do not depend on
    scheduling.  All walks share one :class:`StateTable`, so the states
    they all reach, the observation first, are evaluated once per test.
    """
    if chains < 1 or chain_length < 1:
        raise ContractViolation(
            f"need at least one chain of length 1, got {chains} chains of length {chain_length}"
        )
    expected = fit_expected_counts(spec, data)
    observed = chi_square_statistic(data.counts, expected)
    steps = chain_steps if chain_steps is not None else 100 * chain_length
    stride = max(1, steps // chain_length)
    if stride * chain_length > steps:
        raise ContractViolation("chain too short for the requested sample size")

    table = StateTable(ac, null_log_weight)
    results = []
    for cid in range(chains):
        chain_seed = seed + cid
        rng = np.random.default_rng(chain_seed)
        split = int(rng.integers(chain_length + 1))
        stats = []
        stuck = False
        for strides in (split, chain_length - split):
            sample, _ = mh_uniform(
                ac, basis, data.counts, strides * stride, rng, expected=expected, chain_id=cid,
                upper=spec.cell_bound, table=table,
            )
            stats.append(sample.statistics[stride::stride])
            stuck = stuck or sample.stuck
        results.append(
            GofTestResult(
                observed_statistic=float(observed),
                p_value=rank_p_value(np.concatenate(stats), observed),
                sample_size=chain_length,
                chain_id=cid,
                seed=chain_seed,
                stuck=stuck,
            )
        )
    return results


# ------------------------------------------------------------------
# CSV outputs
# ------------------------------------------------------------------

def write_sample_csv(path, sample, labels):
    """One fiber point per row, followed by its statistic."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join("_".join(str(v) for v in lab) for lab in labels))
        fh.write(",statistic\n")
        for point, stat in zip(sample.points, sample.statistics):
            fh.write(",".join(str(int(v)) for v in point))
            fh.write(f",{repr(float(stat))}\n")


def write_results_csv(path, results):
    """One row per chain: its seed, p-value, observed statistic and sample size."""
    with open(path, "w", newline="") as fh:
        fh.write("chain_id,seed,p_value,observed_statistic,sample_size,stuck\n")
        for r in results:
            fh.write(
                f"{r.chain_id},{r.seed},{repr(r.p_value)},"
                f"{repr(r.observed_statistic)},{r.sample_size},{int(r.stuck)}\n"
            )


def write_pvalues_csv(path, results):
    with open(path, "w", newline="") as fh:
        fh.write("chain_id,p_value\n")
        for r in results:
            fh.write(f"{r.chain_id},{repr(r.p_value)}\n")


def write_histogram_csv(path, values):
    """Counts of ``values`` in 20 equal bins of [0, 1], one row per bin."""
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=20, range=(0.0, 1.0))
    with open(path, "w", newline="") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{repr(float(edges[i]))},{repr(float(edges[i + 1]))},{int(c)}\n")
