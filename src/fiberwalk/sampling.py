"""Deploying a trained policy on a fiber.

One walk loop with two accept rules: raw exploration takes every
feasible proposal (count what the policy can reach), and the
Metropolis-corrected chain keeps one only if it passes the Metropolis
test, so its stationary law is its table's target on the fiber.  On top of
the chain, the exchangeable-sample protocol turns many independent
chains into one exact conditional p-value each.  A walk stays in the
family's box ``0 <= x <= upper``, tested by the box's predicate
:func:`~fiberwalk.models.inside`.
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
boundary cells.  A state's one record is its :class:`ProposalLaw`: the
policy's mean and stddev there, the target's log weight, and its cells'
log masses, priced once when a feasible proposal first leaves or
reaches the state, so every cell is a lookup; a mass whose lower edge
lies above the mean is measured on the survival function, so a far tail
keeps its mass.  The rare masked ranges below are evaluated at their
own two edges by the same formula.  A :class:`StateTable` holds each
state's law and what one policy's laws share: the target, its
``log_weight``, and the cell grid.  A walk makes its own table, and all
walks of one test share one.  A table keeps as many states as
``TABLE_BYTES`` holds, each counted as it is really held (key, law,
arrays and their Python objects), so the constant bounds the table's
real footprint; it always keeps the first (the start).  Laws and
weights are deterministic and pricing is idempotent, so no result
depends on which walk evaluated a state first.  Under ``mask_k`` a draw
with fewer than ``mask_k`` nonzeros is the rounded draw itself; a draw
with exactly ``mask_k`` nonzeros on support ``S`` also collects every
rounded draw whose masked-away entries all rank below ``S`` (smaller
magnitude, or equal magnitude at a higher index), which factorizes over
the coordinates.  All of it is kept in log space so very wide
coefficient vectors cannot underflow.

The masses use ``scipy.special.ndtr`` and the null weights its
``gammaln``, imported when a state is first priced or weighted: a run
that does neither (``train``, ``enumerate``, explore) does not load them.
"""

import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from .agent import policy_distribution, policy_sample
from .errors import ContractViolation
from .fibermdp import DiscoveredSet
from .lattice import combine_moves
from .models import chi_square_many, chi_square_statistic, fit_expected_counts, inside

STUCK_FACTOR = 10  # consecutive infeasible proposals per dimension before warning
TABLE_BYTES = 2 << 20  # budget of a StateTable's states, counted as they are held
DICT_SLOT = 48  # a dict's share of one entry: its hash, key and value, and its index


@dataclass(frozen=True)
class FiberSample:
    """Recorded chain trace; ``statistics`` aligns with ``points``."""

    points: np.ndarray
    statistics: np.ndarray
    chain_id: int
    stuck: bool

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
    stuck: bool

    def __post_init__(self):
        n = self.sample_size
        k = round(self.p_value * (n + 1))
        if not (1 <= k <= n + 1) or abs(k / (n + 1) - self.p_value) > 1e-12:
            raise ContractViolation("p-value is not of the form k/(n+1)")


def _walk(basis, start, steps, rng, expected, chain_id, metropolis, table, upper):
    """The walk loop of :func:`explore` and :func:`mh_uniform`, drawing from ``table.ac``.

    A proposal outside ``0..upper`` is rejected in place; a feasible one is
    taken, under ``metropolis`` only if it passes the Metropolis test.
    Each state's law comes from ``table``, which evaluates a state it
    does not hold: the candidate's :class:`ProposalLaw` gives the reverse
    mass and its weight and, after an accept, the next proposal.
    """
    if steps < 0:
        raise ContractViolation(f"step count cannot be negative, got {steps}")
    state = np.asarray(start, dtype=np.int64)
    if not inside(state, upper):
        raise ContractViolation("start point lies outside the box")
    discovered = DiscoveredSet()
    discovered.add(state)
    trace = [state]  # an accept rebinds state, never changes it: one copy, at the end
    stuck = False
    consecutive = 0
    limit = STUCK_FACTOR * basis.dim
    here = table.lookup(state)
    for _ in range(steps):
        coeffs = policy_sample(table.ac, state, rng, dist=(here.mu, here.sigma)).coeffs
        candidate = state + combine_moves(coeffs, basis).delta
        if not inside(candidate, upper):
            consecutive += 1
            stuck = stuck or consecutive >= limit
        else:
            consecutive = 0
            there = table.lookup(candidate)
            accept = True
            if metropolis:
                ratio = log_accept_ratio(table, coeffs, here, there)
                accept = ratio > -np.inf and np.log(rng.random()) < ratio
            if accept:
                state, here = candidate, there
                discovered.add(state)
        trace.append(state)
    points = np.array(trace, dtype=np.int64)
    stats = chi_square_many(points, expected) if expected is not None else None
    return FiberSample(points, stats, chain_id, stuck), discovered


def explore(ac, basis, start, steps, rng, expected, upper):
    """Run the raw policy, rejecting proposals outside ``0..upper`` in place.

    Every proposal leaves one recorded point (unchanged when the move
    was thrown away), so the trace has ``steps + 1`` rows counting the
    start.  Returns ``(FiberSample, DiscoveredSet)``; the set counts
    distinct visited points, which are the distinct rows of the trace.
    """
    return _walk(basis, start, steps, rng, expected, 0, False, StateTable(ac, None), upper)


@cache
def _special():
    """The ``scipy.special`` module, imported on the first call."""
    import scipy.special

    return scipy.special


def _between(z, a, b):
    """Normal mass between the z-scores ``z[a]`` and ``z[b]``, measured on the
    survival function where ``z[a]`` lies above the mean."""
    ndtr = _special().ndtr
    cdf, sf = ndtr(z), ndtr(-z)
    return np.abs(np.where(z[a] > 0, sf[b] - sf[a], cdf[b] - cdf[a]))


class ProposalLaw:
    """One state's record: the policy's proposal N(mu, sigma), rounded and clamped,
    and the target's log ``weight``.  ``log_cells[j, v - coeff_min]``, once
    :meth:`StateTable.price` fills it, is the log of the mass of ``v`` at coefficient
    ``j``, floored at 1e-300; its flat index is ``origin[j] + v``."""

    __slots__ = ("mu", "sigma", "weight", "log_cells")

    def __init__(self, mu, sigma, weight):
        self.mu, self.sigma, self.weight, self.log_cells = mu, sigma, weight, None


class StateTable:
    """What a test knows per policy ``ac``: the target ``log_weight`` (0 if ``None``),
    its laws' cell ``edges``, ``coeff_min - 0.5 .. coeff_max + 0.5`` with the clamped
    tails at the ends, and flat row ``origin``, and each kept state's
    :class:`ProposalLaw`, keyed by the state's bytes.  It keeps ``capacity`` states:
    ``TABLE_BYTES`` over what a priced state holds (key, law, weight, its arrays
    and the head output ``mu`` views, dict slot), and at least the first."""

    def __init__(self, ac, log_weight):
        self.ac, self.log_weight, self.laws = ac, log_weight, {}
        cmin, cmax, width = ac.coeff_min, ac.coeff_max, ac.n_coeffs
        self.edges = np.r_[-np.inf, np.arange(cmin + 0.5, cmax), np.inf]
        self.origin = np.arange(width) * (cmax - cmin + 1) - cmin
        head = np.empty(2 * width)
        held = (bytes(8 * ac.state_dim), head, head[:width], np.empty(width),
                np.empty((width, cmax - cmin + 1)), ProposalLaw(None, None, None), 0.5)
        self.capacity = max(1, TABLE_BYTES // (sum(map(sys.getsizeof, held)) + DICT_SLOT))

    def lookup(self, state):
        """The :class:`ProposalLaw` at ``state``, evaluated on first use."""
        key = state.tobytes()
        law = self.laws.get(key)
        if law is None:
            weight = self.log_weight(state) if self.log_weight else 0.0
            law = ProposalLaw(*policy_distribution(self.ac, state), weight)
            if len(self.laws) < self.capacity:
                self.laws[key] = law
        return law

    def price(self, law):
        """Fill ``law.log_cells`` from the policy's cell edges."""
        z = (self.edges[:, None] - law.mu) / law.sigma
        cells = _between(z, np.s_[:-1], np.s_[1:])
        law.log_cells = np.log(np.maximum(cells, 1e-300)).T.copy()

    def ranges(self, law, lo, hi):
        """Mass of the integers ``lo..hi`` at each coefficient of ``law``, none
        outside the bounds; ``lo <= hi`` broadcast against the coefficients.  Each
        mass has the bits of the priced cells' formula, evaluated at its two edges."""
        last, cmin = len(self.edges) - 1, self.ac.coeff_min
        a, b = (lo - cmin).clip(0, last), (hi + 1 - cmin).clip(0, last)
        z = (self.edges[np.stack((a, b))] - law.mu) / law.sigma
        return _between(z, 0, 1)


def proposal_log_prob(table, coeffs, law):
    """Log-mass that the policy's draw from ``law``, a law of ``table``, is ``coeffs``.

    Exact under rounding, clamping and ``mask_k`` (see the module
    docstring); ``-inf`` for a draw the mask cannot produce.  ``coeffs``
    must lie within the clamp bounds, as every draw does (:func:`log_accept_ratio`
    checks a reverse move first).  The first call at a state prices ``law``.
    """
    coeffs, k = np.asarray(coeffs), table.ac.mask_k
    if law.log_cells is None:
        table.price(law)
    if k is None or np.count_nonzero(coeffs) < k:
        return float(law.log_cells.take(coeffs + table.origin).sum())
    support = np.flatnonzero(coeffs)
    if len(support) > k:
        return -np.inf
    mags = np.abs(coeffs[support])
    least = int(mags.min())
    last_tie = int(support[mags == least].max())
    # Rows: |c| < least, then the ties c = least and c = -least.
    lo = np.array([[1 - least], [least], [-least]])
    hi = np.array([[least - 1], [least], [-least]])
    below, tie_pos, tie_neg = table.ranges(law, lo, hi)
    tie = tie_pos + tie_neg
    rest = np.ones(len(coeffs), dtype=bool)
    rest[support] = False
    after = np.arange(len(coeffs)) > last_tie
    mass = np.where(after, below + tie, below)[rest]
    cells = law.log_cells.take(coeffs[support] + table.origin[support])
    return float(cells.sum() + np.log(np.maximum(mass, 1e-300)).sum())


def null_log_weight(counts):
    """ln of ``1/prod(x_i!)`` up to a constant; exactly 0 on a 0/1 point (uniform)."""
    return -float(_special().gammaln(np.asarray(counts) + 1.0).sum())


def log_accept_ratio(table, coeffs, here, there):
    """ln of the Metropolis-Hastings ratio for moving by ``coeffs``.

    ``here`` and ``there`` are ``table``'s :class:`ProposalLaw` at the current
    state and at the candidate: the ratio of their proposal masses times
    that of their target weights.  ``-inf`` when the reverse move lies
    outside the clamp bounds.
    """
    reverse, cmin, cmax = -coeffs, table.ac.coeff_min, table.ac.coeff_max
    if reverse.min(initial=cmin) < cmin or reverse.max(initial=cmax) > cmax:
        return -np.inf
    log_fwd = proposal_log_prob(table, coeffs, here)
    log_rev = proposal_log_prob(table, reverse, there)
    return log_rev - log_fwd + (there.weight - here.weight)


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
    return _walk(basis, start, steps, rng, expected, chain_id, True, table, upper)


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
