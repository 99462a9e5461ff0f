"""Independent ground-truth helpers for the test suite.

Deliberately different machinery from the package: rational row
reduction with ``fractions.Fraction`` instead of integer column
elimination, products over a dense matrix instead of the design's
margin-rows scatter, a box scan instead of the pruned fiber search, plain central differences for gradients, and model fits on the
full table (axis sums, an n x n edge-probability matrix) instead of the
package's reduced margin rows.  Expected values frozen into tests were
computed with these.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

from fiberwalk._exact import integer_kernel_basis
from fiberwalk.agent import (
    SIGMA_MAX,
    Trajectory,
    WindowStats,
    actor_update,
    critic_update,
    critic_value,
    policy_distribution,
    policy_sample,
    window_scores,
)
from fiberwalk.errors import FitError, ValidationError
from fiberwalk.lattice import LatticeBasis


def rational_rref(mat):
    """Row-reduced echelon form over the rationals; returns (rows, pivots)."""
    rows = [[Fraction(int(v)) for v in row] for row in np.asarray(mat)]
    n = len(rows)
    d = len(rows[0]) if n else 0
    pivots = []
    r = 0
    for c in range(d):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def rational_rank(mat):
    return len(rational_rref(mat)[1])


def rational_nullspace(mat):
    """Basis of the rational kernel via free columns of the RREF."""
    mat = np.asarray(mat)
    d = mat.shape[1]
    rows, pivots = rational_rref(mat)
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * d
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(vec)
    return basis


def sparse_columns(mat):
    """``(n_rows, columns)`` of a 2-D integer matrix, each column a dict of its nonzero
    entries: the input form of the package's exact elimination."""
    arr = np.asarray(mat)
    return arr.shape[0], [
        {r: v for r, v in enumerate(map(int, column)) if v} for column in arr.T.tolist()
    ]


def kernel_basis(mat):
    """The package's exact kernel elimination run on a general integer matrix."""
    shape, nonzeros = integer_kernel_basis(*sparse_columns(mat))
    return LatticeBasis(shape=shape, nonzeros=nonzeros)


def exact_matvec(mat, vec):
    """mat @ vec in Python ints over the nonzeros of mat; returns a list."""
    arr = np.asarray(mat)
    rows, cols = np.nonzero(arr)
    xs = [int(v) for v in vec]
    out = [0] * arr.shape[0]
    for r, j, a in zip(rows.tolist(), cols.tolist(), arr[rows, cols].tolist()):
        out[r] += int(a) * xs[j]
    return out


def box_sides(mat, marginals, upper=None):
    """Largest value of each coordinate of a point of ``{x >= 0 : mat @ x == marginals}``.

    ``mat`` is 0/1 with no zero column, so a coordinate is at most the
    smallest marginal of the rows its column touches (and ``upper``).
    """
    want = np.asarray(marginals, dtype=np.int64)
    sides = [int(want[np.asarray(col) != 0].min()) for col in np.asarray(mat).T]
    return sides if upper is None else [min(s, upper) for s in sides]


def box_fiber(mat, marginals, upper=None):
    """The fiber ``{0 <= x <= upper : mat @ x == marginals}`` of a 0/1 matrix.

    Tests every point of the box that ``box_sides`` gives.
    """
    mat = np.asarray(mat, dtype=np.int64)
    sides = box_sides(mat, marginals, upper)
    points = list(itertools.product(*(range(s + 1) for s in sides)))
    box = np.array(points, dtype=np.int64).reshape(len(points), mat.shape[1])
    hit = (box @ mat.T == np.asarray(marginals, dtype=np.int64)).all(axis=1)
    return {tuple(int(v) for v in x) for x in box[hit]}


def gaussian_log_density(z, mu, sigma):
    z, mu, sigma = (np.asarray(v, dtype=float) for v in (z, mu, sigma))
    return float(
        np.sum(-0.5 * math.log(2 * math.pi) - np.log(sigma) - (z - mu) ** 2 / (2 * sigma**2))
    )


def range_masses(lo, hi, mu, sigma, cmin, cmax):
    """Probability that N(mu, sigma) rounds and clamps into the integers lo..hi.

    One range at a time from its own edge grid, where the package prices
    every range of a state from one table.  Rounding maps the range to
    ``(lo - 0.5, hi + 0.5)``; clamping moves an edge below ``cmin`` to
    -inf and one above ``cmax`` to +inf, so a range outside the bounds
    has zero mass.  ``lo <= hi`` are integer arrays of one shape that
    broadcast against ``mu``.  A range above the mean is measured as
    ``sf(lower) - sf(upper)``, so a far tail keeps its mass.
    """
    grid = np.arange(cmin - 0.5, cmax + 1)  # every cell edge, cmin - 0.5 .. cmax + 0.5
    grid[0], grid[-1] = -np.inf, np.inf  # the clamped tails
    z = (grid.take(np.array([hi + 1, lo]) - cmin, mode="clip") - mu) / sigma
    np.negative(z, out=z, where=z[1] > 0)  # mirror a range above the mean
    cdf = ndtr(z)
    return np.abs(cdf[0] - cdf[1])  # a mirrored range has its two terms swapped


def policy_log_density(ac, state, continuous):
    """ln pi(continuous | state) under the current parameters."""
    mu, sigma = policy_distribution(ac, state)
    return gaussian_log_density(continuous, mu, sigma)


def central_difference(func, x, eps=1e-5):
    """Componentwise central finite-difference gradient of a scalar func."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = eps
        grad[i] = (func(x + bump) - func(x - bump)) / (2 * eps)
    return grad


def gae_double_sum(rewards, values, bootstrap, gamma, lam):
    """Direct truncated double sum of discounted temporal differences."""
    k = len(rewards)
    next_values = list(values[1:]) + [bootstrap]
    deltas = [rewards[t] + gamma * next_values[t] - values[t] for t in range(k)]
    return np.array(
        [sum((gamma * lam) ** (l - t) * deltas[l] for l in range(t, k)) for t in range(k)]
    )


def backward_one(net, cache, output_grad):
    """``net.backward`` on a batch of one: one state's layer outputs and output gradient."""
    return net.backward([z[None] for z in cache], output_grad[None])


def step_score(ac, head_out, z):
    """d/d(head output) of ln N(z; mu, sigma) for one draw ``z`` from one head output,
    each dmu, then each dlog-sigma, zero where the clamp pins the stddev: the one-step
    form of the formula, which each row of ``window_scores`` must match bit for bit."""
    c = ac.n_coeffs
    mu = head_out[:c]
    sigma_raw = np.exp(head_out[c:])
    sigma = sigma_raw.clip(ac.sigma_min, SIGMA_MAX)
    dmu = (z - mu) / sigma**2
    dsigma = (z - mu) ** 2 / sigma**3 - 1.0 / sigma
    unclamped = (sigma_raw > ac.sigma_min) & (sigma_raw < SIGMA_MAX)
    return np.concatenate([dmu, dsigma * np.where(unclamped, sigma_raw, 0.0)])


def sample_score(ac, sample):
    """The head-space score of one policy sample: ``window_scores`` on a batch of one."""
    return window_scores(ac, sample.cache[-1][None], sample.continuous[None])[0]


def score_gradient(ac, sample):
    """d ln pi / d(theta) of one policy sample: its score passed backward through
    ``ac.net``, which must still hold the parameters the sample was drawn with."""
    return backward_one(ac.net, sample.cache, sample_score(ac, sample))


def window_direction_oracle(ac, samples, adv):
    """The actor's window direction as the GAE-weighted average of each step's
    flat score gradient, one full backward pass per step."""
    return np.array([score_gradient(ac, s) for s in samples]).T @ adv / len(adv)


def relative_error(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def embed_full(spec, reduced):
    """The full-length cell vector of ``spec``: ``reduced`` with a zero put back
    at each structural zero, read off the spec's cell order alone."""
    n_cells = len(spec.cell_labels())
    full = np.zeros(n_cells, dtype=np.asarray(reduced).dtype)
    full[[k for k in range(n_cells) if k not in spec.structural_zeros]] = reduced
    return full


def reference_fit(spec, counts, tol=1e-8, max_iter=10_000):
    """Expected counts of the reduced ``counts`` under ``spec``, fitted on the full
    table; ``None`` if the iteration does not reach ``tol`` in ``max_iter`` sweeps.

    Independence without structural zeros takes the closed form
    row * col / total; other tables take IPF over axis sums with the
    structural zeros started at 0; graphs take the damped fixed point of
    the beta model on the n x n matrix of edge probabilities.
    """
    full = embed_full(spec, np.asarray(counts, dtype=float))
    kept = [k for k in range(full.size) if k not in spec.structural_zeros]
    if spec.family == "beta_model":
        probs = _reference_beta(spec, full, tol, max_iter)
        if probs is None:
            return None
        return np.array([probs[i, j] for i, j in spec.cell_labels()])[kept]
    table = full.reshape(spec.shape)
    if spec.family == "independence" and not spec.structural_zeros:
        return (np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()).reshape(-1)
    fitted = _reference_ipf(spec, table, tol, max_iter)
    return None if fitted is None else fitted.reshape(-1)[kept]


def _reference_ipf(spec, observed, tol, max_iter):
    ndim = len(spec.shape)
    groups = [(0,), (1,)] if ndim == 2 else [(0, 1), (0, 2), (1, 2)]
    others = [tuple(ax for ax in range(ndim) if ax not in group) for group in groups]
    targets = [observed.sum(axis=other) for other in others]
    fitted = np.ones(spec.shape)
    for idx in spec.structural_zeros:
        fitted.reshape(-1)[idx] = 0.0
    for _ in range(max_iter):
        for group, other, target in zip(groups, others, targets):
            current = fitted.sum(axis=other)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(current > 0, target / np.where(current > 0, current, 1.0), 0.0)
            expand = tuple(slice(None) if ax in group else None for ax in range(ndim))
            fitted = fitted * ratio[expand]
        gap = max(
            float(np.max(np.abs(fitted.sum(axis=other) - target)))
            for other, target in zip(others, targets)
        )
        if gap <= tol:
            return fitted
    return None


def _reference_beta(spec, flat, tol, max_iter, damping=0.5, cap=40.0):
    n = spec.shape[0]
    labels = spec.cell_labels()
    allowed = np.ones((n, n), dtype=bool)
    np.fill_diagonal(allowed, False)
    for idx in spec.structural_zeros:
        i, j = labels[idx]
        allowed[i, j] = allowed[j, i] = False
    adj = np.zeros((n, n))
    for k, (i, j) in enumerate(labels):
        adj[i, j] = adj[j, i] = flat[k]
    degrees = adj.sum(axis=1)
    zero_deg = degrees == 0
    beta = np.where(zero_deg, -cap, 0.0)
    for _ in range(max_iter):
        logits = np.clip(beta[:, None] + beta[None, :], -cap, cap)
        probs = np.where(allowed, 1.0 / (1.0 + np.exp(-logits)), 0.0)
        exp_deg = probs.sum(axis=1)
        if float(np.max(np.abs(exp_deg - degrees))) <= tol:
            return probs
        live = ~zero_deg & (exp_deg > 0)
        beta[live] += damping * (np.log(degrees[live]) - np.log(exp_deg[live]))
        beta = np.clip(beta, -cap, cap)
        beta[zero_deg] = -cap
    return None


def serial_count_law(trans, stride, n, stats, log_weights):
    """Exact law of the serial Besag-Clifford test's counts, the observation drawn
    from the target ``exp(log_weights)`` on the states of the kernel ``trans``.

    Entry ``[a, e]`` is the probability that ``a`` of the ``n`` sampled statistics
    lie above the observed one and ``e`` equal it.  Given the observation ``s``, a
    dynamic program over (state, a, e) runs each walk through ``trans^stride``, one
    stride per sampled point; the two walks are independent given ``s``, so the
    counts of a split ``m`` convolve the ``m``-stride and ``(n - m)``-stride laws,
    averaged over ``m`` uniform on ``0..n``.
    """
    kernel = np.linalg.matrix_power(trans, stride)
    target = np.exp(log_weights - log_weights.max())
    target /= target.sum()
    law = np.zeros((n + 1, n + 1))
    for s, weight in enumerate(target):
        above, tied = stats > stats[s], stats == stats[s]
        below = ~above & ~tied
        walk = np.zeros((len(stats), n + 1, n + 1))
        walk[s, 0, 0] = 1.0
        counts = [walk.sum(axis=0)]
        for _ in range(n):
            moved = np.einsum("xae,xy->yae", walk, kernel)
            walk = np.zeros_like(moved)
            walk[below] = moved[below]
            walk[above, 1:] = moved[above, :-1]
            walk[tied, :, 1:] = moved[tied, :, :-1]
            counts.append(walk.sum(axis=0))
        for m in range(n + 1):
            first, second = counts[m], counts[n - m]
            for a, e in zip(*np.nonzero(first)):
                law[a:, e:] += weight / (n + 1) * first[a, e] * second[: n + 1 - a, : n + 1 - e]
    return law


def per_line_basis_nonzeros(path, count, dim):
    """Rows, columns and values (Python lists) of the body of a basis file
    whose header holds ``count`` and ``dim``, read one line at a time.

    Raises the reader's :class:`ValidationError` messages: the first faulty
    line, or a line count that differs from ``count``, names the path and line.
    """
    rows, cols, vals = [], [], []
    lineno = 1
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            where = f"{path}:{lineno}"
            if lineno - 2 == count:
                raise ValidationError(f"{where}: more vectors than the header's c={count}")
            try:
                pairs = []
                for text in line.split():
                    col, val = text.split(":")
                    pairs.append((int(col), int(val)))
                if any(not -2**63 <= v < 2**63 for pair in pairs for v in pair):
                    raise ValueError
            except ValueError:
                raise ValidationError(
                    f"{where}: expected column:value pairs of integers in int64 range"
                ) from None
            line_cols = [c for c, _ in pairs]
            if line_cols != sorted(set(line_cols)):
                raise ValidationError(f"{where}: columns must strictly increase")
            if any(not 0 <= c < dim for c in line_cols):
                raise ValidationError(f"{where}: column outside 0..{dim - 1}")
            if any(v == 0 for _, v in pairs):
                raise ValidationError(f"{where}: a listed value is 0")
            rows += [lineno - 2] * len(pairs)
            cols += line_cols
            vals += [v for _, v in pairs]
    if lineno - 1 != count:
        raise ValidationError(
            f"{path}:{lineno + 1}: {lineno - 1} vectors, but the header says c={count}"
        )
    return rows, cols, vals


# ------------------------------------------------------------------
# The package's earlier forms of five width-bound functions, kept
# verbatim: the properties in test_agent and test_models check that the
# faster forms give the same bytes.  ``_fit_bernoulli`` calls the
# ``_margin_totals`` below, as it did in the package.
# ------------------------------------------------------------------


def mask_coefficients(coeffs, mask_k):
    """Keep the mask_k largest(|.|) entries, ties broken by lowest index."""
    if mask_k is None or mask_k >= len(coeffs):
        return coeffs
    order = np.argsort(-np.abs(coeffs), kind="stable")
    out = np.zeros_like(coeffs)
    keep = order[:mask_k]
    out[keep] = coeffs[keep]
    return out


def mask_by_every_class(coeffs, mask_k):
    """The magnitude-class mask that scans every class down to 1, whatever it has kept."""
    if mask_k is None or mask_k >= len(coeffs):
        return coeffs
    mags, out, left = np.abs(coeffs), np.zeros_like(coeffs), mask_k
    for m in range(int(mags.max()), 0, -1):
        keep = np.flatnonzero(mags == m)[:left]
        out[keep] = coeffs[keep]
        left -= len(keep)
    return out


def _margin_totals(rows, n, values):
    """``M @ values`` for the margin-rows table ``rows`` of ``n`` rows.

    Each column's value is added at its rows, in the values' dtype widened
    to at least int64: exact on integer counts, in column order on floats.
    """
    out = np.zeros(n, dtype=np.result_type(values, np.int64))
    np.add.at(out, rows.ravel(), np.repeat(values, rows.shape[1]))
    return out


def _fit_bernoulli(rows, target, tol, max_iter):
    """Damped fixed-point MLE of the beta model (each column is 0 or 1).

    Works on one weight b per row through the column probability
    p = exp(s) / (1 + exp(s)), s = the sum of its rows' weights; each
    sweep nudges b_i by half of log(target_i / expected_i).  A row with
    target 0 is held at the weight floor.
    """
    n = len(target)
    CAP = 40.0
    zero = target == 0
    beta = np.where(zero, -CAP, 0.0)
    gap = math.inf
    for _ in range(max_iter):
        probs = 1.0 / (1.0 + np.exp(-np.clip(beta[rows].sum(axis=1), -CAP, CAP)))
        expected = _margin_totals(rows, n, probs)
        gap = float(np.max(np.abs(expected - target)))
        if gap <= tol:
            return probs
        live = ~zero & (expected > 0)
        beta[live] += 0.5 * (np.log(target[live]) - np.log(expected[live]))
        beta = np.clip(beta, -CAP, CAP)
        beta[zero] = -CAP
    raise FitError(
        f"beta-model fit did not reach degree gap {tol} within {max_iter} iterations "
        f"(last gap {gap:.6g})"
    )


def chi_square_many(points, expected):
    """Pearson statistic of each row of a (m, d) block of fiber points.

    Each row is summed left to right, so its value does not depend on
    the other rows of the block.  Cells with expected count 0
    contribute nothing when the observed count is also 0, and force
    the +inf sentinel otherwise (the model rules out a cell that was
    observed).
    """
    pts = np.asarray(points, dtype=float)
    expected = np.asarray(expected, dtype=float)
    zero = expected == 0
    dev = pts[:, ~zero] - expected[~zero]
    out = np.zeros(len(pts))
    if dev.shape[1]:
        out = np.cumsum(dev * dev / expected[~zero], axis=1)[:, -1]
    out[(pts[:, zero] > 0).any(axis=1)] = math.inf
    return out


def policy_header_lines(ac, basis_sha256):
    """The v3 policy file's header lines, written line by line as the package once did:
    the property in test_agent checks that the table-driven writer gives the same bytes."""
    return [
        "fiberwalk-policy v3",
        f"coeff_min={ac.coeff_min}",
        f"coeff_max={ac.coeff_max}",
        f"mask_k={'none' if ac.mask_k is None else ac.mask_k}",
        f"ball_radius={repr(float(ac.ball_radius))}",
        f"input_scale={repr(float(ac.input_scale))}",
        f"sigma_min={repr(float(ac.sigma_min))}",
        f"basis_sha256={basis_sha256}",
        f"layers={','.join(map(str, ac.net.dims))}",
    ]


def train_every_step(env, ac, cfg, start):
    """``agent.train``'s windows with a network pass at every step and one more for the
    bootstrap, whether or not the state moved: the loop that keeping a pass replaced."""
    rng = np.random.default_rng(cfg.seed)
    actor_sched, critic_sched = cfg.schedules()
    log = []
    for _ in range(cfg.episodes):
        env.reset(np.asarray(start, dtype=np.int64))
        state = env.current
        done = 0
        while done < env.config.steps_per_episode:
            k = min(cfg.window, env.config.steps_per_episode - done)
            caches, draws, rewards, values = [], [], [], []
            feasible_count = 0
            for _ in range(k):
                sample = policy_sample(ac, state, rng)
                outcome = env.step(sample.coeffs)
                caches.append(sample.cache)
                draws.append(sample.continuous)
                values.append(critic_value(ac, sample.features))
                rewards.append(outcome.reward)
                feasible_count += outcome.feasible
                state = outcome.next
            end_cache = ac.net.forward_cached(np.asarray(state, dtype=float) / ac.input_scale)
            layers = [np.array(rows) for rows in zip(*caches, end_cache)]
            traj = Trajectory(
                layers=layers,
                scores=window_scores(ac, layers[-1][:k], np.array(draws)),
                rewards=np.array(rewards),
                values=np.array(values),
                bootstrap_value=critic_value(ac, end_cache[-2]),
            )
            n = len(log) + 1
            alpha, beta = actor_sched(n), critic_sched(n)
            critic_update(ac, traj, beta, cfg.gamma)
            actor_update(ac, traj, alpha, cfg.gamma, cfg.lam)
            log.append(WindowStats(n, float(traj.rewards.mean()), feasible_count / k,
                                   env.discovered.count, alpha, beta))
            done += k
    return log
