"""Actor-critic learner over lattice-basis coefficient actions.

The policy is one network: tanh hidden layers, then a linear last
layer that emits a mean and log standard deviation per coefficient,
defining a diagonal Gaussian whose samples are rounded, clamped to the
coefficient bounds and optionally masked down to the largest few
entries.  The critic is the linear map ``features . omega`` on the
network's last hidden layer, read from the same forward pass, so one
pass evaluates both.  A step only draws, from the pass at its state, which
a step rejected in place reuses; the window scores its draws at once, from
the stacked head outputs.  The actor ascends the GAE-weighted
score direction averaged over a rollout window, one batched backward
pass over the window's stacked layer outputs; the critic descends the
squared n-step bootstrap error.  Each step is added in place to its
parameter vector, which is then projected back onto a large ball,
keeping the iterates bounded; the two step-size schedules decay at
different rates so the coupled updates behave as a fast/slow pair.

Log-probabilities are always evaluated at the pre-rounding continuous
sample: the policy density is a Gaussian, and rounding, clamping and
masking belong to the environment's interpretation of the action.

A policy file (version 3) is the settings, the layer widths and one
base64 line of the little-endian float64 values: the network's parameter
vector, then the critic weights.  Version 1 and 2 files are refused, and
their policies must be trained again.
"""

import binascii
import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractViolation, NumericError, ValidationError
from .neuralnet import DenseNet, make_dense, param_count

SIGMA_MIN = 1e-3
SIGMA_MAX = 1e3
# The least sigma_min: the cube of a stddev pinned there, which window_scores divides
# by, is a normal float, so the score stays finite instead of dividing by zero.
SIGMA_FLOOR_MIN = float(np.cbrt(np.finfo(float).tiny))

DEFAULT_HIDDEN = (64, 64)
MASK_THRESHOLD = 100  # states wider than this keep at most DEFAULT_MASK_K coefficients
DEFAULT_MASK_K = 10
ACTOR_STEP_CAP = 0.1  # longest step an update applies to each parameter vector; see actor_update
CRITIC_STEP_CAP = 1.0


def width_defaults(state_dim, n_coeffs):
    """``(mask_k, sigma_min)`` for ``auto``.  Up to ``MASK_THRESHOLD`` cells: no mask, and a
    unit stddev floor that keeps the sampler exploratory after convergence.  Wider: keep
    ``DEFAULT_MASK_K`` coefficients (all, if there are no more) and the ``SIGMA_MIN`` floor,
    as a wide sparse policy must put almost every coefficient at zero."""
    if state_dim <= MASK_THRESHOLD:
        return None, 1.0
    return (None if n_coeffs <= DEFAULT_MASK_K else DEFAULT_MASK_K), SIGMA_MIN


@dataclass
class ActorCritic:
    net: DenseNet
    critic_weights: np.ndarray
    coeff_min: int
    coeff_max: int
    mask_k: int
    ball_radius: float
    input_scale: float
    sigma_min: float

    def __post_init__(self):
        if self.net.output_dim % 2 != 0:
            raise ContractViolation("the policy network must emit (mean, log-sigma) pairs")
        if len(self.critic_weights) != self.net.weights[-1].shape[1]:
            raise ContractViolation("critic weight length must match the last hidden layer")
        if self.mask_k is not None and not 1 <= self.mask_k <= self.n_coeffs:
            raise ContractViolation("mask_k must lie between 1 and the coefficient count")
        if self.coeff_min >= self.coeff_max:
            raise ContractViolation("coeff_min must be below coeff_max")
        if not self.ball_radius > 0:
            raise ContractViolation("ball_radius must be positive")
        if not 0 < self.input_scale < np.inf:
            raise ContractViolation("input_scale must be positive and finite")
        if not SIGMA_FLOOR_MIN <= self.sigma_min < SIGMA_MAX:  # the head clips to SIGMA_MAX
            raise ContractViolation(f"sigma_min must lie in [{SIGMA_FLOOR_MIN!r}, {SIGMA_MAX:g})")

    @property
    def n_coeffs(self):
        return self.net.output_dim // 2

    @property
    def state_dim(self):
        return self.net.input_dim

    def actor_params(self):
        return self.net.param_vector()


def make_actor_critic(
    state_dim,
    n_coeffs,
    hidden=DEFAULT_HIDDEN,
    seed=0,
    coeff_min=-2,
    coeff_max=2,
    mask_k="auto",
    ball_radius=1e3,
    input_scale=1.0,
    sigma_min="auto",
):
    """Fresh learner: tanh layers of widths ``hidden``, then a linear head.

    ``input_scale`` divides the raw state before the network; set
    it near the largest count of the start point so the tanh layers
    see O(1) inputs instead of saturating on raw counts.

    ``sigma_min`` floors the policy stddev.  The reward alone would
    drive the Gaussian toward a deterministic cycle once feasible
    moves are found; the floor keeps the sampler exploratory, which
    fiber discovery and the Metropolis correction both rely on.  Set
    it to 1e-3 to recover an effectively unconstrained policy.
    """
    if not hidden or min(hidden) < 1:
        raise ContractViolation(f"hidden layer widths must be positive, got {hidden!r}")
    rng = np.random.default_rng(seed)
    net = make_dense((state_dim, *hidden, 2 * n_coeffs), rng)
    auto_mask_k, auto_sigma_min = width_defaults(state_dim, n_coeffs)
    mask_k = auto_mask_k if mask_k == "auto" else mask_k
    sigma_min = auto_sigma_min if sigma_min == "auto" else sigma_min
    return ActorCritic(
        net=net,
        critic_weights=np.zeros(hidden[-1]),
        coeff_min=coeff_min,
        coeff_max=coeff_max,
        mask_k=mask_k,
        ball_radius=ball_radius,
        input_scale=float(input_scale),
        sigma_min=float(sigma_min),
    )


def _forward(ac, state):
    """One network pass at ``state``: every layer's output, the input first.  The
    head output is the last; the last hidden layer, the critic's input, precedes it."""
    return ac.net.forward_cached(np.divide(state, ac.input_scale))


class PolicySample:
    """One draw: the coefficients, the continuous draw they round from, and the forward
    pass's layer outputs (every layer's, the input first), from which
    :func:`window_scores` scores the draw."""

    def __init__(self, coeffs, continuous, cache):
        self.coeffs, self.continuous, self.cache = coeffs, continuous, cache

    @property
    def features(self):
        """The last hidden layer, the critic's input."""
        return None if self.cache is None else self.cache[-2]


def mask_coefficients(coeffs, mask_k):
    """Keep the mask_k largest(|.|) entries, ties broken by lowest index.

    The entries are integers in the coefficient bounds, so they are kept by
    magnitude class, from the largest down: a pass per class, not a sort, and
    none once ``mask_k`` entries are kept.
    """
    if mask_k is None or mask_k >= len(coeffs):
        return coeffs
    mags, out, left = np.abs(coeffs), np.zeros_like(coeffs), mask_k
    for m in range(int(mags.max()), 0, -1):
        keep = np.flatnonzero(mags == m)[:left]
        out[keep] = coeffs[keep]
        left -= len(keep)
        if not left:
            break
    return out


def _head_distribution(ac, head_out):
    """Mean, clipped and raw stddev of one head output, or of each row of a stack."""
    c = ac.n_coeffs
    mu = head_out[..., :c]
    sigma_raw = np.exp(head_out[..., c:])
    sigma = sigma_raw.clip(ac.sigma_min, SIGMA_MAX)
    return mu, sigma, sigma_raw


def policy_distribution(ac, state):
    """Mean and stddev of the coefficient Gaussian at ``state``."""
    mu, sigma, _ = _head_distribution(ac, _forward(ac, state)[-1])
    return mu, sigma


def policy_sample(ac, state, rng, dist=None):
    """Draw a coefficient action at ``state``.

    ``dist`` is the ``(mu, sigma)`` already evaluated at ``state``, as a
    walk keeps it for its current state and training for a state that a
    step left in place; passing it skips the network pass, so ``cache``
    and ``features`` are ``None``.  The draw
    ``mu + sigma * standard_normal`` has the bits of ``rng.normal(mu, sigma)``
    at a fraction of its cost.
    """
    cache = None if dist is not None else _forward(ac, state)
    mu, sigma = dist if dist is not None else _head_distribution(ac, cache[-1])[:2]
    z = mu + sigma * rng.standard_normal(len(mu))
    rounded = np.rint(z).clip(ac.coeff_min, ac.coeff_max).astype(np.int64)
    return PolicySample(mask_coefficients(rounded, ac.mask_k), z, cache)


def window_scores(ac, head_out, continuous):
    """(K, 2c) scores of K draws from the K stacked head outputs ``head_out``: each row is
    d/d(head output) of ln N(z; mu, sigma) at its continuous draw ``z``, each dmu, then
    each dlog-sigma; a stddev pinned by the clamp contributes zero."""
    mu, sigma, sigma_raw = _head_distribution(ac, head_out)
    dmu = (continuous - mu) / sigma**2
    dsigma = (continuous - mu) ** 2 / sigma**3 - 1.0 / sigma
    unclamped = (sigma_raw > ac.sigma_min) & (sigma_raw < SIGMA_MAX)
    scores = np.concatenate([dmu, dsigma * np.where(unclamped, sigma_raw, 0.0)], axis=1)
    if not np.isfinite(scores).all():
        raise NumericError("non-finite policy gradient")
    return scores


def critic_value(ac, features):
    """State value: inner product of the state's last hidden layer with the critic weights."""
    return float(features @ ac.critic_weights)


def _discounted_sums(values, factor, tail):
    """``out[t] = values[t] + factor * out[t + 1]`` from the last t down; ``out[len] = tail``."""
    out = np.empty(len(values))
    acc = tail
    for t in range(len(values) - 1, -1, -1):
        acc = values[t] + factor * acc
        out[t] = acc
    return out


def compute_gae(rewards, values, bootstrap, gamma, lam):
    """Truncated generalized advantage estimates for one window.

    delta(t) = r_t + gamma*V(t+1) - V(t) with V at the window end given
    by ``bootstrap``; the estimate at t sums (gamma*lam)^l * delta(t+l)
    over the remainder of the window.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if rewards.shape != values.shape:
        raise ContractViolation("rewards and values must have equal length")
    next_values = np.append(values[1:], bootstrap)
    deltas = rewards + gamma * next_values - values
    return _discounted_sums(deltas, gamma * lam, 0.0)


@dataclass(frozen=True)
class Trajectory:
    """One rollout window of length K plus the bootstrap state."""

    layers: list            # (K+1, width) per layer, the input first: the K states, then the end
    scores: np.ndarray      # (K, 2c), the window_scores of the K draws
    rewards: np.ndarray     # (K,)
    values: np.ndarray      # (K,)
    bootstrap_value: float

    def __post_init__(self):
        steps = {len(self.scores), len(self.values), *(len(rows) - 1 for rows in self.layers)}
        if steps != {len(self.rewards)}:
            raise ContractViolation("trajectory arrays have inconsistent lengths")
        if (self.rewards > 0).any():
            raise ContractViolation("rewards cannot be positive in this MDP")

    @property
    def features(self):
        """(K+1, m): the last hidden layer, the critic's input."""
        return self.layers[-2]


def _apply_step(params, direction, step_size, max_step, radius, name):
    """``params += step_size * direction`` capped at length ``max_step``, then projected onto
    the ball of ``radius``.  Both arrays are changed in place, ``direction`` into the step;
    a non-finite step raises before ``params`` changes.  A finite sum of squares has
    finite entries, so only a non-finite norm needs the entries checked."""
    direction *= step_size
    norm = math.sqrt(direction @ direction)  # np.linalg.norm's own expression for a 1-D vector
    if norm > max_step:
        direction *= max_step / norm
    if not math.isfinite(norm) and not np.isfinite(direction).all():
        raise NumericError(f"non-finite {name} after update")
    params += direction
    norm = math.sqrt(params @ params)
    if norm > radius:
        params *= radius / norm


def actor_update(ac, traj, step_size, gamma, lam):
    """Ascend the window-averaged score direction weighted by GAE.

    ``ACTOR_STEP_CAP`` caps the applied step length (direction unchanged);
    penalties scale with the problem dimension, and an uncapped first
    step on a large-reward fiber can throw the means past any
    feasible region before the critic has centered the advantages.
    The backward pass is linear in its output gradient, so the direction
    sum_k adv_k * grad ln pi_k / K is one backward pass over the window's
    K steps, with output gradients adv_k * score_k / K; the step is scaled in that
    gradient, the one parameter-sized array made, and added to the network's vector.
    """
    adv = compute_gae(traj.rewards, traj.values, traj.bootstrap_value, gamma, lam)
    cache = [rows[:-1] for rows in traj.layers]  # the K steps, not the end state
    direction = ac.net.backward(cache, traj.scores * (adv / len(adv))[:, None])
    _apply_step(
        ac.net.params, direction, step_size, ACTOR_STEP_CAP, ac.ball_radius, "actor parameters"
    )


def critic_update(ac, traj, step_size, gamma):
    """Descend the n-step bootstrap squared error in the critic weights.

    The raw residual-times-feature direction is the gradient of that
    squared error, so it is applied with a negative sign; ``CRITIC_STEP_CAP``
    caps the applied step length as ``ACTOR_STEP_CAP`` does in :func:`actor_update`.
    """
    k = len(traj.rewards)
    feats = traj.features
    omega = ac.critic_weights
    targets = _discounted_sums(traj.rewards, gamma, float(feats[k] @ omega))
    residuals = feats[:k] @ omega - targets
    decay = gamma ** (k - np.arange(k))
    direction = (feats[:k] - np.outer(decay, feats[k])).T @ residuals
    _apply_step(omega, direction, -step_size, CRITIC_STEP_CAP, ac.ball_radius, "critic weights")


@dataclass(frozen=True)
class TrainConfig:
    """Discount, GAE weight, window and episode counts, and the step-size schedules.

    The schedules are a Robbins-Monro pair, ``a0 / t^(2/3)`` for the
    actor and ``b0 / t`` for the critic; ``swap`` exchanges the decay laws,
    and ``a0`` stays the actor's scale.  Both pairings satisfy the
    summability conditions, they differ in which iterate is the fast one.
    """

    gamma: float = 0.99
    lam: float = 0.5
    window: int = 8
    episodes: int = 1000
    seed: int = 0
    a0: float = 0.05
    b0: float = 0.05
    swap: bool = False

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ContractViolation("gamma must lie strictly between 0 and 1")
        if not 0.0 <= self.lam <= 1.0:
            raise ContractViolation("lambda must lie in [0, 1]")
        if self.window < 1:
            raise ContractViolation("window length must be at least 1")
        if self.episodes < 0:
            raise ContractViolation("episode count cannot be negative")
        if not (self.a0 > 0 and self.b0 > 0):
            raise ContractViolation("step-size scales a0 and b0 must be positive")

    def schedules(self):
        """``(actor, critic)`` step sizes as functions of the update count."""
        actor_power, critic_power = (1.0, 2.0 / 3.0) if self.swap else (2.0 / 3.0, 1.0)
        return (lambda t: self.a0 / t ** actor_power), (lambda t: self.b0 / t ** critic_power)


@dataclass(frozen=True)
class WindowStats:
    window: int
    mean_reward: float
    feasible_fraction: float
    discovered_count: int
    alpha: float
    beta: float


def train(env, ac, cfg, start):
    """Run episodic rollouts, updating after every window.

    Each episode restarts from the fiber point ``start`` while the
    discovered set keeps accumulating.  The schedule argument is the
    update counter, i.e. the iterate index of the two stochastic
    approximation sequences.  Reproducible: all
    randomness flows from ``cfg.seed``.  The policy's coefficient bounds
    must be the environment's.

    The network pass at the current state is kept until a feasible step
    moves the state or the window's update changes the network: a step
    rejected in place pays for its draw and its MDP step, not a pass.  A
    window makes one pass at its first state and one after each feasible
    step, the bootstrap's included, with the bits of a pass at every step.
    """
    if env.basis.count == 0:
        raise ValidationError("cannot train with an empty move basis")
    if env.basis.count != ac.n_coeffs:
        raise ContractViolation(
            f"policy emits {ac.n_coeffs} coefficients, basis has {env.basis.count}"
        )
    lo, hi = env.config.coeff_min, env.config.coeff_max
    if (ac.coeff_min, ac.coeff_max) != (lo, hi):
        raise ContractViolation(
            f"policy draws coefficients in [{ac.coeff_min}, {ac.coeff_max}], "
            f"the environment takes [{lo}, {hi}]"
        )
    rng = np.random.default_rng(cfg.seed)
    actor_sched, critic_sched = cfg.schedules()
    start = np.asarray(start, dtype=np.int64)

    log = []
    n_updates = 0
    steps_per_episode = env.config.steps_per_episode
    for _ in range(cfg.episodes):
        env.reset(start)
        state = env.current
        done = 0
        while done < steps_per_episode:
            k = min(cfg.window, steps_per_episode - done)
            caches, draws, rewards, values = [], [], [], []
            feasible_count = 0
            cache = dist = None  # the pass at state, and its law once a rejected step reuses it
            for _ in range(k):
                if cache is None:
                    sample = policy_sample(ac, state, rng)
                    cache, value = sample.cache, critic_value(ac, sample.features)
                else:
                    if dist is None:
                        dist = _head_distribution(ac, cache[-1])[:2]
                    sample = policy_sample(ac, state, rng, dist=dist)
                outcome = env.step(sample.coeffs)
                caches.append(cache)
                draws.append(sample.continuous)
                values.append(value)
                rewards.append(outcome.reward)
                feasible_count += outcome.feasible
                state = outcome.next
                if outcome.feasible:
                    cache = dist = None
            if cache is None:
                cache = _forward(ac, state)
                value = critic_value(ac, cache[-2])
            layers = [np.array(rows) for rows in zip(*caches, cache)]
            traj = Trajectory(
                layers=layers,
                scores=window_scores(ac, layers[-1][:k], np.array(draws)),
                rewards=np.array(rewards),
                values=np.array(values),
                bootstrap_value=value,
            )
            n_updates += 1
            alpha = actor_sched(n_updates)
            beta = critic_sched(n_updates)
            critic_update(ac, traj, beta, cfg.gamma)
            actor_update(ac, traj, alpha, cfg.gamma, cfg.lam)
            log.append(
                WindowStats(
                    window=n_updates,
                    mean_reward=float(traj.rewards.mean()),
                    feasible_fraction=feasible_count / k,
                    discovered_count=env.discovered.count,
                    alpha=alpha,
                    beta=beta,
                )
            )
            done += k
    return log


def write_train_log(path, log):
    """Training log CSV: one row of :class:`WindowStats` per update window."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(field.name for field in fields(WindowStats))
        writer.writerows(vars(row).values() for row in log)  # a float is written as its repr


# ------------------------------------------------------------------
# Policy file format (version 3): "fiberwalk-policy v3", a key=value line per
# (key, cast) of POLICY_SETTINGS, written repr(cast(value)) or "none" for None
# and read back with cast, "basis_sha256=<hex>", "layers=<in>,<h1>,...,<out>",
# then one line of standard padded base64 (RFC 4648) of the little-endian
# float64 values: the network's param_vector() followed by the critic weights.
# The layer widths fix how many values follow, and so the line's length.
# ------------------------------------------------------------------

POLICY_SETTINGS = (  # every ActorCritic field but net and critic_weights, in file order
    ("coeff_min", int),
    ("coeff_max", int),
    ("mask_k", lambda value: None if value == "none" else int(value)),
    ("ball_radius", float),
    ("input_scale", float),
    ("sigma_min", float),
)


def serialize_policy(ac, basis_sha256):
    """The v3 policy file text of ``ac``, pinned to the sha256 hex digest of its basis file."""
    header = ["fiberwalk-policy v3"]
    for key, cast in POLICY_SETTINGS:
        value = getattr(ac, key)
        header.append(f"{key}={'none' if value is None else repr(cast(value))}")
    header += [f"basis_sha256={basis_sha256}", f"layers={','.join(map(str, ac.net.dims))}"]
    values = np.concatenate([ac.net.params, ac.critic_weights]).astype("<f8", copy=False)
    body = binascii.b2a_base64(values)  # ends in a line break
    del values  # each whole-file copy is freed once the next one is made
    body = body.decode("ascii")
    return "\n".join(header) + "\n" + body


def _widths(value):
    dims = tuple(int(width) for width in value.split(","))
    if len(dims) < 3 or min(dims) < 1:
        raise ValueError(f"need an input, a hidden and an output width, got {value!r}")
    return dims


_POLICY_HEADER = (*POLICY_SETTINGS, ("basis_sha256", str), ("layers", _widths))
_BODY_LINE = len(_POLICY_HEADER) + 2  # 1-based number of the values line


def line_field(lines, i, key, cast):
    """``cast(value)`` of ``lines[i]``, which must read ``key=value``."""
    name, _, value = lines[i].partition("=") if i < len(lines) else ("", "", "")
    try:
        if name == key:
            return cast(value)
    except ValueError:
        pass
    raise ValidationError(f"line {i + 1}: expected {key}=...")


def deserialize_policy(text):
    """Parse a v3 policy file; returns (ActorCritic, the basis_sha256 text)."""
    lines = text.split("\n", _BODY_LINE - 1)
    if lines[0] in ("fiberwalk-policy v1", "fiberwalk-policy v2"):
        raise ValidationError(
            f"line 1: a {lines[0].split()[1]} policy file, which this version does not read; "
            "retrain the policy"
        )
    if lines[0] != "fiberwalk-policy v3":
        raise ValidationError("line 1: not a v3 policy file")
    header = {
        key: line_field(lines, i, key, cast)
        for i, (key, cast) in enumerate(_POLICY_HEADER, start=1)
    }
    sha, dims = header.pop("basis_sha256"), header.pop("layers")
    n_params = param_count(dims)
    count = n_params + dims[-2]
    size = 4 * -(-8 * count // 3)  # base64 characters of 8 * count bytes
    body = lines.pop() if len(lines) == _BODY_LINE else ""  # the rest of the file
    width = body.find("\n") if "\n" in body else len(body)
    if width != size:
        raise ValidationError(
            f"line {_BODY_LINE}: {width} characters, but the layer widths fix "
            f"{count} values, which take {size}"
        )
    if len(body) > size + 1:
        raise ValidationError(f"line {_BODY_LINE}: expected the end of the file after the values")
    try:
        raw = binascii.a2b_base64(body)  # skips the line break, which is not in the alphabet
    except ValueError:  # binascii.Error, or a character outside ASCII
        raw = b""
    del body  # the text is freed before the values are copied out of the bytes
    if len(raw) != 8 * count:
        raise ValidationError(f"line {_BODY_LINE}: not the base64 of {count} float64 values")
    values = np.frombuffer(raw, "<f8").astype(float)
    if not np.isfinite(values).all():
        raise ValidationError(f"line {_BODY_LINE}: a value is not finite")
    net = DenseNet(dims, values[:n_params])
    return ActorCritic(net, values[n_params:], **header), sha
