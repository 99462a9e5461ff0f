"""Spans around fiberwalk's layer boundaries, and the per-layer metrics.

A traced run wraps the package's functions from outside: each name is
patched where its caller looks it up (``fiberwalk.sampling.combine_moves``
for the sampler, ``fiberwalk.fibermdp.combine_moves`` for the
environment, class methods on the class), and every call records one
span: name, start, end, parent span and an optional payload.  Spans
live in memory until the run ends.  Times are integer nanoseconds, so
a span's self time (its duration minus its children's) is exact.
"""

import importlib
import math
import time

import numpy as np

# (module, attribute, span name, payload kept from (args, result))
PATCHES = (
    ("fiberwalk.agent", "policy_sample", "agent.policy_sample", None),
    ("fiberwalk.agent", "critic_update", "agent.critic_update", None),
    ("fiberwalk.agent", "actor_update", "agent.actor_update", None),
    ("fiberwalk.fibermdp", "combine_moves", "fibermdp.combine_moves",
     lambda args, move: move.is_zero),
    ("fiberwalk.sampling", "policy_sample", "sampling.policy_sample",
     lambda args, sample: args[1]),
    ("fiberwalk.sampling", "combine_moves", "sampling.combine_moves",
     lambda args, move: move.delta),
    ("fiberwalk.sampling", "proposal_log_prob", "sampling.proposal_log_prob", None),
    ("fiberwalk.sampling", "mh_uniform", "sampling.mh_uniform",
     lambda args, out: out[0]),
    ("fiberwalk.sampling", "fit_expected_counts", "models.fit_expected_counts", None),
    ("fiberwalk.sampling", "chi_square_statistic", "models.chi_square", None),
    ("fiberwalk.sampling", "chi_square_many", "models.chi_square", None),
    ("fiberwalk.neuralnet.DenseNet", "forward_cached", "neuralnet.forward", None),
    ("fiberwalk.neuralnet.DenseNet", "backward", "neuralnet.backward", None),
    ("fiberwalk.fibermdp.FiberEnv", "step", "fibermdp.step",
     lambda args, outcome: outcome.feasible),
)

NAME, START, END, PARENT, PAYLOAD = range(5)


def _resolve(path):
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        return getattr(importlib.import_module(module), attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._restore = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, keep=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if keep is not None:
                self.spans[idx][PAYLOAD] = keep(args, result)
            return result

        return traced

    def install(self):
        """Patch every target that exists; names that are gone are listed in ``missing``."""
        for owner_path, attr, name, keep in PATCHES:
            owner = _resolve(owner_path)
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self.wrap(name, original, keep))
            self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self):
        """Per-span duration minus the durations of its direct children, in ns."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own


def geyer_ess(x):
    """Effective sample size by Geyer's initial positive sequence.

    Autocovariances are summed in adjacent pairs while the pair sum
    stays positive.  A constant sequence carries one draw's worth of
    information, so its ESS is 1.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2 or not np.all(np.isfinite(x)):
        return 1.0
    x = x - x.mean()
    gamma0 = float(x @ x) / n
    if gamma0 == 0.0:
        return 1.0
    acov = np.correlate(x, x, mode="full")[n - 1:] / n
    var = -gamma0
    for m in range(0, n - 1, 2):
        pair = acov[m] + acov[m + 1]
        if pair <= 0:
            break
        var += 2.0 * pair
    return n * gamma0 / var if var > 0 else float(n)


def tail_time(values):
    """The highest percentile up to p90 with at least 10 values beyond it.

    Returns ``(value, percentile, beyond)``; with 10 or fewer values no
    percentile qualifies and the median is returned with its count.
    """
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return float(np.median(v)), 50.0, n // 2
    k = min(math.ceil(0.9 * n) - 1, n - 11)
    return v[k], 100.0 * (k + 1) / n, n - 1 - k


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, run):
    """Per-layer metrics of one traced pass.

    ``run`` holds the pass's objects: ``basis``, ``ac``, ``env``,
    ``log`` and ``results``.  Returns ``(metrics, notes)``: metrics map
    a name to ``(value, unit)``; notes give each ratio with its base.
    """
    spans = tracer.spans
    own = tracer.self_times()
    total = {}
    self_total = {}
    calls = {}
    for s, self_ns in zip(spans, own):
        name = s[NAME]
        total[name] = total.get(name, 0) + s[END] - s[START]
        self_total[name] = self_total.get(name, 0) + self_ns
        calls[name] = calls.get(name, 0) + 1

    def secs(*names, table=total):
        return sum(table.get(n, 0) for n in names) / 1e9

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    # Walk the sampler's spans in call order: each combine is paired with
    # the state its policy_sample saw, and forward passes are attributed
    # to the Metropolis chain that encloses them.
    chain_of = {}
    state = None
    proposals = feasible = zero = 0
    sampling_forwards = 0
    chains = []
    for idx, s in enumerate(spans):
        parent = s[PARENT]
        if s[NAME] == "sampling.mh_uniform":
            chains.append(idx)
            chain_of[idx] = idx
            continue
        chain = chain_of.get(parent)
        if chain is None:
            continue
        chain_of[idx] = chain
        if s[NAME] == "sampling.policy_sample":
            state = s[PAYLOAD]
        elif s[NAME] == "sampling.combine_moves":
            delta = s[PAYLOAD]
            proposals += 1
            zero += not delta.any()
            feasible += bool(np.all(state + delta >= 0))
        elif s[NAME] == "neuralnet.forward":
            sampling_forwards += 1

    chain_s = [(spans[i][END] - spans[i][START]) / 1e9 for i in chains]
    samples = [spans[i][PAYLOAD] for i in chains]
    moved = sum(int(np.any(np.diff(smp.points, axis=0) != 0, axis=1).sum()) for smp in samples)
    distinct = [len(np.unique(smp.points, axis=0)) for smp in samples]
    ess = [geyer_ess(smp.statistics) for smp in samples]
    mh_steps = sum(len(smp.points) - 1 for smp in samples)
    stuck = sum(int(r.stuck) for r in run["results"])
    tail, tail_pct, beyond = tail_time(chain_s) if chain_s else (0.0, 0.0, 0)

    steps = [s[PAYLOAD] for s in spans if s[NAME] == "fibermdp.step"]
    step_feasible = sum(bool(f) for f in steps)
    step_zero = sum(bool(s[PAYLOAD]) for s in spans if s[NAME] == "fibermdp.combine_moves")

    log = run["log"]
    last = log[len(log) - max(1, len(log) // 10):] if log else []
    vectors = run["basis"].vectors
    nonzero_moves = feasible - zero

    m = {
        "models.design_s": (secs("models.build_design_matrix"), "s"),
        "models.fit_s": (secs("models.fit_expected_counts"), "s"),
        "lattice.basis_s": (secs("lattice.compute_lattice_basis"), "s"),
        "lattice.basis_vectors": (int(vectors.shape[0]), "count"),
        "lattice.basis_nnz": (int(np.count_nonzero(vectors)), "count"),
        "lattice.combine_calls": (count("sampling.combine_moves", "fibermdp.combine_moves"), "count"),
        "lattice.combine_s": (secs("sampling.combine_moves", "fibermdp.combine_moves"), "s"),
        "neuralnet.params": (int(run["ac"].actor_params().size), "count"),
        "neuralnet.forward_calls": (count("neuralnet.forward"), "count"),
        "neuralnet.forward_s": (secs("neuralnet.forward"), "s"),
        "neuralnet.backward_calls": (count("neuralnet.backward"), "count"),
        "neuralnet.backward_s": (secs("neuralnet.backward"), "s"),
        "agent.policy_sample_calls": (count("agent.policy_sample", "sampling.policy_sample"), "count"),
        "agent.policy_sample_s": (
            secs("agent.policy_sample", "sampling.policy_sample", table=self_total), "s"),
        "agent.update_calls": (count("agent.actor_update"), "count"),
        "agent.update_s": (secs("agent.critic_update", "agent.actor_update"), "s"),
        "agent.feasible_fraction_last": (
            float(np.mean([w.feasible_fraction for w in last])) if last else 0.0, "ratio"),
        "agent.mean_reward_last": (
            float(np.mean([w.mean_reward for w in last])) if last else 0.0, "reward"),
        "agent.windows_last": (len(last), "count"),
        "fibermdp.step_calls": (len(steps), "count"),
        "fibermdp.step_s": (secs("fibermdp.step"), "s"),
        "fibermdp.feasible_steps": (step_feasible, "count"),
        "fibermdp.feasible_ratio": (_ratio(step_feasible, len(steps)), "ratio"),
        "fibermdp.zero_moves": (step_zero, "count"),
        "fibermdp.zero_move_ratio": (_ratio(step_zero, len(steps)), "ratio"),
        "fibermdp.discovered": (int(run["env"].discovered.count), "count"),
        "sampling.mh_steps": (mh_steps, "count"),
        "sampling.step_us": (_ratio(sum(chain_s), mh_steps) * 1e6, "us"),
        "sampling.reverse_s": (secs("sampling.proposal_log_prob", table=self_total), "s"),
        "sampling.proposals": (proposals, "count"),
        "sampling.feasible_proposals": (feasible, "count"),
        "sampling.feasible_ratio": (_ratio(feasible, proposals), "ratio"),
        "sampling.accepted_moves": (moved, "count"),
        "sampling.accept_ratio": (_ratio(moved, nonzero_moves), "ratio"),
        "sampling.zero_moves": (zero, "count"),
        "sampling.zero_move_ratio": (_ratio(zero, proposals), "ratio"),
        "sampling.net_calls_per_step": (_ratio(sampling_forwards / 2, mh_steps), "calls/step"),
        "sampling.chains": (len(chain_s), "count"),
        "sampling.chain_s_p50": (float(np.median(chain_s)) if chain_s else 0.0, "s"),
        "sampling.chain_s_p90": (tail, "s"),
        "sampling.chain_tail_pct": (tail_pct, "%"),
        "sampling.distinct_points": (float(np.median(distinct)) if distinct else 0.0, "count"),
        "sampling.stuck_chains": (stuck, "count"),
        "sampling.ess_median": (float(np.median(ess)) if ess else 0.0, "count"),
        "sampling.ess_per_s": (_ratio(sum(ess), sum(chain_s)), "1/s"),
        "sampling.chi_square_s": (secs("models.chi_square"), "s"),
        "io.write_s": (secs("io.write_train", "io.write_results"), "s"),
        "io.read_s": (secs("io.read"), "s"),
        "trace.spans": (len(spans), "count"),
    }
    notes = [
        f"sampling.feasible_ratio: feasible {feasible:,} / {proposals:,} proposals",
        f"sampling.accept_ratio: moved {moved:,} / {nonzero_moves:,} feasible nonzero proposals",
        f"sampling.zero_move_ratio: zero moves {zero:,} / {proposals:,} proposals",
        f"sampling.net_calls_per_step: {sampling_forwards // 2:,} policy evaluations "
        f"(feature net + actor head) / {mh_steps:,} Metropolis steps",
        f"sampling.chain_s_p90: reported at p{tail_pct:.0f}, {beyond} of {len(chain_s)} chains beyond it",
        f"sampling.stuck_chains: {stuck} / {len(chain_s)} chains",
        f"fibermdp.feasible_ratio: feasible {step_feasible:,} / {len(steps):,} training steps",
        f"fibermdp.zero_move_ratio: zero moves {step_zero:,} / {len(steps):,} training steps",
        f"agent.feasible_fraction_last: mean over the last {len(last)} / {len(log)} train windows",
        f"lattice.combine_s: {secs('fibermdp.combine_moves'):.4g} s in "
        f"{count('fibermdp.combine_moves'):,} training calls, "
        f"{secs('sampling.combine_moves'):.4g} s in {count('sampling.combine_moves'):,} sampling calls",
    ]
    if tracer.missing:
        notes.append("not traced (gone from the package): " + ", ".join(tracer.missing))
    return m, notes
