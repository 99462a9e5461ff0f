"""Command-line driver: reproducible train / sample / test / enumerate / lift runs.

Runs are described by a flat key=value config file with dotted keys
(diff-friendly, no nesting), plus ``--seed`` and ``--out`` flags.  A
manifest with config snapshot, versions, stage timings and output
checksums is written atomically at the end of every run; rerunning
the same config and seed reproduces identical output checksums.

Exit codes: 0 success, 2 validation, 3 numeric, 4 capacity.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import __version__
from .agent import (
    TrainConfig,
    deserialize_policy,
    make_actor_critic,
    serialize_policy,
    train,
    write_train_log,
)
from .errors import (
    ConfigError,
    FiberwalkError,
    IncompatiblePolicyError,
    ValidationError,
    open_utf8,
)
from .fibermdp import FiberEnv, MdpConfig
from .lattice import (
    compute_lattice_basis,
    decompose_initial_point,
    enumerate_fiber,
    lift_basis,
    load_basis,
    save_basis,
)
from .models import (
    BETA_MODEL,
    ModelSpec,
    build_design_matrix,
    fit_expected_counts,
    observe_graph,
    observe_table,
    read_edge_list,
    read_table_csv,
)
from .sampling import (
    besag_clifford_pvalues,
    explore,
    mh_uniform,
    write_histogram_csv,
    write_pvalues_csv,
    write_results_csv,
    write_sample_csv,
)

_WALKERS = {"uniform": mh_uniform, "explore": explore}
_POLICY_SETTINGS = ("coeff_min", "coeff_max", "mask_k", "sigma_min", "ball_radius", "input_scale")

_UNSET = object()


def _given(**kwargs):
    """The keyword arguments whose config key is set (``cfg.get(key, _UNSET, cast)``
    returned a value), so that the library's own default covers the rest."""
    return {name: value for name, value in kwargs.items() if value is not _UNSET}


# Casts for RunConfig.get, besides int and float.
def _flag(text):
    """Strict yes/no: 1/true/yes/on or 0/false/no/off."""
    value = text.lower()
    if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError("expected yes or no")
    return value in ("1", "true", "yes", "on")


def _int_list(text):
    """Comma-separated integers, blanks skipped."""
    return [int(v) for v in text.split(",") if v.strip()]


def _int_lists(text):
    """``;``-separated groups of comma-separated integers."""
    return [_int_list(group) for group in text.split(";")]


def _mask_k(text):
    """``auto``, ``none`` (no mask) or a coefficient count."""
    if text in ("none", "None"):
        return None
    return text if text == "auto" else int(text)


def _dims(text):
    """``x``-separated dimensions, as in ``4x4`` or ``3x3x3``."""
    return tuple(int(p) for p in text.split("x"))


def _sigma_min(text):
    """``auto`` or a stddev floor."""
    return text if text == "auto" else float(text)


class RunConfig:
    """Flat dotted-key configuration with typed accessors."""

    def __init__(self, values, out_dir="out"):
        self.values = dict(values)
        self.seed = self.get("seed", 0, int)
        self.out_dir = out_dir

    @classmethod
    def from_file(cls, path, out_dir="out"):
        values = {}
        try:
            with open_utf8(path) as fh:
                for lineno, raw in enumerate(fh, start=1):
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected key=value")
                    key, value = line.split("=", 1)
                    values[key.strip()] = value.strip()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        return cls(values, out_dir=out_dir)

    def get(self, key, default=None, cast=str):
        if key not in self.values or self.values[key] == "":
            return default
        raw = self.values[key]
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key}={raw!r} is malformed: {exc}") from None

    def require(self, key, cast=str):
        value = self.get(key, default=None, cast=cast)
        if value is None:
            raise ConfigError(f"config key {key} is required for this command")
        return value


def _sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Manifest:
    """The record of one run; making it makes the run's out dir."""

    def __init__(self, command, cfg):
        self.out_dir = cfg.out_dir
        os.makedirs(self.out_dir, exist_ok=True)
        self.data = {
            "command": command,
            "seed": cfg.seed,
            "config": dict(cfg.values),
            "versions": {
                "fiberwalk": __version__,
                "numpy": np.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
            "timings": {},
            "outputs": {},
        }

    @contextmanager
    def stage(self, name):
        """Time the enclosed block as stage ``name``."""
        start = time.perf_counter()
        yield
        self.data["timings"][name] = time.perf_counter() - start

    def output(self, name, write, *args):
        """``write(path, *args)`` to ``name`` in the out dir and record its checksum."""
        path = os.path.join(self.out_dir, name)
        write(path, *args)
        self.data["outputs"][name] = _sha256_file(path)

    def write(self):
        """Write ``manifest.json`` atomically, report it, and return exit code 0."""
        path = os.path.join(self.out_dir, "manifest.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        print(f"wrote {path}")
        return 0


def _write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _existing(path):
    if not os.path.exists(path):
        raise ValidationError(f"referenced path does not exist: {path}")
    return path


def _observed_data(cfg, spec, design):
    """Read the observed table or graph as ObservedData."""
    if spec.family == BETA_MODEL:
        edges, max_id = read_edge_list(_existing(cfg.require("data.graph")))
        if max_id > spec.shape[0]:
            raise ValidationError(
                f"edge list mentions node {max_id}, model has {spec.shape[0]} nodes"
            )
        return observe_graph(spec, design, edges)
    dims, cells = read_table_csv(_existing(cfg.require("data.table")))
    if dims != spec.shape:
        raise ValidationError(f"table dims {dims} do not match model shape {spec.shape}")
    return observe_table(spec, design, cells)


def _decomposition(cfg):
    """Keyword arguments of :func:`decompose_initial_point`, or None for one exact basis."""
    strategy = cfg.get("decompose.strategy")
    if strategy is None:
        return None
    node_sets = cfg.get("decompose.node_sets", cast=_int_lists)
    return {
        "strategy": strategy,
        "k": cfg.get("decompose.k", cast=int),
        "node_sets": None if node_sets is None else [{v - 1 for v in g} for g in node_sets],
    }


def _compute_moves(design, counts, decomposition):
    """Kernel basis, optionally via subdivide-and-lift on graph data."""
    if decomposition is None:
        return compute_lattice_basis(design)
    subs = decompose_initial_point(design, counts, **decomposition)
    sub_bases = [compute_lattice_basis(s.sub_matrix) for s in subs]
    return lift_basis(sub_bases, subs, design.n_cols)


def _load_policy(cfg, design):
    policy_path = _existing(cfg.require("policy.file"))
    basis_path = _existing(cfg.require("policy.basis"))
    with open_utf8(policy_path) as fh:
        text = fh.read()
    try:
        ac, want_sha = deserialize_policy(text)
    except ValidationError as exc:  # "line N: why" becomes "<path>:N: why"
        where = str(exc)[len("line "):] if str(exc).startswith("line ") else f" {exc}"
        raise ValidationError(f"{policy_path}:{where}") from None
    if want_sha != _sha256_file(basis_path):
        raise IncompatiblePolicyError(
            "policy was trained against a different basis (checksum mismatch)"
        )
    basis = load_basis(basis_path)
    if basis.dim != design.n_cols:
        raise IncompatiblePolicyError("basis dimension does not match the model")
    if ac.state_dim != design.n_cols:
        raise IncompatiblePolicyError(
            f"policy reads {ac.state_dim} cells, the model has {design.n_cols}"
        )
    if ac.n_coeffs != basis.count:
        raise IncompatiblePolicyError(
            f"policy emits {ac.n_coeffs} coefficients, the basis has {basis.count} vectors"
        )
    return ac, basis


def _ingest(manifest, cfg, policy=False):
    """Read the model, design and data, and the stored policy ``ac`` and its ``basis``
    if ``policy`` (else ``None``), timed as the ingest stage."""
    with manifest.stage("ingest"):
        family = cfg.require("model.family")
        shape = (
            (cfg.require("model.nodes", cast=int),) if family == BETA_MODEL
            else cfg.require("model.shape", cast=_dims)
        )
        spec = ModelSpec(family, shape, cfg.get("model.structural_zeros", (), _int_list))
        design = build_design_matrix(spec)
        data = _observed_data(cfg, spec, design)
        ac, basis = _load_policy(cfg, design) if policy else (None, None)
    return spec, design, data, ac, basis


def run_train(cfg):
    # Every setting is read and range-checked before any input file, and
    # every file is written after training, so a bad config leaves no output.
    manifest = Manifest("train", cfg)
    mdp = MdpConfig(**_given(
        coeff_min=cfg.get("mdp.c1", _UNSET, int),
        coeff_max=cfg.get("mdp.c2", _UNSET, int),
        steps_per_episode=cfg.get("mdp.steps_per_episode", _UNSET, int),
    ))
    train_cfg = TrainConfig(seed=cfg.seed, **_given(
        gamma=cfg.get("mdp.gamma", _UNSET, float),
        lam=cfg.get("train.lambda", _UNSET, float),
        window=cfg.get("train.window", _UNSET, int),
        episodes=cfg.get("train.episodes", _UNSET, int),
        a0=cfg.get("train.a0", _UNSET, float),
        b0=cfg.get("train.b0", _UNSET, float),
        swap=cfg.get("train.swap_schedules", _UNSET, _flag),
    ))
    net = _given(
        hidden=cfg.get("train.hidden", _UNSET, _int_list),
        mask_k=cfg.get("train.mask_k", _UNSET, _mask_k),
        ball_radius=cfg.get("train.ball_radius", _UNSET, float),
        input_scale=cfg.get("train.input_scale", _UNSET, float),
        sigma_min=cfg.get("train.sigma_min", _UNSET, _sigma_min),
    )
    decomposition = _decomposition(cfg)
    _, design, data, _, _ = _ingest(manifest, cfg)

    with manifest.stage("basis"):
        basis = _compute_moves(design, data.counts, decomposition)

    with manifest.stage("train"):
        net.setdefault("input_scale", max(1.0, float(data.counts.max())))
        ac = make_actor_critic(
            design.n_cols, basis.count, seed=cfg.seed,
            coeff_min=mdp.coeff_min, coeff_max=mdp.coeff_max, **net,
        )
        log = train(FiberEnv(design, basis, data.counts, mdp), ac, train_cfg, start=data.counts)

    with manifest.stage("write"):
        manifest.output("basis.txt", save_basis, basis)
        manifest.output("trainlog.csv", write_train_log, log)
        basis_sha = manifest.data["outputs"]["basis.txt"]
        manifest.output("policy.txt", _write_text, serialize_policy(ac, basis_sha256=basis_sha))
    policy = {key: getattr(ac, key) for key in _POLICY_SETTINGS}
    policy["hidden"] = list(ac.net.dims[1:-1])
    manifest.data["settings"] = {"mdp": asdict(mdp), "train": asdict(train_cfg), "policy": policy}

    if log:
        print(
            f"trained {len(log)} windows; final feasible fraction "
            f"{log[-1].feasible_fraction:.3f}, discovered {log[-1].discovered_count}"
        )
    return manifest.write()


def run_sample(cfg):
    manifest = Manifest("sample", cfg)
    steps = cfg.get("sample.steps", 10_000, int)
    mode = cfg.get("sample.mode", "uniform")
    if mode not in _WALKERS:
        raise ConfigError(f"sample.mode must be uniform or explore, got {mode!r}")
    spec, design, data, ac, basis = _ingest(manifest, cfg, policy=True)

    with manifest.stage("sample"):
        expected = fit_expected_counts(spec, data)
        rng = np.random.default_rng(cfg.seed)
        sample, discovered = _WALKERS[mode](
            ac, basis, data.counts, steps, rng, expected=expected, upper=spec.cell_bound,
        )

    with manifest.stage("write"):
        manifest.output("sample.csv", write_sample_csv, sample, design.column_labels)
    manifest.data["settings"] = {"steps": steps, "mode": mode}
    manifest.data["discovered_count"] = discovered.count
    manifest.data["stuck"] = sample.stuck

    print(f"{steps} steps, {discovered.count} distinct points")
    return manifest.write()


def run_test(cfg):
    manifest = Manifest("test", cfg)
    # chain_steps None: the library's 100 Metropolis steps per sample point.
    settings = {
        "chains": cfg.get("test.chains", 100, int),
        "chain_length": cfg.get("test.chain_length", 100, int),
        "chain_steps": cfg.get("test.chain_steps", cast=int),
    }
    spec, _, data, ac, basis = _ingest(manifest, cfg, policy=True)

    with manifest.stage("test"):
        results = besag_clifford_pvalues(ac, basis, spec, data, seed=cfg.seed, **settings)
    pvals = [r.p_value for r in results]

    with manifest.stage("write"):
        manifest.output("results.csv", write_results_csv, results)
        manifest.output("pvalues.csv", write_pvalues_csv, results)
        manifest.output("histogram.csv", write_histogram_csv, pvals)
    manifest.data["settings"] = settings

    print(f"{len(results)} chains; median p-value {float(np.median(pvals)):.4f}")
    return manifest.write()


def run_enumerate(cfg):
    manifest = Manifest("enumerate", cfg)
    cap = _given(cap=cfg.get("enumerate.cap", _UNSET, int))
    _, design, data, _, _ = _ingest(manifest, cfg)

    with manifest.stage("enumerate"):
        points = enumerate_fiber(design, data.marginals, **cap)

    with manifest.stage("write"):
        header = ",".join("_".join(str(v) for v in lab) for lab in design.column_labels)
        rows = "".join(",".join(str(v) for v in point) + "\n" for point in sorted(points))
        manifest.output("fiber.csv", _write_text, header + "\n" + rows)
    manifest.data["fiber_size"] = len(points)

    print(f"fiber has {len(points)} points")
    return manifest.write()


def run_lift(cfg):
    manifest = Manifest("lift", cfg)
    decomposition = _decomposition(cfg)
    if decomposition is None:
        raise ConfigError("lift requires decompose.strategy")
    _, design, data, _, _ = _ingest(manifest, cfg)

    with manifest.stage("lift"):
        basis = _compute_moves(design, data.counts, decomposition)

    with manifest.stage("write"):
        manifest.output("lifted_basis.txt", save_basis, basis)
    manifest.data["lifted_moves"] = basis.count

    print(f"lifted {basis.count} moves into dimension {basis.dim}")
    return manifest.write()


COMMANDS = {
    "train": run_train,
    "sample": run_sample,
    "test": run_test,
    "enumerate": run_enumerate,
    "lift": run_lift,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fiberwalk",
        description="Policy-driven fiber sampling and exact conditional tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="flat key=value config file")
        cmd.add_argument("--seed", type=int, default=None, help="overrides config seed")
        cmd.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config, out_dir=args.out)
        if args.seed is not None:
            cfg.seed = args.seed
        return COMMANDS[args.command](cfg)
    except FiberwalkError as exc:
        print(f"fiberwalk {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
