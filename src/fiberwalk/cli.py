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

import numpy as np

from . import __version__
from .agent import (
    TrainConfig,
    default_schedules,
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
    all_two_way,
    beta_model,
    build_design_matrix,
    fit_expected_counts,
    independence,
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


class RunConfig:
    """Flat dotted-key configuration with typed accessors."""

    def __init__(self, values, seed=0, out_dir="out"):
        self.values = dict(values)
        self.seed = int(self.values.get("seed", seed))
        self.out_dir = out_dir

    @classmethod
    def from_file(cls, path, seed=0, out_dir="out"):
        values = {}
        try:
            fh = open(path)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        with fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
        return cls(values, seed=seed, out_dir=out_dir)

    def get(self, key, default=None, cast=str):
        if key not in self.values or self.values[key] == "":
            return default
        raw = self.values[key]
        try:
            if cast is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            return cast(raw)
        except ValueError:
            raise ConfigError(f"config key {key}={raw!r} is not a valid {cast.__name__}") from None

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
    def __init__(self, command, cfg):
        self.out_dir = cfg.out_dir
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


def _model_spec(cfg):
    family = cfg.require("model.family")
    zeros = cfg.get("model.structural_zeros", default="")
    zero_set = frozenset(int(v) for v in zeros.split(",") if v.strip() != "")
    if family == "independence":
        shape = _parse_shape(cfg.require("model.shape"), 2)
        return independence(*shape, structural_zeros=zero_set)
    if family == "all_two_way":
        shape = _parse_shape(cfg.require("model.shape"), 3)
        return all_two_way(*shape, structural_zeros=zero_set)
    if family == "beta_model":
        return beta_model(cfg.require("model.nodes", cast=int), structural_zeros=zero_set)
    raise ConfigError(f"unknown model.family {family!r}")


def _parse_shape(text, want):
    try:
        dims = tuple(int(p) for p in text.split("x"))
    except ValueError:
        raise ConfigError(f"model.shape {text!r} must look like 4x4 or 3x3x3") from None
    if len(dims) != want:
        raise ConfigError(f"model.shape {text!r} must have {want} dimensions")
    return dims


def _observed_data(cfg, spec, design):
    """Read the observed table or graph as ObservedData."""
    if spec.family == "beta_model":
        path = cfg.require("data.graph")
        edges, max_id = read_edge_list(path)
        if max_id > spec.shape[0]:
            raise ValidationError(
                f"edge list mentions node {max_id}, model has {spec.shape[0]} nodes"
            )
        return observe_graph(spec, design, edges)
    path = cfg.require("data.table")
    dims, cells = read_table_csv(path)
    if dims != spec.shape:
        raise ValidationError(f"table dims {dims} do not match model shape {spec.shape}")
    return observe_table(spec, design, cells)


def _mdp_config(cfg):
    return MdpConfig(
        coeff_min=cfg.get("mdp.c1", -2, int),
        coeff_max=cfg.get("mdp.c2", 2, int),
        steps_per_episode=cfg.get("mdp.steps_per_episode", 100, int),
    )


def _compute_moves(cfg, design, counts):
    """Kernel basis, optionally via subdivide-and-lift on graph data."""
    strategy = cfg.get("decompose.strategy")
    if strategy is None:
        return compute_lattice_basis(design)
    node_sets = None
    raw_sets = cfg.get("decompose.node_sets")
    if raw_sets:
        node_sets = [
            {int(v) - 1 for v in group.split(",") if v.strip() != ""}
            for group in raw_sets.split(";")
        ]
    subs = decompose_initial_point(
        design,
        counts,
        strategy,
        k=cfg.get("decompose.k", cast=int),
        node_sets=node_sets,
    )
    sub_bases = [compute_lattice_basis(s.sub_matrix) for s in subs]
    return lift_basis(sub_bases, subs, design.n_cols)


def _load_policy(cfg, design):
    policy_path = cfg.require("policy.file")
    basis_path = cfg.require("policy.basis")
    for path in (policy_path, basis_path):
        if not os.path.exists(path):
            raise ValidationError(f"referenced path does not exist: {path}")
    with open(policy_path) as fh:
        ac, want_sha = deserialize_policy(fh.read())
    if want_sha is not None and want_sha != _sha256_file(basis_path):
        raise IncompatiblePolicyError(
            "policy was trained against a different basis (checksum mismatch)"
        )
    basis = load_basis(basis_path)
    if basis.dim != design.n_cols:
        raise IncompatiblePolicyError("basis dimension does not match the model")
    return ac, basis


def _hidden_widths(cfg):
    text = cfg.get("train.hidden", "64,64")
    try:
        widths = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        widths = ()
    if not widths or min(widths) < 1:
        raise ConfigError(f"train.hidden={text!r} must list positive layer widths, like 64,64")
    return widths


def _mask_k(cfg):
    mask = cfg.get("train.mask_k", "auto")
    if mask in ("none", "None"):
        return None
    return mask if mask == "auto" else cfg.get("train.mask_k", cast=int)


def _train_config(cfg):
    actor_sched, critic_sched = default_schedules(
        actor_scale=cfg.get("train.a0", 0.05, float),
        critic_scale=cfg.get("train.b0", 0.05, float),
        swap=cfg.get("train.swap_schedules", False, bool),
    )
    return TrainConfig(
        gamma=cfg.get("mdp.gamma", 0.99, float),
        lam=cfg.get("train.lambda", 0.5, float),
        window=cfg.get("train.window", 8, int),
        episodes=cfg.get("train.episodes", 1000, int),
        seed=cfg.seed,
        actor_schedule=actor_sched,
        critic_schedule=critic_sched,
    )


def _ingest(command, cfg, policy=False):
    """Open a run (manifest, out dir) and time its ingest stage.

    Returns ``(manifest, spec, design, data, ac, basis)``; the
    stored policy ``ac`` and its ``basis`` are ``None`` unless ``policy``.
    """
    manifest = Manifest(command, cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with manifest.stage("ingest"):
        spec = _model_spec(cfg)
        design = build_design_matrix(spec)
        data = _observed_data(cfg, spec, design)
        ac, basis = _load_policy(cfg, design) if policy else (None, None)
    return manifest, spec, design, data, ac, basis


def run_train(cfg):
    manifest, _, design, data, _, _ = _ingest("train", cfg)

    with manifest.stage("basis"):
        basis = _compute_moves(cfg, design, data.counts)

    # Every setting is checked before training, and every file is
    # written after it, so a bad config leaves no output behind.
    with manifest.stage("train"):
        mdp = _mdp_config(cfg)
        train_cfg = _train_config(cfg)
        ac = make_actor_critic(
            state_dim=design.n_cols,
            n_coeffs=basis.count,
            hidden=_hidden_widths(cfg),
            seed=cfg.seed,
            coeff_min=mdp.coeff_min,
            coeff_max=mdp.coeff_max,
            mask_k=_mask_k(cfg),
            ball_radius=cfg.get("train.ball_radius", 1e3, float),
            input_scale=cfg.get("train.input_scale", max(1.0, float(data.counts.max())), float),
            sigma_min=cfg.get("train.sigma_min", "auto", float),
        )
        log = train(FiberEnv(design, basis, data.counts, mdp), ac, train_cfg, start=data.counts)

    with manifest.stage("write"):
        manifest.output("basis.txt", save_basis, basis)
        manifest.output("trainlog.csv", write_train_log, log)
        basis_sha = manifest.data["outputs"]["basis.txt"]
        manifest.output("policy.txt", _write_text, serialize_policy(ac, basis_sha256=basis_sha))

    if log:
        print(
            f"trained {len(log)} windows; final feasible fraction "
            f"{log[-1].feasible_fraction:.3f}, discovered {log[-1].discovered_count}"
        )
    return manifest.write()


def run_sample(cfg):
    manifest, spec, design, data, ac, basis = _ingest("sample", cfg, policy=True)

    with manifest.stage("sample"):
        steps = cfg.get("sample.steps", 10_000, int)
        mode = cfg.get("sample.mode", "uniform")
        if mode not in _WALKERS:
            raise ConfigError(f"sample.mode must be uniform or explore, got {mode!r}")
        expected = fit_expected_counts(spec, data)
        rng = np.random.default_rng(cfg.seed)
        sample, discovered = _WALKERS[mode](
            ac, basis, data.counts, steps, rng,
            expected=expected, seed=cfg.seed, upper=spec.cell_bound,
        )

    with manifest.stage("write"):
        manifest.output("sample.csv", write_sample_csv, sample, design.column_labels)
    manifest.data["discovered_count"] = discovered.count
    manifest.data["stuck"] = sample.stuck

    print(f"{steps} steps, {discovered.count} distinct points")
    return manifest.write()


def run_test(cfg):
    manifest, spec, _, data, ac, basis = _ingest("test", cfg, policy=True)

    with manifest.stage("test"):
        results = besag_clifford_pvalues(
            ac,
            basis,
            spec,
            data,
            chains=cfg.get("test.chains", 100, int),
            chain_length=cfg.get("test.chain_length", 100, int),
            seed=cfg.seed,
            chain_steps=cfg.get("test.chain_steps", cast=int),
        )
    pvals = [r.p_value for r in results]

    with manifest.stage("write"):
        manifest.output("results.csv", write_results_csv, results)
        manifest.output("pvalues.csv", write_pvalues_csv, results)
        manifest.output("histogram.csv", write_histogram_csv, pvals)

    print(f"{len(results)} chains; median p-value {float(np.median(pvals)):.4f}")
    return manifest.write()


def run_enumerate(cfg):
    manifest, _, design, data, _, _ = _ingest("enumerate", cfg)

    with manifest.stage("enumerate"):
        cap = cfg.get("enumerate.cap", 100_000, int)
        points = enumerate_fiber(design, data.marginals, cap=cap)

    with manifest.stage("write"):
        header = ",".join("_".join(str(v) for v in lab) for lab in design.column_labels)
        rows = "".join(",".join(str(v) for v in point) + "\n" for point in sorted(points))
        manifest.output("fiber.csv", _write_text, header + "\n" + rows)
    manifest.data["fiber_size"] = len(points)

    print(f"fiber has {len(points)} points")
    return manifest.write()


def run_lift(cfg):
    manifest, _, design, data, _, _ = _ingest("lift", cfg)
    if cfg.get("decompose.strategy") is None:
        raise ConfigError("lift requires decompose.strategy")

    with manifest.stage("lift"):
        basis = _compute_moves(cfg, design, data.counts)

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
