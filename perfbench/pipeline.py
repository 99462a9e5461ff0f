"""One benchmark run: the fiberwalk pipeline from config to exact p-values.

    python3 perfbench/pipeline.py --config run-0.cfg run-1.cfg run-2.cfg \
        --seconds 10 --trace 0 --result out.json

``run.py`` starts this in a fresh process per run, with the working
directory set to the generated inputs and ``PYTHONPATH`` pointing at
the checkout's ``src``.  The pipeline calls the package's public
functions in the order ``fiberwalk train`` and then ``fiberwalk test``
call them, and times four stages with its own clocks:

* setup: config, design matrix with exact rank, observation, kernel
  basis, expected-count fit;
* train: environment and actor-critic construction, ``train``;
* io: basis, train log and policy written as ``fiberwalk train``
  writes them, read back as ``fiberwalk test`` reads them, then the
  result CSVs, each file hashed as the run manifest hashes it;
* test: ``besag_clifford_pvalues``.

The pipeline repeats, cycling through the configs, until ``--seconds``
have passed and at least ``MIN_PASSES`` times, and reports medians.
Stage times are wall intervals converted to reference seconds by the
CPU speed probe in ``cpuspeed.py``, which runs throughout; the report's
notes also give the wall-clock medians.
With ``--trace 1`` it runs untraced until ``--seconds`` have passed (at
least once), then one traced pass on the first config, and reports the
per-layer metrics of that pass and its overhead over the untraced pass
on the same config.
Every pass is checked; a failed check or an exception
is one failed operation, and a run with any failure reports no metric.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from fiberwalk.agent import (
    TrainConfig,
    deserialize_policy,
    make_actor_critic,
    serialize_policy,
    train,
    write_train_log,
)
from fiberwalk.cli import RunConfig
from fiberwalk.fibermdp import FiberEnv, MdpConfig
from fiberwalk.lattice import compute_lattice_basis, in_kernel, load_basis, save_basis
from fiberwalk.models import (
    all_two_way,
    beta_model,
    build_design_matrix,
    fit_expected_counts,
    independence,
    observe_graph,
    observe_table,
    read_edge_list,
    read_table_csv,
    verify_marginals,
)
from fiberwalk.sampling import besag_clifford_pvalues, write_histogram_csv, write_pvalues_csv

from cpuspeed import SpeedProbe
from tracing import NAME, PAYLOAD, Tracer, layer_metrics
from workloads import TEST_DIR

MIN_PASSES = 3          # set-up is timed at least this often per run
# Start no pass that would end after this.  A graph70 pass takes about
# 30 s, so its runs stay near 100 s even on a slow host, and the
# benchmark's 22 runs per workload keep within the time they are given.
DEADLINE_S = 100.0
STAGES = ("setup", "train", "test", "io")


class StageFailed(Exception):
    """A stage raised; the pass cannot go on."""


class Ledger:
    """Operations attempted and failed over a run, one message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, what):
        self.failed += 1
        self.failures.append(what)

    def check(self, ok, what):
        if not ok:
            self.fail(what)


class Clock:
    """Stage timers of one pass; each stage call is one operation.

    Keeps each call's wall interval, so that ``stage_times`` can convert
    them to reference seconds once the run's speed probes are in.
    """

    def __init__(self, ledger, tracer=None):
        self.ledger = ledger
        self.tracer = tracer
        self.intervals = []  # (stage, start, end)

    @contextmanager
    def stage(self, group, name):
        self.ledger.attempted += 1
        span = self.tracer.open(name) if self.tracer else None
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            self.ledger.fail(f"{name}: {type(exc).__name__}: {exc}")
            raise StageFailed(name) from exc
        finally:
            self.intervals.append((group, start, time.perf_counter()))
            if span is not None:
                self.tracer.close(span)


def stage_times(run, seconds):
    """Per-stage and total time of one pass, each interval measured by ``seconds(a, b)``."""
    times = dict.fromkeys(STAGES, 0.0)
    for group, a, b in run["intervals"]:
        times[group] += seconds(a, b)
    times["total"] = seconds(*run["span"])
    return times


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def model_spec(cfg):
    """The model a config names, read as the command line reads it."""
    family = cfg.require("model.family")
    zeros = [int(v) for v in cfg.get("model.structural_zeros", "").split(",") if v.strip()]
    if family == "beta_model":
        return beta_model(cfg.require("model.nodes", int), structural_zeros=zeros)
    shape = tuple(int(p) for p in cfg.require("model.shape").split("x"))
    make = independence if family == "independence" else all_two_way
    return make(*shape, structural_zeros=zeros)


def observe(cfg, spec, design):
    if spec.family == "beta_model":
        edges, _ = read_edge_list(cfg.require("data.graph"))
        return observe_graph(spec, design, edges)
    _, cells = read_table_csv(cfg.require("data.table"))
    return observe_table(spec, design, cells)


def write_results_csv(path, results):
    """``results.csv`` in the format ``fiberwalk test`` writes."""
    with open(path, "w", newline="") as fh:
        fh.write("chain_id,seed,p_value,observed_statistic,sample_size,stuck\n")
        for r in results:
            fh.write(
                f"{r.chain_id},{r.seed},{repr(r.p_value)},"
                f"{repr(r.observed_statistic)},{r.sample_size},{int(r.stuck)}\n"
            )


def run_pass(cfg_path, ledger, tracer=None):
    """One pass from config to p-values; returns its objects and stage times."""
    clock = Clock(ledger, tracer)
    run = {}
    start = time.perf_counter()

    with clock.stage("setup", "cli.read_config"):
        cfg = RunConfig.from_file(cfg_path)
        policy_path = cfg.require("policy.file")
        basis_path = cfg.require("policy.basis")
        train_dir = os.path.dirname(policy_path)
        os.makedirs(train_dir, exist_ok=True)
        os.makedirs(TEST_DIR, exist_ok=True)
    with clock.stage("setup", "models.build_design_matrix"):
        spec = run["spec"] = model_spec(cfg)
        design = run["design"] = build_design_matrix(spec)
    with clock.stage("setup", "models.observe"):
        data = run["data"] = observe(cfg, spec, design)
    with clock.stage("setup", "lattice.compute_lattice_basis"):
        basis = run["basis"] = compute_lattice_basis(design)
    with clock.stage("setup", "models.fit_expected_counts"):
        fit_expected_counts(spec, data)

    with clock.stage("train", "agent.make_actor_critic"):
        env = run["env"] = FiberEnv(
            design,
            basis,
            data.counts,
            MdpConfig(steps_per_episode=cfg.require("mdp.steps_per_episode", int)),
        )
        ac = run["ac"] = make_actor_critic(
            state_dim=design.n_cols,
            n_coeffs=basis.count,
            seed=cfg.seed,
            coeff_min=env.config.coeff_min,
            coeff_max=env.config.coeff_max,
            input_scale=max(1.0, float(data.counts.max())),
        )
    with clock.stage("train", "agent.train"):
        run["log"] = train(
            env, ac, TrainConfig(episodes=cfg.require("train.episodes", int), seed=cfg.seed),
            start=data.counts,
        )

    outputs = {}
    with clock.stage("io", "io.write_train"):
        save_basis(basis_path, basis)
        outputs["basis"] = sha256_file(basis_path)
        log_path = os.path.join(train_dir, "trainlog.csv")
        write_train_log(log_path, run["log"])
        outputs["trainlog"] = sha256_file(log_path)
        with open(policy_path, "w") as fh:
            fh.write(serialize_policy(ac, basis_sha256=outputs["basis"]))
        outputs["policy"] = sha256_file(policy_path)
    with clock.stage("io", "io.read"):
        with open(policy_path) as fh:
            ac_read, want_sha = deserialize_policy(fh.read())
        if want_sha is not None and want_sha != sha256_file(basis_path):
            raise ValueError("policy was trained against a different basis")
        basis_read = run["basis_read"] = load_basis(basis_path)
        run["ac_read"] = ac_read

    chains = run["chains"] = cfg.require("test.chains", int)
    chain_length = run["chain_length"] = cfg.require("test.chain_length", int)
    ledger.attempted += chains
    with clock.stage("test", "sampling.besag_clifford_pvalues"):
        results = run["results"] = besag_clifford_pvalues(
            ac_read,
            basis_read,
            spec,
            data,
            chains=chains,
            chain_length=chain_length,
            seed=cfg.seed,
            chain_steps=cfg.require("test.chain_steps", int),
        )

    with clock.stage("io", "io.write_results"):
        for name, write in (
            ("results.csv", write_results_csv),
            ("pvalues.csv", write_pvalues_csv),
            ("histogram.csv", lambda p, rs: write_histogram_csv(p, [r.p_value for r in rs])),
        ):
            path = os.path.join(TEST_DIR, name)
            write(path, results)
            outputs[name] = sha256_file(path)

    run["span"] = (start, time.perf_counter())
    run["intervals"] = clock.intervals
    run["io_bytes"] = sum(
        os.path.getsize(p)
        for p in (basis_path, policy_path, log_path)
        + tuple(os.path.join(TEST_DIR, n) for n in ("results.csv", "pvalues.csv", "histogram.csv"))
    )
    pvals = np.array([r.p_value for r in results], dtype=np.float64)
    run["checksums"] = {
        "pvalues": hashlib.sha256(pvals.tobytes()).hexdigest(),
        "basis": outputs["basis"],
        "policy": outputs["policy"],
        "results": outputs["results.csv"],
    }
    return run


def basis_in_kernel(design, basis):
    """Exact ``design @ b == 0`` for every basis vector ``b``.

    In float64 the product is exact while every partial sum is an
    integer below 2**53; past that bound each vector goes through the
    package's Python-integer ``in_kernel``.
    """
    m, v = design.entries, basis.vectors
    if v.size == 0:
        return True
    bound = int(np.abs(m).max()) * int(np.abs(v).max()) * m.shape[1]
    if bound >= 2**53:
        return all(in_kernel(design, row) for row in v)
    m = m.astype(np.float64)
    # A few rows at a time, so the check adds little to the run's peak memory.
    return not any(
        np.any(v[i:i + 64].astype(np.float64) @ m.T) for i in range(0, len(v), 64)
    )


def check_pass(run, ledger):
    """Correctness checks on one pass; each failure is one failed operation."""
    spec, design, basis = run["spec"], run["design"], run["basis"]
    ledger.check(
        design.n_cols == spec.full_dim - len(spec.structural_zeros),
        f"design has {design.n_cols} columns, want {spec.full_dim} - "
        f"{len(spec.structural_zeros)} structural zeros",
    )
    ledger.check(
        basis.count == design.n_cols - design.rank and basis.dim == design.n_cols,
        f"basis has {basis.count} vectors of length {basis.dim}, "
        f"want d - rank = {design.n_cols - design.rank}",
    )
    ledger.check(basis_in_kernel(design, basis), "a basis vector is not in the kernel")
    ledger.check(
        np.array_equal(run["basis_read"].vectors, basis.vectors),
        "basis read back differs from the basis written",
    )
    ledger.check(
        np.array_equal(run["ac_read"].actor_params(), run["ac"].actor_params()),
        "policy read back differs from the policy written",
    )
    results, n = run["results"], run["chain_length"]
    ledger.check(
        [r.chain_id for r in results] == list(range(len(results))),
        "chain ids are not 0..chains-1",
    )
    for _ in range(run["chains"] - len(results)):
        ledger.fail("a chain returned no p-value")
    for r in results:
        k = r.p_value * (n + 1)
        ledger.check(
            r.sample_size == n and abs(k - round(k)) < 1e-9 and 1 <= round(k) <= n + 1,
            f"chain {r.chain_id}: p-value {r.p_value!r} is not k/({n}+1)",
        )


def check_chain_points(run, tracer, ledger):
    """Every point a traced Metropolis chain visited is on the fiber and nonnegative."""
    design, marginals = run["design"], run["data"].marginals
    seen = {}
    for s in tracer.spans:
        if s[NAME] != "sampling.mh_uniform":
            continue
        bad = 0
        for point in np.unique(s[PAYLOAD].points, axis=0):
            key = point.tobytes()
            if key not in seen:
                seen[key] = bool(point.min() >= 0) and verify_marginals(design, point, marginals)
            bad += not seen[key]
        ledger.check(bad == 0, f"chain {s[PAYLOAD].chain_id}: {bad} points off the fiber")


def _median(values):
    return float(statistics.median(values))


def run_benchmark(cfg_paths, seconds, trace):
    """Run the pipeline repeatedly over the configs; returns the report as a dict."""
    ledger = Ledger()
    passes = []  # (intervals, span) of each untraced pass
    checksums = {}  # per config, from its first pass
    peak_rss_mb = None
    begin = time.perf_counter()

    def measure(cfg_path, tracer=None):
        """One checked pass; untraced passes join ``passes``."""
        nonlocal peak_rss_mb
        try:
            run = run_pass(cfg_path, ledger, tracer)
        except StageFailed:
            return None
        if peak_rss_mb is None:
            # One pass in a fresh process, as one command-line run would be.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_pass(run, ledger)
        first = checksums.setdefault(cfg_path, run["checksums"])
        ledger.check(
            run["checksums"] == first,
            f"{cfg_path}: outputs differ between passes: {run['checksums']} vs {first}",
        )
        if tracer is None:
            passes.append({"intervals": run["intervals"], "span": run["span"]})
        return run

    want = 1 if trace else MIN_PASSES
    tracer = run = None
    with SpeedProbe() as probe:
        while ledger.failed == 0:
            if passes:
                elapsed = time.perf_counter() - begin
                last = passes[-1]["span"][1] - passes[-1]["span"][0]
                if (len(passes) >= want and elapsed >= seconds) or elapsed + last > DEADLINE_S:
                    break
            if measure(cfg_paths[len(passes) % len(cfg_paths)]) is None:
                break
        if trace and ledger.failed == 0:
            tracer = Tracer()
            tracer.install()
            try:
                run = measure(cfg_paths[0], tracer)
            finally:
                tracer.uninstall()
            if run is not None:
                check_chain_points(run, tracer, ledger)
    speed = probe.speed()

    report = {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "passes": len(passes),
        "checksums": checksums,
        "notes": [],
        "metrics": {},
    }
    times = [stage_times(p, speed.seconds) for p in passes]
    report["correct"] = ledger.failed == 0 and bool(passes)
    if not report["correct"]:
        return report
    if trace:
        layers, notes = layer_metrics(tracer, run)
        layers["io.bytes"] = (run["io_bytes"], "bytes")
        # The first untraced pass ran the same data set as the traced one;
        # the data sets' totals differ by more than the tracing costs.
        layers["trace.overhead_s"] = (
            stage_times(run, speed.seconds)["total"] - times[0]["total"], "s")
        report["metrics"] = layers
        report["notes"] = notes
        report["spans"] = tracer.spans
    else:
        m = {f"{stage}_s": (_median([t[stage] for t in times]), "s")
             for stage in STAGES + ("total",)}
        m["peak_rss_mb"] = (peak_rss_mb, "MB")
        report["metrics"] = m
        wall = [stage_times(p, lambda a, b: b - a) for p in passes]
        report["notes"] = [
            f"{len(times)} passes; times are medians over them, in reference seconds",
            "wall-clock medians: " + ", ".join(
                f"{stage}_s {_median([t[stage] for t in wall]):.4g}" for stage in STAGES + ("total",)),
            f"CPU speed: median probe {speed.factor():.3f} x the reference time, "
            f"{len(speed.durations):,} probes",
        ]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()}
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, nargs="+", help="one config per data set")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, help="where to write the report JSON")
    args = parser.parse_args()
    report = run_benchmark(args.config, args.seconds, bool(args.trace))
    report.pop("spans", None)
    with open(args.result, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
