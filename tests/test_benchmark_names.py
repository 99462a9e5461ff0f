"""The names the benchmark harness imports and traces still exist.

``perfbench`` reaches into the package by name: ``pipeline`` imports
public functions, and ``tracing.Tracer`` patches functions where their
callers look them up.  A renamed function only shows there as a
missing span, and a changed return value only as a failed traced run,
so this checks the names and runs one tiny traced pass, with the
harness's own checks of the design and the chain points on it.
"""

import math
import os
import sys

import pytest

from fiberwalk.agent import TrainConfig, make_actor_critic, train
from fiberwalk.fibermdp import FiberEnv, MdpConfig
from fiberwalk.lattice import LatticeBasis, compute_lattice_basis
from fiberwalk.models import build_design_matrix, independence, observe_table
from fiberwalk.sampling import besag_clifford_pvalues

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    for name in ("pipeline", "tracing", "cpuspeed", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import pipeline  # noqa: F401
    import tracing

    return tracing


def test_benchmark_imports_and_patches_resolve(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_traced_pass_gives_finite_layer_metrics(tracing):
    spec = independence(3, 3)
    design = build_design_matrix(spec)
    data = observe_table(spec, design, [[4, 1, 2], [1, 3, 1], [2, 2, 5]])
    basis = compute_lattice_basis(design)
    env = FiberEnv(design, basis, data.counts, MdpConfig(steps_per_episode=20))
    ac = make_actor_critic(design.n_cols, basis.count, hidden=(8,), seed=1, input_scale=5.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        log = train(env, ac, TrainConfig(episodes=2, seed=1), start=data.counts)
        training_spans = len(tracer.spans)
        results = besag_clifford_pvalues(ac, basis, spec, data, chains=2, chain_length=4, seed=1)
    finally:
        tracer.uninstall()
    run = {"basis": basis, "ac": ac, "env": env, "log": log, "results": results}
    metrics, notes = tracing.layer_metrics(tracer, run)
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert metrics["fibermdp.step_calls"] == (40, "count")
    # Training makes a forward pass at each window's first state and after each
    # feasible step; a step rejected in place reuses the pass at its state.
    forwards = sum(s[tracing.NAME] == "neuralnet.forward" for s in tracer.spans[:training_spans])
    feasible_steps, _ = metrics["fibermdp.feasible_steps"]
    assert forwards == len(log) + feasible_steps
    # Each test walks 4 strides of 100 Metropolis steps, one proposal each.
    assert metrics["sampling.mh_steps"] == (2 * 400, "count")
    assert metrics["sampling.proposals"] == (2 * 400, "count")
    assert not any(note.startswith("not traced") for note in notes)
    # The walk looks the mass up in the module, so each mass is one span: the
    # forward and the reverse of every feasible proposal (the bounds are symmetric).
    masses = sum(s[tracing.NAME] == "sampling.proposal_log_prob" for s in tracer.spans)
    feasible, _ = metrics["sampling.feasible_proposals"]
    assert masses == 2 * feasible > 0
    assert metrics["sampling.reverse_s"][0] > 0

    # The harness's own checks read the design; on a correct pass none fails.
    import pipeline

    ledger = pipeline.Ledger()
    run.update(design=design, data=data)
    pipeline.check_chain_points(run, tracer, ledger)
    assert sum(s[tracing.NAME] == "sampling.mh_uniform" for s in tracer.spans) == 2 * 2
    assert ledger.failures == []
    assert pipeline.basis_in_kernel(design, basis)
    broken = basis.vectors.copy()
    broken[-1, 0] += 1
    assert not pipeline.basis_in_kernel(design, LatticeBasis(vectors=broken))
