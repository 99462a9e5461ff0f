"""Smoke-size self-test of the benchmark.

    python3 -m pytest perfbench -q

For every workload, at smoke sizes: every metric named in
``BENCHMARK.json`` is emitted with its unit, trace spans nest with no
negative self time, two runs of one seed give identical output
checksums, the pipeline's outputs match a replay through the command
line, and a failed correctness check makes the run report a failure
instead of numbers.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pipeline  # noqa: E402
from cpuspeed import REFERENCE_S, Speed, SpeedProbe  # noqa: E402
import workloads  # noqa: E402
from fiberwalk.cli import main as cli_main  # noqa: E402
from fiberwalk.lattice import LatticeBasis, compute_lattice_basis, in_kernel  # noqa: E402
from fiberwalk.models import all_two_way, build_design_matrix  # noqa: E402
from tracing import END, PARENT, START, geyer_ess, tail_time  # noqa: E402

SEED = 3

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


@contextmanager
def cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def smoke(request, tmp_path_factory):
    """One untraced and one traced smoke run of a workload, in this process."""
    name = request.param
    work = tmp_path_factory.mktemp(name)
    configs = workloads.write_inputs(name, SEED, str(work), smoke=True)
    with cwd(work):
        plain = pipeline.run_benchmark(configs, 0, trace=False)
        traced = pipeline.run_benchmark(configs, 0, trace=True)
    return name, work, plain, traced


def _assert_metrics(report, declared):
    assert report["correct"], report["failures"]
    assert report["failed"] == 0 and report["attempted"] >= 1
    got = {k: m["unit"] for k, m in report["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    for key, metric in report["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and np.isfinite(metric["value"]), key


def test_end_to_end_metrics_emitted_with_units(smoke):
    _, _, plain, _ = smoke
    _assert_metrics(plain, BENCHMARK["end_to_end"])
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in BENCHMARK["end_to_end"])


def test_per_layer_metrics_emitted_with_units(smoke):
    _, _, _, traced = smoke
    _assert_metrics(traced, BENCHMARK["per_layer"])
    assert traced["metrics"]["sampling.mh_steps"]["value"] > 0
    assert traced["metrics"]["fibermdp.step_calls"]["value"] > 0


def test_spans_nest_without_negative_self_time(smoke):
    _, _, _, traced = smoke
    spans = traced["spans"]
    assert spans
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        assert s[START] <= s[END]
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            assert parent[START] <= s[START] and s[END] <= parent[END]
            own[s[PARENT]] -= s[END] - s[START]
    assert min(own) >= 0


def test_same_seed_same_checksums(smoke):
    _, _, plain, traced = smoke
    assert plain["passes"] == pipeline.MIN_PASSES
    assert list(plain["checksums"]) == [f"run-{k}.cfg" for k in range(plain["passes"])]
    for config, digests in traced["checksums"].items():
        assert digests == plain["checksums"][config]
        assert set(digests) == {"pvalues", "basis", "policy", "results"}
    # Different data sets give different outputs.
    assert len({d["pvalues"] + d["policy"] for d in plain["checksums"].values()}) > 1


def test_pipeline_matches_command_line_replay(smoke, tmp_path):
    name, _, plain, _ = smoke
    replay = tmp_path / "replay"
    config = workloads.write_inputs(name, SEED, str(replay), smoke=True)[plain["passes"] - 1]
    want = plain["checksums"][config]
    with cwd(replay):
        assert cli_main(["train", "--config", config, "--out", workloads.TRAIN_DIR]) == 0
        assert cli_main(["test", "--config", config, "--out", workloads.TEST_DIR]) == 0
        assert pipeline.sha256_file("train/basis.txt") == want["basis"]
        assert pipeline.sha256_file("train/policy.txt") == want["policy"]
        assert pipeline.sha256_file("test/results.csv") == want["results"]


def test_failed_check_reports_failure_instead_of_numbers(smoke, monkeypatch):
    name, _, _, _ = smoke
    work = smoke[1] / "broken"
    configs = workloads.write_inputs(name, SEED, str(work), smoke=True)

    def wrong_basis(design):
        # Unit vectors: the right count and shape, but not in the kernel.
        count = design.n_cols - design.rank
        return LatticeBasis(vectors=np.eye(count, design.n_cols, dtype=np.int64))

    monkeypatch.setattr(pipeline, "compute_lattice_basis", wrong_basis)
    for trace in (False, True):
        with cwd(work):
            report = pipeline.run_benchmark(configs, 0, trace=trace)
        assert not report["correct"]
        assert report["failed"] >= 1
        assert any("kernel" in f for f in report["failures"])
        assert report["metrics"] == {}


def test_kernel_check_agrees_with_in_kernel():
    spec = all_two_way(3, 3, 3, structural_zeros=workloads.ZeroCellTable.ZEROS)
    design = build_design_matrix(spec)
    basis = compute_lattice_basis(design)
    assert pipeline.basis_in_kernel(design, basis)
    assert all(in_kernel(design, v) for v in basis.vectors)
    broken = basis.vectors.copy()
    broken[-1, 0] += 1
    assert not in_kernel(design, broken[-1])
    assert not pipeline.basis_in_kernel(design, LatticeBasis(vectors=broken))


def test_geyer_ess_and_tail_percentile():
    rng = np.random.default_rng(0)
    assert geyer_ess(np.ones(50)) == 1.0
    iid = geyer_ess(rng.normal(size=4000))
    assert 3000 < iid < 5000
    ar = np.zeros(4000)
    for t in range(1, 4000):
        ar[t] = 0.9 * ar[t - 1] + rng.normal()
    assert geyer_ess(ar) < 400  # (1 - 0.9) / (1 + 0.9) * 4000 is about 210
    assert tail_time(range(100)) == (89, 90.0, 10)
    assert tail_time(range(20)) == (9, 50.0, 10)
    assert tail_time(range(4)) == (1.5, 50.0, 2)


def test_speed_converts_wall_to_reference_seconds():
    assert Speed([], []).seconds(1.0, 3.5) == 2.5
    # Probes at twice the reference time: the CPU ran at half speed, so
    # a second of wall time, less the probes inside it, counts half.
    starts = [0.1 * i for i in range(1, 10)]
    half = Speed(starts, [2 * REFERENCE_S] * 9)
    assert half.factor() == 2.0
    assert half.seconds(0.0, 1.0) == pytest.approx((1.0 - 9 * 2 * REFERENCE_S) / 2)
    # Half speed for the first half second, reference speed after it.
    mixed = Speed(starts, [2 * REFERENCE_S] * 4 + [REFERENCE_S] * 5)
    assert half.seconds(0.0, 1.0) < mixed.seconds(0.0, 1.0) < 1.0


def test_probe_samples_while_entered():
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    count = len(probe.durations)
    assert count >= 5 and all(d > 0 for d in probe.durations)
    time.sleep(0.1)
    assert len(probe.durations) == count


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table4x4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
