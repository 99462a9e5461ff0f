"""Golden output bytes of one small run of each command.

A seed reproduces the output checksums; these pin them, so a refactor
that should leave every output unchanged is checked against the bytes
the program wrote before it, not only against a second run of itself.
"""

import hashlib
import itertools
import json
import os
import sys

import numpy as np
import pytest

from fiberwalk import agent
from fiberwalk.cli import main
from fiberwalk.neuralnet import DenseNet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOLDEN = {
    # The policy embeds the sha256 of the basis file, so its hash also pins that file.
    ("train", "policy.txt"):
        "8664ffa9816a3c02f8f4e24e9905621f576801be05f4c76141d82eb2ff3ca5ee",
    ("train", "trainlog.csv"):
        "4e7dc2df009ea93a923624ca9045405fd5ad90ff62c9b619a6f41acc2494b4d0",
    ("test", "results.csv"):
        "e1596eb2f8b99e05d0e8501000947517c75f5173f63c146fc5c102fe4ffbd424",
    ("test", "pvalues.csv"):
        "06c869d2c971dbcf3b437395b811e0fd075548e06915a5ad9bd134389357ac21",
    ("sample", "sample.csv"):
        "a8b5b5a816dca96210a2e7c754633306daec03f041d1ac3f4843f52cc76bf1f7",
    # The same sample under sample.mode=explore, which takes every feasible proposal.
    ("explore", "sample.csv"):
        "ce61dcbaf89f6f71938d7ee142eb7c15ed4062e61da81d702a8fc92c9ac2550a",
}
EXPLORE_DISCOVERED = 16


def test_outputs_of_a_3x3_run_are_golden(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("dims=3x3\n4,1,2\n1,3,1\n2,2,5\n")
    trained = tmp_path / "train"
    lines = [
        "model.family=independence",
        "model.shape=3x3",
        f"data.table={table}",
        "seed=7",
        "mdp.steps_per_episode=30",
        "train.episodes=3",
        "train.hidden=8,6",
        f"policy.file={trained / 'policy.txt'}",
        f"policy.basis={trained / 'basis.txt'}",
        "sample.steps=40",
        "test.chains=3",
        "test.chain_length=6",
    ]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    explore = tmp_path / "explore.cfg"
    explore.write_text("\n".join(lines + ["sample.mode=explore"]) + "\n")
    runs = (("train", cfg), ("sample", cfg), ("test", cfg), ("sample", explore))
    for out, (command, config) in zip(("train", "sample", "test", "explore"), runs):
        assert main([command, "--config", str(config), "--out", str(tmp_path / out)]) == 0
    digests = {
        (command, name): hashlib.sha256((tmp_path / command / name).read_bytes()).hexdigest()
        for command, name in GOLDEN
    }
    assert digests == GOLDEN
    manifest = json.loads((tmp_path / "explore" / "manifest.json").read_text())
    assert manifest["discovered_count"] == EXPLORE_DISCOVERED


WIDE_GOLDEN = {
    ("train", "policy.txt"): "aa1cb359a626a0ea3958e5af122232978805b4a466fc7444dcf8cfb7a4fcb17b",
    ("train", "trainlog.csv"): "8c335d1af1cd485543b417d82615b74fd222d18de6e4f1e89f9775bec4df3d92",
    # A test with that policy on the 0/1 box.  Its masked proposals never move a chain
    # off the observation here, so every p-value is 1.
    ("test", "results.csv"): "6dde231fa1b6f1a2166235b21ef63efab8df68804fd91efaf233aa8b3073a041",
    ("test", "pvalues.csv"): "dbd135036ba5f305a12fb95433dbde2e68b79eadad04db6622e4bc3d449e442f",
}


def test_outputs_of_a_wide_graph_run_are_golden(tmp_path, monkeypatch):
    # A 16-node graph has d = 120 cells, past the width at which the defaults
    # mask a draw to its 10 largest coefficients and floor the stddev at 1e-3.
    # No stddev reaches a clamp in a short run at the default settings; short
    # windows, a wide saturated hidden layer and full-length actor steps drive
    # some past SIGMA_MAX within these 1,800 steps.
    rng = np.random.default_rng(3)
    pairs = itertools.combinations(range(1, 17), 2)
    graph = tmp_path / "g.txt"
    graph.write_text("".join(f"{a} {b}\n" for a, b in pairs if rng.random() < 0.3))
    trained = tmp_path / "train"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "model.family=beta_model",
                "model.nodes=16",
                f"data.graph={graph}",
                "seed=5",
                "mdp.steps_per_episode=3",
                "mdp.gamma=0.5",
                "train.episodes=600",
                "train.window=2",
                "train.lambda=1",
                "train.a0=1000",
                "train.hidden=256",
                "train.input_scale=0.001",
                f"policy.file={trained / 'policy.txt'}",
                f"policy.basis={trained / 'basis.txt'}",
                "test.chains=4",
                "test.chain_length=10",
            ]
        )
        + "\n"
    )
    seen = {"masked": 0, "clamped": 0}
    mask, forward = agent.mask_coefficients, DenseNet.forward_cached

    def counted_mask(coeffs, mask_k):
        out = mask(coeffs, mask_k)
        seen["masked"] += np.count_nonzero(out) < np.count_nonzero(coeffs)
        return out

    def counted_forward(net, x):
        outputs = forward(net, x)
        sigma = np.exp(outputs[-1][net.output_dim // 2:])
        seen["clamped"] += int(((sigma <= agent.SIGMA_MIN) | (sigma >= agent.SIGMA_MAX)).sum())
        return outputs

    monkeypatch.setattr(agent, "mask_coefficients", counted_mask)
    monkeypatch.setattr(DenseNet, "forward_cached", counted_forward)
    assert main(["train", "--config", str(cfg), "--out", str(trained)]) == 0
    settings = (trained / "policy.txt").read_text().splitlines()[3:7]
    assert settings == ["mask_k=10", "ball_radius=1000.0", "input_scale=0.001", "sigma_min=0.001"]
    assert seen["masked"] > 0 and seen["clamped"] > 0
    assert main(["test", "--config", str(cfg), "--out", str(tmp_path / "test")]) == 0
    digests = {
        (command, name): hashlib.sha256((tmp_path / command / name).read_bytes()).hexdigest()
        for command, name in WIDE_GOLDEN
    }
    assert digests == WIDE_GOLDEN


# perfbench's workloads, seed 1, data set 0.  graph70 is the beta model on
# G(70, 0.3), d = 2,415 cells, with the mask, the stddev floor and the
# Bernoulli fit of a wide problem; table3x3x3z is the only one with IPF and
# structural zeros.  The policy pins the basis file's sha256 too, but the
# basis file is pinned on its own, as the benchmark checks it.
BENCHMARK_GOLDEN = {
    "table4x4": {
        ("train", "basis.txt"): "693b8c77d79d3be8db8174f75ae3345dfde5b88d59d471c6821b37dacb57c17a",
        ("train", "policy.txt"): "71a28a83adf82b9232a7eefc4b7431aeb662310ba4036c3ffc28be2523f8cfc0",
        ("test", "results.csv"): "8e4e8b4848886375bb4219cd6201e834f273b398e0a09c10d5fa4bee48bd698e",
    },
    "table3x3x3z": {
        ("train", "basis.txt"): "3fc02e40d6b49fe8584955be634e4300934099f10214110d57a1aaa392086d48",
        ("train", "policy.txt"): "1856e70ad4210a9701ae25b4c171e8adedcde2b55169b5810f3de25e53e55c61",
        ("test", "results.csv"): "c16202d4d9ba93747f969f3a0d137a2fd69b75ec73f608f930f8984f270047e8",
    },
    "graph70": {
        ("train", "basis.txt"): "b36a9c4bacffb52428800fe2f136bdf119bf149c54a48c9fe9017440007d071d",
        ("train", "policy.txt"): "3c3f970d01f66bf5ea7701b6cba4bbe4d031a172efbd9b957575c7a2c0c67dec",
        ("test", "results.csv"): "e16175c00c454f919b5a3cf781ac556e73307f447dc77791964bf81bec7c3793",
    },
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_GOLDEN))
def test_outputs_of_the_benchmark_runs_are_golden(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    config = workloads.write_inputs(workload, 1, str(tmp_path))[0]
    monkeypatch.chdir(tmp_path)  # the configs name their files relative to this directory
    for command, out in (("train", workloads.TRAIN_DIR), ("test", workloads.TEST_DIR)):
        assert main([command, "--config", config, "--out", out]) == 0
    golden = BENCHMARK_GOLDEN[workload]
    digests = {
        (command, name): hashlib.sha256((tmp_path / command / name).read_bytes()).hexdigest()
        for command, name in golden
    }
    assert digests == golden
