"""End-to-end tests of the command-line driver."""

import base64
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy

from fiberwalk import __version__
from fiberwalk.agent import POLICY_SETTINGS, ActorCritic
from fiberwalk.cli import main
from fiberwalk.lattice import compute_lattice_basis, in_kernel, load_basis, save_basis
from fiberwalk.models import build_design_matrix, beta_model, independence


def _write(path, text):
    path.write_text(text)
    return str(path)


def _pin(policy, basis):
    """Pin the policy file ``policy`` to the basis file ``basis`` as it is now, so that
    an edited or other basis file is read rather than refused unread."""
    sha = hashlib.sha256(basis.read_bytes()).hexdigest()
    policy.write_text(re.sub(r"basis_sha256=\w+", f"basis_sha256={sha}", policy.read_text()))


@pytest.fixture
def table22(tmp_path):
    return _write(tmp_path / "table.csv", "dims=2x2\n3,1\n1,3\n")


@pytest.fixture
def train_cfg(tmp_path, table22):
    return _write(
        tmp_path / "train.cfg",
        "\n".join(
            [
                "# tiny training run",
                "model.family=independence",
                "model.shape=2x2",
                f"data.table={table22}",
                "mdp.steps_per_episode=20",
                "train.episodes=2",
                "train.hidden=8",
                "seed=5",
            ]
        )
        + "\n",
    )


class TestEnumerate:
    def test_two_point_fiber(self, tmp_path):
        table = _write(tmp_path / "t.csv", "dims=2x2\n1,0\n0,1\n")
        cfg = _write(
            tmp_path / "enum.cfg",
            f"model.family=independence\nmodel.shape=2x2\ndata.table={table}\n",
        )
        out = tmp_path / "out"
        assert main(["enumerate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "fiber.csv").read_text().splitlines()
        assert lines[0] == "0_0,0_1,1_0,1_1"
        rows = lines[1:]
        assert rows == sorted(rows) and len(set(rows)) == len(rows) == 2

    def test_cap_exceeded_exit_4(self, tmp_path):
        table = _write(tmp_path / "t.csv", "dims=3x3\n" + "4,4,4\n" * 3)
        cfg = _write(
            tmp_path / "enum.cfg",
            f"model.family=independence\nmodel.shape=3x3\ndata.table={table}\n"
            "enumerate.cap=3\n",
        )
        assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


class TestValidation:
    def test_invalid_table_header_exit_2(self, tmp_path, capsys):
        table = _write(tmp_path / "bad.csv", "1,0\n0,1\n")
        cfg = _write(
            tmp_path / "c.cfg",
            f"model.family=independence\nmodel.shape=2x2\ndata.table={table}\n",
        )
        code = main(["enumerate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "dims=" in capsys.readouterr().err

    def test_missing_config_key_exit_2(self, tmp_path):
        cfg = _write(tmp_path / "c.cfg", "model.family=independence\n")
        assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_dims_mismatch_exit_2(self, tmp_path):
        table = _write(tmp_path / "t.csv", "dims=2x2\n1,0\n0,1\n")
        cfg = _write(
            tmp_path / "c.cfg",
            f"model.family=independence\nmodel.shape=3x3\ndata.table={table}\n",
        )
        assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


    @pytest.mark.parametrize(
        "family, line, named",
        [
            ("table", "seed=x", "seed"),
            ("table", "model.structural_zeros=1,a", "model.structural_zeros"),
            ("table", "model.family=foo", "unknown model family 'foo'"),
            ("table", "model.shape=4", "expects 2 dimension(s), got (4,)"),
            ("table", "model.shape=2x2x2", "expects 2 dimension(s), got (2, 2, 2)"),
            ("table", "model.shape=axb", "model.shape"),
            ("table", "train.swap_schedules=maybe", "train.swap_schedules"),
            ("table", "data.table=missing.csv", "missing.csv"),
            ("graph", "data.graph=missing.txt", "missing.txt"),
            ("graph", "decompose.node_sets=1,2,x", "decompose.node_sets"),
        ],
    )
    def test_malformed_or_missing_input_exits_2(self, tmp_path, capsys, family, line, named):
        table = _write(tmp_path / "t.csv", "dims=2x2\n1,0\n0,1\n")
        graph = _write(tmp_path / "g.txt", "1 2\n2 3\n3 1\n")
        base = {
            "table": f"model.family=independence\nmodel.shape=2x2\ndata.table={table}\n",
            "graph": f"model.family=beta_model\nmodel.nodes=3\ndata.graph={graph}\n"
            "decompose.strategy=induced_subgraphs\ndecompose.node_sets=1,2,3\n",
        }[family]
        cfg = _write(tmp_path / "c.cfg", base + "train.episodes=1\n" + line + "\n")
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "family, body, lineno",
        [
            ("table", "dims=2x2\n1,0\n0,x\n", 3),
            ("table", "dims=2x2\n1,99999999999999999999\n0,1\n", 2),
            ("table", "dims=2x2\n1,-1\n0,1\n", 2),
            ("table", "1,0\n0,1\n", 1),
            ("table", "dims=2x\n1,0\n0,1\n", 1),
            ("table", "dims=1x2\n1,0\n", 1),
            ("table", "dims=2x2\n", 2),
            ("table", "dims=2x2\n1,0\n0\n", 4),
            ("table", "dims=2x2\n1,0\n0,1\n5\n", 5),
            ("graph", "1 2\n2 a\n", 2),
        ],
        ids=[
            "table-letter", "table-overflow", "table-negative", "table-no-header",
            "table-dims-not-a-number", "table-unsupported-dims", "table-no-cells",
            "table-too-few-cells", "table-too-many-cells", "graph-letter",
        ],
    )
    def test_malformed_data_file_exits_2_naming_its_line(
        self, tmp_path, capsys, family, body, lineno
    ):
        data = _write(tmp_path / "data.txt", body)
        cfg = _write(tmp_path / "c.cfg", {
            "table": f"model.family=independence\nmodel.shape=2x2\ndata.table={data}\n",
            "graph": f"model.family=beta_model\nmodel.nodes=3\ndata.graph={data}\n",
        }[family])
        assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{data}:{lineno}:" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["table", "graph"])
    def test_data_file_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys, family):
        body = {"table": b"dims=2x2\n1,0\n0,1\n", "graph": b"1 2\n2 3\n"}[family]
        data = tmp_path / "data.txt"
        data.write_bytes(body + b"\xff\n")
        cfg = _write(tmp_path / "c.cfg", {
            "table": f"model.family=independence\nmodel.shape=2x2\ndata.table={data}\n",
            "graph": f"model.family=beta_model\nmodel.nodes=3\ndata.graph={data}\n",
        }[family])
        assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{data}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line",
        [("test", "test.chains=x"), ("sample", "sample.steps=1.5"), ("train", "train.hidden=a")],
    )
    def test_malformed_setting_exits_2_before_any_file_is_read(
        self, tmp_path, capsys, command, line
    ):
        # Every referenced file is missing, so reading one would name it instead.
        cfg = _write(
            tmp_path / "c.cfg",
            "model.family=independence\nmodel.shape=2x2\ndata.table=missing.csv\n"
            "policy.file=missing.txt\npolicy.basis=missing-basis.txt\n" + line + "\n",
        )
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert line.split("=")[0] in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "test"])
    def test_unknown_config_key_exits_2_before_any_output(
        self, tmp_path, train_cfg, capsys, command
    ):
        # train.episode is a misspelt train.episodes; the first unknown key is named.
        cfg = _write(tmp_path / "typo.cfg", open(train_cfg).read() + "train.episode=1\nx=2\n")
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fiberwalk {command}: {cfg}: unknown config key train.episode\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sample", "test"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_2_before_any_output(
        self, tmp_path, train_cfg, capsys, command, where
    ):
        # numpy's generators take no negative seed; the run is refused before it starts.
        cfg, flag = train_cfg, ["--seed", "-1"]
        if where == "config":
            cfg, flag = _write(tmp_path / "neg.cfg", open(train_cfg).read() + "seed=-1\n"), []
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), *flag]) == 2
        err = capsys.readouterr().err
        assert err == f"fiberwalk {command}: seed must be a non-negative integer, got -1\n"
        assert not out.exists()


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path, train_cfg):
        out = tmp_path / "run"
        assert main(["train", "--config", train_cfg, "--out", str(out)]) == 0
        for name in ("basis.txt", "policy.txt", "trainlog.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert set(manifest["outputs"]) == {"basis.txt", "policy.txt", "trainlog.csv"}
        assert manifest["seed"] == 5
        # scipy's ndtr and gammaln fix every proposal mass and null weight.
        assert manifest["versions"] == {
            "fiberwalk": __version__, "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])), "scipy": scipy.__version__,
        }

    def test_rerun_reproduces_checksums(self, tmp_path, train_cfg):
        sums = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", train_cfg, "--out", str(out)]) == 0
            sums.append(json.loads((out / "manifest.json").read_text())["outputs"])
        assert sums[0] == sums[1]

    def test_gamma_one_exit_2(self, tmp_path, train_cfg):
        cfg = _write(tmp_path / "g.cfg", open(train_cfg).read() + "mdp.gamma=1.0\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "line",
        [
            "mdp.gamma=1.0", "mdp.c1=3", "train.mask_k=2", "train.hidden=a", "train.hidden=0",
            "train.a0=0", "train.mask_k=-1", "train.mask_k=0", "train.ball_radius=-1",
            "train.sigma_min=0", "train.sigma_min=1e-300", "train.input_scale=0",
            "train.sigma_min=1000",
            "train.sigma_min=inf", "train.input_scale=inf",
        ],
    )
    def test_bad_setting_exits_2_and_writes_nothing(self, tmp_path, train_cfg, line):
        # The 2x2 basis has one vector, so mask_k=2 exceeds it.
        cfg = _write(tmp_path / "bad.cfg", open(train_cfg).read() + line + "\n")
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "basis.txt").exists()
        assert list(out.iterdir()) == []

    def test_auto_mask_keeps_a_wide_state_s_few_coefficients(self, tmp_path):
        # A 95-cycle plus 6 chords: d = 101 cells, wider than the mask threshold,
        # but only 6 basis vectors, so auto keeps them all instead of asking for 10.
        n, chords = 95, [(0, 47), (5, 50), (10, 60), (20, 70), (30, 80), (40, 90)]
        kept = {(i, (i + 1) % n) for i in range(n)} | set(chords)
        kept = {(min(p), max(p)) for p in kept}
        labels = build_design_matrix(beta_model(n)).column_labels
        zeros = ",".join(str(k) for k, lab in enumerate(labels) if tuple(lab) not in kept)
        edges = [f"{i + 1} {(i + 1) % n + 1}" for i in range(0, n - 1, 2)] + ["1 48", "6 51"]
        graph = _write(tmp_path / "g.txt", "\n".join(edges) + "\n")
        cfg = _write(tmp_path / "wide.cfg", "\n".join([
            "model.family=beta_model", f"model.nodes={n}", f"model.structural_zeros={zeros}",
            f"data.graph={graph}", "mdp.steps_per_episode=10", "train.episodes=1",
            "train.hidden=4",
        ]) + "\n")
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert load_basis(out / "basis.txt").count == 6
        assert _manifest(out)["settings"]["policy"]["mask_k"] is None

    def test_seed_flag_overrides_config(self, tmp_path, train_cfg):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", train_cfg, "--out", str(out_a)])
        main(["train", "--config", train_cfg, "--out", str(out_b), "--seed", "99"])
        sum_a = json.loads((out_a / "manifest.json").read_text())["outputs"]
        sum_b = json.loads((out_b / "manifest.json").read_text())["outputs"]
        assert sum_a["policy.txt"] != sum_b["policy.txt"]

    def test_policy_settings_table_covers_every_setting_and_the_manifest(
        self, tmp_path, train_cfg
    ):
        # A setting added to ActorCritic must reach the policy file and the manifest.
        keys = [key for key, _ in POLICY_SETTINGS]
        fields = [f.name for f in dataclasses.fields(ActorCritic)]
        assert keys == [name for name in fields if name not in ("net", "critic_weights")]
        out = tmp_path / "run"
        assert main(["train", "--config", train_cfg, "--out", str(out)]) == 0
        assert set(_manifest(out)["settings"]["policy"]) == {*keys, "hidden"}


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs train, an explore-mode sample and test from one config in a fresh
# interpreter, listing the scipy.special modules loaded after each.
_SPECIAL_GATE_CHILD = """
import json, sys
from fiberwalk.cli import main
cfg, out = sys.argv[1:]
loaded = {}
for command in ("train", "sample", "test"):
    assert main([command, "--config", cfg, "--out", f"{out}/{command}"]) == 0
    loaded[command] = sorted(m for m in sys.modules if m.startswith("scipy.special"))
print(json.dumps(loaded))
"""


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


class TestSampleAndTest:
    def _trained(self, tmp_path, train_cfg):
        out = tmp_path / "trained"
        assert main(["train", "--config", train_cfg, "--out", str(out)]) == 0
        return out

    def _policy_cfg(self, tmp_path, table22, trained, *extra):
        lines = [
            "model.family=independence",
            "model.shape=2x2",
            f"data.table={table22}",
            f"policy.file={trained / 'policy.txt'}",
            f"policy.basis={trained / 'basis.txt'}",
            *extra,
        ]
        return _write(tmp_path / "run.cfg", "\n".join(lines) + "\n")

    def test_explore_mode_writes_sample_and_discovered_count(
        self, tmp_path, train_cfg, table22
    ):
        trained = self._trained(tmp_path, train_cfg)
        cfg = self._policy_cfg(
            tmp_path, table22, trained, "sample.mode=explore", "sample.steps=30"
        )
        out = tmp_path / "s"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "sample.csv").read_text().splitlines()) == 32
        manifest = _manifest(out)
        assert set(manifest["outputs"]) == {"sample.csv"}
        assert 1 <= manifest["discovered_count"] <= 5  # margins (4, 4): 5 fiber points

    def test_scipy_special_loads_only_to_price_a_state(self, tmp_path, table22):
        trained = tmp_path / "train"
        cfg = self._policy_cfg(
            tmp_path, table22, trained, "mdp.steps_per_episode=10", "train.episodes=1",
            "train.hidden=4", "sample.mode=explore", "sample.steps=5", "test.chains=1",
            "test.chain_length=2",
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        out = subprocess.run([sys.executable, "-c", _SPECIAL_GATE_CHILD, cfg, str(tmp_path)],
                             env=env, capture_output=True, text=True, check=True).stdout
        loaded = json.loads(out.splitlines()[-1])
        assert loaded["train"] == loaded["sample"] == []
        assert "scipy.special" in loaded["test"]

    def test_unknown_sample_mode_exit_2(self, tmp_path, train_cfg, table22, capsys):
        trained = self._trained(tmp_path, train_cfg)
        cfg = self._policy_cfg(tmp_path, table22, trained, "sample.mode=gibbs")
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
        assert "sample.mode" in capsys.readouterr().err

    V2 = "fiberwalk-basis v2 c=1 d=4\n"

    @pytest.mark.parametrize(
        "text, line",
        [
            ("c=1 d=4\n1 -1 -1 0\n", 1),
            (V2 + "0:1 4:-1\n", 2),
            (V2 + "0:1 -1:-1\n", 2),
            (V2 + "0:1 0:-1\n", 2),
            (V2 + "3:1 0:-1\n", 2),
            (V2 + "0:1 3:0\n", 2),
            (V2 + "0:1 3:99999999999999999999\n", 2),
            (V2 + "0:1 3:-1.0\n", 2),
            (V2 + "0:1 3 -1\n", 2),
            (V2 + "0:1 3:-1\n1:1 2:-1\n", 3),
            (V2 + "0:1 3:-1\n\n", 3),
            ("fiberwalk-basis v2 c=2 d=4\n0:1 3:-1\n", 3),
        ],
        ids=[
            "v1-header", "v2-column-past-d", "v2-negative-column",
            "v2-repeated-column", "v2-unsorted-columns", "v2-zero-value", "v2-overflow",
            "v2-not-an-integer", "v2-not-a-pair", "v2-extra-vector", "v2-extra-empty-vector",
            "v2-missing-vector",
        ],
    )
    def test_malformed_basis_file_exits_2_naming_its_line(
        self, tmp_path, train_cfg, table22, capsys, text, line
    ):
        trained = self._trained(tmp_path, train_cfg)
        (trained / "basis.txt").write_text(text)
        _pin(trained / "policy.txt", trained / "basis.txt")
        cfg = self._policy_cfg(tmp_path, table22, trained, "test.chains=1", "test.chain_length=1")
        assert main(["test", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
        assert f"{trained / 'basis.txt'}:{line}:" in capsys.readouterr().err

    def test_truncated_policy_exit_2(self, tmp_path, train_cfg, table22, capsys):
        trained = self._trained(tmp_path, train_cfg)
        policy = trained / "policy.txt"
        policy.write_text("\n".join(policy.read_text().splitlines()[:3]) + "\n")
        cfg = self._policy_cfg(tmp_path, table22, trained, "test.chains=1", "test.chain_length=1")
        assert main(["test", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
        assert f"{policy}:4: expected mask_k=..." in capsys.readouterr().err

    def test_policy_cut_after_its_header_exits_2_naming_its_path(
        self, tmp_path, train_cfg, table22, capsys
    ):
        trained = self._trained(tmp_path, train_cfg)
        policy = trained / "policy.txt"
        policy.write_text("\n".join(policy.read_text().splitlines()[:9]) + "\n")
        cfg = self._policy_cfg(tmp_path, table22, trained, "test.chains=1", "test.chain_length=1")
        assert main(["test", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
        assert f"{policy}:10: 0 characters, but the layer widths fix" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["config", "policy", "basis"])
    def test_input_that_is_not_utf8_exits_2_naming_it(
        self, tmp_path, train_cfg, table22, capsys, name
    ):
        trained = self._trained(tmp_path, train_cfg)
        policy = trained / "policy.txt"
        cfg = self._policy_cfg(tmp_path, table22, trained, "test.chains=1", "test.chain_length=1")
        path = {"config": cfg, "policy": policy, "basis": trained / "basis.txt"}[name]
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        if name == "basis":
            _pin(policy, path)
        assert main(["test", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err

    def test_v2_policy_exits_2_asking_to_retrain(self, tmp_path, train_cfg, table22, capsys):
        trained = self._trained(tmp_path, train_cfg)
        policy = trained / "policy.txt"
        lines = policy.read_text().splitlines()
        values = np.frombuffer(base64.b64decode(lines[9]), "<f8").tolist()
        v2 = ["fiberwalk-policy v2", *lines[1:9], *map(repr, values)]
        policy.write_text("\n".join(v2) + "\n")
        cfg = self._policy_cfg(tmp_path, table22, trained, "test.chains=1", "test.chain_length=1")
        assert main(["test", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
        assert (
            f"{policy}:1: a v2 policy file, which this version does not read; retrain the policy"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "command, line, output",
        [
            ("test", "test.chain_length=0", "results.csv"),
            ("test", "test.chains=0", "results.csv"),
            ("sample", "sample.steps=-5", "sample.csv"),
        ],
    )
    def test_count_out_of_range_exits_2_and_writes_no_result(
        self, tmp_path, train_cfg, table22, capsys, command, line, output
    ):
        trained = self._trained(tmp_path, train_cfg)
        cfg = self._policy_cfg(tmp_path, table22, trained, line)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"fiberwalk {command}: ")
        assert not (out / output).exists() and not (out / "manifest.json").exists()

    def test_stage_timings_of_every_command(self, tmp_path, train_cfg, table22):
        trained = self._trained(tmp_path, train_cfg)
        assert set(_manifest(trained)["timings"]) == {"basis", "ingest", "train", "write"}
        cfg = self._policy_cfg(
            tmp_path, table22, trained, "sample.steps=5", "test.chains=1", "test.chain_length=1"
        )
        for command, stage in (("sample", "sample"), ("test", "test"), ("enumerate", "enumerate")):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            assert set(_manifest(out)["timings"]) == {"ingest", stage, "write"}

    def test_sample_writes_points_with_statistics(self, tmp_path, train_cfg, table22):
        trained = self._trained(tmp_path, train_cfg)
        cfg = _write(
            tmp_path / "sample.cfg",
            "\n".join(
                [
                    "model.family=independence",
                    "model.shape=2x2",
                    f"data.table={table22}",
                    f"policy.file={trained / 'policy.txt'}",
                    f"policy.basis={trained / 'basis.txt'}",
                    "sample.steps=50",
                    "seed=3",
                ]
            ),
        )
        out = tmp_path / "s"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sample.csv").read_text().splitlines()
        assert lines[0].endswith(",statistic")
        assert len(lines) == 52

    def test_single_draw_pvalue_support(self, tmp_path, train_cfg, table22):
        trained = self._trained(tmp_path, train_cfg)
        cfg = _write(
            tmp_path / "test.cfg",
            "\n".join(
                [
                    "model.family=independence",
                    "model.shape=2x2",
                    f"data.table={table22}",
                    f"policy.file={trained / 'policy.txt'}",
                    f"policy.basis={trained / 'basis.txt'}",
                    "test.chains=1",
                    "test.chain_length=1",
                    "seed=2",
                ]
            ),
        )
        out = tmp_path / "t"
        assert main(["test", "--config", cfg, "--out", str(out)]) == 0
        row = (out / "pvalues.csv").read_text().splitlines()[1]
        p = float(row.split(",")[1])
        assert p in (0.5, 1.0)

    def test_checksum_mismatch_exit_2(self, tmp_path, train_cfg, table22, capsys):
        trained = self._trained(tmp_path, train_cfg)
        # Corrupt the basis file after training.
        basis_path = trained / "basis.txt"
        basis_path.write_text(basis_path.read_text() + "\n")
        cfg = _write(
            tmp_path / "test.cfg",
            "\n".join(
                [
                    "model.family=independence",
                    "model.shape=2x2",
                    f"data.table={table22}",
                    f"policy.file={trained / 'policy.txt'}",
                    f"policy.basis={basis_path}",
                    "test.chains=1",
                    "test.chain_length=1",
                ]
            ),
        )
        assert main(["test", "--config", cfg, "--out", str(tmp_path / "t")]) == 2
        assert "checksum" in capsys.readouterr().err

    def test_policy_pinned_to_none_exit_2(self, tmp_path, train_cfg, table22, capsys):
        # A policy always pins its basis: "none" is read as a pin that no file matches.
        trained = self._trained(tmp_path, train_cfg)
        policy = trained / "policy.txt"
        policy.write_text(re.sub(r"basis_sha256=\w+", "basis_sha256=none", policy.read_text()))
        cfg = self._policy_cfg(tmp_path, table22, trained, "test.chains=1", "test.chain_length=1")
        out = tmp_path / "t"
        assert main(["test", "--config", cfg, "--out", str(out)]) == 2
        assert "trained against a different basis" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def _test_with_other_basis(self, tmp_path, trained, model, basis):
        """Exit code of ``test`` with the trained policy, pinned to the basis ``basis``,
        on the ``model`` config lines."""
        policy = trained / "policy.txt"
        basis_path = tmp_path / "other_basis.txt"
        save_basis(basis_path, basis)
        _pin(policy, basis_path)
        cfg = _write(tmp_path / "other.cfg", "\n".join([
            *model, f"policy.file={policy}", f"policy.basis={basis_path}",
            "test.chains=1", "test.chain_length=1",
        ]))
        out = tmp_path / "other"
        code = main(["test", "--config", cfg, "--out", str(out)])
        assert not (out / "results.csv").exists()
        return code

    def test_policy_of_another_state_width_exit_2(self, tmp_path, train_cfg, capsys):
        trained = self._trained(tmp_path, train_cfg)  # a 2x2 table: 4 cells
        table = _write(tmp_path / "t33.csv", "dims=3x3\n4,1,2\n1,3,1\n2,2,5\n")
        model = ["model.family=independence", "model.shape=3x3", f"data.table={table}"]
        basis = compute_lattice_basis(build_design_matrix(independence(3, 3)))
        assert self._test_with_other_basis(tmp_path, trained, model, basis) == 2
        assert "policy reads 4 cells, the model has 9" in capsys.readouterr().err

    def test_policy_of_another_basis_count_exit_2(self, tmp_path, capsys):
        # Two 4-cliques: the lifted basis has 2 + 2 vectors, the full one 28 - 8 = 20.
        edges = [f"{a} {b}" for g in (1, 5) for a in range(g, g + 4) for b in range(a + 1, g + 4)]
        graph = _write(tmp_path / "g.txt", "\n".join(edges) + "\n")
        model = ["model.family=beta_model", "model.nodes=8", f"data.graph={graph}"]
        cfg = _write(tmp_path / "train.cfg", "\n".join(model + [
            "decompose.strategy=connected_components",
            "mdp.steps_per_episode=10", "train.episodes=1", "train.hidden=4",
        ]))
        trained = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out", str(trained)]) == 0
        assert load_basis(trained / "basis.txt").count == 4
        basis = compute_lattice_basis(build_design_matrix(beta_model(8)))
        assert basis.count == 20
        assert self._test_with_other_basis(tmp_path, trained, model, basis) == 2
        assert "policy emits 4 coefficients, the basis has 20 vectors" in capsys.readouterr().err


class TestLift:
    def test_lifted_moves_live_in_parent_kernel(self, tmp_path):
        edges = []
        for group in ([1, 2, 3, 4], [5, 6, 7, 8]):  # 1-based in the file
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    edges.append(f"{a} {b}")
        graph = _write(tmp_path / "g.txt", "\n".join(edges) + "\n")
        cfg = _write(
            tmp_path / "lift.cfg",
            "\n".join(
                [
                    "model.family=beta_model",
                    "model.nodes=8",
                    f"data.graph={graph}",
                    "decompose.strategy=connected_components",
                ]
            ),
        )
        out = tmp_path / "lifted"
        assert main(["lift", "--config", cfg, "--out", str(out)]) == 0
        assert set(_manifest(out)["timings"]) == {"ingest", "lift", "write"}
        basis = load_basis(out / "lifted_basis.txt")
        parent = build_design_matrix(beta_model(8))
        assert basis.count == 4  # two 4-cliques, kernel dimension 2 each
        for vec in basis.vectors:
            assert in_kernel(parent, vec)

    def _lift(self, tmp_path, edges, *lines):
        graph = _write(tmp_path / "g.txt", "".join(f"{a} {b}\n" for a, b in edges))
        cfg = _write(tmp_path / "lift.cfg", "\n".join([f"data.graph={graph}", *lines]))
        return main(["lift", "--config", cfg, "--out", str(tmp_path / "lifted")])

    def test_sub_problem_spanning_a_structural_zero_lifts(self, tmp_path):
        # The pair 1-3 (index 1) is a structural zero inside the 4-cycle.
        edges = [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6)]
        assert self._lift(
            tmp_path, edges,
            "model.family=beta_model", "model.nodes=6", "model.structural_zeros=1",
            "decompose.strategy=connected_components",
        ) == 0
        basis = load_basis(tmp_path / "lifted" / "lifted_basis.txt")
        parent = build_design_matrix(beta_model(6, structural_zeros=[1]))
        assert basis.count == 1 and basis.dim == parent.n_cols == 14
        assert in_kernel(parent, basis.vectors[0])

    @pytest.mark.parametrize("node_sets", ["0,1,2", "1,2,3;4,5,7"])
    def test_node_outside_the_graph_exits_2(self, tmp_path, capsys, node_sets):
        assert self._lift(
            tmp_path, [(1, 2), (2, 3), (3, 1), (4, 5)],
            "model.family=beta_model", "model.nodes=6",
            "decompose.strategy=induced_subgraphs", f"decompose.node_sets={node_sets}",
        ) == 2
        assert "outside 0..5" in capsys.readouterr().err

    def test_table_data_exits_2(self, tmp_path, table22):
        cfg = _write(
            tmp_path / "lift.cfg",
            "\n".join([
                "model.family=independence", "model.shape=2x2", f"data.table={table22}",
                "decompose.strategy=connected_components",
            ]),
        )
        assert main(["lift", "--config", cfg, "--out", str(tmp_path / "lifted")]) == 2

    def test_bridge_cuts_basis_is_golden(self, tmp_path):
        # Two 6-node clusters joined by the bridge 3-9.
        edges = [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6),
            (7, 8), (7, 9), (7, 11), (8, 9), (8, 10), (9, 10), (9, 12), (10, 11), (10, 12),
            (11, 12), (3, 9),
        ]
        assert self._lift(
            tmp_path, edges,
            "model.family=beta_model", "model.nodes=12", "decompose.strategy=bridge_cuts",
        ) == 0
        digest = _manifest(tmp_path / "lifted")["outputs"]["lifted_basis.txt"]
        assert digest == "9f09c7637cf81952bcbfe3f2b6aaa72e5f1ad5b001aa5f0184cfe1941df9a9cf"
        # The vectors as little-endian int64, the same under every file format.
        vectors = load_basis(tmp_path / "lifted" / "lifted_basis.txt").vectors
        assert vectors.shape == (18, 66)
        assert hashlib.sha256(vectors.astype("<i8").tobytes()).hexdigest() == (
            "35eecd50963bdbe4e19e4f2f98417da5039d38c392b05574a8e539048352bb66"
        )


class TestStructuralZeros:
    def test_sampled_points_keep_exact_zeros(self, tmp_path):
        table = _write(
            tmp_path / "t.csv",
            "dims=3x3\n0,2,1\n2,1,1\n1,1,2\n",
        )
        lines_common = [
            "model.family=independence",
            "model.shape=3x3",
            "model.structural_zeros=0",
            f"data.table={table}",
        ]
        cfg = _write(
            tmp_path / "train.cfg",
            "\n".join(
                lines_common
                + ["mdp.steps_per_episode=20", "train.episodes=2", "train.hidden=8"]
            ),
        )
        trained = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out", str(trained)]) == 0
        sample_cfg = _write(
            tmp_path / "sample.cfg",
            "\n".join(
                lines_common
                + [
                    f"policy.file={trained / 'policy.txt'}",
                    f"policy.basis={trained / 'basis.txt'}",
                    "sample.steps=40",
                ]
            ),
        )
        out = tmp_path / "s"
        assert main(["sample", "--config", sample_cfg, "--out", str(out)]) == 0
        lines = (out / "sample.csv").read_text().splitlines()
        # The reduced space has no column for the zero cell at all.
        assert lines[0].split(",")[0] == "0_1"
        assert "0_0" not in lines[0]
        assert len(lines) == 42


class TestGraphBox:
    @pytest.mark.parametrize("mode", ["uniform", "explore"])
    def test_sample_writes_only_simple_graphs(self, tmp_path, mode):
        # A 6-cycle plus the chord 1-4 (1-based); 190 of its fiber points
        # are multigraphs, which the beta model gives probability 0.
        edges = [f"{i + 1} {(i + 1) % 6 + 1}" for i in range(6)] + ["1 4"]
        graph = _write(tmp_path / "g.txt", "\n".join(edges) + "\n")
        common = ["model.family=beta_model", "model.nodes=6", f"data.graph={graph}", "seed=3"]
        cfg = _write(
            tmp_path / "train.cfg",
            "\n".join(common + ["mdp.steps_per_episode=20", "train.episodes=2", "train.hidden=8"]),
        )
        trained = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out", str(trained)]) == 0
        sample_cfg = _write(
            tmp_path / "sample.cfg",
            "\n".join(
                common
                + [
                    f"policy.file={trained / 'policy.txt'}",
                    f"policy.basis={trained / 'basis.txt'}",
                    f"sample.mode={mode}",
                    "sample.steps=2000",
                ]
            ),
        )
        out = tmp_path / "s"
        assert main(["sample", "--config", sample_cfg, "--out", str(out)]) == 0
        rows = [line.split(",")[:-1] for line in (out / "sample.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2001
        assert {v for row in rows for v in row} == {"0", "1"}

    def test_repeated_pair_exits_2(self, tmp_path, capsys):
        graph = _write(tmp_path / "g.txt", "1 2\n2 3\n3 1\n2 1\n")
        cfg = _write(
            tmp_path / "enum.cfg",
            f"model.family=beta_model\nmodel.nodes=3\ndata.graph={graph}\n",
        )
        assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "e")]) == 2
        assert "edge (1, 0) (nodes from 0) repeats a node pair" in capsys.readouterr().err

    def test_fit_that_does_not_converge_exits_3_naming_its_last_gap(self, tmp_path, capsys):
        # A path's degree sequence lies on the boundary of the expected degree polytope,
        # so the beta-model fit never closes the gap.
        graph = _write(tmp_path / "g.txt", "1 2\n2 3\n3 4\n")
        trained = tmp_path / "trained"
        cfg = _write(
            tmp_path / "run.cfg",
            "\n".join([
                "model.family=beta_model", "model.nodes=4", f"data.graph={graph}",
                "mdp.steps_per_episode=2", "train.episodes=1", "train.hidden=4",
                f"policy.file={trained / 'policy.txt'}", f"policy.basis={trained / 'basis.txt'}",
                "sample.steps=1",
            ]) + "\n",
        )
        assert main(["train", "--config", cfg, "--out", str(trained)]) == 0
        capsys.readouterr()
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "s")]) == 3
        err = capsys.readouterr().err.strip()
        assert re.fullmatch(
            r"fiberwalk sample: beta-model fit did not reach degree gap 1e-08 within 10000 "
            r"iterations \(last gap [0-9.e+-]+\)", err
        ), err
