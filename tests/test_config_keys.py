"""The README's table of config keys and the code agree.

Each key the command line reads is documented and is one of ``cli.KEYS``,
the keys a config may name, and each documented
default is the value the program uses: spelling every default out in a
config must not change a single output byte.
"""

import ast
import dataclasses
import inspect
import os
import re

from fiberwalk import cli
from fiberwalk.agent import TrainConfig
from fiberwalk.cli import main
from fiberwalk.fibermdp import MdpConfig
from fiberwalk.lattice import enumerate_fiber

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROW = re.compile(r"^\| `([a-z0-9_.]+)` \| .* \| (.*) \| .* \|$")


def _readme_defaults():
    """``{key: default}`` from the README table; a default is its text when
    written as one literal in backticks, else None (required or derived)."""
    defaults = {}
    with open(os.path.join(ROOT, "README.md")) as fh:
        for row in filter(None, (ROW.match(line.strip()) for line in fh)):
            literal = re.fullmatch(r"`([^`]*)`", row.group(2))
            defaults[row.group(1)] = literal and literal.group(1)
    return defaults


def _cli_reads():
    """``{key: default}`` for each string key passed to ``cfg.get``/``cfg.require``
    in cli.py; the default is the literal second argument, if any."""
    tree = ast.parse(inspect.getsource(cli))
    reads = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "require")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "cfg"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            default = node.args[1] if len(node.args) > 1 else None
            reads[node.args[0].value] = (
                default.value if isinstance(default, ast.Constant) else None
            )
    return reads


def _field_default(cls, name):
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


def test_readme_lists_exactly_the_keys_the_cli_reads():
    reads = _cli_reads()
    readme = _readme_defaults()
    assert set(readme) == set(reads) | {"seed"} == cli.KEYS
    assert len(readme) == 31
    # A default that lives in cli.py is written there once, as a literal.
    for key, default in reads.items():
        if default is not None:
            assert readme[key] == str(default), key


def test_spelled_out_defaults_write_the_same_bytes(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("dims=2x2\n3,1\n1,3\n")
    common = ["model.family=independence", "model.shape=2x2", f"data.table={table}"]
    # Held small in both runs; their defaults are checked against the library below.
    fixed = {
        "mdp.steps_per_episode": "20",
        "train.episodes": "2",
        "test.chains": "2",
        "test.chain_length": "5",
    }
    readme = _readme_defaults()
    spelled = [
        f"{key}={value}"
        for key, value in readme.items()
        if value is not None and key not in fixed and key.split(".")[0] in ("seed", "mdp", "train")
    ]
    assert len(spelled) == 13
    outputs = {}
    for name, lines in (("bare", []), ("spelled", spelled)):
        trained = tmp_path / name / "train"
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            "\n".join(
                common + lines + [f"{k}={v}" for k, v in fixed.items()]
                + [f"policy.file={trained / 'policy.txt'}", f"policy.basis={trained / 'basis.txt'}"]
            )
            + "\n"
        )
        assert main(["train", "--config", str(cfg), "--out", str(trained)]) == 0
        assert main(["test", "--config", str(cfg), "--out", str(tmp_path / name / "test")]) == 0
        outputs[name] = {
            f: (tmp_path / name / run / f).read_bytes()
            for run, files in (("train", ("basis.txt", "policy.txt", "trainlog.csv")),
                               ("test", ("results.csv",)))
            for f in files
        }
    assert outputs["spelled"] == outputs["bare"]

    assert readme["mdp.steps_per_episode"] == str(_field_default(MdpConfig, "steps_per_episode"))
    assert readme["train.episodes"] == str(_field_default(TrainConfig, "episodes"))
    assert readme["enumerate.cap"] == str(inspect.signature(enumerate_fiber).parameters["cap"].default)


def test_the_readme_training_config_trains(tmp_path, monkeypatch):
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"A minimal training config:\n\n```ini\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "table.csv").write_text("dims=4x4\n" + "3,1,2,2\n" * 4)
    (tmp_path / "run.cfg").write_text(block + "train.episodes=2\n")
    monkeypatch.chdir(tmp_path)  # the block names its table relative to this directory
    assert main(["train", "--config", "run.cfg", "--out", "train"]) == 0
