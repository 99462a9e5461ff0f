"""Golden output bytes of one small run of each command.

A seed reproduces the output checksums; these pin them, so a refactor
that should leave every output unchanged is checked against the bytes
the program wrote before it, not only against a second run of itself.
"""

import hashlib

from fiberwalk.cli import main

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
}


def test_outputs_of_a_3x3_run_are_golden(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("dims=3x3\n4,1,2\n1,3,1\n2,2,5\n")
    trained = tmp_path / "train"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
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
        )
        + "\n"
    )
    for command in ("train", "sample", "test"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    digests = {
        (command, name): hashlib.sha256((tmp_path / command / name).read_bytes()).hexdigest()
        for command, name in GOLDEN
    }
    assert digests == GOLDEN
