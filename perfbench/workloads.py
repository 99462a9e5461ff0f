"""Benchmark workloads and the generator of their inputs.

Each workload is a model, a way to draw observed data from a seed, and
fixed train and test sizes.  A run uses ``DATASETS`` data sets drawn
from its seed, so that one unusual draw moves its medians less.  The
generator writes the inputs in the command line's own formats (the
``dims=`` table CSV, the 1-based edge list, one flat ``key=value``
config per data set), so any benchmark run can be replayed by hand:

    python3 perfbench/workloads.py --workload table4x4 --seed 1 --out /tmp/w
    cd /tmp/w
    PYTHONPATH=<repo>/src python3 -m fiberwalk.cli train --config run-0.cfg --out train
    PYTHONPATH=<repo>/src python3 -m fiberwalk.cli test --config run-0.cfg --out test

The generator does not import fiberwalk: the program only ever sees
the files written here.
"""

import argparse
import os
from dataclasses import dataclass

import numpy as np

# One data set per pass: a table run makes 7-9 passes in 10 s, and the
# seed-to-seed spread of a median over 3 data sets was 0.17 on
# table3x3x3z, where fibers differ in how many proposals are feasible.
DATASETS = 10
TRAIN_DIR = "train"  # `fiberwalk train --out train`
TEST_DIR = "test"    # `fiberwalk test --out test`


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict   # model.* config keys
    sizes: dict   # train/test sizes of a measured run
    smoke: dict   # the same keys, shrunk for the self-test

    def write_data(self, rng, out_dir, k):
        """Draw data set ``k``; returns its data.* config keys."""
        raise NotImplementedError


class IndependenceTable(Workload):
    def write_data(self, rng, out_dir, k):
        # n=300 from the independence model: rows .3/.3/.2/.2, uniform columns.
        probs = np.outer([0.3, 0.3, 0.2, 0.2], np.full(4, 0.25)).ravel()
        cells = rng.multinomial(300, probs)
        return _write_table(out_dir, f"table-{k}.csv", (4, 4), cells)


class ZeroCellTable(Workload):
    ZEROS = (0, 13, 26)

    def write_data(self, rng, out_dir, k):
        # Cells uniform on 1..4 except the structural zeros.
        cells = rng.integers(1, 5, size=27)
        cells[list(self.ZEROS)] = 0
        return _write_table(out_dir, f"table-{k}.csv", (3, 3, 3), cells)


class RandomGraph(Workload):
    NODES = 70
    EDGE_PROB = 0.3

    def write_data(self, rng, out_dir, k):
        # G(n, p): each node pair independently, listed 1-based.
        n = self.NODES
        draws = rng.random((n, n))
        name = f"graph-{k}.txt"
        with open(os.path.join(out_dir, name), "w") as fh:
            for i in range(n):
                for j in range(i + 1, n):
                    if draws[i, j] < self.EDGE_PROB:
                        fh.write(f"{i + 1} {j + 1}\n")
        return {"data.graph": name}


_TABLE_SIZES = {
    "train.episodes": 20,
    "mdp.steps_per_episode": 100,
    "test.chains": 100,
    "test.chain_length": 10,
    "test.chain_steps": 50,
}
_TABLE_SMOKE = {
    "train.episodes": 2,
    "mdp.steps_per_episode": 20,
    "test.chains": 12,
    "test.chain_length": 5,
    "test.chain_steps": 10,
}

WORKLOADS = {
    w.name: w
    for w in (
        # The narrow regime: per-step Python and tiny-network overhead is
        # nearly all of the time.
        IndependenceTable(
            name="table4x4",
            model={"model.family": "independence", "model.shape": "4x4"},
            sizes=_TABLE_SIZES,
            smoke=_TABLE_SMOKE,
        ),
        # The same layers as table4x4, but most proposals are rejected; the
        # only workload that runs IPF fitting and structural-zero deletion.
        ZeroCellTable(
            name="table3x3x3z",
            model={
                "model.family": "all_two_way",
                "model.shape": "3x3x3",
                "model.structural_zeros": ",".join(str(z) for z in ZeroCellTable.ZEROS),
            },
            sizes=_TABLE_SIZES,
            smoke=_TABLE_SMOKE,
        ),
        # The wide regime (d=2,415): the exact basis, the dense move
        # combination and the basis and policy files dominate.  Train and
        # test are short because each step costs about 35 ms.
        RandomGraph(
            name="graph70",
            model={"model.family": "beta_model", "model.nodes": "70"},
            sizes={
                "train.episodes": 4,
                "mdp.steps_per_episode": 20,
                "test.chains": 4,
                "test.chain_length": 5,
                "test.chain_steps": 10,
            },
            smoke={
                "train.episodes": 1,
                "mdp.steps_per_episode": 8,
                "test.chains": 2,
                "test.chain_length": 2,
                "test.chain_steps": 2,
            },
        ),
    )
}


def _write_table(out_dir, name, dims, cells):
    width = dims[-1]
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write("dims=" + "x".join(str(s) for s in dims) + "\n")
        for start in range(0, len(cells), width):
            fh.write(",".join(str(int(v)) for v in cells[start:start + width]) + "\n")
    return {"data.table": name}


def write_inputs(name, seed, out_dir, smoke=False):
    """Write a workload's data sets and configs into ``out_dir``; returns the config names.

    Data set ``k`` is drawn from the generator seeded ``[seed, k]``.
    Paths inside the configs are relative to ``out_dir``, which is where
    the pipeline and a replay run from.
    """
    workload = WORKLOADS[name]
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for k in range(DATASETS):
        keys = {"seed": str(seed)}
        keys.update(workload.model)
        keys.update(workload.write_data(np.random.default_rng([seed, k]), out_dir, k))
        keys.update({key: str(v) for key, v in (workload.smoke if smoke else workload.sizes).items()})
        keys["policy.file"] = f"{TRAIN_DIR}/policy.txt"
        keys["policy.basis"] = f"{TRAIN_DIR}/basis.txt"
        names.append(f"run-{k}.cfg")
        with open(os.path.join(out_dir, names[-1]), "w") as fh:
            fh.write(f"# fiberwalk benchmark workload {name}, seed {seed}, data set {k}\n")
            for key, value in keys.items():
                fh.write(f"{key}={value}\n")
    return names


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs into")
    args = parser.parse_args()
    print("\n".join(write_inputs(args.workload, args.seed, args.out)))


if __name__ == "__main__":
    main()
