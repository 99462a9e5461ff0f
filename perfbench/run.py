"""fiberwalk benchmark: time from an observed table or graph to exact p-values.

    python3 perfbench/run.py --workload table4x4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  For each workload this writes the
seeded inputs under ``.perfbench_work/``, starts one fresh process
(``pipeline.py``) that runs the pipeline on them with its BLAS limited
to ``BLAS_THREADS`` threads, waits for it, prints every metric with
its unit, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The exit code is 0 only when
every operation passed its checks.
"""

import os

BLAS_THREADS = 1  # fixed on every commit; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import shutil
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
RUN_TIMEOUT_S = 170.0


def run_workload(name, seed, seconds, trace):
    """Generate inputs, run the pipeline in a fresh process, return its report."""
    work = os.path.join(WORK, f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        configs = workloads.write_inputs(name, seed, work)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
        cmd = [
            sys.executable, os.path.join(HERE, "pipeline.py"),
            "--config", *configs,
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--result", "report.json",
        ]
        proc = subprocess.Popen(cmd, cwd=work, env=env)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return _failed(f"run exceeded {RUN_TIMEOUT_S:.0f} s and was stopped")
        if code != 0:
            return _failed(f"pipeline process exited with code {code}")
        with open(os.path.join(work, "report.json")) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _failed(why):
    return {"correct": False, "attempted": 1, "failed": 1, "failures": [why],
            "metrics": {}, "notes": [], "checksums": None, "passes": 0}


def machine_facts():
    """What the numbers depend on besides the code: core count, CPU, versions, BLAS threads."""
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def print_report(name, seed, report):
    print(f"== {name} seed {seed}: {report['passes']} passes, "
          f"{report['failed']} failed / {report['attempted']} operations")
    for why in report["failures"]:
        print(f"   FAILED {why}")
    for key, metric in report["metrics"].items():
        print(f"   {key:32s} {metric['value']:>14.6g} {metric['unit']}")
    for note in report["notes"]:
        print(f"   {note}")
    for config, digests in (report["checksums"] or {}).items():
        for key, digest in digests.items():
            print(f"   sha256 {config} {key:8s} {digest}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fiberwalk", "__init__.py")):
        print(f"perfbench: no fiberwalk package under {SRC}", file=sys.stderr)
        return 2

    print("machine " + " ".join(f"{k}={v}" for k, v in machine_facts().items()))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        start = time.perf_counter()
        reports[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print_report(name, args.seed, reports[name])
        print(f"   run took {time.perf_counter() - start:.1f} s")

    prefix = len(names) > 1
    result = {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {
            (f"{name}.{key}" if prefix else key): metric
            for name, r in reports.items()
            for key, metric in r["metrics"].items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
