"""A/B harness shared by the bench scripts: a base revision against this checkout.

A bench script hands :func:`main` its worker, the function that runs one
task on the tree already imported, and its compare step, which runs the
workers and builds the script's own report fields. The command line is the
same for every script:

    python3 bench/<script>.py --before <git revision> --repeats 5 --out <file>

The base revision's tree is extracted with ``git archive`` into a temporary
directory. Every task runs in a fresh interpreter, ``<script> --worker
<tree> --task <task>``, which imports coherify from ``<tree>/src`` (and the
perfbench workloads from ``<tree>/perfbench``) and prints one JSON line
last; the worker's own stdout goes to stderr, so no print can corrupt that
line. :func:`alternate` runs the repeats, the base tree first on even
repeats and this checkout first on odd ones. The report written to
``--out``, which has no default so that no run overwrites a committed
record, opens with the machine (CPUs, Python, numpy, platform and the BLAS
thread variables, as perfbench records them), the resolved base revision
and the repeat count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_tree(tree: Path) -> None:
    """Import coherify from tree/src, and the perfbench workloads from tree/perfbench."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import coherify

    if Path(coherify.__file__).resolve().parent != (tree / "src" / "coherify").resolve():
        raise SystemExit(f"imported coherify from {coherify.__file__}, not from {tree}")


def run_worker(script: Path, tree: Path, task: str) -> dict:
    """The last JSON line of one fresh interpreter running script's task on tree."""
    cmd = [sys.executable, str(script), "--worker", str(tree), "--task", task]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def alternate(run, trees: dict, tasks, repeats: int) -> dict:
    """run(tree, task) for every tree and task, repeats times; the trees run
    in their given order on even repeats and reversed on odd ones, each
    tree's tasks in order. Returns {tree name: {task: [results]}}."""
    runs = {name: {task: [] for task in tasks} for name in trees}
    for rep in range(repeats):
        for name in (list(trees) if rep % 2 == 0 else reversed(trees)):
            for task in tasks:
                runs[name][task].append(run(trees[name], task))
    return runs


def summary(runs: list[float]) -> dict:
    """Median and inclusive quartiles of a list of seconds, with the list."""
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median_s": med, "q1_s": q1, "q3_s": q3, "runs_s": runs}


def extract(rev: str, dest: Path) -> None:
    """Write the tree of git revision rev of this checkout into dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def machine() -> dict:
    import numpy as np

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import THREAD_VARS

    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(script: str, doc: str, tasks, worker, compare, show, argv=None) -> int:
    """A bench script's command line.

    With ``--worker <tree> --task <task>`` (one of tasks): import the tree
    and print the JSON of worker(task). Otherwise extract ``--before``, call
    compare(run, trees, repeats) with run(tree, task) = :func:`run_worker`
    on this script and trees = {"before": base tree, "after": this
    checkout}, write the report, its fields after the machine record, to
    ``--out`` and call show(report).
    """
    p = argparse.ArgumentParser(description=doc.split("\n")[0])
    p.add_argument("--before", help="git revision to compare against")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", help="file to write the report to")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--task", choices=tasks, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is not None:
        with contextlib.redirect_stdout(sys.stderr):
            import_tree(args.worker)
            result = worker(args.task)
        print(json.dumps(result))
        return 0
    if not args.before or not args.out or args.repeats < 5:
        p.error("--before and --out are required and --repeats must be at least 5")
    run = functools.partial(run_worker, Path(script).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        extract(args.before, base)
        fields = compare(run, {"before": base, "after": ROOT}, args.repeats)
    report = {
        "machine": machine(),
        "before_revision": subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", args.before],
            capture_output=True, text=True, check=True).stdout.strip(),
        "repeats": args.repeats,
        **fields,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    show(report)
    return 0
