"""Unitary-witness search benchmark: a base revision against this checkout.

Run from the root of a source checkout:

    python3 bench/bench_witness.py --before <git revision> --repeats 5 --out BENCH_lmwitness.json

The base revision's tree is extracted with ``git archive`` into a temporary
directory. Each repeat starts one fresh interpreter per variant, alternating
which tree runs first, and times:

- ``oracle.search_unistochastic_witness`` with the default ``OracleConfig``
  on five inputs: a permuted blockdiag(flat off-diagonal 3x3, 1) that no
  restart can solve (``capped``), a d = 5 permutation solved by restart 0,
  the 5x5 van der Waerden matrix solved by restart 1, |U|^2 of a Haar
  unitary solved only by a random restart (``late``), and the permuted
  kron of 2x2 bistochastic matrices from round 0 of classify-construct;
- one round of the perfbench ``classify-construct`` workload (``classify``,
  ``coherify_auto``, ``compute_bounds``, ``diagnostics_report`` on each of
  its 37 inputs, every result checked) in three variants: the base tree,
  this tree with the base revision's search swapped in (``base_search``:
  ``search_unistochastic_witness`` and every top-level function and
  assignment of the base's ``oracle.py`` that it reaches, so the rest of
  this tree runs unchanged), and this tree;
- the default search on a Haar corpus, T = |U|^2 with U =
  ``haar_unitary(d, default_rng(1000 d + s))``: s = 0..49 at d = 4 and 5,
  s = 0..19 at d = 6, each input searched once, timed per d.

Each call of the first two kinds runs once untimed first; a call shorter
than 0.2 s is timed as the mean of enough calls to fill 0.2 s. ``classify``
remembers fewer verdicts (8) than a round has inputs (37), so each repeated
round computes every verdict afresh; within one input, ``coherify_auto``
reuses the verdict of the ``classify`` call just before it.

``--worker . --task round`` alone runs the checked round on this checkout
and prints its JSON line, whose ``failed`` count CI requires to be 0. The report
gives, per variant, the median and quartiles over the repeats, each search
input's found / not-found result, the corpus's found count per d, and the
machine it ran on.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUND_SEED = 11
HAAR_CORPUS = ((4, 50), (5, 50), (6, 20))    # (d, inputs)


def _import_tree(tree: Path):
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import coherify

    if Path(coherify.__file__).resolve().parent != (tree / "src" / "coherify").resolve():
        raise SystemExit(f"imported coherify from {coherify.__file__}, not from {tree}")


def _swap_in_search(base_tree: Path) -> None:
    """Replace this tree's search by the base revision's, run in this tree's module.

    The base's search and every top-level function and assignment of the
    base's oracle.py that it reaches, directly or through another, are run
    in a copy of this tree's module namespace; other names (classes,
    imports) resolve to this tree's.
    """
    import coherify.oracle as oracle

    source = (base_tree / "src" / "coherify" / "oracle.py").read_text()
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                defs.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
    reached, todo = [], ["search_unistochastic_witness"]
    while todo:
        node = defs.get(todo.pop())
        if node is not None and node not in reached:
            reached.append(node)
            todo += [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]
    body = sorted(reached, key=lambda node: node.lineno)
    namespace = dict(vars(oracle))
    exec(compile(ast.Module(body=body, type_ignores=[]), "base oracle.py", "exec"), namespace)
    oracle.search_unistochastic_witness = namespace["search_unistochastic_witness"]


def _search_inputs(workloads):
    import numpy as np

    import coherify.oracle as oracle
    import coherify.stochastic as stochastic

    capped = np.eye(4)
    capped[:3, :3] = workloads.T_FLAT_OFFDIAG
    items = workloads.ClassifyConstruct(ROUND_SEED, False, ".").round(0)
    kron = next(t for t in items
                if t.shape == (4, 4) and (t > 0).all() and stochastic.is_bistochastic(t))
    return {
        "capped": capped[[2, 0, 3, 1]][:, [1, 3, 0, 2]],
        "restart0_permutation_d5": np.eye(5)[:, [3, 0, 4, 1, 2]],
        "restart1_van_der_waerden_d5": np.full((5, 5), 0.2),
        "late": np.abs(oracle.haar_unitary(4, np.random.default_rng(103))) ** 2,
        "kron_d4": kron,
    }


def _timed(fn, budget_s: float = 0.2, max_calls: int = 200):
    """Seconds per call and the result, after one untimed call.

    A call faster than budget_s is repeated until about budget_s has passed
    (at most max_calls times) and the mean is returned.
    """
    fn()
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    calls = min(max_calls, int(budget_s / max(seconds, 1e-9)))
    if calls > 1:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        seconds = (time.perf_counter() - t0) / calls
    return seconds, out


def worker(tree: Path, task: str, base_tree: Path | None) -> dict:
    _import_tree(tree)
    if base_tree is not None:
        _swap_in_search(base_tree)
    import coherify.oracle as oracle
    import workloads

    if task == "corpus":
        import numpy as np

        oracle.search_unistochastic_witness(np.full((4, 4), 0.25))
        out = {}
        for d, n in HAAR_CORPUS:
            ts = [np.abs(oracle.haar_unitary(d, np.random.default_rng(1000 * d + s))) ** 2
                  for s in range(n)]
            t0 = time.perf_counter()
            found = sum(oracle.search_unistochastic_witness(t) is not None for t in ts)
            out[str(d)] = {"seconds": time.perf_counter() - t0, "inputs": n, "found": found}
        return out
    if task == "search":
        out = {}
        for name, t in _search_inputs(workloads).items():
            seconds, u = _timed(lambda t=t: oracle.search_unistochastic_witness(t))
            out[name] = {"seconds": seconds, "found": u is not None}
        return out
    wl = workloads.ClassifyConstruct(ROUND_SEED, False, ".")
    items = wl.round(0)

    def run_round():
        return [wl.check(t, wl.call(t)) for t in items]

    seconds, outcomes = _timed(run_round)
    return {"seconds": seconds, "inputs": len(items),
            "failed": sum(o.failed for o in outcomes),
            "unknown": sum(o.unknown for o in outcomes)}


def _run_worker(tree: Path, task: str, base_tree: Path | None = None) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), "--task", task]
    if base_tree is not None:
        cmd += ["--swap-search-from", str(base_tree)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(runs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median_s": med, "q1_s": q1, "q3_s": q3, "runs_s": runs}


def _extract(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--before", help="git revision to compare against")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", help="file to write the report to")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--task", choices=("search", "round", "corpus"), help=argparse.SUPPRESS)
    p.add_argument("--swap-search-from", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(worker(args.worker, args.task, args.swap_search_from)))
        return 0
    if not args.before or not args.out or args.repeats < 5:
        p.error("--before and --out are required and --repeats must be at least 5")
    import numpy as np

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        _extract(args.before, base)
        variants = {
            "before": (base, None),
            "base_search": (ROOT, base),
            "after": (ROOT, None),
        }
        search = {"before": [], "after": []}
        corpus = {"before": [], "after": []}
        rounds = {name: [] for name in variants}
        for rep in range(args.repeats):
            order = list(variants) if rep % 2 == 0 else list(reversed(variants))
            for name in order:
                tree, swap = variants[name]
                rounds[name].append(_run_worker(tree, "round", swap))
                if name in search:
                    search[name].append(_run_worker(tree, "search"))
                    corpus[name].append(_run_worker(tree, "corpus"))
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "before_revision": subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", args.before],
            capture_output=True, text=True, check=True).stdout.strip(),
        "repeats": args.repeats,
        "search": {},
        "classify_construct_round": {"seed": ROUND_SEED, "round": 0},
        "haar_corpus": {},
    }
    for name in search["after"][0]:
        entry = {}
        for side in ("before", "after"):
            runs = [r[name] for r in search[side]]
            entry[side] = _summary([r["seconds"] for r in runs])
            entry[side]["found"] = sorted({r["found"] for r in runs})
        entry["speedup"] = entry["before"]["median_s"] / entry["after"]["median_s"]
        report["search"][name] = entry
    for d in corpus["after"][0]:
        entry = {"inputs": corpus["after"][0][d]["inputs"]}
        for side in ("before", "after"):
            runs = [r[d] for r in corpus[side]]
            entry[side] = _summary([r["seconds"] for r in runs])
            entry[side]["found"] = sorted({r["found"] for r in runs})
        entry["speedup"] = entry["before"]["median_s"] / entry["after"]["median_s"]
        report["haar_corpus"][d] = entry
    for name, runs in rounds.items():
        entry = _summary([r["seconds"] for r in runs])
        entry.update({k: sorted({r[k] for r in runs}) for k in ("inputs", "failed", "unknown")})
        report["classify_construct_round"][name] = entry
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({k: v for k, v in report.items() if k not in ("search", "haar_corpus")},
                     indent=2))
    for d, entry in report["haar_corpus"].items():
        print(f"Haar d = {d}: found {entry['before']['found']} -> {entry['after']['found']}"
              f" of {entry['inputs']}, {entry['before']['median_s']:.2f} s ->"
              f" {entry['after']['median_s']:.2f} s")
    for name, entry in report["search"].items():
        print(f"{name}: {entry['before']['median_s']:.4f} s -> {entry['after']['median_s']:.4f} s"
              f" ({entry['speedup']:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
