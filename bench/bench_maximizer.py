"""Purity-maximizer benchmark: a base revision against this checkout.

Run from the root of a source checkout:

    python3 bench/bench_maximizer.py --before <git revision> --repeats 5 --out BENCH_maximizer.json

The base revision's tree is extracted with ``git archive`` into a temporary
directory. Each repeat starts one fresh interpreter per tree and task,
alternating which tree runs first, and times:

- one round of the perfbench ``validate-qutrit`` workload (seed 1, round 0:
  12 ``coherify validate`` calls, each report checked for exit code 0 and
  ``"ok": true``), after one untimed warm-up call on a 2x2 input;
- criterion 3's ``maximize_purity_many`` call (1000 qubit inputs drawn from
  ``default_rng(2026)``, ``OracleConfig(seed=42, restarts=3)``), after an
  untimed call on its first 5 inputs.

The validate round is also split into phases by wrapping oracle functions:
``sample_fixed_action``; and inside ``_maximize_group`` the ascent (up to
the first ``_face_solve`` call), the face refinement (up to the first
``_coupling_refinement`` call), the coupling stage (up to the first
``_dykstra`` call with a tolerance below the config's, which is the final
polish) and the polish. ``other`` is the rest of the round: the CLI's
checks of the samples against the bounds.

Once per tree, outside the timed runs, the 48 reports of round 0 of
validate-qutrit seeds 1-4 are collected; the report counts how many are
byte-identical between the trees, and how many of the criterion-3
purities are bitwise equal. The report gives, per tree, the median and
quartiles over the repeats and the machine it ran on.
"""

from __future__ import annotations

import argparse
import contextlib
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
VALIDATE_SEED = 1
IDENTITY_SEEDS = (1, 2, 3, 4)
PHASES = ("sample_fixed_action", "ascent", "face", "coupling", "polish")


def _import_tree(tree: Path):
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import coherify

    if Path(coherify.__file__).resolve().parent != (tree / "src" / "coherify").resolve():
        raise SystemExit(f"imported coherify from {coherify.__file__}, not from {tree}")


def _criterion3_inputs():
    import numpy as np

    rng = np.random.default_rng(2026)
    ts = []
    for _ in range(1000):
        a, b = rng.uniform(0, 1, 2)
        ts.append(np.array([[a, 1 - b], [1 - a, b]]))
    return ts


def _time_phases(oracle) -> dict:
    """Wrap oracle functions so that time is added to the phase running."""
    phases = dict.fromkeys(PHASES, 0.0)
    state = {"phase": None, "since": 0.0, "tolerance": 0.0}

    def switch(name):
        now = time.perf_counter()
        if state["phase"] is not None:
            phases[state["phase"]] += now - state["since"]
        state["phase"], state["since"] = name, now

    def whole_call(fn, name):
        def wrapped(*args, **kwargs):
            switch(name)
            try:
                return fn(*args, **kwargs)
            finally:
                switch(None)
        return wrapped

    group, face, coupling, dykstra = (
        oracle._maximize_group, oracle._face_solve, oracle._coupling_refinement, oracle._dykstra)

    def maximize_group(group_ts, global_idx, cfg):
        state["tolerance"] = cfg.tolerance
        return whole_call(group, "ascent")(group_ts, global_idx, cfg)

    def face_solve(*args, **kwargs):
        if state["phase"] == "ascent":
            switch("face")
        return face(*args, **kwargs)

    def coupling_refinement(*args, **kwargs):
        switch("coupling")
        return coupling(*args, **kwargs)

    def dykstra_(feas, x0, target, tol, max_iter):
        if state["phase"] == "coupling" and tol < state["tolerance"]:
            switch("polish")
        return dykstra(feas, x0, target, tol, max_iter)

    oracle.sample_fixed_action = whole_call(oracle.sample_fixed_action, "sample_fixed_action")
    oracle._maximize_group = maximize_group
    oracle._face_solve = face_solve
    oracle._coupling_refinement = coupling_refinement
    oracle._dykstra = dykstra_
    return phases


def _validate(wl, item) -> tuple[str, bool]:
    code, text = wl.call(item)
    return text, code == 0 and json.loads(text)["ok"] is True


def worker(tree: Path, task: str) -> dict:
    _import_tree(tree)
    import coherify.oracle as oracle
    import workloads

    if task == "criterion3":
        ts = _criterion3_inputs()
        cfg = oracle.OracleConfig(seed=42, restarts=3)
        oracle.maximize_purity_many(ts[:5], cfg)
        t0 = time.perf_counter()
        results = oracle.maximize_purity_many(ts, cfg)
        seconds = time.perf_counter() - t0
        return {"seconds": seconds, "purities": [float(p).hex() for _, p in results]}
    with tempfile.TemporaryDirectory() as workdir:
        if task == "reports":
            reports = []
            for seed in IDENTITY_SEEDS:
                wl = workloads.ValidateQutrit(seed, False, workdir)
                reports += [_validate(wl, item)[0] for item in wl.round(0)]
            return {"reports": reports}
        wl = workloads.ValidateQutrit(VALIDATE_SEED, False, workdir)
        _validate(wl, wl.warmup_item())
        items = wl.round(0)
        phases = _time_phases(oracle)
        t0 = time.perf_counter()
        outcomes = [_validate(wl, item) for item in items]
        seconds = time.perf_counter() - t0
    phases["other"] = seconds - sum(phases.values())
    return {"seconds": seconds, "calls": len(items),
            "failed": sum(not ok for _, ok in outcomes), "phases_s": phases}


def _run_worker(tree: Path, task: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), "--task", task]
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
    p.add_argument("--out", default="BENCH_maximizer.json")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--task", choices=("validate", "criterion3", "reports"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is not None:
        with contextlib.redirect_stdout(sys.stderr):
            result = worker(args.worker, args.task)
        print(json.dumps(result))
        return 0
    if not args.before or args.repeats < 5:
        p.error("--before is required and --repeats must be at least 5")
    import numpy as np

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        _extract(args.before, base)
        trees = {"before": base, "after": ROOT}
        runs = {name: {"validate": [], "criterion3": []} for name in trees}
        for rep in range(args.repeats):
            order = list(trees) if rep % 2 == 0 else list(reversed(trees))
            for name in order:
                for task in ("validate", "criterion3"):
                    runs[name][task].append(_run_worker(trees[name], task))
        reports = {name: _run_worker(tree, "reports")["reports"] for name, tree in trees.items()}

    validate = {"seed": VALIDATE_SEED, "round": 0}
    criterion3 = {"inputs": 1000, "restarts": 3}
    for name in trees:
        vruns = runs[name]["validate"]
        entry = _summary([r["seconds"] for r in vruns])
        entry["calls"] = sorted({r["calls"] for r in vruns})
        entry["failed"] = sorted({r["failed"] for r in vruns})
        entry["phases_median_s"] = {
            phase: statistics.median(r["phases_s"][phase] for r in vruns)
            for phase in vruns[0]["phases_s"]
        }
        validate[name] = entry
        cruns = runs[name]["criterion3"]
        criterion3[name] = _summary([r["seconds"] for r in cruns])
        criterion3[name]["purities_repeat_exactly"] = all(
            r["purities"] == cruns[0]["purities"] for r in cruns)
    for entry in (validate, criterion3):
        entry["speedup"] = entry["before"]["median_s"] / entry["after"]["median_s"]

    before_pur = [float.fromhex(h) for h in runs["before"]["criterion3"][0]["purities"]]
    after_pur = [float.fromhex(h) for h in runs["after"]["criterion3"][0]["purities"]]
    diffs = [a - b for a, b in zip(after_pur, before_pur)]
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
        "validate_qutrit_round": validate,
        "criterion3_maximize_purity_many": criterion3,
        "identity": {
            "validate_reports": {
                "seeds": list(IDENTITY_SEEDS), "round": 0,
                "compared": len(reports["after"]),
                "byte_identical": sum(a == b for a, b in zip(reports["before"], reports["after"])),
            },
            "criterion3_purities": {
                "compared": len(diffs),
                "bitwise_equal": sum(a == b for a, b in zip(after_pur, before_pur)),
                "max_gain": max(0.0, *diffs),
                "max_loss": max(0.0, *(-x for x in diffs)),
            },
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for title, entry in (("validate-qutrit round", validate),
                         ("criterion-3 maximize_purity_many", criterion3)):
        print(f"{title}: {entry['before']['median_s']:.2f} s -> {entry['after']['median_s']:.2f} s"
              f" ({entry['speedup']:.2f}x)")
    print(json.dumps(report["identity"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
