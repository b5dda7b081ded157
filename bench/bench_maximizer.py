"""Purity-maximizer benchmark: a base revision against this checkout.

Run from the root of a source checkout:

    python3 bench/bench_maximizer.py --before <git revision> --repeats 5 --out BENCH_warmstart.json

The base revision's tree is extracted with ``git archive`` into a temporary
directory. Each repeat starts one fresh interpreter per tree and task,
alternating which tree runs first, and times:

- one round of the perfbench ``validate-qutrit`` workload (seed 1, round 0:
  12 ``coherify validate`` calls, each report checked for exit code 0 and
  ``"ok": true``), after one untimed warm-up call on a 2x2 input;
- criterion 3's ``maximize_purity_many`` call (1000 qubit inputs drawn from
  ``default_rng(2026)``, ``OracleConfig(seed=42, restarts=3)``), after an
  untimed call on its first 5 inputs;
- the projection of ``sample_fixed_action``'s 100 starts for a 3x3 action
  whose smallest entry is 4e-4 (``OracleConfig(seed=0)``: tolerance 1e-7,
  2000 iterations), after an untimed projection of a well-conditioned
  action; the number of starts that converged is reported;
- ``maximize_purity`` on a dense 4x4 action (``default_rng(404)``, entries
  from [0.02, 1), columns normalized) with ``OracleConfig(seed=42,
  restarts=4)``.

The validate round is also split into phases by wrapping oracle functions:
``sample_fixed_action``; and inside ``_maximize_group`` the ascent (up to
the first ``_face_solve`` call), the face refinement (up to the first
``_coupling_refinement`` call), the coupling stage (up to the first
projection with a tolerance below the config's, which is the final polish)
and the polish. The projection is ``_project``, or ``_dykstra`` in trees
that predate it; the wrapper passes on whatever arguments it is given and
whatever it returns. ``other`` is the rest of the round: the CLI's checks of
the samples against the bounds. Each phase also counts the matrices
``np.linalg.eigh`` decomposed and the linear systems ``np.linalg.solve``
solved in it (the Newton systems of the projection; 0 in Dykstra trees).

Once per tree, outside the timed runs, the 48 reports of round 0 of
validate-qutrit seeds 1-4 are collected. The report counts how many are
byte-identical between the trees and gives the per-input change of
``best_purity`` (sum, min, max). For criterion 3 it counts the bitwise equal
purities and gives each tree's largest gap below mu_upper . mu_upper and
largest excess above it. The report gives, per tree, the median and
quartiles over the repeats and the machine it ran on, and checks the purity
gates: no validate input falls by more than 1e-6 and their sum by no more
than 1e-7; criterion 3's largest gap is at most 1e-9 and its largest excess
at most 1e-8; the dense 4x4 purity falls by no more than 1e-6.
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
TASKS = ("validate", "criterion3", "sampler", "dense4")
SMALL_ENTRY_ACTION = [[0.4043, 0.4914, 0.2938],
                      [0.4544, 0.2575, 0.7058],
                      [0.1413, 0.2511, 0.0004]]


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


def _projection(oracle):
    """The projection onto the feasible set and its name in this tree."""
    name = "_project" if hasattr(oracle, "_project") else "_dykstra"
    return name, getattr(oracle, name)


def _time_phases(oracle) -> tuple[dict, dict]:
    """Wrap oracle functions so that time and linear-algebra work are added
    to the phase running; work outside every phase goes to ``other``."""
    import numpy as np

    phases = dict.fromkeys(PHASES, 0.0)
    work = {phase: {"eigh_matrices": 0, "newton_systems": 0} for phase in PHASES + ("other",)}
    state = {"phase": None, "since": 0.0, "tolerance": 0.0}

    def counted(fn, key):
        def wrapped(a, *args, **kwargs):
            work[state["phase"] or "other"][key] += int(np.prod(np.shape(a)[:-2]))
            return fn(a, *args, **kwargs)
        return wrapped

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

    group, face, coupling = oracle._maximize_group, oracle._face_solve, oracle._coupling_refinement
    projection_name, projection = _projection(oracle)

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

    def project(feas, x0, target, tol, *args, **kwargs):
        if state["phase"] == "coupling" and tol < state["tolerance"]:
            switch("polish")
        return projection(feas, x0, target, tol, *args, **kwargs)

    oracle.sample_fixed_action = whole_call(oracle.sample_fixed_action, "sample_fixed_action")
    oracle._maximize_group = maximize_group
    oracle._face_solve = face_solve
    oracle._coupling_refinement = coupling_refinement
    setattr(oracle, projection_name, project)
    np.linalg.eigh = counted(np.linalg.eigh, "eigh_matrices")
    np.linalg.solve = counted(np.linalg.solve, "newton_systems")
    return phases, work


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
        from coherify.bounds import mu_upper

        gaps = [float(mu_upper(t) @ mu_upper(t)) - p for t, (_, p) in zip(ts, results)]
        return {"seconds": seconds, "purities": [float(p).hex() for _, p in results],
                "max_gap": max(gaps), "max_excess": max(0.0, -min(gaps))}
    if task == "sampler":
        import numpy as np

        _, projection = _projection(oracle)
        cfg = oracle.OracleConfig(seed=0)

        def project_starts(t):
            feas = oracle._FeasibleSet.for_action(t)
            target = feas.target(t)
            x0 = np.stack([feas.random_start(target, oracle._rng(cfg.seed, i)) for i in range(100)])
            t0 = time.perf_counter()
            ok = projection(feas, x0, target, cfg.tolerance, cfg.max_iterations)[1]
            return time.perf_counter() - t0, ok

        project_starts(workloads.T_EXAMPLE)
        seconds, ok = project_starts(np.array(SMALL_ENTRY_ACTION))
        return {"seconds": seconds, "converged": int(ok.sum())}
    if task == "dense4":
        import numpy as np

        m = np.random.default_rng(404).uniform(0.02, 1.0, (4, 4))
        t = m / m.sum(axis=0, keepdims=True)
        t0 = time.perf_counter()
        _, purity = oracle.maximize_purity(t, oracle.OracleConfig(seed=42, restarts=4))
        return {"seconds": time.perf_counter() - t0, "purity": purity}
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
        phases, work = _time_phases(oracle)
        t0 = time.perf_counter()
        outcomes = [_validate(wl, item) for item in items]
        seconds = time.perf_counter() - t0
    phases["other"] = seconds - sum(phases.values())
    return {"seconds": seconds, "calls": len(items),
            "failed": sum(not ok for _, ok in outcomes), "phases_s": phases, "phases_work": work}


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


def _deltas(before: list[float], after: list[float]) -> dict:
    diffs = [a - b for a, b in zip(after, before)]
    return {"compared": len(diffs), "bitwise_equal": sum(d == 0.0 for d in diffs),
            "sum": sum(diffs), "min": min(diffs), "max": max(diffs)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--before", help="git revision to compare against")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", default="BENCH_warmstart.json")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--task", choices=TASKS + ("reports",), help=argparse.SUPPRESS)
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
        runs = {name: {task: [] for task in TASKS} for name in trees}
        for rep in range(args.repeats):
            order = list(trees) if rep % 2 == 0 else list(reversed(trees))
            for name in order:
                for task in TASKS:
                    runs[name][task].append(_run_worker(trees[name], task))
        reports = {name: _run_worker(tree, "reports")["reports"] for name, tree in trees.items()}

    timings = {
        "validate_qutrit_round": {"seed": VALIDATE_SEED, "round": 0},
        "criterion3_maximize_purity_many": {"inputs": 1000, "restarts": 3},
        "small_entry_sampler_projection": {"samples": 100, "min_entry": 4e-4},
        "dense4_maximize_purity": {"restarts": 4},
    }
    for name in trees:
        vruns = runs[name]["validate"]
        entry = _summary([r["seconds"] for r in vruns])
        entry["calls"] = sorted({r["calls"] for r in vruns})
        entry["failed"] = sorted({r["failed"] for r in vruns})
        entry["phases_median_s"] = {
            phase: statistics.median(r["phases_s"][phase] for r in vruns)
            for phase in vruns[0]["phases_s"]
        }
        entry["phases_work"] = vruns[0]["phases_work"]
        entry["phases_work_repeat_exactly"] = all(
            r["phases_work"] == vruns[0]["phases_work"] for r in vruns)
        timings["validate_qutrit_round"][name] = entry
        cruns = runs[name]["criterion3"]
        entry = _summary([r["seconds"] for r in cruns])
        entry["purities_repeat_exactly"] = all(r["purities"] == cruns[0]["purities"] for r in cruns)
        timings["criterion3_maximize_purity_many"][name] = entry
        sruns = runs[name]["sampler"]
        entry = _summary([r["seconds"] for r in sruns])
        entry["converged"] = sorted({r["converged"] for r in sruns})
        timings["small_entry_sampler_projection"][name] = entry
        druns = runs[name]["dense4"]
        entry = _summary([r["seconds"] for r in druns])
        entry["purity"] = sorted({r["purity"] for r in druns})
        timings["dense4_maximize_purity"][name] = entry
    for entry in timings.values():
        entry["speedup"] = entry["before"]["median_s"] / entry["after"]["median_s"]

    best = {name: [json.loads(text)["best_purity"] for text in reports[name]] for name in trees}
    c3 = {name: runs[name]["criterion3"][0] for name in trees}
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
        **timings,
        "purity": {
            "validate_reports": {
                "seeds": list(IDENTITY_SEEDS), "round": 0,
                "byte_identical": sum(a == b for a, b in zip(reports["before"], reports["after"])),
                "best_purity_sum": {name: sum(best[name]) for name in trees},
                "best_purity_delta": _deltas(best["before"], best["after"]),
            },
            "criterion3": {
                "purity_delta": _deltas(*([float.fromhex(h) for h in c3[name]["purities"]]
                                          for name in ("before", "after"))),
                "max_gap_below_mu_upper_sq": {name: c3[name]["max_gap"] for name in trees},
                "max_excess_over_mu_upper_sq": {name: c3[name]["max_excess"] for name in trees},
            },
        },
    }
    validate_delta = report["purity"]["validate_reports"]["best_purity_delta"]
    dense4 = {name: runs[name]["dense4"][0]["purity"] for name in trees}
    report["purity"]["gates_hold"] = {
        "validate_worst_input": validate_delta["min"] >= -1e-6,
        "validate_sum": validate_delta["sum"] >= -1e-7,
        "criterion3_gap": c3["after"]["max_gap"] <= 1e-9,
        "criterion3_excess": c3["after"]["max_excess"] <= 1e-8,
        "dense4": dense4["after"] >= dense4["before"] - 1e-6,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for title, entry in timings.items():
        print(f"{title}: {entry['before']['median_s']:.3f} s -> {entry['after']['median_s']:.3f} s"
              f" ({entry['speedup']:.2f}x)")
    print(json.dumps(report["purity"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
