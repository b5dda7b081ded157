"""Unitary-witness search benchmark: a base revision against this checkout.

Run from the root of a source checkout:

    python3 bench/bench_witness.py --before <git revision> --repeats 5 --out BENCH_lmwitness.json

The A/B machinery (the base tree's extraction, a fresh interpreter per
tree and task, the repeats alternating which tree runs first, the machine
record) is ``bench/harness.py``'s. Each repeat times, on each tree:

- ``oracle.search_unistochastic_witness`` with the default ``OracleConfig``
  on five inputs: a permuted blockdiag(flat off-diagonal 3x3, 1) that no
  restart can solve (``capped``), a d = 5 permutation solved by restart 0,
  the 5x5 van der Waerden matrix solved by restart 1, |U|^2 of a Haar
  unitary solved only by a random restart (``late``), and the permuted
  kron of 2x2 bistochastic matrices from round 0 of classify-construct;
- one round of the perfbench ``classify-construct`` workload (``classify``,
  ``coherify_auto``, ``compute_bounds``, ``diagnostics_report`` on each of
  its 37 inputs, every result checked);
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
gives, per tree, the median and quartiles over the repeats, each search
input's found / not-found result, the corpus's found count per d, and the
machine it ran on. It no longer has a ``base_search`` variant (this tree
with the base revision's search parsed out of its ``oracle.py`` and swapped
in): nothing gated on it, and it broke whenever the search moved or renamed
what it calls.
"""

from __future__ import annotations

import json
import sys
import time

import harness

ROUND_SEED = 11
HAAR_CORPUS = ((4, 50), (5, 50), (6, 20))    # (d, inputs)
TASKS = ("round", "search", "corpus")


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


def worker(task: str) -> dict:
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


def compare(run, trees: dict, repeats: int) -> dict:
    runs = harness.alternate(run, trees, TASKS, repeats)

    def found(task: str, key: str) -> dict:
        entry = {}
        for side in trees:
            side_runs = [r[key] for r in runs[side][task]]
            entry[side] = harness.summary([r["seconds"] for r in side_runs])
            entry[side]["found"] = sorted({r["found"] for r in side_runs})
        entry["speedup"] = entry["before"]["median_s"] / entry["after"]["median_s"]
        return entry

    corpus = runs["after"]["corpus"][0]
    report = {"search": {name: found("search", name) for name in runs["after"]["search"][0]},
              "classify_construct_round": {"seed": ROUND_SEED, "round": 0},
              "haar_corpus": {d: {"inputs": corpus[d]["inputs"], **found("corpus", d)}
                              for d in corpus}}
    for side in trees:
        side_runs = runs[side]["round"]
        entry = harness.summary([r["seconds"] for r in side_runs])
        entry.update({k: sorted({r[k] for r in side_runs}) for k in ("inputs", "failed", "unknown")})
        report["classify_construct_round"][side] = entry
    return report


def show(report: dict) -> None:
    print(json.dumps({k: v for k, v in report.items() if k not in ("search", "haar_corpus")},
                     indent=2))
    for d, entry in report["haar_corpus"].items():
        print(f"Haar d = {d}: found {entry['before']['found']} -> {entry['after']['found']}"
              f" of {entry['inputs']}, {entry['before']['median_s']:.2f} s ->"
              f" {entry['after']['median_s']:.2f} s")
    for name, entry in report["search"].items():
        print(f"{name}: {entry['before']['median_s']:.4f} s -> {entry['after']['median_s']:.4f} s"
              f" ({entry['speedup']:.1f}x)")


if __name__ == "__main__":
    sys.exit(harness.main(__file__, __doc__, TASKS, worker, compare, show))
