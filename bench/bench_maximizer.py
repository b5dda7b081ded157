"""Purity-maximizer benchmark: a base revision against this checkout.

Run from the root of a source checkout:

    python3 bench/bench_maximizer.py --before <git revision> --repeats 5 \
        --out BENCH_<topic>.json

The A/B machinery (the base tree's extraction, a fresh interpreter per
tree and task, the repeats alternating which tree runs first, the machine
record) is ``bench/harness.py``'s. The base revision must have
``coherify.oracle.recording``, from which every count below is read. Each
repeat times:

- one round of the perfbench ``validate-qutrit`` workload (seed 1, round 0:
  12 ``coherify validate`` calls, each report checked for exit code 0 and
  ``"ok": true``), after one untimed warm-up call on a 2x2 input, split by
  the record into the oracle's phases (the sampler's projection, its
  channel checks and the rest of it, the ascent, the final step and
  coupling) and ``other``, the rest of the round (the CLI's checks of the
  samples against the bounds), with the Newton iterations, member-steps
  and step halvings of each phase's projections;
- criterion 3's ``maximize_purity_many`` call (1000 qubit inputs drawn from
  ``default_rng(2026)``, ``OracleConfig(seed=42, restarts=3)``), after an
  untimed call on its first 5 inputs, with the Newton iterations and
  member-steps of its ascent and of its final step and each input's gap
  |mu_upper|^2 - purity;
- ``sample_fixed_action`` drawing 100 samples of a 3x3 action whose
  smallest entry is 4e-4 (``OracleConfig(seed=0)``), after an untimed call
  on a well-conditioned action; the number of samples returned is reported
  (0 if it raised).

Once per tree, outside the timed runs, one interpreter each:

- runs ``maximize_purity`` with ``OracleConfig(seed=42, restarts=4)`` on
  the dense gate actions, entries from [0.02, 1) with columns normalized:
  16 4x4 (``default_rng(500..515)``), 8 5x5 (``default_rng(505..512)``),
  one 6x6 (``default_rng(406)``) and one 8x8 (``default_rng(408)``). Each
  4x4 and 5x5 call is timed once; the 6x6 and 8x8 are warmed up, then
  timed as the median of 3 calls. Each call records its Newton work, gap
  and starts launched;
- runs ``coherify validate`` on the 8x8 action with the CLI's defaults
  (1000 samples, ``OracleConfig()``), timed once, and records the peak RSS
  of its interpreter;
- collects the 48 reports of round 0 of validate-qutrit seeds 1-4, each
  input's proven optimum (the purity of ``coherify_auto``'s channel where it
  is flagged optimal, none elsewhere), each maximized input's ascent steps,
  certified step and starts launched from the record (a record without
  ``starts``, from a revision that ran every start, counts them all), and
  the min, median and max purity
  of the samples of a direct ``sample_fixed_action`` call with the
  validate call's sample count and seed.

The report gives, per tree, the median and quartiles over the repeats and
the machine it ran on, and checks the gates. Each purity is compared per
input against a reference, the smaller of the base revision's value and
the input's proven optimum (for the dense actions |mu_upper|^2, which
bounds every feasible point): a base value above it is feasible only to the
tolerance, not a level to keep. The gates: no validate, 4x4 or 5x5 input
ends more than 1e-9 below its reference, and no 4x4 or 5x5 input falls by
more than 1e-4 against the base revision; the validate round's ascent
takes no more Newton member-steps than the base revision's; no validate
input's largest sample purity is lower than the base revision's; the 8x8
validate report is ok; criterion 3's largest gap is at most 1e-9, its
largest excess at most 1e-8, and neither its ascent nor its final step
takes more Newton iterations than the base revision's; the median 5x5 call
takes under 2 s and the 6x6 call under 10 s; the 5x5, 6x6 and 8x8 inputs
take no more Newton iterations and member-steps than the base revision's.
The counts repeat exactly; call times are reported, not gated, since
medians of two overlapping run sets read the host's drift as often as a
change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time

import harness

VALIDATE_SEED = 1
IDENTITY_SEEDS = (1, 2, 3, 4)
COUNTS = ("newton_iterations", "member_steps", "step_halvings")
TASKS = ("validate", "criterion3", "sampler")
# dense actions of the gates: (d, seeds of default_rng, timed calls per
# input); an input timed more than once is warmed up first
DENSE_GATES = {"dense4": (4, range(500, 516), 1), "dense5": (5, range(505, 513), 1),
               "dense6": (6, (406,), 3), "dense8": (8, (408,), 3)}
SMALL_ENTRY_ACTION = [[0.4043, 0.4914, 0.2938],
                      [0.4544, 0.2575, 0.7058],
                      [0.1413, 0.2511, 0.0004]]


def _criterion3_inputs():
    import numpy as np

    rng = np.random.default_rng(2026)
    ts = []
    for _ in range(1000):
        a, b = rng.uniform(0, 1, 2)
        ts.append(np.array([[a, 1 - b], [1 - a, b]]))
    return ts


def _phase_work(stats) -> dict:
    """Per phase of an ``OracleStats`` record, the Newton iterations,
    member-steps and step halvings of its projections."""
    work = {phase: dict.fromkeys(COUNTS, 0) for phase in stats.seconds}
    for proj in stats.projections:
        for key in COUNTS:
            work[proj["phase"]][key] += proj[key]
    return work


def _newton(stats) -> dict:
    """The Newton iterations and member-steps of the ascent and of the final step."""
    work = _phase_work(stats)
    return {phase: {key: work[phase][key] for key in COUNTS[:2]} for phase in ("ascent", "final")}


def _validate(wl, item) -> tuple[str, bool]:
    code, text = wl.call(item)
    return text, code == 0 and json.loads(text)["ok"] is True


def worker(task: str) -> dict:
    import numpy as np
    import coherify.oracle as oracle
    import workloads

    if task == "criterion3":
        ts = _criterion3_inputs()
        cfg = oracle.OracleConfig(seed=42, restarts=3)
        oracle.maximize_purity_many(ts[:5], cfg)
        with oracle.recording() as stats:
            t0 = time.perf_counter()
            results = oracle.maximize_purity_many(ts, cfg)
            seconds = time.perf_counter() - t0
        gaps = [i["gap"] for i in stats.inputs]
        return {"seconds": seconds, "purities": [float(p).hex() for _, p in results],
                "max_gap": max(gaps), "max_excess": max(0.0, -min(gaps)), "newton": _newton(stats)}
    if task == "sampler":
        cfg = oracle.OracleConfig(seed=0)
        oracle.sample_fixed_action(workloads.T_EXAMPLE, 100, cfg)
        t0 = time.perf_counter()
        try:
            converged = len(oracle.sample_fixed_action(np.array(SMALL_ENTRY_ACTION), 100, cfg))
        except oracle.ConvergenceFailure:
            converged = 0
        return {"seconds": time.perf_counter() - t0, "converged": converged}
    if task == "validate8":
        from coherify import cli

        m = np.random.default_rng(408).uniform(0.02, 1.0, (8, 8))
        t = m / m.sum(axis=0, keepdims=True)
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "dense8.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"dim": 8, "kind": "real", "entries": t.reshape(-1).tolist()}, fh)
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["validate", path])
            seconds = time.perf_counter() - t0
        report = json.loads(buf.getvalue())
        return {"seconds": seconds, "ok": code == 0 and report["ok"] is True,
                "samples": report["samples"], "violations": report["violations"],
                "best_purity": report["best_purity"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if task == "gates":
        cfg = oracle.OracleConfig(seed=42, restarts=4)
        oracle.maximize_purity(workloads.T_EXAMPLE, cfg)
        gates = {}
        for name, (d, seeds, calls) in DENSE_GATES.items():
            gate = gates[name] = {"purities": [], "seconds": [], "gaps": [], "starts": [],
                                  "newton": dict.fromkeys(COUNTS[:2], 0)}
            for seed in seeds:
                m = np.random.default_rng(seed).uniform(0.02, 1.0, (d, d))
                t = m / m.sum(axis=0, keepdims=True)
                if calls > 1:
                    oracle.maximize_purity(t, cfg)
                seconds, purities = [], set()
                for _ in range(calls):
                    with oracle.recording() as stats:
                        t0 = time.perf_counter()
                        purities.add(oracle.maximize_purity(t, cfg)[1])
                        seconds.append(time.perf_counter() - t0)
                if len(purities) != 1:
                    raise SystemExit(f"{name} input {seed}: purity differs between calls")
                gate["seconds"].append(statistics.median(seconds))
                gate["purities"].append(purities.pop())
                gate["gaps"].append(stats.inputs[0]["gap"])
                gate["starts"].append(stats.inputs[0].get("starts", cfg.restarts))
                for part in _newton(stats).values():
                    for key, n in part.items():
                        gate["newton"][key] += n
        return gates
    with tempfile.TemporaryDirectory() as workdir:
        if task == "reports":
            from coherify.channels import channel_purity
            from coherify.constructions import coherify_auto

            reports, optima, inputs, samples = [], [], [], []
            budget = oracle.OracleConfig().restarts
            with oracle.recording() as stats:
                for seed in IDENTITY_SEEDS:
                    wl = workloads.ValidateQutrit(seed, False, workdir)
                    for item in wl.round(0):
                        reports.append(_validate(wl, item)[0])
                        inputs.append(f"seed {seed} {item[0]} --seed {item[2]}")
                        with open(item[1], encoding="utf-8") as fh:
                            t = np.array(json.load(fh)["entries"]).reshape(3, 3)
                        res = coherify_auto(t)
                        optima.append(channel_purity(res.channel) if res.optimal else None)
                        p = [channel_purity(ch) for ch in oracle.sample_fixed_action(
                            t, wl.samples, oracle.OracleConfig(seed=item[2]))]
                        samples.append({"min": min(p), "median": statistics.median(p),
                                        "max": max(p)})
            certificates = [{"ascent_steps": i["ascent_steps"], "certified_step": i["certified_step"],
                             "starts": i.get("starts", budget)} for i in stats.inputs]
            return {"reports": reports, "proven_optima": optima, "inputs": inputs,
                    "certificates": certificates, "sample_purities": samples}
        wl = workloads.ValidateQutrit(VALIDATE_SEED, False, workdir)
        _validate(wl, wl.warmup_item())
        items = wl.round(0)
        with oracle.recording() as stats:
            t0 = time.perf_counter()
            outcomes = [_validate(wl, item) for item in items]
            seconds = time.perf_counter() - t0
    phases = dict(stats.seconds, other=seconds - sum(stats.seconds.values()))
    return {"seconds": seconds, "calls": len(items),
            "failed": sum(not ok for _, ok in outcomes), "phases_s": phases,
            "phases_work": _phase_work(stats)}


def _certificates(collected: dict) -> dict:
    """The validate inputs whose ascent reached mu_upper . mu_upper, each
    with the ascent step at which it did and the ascent's length, and the
    starts each input launched."""
    calls = collected["certificates"]
    return {
        "inputs": len(calls),
        "certified": sum(c["certified_step"] is not None for c in calls),
        "ascent_steps": sum(c["ascent_steps"] for c in calls),
        "starts": [c["starts"] for c in calls],
        "certified_inputs": [{"input": name, **c} for name, c in zip(collected["inputs"], calls)
                             if c["certified_step"] is not None],
    }


def _deltas(before: list[float], after: list[float]) -> dict:
    diffs = [a - b for a, b in zip(after, before)]
    return {"compared": len(diffs), "bitwise_equal": sum(d == 0.0 for d in diffs),
            "sum": sum(diffs), "min": min(diffs), "max": max(diffs)}


def compare(run, trees: dict, repeats: int) -> dict:
    runs = harness.alternate(run, trees, TASKS, repeats)
    collected = {name: run(tree, "reports") for name, tree in trees.items()}
    reports = {name: collected[name]["reports"] for name in trees}
    gates = {name: run(tree, "gates") for name, tree in trees.items()}
    validate8 = {name: run(tree, "validate8") for name, tree in trees.items()}

    timings = {
        "validate_qutrit_round": {"seed": VALIDATE_SEED, "round": 0},
        "criterion3_maximize_purity_many": {"inputs": 1000, "restarts": 3},
        "small_entry_sampler": {"samples": 100, "min_entry": 4e-4},
    }
    for name in trees:
        vruns = runs[name]["validate"]
        entry = harness.summary([r["seconds"] for r in vruns])
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
        entry = harness.summary([r["seconds"] for r in cruns])
        entry["purities_repeat_exactly"] = all(r["purities"] == cruns[0]["purities"] for r in cruns)
        entry["newton"] = cruns[0]["newton"]
        entry["newton_repeats_exactly"] = all(r["newton"] == cruns[0]["newton"] for r in cruns)
        timings["criterion3_maximize_purity_many"][name] = entry
        sruns = runs[name]["sampler"]
        entry = harness.summary([r["seconds"] for r in sruns])
        entry["converged"] = sorted({r["converged"] for r in sruns})
        timings["small_entry_sampler"][name] = entry
    for entry in timings.values():
        entry["speedup"] = entry["before"]["median_s"] / entry["after"]["median_s"]

    parsed = {name: [json.loads(text) for text in reports[name]] for name in trees}
    best = {name: [r["best_purity"] for r in parsed[name]] for name in trees}
    # each input's reference: the base revision's value, capped at the proven optimum
    optima = collected["after"]["proven_optima"]
    references = [before if opt is None else min(before, opt)
                  for before, opt in zip(best["before"], optima)]
    c3 = {name: runs[name]["criterion3"][0] for name in trees}
    report = {
        **timings,
        "validate_dense8": {"input": "default_rng(408)", **validate8},
        "purity": {
            "validate_reports": {
                "seeds": list(IDENTITY_SEEDS), "round": 0,
                "byte_identical": sum(a == b for a, b in zip(reports["before"], reports["after"])),
                "all_ok": {name: all(r["ok"] is True for r in parsed[name]) for name in trees},
                "violations_differ": sum(a["violations"] != b["violations"]
                                         for a, b in zip(parsed["before"], parsed["after"])),
                "best_purity_sum": {name: sum(best[name]) for name in trees},
                "best_purity_delta": _deltas(best["before"], best["after"]),
                "proven_optima": sum(o is not None for o in optima),
                "worst_below_reference": min(
                    after - reference for after, reference in zip(best["after"], references)),
                "certificates": {name: _certificates(collected[name]) for name in trees},
                "sample_purities": [
                    {"input": name, **{tree: collected[tree]["sample_purities"][i] for tree in trees}}
                    for i, name in enumerate(collected["after"]["inputs"])],
                # how many inputs' samples span less than the base revision's at each end
                "sample_max_below_base": sum(
                    a["max"] < b["max"] for a, b in zip(collected["after"]["sample_purities"],
                                                        collected["before"]["sample_purities"])),
                "sample_min_above_base": sum(
                    a["min"] > b["min"] for a, b in zip(collected["after"]["sample_purities"],
                                                        collected["before"]["sample_purities"])),
            },
            "criterion3": {
                "purity_delta": _deltas(*([float.fromhex(h) for h in c3[name]["purities"]]
                                          for name in ("before", "after"))),
                "max_gap_below_mu_upper_sq": {name: c3[name]["max_gap"] for name in trees},
                "max_excess_over_mu_upper_sq": {name: c3[name]["max_excess"] for name in trees},
            },
            **{
                gate: {
                    "inputs": len(gates["after"][gate]["purities"]),
                    "restarts": 4,
                    "purity_sum": {name: sum(gates[name][gate]["purities"]) for name in trees},
                    "purity_delta": _deltas(gates["before"][gate]["purities"],
                                            gates["after"][gate]["purities"]),
                    # each input's reference: the base revision's value, capped at
                    # mu_upper^2, the purity plus its recorded gap
                    "worst_below_reference": min(
                        after - min(before, after + gap) for before, after, gap in zip(
                            gates["before"][gate]["purities"], gates["after"][gate]["purities"],
                            gates["after"][gate]["gaps"])),
                    "max_gap_below_mu_upper_sq": {name: max(gates[name][gate]["gaps"])
                                                  for name in trees},
                    "median_call_s": {
                        name: statistics.median(gates[name][gate]["seconds"]) for name in trees},
                    "calls_s": {name: gates[name][gate]["seconds"] for name in trees},
                    "newton": {name: gates[name][gate]["newton"] for name in trees},
                    "starts": {name: gates[name][gate]["starts"] for name in trees},
                }
                for gate in DENSE_GATES
            },
        },
    }
    dense = {gate: report["purity"][gate] for gate in DENSE_GATES}
    calls = {gate: dense[gate]["median_call_s"] for gate in DENSE_GATES}
    newton = {gate: dense[gate]["newton"] for gate in DENSE_GATES}
    ascent = {name: timings["validate_qutrit_round"][name]["phases_work"]["ascent"]
              ["member_steps"] for name in trees}
    c3_newton = {name: {part: timings["criterion3_maximize_purity_many"][name]["newton"][part]
                        ["newton_iterations"] for part in ("ascent", "final")} for name in trees}
    sample_max = {name: [s["max"] for s in collected[name]["sample_purities"]] for name in trees}
    report["purity"]["gates_hold"] = {
        "validate_worst_input": report["purity"]["validate_reports"]["worst_below_reference"]
        >= -1e-9,
        "validate_ascent_member_steps_no_more": ascent["after"] <= ascent["before"],
        "criterion3_gap": c3["after"]["max_gap"] <= 1e-9,
        "criterion3_excess": c3["after"]["max_excess"] <= 1e-8,
        **{f"criterion3_{part}_newton_iterations_no_more":
           c3_newton["after"][part] <= c3_newton["before"][part] for part in ("ascent", "final")},
        "validate_sample_max_purity_no_lower": all(
            a >= b for a, b in zip(sample_max["after"], sample_max["before"])),
        "validate8_ok": validate8["after"]["ok"],
        **{f"{gate}_{check}": ok for gate in ("dense4", "dense5") for check, ok in (
            ("worst_below_reference", dense[gate]["worst_below_reference"] >= -1e-9),
            ("worst_input", dense[gate]["purity_delta"]["min"] >= -1e-4))},
        "dense5_median_call_under_2s": calls["dense5"]["after"] < 2.0,
        "dense6_call_under_10s": calls["dense6"]["after"] < 10.0,
        **{f"{gate}_{key}_no_more": newton[gate]["after"][key] <= newton[gate]["before"][key]
           for gate in ("dense5", "dense6", "dense8")
           for key in ("newton_iterations", "member_steps")},
    }
    return report


def show(report: dict) -> None:
    for title in ("validate_qutrit_round", "criterion3_maximize_purity_many", "small_entry_sampler"):
        entry = report[title]
        print(f"{title}: {entry['before']['median_s']:.3f} s -> {entry['after']['median_s']:.3f} s"
              f" ({entry['speedup']:.2f}x)")
    validate8 = report["validate_dense8"]
    print(f"validate_dense8: {validate8['before']['seconds']:.1f} s -> "
          f"{validate8['after']['seconds']:.1f} s, peak RSS {validate8['before']['peak_rss_mb']:.0f} "
          f"-> {validate8['after']['peak_rss_mb']:.0f} MB")
    c3 = report["criterion3_maximize_purity_many"]
    print("criterion3 Newton iterations: ascent {} -> {}, final projection {} -> {}".format(
        *(c3[name]["newton"][part]["newton_iterations"]
          for part in ("ascent", "final") for name in ("before", "after"))))
    print(json.dumps(report["purity"], indent=2))


if __name__ == "__main__":
    sys.exit(harness.main(__file__, __doc__, TASKS + ("gates", "reports", "validate8"),
                          worker, compare, show))
