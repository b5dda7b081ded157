"""coherify benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload validate-qutrit --seed 1 --seconds 50 --trace 0

It imports coherify from ``src/`` of the checkout and fails without it. With
``--trace 0`` it runs rounds of the workload untraced for about
``--seconds``, measures ``setup_s`` in fresh interpreters before and after
them, and reports the end-to-end metrics. With ``--trace 1`` it runs the
workload's trace items (round 0, or one pass of it) once untraced and twice
traced (see tracing.py), checks that every count repeats exactly, and
reports the per-layer metrics and the tracing overhead. ``--smoke`` shrinks
every workload to a tiny size and asserts that each metric named in
BENCHMARK.json is emitted with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a JSON report with
the seed, the run environment, ``error_rate``, ``verdict_unknown_rate``,
sample counts and the full per-function trace table precedes it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_UNITS = {
    "setup_s": "s",
    "throughput_inputs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "purity_attained_ratio": "ratio",
    "peak_rss_mb": "MB",
}
STAT_UNITS = {"self_s": "s", "flops_computed": "flop"}
TRACE_OVERHEAD = "bench.trace_overhead_s"
P90_MIN_SAMPLES = 100    # report p90 only with at least 10 samples beyond it


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with a nonzero exit."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "COHERIFY_THREADS": os.environ.get("COHERIFY_THREADS"),
    }


def import_program():
    """Import coherify from this checkout's src/, never from elsewhere."""
    if not (SRC / "coherify" / "__init__.py").is_file():
        raise BenchError(f"no coherify sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coherify

    if Path(coherify.__file__).resolve().parent != (SRC / "coherify").resolve():
        raise BenchError(f"imported coherify from {coherify.__file__}, not from {SRC}")
    import workloads

    return workloads


def load_spec() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(spec: dict) -> dict:
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def per_layer_unit(name: str, span_names) -> str:
    """Unit of a ``<layer>.<function>.<stat>`` metric; raises if it names nothing traced."""
    from tracing import stat_names

    if name == TRACE_OVERHEAD:
        return "s"
    span, _, stat = name.rpartition(".")
    if span not in span_names or stat not in stat_names(span):
        raise BenchError(f"per-layer metric {name} names no traced function and stat")
    return STAT_UNITS.get(stat, "count")


# ---------------------------------------------------------------------------
# running rounds
# ---------------------------------------------------------------------------


class Tally:
    """Totals over the unit calls of a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.purity = self.purity_bound = 0.0
        self.classify_calls = self.unknown = 0
        self.latencies: list[float] = []
        self.busy_s = 0.0
        self.problems: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += 1
        self.failed += outcome.failed
        self.purity += outcome.purity
        self.purity_bound += outcome.purity_bound
        self.classify_calls += outcome.classify_calls
        self.unknown += outcome.unknown
        if outcome.failed and len(self.problems) < 5:
            self.problems.append(outcome.detail)


def run_item(wl, item, tally: Tally) -> None:
    """One unit call, timed, then its checks. Any exception fails its input."""
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        result = wl.call(item)
    except Exception:
        tally.latencies.append(time.perf_counter() - t0)
        tally.add(Outcome(failed=1, detail=traceback.format_exc(limit=3)))
        return
    tally.latencies.append(time.perf_counter() - t0)
    try:
        outcome = wl.check(item, result)
    except Exception:
        outcome = Outcome(failed=1, detail=traceback.format_exc(limit=3))
    tally.add(outcome)


def run_round(wl, items, tally: Tally) -> float:
    t0 = time.perf_counter()
    for item in items:
        run_item(wl, item, tally)
    elapsed = time.perf_counter() - t0
    tally.busy_s += elapsed
    return elapsed


def warm_up(wl) -> None:
    tally = Tally()
    run_item(wl, wl.warmup_item(), tally)
    if tally.failed:
        raise BenchError(f"warm-up call failed: {tally.problems}")


def setup_probe(args) -> dict:
    """Child side of setup_s: import, build the workload, finish the warm-up call."""
    workloads = import_program()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        warm_up(wl)
    return {"warm_up_done": _now()}


def measure_setup(args, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first completed warm-up call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(probes):
        t0 = _now()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["warm_up_done"] - t0)
    return out


def untraced(wl, args) -> tuple[dict, Tally, dict]:
    # Half the set-up probes run before the rounds and half after, so that
    # their median spans the run rather than one stretch of a shared host.
    probes = 1 if args.smoke else SETUP_PROBES
    setups = measure_setup(args, (probes + 1) // 2)
    warm_up(wl)
    tally = Tally()
    start = time.perf_counter()
    rounds = 0
    while True:
        items = wl.round(rounds)
        run_round(wl, items, tally)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:
            break
    setups += measure_setup(args, probes // 2)
    lat_ms = np.asarray(tally.latencies) * 1e3
    p50, p90 = np.percentile(lat_ms, [50, 90])
    samples = len(tally.latencies)
    metrics = {
        "setup_s": float(np.median(setups)),
        "throughput_inputs_per_s": tally.attempted / tally.busy_s,
        "latency_p50_ms": float(p50),
        "purity_attained_ratio": tally.purity / tally.purity_bound,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "rounds": rounds,
        "latency_samples": samples,
        "report_only": {
            "latency_p90_ms": {"value": float(p90) if samples >= P90_MIN_SAMPLES else None,
                               "unit": "ms", "samples": samples},
        },
        "latencies_ms": [round(x, 3) for x in lat_ms.tolist()],
        "busy_s": tally.busy_s,
        "setup_s_samples": setups,
    }
    return metrics, tally, info


def traced(wl, names) -> tuple[dict, Tally, dict]:
    import workloads
    from tracing import COUNTERS, Tracer, counts_only

    warm_up(wl)
    items = wl.trace_items()
    tally = Tally()
    untraced_s = run_round(wl, items, tally)
    summaries, traced_s = [], []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
        try:
            traced_s.append(run_round(wl, items, tally))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
    repeat_ok = counts_only(summaries[0]) == counts_only(summaries[1])
    if not repeat_ok:
        tally.problems.append("per-layer counts differ between two traced runs")
    summary = {
        name: {k: (v + summaries[1][name]["self_s"]) / 2 if k == "self_s" else v
               for k, v in row.items()}
        for name, row in summaries[0].items()
        if name in summaries[1]
    }
    metrics = {}
    for name in names:
        if name == TRACE_OVERHEAD:
            metrics[name] = float(np.mean(traced_s)) - untraced_s
            continue
        span, _, stat = name.rpartition(".")
        metrics[name] = summary.get(span, {}).get(stat, 0)
    info = {
        "counts_repeat": repeat_ok,
        "computed_from_shapes": [f"linalg.eigh.{k}" for k in COUNTERS["linalg.eigh"][1]]
        + ["linalg.eigvalsh.matrices"],
        "trace_overhead_ratio": float(np.mean(traced_s)) / untraced_s - 1.0,
        "untraced_round_s": untraced_s,
        "traced_round_s": traced_s,
        "spans_per_traced_run": len(tracer.spans),
        "trace_table": dict(sorted(summary.items())),
    }
    return metrics, tally, info


def run(args) -> int:
    env = environment()
    os.environ.pop("COHERIFY_THREADS", None)   # always the default: one thread
    workloads = import_program()
    if args.setup_probe:
        print(json.dumps(setup_probe(args)))
        return 0
    from tracing import span_names

    spec = load_spec()
    declared = declared_metrics(spec)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys or args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")
    traced_names = set(span_names())
    units = dict(E2E_UNITS) if args.trace == 0 else {
        name: per_layer_unit(name, traced_names) for name in declared[1]
    }
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        if args.trace:
            metrics, tally, info = traced(wl, declared[1])
        else:
            metrics, tally, info = untraced(wl, args)

    missing = [n for n in declared[args.trace] if n not in metrics]
    wrong_unit = [n for n, u in declared[args.trace].items() if units.get(n) != u]
    if missing or wrong_unit:
        raise BenchError(f"metrics missing {missing}, units differ {wrong_unit}")
    report_only = info.pop("report_only", {})
    report = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        **info,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        # not in BENCHMARK.json: each is 0, undefined or from too few samples
        # on some workload
        "report_only_metrics": {
            **report_only,
            "error_rate": {"value": tally.failed / tally.attempted, "unit": "ratio"},
            "verdict_unknown_rate": {
                "value": tally.unknown / tally.classify_calls if tally.classify_calls else None,
                "unit": "ratio",
                "classify_calls": tally.classify_calls,
            },
        },
    }
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in declared[args.trace].items()},
    }
    print(json.dumps(report, indent=1, default=float))
    print(json.dumps(result))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs; for the tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
