"""Command-line front end.

Subcommands: classify, coherify, bounds, diagnose, validate. Matrices are
read from JSON ({"dim": d, "kind": "real"|"complex", "entries": row-major,
complex entries as [re, im] pairs}) or CSV (rows of comma-separated reals).
Every matrix file, each Kraus file of diagnose included, is capped at
dimension 8. Transition matrices are column stochastic on input; pass
--row-stochastic to transpose on ingest. Reports are JSON on stdout with
numeric fields printed to 12 significant digits; identical inputs and seeds
give byte-identical output.

Exit codes: 0 ok, 2 parse error, 3 invalid matrix, 4 method precondition
failed, 5 not trace preserving, 6 bound violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import channels as ch_mod
from . import constructions as con_mod
from . import diagnostics as diag_mod
from . import oracle as oracle_mod
from . import stochastic as st_mod
from .errors import CoherifyError, DimensionMismatch, NotTracePreserving

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_PRECONDITION = 4
EXIT_NOT_TP = 5
EXIT_BOUND_VIOLATION = 6

MAX_CLI_DIM = 8


class _ParseError(Exception):
    pass


class _InvalidMatrix(Exception):
    pass


# ---------------------------------------------------------------------------
# matrix I/O
# ---------------------------------------------------------------------------


def read_matrix(path: str, fmt: str | None = None) -> np.ndarray:
    """Read a square matrix file of dimension at most MAX_CLI_DIM; returns a
    complex or float ndarray."""
    if fmt is None:
        fmt = "csv" if path.lower().endswith(".csv") else "json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _ParseError(f"cannot read {path}: {exc}") from exc
    m = _parse_csv(text, path) if fmt == "csv" else _parse_json(text, path)
    if m.shape[0] > MAX_CLI_DIM:
        raise _InvalidMatrix(f"dimension {m.shape[0]} exceeds CLI limit {MAX_CLI_DIM}")
    return m


def _parse_csv(text: str, path: str) -> np.ndarray:
    rows = []
    for line in text.strip().splitlines():
        if not line.strip():
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise _ParseError(f"{path}: bad CSV value ({exc})") from exc
    if not rows:
        raise _ParseError(f"{path}: empty CSV")
    if len({len(r) for r in rows}) != 1:
        raise _InvalidMatrix(f"{path}: ragged CSV rows")
    m = np.asarray(rows, dtype=np.float64)
    if m.shape[0] != m.shape[1]:
        raise _InvalidMatrix(f"{path}: matrix is {m.shape[0]}x{m.shape[1]}, not square")
    return m


def _parse_json(text: str, path: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _ParseError(f"{path}: invalid JSON ({exc})") from exc
    try:
        d = int(obj["dim"])
        kind = obj.get("kind", "real")
        entries = obj["entries"]
        if d != obj["dim"] or d < 0 or not isinstance(entries, list):
            raise ValueError("dim must be a whole number >= 0 and entries a list")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _ParseError(f"{path}: expected object with dim/kind/entries") from exc
    if kind not in ("real", "complex"):
        raise _ParseError(f"{path}: kind must be 'real' or 'complex'")
    if len(entries) != d * d:
        raise _InvalidMatrix(f"{path}: expected {d * d} entries, got {len(entries)}")
    try:
        if kind == "real":
            m = np.asarray([float(e) for e in entries], dtype=np.float64)
        else:
            m = np.asarray(
                [complex(float(e[0]), float(e[1])) for e in entries], dtype=np.complex128
            )
    except (TypeError, ValueError, IndexError) as exc:
        raise _InvalidMatrix(f"{path}: bad entry ({exc})") from exc
    m = m.reshape(d, d)
    if not (np.all(np.isfinite(np.asarray(m).real)) and np.all(np.isfinite(np.asarray(m).imag))):
        raise _InvalidMatrix(f"{path}: non-finite entries")
    return m


def _read_real(path: str, fmt: str | None, row_stochastic: bool) -> np.ndarray:
    m = read_matrix(path, fmt)
    if np.iscomplexobj(m):
        if np.any(m.imag != 0):
            raise _InvalidMatrix(f"{path}: transition matrix must be real")
        m = m.real
    return m.T if row_stochastic else m


def _load_transition(path: str, fmt: str | None, row_stochastic: bool) -> np.ndarray:
    return st_mod.assert_transition_matrix(_read_real(path, fmt, row_stochastic))


# ---------------------------------------------------------------------------
# deterministic JSON with 12 significant digits
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in report")
    if x == 0.0:
        return "0"
    return format(x, ".12g")


def dumps_report(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {dumps_report(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        inner = [dumps_report(v, indent + 1) for v in obj]
        flat = "[" + ", ".join(inner) + "]"
        if len(flat) <= 100 and "\n" not in flat:
            return flat
        return "[\n" + ",\n".join("  " * (indent + 1) + v for v in inner) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _real_matrix(m: np.ndarray) -> list:
    return [_vector(row) for row in np.asarray(m, dtype=np.float64)]


def _complex_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _vector(v) -> list:
    return [float(x) for x in np.asarray(v, dtype=np.float64)]


def _emit(report: dict) -> None:
    sys.stdout.write(dumps_report(report) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    m = _read_real(args.input, args.format, args.row_stochastic)
    cls = st_mod.classify(m)
    report = {
        "dim": int(m.shape[0]),
        "stochastic": cls.is_stochastic,
        "bistochastic": cls.is_bistochastic,
        "unistochastic": cls.unistochastic,
        "witness": None
        if cls.witness_unitary is None
        else _complex_matrix(cls.witness_unitary),
        "witness_triple": None
        if cls.witness_triple is None
        else [int(i) + 1 for i in cls.witness_triple],
    }
    _emit(report)
    return EXIT_OK


_METHODS = {
    "auto": con_mod.coherify_auto,
    "c0": con_mod.coherify_c0,
    "qubit": con_mod.coherify_qubit,
    "unistochastic": con_mod.coherify_unistochastic,
    "qutrit-cyclic": lambda t: con_mod.coherify_qutrit(t, "cyclic"),
    "qutrit-single-row": lambda t: con_mod.coherify_qutrit(t, "single_row"),
    "qutrit-double-row": lambda t: con_mod.coherify_qutrit(t, "double_row"),
}


def cmd_coherify(args) -> int:
    t = _load_transition(args.input, args.format, args.row_stochastic)
    try:
        result = _METHODS[args.method](t)
    except DimensionMismatch as exc:
        # a method's size requirement is a precondition, not an invalid matrix (main's exit 3)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    ch = result.channel
    action = ch_mod.classical_action(ch)
    report = {
        "dim": int(t.shape[0]),
        "method": result.method,
        "optimal": result.optimal,
        "achieved_spectrum": _vector(result.achieved_spectrum),
        "coherence_entropic_bits": ch_mod.channel_coherence_entropic(ch),
        "coherence_2norm": ch_mod.channel_coherence_2norm(ch),
        "classical_action_error": float(np.abs(action - t).max()),
        "kraus_count": len(ch.kraus),
        "kraus": [_complex_matrix(k) for k in ch.kraus],
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for i, k in enumerate(ch.kraus):
            kpath = os.path.join(args.out, f"kraus_{i:02d}.json")
            payload = {
                "dim": int(t.shape[0]),
                "kind": "complex",
                "entries": [pair for row in _complex_matrix(k) for pair in row],
            }
            with open(kpath, "w", encoding="utf-8") as fh:
                fh.write(dumps_report(payload) + "\n")
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(dumps_report(report) + "\n")
    _emit(report)
    return EXIT_OK


def cmd_bounds(args) -> int:
    t = _load_transition(args.input, args.format, args.row_stochastic)
    rep = bounds_mod.compute_bounds(t)
    report = {
        "dim": int(t.shape[0]),
        "mu_upper": _vector(rep.mu_upper),
        "mu_lower": _vector(rep.mu_lower),
        "c_e_range_bits": [rep.c_e_range[0], rep.c_e_range[1]],
        "c_2_range": [rep.c_2_range[0], rep.c_2_range[1]],
    }
    if rep.polygon is not None:
        poly = rep.polygon
        report["polygon"] = {
            "alphas": [
                {"triple": [i + 1, k + 1, l + 1], "alpha": a}
                for (i, k, l), a in sorted(poly.alphas.items())
            ],
            "purity_upper": poly.purity_upper,
            "majorization_upper": _vector(poly.majorization_upper),
        }
        if t.shape[0] <= 3:
            verdict = st_mod.classify(t).unistochastic
            report["unistochastic"] = verdict
            if verdict == "yes":
                report["note"] = "unistochastic: complete coherification possible"
    _emit(report)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    ch = ch_mod.channel_from_kraus([read_matrix(path, args.format) for path in args.kraus],
                                   atol=1e-7)
    rep = diag_mod.diagnostics_report(ch)
    split = ch_mod.c2_split(ch)
    report = {
        "dim": ch.dim,
        "entropy_bits": ch_mod.channel_entropy(ch),
        "purity": ch_mod.channel_purity(ch),
        "coherence_entropic_bits": ch_mod.channel_coherence_entropic(ch),
        "coherence_2norm": ch_mod.channel_coherence_2norm(ch),
        "c2_split": [split[0], split[1]],
        "path_distribution": _vector(rep.path_distribution),
        "unitarity": rep.unitarity,
        "avg_output_purity": rep.avg_output_purity,
        "maxmixed_output_purity": rep.maxmixed_output_purity,
        "unitarity_upper_from_purity": rep.unitarity_upper_from_purity,
        "output_purity_lower_from_purity": rep.output_purity_lower_from_purity,
        "maxmixed_purity_lower": rep.maxmixed_purity_lower,
        "bounds_satisfied": bool(
            rep.unitarity <= rep.unitarity_upper_from_purity + 1e-9
            and rep.avg_output_purity >= rep.output_purity_lower_from_purity - 1e-9
            and rep.maxmixed_output_purity >= rep.maxmixed_purity_lower - 1e-9
        ),
        "classical_action": _real_matrix(ch_mod.classical_action(ch)),
    }
    _emit(report)
    return EXIT_OK


def cmd_validate(args) -> int:
    t = _load_transition(args.input, args.format, args.row_stochastic)
    cfg = oracle_mod.OracleConfig(seed=args.seed)
    rep = bounds_mod.compute_bounds(t)
    up, lo, poly = rep.mu_upper, rep.mu_lower, rep.polygon
    samples = oracle_mod.sample_fixed_action(t, args.samples, cfg)
    # every sample is checked at once: one stack of Jamiolkowski matrices,
    # their spectra lambda(J), kept from the channels' checks, and one
    # verdict per sample
    n = t.shape[0] ** 2
    jams = np.array([smp.jam for smp in samples]).reshape(len(samples), n, n)
    lam = np.array([smp.spectrum for smp in samples])
    slack = 1e-6

    def violations_of(bound, tol):
        return int((~st_mod.majorizes(bound, lam, slack=tol, sum_atol=1e-5)).sum())

    viol_mu = violations_of(up, slack)
    viol_t1 = violations_of(bounds_mod.theorem1_bound(jams), 1e-9)
    viol_pp = viol_pm = 0
    if poly is not None:
        purities = (np.abs(jams) ** 2).sum(axis=(-2, -1))
        viol_pp = int((purities > poly.purity_upper + slack).sum())
        viol_pm = violations_of(poly.majorization_upper, slack)
    best_ch, best_purity = oracle_mod.maximize_purity(t, cfg)
    bracket = (float(lo @ lo), float(up @ up))
    purity_ok = bracket[0] - 1e-6 <= best_purity <= bracket[1] + 1e-6
    violations = {
        "mu_upper_majorization": viol_mu,
        "theorem1_majorization": viol_t1,
        "polygon_purity": viol_pp,
        "polygon_majorization": viol_pm,
    }
    ok = purity_ok and all(v == 0 for v in violations.values())
    report = {
        "dim": int(t.shape[0]),
        "samples": int(args.samples),
        "seed": int(args.seed),
        "violations": violations,
        "best_purity": best_purity,
        "purity_bracket": [bracket[0], bracket[1]],
        "ok": ok,
    }
    _emit(report)
    return EXIT_OK if ok else EXIT_BOUND_VIOLATION


def _int_in(low: int, high: float = float("inf")):
    """An argparse type: a whole number in low..high."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        if n > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {n}")
        return n
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="coherify",
        description="Coherence of quantum channels: classification, coherification, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, transition=True):
        p.add_argument("--format", choices=("json", "csv"), default=None)
        if transition:
            p.add_argument(
                "--row-stochastic",
                action="store_true",
                help="input rows sum to 1; transpose on ingest",
            )

    p = sub.add_parser("classify", help="stochastic / bistochastic / unistochastic verdicts")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("coherify", help="build a coherified channel for a transition matrix")
    p.add_argument("input")
    p.add_argument("--method", choices=sorted(_METHODS), default="auto")
    p.add_argument("--out", default=None, help="directory for Kraus JSON dump")
    common(p)
    p.set_defaults(func=cmd_coherify)

    p = sub.add_parser("bounds", help="majorization and coherence bounds for a transition matrix")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("diagnose", help="channel measures and diagnostics from Kraus files")
    p.add_argument("kraus", nargs="+")
    common(p, transition=False)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("validate", help="oracle cross-checks of all bounds for a transition matrix")
    p.add_argument("input")
    p.add_argument("--samples", type=_int_in(1), default=1000)
    # the range of OracleConfig.seed
    p.add_argument("--seed", type=_int_in(0, 2 ** 64 - 1), default=42)
    common(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (_InvalidMatrix, DimensionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NotTracePreserving as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_TP
    except CoherifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
