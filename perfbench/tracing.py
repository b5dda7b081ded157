"""In-memory span tracing of coherify's public functions, from outside the package.

A traced run wraps every public function of the layer modules, the
``__init__`` of their non-dataclass classes, and the numpy kernels
``np.linalg.{eigh,eigvalsh,pinv,svd}``. Each wrapper is installed in every
namespace that holds the original object (``coherify.classify`` as well as
``coherify.constructions.classify``, the benchmark's own modules, and the
``numpy.linalg`` module the package calls through), and removed again by
:meth:`Tracer.uninstall`, so untraced runs execute unwrapped code.

Every call records a span ``[name, start, end, parent, extra]``. A span's
self time is its duration minus the durations of its direct children; the
children of one span never overlap because the benchmark runs one thread.

Kernel counters are computed from array shapes, not measured: the eigh batch
size buckets and ``flops_computed``, which charges 9 n^3 real flops for a
symmetric eigendecomposition with eigenvectors (Golub and Van Loan, section
8.3), four times that for complex input.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "oracle", "channels", "bounds", "stochastic", "constructions",
          "diagnostics", "states")
KERNELS = ("eigh", "eigvalsh", "pinv", "svd")
EIGH_BUCKETS = ((1, 9), (10, 99), (100, 999), (1000, None))
SMALL_BATCH = 100


def _bucket(lo, hi) -> str:
    return f"batch_{lo}_{hi}" if hi else f"batch_ge_{lo}"


def _batch(a) -> int:
    return math.prod(np.shape(a)[:-2])


def _eigh_counts(args, kwargs, result) -> dict:
    a = np.asarray(args[0])
    batch, n = _batch(a), a.shape[-1]
    bucket = next(_bucket(lo, hi) for lo, hi in EIGH_BUCKETS if hi is None or batch <= hi)
    return {
        "matrices": batch,
        "small_batch_calls": int(batch < SMALL_BATCH),
        "flops_computed": batch * 9 * n ** 3 * (4 if a.dtype.kind == "c" else 1),
        bucket: 1,
    }


def _matrix_counts(args, kwargs, result) -> dict:
    return {"matrices": _batch(args[0])}


def _inputs_count(args, kwargs, result) -> dict:
    return {"inputs": len(result)}


def _found_count(args, kwargs, result) -> dict:
    return {"found": int(result is not None)}


def _unknown_count(args, kwargs, result) -> dict:
    return {"unknown": int(result.unistochastic == "unknown")}


# extra counters recorded on successful calls, by span name, with their keys
COUNTERS = {
    "linalg.eigh": (_eigh_counts, ("matrices", "small_batch_calls", "flops_computed")
                    + tuple(_bucket(lo, hi) for lo, hi in EIGH_BUCKETS)),
    "linalg.eigvalsh": (_matrix_counts, ("matrices",)),
    "oracle.maximize_purity_many": (_inputs_count, ("inputs",)),
    "oracle.search_unistochastic_witness": (_found_count, ("found",)),
    "stochastic.classify": (_unknown_count, ("unknown",)),
}
BASE_STATS = ("calls", "self_s", "failed")


def stat_names(span_name: str) -> tuple[str, ...]:
    """Every stat :meth:`Tracer.summary` can report for this span name."""
    return BASE_STATS + COUNTERS.get(span_name, (None, ()))[1]


def span_names() -> list[str]:
    """Names of all traced targets; coherify must be imported."""
    return [name for name, _, _ in _targets()]


def _targets():
    """(span name, owner, original) for every function the traced run wraps.

    ``owner`` is the class for an ``__init__`` target and None otherwise.
    """
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"coherify.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{name}", None, obj))
            elif (inspect.isclass(obj) and not dataclasses.is_dataclass(obj)
                  and not issubclass(obj, BaseException) and "__init__" in vars(obj)):
                out.append((f"{layer}.{name}", obj, vars(obj)["__init__"]))
    for name in KERNELS:
        out.append((f"linalg.{name}", None, getattr(np.linalg, name)))
    return out


def _namespaces(extra_modules):
    names = [m for m in sys.modules if m == "coherify" or m.startswith("coherify.")]
    mods = [sys.modules[m] for m in names] + [np.linalg] + list(extra_modules)
    return [m for m in mods if m is not None]


class Tracer:
    """Records spans for wrapped calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name, (None,))[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                stack.pop()
                span[4] = {"failed": 1}
                raise
            span[2] = clock()
            stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self, extra_modules=()) -> None:
        """Wrap every target in every namespace that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = _namespaces(extra_modules)
        for name, owner, original in _targets():
            wrapper = self._wrap(name, original)
            if owner is not None:
                self._patches.append((owner, "__init__", original))
                setattr(owner, "__init__", wrapper)
                continue
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back; raises if one was not restored."""
        patches, self._patches = self._patches, []
        for ns, attr, original in reversed(patches):
            setattr(ns, attr, original)
        for ns, attr, original in patches:
            current = vars(ns)[attr] if isinstance(ns, type) else getattr(ns, attr)
            if current is not original:
                raise RuntimeError(f"wrapper left installed at {ns!r}.{attr}")

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_s, failed and the extra counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        for (name, start, end, parent, extra), child in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child
            for key, value in (extra or {}).items():
                row[key] += value
        return {name: dict(row) for name, row in out.items()}


def counts_only(summary: dict[str, dict]) -> dict[str, dict]:
    """The summary without its timings: what must repeat exactly."""
    return {
        name: {k: v for k, v in row.items() if k != "self_s"}
        for name, row in summary.items()
    }
