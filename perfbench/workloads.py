"""The benchmark workloads: seeded inputs, the unit call, and its checks.

Inputs come in rounds. A round has a fixed composition and its entries are
drawn from ``numpy.random.default_rng([seed, workload, round])``, so a run
that measures more rounds measures more of the same mix and the same seed
always gives the same inputs. coherify itself receives only the generated
matrices and ``OracleConfig`` values derived from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import coherify.bounds as bounds
import coherify.channels as channels
import coherify.cli as cli
import coherify.constructions as constructions
import coherify.diagnostics as diagnostics
import coherify.stochastic as stochastic

T_EXAMPLE = np.array([[0.7, 0.2, 0.6], [0.1, 0.6, 0.4], [0.2, 0.2, 0.0]])
T_FLAT_OFFDIAG = 0.5 * (np.ones((3, 3)) - np.eye(3))
# the zero entries of the solved 3x3 families, for which coherify_auto
# picks coherify_qutrit
QUTRIT_ZEROS = {
    "cyclic": [(0, 0), (1, 1), (2, 2)],
    "single_row": [(0, 2), (1, 0), (1, 1)],
    "double_row": [(2, 0), (2, 1), (2, 2)],
}

WITNESS_ATOL = 1e-8      # classify-construct: |U|^2 = T and U^dag U = 1
ACTION_ATOL = 1e-8       # classify-construct: classical action of the construction


@dataclass
class Outcome:
    """What the checks of one unit call, on one input, found.

    ``purity`` is the achieved purity and ``purity_bound`` mu_upper(T) . mu_upper(T).
    """

    failed: int = 0
    purity: float = 0.0
    purity_bound: float = 0.0
    classify_calls: int = 0
    unknown: int = 0
    detail: str = ""


def _column_normalize(m: np.ndarray) -> np.ndarray:
    return m / m.sum(axis=0, keepdims=True)


def dense(rng, d: int) -> np.ndarray:
    """Column-normalized entries drawn from [0.02, 1), as for sinkhorn()."""
    return _column_normalize(rng.uniform(0.02, 1.0, (d, d)))


def zero_pattern(rng, zeros) -> np.ndarray:
    """A dense 3x3 action with the given entries set to 0."""
    m = rng.uniform(0.02, 1.0, (3, 3))
    for ij in zeros:
        m[ij] = 0.0
    return _column_normalize(m)


def sinkhorn(rng, d: int) -> np.ndarray:
    """Bistochastic matrix by alternate column/row scaling of a positive one."""
    m = rng.uniform(0.02, 1.0, (d, d))
    for _ in range(200):
        m /= m.sum(axis=0, keepdims=True)
        m /= m.sum(axis=1, keepdims=True)
    return _column_normalize(m)


def permuted(rng, t: np.ndarray) -> np.ndarray:
    d = t.shape[0]
    return t[rng.permutation(d)][:, rng.permutation(d)]


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, WORKLOAD_IDS[self.name], r])

    def cfg_seed(self, r: int, i: int = 0) -> int:
        return (self.seed * 1_000_003 + r * 1_009 + i) % 2 ** 32

    def round(self, r: int) -> list:
        """The inputs of round r, one entry per unit call."""
        raise NotImplementedError

    def trace_items(self) -> list:
        """The inputs of one traced run."""
        return self.round(0)

    def warmup_item(self):
        """A fixed, seed-independent input for the first call of a process."""
        raise NotImplementedError

    def call(self, item):
        """The unit call whose latency is measured."""
        raise NotImplementedError

    def check(self, item, result) -> Outcome:
        raise NotImplementedError


class ValidateQutrit(Workload):
    """A round validates the corpus twice, each pass with its own --seed.

    A run has room for one round. Four of the six inputs take 1-3 s a call
    and the example and dense inputs 4-9 s, so p50 falls among the cheap
    calls however many rounds a run holds. The cheap inputs are spread over
    each pass so that p50 samples more than one stretch of the run: on a
    shared host the CPU speed can change within seconds.
    """

    name = "validate-qutrit"
    samples = 100
    passes = 2

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        corpus = {
            "single_row": np.array([[0.3, 0.4, 0.0], [0.0, 0.0, 0.6], [0.7, 0.6, 0.4]]),
            "cyclic": np.array([[0.0, 0.3, 0.6], [0.5, 0.0, 0.4], [0.5, 0.7, 0.0]]),
            "dense": _column_normalize(
                np.array([[0.51, 0.12, 0.33], [0.27, 0.64, 0.21], [0.22, 0.24, 0.46]])
            ),
            # bistochastic, not unistochastic: validate adds the polygon checks
            "polygon": T_FLAT_OFFDIAG,
            "example": T_EXAMPLE,
            "double_row": np.array([[0.3, 0.4, 0.5], [0.7, 0.6, 0.5], [0.0, 0.0, 0.0]]),
        }
        if smoke:
            corpus = {"cyclic": corpus["cyclic"]}
            self.samples = 10
        self.paths = {key: self._write(key, t) for key, t in corpus.items()}
        # the warm-up validates a 2x2 action: the same code path, a fraction of the time
        self.qubit_path = self._write("qubit", np.array([[0.7, 0.4], [0.3, 0.6]]))

    def _write(self, key, t) -> str:
        path = os.path.join(self.workdir, f"validate_{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"dim": t.shape[0], "kind": "real", "entries": t.reshape(-1).tolist()}, fh)
        return path

    def round(self, r):
        paths = list(self.paths.items()) * self.passes
        return [(key, path, self.cfg_seed(r, i)) for i, (key, path) in enumerate(paths)]

    def trace_items(self):
        return self.round(0)[:len(self.paths)]

    def warmup_item(self):
        return ("qubit", self.qubit_path, 7)

    def call(self, item):
        _, path, seed = item
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["validate", path, "--samples", str(self.samples), "--seed", str(seed)])
        return code, buf.getvalue()

    def check(self, item, result):
        code, text = result
        report = json.loads(text)
        out = Outcome(purity=report["best_purity"],
                      purity_bound=report["purity_bracket"][1])
        if code != 0 or report["ok"] is not True:
            out.failed = 1
            out.detail = f"{item[0]}: exit code {code}, ok={report['ok']}"
        return out


class ClassifyConstruct(Workload):
    name = "classify-construct"

    def round(self, r):
        """37 inputs: per d = 2..5 four dense and two permutations, Sinkhorn
        inputs (two at d = 2, six at d = 3), one 3x3 input per solved
        zero-pattern family, one the d = 4 witness search has to find and one
        that makes it run to its cap. The two searched inputs stay under a
        tenth of the calls, so p50 and p90 measure the closed forms."""
        rng = self.rng(r)
        dims, n_dense, n_perm, n_sink3, n_kron = (
            ((2, 3), 1, 1, 1, 1) if self.smoke else ((2, 3, 4, 5), 4, 2, 6, 1)
        )
        items = []
        for d in dims:
            items += [dense(rng, d) for _ in range(n_dense)]
            items += [np.eye(d)[rng.permutation(d)] for _ in range(n_perm)]
        items += [sinkhorn(rng, 2) for _ in range(n_perm)]
        items += [sinkhorn(rng, 3) for _ in range(n_sink3)]
        items += [zero_pattern(rng, zeros) for zeros in QUTRIT_ZEROS.values()]
        # unistochastic d = 4 inputs that the witness search has to find
        items += [permuted(rng, np.kron(sinkhorn(rng, 2), sinkhorn(rng, 2)))
                  for _ in range(n_kron)]
        if not self.smoke:
            # not unistochastic, so the d = 4 search runs every restart to its cap
            blk = np.eye(4)
            blk[:3, :3] = T_FLAT_OFFDIAG
            items.append(permuted(rng, blk))
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    def warmup_item(self):
        return T_EXAMPLE

    def call(self, t):
        cls = stochastic.classify(t)
        res = constructions.coherify_auto(t)
        rep = bounds.compute_bounds(t)
        diag = diagnostics.diagnostics_report(res.channel)
        return cls, res, rep, diag

    def check(self, t, result):
        cls, res, rep, _ = result
        up = rep.mu_upper
        out = Outcome(purity=channels.channel_purity(res.channel),
                      purity_bound=float(up @ up), classify_calls=1,
                      unknown=int(cls.unistochastic == "unknown"))
        problems = []
        u = cls.witness_unitary
        if u is not None:
            d = t.shape[0]
            if (np.abs(u.conj().T @ u - np.eye(d)).max() > WITNESS_ATOL
                    or np.abs(np.abs(u) ** 2 - t).max() > WITNESS_ATOL):
                problems.append("witness unitary does not realize T")
        if cls.witness_triple is not None and not stochastic.alpha(t, *cls.witness_triple) < 1.0:
            problems.append("witness triple has alpha = 1")
        err = np.abs(channels.classical_action(res.channel) - t).max()
        if err > ACTION_ATOL:
            problems.append(f"classical action error {err:.3e}")
        if problems:
            out.failed = 1
            out.detail = "; ".join(problems)
        return out


WORKLOADS = {w.name: w for w in (ValidateQutrit, ClassifyConstruct)}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}
