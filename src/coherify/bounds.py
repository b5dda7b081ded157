"""Rigorous bounds on how coherent a channel with a fixed classical action can be.

Two majorization bounds bracket the spectrum of any Jamiolkowski state whose
diagonal encodes the transition matrix T: mu_upper dominates every feasible
spectrum (it is built from the row sums of T), and mu_lower is achieved by
the explicit d-Kraus construction, so it bounds the optimum from below. For
bistochastic T, where mu_upper degenerates to the trivial [1, 0, ...], the
polygon coefficients give purity and majorization constraints instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotBistochastic
from .matcore import eigvals_hermitian
from .states import shannon_entropy
from .stochastic import (
    alpha,
    assert_transition_matrix,
    defined_triples,
    is_bistochastic,
    majorizes,
)


def mu_upper(t) -> np.ndarray:
    """Majorization upper bound on lambda(J), length d^2.

    Each row sum of T is split as n_i + a_i with integer n_i and a_i in
    [0, 1); the i-th summand vector is n_i ones followed by a_i, and the
    bound is the average of these over rows.
    """
    t = assert_transition_matrix(t)
    d = t.shape[0]
    out = np.zeros(d * d)
    for i in range(d):
        s = float(t[i].sum())
        n = int(np.floor(s))
        a = s - n
        if a > 1.0 - 1e-9:
            n += 1
            a = 0.0
        out[:n] += 1.0
        if n < d * d:
            out[n] += a
    return out / d


def mu_lower(t) -> np.ndarray:
    """Spectrum achieved by the row-sorting construction: average of sorted rows."""
    t = assert_transition_matrix(t)
    d = t.shape[0]
    rows = np.sort(t, axis=1)[:, ::-1]
    out = np.zeros(d * d)
    out[:d] = rows.sum(axis=0) / d
    return out


def coherence_bounds(t) -> tuple[tuple[float, float], tuple[float, float]]:
    """Brackets for the coherence of the optimally coherified channel.

    Returns ((ce_lo, ce_hi), (c2_lo, c2_hi)) in bits / dimensionless. Both
    brackets follow from the majorization pair: entropy is Schur concave and
    purity Schur convex.
    """
    t = assert_transition_matrix(t)
    d = t.shape[0]
    up, lo = mu_upper(t), mu_lower(t)
    s_t = shannon_entropy(t.reshape(-1) / d)
    tt = float((t ** 2).sum()) / d ** 2
    ce = (s_t - shannon_entropy(lo), s_t - shannon_entropy(up))
    c2 = (float(lo @ lo) - tt, float(up @ up) - tt)
    return ce, c2


@dataclass(frozen=True)
class PolygonReport:
    """Constraints for bistochastic classical actions.

    alphas maps each defined triple (i, k, l), 0-based with k < l, to its
    polygon coefficient. purity_upper bounds gamma(J) over all channels with
    this action; majorization_upper is a two-level vector dominating every
    feasible spectrum. Both are trivial (1 and [1, 0, ...]) when no triple
    has alpha < 1.
    """

    alphas: dict = field(repr=False)
    purity_upper: float = 1.0
    majorization_upper: np.ndarray | None = None


def _beta(t: np.ndarray, i: int, k: int, l: int, a: float) -> float:
    return float(np.sqrt((t[i, k] - t[i, l]) ** 2 + 4 * a * t[i, k] * t[i, l]))


def polygon_report(t) -> PolygonReport:
    """Purity and majorization bounds from the polygon coefficients.

    The purity bound takes the single strongest triple: the largest sum of
    its within-block and cross-block deficits.
    """
    t = assert_transition_matrix(t)
    if not is_bistochastic(t):
        raise NotBistochastic("polygon constraints require a bistochastic matrix")
    d = t.shape[0]
    alphas = {trip: alpha(t, *trip) for trip in defined_triples(t)}
    qualifying = {trip: a for trip, a in alphas.items() if a < 1.0}
    if not qualifying:
        triv = np.zeros(d * d)
        triv[0] = 1.0
        return PolygonReport(alphas=alphas, purity_upper=1.0, majorization_upper=triv)

    deficits = []
    for (i, k, l), a in qualifying.items():
        b = _beta(t, i, k, l, a)
        d1 = 2.0 * t[i, k] * t[i, l] * (1.0 - a) / d ** 2
        d2 = (d - t[i, k] - t[i, l]) * (t[i, k] + t[i, l] - b) / d ** 2
        deficits.append(d1 + d2)
    purity = 1.0 - max(deficits)

    mu_sum = 0.0
    for i in range(d):
        row_alphas = [(a, trip) for trip, a in alphas.items() if trip[0] == i]
        if not row_alphas:
            continue
        a, (i, k, l) = min(row_alphas)
        mu_sum += max(0.5 * (t[i, k] + t[i, l] - _beta(t, i, k, l, a)), 0.0)
    mu_i = mu_sum / d
    major = np.zeros(d * d)
    major[0] = 1.0 - mu_i
    major[1] = mu_i
    return PolygonReport(alphas=alphas, purity_upper=float(purity), majorization_upper=major)


def theorem1_bound(jam) -> np.ndarray:
    """Block-majorization bound: the averaged spectra of the diagonal blocks
    of d*J majorize lambda(J). Returned zero-padded to length d^2; for a
    stack (..., d^2, d^2) of Jamiolkowski matrices, one bound per matrix."""
    jam = np.asarray(jam, dtype=np.complex128)
    d = int(round(np.sqrt(jam.shape[-1])))
    blocks = d * np.einsum("...iaib->...iab", jam.reshape(jam.shape[:-2] + (d, d, d, d)))
    out = np.zeros(jam.shape[:-2] + (d * d,))
    out[..., :d] = eigvals_hermitian(blocks, atol=1e-8).sum(axis=-2)
    return out / d


@dataclass(frozen=True)
class BoundReport:
    """All bounds for one transition matrix in one place."""

    mu_upper: np.ndarray
    mu_lower: np.ndarray
    c_e_range: tuple[float, float]
    c_2_range: tuple[float, float]
    polygon: PolygonReport | None = None


def compute_bounds(t) -> BoundReport:
    t = assert_transition_matrix(t)
    ce, c2 = coherence_bounds(t)
    up, lo = mu_upper(t), mu_lower(t)
    assert majorizes(up, lo)
    poly = polygon_report(t) if is_bistochastic(t) else None
    return BoundReport(mu_upper=up, mu_lower=lo, c_e_range=ce, c_2_range=c2, polygon=poly)
