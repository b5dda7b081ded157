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
from .stochastic import _alpha_table, assert_transition_matrix, is_bistochastic, majorizes


def mu_upper(t) -> np.ndarray:
    """Majorization upper bound on lambda(J), length d^2.

    Each row sum of T is split as n_i + a_i with integer n_i and a_i in
    [0, 1); the i-th summand vector is n_i ones followed by a_i, and the
    bound is the average of these over rows.
    """
    return _mu_upper(assert_transition_matrix(t))


def _mu_upper(t: np.ndarray) -> np.ndarray:
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
    return _mu_lower(assert_transition_matrix(t))


def _mu_lower(t: np.ndarray) -> np.ndarray:
    d = t.shape[0]
    rows = np.sort(t, axis=1)[:, ::-1]
    out = np.zeros(d * d)
    out[:d] = rows.sum(axis=0) / d
    return out


def coherence_bounds(t) -> tuple[tuple[float, float], tuple[float, float]]:
    """Brackets for the coherence of the optimally coherified channel.

    Returns ((ce_lo, ce_hi), (c2_lo, c2_hi)) in bits / dimensionless. Both
    brackets follow from the majorization pair: entropy is Schur concave and
    purity Schur convex. These are compute_bounds' c_e_range and c_2_range.
    """
    rep = compute_bounds(t)
    return rep.c_e_range, rep.c_2_range


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


def polygon_report(t) -> PolygonReport:
    """Purity and majorization bounds from the polygon coefficients.

    The coefficients are the table classify reads (stochastic._alpha_table).
    The purity bound takes the single strongest triple with alpha < 1: the
    largest sum of its within-block and cross-block deficits. The
    majorization bound takes each row's least-alpha triple, ties to the first.
    """
    t = assert_transition_matrix(t)
    if not is_bistochastic(t):
        raise NotBistochastic("polygon constraints require a bistochastic matrix")
    return _polygon_report(t)


def _polygon_report(t: np.ndarray) -> PolygonReport:
    d = t.shape[0]
    table = _alpha_table(t)
    defined = ~np.isnan(table)
    alphas = dict(zip(map(tuple, np.argwhere(defined).tolist()), table[defined].tolist()))
    qualifying = defined & (table < 1.0)
    if not qualifying.any():
        return PolygonReport(alphas=alphas, purity_upper=1.0, majorization_upper=np.eye(1, d * d)[0])

    tk, tl = t[:, :, None], t[:, None, :]  # T_ik and T_il at [i, k, l]
    b = np.sqrt((tk - tl) ** 2 + 4 * table * tk * tl)
    deficit = 2.0 * tk * tl * (1.0 - table) / d ** 2 + (d - tk - tl) * (tk + tl - b) / d ** 2
    purity = 1.0 - deficit[qualifying].max()
    rows = np.nonzero(defined.any(axis=(1, 2)))[0]
    least = np.nanargmin(table[rows].reshape(len(rows), -1), axis=1)
    gain = np.maximum(0.5 * (tk + tl - b), 0.0).reshape(d, -1)[rows, least]
    mu_i = sum(gain.tolist()) / d  # in row order: np.sum pairs the terms once there are 8
    major = np.zeros(d * d)
    major[:2] = 1.0 - mu_i, mu_i
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
    """The majorization pair, its coherence brackets and, for bistochastic T,
    the polygon report; T is validated once, here."""
    t = assert_transition_matrix(t)
    d = t.shape[0]
    up, lo = _mu_upper(t), _mu_lower(t)
    assert majorizes(up, lo)
    s_t = shannon_entropy(t.reshape(-1) / d)
    tt = float((t ** 2).sum()) / d ** 2
    ce = (s_t - shannon_entropy(lo), s_t - shannon_entropy(up))
    c2 = (float(lo @ lo) - tt, float(up @ up) - tt)
    poly = _polygon_report(t) if is_bistochastic(t) else None
    return BoundReport(mu_upper=up, mu_lower=lo, c_e_range=ce, c_2_range=c2, polygon=poly)
