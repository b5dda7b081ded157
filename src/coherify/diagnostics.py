"""Physical diagnostics of a channel: path distribution, unitarity, output purity.

The canonical Kraus branches of a channel form, for a Haar-random pure input,
a path lottery whose average probabilities are the eigenvalues of the
Jamiolkowski state. Unitarity measures how far the channel sits from unitary
dynamics; it and the average output purity are both affine in the channel
purity gamma(J), corrected by the purity of the transformed maximally mixed
state. Both need d >= 2; at d = 1 they raise DimensionMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, channel_purity, classical_action
from .errors import DimensionMismatch
from .matcore import partial_trace


def path_distribution(ch: Channel) -> np.ndarray:
    """Average probabilities of the canonical Kraus branches: lambda(J),
    the channel's read-only ``spectrum``."""
    return ch.spectrum


def maxmixed_output_purity(ch: Channel) -> float:
    """gamma(Phi(1/d)); Phi(1/d) is the partial trace of J over the input slot."""
    out = partial_trace(ch.jam, "second")
    return float((np.abs(out) ** 2).sum())


def _check_unitarity_dim(d: int) -> None:
    if d < 2:
        raise DimensionMismatch(f"unitarity is defined only for d >= 2, got d = {d}")


# the formulas below take gamma(J) as g and gamma(Phi(1/d)) as m, so that
# diagnostics_report computes each once


def _unitarity(d: int, g: float, m: float) -> float:
    return d / (d ** 2 - 1) * (d * g - m)


def _avg_output_purity(d: int, g: float, m: float) -> float:
    return d / (d + 1) * (g + m)


def unitarity(ch: Channel) -> float:
    """Closed-form unitarity d/(d^2-1) [d gamma(Phi) - gamma(Phi(1/d))]."""
    d = ch.dim
    _check_unitarity_dim(d)
    return _unitarity(d, channel_purity(ch), maxmixed_output_purity(ch))


def avg_output_purity(ch: Channel) -> float:
    """Haar-average output purity d/(d+1) [gamma(Phi) + gamma(Phi(1/d))]."""
    return _avg_output_purity(ch.dim, channel_purity(ch), maxmixed_output_purity(ch))


def purity_relations(ch: Channel) -> tuple[float, float, float]:
    """Bounds tying unitarity and output purity to the channel purity.

    Returns (unitarity_upper, output_purity_lower, maxmixed_lower):
    u <= d^2/(d^2-1) [gamma - 1/d^2] and <gamma_out> >= d/(d+1) [gamma + 1/d],
    both equalities for unital channels, plus the decohered lower bound
    gamma(Phi(1/d)) >= sum_i ((1/d) sum_j T_ij)^2.
    """
    return _purity_relations(ch, channel_purity(ch))


def _purity_relations(ch: Channel, g: float) -> tuple[float, float, float]:
    d = ch.dim
    _check_unitarity_dim(d)
    u_upper = d ** 2 / (d ** 2 - 1) * (g - 1.0 / d ** 2)
    out_lower = d / (d + 1) * (g + 1.0 / d)
    t = classical_action(ch)
    maxmixed_lower = float(((t.sum(axis=1) / d) ** 2).sum())
    return u_upper, out_lower, maxmixed_lower


@dataclass(frozen=True)
class DiagnosticsReport:
    path_distribution: np.ndarray
    unitarity: float
    avg_output_purity: float
    maxmixed_output_purity: float
    unitarity_upper_from_purity: float
    output_purity_lower_from_purity: float
    maxmixed_purity_lower: float


def diagnostics_report(ch: Channel) -> DiagnosticsReport:
    """Every diagnostic of ch, computing gamma(J), gamma(Phi(1/d)) and T once each."""
    d = ch.dim
    g, m = channel_purity(ch), maxmixed_output_purity(ch)
    u_upper, out_lower, maxmixed_lower = _purity_relations(ch, g)
    return DiagnosticsReport(
        path_distribution=path_distribution(ch),
        unitarity=_unitarity(d, g, m),
        avg_output_purity=_avg_output_purity(d, g, m),
        maxmixed_output_purity=m,
        unitarity_upper_from_purity=u_upper,
        output_purity_lower_from_purity=out_lower,
        maxmixed_purity_lower=maxmixed_lower,
    )
