"""Gram points and shifted Gram sequences.

t_nu(tau_bar) is the unique solution of theta(t) = nu*pi + tau_bar on the
increasing branch of theta.  tau_bar = 0 gives the classical Gram points
(g_0 ~ 17.8456).  Spacing is compared against 2*pi/theta'(t), i.e.
2*pi/ln(t/2pi); the commonly quoted 2*pi/ln(t) is the same thing to leading
order and is carried alongside for reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import zfun
from ._util import safeguarded_newton
from .errors import DomainError, NoConvergence

# theta has its minimum near 6.29; bracketing from 7.0 keeps every solve on
# the increasing branch, and theta(7) < -pi covers nu=0 down to tau_bar=-pi
_BRACKET_LO = 7.0
_BRACKET_HI = 20.0 * 2.0 ** np.arange(36)  # 20 * 2^k up to 1e12
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class GramRecord:
    nu: int
    t: float
    tau_bar: float
    spacing: float
    predicted: float

    @property
    def predicted_asymptotic(self) -> float:
        return 2.0 * math.pi / math.log(self.t)


def _gram_ts(nus, tau_bar) -> list[float]:
    """t_nu(tau_bar), nu in ``nus``: theta(t) = nu*pi + tau_bar solved in
    one lockstep, each bracket ending at the first 20 * 2^k theta reaches."""
    if any(nu < 0 for nu in nus):
        raise DomainError("gram index must be >= 0")
    tau_bar = float(tau_bar)
    if not (abs(tau_bar) <= math.pi):
        raise DomainError("tau_bar must lie in [-pi, pi]")
    targets = np.array([nu * math.pi + tau_bar for nu in nus])
    if np.any(zfun.theta(_BRACKET_LO) - targets > 0.0):
        raise DomainError(f"theta target {targets.min():g} below the increasing branch")
    k = np.searchsorted(zfun.theta_many(_BRACKET_HI), targets)
    if np.any(k == len(_BRACKET_HI)):
        raise NoConvergence("theta bracket expansion failed")
    hi = _BRACKET_HI[k]
    lo = np.where(k > 0, _BRACKET_HI[k - 1], _BRACKET_LO)
    return safeguarded_newton(
        lambda t, i: zfun.theta_many(t) - targets[i],
        lambda t, i: [zfun.theta_deriv(x) for x in t.tolist()],
        lo, hi, 0.5 * (lo + hi), _RESIDUAL_TOL, 100, "theta solve").tolist()


def gram_t(nu: int, tau_bar: float = 0.0) -> float:
    """The (shifted) Gram point alone, without spacing bookkeeping."""
    return _gram_ts([nu], tau_bar)[0]


def gram_point(nu: int, tau_bar: float = 0.0) -> GramRecord:
    return gram_spacing_report(nu, nu, tau_bar)[0][0]


@dataclass(frozen=True)
class GramSummary:
    count: int
    mean_ratio: float
    mean_ratio_asymptotic: float
    min_spacing: float
    max_spacing: float


def gram_spacing_report(nu_from: int, nu_to: int, tau_bar: float = 0.0):
    """Records for nu in [nu_from, nu_to] plus ratio statistics.

    mean_ratio averages spacing / (2pi/ln(t/2pi)); the _asymptotic variant
    divides by 2pi/ln(t) instead.
    """
    if not (0 <= nu_from <= nu_to):
        raise DomainError("need 0 <= nu_from <= nu_to")
    ts = _gram_ts(range(nu_from, nu_to + 2), tau_bar)
    records = []
    for i, nu in enumerate(range(nu_from, nu_to + 1)):
        t = ts[i]
        records.append(GramRecord(
            nu=nu,
            t=t,
            tau_bar=tau_bar,
            spacing=ts[i + 1] - t,
            predicted=2.0 * math.pi / math.log(t / zfun.TWO_PI),
        ))
    ratios = [r.spacing / r.predicted for r in records]
    ratios_a = [r.spacing / r.predicted_asymptotic for r in records]
    spacings = [r.spacing for r in records]
    summary = GramSummary(
        count=len(records),
        mean_ratio=sum(ratios) / len(ratios),
        mean_ratio_asymptotic=sum(ratios_a) / len(ratios_a),
        min_spacing=min(spacings),
        max_spacing=max(spacings),
    )
    return records, summary
