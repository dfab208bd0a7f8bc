"""Ladder transform: invert F(y) = (y/2)ln(y/2) + (c - ln 2pi)(y/2) + c0.

c is Euler's constant.  phi(T) is the preimage of the cumulative mass I(T)
under F, restricted to the increasing branch y > 2*exp(a) with
a = ln 2pi - 1 - c.  The additive constant c0 cancels in every mass
difference, so it only shifts the absolute calibration of phi; it is the
one free constant, and only the functions that compute phi take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import hlmass, zfun
from ._util import safeguarded_newton
from .errors import DomainError, NoConvergence

LN_TWO_PI = zfun.LN_TWO_PI
EULER_GAMMA = zfun.EULER_GAMMA
A = LN_TWO_PI - 1.0 - EULER_GAMMA  # a of the module docstring

Y_MIN = 10.0  # F_inverse's floor: F' > 0 for y > 2e^a ~ 2.60
PHI_T_MIN = 100.0


@dataclass(frozen=True)
class LadderPoint:
    T: float
    phi: float
    mass: float

    @property
    def ratio(self) -> float:
        return self.phi / self.T


def check_c0(c0: float) -> None:
    """Refuse a ``c0`` that is not finite, before any mass is integrated."""
    if not math.isfinite(c0):
        raise DomainError(f"c0 must be finite, got {c0!r}")


def F_of(y: float, c0: float = 0.0) -> float:
    y = float(y)
    if not (y > 0.0 and math.isfinite(y)):
        raise DomainError("F_of requires y > 0")
    check_c0(c0)
    h = 0.5 * y
    return h * math.log(h) + (EULER_GAMMA - LN_TWO_PI) * h + c0


def F_prime(y: float) -> float:
    y = float(y)
    if not (y > 0.0 and math.isfinite(y)):
        raise DomainError("F_prime requires y > 0")
    return 0.5 * math.log(0.5 * y) - 0.5 * A


def F_inverse(v: float, c0: float = 0.0) -> float:
    """Unique y >= Y_MIN with F(y) = v, to 1e-12 relative in F.

    Newton from a log-scale seed, clamped to a maintained bracket; falls
    back to bisection whenever a step leaves the bracket.
    """
    v = float(v)
    f_min = F_of(Y_MIN, c0)
    if not (v >= f_min):
        raise DomainError(f"F_inverse target {v:g} below F({Y_MIN:g}) = {f_min:g}")
    lo = Y_MIN
    hi = 2.0 * Y_MIN
    while F_of(hi, c0) < v:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise NoConvergence("F_inverse bracket expansion failed")
    return float(safeguarded_newton(lambda y, _: [F_of(y[0], c0) - v],
                                    lambda y, _: [F_prime(y[0])], lo, hi,
                                    min(max(math.sqrt(lo * hi), lo), hi),
                                    1e-12 * max(1.0, abs(v)), 200,
                                    "F_inverse")[0])


def phi_at(T: float, cfg: hlmass.QuadratureConfig = hlmass.DEFAULT_CONFIG,
           ckpt: hlmass.MassCheckpoint | None = None,
           c0: float = 0.0, jobs: int = 1) -> LadderPoint:
    """Ladder point at height T: mass I(T) and its preimage under F."""
    T = float(T)
    if not (T >= PHI_T_MIN):
        raise DomainError(f"phi_at requires T >= {PHI_T_MIN:g}")
    check_c0(c0)
    mass = hlmass.hl_mass(T, cfg=cfg, ckpt=ckpt, jobs=jobs)
    phi = F_inverse(mass, c0)
    return LadderPoint(T=T, phi=phi, mass=mass)


def chord_tan_alpha(p1: LadderPoint, p2: LadderPoint) -> float:
    """Slope of the chord joining two points of the curve y = phi(T)/2."""
    if not (p1.T < p2.T):
        raise DomainError("chord_tan_alpha requires p1.T < p2.T")
    return (p2.phi - p1.phi) / (2.0 * (p2.T - p1.T))
