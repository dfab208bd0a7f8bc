"""Ladder transform: invert F(y) = (y/2)ln(y/2) + (c - ln 2pi)(y/2) + c0.

phi(T) is the preimage of the cumulative mass I(T) under F, restricted to
the increasing branch y > 2*exp(a).  The additive constant c0 cancels in
every mass difference, so it only shifts the absolute calibration of phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import hlmass, zfun
from ._util import safeguarded_newton
from .errors import DomainError, NoConvergence

LN_TWO_PI = zfun.LN_TWO_PI
EULER_GAMMA = zfun.EULER_GAMMA

Y_MIN = 10.0  # F_inverse's floor: F' > 0 for y > 2e^a ~ 2.60
PHI_T_MIN = 100.0


@dataclass(frozen=True)
class LadderConstants:
    c: float = EULER_GAMMA
    c0: float = 0.0

    @property
    def a(self) -> float:
        return LN_TWO_PI - 1.0 - self.c


DEFAULT_CONSTANTS = LadderConstants()


@dataclass(frozen=True)
class LadderPoint:
    T: float
    phi: float
    mass: float

    @property
    def ratio(self) -> float:
        return self.phi / self.T


def F_of(y: float, k: LadderConstants = DEFAULT_CONSTANTS) -> float:
    y = float(y)
    if not (y > 0.0 and math.isfinite(y)):
        raise DomainError("F_of requires y > 0")
    h = 0.5 * y
    return h * math.log(h) + (k.c - LN_TWO_PI) * h + k.c0


def F_prime(y: float, k: LadderConstants = DEFAULT_CONSTANTS) -> float:
    y = float(y)
    if not (y > 0.0 and math.isfinite(y)):
        raise DomainError("F_prime requires y > 0")
    return 0.5 * math.log(0.5 * y) - 0.5 * k.a


def F_inverse(v: float, k: LadderConstants = DEFAULT_CONSTANTS) -> float:
    """Unique y >= Y_MIN with F(y) = v, to 1e-12 relative in F.

    Newton from a log-scale seed, clamped to a maintained bracket; falls
    back to bisection whenever a step leaves the bracket.
    """
    v = float(v)
    f_min = F_of(Y_MIN, k)
    if not (v >= f_min):
        raise DomainError(f"F_inverse target {v:g} below F({Y_MIN:g}) = {f_min:g}")
    lo = Y_MIN
    hi = 2.0 * Y_MIN
    while F_of(hi, k) < v:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise NoConvergence("F_inverse bracket expansion failed")
    return float(safeguarded_newton(lambda y, _: [F_of(y[0], k) - v],
                                    lambda y, _: [F_prime(y[0], k)], lo, hi,
                                    min(max(math.sqrt(lo * hi), lo), hi),
                                    1e-12 * max(1.0, abs(v)), 200,
                                    "F_inverse")[0])


def phi_at(T: float, cfg: hlmass.QuadratureConfig = hlmass.DEFAULT_CONFIG,
           ckpt: hlmass.MassCheckpoint | None = None,
           k: LadderConstants = DEFAULT_CONSTANTS,
           jobs: int = 1) -> LadderPoint:
    """Ladder point at height T: mass I(T) and its preimage under F."""
    T = float(T)
    if not (T >= PHI_T_MIN):
        raise DomainError(f"phi_at requires T >= {PHI_T_MIN:g}")
    mass = hlmass.hl_mass(T, cfg=cfg, ckpt=ckpt, jobs=jobs)
    phi = F_inverse(mass, k)
    return LadderPoint(T=T, phi=phi, mass=mass)


def chord_tan_alpha(p1: LadderPoint, p2: LadderPoint) -> float:
    """Slope of the chord joining two points of the curve y = phi(T)/2."""
    if not (p1.T < p2.T):
        raise DomainError("chord_tan_alpha requires p1.T < p2.T")
    return (p2.phi - p1.phi) / (2.0 * (p2.T - p1.T))
