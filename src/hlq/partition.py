"""Equal-mass partitions of the cumulative integral.

The sequence T_nu(omega, tau) solves I(T_nu) = omega*nu + tau on the
lattice of masses, so consecutive points bound intervals of identical mass
omega and tau = 0 degenerates to the unshifted sequence.  Each target is
solved by Brent inside its integer cell [m, m + 1] of the checkpoint grid,
so T_nu depends only on nu, omega, tau and the grid; each root's partial
cell must fit the budget where it is solved.  Each interval [T_nu, T_nu+1]
is integrated again as one span under the finer ``_RECHECK_RULE`` as an
independent check, and gap diagnostics compare against the chord identity
gap = omega / ((ln(phi/2) - a) * tan(alpha)).

The Planck-quantum walk (omega = 6.6e-27/pi) lives in a local frame around
its anchor: at that scale absolute positions are far below float
resolution, so only offsets and gaps are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import hlmass, zfun
from ._util import brentq, check_positive_int
from .errors import DomainError, InsufficientSpan, NoConvergence, PrecisionUnreachable
from .ladder import A, F_inverse, LadderPoint, check_c0, chord_tan_alpha

PLANCK_H = 6.6e-27
_LATTICE_RTOL = 1e-9
# (Gauss-Legendre nodes per panel, widest panel) of the interval recheck
_RECHECK_RULE = (24, 0.7)


@dataclass(frozen=True)
class PartitionParams:
    omega: float = 1.0
    tau: float = 0.0
    T_start: float = 1000.0
    count: int = 100
    epsilon: float = 0.01

    def __post_init__(self):
        if not (1e-30 <= self.omega <= 1e6):
            raise DomainError("omega must be in [1e-30, 1e6]")
        if not (0.0 <= self.tau < self.omega):
            raise DomainError("tau must be in [0, omega)")
        if not (self.T_start >= 100.0):
            raise DomainError("T_start must be >= 100")
        check_positive_int("count", self.count)
        if not (0.0 < self.epsilon <= 0.05):
            raise DomainError("epsilon must be in (0, 0.05]")


@dataclass(frozen=True)
class PartitionRecord:
    nu: int
    T: float
    gap: float | None
    mass: float | None
    tan_alpha: float | None
    predicted_gap: float | None
    rel_gap_err: float | None


def predicted_gap(T_lo: LadderPoint, T_hi: LadderPoint, omega: float) -> float:
    """Gap implied by the chord identity at realized endpoints."""
    denom = (math.log(0.5 * T_lo.phi) - A) * chord_tan_alpha(T_lo, T_hi)
    if not (denom > 0.0):
        raise DomainError("chord identity denominator must be positive")
    return omega / denom


def _solve_lattice(target: float, omega: float,
                   cfg: hlmass.QuadratureConfig, ckpt: hlmass.MassCheckpoint,
                   jobs: int = 1):
    """(T, I(T)) with I(T) = target, by Brent in its grid cell; the root's
    partial-cell envelope must fit the budget."""
    bound = _LATTICE_RTOL * max(1.0, abs(target))
    if not (bound < omega):
        raise PrecisionUnreachable(f"omega {omega:g} is not above the lattice "
                                   f"residual bound {bound:.3g} at target {target:g}")
    probes = {}

    def f(t):
        if t not in probes:
            probes[t] = hlmass.hl_mass_envelope(t, cfg=cfg, ckpt=ckpt, jobs=jobs)
        return probes[t][0] - target
    m = hlmass.mass_cell(target, cfg, ckpt, jobs=jobs)
    root = brentq(f, m, m + 1, xtol=1e-13, rtol=4.0 * zfun.EPS, maxiter=200)
    resid = abs(f(root))
    if resid > bound:
        raise NoConvergence(f"lattice solve residual {resid:.3g} at target {target:g}")
    return root, hlmass.check_budget(*probes[root], cfg, f"at T={root:g}")


def _seed(params, cfg, ckpt, jobs):
    """(nu0, T, I(T)) of ``seed_point``."""
    i_start = hlmass.hl_mass(params.T_start, cfg=cfg, ckpt=ckpt, jobs=jobs)
    nu0 = int(math.ceil((i_start - params.tau) / params.omega))
    target = params.omega * nu0 + params.tau
    if target == i_start:
        return nu0, params.T_start, i_start
    return (nu0, *_solve_lattice(target, params.omega, cfg, ckpt, jobs=jobs))


def seed_point(params: PartitionParams,
               cfg: hlmass.QuadratureConfig = hlmass.DEFAULT_CONFIG,
               ckpt: hlmass.MassCheckpoint | None = None,
               jobs: int = 1):
    """(nu0, T) anchoring the sequence: first lattice point at or above T_start."""
    if ckpt is None:
        ckpt = hlmass.new_checkpoint(cfg)
    return _seed(params, cfg, ckpt, jobs)[:2]


def next_point(T_prev: float, omega: float,
               cfg: hlmass.QuadratureConfig = hlmass.DEFAULT_CONFIG,
               ckpt: hlmass.MassCheckpoint | None = None,
               jobs: int = 1) -> float:
    """T with mass exactly omega over [T_prev, T]."""
    T_prev = float(T_prev)
    if not (T_prev >= 100.0):
        raise DomainError("next_point requires T_prev >= 100")
    if not (0.0 < omega < math.inf):
        raise DomainError("next_point requires a finite omega > 0")
    if ckpt is None:
        ckpt = hlmass.new_checkpoint(cfg)
    i_prev = hlmass.hl_mass_probe(T_prev, cfg=cfg, ckpt=ckpt, jobs=jobs)
    return _solve_lattice(i_prev + omega, omega, cfg, ckpt, jobs=jobs)[0]


def generate(params: PartitionParams,
             cfg: hlmass.QuadratureConfig = hlmass.DEFAULT_CONFIG,
             ckpt: hlmass.MassCheckpoint | None = None,
             c0: float = 0.0, jobs: int = 1) -> list[PartitionRecord]:
    """count+1 lattice points as records; the last row is the bare endpoint.

    Each interval's mass is integrated again as one span under
    ``_RECHECK_RULE``, independently of the lattice construction, in one
    kernel call per ``hlmass._CELL_BLOCK`` intervals; phi values for the
    chord diagnostics come from the realized cumulative masses at the
    endpoints, which the solves computed and checked against the budget.
    """
    check_c0(c0)
    if ckpt is None:
        ckpt = hlmass.new_checkpoint(cfg)
    nu0, *solved = _seed(params, cfg, ckpt, jobs)
    solves = [solved]
    for i in range(1, params.count + 1):
        target = params.omega * (nu0 + i) + params.tau
        solves.append(_solve_lattice(target, params.omega, cfg, ckpt, jobs=jobs))
    points = [t for t, _ in solves]
    lps = [LadderPoint(T=t, phi=F_inverse(mi, c0), mass=mi) for t, mi in solves]
    blocks = range(0, params.count, hlmass._CELL_BLOCK)
    masses = [m for b in blocks for m in hlmass._span_masses(
        points[b:b + hlmass._CELL_BLOCK + 1], rule=_RECHECK_RULE)[0].tolist()]

    records = []
    for i, (lo, hi, mass) in enumerate(zip(lps, lps[1:], masses)):
        gap, pred = hi.T - lo.T, predicted_gap(lo, hi, params.omega)
        records.append(PartitionRecord(nu0 + i, lo.T, gap, mass,
                                       chord_tan_alpha(lo, hi), pred,
                                       abs(gap - pred) / gap))
    records.append(PartitionRecord(nu0 + params.count, points[-1], *[None] * 5))
    return records


@dataclass(frozen=True)
class MeanGapStat:
    mean_gap: float
    predicted: float
    ratio: float
    predicted_asymptotic: float
    ratio_asymptotic: float
    n0: int
    span: float
    u0: float
    anchor_t: float


def mean_gap_stat(records: list[PartitionRecord],
                  params: PartitionParams) -> MeanGapStat:
    """Mean gap over the span U0 = T^(1/3+2*epsilon) from the first record.

    predicted uses the local mean of Z^2, ln(T/2pi) + 2c; the quoted
    asymptotic form omega/ln(T) agrees with it to leading order and is
    reported as predicted_asymptotic.
    """
    pts = [r.T for r in records]
    if len(pts) < 2:
        raise InsufficientSpan("need at least two partition points")
    t0 = pts[0]
    u0 = t0 ** (1.0 / 3.0 + 2.0 * params.epsilon)
    if pts[-1] - t0 < u0:
        raise InsufficientSpan(
            f"records span {pts[-1] - t0:.4g} < U0 = {u0:.4g}"
        )
    n0 = max(i for i in range(1, len(pts)) if pts[i] - t0 <= u0)
    span = pts[n0] - t0
    mean_gap = span / n0
    dens_sharp = math.log(t0 / zfun.TWO_PI) + 2.0 * zfun.EULER_GAMMA
    pred = params.omega / dens_sharp
    pred_a = params.omega / math.log(t0)
    return MeanGapStat(
        mean_gap=mean_gap,
        predicted=pred,
        ratio=mean_gap / pred,
        predicted_asymptotic=pred_a,
        ratio_asymptotic=mean_gap / pred_a,
        n0=n0,
        span=span,
        u0=u0,
        anchor_t=t0,
    )


def planck_sequence(T0: float, count: int):
    """Micro-interval walk with omega = 6.6e-27/pi in a local frame.

    Returns count (offset, gap) pairs with T_nu = T0 + offset.  Offset k
    is the correctly rounded product k * gap, which is also the compensated
    (Kahan) sum of k gaps: by induction that sum is fl(k * gap) while
    gap + comp stays in gap's binade, which fails only when gap's
    significand lies within count * 2^-52 of 2.  Z^2 is evaluated once, at T0:
    with |Z(T0)| >= 0.5 and count <= 1e6 the walk spans at most
    1e6 * omega / 0.25 ~ 8.4e-21, far below the scale on which Z varies,
    so every gap is omega / Z(T0)^2.
    """
    T0 = float(T0)
    if not (1e3 <= T0 <= 1e5):
        raise DomainError("planck walk requires T0 in [1e3, 1e5]")
    check_positive_int("count", count)
    if count > 10 ** 6:
        raise DomainError("count must be <= 1e6")
    omega = PLANCK_H / math.pi
    z = zfun.z_eval(T0, target_abs_err=1e-9)
    if abs(z.z) < 0.5:
        raise DomainError(
            f"|Z(T0)| = {abs(z.z):.3g} < 0.5: anchor too close to a zero"
        )
    gap = omega / (z.z * z.z)
    return [(k * gap, gap) for k in range(count)]
