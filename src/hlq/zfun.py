"""Hardy Z-function and Riemann-Siegel theta on the critical line.

Three evaluation routes, each with a certified absolute-error envelope:

* ``theta``: asymptotic expansion with three correction terms for
  t >= ``T_SWITCH``; the exact log-Gamma form below.
* the reference route: Euler-Maclaurin evaluation of zeta(1/2 + it) with
  the classical remainder bound, rotated onto Z.  Slow but valid at any
  height here considered; ``z_many`` uses it below ``ZConfig.rs_min_t``.
* the Riemann-Siegel route: main sum plus four correction terms.
  ``z_eval`` uses it from ``T_SWITCH`` up when its envelope meets the
  requested target, otherwise it falls back to the reference route.  On
  the nodes of whole unit cells ``z_many`` factors the main sum over a
  lattice of cells and offsets (``_lattice_main_sum``).

The RS truncation envelope ``RS_TRUNC_C * t^(-11/4)`` (t >= 25) is
empirical, not a proved bound: against mpmath at 150 points on [25, 1e6]
the worst error/envelope was 0.25 (tools/make_rs_tables.py gives the table
provenance).  Every envelope includes an explicit phase-roundoff term since
the oscillation arguments grow like t*ln(t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math

import numpy as np

from ._rs_coeffs import RS_C_TABLES
from ._util import as_float_array
from .errors import DomainError, PrecisionUnreachable

TWO_PI = 2.0 * math.pi
LN_TWO_PI = math.log(TWO_PI)
EULER_GAMMA = float(np.euler_gamma)
EPS = float(np.finfo(np.float64).eps)

T_SWITCH = 10.0
RS_MIN_T = 700.0  # internal integrand route: reference below, RS above
RS_TRUNC_C = 0.05  # empirical, see the module docstring
_EM_M = 14  # Euler-Maclaurin correction terms of the reference route

_MIN_TARGET = 1e-12


@dataclass(frozen=True)
class ZConfig:
    """Where ``z_many`` switches from the reference route to RS."""

    rs_min_t: float = RS_MIN_T

    def __post_init__(self):
        rs_min_t = self.rs_min_t
        if not (isinstance(rs_min_t, (int, float)) and T_SWITCH <= rs_min_t < math.inf):
            raise DomainError("rs_min_t must be finite and >= T_SWITCH")


DEFAULT_Z_CONFIG = ZConfig()


@dataclass(frozen=True)
class ZSample:
    t: float
    z: float
    abs_err: float
    n_terms: int
    method: str  # "riemann_siegel" | "reference"


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def theta_many(ts) -> np.ndarray:
    """Vectorized Riemann-Siegel theta; absolute error <= 1e-10 for t >= 1."""
    ts = as_float_array(ts)
    if np.any(ts < 0) or not np.all(np.isfinite(ts)):
        raise DomainError("theta requires finite t >= 0")
    out = np.empty_like(ts)
    lo = ts < T_SWITCH
    if np.any(lo):
        t = ts[lo]
        out[lo] = _im_loggamma_quarter(0.5 * t) - 0.5 * t * math.log(math.pi)
    hi = ~lo
    if np.any(hi):
        t = ts[hi]
        out[hi] = (
            0.5 * t * np.log(t / TWO_PI)
            - 0.5 * t
            - math.pi / 8.0
            + 1.0 / (48.0 * t)
            + 7.0 / (5760.0 * t ** 3)
            + 31.0 / (80640.0 * t ** 5)
        )
    return out


def _im_loggamma_quarter(y: np.ndarray) -> np.ndarray:
    """Im log Gamma(1/4 + iy), the branch continuous from y = 0.

    Upward recurrence log Gamma(z) = log Gamma(z + 10) - sum_{j<10} log(z + j)
    moves the argument to Re w = 10.25, where the Stirling series with the
    terms B_2k / (2k (2k-1) w^(2k-1)), k <= 8, is truncated below 1e-17.
    Each log(z + j) has Re > 0, so its imaginary part is atan2(y, 1/4 + j).
    """
    w = 10.25 + 1j * y
    bern = _bernoulli_even()
    w_inv2 = 1.0 / (w * w)
    power = 1.0 / w
    series = np.zeros_like(w)
    for k in range(1, 9):
        series += (bern[k] / (2 * k * (2 * k - 1))) * power
        power = power * w_inv2
    out = np.imag((w - 0.5) * np.log(w) - w + series)
    for j in range(10):
        out -= np.arctan2(y, 0.25 + j)
    return out


def theta(t: float) -> float:
    """Riemann-Siegel theta at a single point."""
    return float(theta_many([t])[0])


def theta_deriv(t: float) -> float:
    """d theta/dt; adequate for Newton steps (t >= 7)."""
    if not (0.0 < t < math.inf):
        raise DomainError("theta_deriv requires finite t > 0")
    return 0.5 * math.log(t / TWO_PI) - 1.0 / (48.0 * t * t)


# ---------------------------------------------------------------------------
# Euler-Maclaurin reference for zeta(1/2 + it)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _bernoulli_even():
    """B_0, B_2, ..., B_34 as floats, each rounded once from the exact
    rational given by sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, 35):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return tuple(float(b[2 * k]) for k in range(18))


def _zeta_em_block(ts: np.ndarray, n_terms: int, m_terms: int):
    """Euler-Maclaurin zeta(1/2+it) for a block of t, shared term count.

    Returns (values, remainder_bounds, roundoff_envelopes) with per-point
    bound arrays; the remainder bound is the classical one: first omitted
    term times |s+2M+1|/(sigma+2M+1).
    """
    s = 0.5 + 1j * ts
    ns = np.arange(1, n_terms, dtype=np.float64)
    logn = np.log(ns)
    acc = np.exp(-s[:, None] * logn[None, :]).sum(axis=1)
    n = float(n_terms)
    n_pow = np.exp(-s * math.log(n))  # N^-s
    val = acc + n * n_pow / (s - 1.0) + 0.5 * n_pow
    bern = _bernoulli_even()
    u = (bern[1] / 2.0) * s / n  # U_1; T_k = N^-s * U_k
    tail = np.zeros_like(s)
    for k in range(1, m_terms + 1):
        tail += u
        u = u * (
            (s + (2 * k - 1))
            * (s + 2 * k)
            * (bern[k + 1] / bern[k])
            / ((2 * k + 1) * (2 * k + 2) * n * n)
        )
    val = val + n_pow * tail
    # u is now the first omitted term U_{M+1}; add the Backlund factor
    sigma_fac = np.abs(s + (2 * m_terms + 1)) / (0.5 + 2 * m_terms + 1)
    rem_bound = np.abs(n_pow * u) * sigma_fac
    return val, rem_bound, _em_roundoff(ts, n_terms, m_terms)


def _em_roundoff(ts, n_terms: int, m_terms: int):
    """Roundoff envelope of ``_zeta_em_block``, per point whatever the batch."""
    n = float(n_terms)
    return 2.0 * math.sqrt(n) * EPS * np.maximum(1.0, ts * max(1.0, math.log(n))) * 1.5 \
        + (n_terms + m_terms) * EPS * 3.0


def _z_from_zeta(ts: np.ndarray, zeta_vals: np.ndarray, zeta_env):
    """Rotate zeta(1/2+it) by e^{i theta}; Z is real, the imaginary part is
    a cross-check absorbed into the envelope."""
    th = theta_many(ts)
    rot = np.exp(1j * th) * zeta_vals
    env = zeta_env + (np.abs(zeta_vals) + 0.1) * 1e-10 + np.abs(np.imag(rot))
    return np.real(rot), env


def _em_terms(ts: np.ndarray) -> np.ndarray:  # N of the reference route
    return np.maximum(50, np.floor(0.6 * ts).astype(np.int64) + 1)


def _z_reference(ts: np.ndarray):
    """Reference-route Z over an ascending array: (values, envelopes, N).

    The Euler-Maclaurin term count N = max(50, floor(0.6 t) + 1), with
    M = 14 correction terms, is a per-point function of t, so runs of
    points sharing one N are evaluated together: a value never depends on
    which neighbours happened to share its batch.  Memory is bounded by
    chunking a run over points, at most 4e6 // N per block, never over
    terms: each point is reduced over its full term range in one order.
    """
    n_arr = _em_terms(ts)
    out = np.empty_like(ts)
    env = np.empty_like(ts)
    bounds = np.r_[np.flatnonzero(np.r_[True, np.diff(n_arr) != 0]), len(ts)]
    for i, j in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        n = int(n_arr[i])
        step = max(64, 4_000_000 // n)
        for a in range(i, j, step):
            b = min(a + step, j)
            vals, rem, ro = _zeta_em_block(ts[a:b], n, _EM_M)
            out[a:b], env[a:b] = _z_from_zeta(ts[a:b], vals, rem + ro)
    return out, env, n_arr


# ---------------------------------------------------------------------------
# Riemann-Siegel route
# ---------------------------------------------------------------------------

def rs_truncation_env(t):
    """Truncation envelope of the four-correction RS formula (empirical)."""
    t = np.asarray(t, dtype=np.float64)
    return RS_TRUNC_C * t ** -2.75


def rs_roundoff_env(t):
    """Coherent phase-roundoff envelope: sum(2/sqrt(n)) <= 4(t/2pi)^(1/4),
    each phase computed from magnitudes up to t*ln(t)."""
    t = np.asarray(t, dtype=np.float64)
    return 4.0 * (t / TWO_PI) ** 0.25 * EPS * t * np.maximum(1.0, np.log(t))


def _rs_corrections(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    x = p - 0.5
    corr = np.zeros_like(p)
    for tab in reversed(RS_C_TABLES):
        v = np.full_like(p, tab[-1])
        for c in reversed(tab[:-1]):
            v = v * x + c
        corr = corr * q + v
    return corr


def _add_cos_terms(ts, th, n_lo, n_hi, out) -> None:
    """out += sum_{n_lo < n <= n_hi} cos(th - t ln n) / sqrt(n), pointwise.

    n_lo and n_hi are nondecreasing along the block, so the points that take
    term n form one slice; terms are added in ascending n.
    """
    ns = np.arange(int(n_lo[0]) + 1, int(n_hi[-1]) + 1)
    starts = np.searchsorted(n_hi, ns, side="left").tolist()
    stops = np.searchsorted(n_lo, ns, side="left").tolist()
    for n, i0, i1 in zip(ns.tolist(), starts, stops):
        if i0 < i1:
            out[i0:i1] += np.cos(th[i0:i1] - ts[i0:i1] * math.log(n)) / math.sqrt(n)


def _lattice_main_sum(th, cells, offsets):
    """sum_{n <= N_m} n^(-1/2) cos(theta(t) - t ln n) at the nodes t = m + c_k
    of whole cells m in ``cells`` (ascending), offsets c_k in ``offsets``;
    returns (sums, N_m per node).

    With t = m + c_k the sum is Re(e^(i theta) sum_n [n^(-1/2) e^(-i m ln n)]
    e^(-i c_k ln n)): a (cells x N) and an (offsets x N) phase table replace
    the cells * offsets * N cosines of the pointwise sum.  The terms are
    accumulated by elementwise complex multiply-adds in ascending n, no BLAS
    product, so a node's bits do not depend on the cells beside it; for the
    same reason each cell takes its dense term count N_m = floor(sqrt(m/2pi))
    from the cell itself, never from its block.

    Phase error: the sum is taken at the exact m + c_k while theta is taken
    at the node fl(m + c_k).  Per term, the phase m ln n carries the
    roundings of ln n and of the product, each at most (eps/2) m ln n, and
    the node's rounding adds |fl(m + c_k) - (m + c_k)| ln n <= (eps/2) t ln n:
    at most (3/2) eps t ln n, as for the pointwise phase t ln n.  Since
    n <= sqrt(t/2pi), ln n < (ln t)/2, so this stays within the eps t ln t
    per term that ``rs_roundoff_env`` charges; the offset phases c_k ln n
    and the complex products add O(eps) relative per term.
    """
    n_cell = np.floor(np.sqrt(cells / TWO_PI)).astype(np.int64)
    n_max = int(n_cell[-1])
    logs = np.array([math.log(n) for n in range(1, n_max + 1)])
    inv_root = 1.0 / np.sqrt(np.arange(1.0, n_max + 1.0))
    cell_f = np.exp(-1j * (logs[:, None] * cells[None, :])) * inv_root[:, None]
    off_f = np.exp(-1j * (logs[:, None] * offsets[None, :]))
    acc = np.zeros((len(cells), len(offsets)), dtype=np.complex128)
    for n in range(1, n_max + 1):
        i0 = int(np.searchsorted(n_cell, n, side="left"))
        acc[i0:] += cell_f[n - 1, i0:, None] * off_f[n - 1]
    s = acc.ravel()
    return np.cos(th) * s.real - np.sin(th) * s.imag, np.repeat(n_cell, len(offsets))


def _z_rs_block(ts: np.ndarray, lattice=None):
    """RS evaluation for an ascending block of t >= 2*TWO_PI.

    Main-sum terms are added suffix-wise: N(t) is nondecreasing along the
    block, so term n applies exactly to the suffix where N >= n.  With
    ``lattice = (cells, offsets)`` the last len(cells) * len(offsets) points
    are the whole-cell nodes cells[:, None] + offsets: their dense terms
    n <= N_m come from ``_lattice_main_sum`` and the at most one term more,
    for nodes past sqrt(t/2pi) = N_m + 1, is added pointwise.
    """
    a = np.sqrt(ts / TWO_PI)
    n_of_t = np.floor(a).astype(np.int64)
    th = theta_many(ts)
    total = np.zeros_like(ts)
    n_lo = np.zeros_like(n_of_t)
    if lattice is not None:
        j = len(ts) - len(lattice[0]) * len(lattice[1])
        total[j:], n_lo[j:] = _lattice_main_sum(th[j:], *lattice)
    _add_cos_terms(ts, th, n_lo, n_of_t, total)
    total *= 2.0
    p = a - n_of_t
    q = np.sqrt(TWO_PI / ts)
    corr = _rs_corrections(p, q)
    sign = np.where(n_of_t % 2 == 1, 1.0, -1.0)  # (-1)^(N-1)
    total += sign * (TWO_PI / ts) ** 0.25 * corr
    env = rs_truncation_env(ts) + rs_roundoff_env(ts)
    return total, env


# ---------------------------------------------------------------------------
# combined evaluation
# ---------------------------------------------------------------------------

def z_many(ts, z_config: ZConfig = DEFAULT_Z_CONFIG, lattice=None):
    """Vectorized Z over an ascending array; returns (values, envelopes).

    Route per point: reference below ``z_config.rs_min_t``, Riemann-Siegel
    above.  This is the integrand path used by the quadrature; envelopes are
    per-point certified absolute errors.  ``lattice = (cells, offsets)``
    says that ts is cells[:, None] + offsets, raveled: the nodes of whole
    cells [m, m+1].  Cells with every node on the RS route then take the
    factored main sum; a cell that straddles a custom ``rs_min_t`` is
    evaluated pointwise.
    """
    ts = as_float_array(ts)
    if len(ts) == 0:
        return np.zeros(0), np.zeros(0)
    if np.any(np.diff(ts) < 0):
        raise DomainError("z_many requires ascending t")
    if ts[0] < 0:
        raise DomainError("z_many requires t >= 0")
    if lattice is not None and not np.array_equal(
            ts, (lattice[0][:, None] + lattice[1]).ravel()):
        raise DomainError("z_many lattice does not match ts")
    out = np.empty_like(ts)
    env = np.empty_like(ts)
    split = int(np.searchsorted(ts, z_config.rs_min_t, side="left"))
    if split:
        out[:split], env[:split], _ = _z_reference(ts[:split])
    if split < len(ts):
        rs_lattice = None
        if lattice is not None:
            cells, offsets = lattice
            first = -(-split // len(offsets))  # first cell wholly on the RS route
            if first < len(cells):
                rs_lattice = (cells[first:], offsets)
        z, e = _z_rs_block(ts[split:], rs_lattice)
        out[split:] = z
        env[split:] = e
    return out, env


def z_eval(t: float, target_abs_err: float = 1e-9) -> ZSample:
    """Z(t) with a certified absolute error at most ``target_abs_err``.

    Picks the Riemann-Siegel route when its envelope meets the target
    (never below ``T_SWITCH``), otherwise the reference route;
    raises ``PrecisionUnreachable`` when neither certifies the target.
    """
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError("z_eval requires finite t >= 0")
    if not (target_abs_err >= _MIN_TARGET):
        raise DomainError("target_abs_err must be >= 1e-12")
    ts = np.array([t])
    if t >= T_SWITCH:
        rs_env = float(rs_truncation_env(t) + rs_roundoff_env(t))
        if rs_env <= target_abs_err:
            z, env = _z_rs_block(ts)
            n_main = int(math.sqrt(t / TWO_PI))
            return ZSample(t, float(z[0]), float(env[0]), n_main, "riemann_siegel")
    # the roundoff term, known before the O(t) sum, bounds the envelope below
    env = _em_roundoff(ts, int(_em_terms(ts)[0]), _EM_M)
    if float(env[0]) <= target_abs_err:
        z, env, n = _z_reference(ts)
    if float(env[0]) > target_abs_err:
        raise PrecisionUnreachable(
            f"no route certifies {target_abs_err:g} at t={t:g} "
            f"(envelope at least {float(env[0]):.3g})"
        )
    return ZSample(t, float(z[0]), float(env[0]), int(n[0]), "reference")
