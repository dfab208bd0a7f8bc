"""Phase function and Z evaluation against independent reference values."""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlq import zfun
from hlq._rs_coeffs import RS_C_TABLES
from hlq.errors import DomainError, PrecisionUnreachable

DATA = os.path.join(os.path.dirname(__file__), "data", "z_oracle_200.json")


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_theta_reference_values(oracle):
    assert abs(zfun.theta(100.0) - oracle["theta_100"]) <= 1e-10
    assert abs(zfun.theta(1000.0) - oracle["theta_1000"]) <= 1e-9
    assert abs(zfun.theta(14.0) - oracle["theta_14"]) <= 1e-10
    # below the asymptotic switch the exact log-Gamma route is used
    assert abs(zfun.theta(2.5) - oracle["theta_2p5"]) <= 1e-12


def test_theta_deriv_matches_finite_difference():
    for t in (15.0, 120.0, 3333.0):
        h = 1e-5 * t
        fd = (zfun.theta(t + h) - zfun.theta(t - h)) / (2 * h)
        assert abs(zfun.theta_deriv(t) - fd) <= 1e-6 * abs(fd)


def test_theta_deriv_closed_form():
    # theta'(t) ~ 0.5 ln(t / 2 pi); the correction is O(1/t^2)
    for t in (100.0, 1000.0, 10000.0):
        lead = 0.5 * math.log(t / zfun.TWO_PI)
        assert abs(zfun.theta_deriv(t) - lead) <= 1.0 / t ** 2


def test_theta_many_matches_scalar():
    """Each element of a batch has the bits of its scalar evaluation, on
    both sides of T_SWITCH; the Gram solve relies on it."""
    rng = np.random.default_rng(20261019)
    below = np.nextafter(10.0, 0.0)
    ts = np.concatenate([[2.5, 9.9, below, np.nextafter(below, 0.0), 10.0,
                          14.0, 100.0, 5000.0],
                         rng.uniform(7.0, 1e5, 1000),
                         np.exp(rng.uniform(np.log(7.0), np.log(1e5), 1000))])
    vals = zfun.theta_many(ts)
    for t, v in zip(ts, vals):
        assert v == zfun.theta(float(t))


def test_theta_below_switch_matches_mpmath():
    # the log-Gamma route below T_SWITCH, against mpmath at 30 digits
    mpmath = pytest.importorskip("mpmath")
    ts = np.linspace(0.0, zfun.T_SWITCH, 401)[:-1]
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.siegeltheta(t)) for t in ts])
    assert np.max(np.abs(zfun.theta_many(ts) - ref)) <= 1e-14


def test_bernoulli_numbers_exact():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ref = tuple(float(mpmath.bernoulli(2 * k)) for k in range(18))
    assert zfun._bernoulli_even() == ref


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=10.0, max_value=1e6),
       st.floats(min_value=1e-6, max_value=1e3))
def test_theta_strictly_increasing(t, dt):
    # theta' > 0 from t ~ 6.29 on
    assert zfun.theta(t + dt) > zfun.theta(t)


# ---------------------------------------------------------------------------
# z_eval
# ---------------------------------------------------------------------------

def test_z_reference_values(oracle):
    for key, t in (("Z_25.0", 25.0), ("Z_100.0", 100.0),
                   ("Z_1000.5", 1000.5), ("Z_5000.25", 5000.25)):
        s = zfun.z_eval(t)
        assert abs(s.z - oracle[key]) <= max(1e-9, s.abs_err)


def test_z_vanishes_at_zeros(oracle):
    for key in ("first_zero", "zero_29", "zero_30"):
        s = zfun.z_eval(oracle[key])
        assert abs(s.z) <= max(1e-9, s.abs_err)


def test_z_oracle_grid_within_certified_error():
    with open(DATA) as f:
        pairs = json.load(f)["pairs"]
    worst = 0.0
    for t_str, z_str in pairs[::5]:   # 40 of the 200; the acceptance
        s = zfun.z_eval(float(t_str))  # suite runs the full set
        err = abs(s.z - float(z_str))
        worst = max(worst, err)
        assert err <= max(s.abs_err, 1e-10), t_str
    assert worst <= 1e-8


def test_z_eval_reports_method_and_error():
    low = zfun.z_eval(12.0)
    assert low.method == "reference"
    high = zfun.z_eval(2000.0)
    assert high.method == "riemann_siegel"
    assert 0 < high.abs_err <= 1e-9
    # a loose target lets the asymptotic route take over earlier
    mid = zfun.z_eval(400.0, target_abs_err=1e-6)
    assert mid.method == "riemann_siegel"
    strict = zfun.z_eval(400.0, target_abs_err=1e-9)
    assert strict.method == "reference"
    assert abs(mid.z - strict.z) <= mid.abs_err + strict.abs_err


@pytest.mark.parametrize("t", [0.5, 5.0, 50.0, 300.0])
def test_z_eval_reference_route_is_z_many(t):
    s = zfun.z_eval(t, target_abs_err=1e-9)
    assert s.method == "reference"
    z, env = zfun.z_many([t])
    assert s.z == z[0] and s.abs_err == env[0]


def test_em_remainder_far_below_the_envelope():
    """At the reference route's term counts the Euler-Maclaurin remainder
    bound stays below 1e-14 up to t = 1e5, so that route never needs more
    terms than its rule gives.  The bound does not depend on the Dirichlet
    head, so the head is left at 0."""
    ts = np.array([0.0, 10.0, 700.0, 1e4, 1e5])
    _, rem, _ = zfun._zeta_em_block(ts, zfun._em_terms(ts), 14, 0.0)
    for t, r in zip(ts, rem):
        assert r < 1e-14, t


def test_em_chunked_run_matches_slices():
    """A 12,000-point run of one N = 361 is one batch of one-node cells; its
    bits equal those of 1,000-point slices."""
    ts = np.linspace(600.0, 601.6, 12000)
    z, env = zfun.z_many(ts)
    parts = [zfun.z_many(ts[i:i + 1000]) for i in range(0, len(ts), 1000)]
    assert np.array_equal(np.concatenate([p[0] for p in parts]), z)
    assert np.array_equal(np.concatenate([p[1] for p in parts]), env)
    pinned = {0: "0x1.55f655ff24e07p+1", 11079: "0x1.fb50c8cf70a78p-2",
              11080: "0x1.fab8dd59f33fap-2", 11999: "0x1.f2fdc0caf423ep-8"}
    for i, bits in pinned.items():
        assert float(z[i]).hex() == bits, i


def test_rs_below_25_within_envelope():
    """z_eval hands loose targets to RS from T_SWITCH = 10 up: at a target
    of 1e-2 every seeded point of [10, 25] takes RS and lies within its
    envelope of mpmath's Z at 25 digits."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2025)
    ts = np.r_[zfun.T_SWITCH, np.sort(rng.uniform(zfun.T_SWITCH, 25.0, 199)), 25.0]
    with mpmath.workdps(25):
        ref = [float(mpmath.siegelz(t)) for t in ts.tolist()]
    for t, z_mp in zip(ts.tolist(), ref):
        s = zfun.z_eval(t, target_abs_err=1e-2)
        assert s.method == "riemann_siegel", t
        assert abs(s.z - z_mp) <= s.abs_err, t


def test_rs_corrections_by_parity():
    """C_k has the parity of k: every coefficient of the other parity is an
    exact zero, and the parity Horner is within a few ulp of the exact
    value of the full tables at seeded (p, q)."""
    for k, tab in enumerate(RS_C_TABLES):
        assert all(c == 0.0 for c in tab[1 - k % 2::2]), k
    rng = np.random.default_rng(24)
    p = np.r_[rng.uniform(0.0, 1.0, 200), 0.0, 0.5, 1.0 - 2.0 ** -53]
    q = np.r_[rng.uniform(0.0, 0.8, 200), 0.8, 0.1, 0.5]
    got = zfun._rs_corrections(p, q)
    for pk, qk, g in zip(p.tolist(), q.tolist(), got.tolist()):
        x, exact = Fraction(pk) - Fraction(1, 2), Fraction(0)
        for tab in reversed(RS_C_TABLES):
            v = Fraction(0)
            for c in reversed(tab):
                v = v * x + Fraction(c)
            exact = exact * Fraction(qk) + v
        assert abs(g - float(exact)) <= 4 * math.ulp(float(exact)), (pk, qk)


def test_z_eval_precision_unreachable(monkeypatch):
    """A target below the reference route's roundoff term is refused before
    the O(t) Euler-Maclaurin sum is allocated: about 27 GB at t = 1e9."""
    def refuse(*args):
        raise AssertionError("the Euler-Maclaurin sum was evaluated")
    monkeypatch.setattr(zfun, "_lattice_sum", refuse)
    monkeypatch.setattr(zfun, "_zeta_em_block", refuse)
    for t, target in ((50000.0, 1e-12), (1e9, 1e-9)):
        with pytest.raises(PrecisionUnreachable):
            zfun.z_eval(t, target_abs_err=target)


def test_theta_domain():
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            zfun.theta(bad)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            zfun.theta_deriv(bad)


def test_z_eval_domain():
    with pytest.raises(DomainError):
        zfun.z_eval(-1.0)
    with pytest.raises(DomainError):
        zfun.z_eval(float("nan"))
    with pytest.raises(DomainError):
        zfun.z_eval(100.0, target_abs_err=1e-16)


@pytest.mark.parametrize("kw", [
    {"rs_min_t": 5.0}, {"rs_min_t": math.nan},
    {"rs_min_t": math.inf}, {"rs_min_t": "700"},
])
def test_z_config_validation(kw):
    with pytest.raises(DomainError):
        zfun.ZConfig(**kw)


# ---------------------------------------------------------------------------
# z_many determinism
# ---------------------------------------------------------------------------

def test_z_many_requires_ascending():
    with pytest.raises(DomainError):
        zfun.z_many([5.0, 4.0])


def test_z_many_matches_batch_independent_bits():
    # values must not depend on which neighbours share the batch
    ts = np.sort(np.concatenate([
        np.linspace(20.0, 690.0, 101),
        np.linspace(700.0, 4000.0, 101),
    ]))
    full, env_full = zfun.z_many(ts)
    assert np.all(env_full > 0)
    # split at an arbitrary interior index and re-run per piece
    for cut in (1, 37, 101, 150, 201):
        a, ea = zfun.z_many(ts[:cut])
        b, eb = zfun.z_many(ts[cut:])
        assert np.array_equal(np.concatenate([a, b]), full)
        assert np.array_equal(np.concatenate([ea, eb]), env_full)
    # single-point calls agree bit-for-bit as well
    for i in (0, 57, 120, 201):
        one, _ = zfun.z_many(ts[i:i + 1])
        assert one[0] == full[i]


def test_lattice_straddling_rs_min_t():
    """With rs_min_t = 700.5 the cell [700, 701] straddles the route split:
    the lattice of cells 700-760 is, bit for bit, cell 700 evaluated alone
    followed by cells 701-760 as a lattice."""
    zc = zfun.ZConfig(rs_min_t=700.5)
    offsets = 0.5 * (np.polynomial.legendre.leggauss(16)[0] + 1.0)
    cells = np.arange(700.0, 761.0)
    ts = (cells[:, None] + offsets).ravel()
    whole = zfun.z_many(ts, zc, lattice=(cells, offsets))
    head = zfun.z_many(ts[:len(offsets)], zc)
    tail = zfun.z_many(ts[len(offsets):], zc, lattice=(cells[1:], offsets))
    for got, a, b in zip(whole, head, tail):
        assert np.array_equal(got, np.concatenate([a, b]))
