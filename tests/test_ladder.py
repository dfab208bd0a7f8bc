"""Ladder transform F, its inverse, and phi(T)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlq import ladder
from hlq.errors import DomainError


def test_constants():
    assert ladder.EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)
    assert ladder.A == pytest.approx(0.2606614015078124, abs=1e-15)
    # a = ln 2pi - 1 - c, to the bit
    assert ladder.A == ladder.LN_TWO_PI - 1.0 - ladder.EULER_GAMMA


def test_f_of_closed_form():
    # at y = 2 the h*ln(h) term vanishes: F(2) = c - ln(2 pi)
    assert ladder.F_of(2.0) == pytest.approx(ladder.EULER_GAMMA - ladder.LN_TWO_PI,
                                             abs=1e-15)
    # c0 is a pure shift
    assert ladder.F_of(77.0, 1.0) == pytest.approx(ladder.F_of(77.0) + 1.0,
                                                   abs=1e-12)


def test_f_prime_is_derivative():
    for y in (10.0, 100.0, 5000.0):
        h = 1e-6 * y
        fd = (ladder.F_of(y + h) - ladder.F_of(y - h)) / (2 * h)
        assert abs(ladder.F_prime(y) - fd) <= 1e-8 * abs(fd)


def test_f_second_difference():
    # F''(y) = 1/(2y)
    for y in (20.0, 300.0, 8000.0):
        h = 1e-3 * y
        d2 = (ladder.F_of(y + h) - 2 * ladder.F_of(y) + ladder.F_of(y - h)) / h ** 2
        assert abs(d2 - 1.0 / (2.0 * y)) <= 1e-6 / y


def test_f_domain():
    with pytest.raises(DomainError):
        ladder.F_of(0.0)
    with pytest.raises(DomainError):
        ladder.F_of(-3.0)
    with pytest.raises(DomainError):
        ladder.F_prime(0.0)
    for c0 in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="c0"):
            ladder.F_of(100.0, c0)


def test_f_inverse_known_root(oracle):
    # F(y) = main term at T=1000; root frozen from a 40-digit solve
    y = ladder.F_inverse(5224.309542375857)
    assert abs(y - oracle["phi_main_1000"]) <= 5e-9


def test_f_inverse_roundtrip_tolerance():
    for v in (2.0, 10.0, 1e3, 1e6, 1e12):
        y = ladder.F_inverse(v)
        assert abs(ladder.F_of(y) - v) <= 1e-12 * max(1.0, abs(v))


def test_f_inverse_below_branch():
    f10 = ladder.F_of(10.0)
    with pytest.raises(DomainError):
        ladder.F_inverse(f10 - 1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=2.0, max_value=1e15))
def test_f_inverse_roundtrip_property(v):
    y = ladder.F_inverse(v)
    assert y >= 10.0
    assert abs(ladder.F_of(y) - v) <= 1e-12 * max(1.0, abs(v))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=10.0, max_value=1e12),
       st.floats(min_value=1e-3, max_value=1e3))
def test_f_strictly_increasing(y, dy):
    assert ladder.F_of(y + dy) > ladder.F_of(y)


def test_phi_at_reference(oracle, quad_cfg, shared_ckpt):
    p = ladder.phi_at(1000.0, cfg=quad_cfg, ckpt=shared_ckpt)
    # quadrature tolerance maps through 1/F' ~ 0.3 at this height
    assert abs(p.phi - oracle["phi_1000"]) <= 2e-6
    assert abs(ladder.F_of(p.phi) - p.mass) <= 1e-12 * p.mass
    assert p.ratio == p.phi / p.T
    assert 1.8 < p.ratio < 1.9


def test_phi_at_domain(quad_cfg, shared_ckpt):
    with pytest.raises(DomainError):
        ladder.phi_at(50.0, cfg=quad_cfg, ckpt=shared_ckpt)
    with pytest.raises(DomainError, match="c0"):
        ladder.phi_at(1000.0, cfg=quad_cfg, ckpt=shared_ckpt, c0=math.nan)


def test_chord_tan_alpha(quad_cfg, shared_ckpt):
    p1 = ladder.phi_at(200.0, cfg=quad_cfg, ckpt=shared_ckpt)
    p2 = ladder.phi_at(210.0, cfg=quad_cfg, ckpt=shared_ckpt)
    slope = ladder.chord_tan_alpha(p1, p2)
    assert slope == (p2.phi - p1.phi) / (2.0 * (p2.T - p1.T))
    # the chord slope tracks dphi/dT / 2 = theta-like growth ~ ln(T)/2 / F'
    assert 0.3 < slope < 2.0
    with pytest.raises(DomainError):
        ladder.chord_tan_alpha(p2, p1)
