"""Gram points: solver accuracy, spacings, interleaving."""

import math

import pytest

from hlq import gram, zfun
from hlq.errors import DomainError


def test_gram_reference_values(oracle):
    assert abs(gram.gram_t(0) - oracle["g0"]) <= 1e-9
    assert abs(gram.gram_t(1) - oracle["g1"]) <= 1e-9
    assert abs(gram.gram_t(2) - oracle["g2"]) <= 1e-9
    assert abs(gram.gram_t(100) - oracle["g100"]) <= 1e-9
    assert abs(gram.gram_t(0, math.pi / 2) - oracle["g0_pi2"]) <= 1e-9


def test_gram_solves_phase_equation():
    for nu in (0, 5, 50, 500, 5000):
        for tau in (0.0, -1.0, 2.5):
            t = gram.gram_t(nu, tau)
            assert abs(zfun.theta(t) - (nu * math.pi + tau)) <= 1e-10


def test_gram_domain():
    with pytest.raises(DomainError):
        gram.gram_t(-1)
    with pytest.raises(DomainError):
        gram.gram_t(3, 4.0)
    with pytest.raises(DomainError):
        gram.gram_t(3, -4.0)


def test_gram_record_fields():
    r = gram.gram_point(10, 0.0)
    assert r.nu == 10
    assert r.spacing > 0
    assert r.predicted == 2 * math.pi / math.log(r.t / zfun.TWO_PI)
    assert r.predicted_asymptotic == 2 * math.pi / math.log(r.t)
    # spacing within a few percent of the local prediction at modest height
    assert abs(r.spacing / r.predicted - 1.0) < 0.2


def test_gram_interleaving_in_phase():
    # for fixed nu, t(nu, tau) increases with tau and stays below t(nu+1, 0)
    for nu in (3, 33, 333):
        t0 = gram.gram_t(nu, 0.0)
        t1 = gram.gram_t(nu, math.pi / 2)
        t2 = gram.gram_t(nu, 3.0)
        t_next = gram.gram_t(nu + 1, 0.0)
        assert t0 < t1 < t2 < t_next


def test_gram_spacing_report():
    records, summary = gram.gram_spacing_report(100, 200, 0.0)
    assert len(records) == 101
    assert summary.count == 101
    assert [r.nu for r in records] == list(range(100, 201))
    ts = [r.t for r in records]
    assert ts == sorted(ts)
    assert 0 < summary.min_spacing <= summary.max_spacing
    assert 0.9 < summary.mean_ratio < 1.1
    # the asymptotic predictor under-counts the phase at these heights
    assert summary.mean_ratio_asymptotic > summary.mean_ratio


def test_gram_spacing_report_domain():
    with pytest.raises(DomainError):
        gram.gram_spacing_report(10, 5, 0.0)


# t_nu(tau_bar).hex() as the one-point Newton solve gave them before the
# points were solved in one batch
FROZEN_GRAM = {
    (0, -math.pi): "0x1.35574f9050959p+3",
    (0, 0.0): "0x1.1d87936239755p+4",
    (1, math.pi / 2): "0x1.97dd37b7b8836p+4",
    (100, 0.0): "0x1.dd2a494dcd7ffp+7",
    (1000, 0.0): "0x1.635068ad8badbp+10",
    (5000, math.pi): "0x1.54a27dfcb4e2fp+12",
}


def test_gram_points_keep_their_bits():
    for (nu, tau), hex_t in FROZEN_GRAM.items():
        assert gram.gram_t(nu, tau) == float.fromhex(hex_t)


@pytest.mark.parametrize("tau", [-math.pi, 0.0, math.pi / 2, math.pi])
def test_gram_points_do_not_depend_on_their_batch(tau):
    """The lockstep solve gives every point the bits of its lone solve."""
    nus = (0, 1, 99, 100, 1000, 5000)
    records, _ = gram.gram_spacing_report(0, 5000, tau)
    for nu in nus:
        t = gram.gram_t(nu, tau)
        assert gram.gram_point(nu, tau).t == t
        assert records[nu].t == t
        assert records[nu].spacing == gram.gram_t(nu + 1, tau) - t


@pytest.mark.parametrize("tau", [-math.pi, 0.0])
def test_gram_point_is_the_one_record_report(tau):
    for nu in (0, 100, 5000):
        records, summary = gram.gram_spacing_report(nu, nu, tau)
        assert summary.count == 1
        assert gram.gram_point(nu, tau) == records[0]
