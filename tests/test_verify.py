"""Residual reports for the governing asymptotics."""

import math

import pytest

from hlq import hlmass, ladder, partition, verify
from hlq.errors import DomainError

GAMMA = 0.5772156649015329
LN_TWO_PI = math.log(2.0 * math.pi)


def test_main_term_values():
    want = 1000.0 * math.log(1000.0) + (2 * GAMMA - 1 - LN_TWO_PI) * 1000.0
    assert verify.main_term(1000.0) == pytest.approx(want, rel=1e-15)
    assert verify.main_term(1000.0) == pytest.approx(5224.309542375857,
                                                     rel=1e-13)
    assert verify.main_term(100.0) == pytest.approx(292.17244493818123,
                                                    rel=1e-13)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            verify.main_term(bad)


def test_report_shape(quad_cfg, shared_ckpt):
    r = verify.balasubramanian_residual(1000.0, cfg=quad_cfg,
                                        ckpt=shared_ckpt)
    d = r.as_dict()
    assert set(d) == {"kind", "inputs", "observed", "predicted", "residual",
                      "bound"}
    assert d["kind"] == "balasubramanian"
    assert r.residual == r.observed - r.predicted
    assert r.bound == pytest.approx(1000.0 ** (1 / 3 + 0.1), rel=1e-15)


def test_balasubramanian_at_1000(quad_cfg, shared_ckpt):
    r = verify.balasubramanian_residual(1000.0, cfg=quad_cfg,
                                        ckpt=shared_ckpt)
    assert r.residual == pytest.approx(-11.8018, abs=0.001)
    assert r.within_bound
    with pytest.raises(DomainError):
        verify.balasubramanian_residual(50.0, cfg=quad_cfg, ckpt=shared_ckpt)


def test_tka_leading_value():
    assert verify.tka_leading(0.01) == pytest.approx(132.57028968979733,
                                                     rel=1e-13)
    for bad in (0.004, 0.2, 0.0):
        with pytest.raises(DomainError):
            verify.tka_leading(bad)


def test_tka_residual(quad_cfg):
    r = verify.tka_residual(0.04, cfg=quad_cfg)
    assert r.kind == "tka"
    assert set(r.inputs) == {"delta", "leading", "c0"}
    assert r.inputs["c0"] == math.pi
    assert r.predicted == pytest.approx(r.inputs["leading"] + math.pi,
                                        rel=1e-15)
    assert r.residual == pytest.approx(-0.0557, abs=0.002)
    assert r.within_bound


def test_tka_residual_refuses_delta_before_integrating(monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("damped integral taken for a refused delta")
    monkeypatch.setattr(hlmass, "damped_masses", integrate)
    for bad in (1e-3, 0.2):
        with pytest.raises(DomainError):
            verify.tka_residual(bad)


def test_short_interval(quad_cfg, shared_ckpt):
    r = verify.short_interval_check(1000.0, 0.01, cfg=quad_cfg,
                                    ckpt=shared_ckpt)
    assert r.kind == "short_interval"
    assert r.inputs["U"] == pytest.approx(1000.0 ** (1 / 3 + 0.02), rel=1e-14)
    assert abs(r.residual) <= r.bound
    with pytest.raises(DomainError):
        verify.short_interval_check(500.0, cfg=quad_cfg, ckpt=shared_ckpt)
    with pytest.raises(DomainError):
        verify.short_interval_check(1000.0, 0.2, cfg=quad_cfg,
                                    ckpt=shared_ckpt)


def test_ladder_checks_bands(quad_cfg, shared_ckpt):
    reports = verify.ladder_checks([1000.0, 2000.0], cfg=quad_cfg,
                                   ckpt=shared_ckpt)
    assert len(reports) == 2
    for r in reports:
        assert r.kind == "ladder_bounds"
        assert (r.inputs["band_lo"], r.inputs["band_hi"]) == (1.7, 2.0)
        assert r.within_bound
        assert r.inputs["band_lo"] < r.observed < r.inputs["band_hi"]
    with pytest.raises(DomainError):
        verify.ladder_checks([], cfg=quad_cfg, ckpt=shared_ckpt)
    with pytest.raises(DomainError):
        verify.ladder_checks([2000.0, 1000.0], cfg=quad_cfg, ckpt=shared_ckpt)


def test_ladder_increments(quad_cfg, shared_ckpt):
    params = partition.PartitionParams(count=12)
    records = partition.generate(params, cfg=quad_cfg, ckpt=shared_ckpt)
    reports = verify.ladder_increment_checks(records, params.omega,
                                             params.tau)
    assert len(reports) == len(records) - 1
    for r in reports:
        assert r.kind == "ladder_increment"
        assert 0.0 < r.observed <= r.bound
        assert r.within_bound
    with pytest.raises(DomainError):
        verify.ladder_increment_checks(records[:1], params.omega)


@pytest.fixture(scope="module")
def walk20_c0(quad_cfg, shared_ckpt):
    """The 21 records of a count=20 walk from T = 1000 at c0 = 1.5."""
    params = partition.PartitionParams(T_start=1000.0, count=20)
    return partition.generate(params, cfg=quad_cfg, ckpt=shared_ckpt, c0=1.5)


def test_increment_checks_solve_each_target_once(walk20_c0, monkeypatch):
    calls = []

    def counting(v, c0=0.0):
        calls.append(v)
        return ladder.F_inverse(v, c0)
    monkeypatch.setattr(verify, "F_inverse", counting)
    reports = verify.ladder_increment_checks(walk20_c0, 1.0)
    assert len(walk20_c0) == 21 and len(reports) == 20
    assert len(calls) == 21


# c0 = 1.5 values; each differs from its c0 = 0 value, so a consumer that
# drops c0 fails here.  The short-interval mass does not depend on c0, its
# chord prediction does.
C0_WALK = {  # record index: (tan_alpha, predicted_gap)
    0: ("0x1.833c8b6ffad2cp-1", "0x1.9b976e11f4a4cp-3"),
    9: ("0x1.0eba681c6868bp+0", "0x1.264b7dc0d78f7p-3"),
    19: ("0x1.c58ff757ea04ep+2", "0x1.5f3d096b9c82fp-6"),
}
C0_LADDER = ("0x1.de3d1bac73ec3p+0", "0x1.e22aea815b9b4p+0")  # T = 1000, 2000
C0_SHORT_PREDICTED = "0x1.8fad48bf77ca4p+6"  # T = 1000
C0_INCREMENTS = {0: "0x1.0ccc97ae0eef9p+1", 9: "0x1.0cf46ec5b28fap+1",
                 19: "0x1.0ce833b060fddp+1"}


def test_c0_reaches_every_phi_consumer(walk20_c0, quad_cfg, shared_ckpt):
    assert walk20_c0[0].nu == 5213
    for i, (tan, gap) in C0_WALK.items():
        assert walk20_c0[i].tan_alpha == float.fromhex(tan)
        assert walk20_c0[i].predicted_gap == float.fromhex(gap)
    bands = verify.ladder_checks([1000.0, 2000.0], cfg=quad_cfg,
                                 ckpt=shared_ckpt, c0=1.5)
    assert [r.observed for r in bands] == [float.fromhex(h) for h in C0_LADDER]
    short = verify.short_interval_check(1000.0, cfg=quad_cfg, ckpt=shared_ckpt,
                                        c0=1.5)
    assert short.predicted == float.fromhex(C0_SHORT_PREDICTED)
    inc = verify.ladder_increment_checks(walk20_c0, 1.0, 0.0, c0=1.5)
    for i, h in C0_INCREMENTS.items():
        assert inc[i].observed == float.fromhex(h)
