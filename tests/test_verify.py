"""Residual reports for the governing asymptotics."""

import math

import pytest

from hlq import partition, verify
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


def test_checks_on_a_non_default_z_policy(depth2_cfg, depth2_ckpt):
    """The verify checks continue a checkpoint built under another Z policy."""
    short = verify.short_interval_check(1000.0, cfg=depth2_cfg, ckpt=depth2_ckpt)
    assert short.kind == "short_interval" and short.within_bound
    [band] = verify.ladder_checks([1000.0], cfg=depth2_cfg, ckpt=depth2_ckpt)
    assert band.within_bound
    assert depth2_ckpt.z_config["correction_depth"] == 2


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
