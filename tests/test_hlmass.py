"""Cumulative mass, checkpoint format, interval masses, damped integral."""

import math
import os

import pytest

from hlq import hlmass, zfun
from hlq.errors import (CheckpointConflict, CheckpointIOError, DomainError,
                        FormatError, PrecisionUnreachable)


# ---------------------------------------------------------------------------
# cumulative values against the independent quadrature reference
# ---------------------------------------------------------------------------

def test_mass_reference_values(oracle, quad_cfg, shared_ckpt):
    for t, key in ((100.0, "I_100"), (200.0, "I_200"),
                   (500.0, "I_500"), (1000.0, "I_1000")):
        v = hlmass.hl_mass(t, cfg=quad_cfg, ckpt=shared_ckpt)
        assert abs(v - oracle[key]) <= 1e-10 * oracle[key]


def test_mass_zero_and_lookup(quad_cfg, shared_ckpt):
    assert hlmass.hl_mass(0.0, cfg=quad_cfg, ckpt=shared_ckpt) == 0.0
    v1 = hlmass.hl_mass(123.456, cfg=quad_cfg, ckpt=shared_ckpt)
    # second call is a pure lookup and must return the identical float
    v2 = hlmass.hl_mass(123.456, cfg=quad_cfg, ckpt=shared_ckpt)
    assert v1 == v2
    assert shared_ckpt.lookup(123.456) == v1


def test_mass_monotone(quad_cfg, shared_ckpt):
    vals = [hlmass.hl_mass(t, cfg=quad_cfg, ckpt=shared_ckpt)
            for t in (50.0, 50.5, 51.0, 120.0)]
    assert vals == sorted(vals)


def test_mass_domain(quad_cfg, shared_ckpt):
    with pytest.raises(DomainError):
        hlmass.hl_mass(-1.0, cfg=quad_cfg, ckpt=shared_ckpt)
    with pytest.raises(DomainError):
        hlmass.hl_mass(float("inf"), cfg=quad_cfg, ckpt=shared_ckpt)


def test_probe_does_not_insert(quad_cfg, shared_ckpt):
    hlmass.hl_mass(260.0, cfg=quad_cfg, ckpt=shared_ckpt)
    assert shared_ckpt.lookup(259.25) is None
    v = hlmass.hl_mass_probe(259.25, cfg=quad_cfg, ckpt=shared_ckpt)
    assert shared_ckpt.lookup(259.25) is None
    assert v == hlmass.hl_mass(259.25, cfg=quad_cfg, ckpt=shared_ckpt)


def test_probe_leaves_no_trace_in_file(tmp_path, quad_cfg):
    """Checkpoint bytes must not depend on the probe/search history."""
    a = hlmass.new_checkpoint(quad_cfg)
    hlmass.hl_mass_probe(140.5, cfg=quad_cfg, ckpt=a)
    hlmass.hl_mass_probe(149.9, cfg=quad_cfg, ckpt=a)
    hlmass.hl_mass(150.0, cfg=quad_cfg, ckpt=a)
    b = hlmass.new_checkpoint(quad_cfg)
    hlmass.hl_mass(150.0, cfg=quad_cfg, ckpt=b)
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    hlmass.save_checkpoint(a, str(pa))
    hlmass.save_checkpoint(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_parallel_jobs_identical(quad_cfg):
    a = hlmass.new_checkpoint(quad_cfg)
    b = hlmass.new_checkpoint(quad_cfg)
    va = hlmass.hl_mass(400.0, cfg=quad_cfg, ckpt=a, jobs=1)
    vb = hlmass.hl_mass(400.0, cfg=quad_cfg, ckpt=b, jobs=4)
    assert va == vb
    assert list(a.rows()) == list(b.rows())


def test_extension_path_independent(quad_cfg):
    a = hlmass.new_checkpoint(quad_cfg)
    for t in (37.0, 150.25, 290.0):
        hlmass.hl_mass(t, cfg=quad_cfg, ckpt=a)
    b = hlmass.new_checkpoint(quad_cfg)
    hlmass.hl_mass(290.0, cfg=quad_cfg, ckpt=b)
    rows_a = dict(a.rows())
    for t, v in b.rows():
        assert rows_a[t] == v
    # one cell per extension from T_SWITCH up, where a cell is a large share
    # of the running sum: a lone cell must reduce exactly as in a block
    c = hlmass.new_checkpoint(quad_cfg)
    for m in range(10, 60):
        hlmass.hl_mass(m + 0.5, cfg=quad_cfg, ckpt=c)
    rows_b = dict(b.rows())
    for t, v in c.rows():
        if t == int(t):
            assert rows_b[t] == v


def test_z_config_reaches_the_checkpoint(monkeypatch):
    """A non-default ZConfig is checked against, and written into, the
    checkpoint header."""
    cfg = hlmass.QuadratureConfig(rel_tol=1e-6)
    zc = zfun.ZConfig(correction_depth=2)
    t = 1500.5
    ck = hlmass.new_checkpoint(cfg, zc)
    v = hlmass.hl_mass(t, cfg=cfg, ckpt=ck, z_config=zc)
    assert hlmass.hl_mass_probe(t - 0.25, cfg=cfg, ckpt=ck, z_config=zc) < v
    assert hlmass.hl_mass_between(t - 1.0, t, cfg=cfg, ckpt=ck, z_config=zc) > 0
    default = hlmass.new_checkpoint(cfg)
    for query in (hlmass.hl_mass, hlmass.hl_mass_probe):
        with pytest.raises(CheckpointConflict):
            query(t, cfg=cfg, ckpt=default, z_config=zc)
    with pytest.raises(CheckpointConflict):
        hlmass.hl_mass_between(t - 1.0, t, cfg=cfg, ckpt=default, z_config=zc)
    built = []
    new_checkpoint = hlmass.new_checkpoint

    def spy(*args, **kwargs):
        built.append(new_checkpoint(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(hlmass, "new_checkpoint", spy)
    assert hlmass.hl_mass(t, cfg=cfg, z_config=zc) == v
    assert [b.z_config["correction_depth"] for b in built] == [2]


# ---------------------------------------------------------------------------
# checkpoint file format
# ---------------------------------------------------------------------------

def _small_ckpt(quad_cfg):
    ck = hlmass.new_checkpoint(quad_cfg)
    hlmass.hl_mass(30.0, cfg=quad_cfg, ckpt=ck)
    hlmass.hl_mass(17.75, cfg=quad_cfg, ckpt=ck)
    return ck


def test_checkpoint_roundtrip(tmp_path, quad_cfg):
    ck = _small_ckpt(quad_cfg)
    path = tmp_path / "m.ckpt"
    hlmass.save_checkpoint(ck, str(path))
    back = hlmass.load_checkpoint(str(path))
    assert back.tol == ck.tol
    assert back.z_config == ck.z_config
    assert list(back.rows()) == list(ck.rows())
    assert back.int_cover == ck.int_cover
    # a second save of the loaded copy is byte-identical
    path2 = tmp_path / "m2.ckpt"
    hlmass.save_checkpoint(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointIOError):
        hlmass.load_checkpoint(str(tmp_path / "absent.ckpt"))


def test_checkpoint_save_bad_dir(tmp_path, quad_cfg):
    ck = hlmass.new_checkpoint(quad_cfg)
    with pytest.raises(CheckpointIOError):
        hlmass.save_checkpoint(ck, str(tmp_path / "no" / "dir" / "x.ckpt"))


@pytest.mark.parametrize("mutate,desc", [
    (lambda L: [], "empty"),
    (lambda L: ["not json"] + L[1:], "bad header"),
    (lambda L: [L[0].replace(f'"{hlmass.CHECKPOINT_VERSION}"', '"9"')] + L[1:],
     "bad version"),
    (lambda L: [L[0].replace(f'"{hlmass.CHECKPOINT_VERSION}"', '"1"')] + L[1:],
     "version 1"),
    (lambda L: [L[0]] + L[2:], "missing 0 row"),
    (lambda L: L + ["5\tnot_a_number"], "bad float"),
    (lambda L: L + [L[-1]], "duplicate T"),
    (lambda L: L + [f"{float(len(L))}\t0.0" ], "decreasing I"),
    (lambda L: L + ["1e400\t1"], "non-finite"),
])
def test_checkpoint_format_errors(tmp_path, quad_cfg, mutate, desc):
    ck = _small_ckpt(quad_cfg)
    path = tmp_path / "m.ckpt"
    hlmass.save_checkpoint(ck, str(path))
    lines = path.read_text().splitlines()
    bad = tmp_path / "bad.ckpt"
    bad.write_text("\n".join(mutate(lines)) + "\n")
    with pytest.raises(FormatError):
        hlmass.load_checkpoint(str(bad))


def test_checkpoint_conflicts(tmp_path, quad_cfg):
    ck = _small_ckpt(quad_cfg)
    # stricter tolerance than the file's guarantee
    with pytest.raises(CheckpointConflict):
        hlmass.check_compat(ck, hlmass.QuadratureConfig(rel_tol=1e-10))
    # different quadrature discretization
    with pytest.raises(CheckpointConflict):
        hlmass.check_compat(ck, hlmass.QuadratureConfig(nodes_per_oscillation=24))
    with pytest.raises(CheckpointConflict):
        hlmass.check_compat(ck, hlmass.QuadratureConfig(max_panel=0.5))
    # different Z evaluation config
    with pytest.raises(CheckpointConflict):
        hlmass.check_compat(ck, quad_cfg, zfun.ZConfig(correction_depth=2))
    # coarser tolerance is allowed (the file's guarantee still holds)
    hlmass.check_compat(ck, hlmass.QuadratureConfig(rel_tol=1e-7))


def test_coarser_extension_records_new_tol(quad_cfg):
    ck = hlmass.new_checkpoint(quad_cfg)
    hlmass.hl_mass(20.0, cfg=quad_cfg, ckpt=ck)
    assert ck.tol == quad_cfg.rel_tol
    loose = hlmass.QuadratureConfig(rel_tol=1e-6)
    hlmass.hl_mass(40.0, cfg=loose, ckpt=ck)
    assert ck.tol == 1e-6


def test_insert_monotonicity_guard(quad_cfg):
    ck = hlmass.new_checkpoint(quad_cfg)
    hlmass.hl_mass(10.0, cfg=quad_cfg, ckpt=ck)
    with pytest.raises(FormatError):
        ck.insert(5.5, 1e9)
    with pytest.raises(FormatError):
        ck.insert(5.5, -1.0)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {"rel_tol": 0.0}, {"rel_tol": 1e-2}, {"nodes_per_oscillation": 2},
    {"nodes_per_oscillation": 100}, {"max_panel": 0.0}, {"max_panel": 100.0},
    {"damped_truncation_eps": 0.0}, {"damped_truncation_eps": 1.0},
])
def test_config_validation(kw):
    with pytest.raises(DomainError):
        hlmass.QuadratureConfig(**kw)


# ---------------------------------------------------------------------------
# interval masses
# ---------------------------------------------------------------------------

def test_between_additive(quad_cfg, shared_ckpt):
    a, b, c = 120.0, 145.5, 180.25
    ab = hlmass.hl_mass_between(a, b, cfg=quad_cfg, ckpt=shared_ckpt)
    bc = hlmass.hl_mass_between(b, c, cfg=quad_cfg, ckpt=shared_ckpt)
    ac = hlmass.hl_mass_between(a, c, cfg=quad_cfg, ckpt=shared_ckpt)
    assert abs((ab + bc) - ac) <= 1e-10 * ac


def test_between_matches_cumulative_difference(oracle, quad_cfg, shared_ckpt):
    v = hlmass.hl_mass_between(100.0, 200.0, cfg=quad_cfg, ckpt=shared_ckpt)
    want = oracle["I_200"] - oracle["I_100"]
    assert abs(v - want) <= 1e-9 * want


def test_between_spanning_the_origin(oracle, quad_cfg):
    v = hlmass.hl_mass_between(0.0, 100.0, cfg=quad_cfg)
    assert abs(v - oracle["I_100"]) <= 1e-10 * oracle["I_100"]


def test_between_edge_cases(quad_cfg):
    assert hlmass.hl_mass_between(55.5, 55.5, cfg=quad_cfg) == 0.0
    with pytest.raises(DomainError):
        hlmass.hl_mass_between(10.0, 5.0, cfg=quad_cfg)
    with pytest.raises(DomainError):
        hlmass.hl_mass_between(-1.0, 5.0, cfg=quad_cfg)


# ---------------------------------------------------------------------------
# damped integral
# ---------------------------------------------------------------------------

def test_damped_reference_value(oracle, quad_cfg):
    v = hlmass.damped_mass(0.05, cfg=quad_cfg)
    assert abs(v - oracle["damped_0.05"]) <= 1e-10 * oracle["damped_0.05"]


def test_damped_decreases_with_delta(quad_cfg):
    v1 = hlmass.damped_mass(0.05, cfg=quad_cfg)
    v2 = hlmass.damped_mass(0.08, cfg=quad_cfg)
    assert v2 < v1


def test_damped_domain(quad_cfg):
    with pytest.raises(DomainError):
        hlmass.damped_mass(0.0, cfg=quad_cfg)
    with pytest.raises(DomainError):
        hlmass.damped_mass(-0.01, cfg=quad_cfg)


# ---------------------------------------------------------------------------
# certified-budget enforcement
# ---------------------------------------------------------------------------

def test_precision_unreachable_on_tight_budget():
    cfg = hlmass.QuadratureConfig(rel_tol=1e-13)
    ck = hlmass.new_checkpoint(cfg)
    with pytest.raises(PrecisionUnreachable):
        hlmass.hl_mass(200.0, cfg=cfg, ckpt=ck)


def test_envelope_within_budget(quad_cfg):
    ck = hlmass.new_checkpoint(quad_cfg)
    v = hlmass.hl_mass(300.0, cfg=quad_cfg, ckpt=ck)
    env = hlmass.checkpoint_env(ck)
    assert 0.0 < env <= quad_cfg.rel_tol * max(1.0, v)
