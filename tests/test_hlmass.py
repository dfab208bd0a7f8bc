"""Cumulative mass, checkpoint format, interval masses, damped integral."""

import json
import math
import os

import numpy as np
import pytest

from hlq import hlmass, partition, zfun
from hlq.errors import (CheckpointConflict, CheckpointIOError, DomainError,
                        FormatError, PrecisionUnreachable)


# ---------------------------------------------------------------------------
# cumulative values against the independent quadrature reference
# ---------------------------------------------------------------------------

def test_mass_reference_values(oracle, quad_cfg, shared_ckpt):
    for t, key in ((1.0, "I_1"), (10.0, "I_10"), (100.0, "I_100"),
                   (200.0, "I_200"), (500.0, "I_500"), (1000.0, "I_1000")):
        v = hlmass.hl_mass(t, cfg=quad_cfg, ckpt=shared_ckpt)
        assert abs(v - oracle[key]) <= 1e-10 * oracle[key]


def test_mass_zero_and_lookup(quad_cfg, shared_ckpt):
    assert hlmass.hl_mass(0.0, cfg=quad_cfg, ckpt=shared_ckpt) == 0.0
    v1 = hlmass.hl_mass(123.456, cfg=quad_cfg, ckpt=shared_ckpt)
    # only the integer grid is stored: the second call recomputes the same
    # partial cell on I(123) and must return the identical float
    assert shared_ckpt.lookup(123.456) is None
    v2 = hlmass.hl_mass(123.456, cfg=quad_cfg, ckpt=shared_ckpt)
    assert v1 == v2
    assert shared_ckpt.lookup(123.0) is not None


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


def test_probe_checks_the_budget():
    """A probe's partial-cell envelope is held to the budget as hl_mass's
    is: at rel_tol 1e-11 the envelope of [0, 0.5] is about 37 times it."""
    cfg = hlmass.QuadratureConfig(rel_tol=1e-11)
    ck = hlmass.new_checkpoint(cfg)
    for query in (hlmass.hl_mass, hlmass.hl_mass_probe):
        with pytest.raises(PrecisionUnreachable, match="T=0.5"):
            query(0.5, cfg=cfg, ckpt=ck)
    # the unchecked envelope is still there for a root solve's inner probes
    _, env = hlmass.hl_mass_envelope(0.5, cfg=cfg, ckpt=ck)
    assert env > 0.5 * cfg.rel_tol
    assert list(ck.rows()) == [(0.0, 0.0)]


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
    assert list(a.rows()) == list(b.rows())
    # one cell per extension from t = 0 up, where a cell is a large share
    # of the running sum: a lone cell must reduce exactly as in a block
    c = hlmass.new_checkpoint(quad_cfg)
    for m in range(60):
        hlmass.hl_mass(m + 0.5, cfg=quad_cfg, ckpt=c)
    assert list(c.rows()) == list(b.rows())[:60]


def test_extension_path_independent_on_the_lattice():
    """Whole cells take the factored Dirichlet sum of their route, with
    the term count of the cell; a cell's bits must not depend on the block
    it was extended in.  The steps split 256-cell blocks where the
    reference route's per-cell count N_m changes and across rs_min_t."""
    cfg = hlmass.QuadratureConfig()
    one = hlmass.new_checkpoint(cfg)
    hlmass.hl_mass(1300.0, cfg=cfg, ckpt=one)
    steps = hlmass.new_checkpoint(cfg)
    for t in (255.0, 256.0, 511.0, 699.0, 700.0):
        hlmass.hl_mass(t, cfg=cfg, ckpt=steps)
    for m in range(701, 761):
        hlmass.hl_mass(float(m), cfg=cfg, ckpt=steps)
    # uneven steps whose 256-cell blocks end at other cells than one's
    for t in (761.0, 1016.0, 1017.0, 1023.0, 1280.0, 1281.0, 1300.0):
        hlmass.hl_mass(t, cfg=cfg, ckpt=steps)
    assert list(steps.rows()) == list(one.rows())
    assert len(one) == 1301


# (first cell, cell count): the reference route below 700 at P = 1 and 2
# (P goes 1 -> 2 at cell 145, right edge past 2 pi e^pi), up to its last
# cell 699; RS from 700 at P = 2; P goes 2 -> 3 at cell 3364 and 3 -> 4 at
# cell 77859 (right edges past 2 pi e^(2 pi), 2 pi e^(3 pi))
_LATTICE_BANDS = [(0, 2), (300, 2), (698, 2), (700, 2), (3363, 2),
                  (77858, 2), (100000, 1)]


@pytest.mark.parametrize("m0,count", _LATTICE_BANDS)
def test_lattice_nodes_within_envelope(monkeypatch, m0, count):
    """Every node of the cells, as the span kernel evaluates it, against
    mpmath's Z at 25 digits: |Z - Z_mp| <= envelope."""
    mpmath = pytest.importorskip("mpmath")
    calls = []
    z_many = zfun.z_many

    def recording(ts, z_config=zfun.DEFAULT_Z_CONFIG, lattice=None):
        calls.append((ts, lattice))
        return z_many(ts, z_config, lattice=lattice)
    monkeypatch.setattr(zfun, "z_many", recording)
    edges = [float(m) for m in range(m0, m0 + count + 1)]
    hlmass._span_masses(edges)
    assert len(calls) == len({int(p) for p in hlmass._panel_counts(
        np.array(edges[:-1]), np.array(edges[1:]), hlmass._RULE)})
    assert all(lattice is not None for _, lattice in calls)
    with mpmath.workdps(25):
        ref = {t: float(mpmath.siegelz(t)) for ts, _ in calls for t in ts.tolist()}
    for ts, lattice in calls:
        z, env = z_many(ts, lattice=lattice)
        err = np.abs(z - np.array([ref[t] for t in ts.tolist()]))
        assert np.all(err <= env), float(np.max(err / env))
        # the factored sum, not the pointwise one, produced these values
        direct, _ = z_many(ts)
        assert not np.array_equal(z, direct)


@pytest.mark.parametrize("jobs", [0, -3, 2.0, True])
def test_jobs_must_be_a_positive_int(quad_cfg, jobs):
    ck = hlmass.new_checkpoint(quad_cfg)
    calls = (
        lambda: hlmass.hl_mass(30.0, cfg=quad_cfg, ckpt=ck, jobs=jobs),
        lambda: hlmass.hl_mass_probe(30.0, cfg=quad_cfg, ckpt=ck, jobs=jobs),
        lambda: hlmass.damped_mass(0.5, cfg=quad_cfg, jobs=jobs),
        lambda: partition.generate(partition.PartitionParams(count=2),
                                   cfg=quad_cfg, ckpt=ck, jobs=jobs),
        lambda: hlmass.verify_rows(ck, jobs=jobs),
    )
    for call in calls:
        with pytest.raises(DomainError):
            call()
    assert list(ck.rows()) == [(0.0, 0.0)]


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
    header = json.loads(path.read_text().splitlines()[0])
    assert header["z_config"] == hlmass.CHECKPOINT_Z_CONFIG
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


def _edit_header(lines, edit):
    header = json.loads(lines[0])
    edit(header)
    return [json.dumps(header)] + lines[1:]


@pytest.mark.parametrize("mutate,desc", [
    (lambda L: [], "empty"),
    (lambda L: ["not json"] + L[1:], "bad header"),
    (lambda L: [L[0].replace(f'"{hlmass.CHECKPOINT_VERSION}"', '"9"')] + L[1:],
     "bad version"),
    (lambda L: [L[0].replace(f'"{hlmass.CHECKPOINT_VERSION}"', '"1"')] + L[1:],
     "version 1"),
    (lambda L: [L[0].replace(f'"{hlmass.CHECKPOINT_VERSION}"', '"2"')] + L[1:],
     "version 2"),
    (lambda L: [L[0].replace(f'"{hlmass.CHECKPOINT_VERSION}"', '"3"')] + L[1:],
     "version 3"),
    (lambda L: [L[0].replace(f'"{hlmass.CHECKPOINT_VERSION}"', '"4"')] + L[1:],
     "version 4"),
    (lambda L: [L[0].replace(f'"{hlmass.CHECKPOINT_VERSION}"', '"5"')] + L[1:],
     "version 5"),
    (lambda L: [L[0]] + L[2:], "missing 0 row"),
    (lambda L: L + ["5\tnot_a_number"], "bad float"),
    (lambda L: L + [L[-1]], "duplicate T"),
    (lambda L: L + [f"{float(len(L) - 1)}\t0.0"], "decreasing I"),
    (lambda L: L + [f"{len(L) - 1.5}\t{L[-1].split()[1]}"], "non-integer T"),
    (lambda L: L + [f"{len(L) + 1}\t1e9"], "gap"),
    (lambda L: L + ["1e400\t1"], "non-finite"),
    (lambda L: _edit_header(L, lambda h: h.update(tol=math.nan)), "tol NaN"),
    (lambda L: _edit_header(L, lambda h: h.update(tol=0.0)), "tol 0"),
    (lambda L: _edit_header(L, lambda h: h.update(tol=-1.0)), "tol -1"),
    (lambda L: _edit_header(L, lambda h: h["z_config"].pop("rs_min_t")),
     "z_config missing key"),
    (lambda L: _edit_header(L, lambda h: h["z_config"].update(foo=1)),
     "z_config unknown key"),
    (lambda L: _edit_header(L, lambda h: h["z_config"].update(correction_depth=9)),
     "correction_depth 9"),
    (lambda L: _edit_header(L, lambda h: h["z_config"].update(correction_depth=2.0)),
     "correction_depth 2.0"),
    (lambda L: _edit_header(L, lambda h: h["z_config"].update(correction_depth=2)),
     "correction_depth 2"),
    (lambda L: _edit_header(L, lambda h: h["z_config"].update(correction_depth=4.0)),
     "correction_depth 4.0"),
    (lambda L: _edit_header(L, lambda h: h["z_config"].update(rs_min_t=math.nan)),
     "rs_min_t NaN"),
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
    # coarser tolerance is allowed (the file's guarantee still holds)
    hlmass.check_compat(ck, hlmass.QuadratureConfig(rel_tol=1e-7))


def test_coarser_extension_records_new_tol(quad_cfg):
    ck = hlmass.new_checkpoint(quad_cfg)
    hlmass.hl_mass(20.0, cfg=quad_cfg, ckpt=ck)
    assert ck.tol == quad_cfg.rel_tol
    loose = hlmass.QuadratureConfig(rel_tol=1e-6)
    hlmass.hl_mass(40.0, cfg=loose, ckpt=ck)
    assert ck.tol == 1e-6


def test_checkpoint_refuses_a_shifted_partial_row(tmp_path, quad_cfg,
                                                  shared_ckpt):
    """A row 300.5 holding I(300.5) - 1e-3 is refused, not served to
    hl_mass(300.5) 1e-3 low: the T column is the integer grid."""
    i_mid = hlmass.hl_mass(300.5, cfg=quad_cfg, ckpt=shared_ckpt)
    full = tmp_path / "full.ckpt"
    hlmass.save_checkpoint(shared_ckpt, str(full))
    lines = full.read_text().splitlines()[:302]
    bad = tmp_path / "shifted.ckpt"
    bad.write_text("\n".join(lines + [f"300.5\t{i_mid - 1e-3!r}"]) + "\n")
    with pytest.raises(FormatError, match="line 303: row T=300.5 where T=301 is due"):
        hlmass.load_checkpoint(str(bad))


@pytest.fixture(scope="module")
def grid_2000_file(tmp_path_factory):
    cfg = hlmass.QuadratureConfig(rel_tol=1e-7)
    ck = hlmass.new_checkpoint(cfg)
    hlmass.hl_mass(2000.0, cfg=cfg, ckpt=ck)
    path = tmp_path_factory.mktemp("grid") / "g2000.ckpt"
    hlmass.save_checkpoint(ck, str(path))
    return path


def test_verify_rows_names_a_shifted_row(grid_2000_file, tmp_path):
    """Row 1003 shifted by -1e-3 keeps the column monotone and loads, but
    breaks I(1003) = I(1002) + S(1002, 1003); the unedited file and the
    bare grid pass."""
    hlmass.verify_rows(hlmass.load_checkpoint(str(grid_2000_file)))
    hlmass.verify_rows(hlmass.new_checkpoint())
    lines = grid_2000_file.read_text().splitlines()
    t, v = lines[1 + 1003].split("\t")
    assert t == "1003"
    lines[1 + 1003] = f"{t}\t{float(v) - 1e-3!r}"
    bad = tmp_path / "shifted.ckpt"
    bad.write_text("\n".join(lines) + "\n")
    ck = hlmass.load_checkpoint(str(bad))
    with pytest.raises(FormatError, match="row T=1003 holds I="):
        hlmass.verify_rows(ck, jobs=2)


def test_insert_monotonicity_guard(quad_cfg):
    """A batch with a value below the row before it is refused whole."""
    ck = hlmass.new_checkpoint(quad_cfg)
    hlmass.hl_mass(10.0, cfg=quad_cfg, ckpt=ck)
    rows = list(ck.rows())
    top = ck.lookup(10.0)
    for values in ([top - 1e-9], [-1.0], [top + 1.0, top + 0.5]):
        with pytest.raises(FormatError):
            ck.insert(values)
        assert list(ck.rows()) == rows


def test_insert_refuses_rows_the_file_would_refuse(tmp_path, quad_cfg):
    """insert takes only rows that load_checkpoint reads back."""
    ck = hlmass.new_checkpoint(quad_cfg)
    for values in ([-1.0], [math.inf], [math.nan], [1.0, math.nan]):
        with pytest.raises(FormatError):
            ck.insert(values)
        assert list(ck.rows()) == [(0.0, 0.0)]
    ck.insert([1.0, 2.5])
    path = str(tmp_path / "c.ckpt")
    hlmass.save_checkpoint(ck, path)
    assert list(hlmass.load_checkpoint(path).rows()) == [(0.0, 0.0), (1.0, 1.0),
                                                          (2.0, 2.5)]


def test_insert_refuses_a_row_its_recomputation_disagrees_with(
        tmp_path, quad_cfg, shared_ckpt):
    """A file whose rows stop at 1000 and go on at 1003, shifted by -1e-3,
    is a format error at load: no row above the cover can be stored, so
    none is left for an extension to disagree with."""
    hlmass.hl_mass(1005.0, cfg=quad_cfg, ckpt=shared_ckpt)
    i_1003 = shared_ckpt.lookup(1003.0)
    full = tmp_path / "full.ckpt"
    hlmass.save_checkpoint(shared_ckpt, str(full))
    lines = full.read_text().splitlines()[:1002]
    path = tmp_path / "shifted.ckpt"
    path.write_text("\n".join(lines + [f"1003\t{i_1003 - 1e-3!r}"]) + "\n")
    with pytest.raises(FormatError, match="row T=1003 where T=1001 is due"):
        hlmass.load_checkpoint(str(path))


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [{"rel_tol": 0.0}, {"rel_tol": 1e-2}])
def test_config_validation(kw):
    with pytest.raises(DomainError):
        hlmass.QuadratureConfig(**kw)


# ---------------------------------------------------------------------------
# interval masses
# ---------------------------------------------------------------------------

def test_between_additive():
    a, b, c = 120.0, 145.5, 180.25
    ab = hlmass.hl_mass_between(a, b)
    bc = hlmass.hl_mass_between(b, c)
    ac = hlmass.hl_mass_between(a, c)
    assert abs((ab + bc) - ac) <= 1e-10 * ac


def test_between_matches_cumulative_difference(oracle):
    v = hlmass.hl_mass_between(100.0, 200.0)
    want = oracle["I_200"] - oracle["I_100"]
    assert abs(v - want) <= 1e-9 * want


def test_between_spanning_the_origin(oracle):
    v = hlmass.hl_mass_between(0.0, 100.0)
    assert abs(v - oracle["I_100"]) <= 1e-10 * oracle["I_100"]


def test_between_edge_cases():
    assert hlmass.hl_mass_between(55.5, 55.5) == 0.0
    with pytest.raises(DomainError):
        hlmass.hl_mass_between(10.0, 5.0)
    with pytest.raises(DomainError):
        hlmass.hl_mass_between(-1.0, 5.0)


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


def test_damped_budget_is_the_mass_budget():
    # the envelope at delta = 0.04 is about 0.2 * 1e-9 relative: it fits
    # 0.5 * rel_tol at 1e-9 but not at 1e-10
    hlmass.damped_mass(0.04, cfg=hlmass.QuadratureConfig(rel_tol=1e-9))
    with pytest.raises(PrecisionUnreachable):
        hlmass.damped_mass(0.04, cfg=hlmass.QuadratureConfig(rel_tol=1e-10))


# damped_mass(delta).hex() along verify.TKA_DELTAS, one integral per delta
FROZEN_DAMPED = ("0x1.2e74ba8e6051ap+4", "0x1.a09573c86d908p+5",
                 "0x1.0f65965a4121bp+7", "0x1.519650ab6b02dp+8")
# the same under checkpoint version "5", before the cells below rs_min_t
# took the lattice sum and the RS corrections the parity Horner
FROZEN_DAMPED_V5 = ("0x1.2e74ba8e60519p+4", "0x1.a09573c86d90bp+5",
                    "0x1.0f65965a41220p+7", "0x1.519650ab6b036p+8")


def test_damped_batch_is_each_damped_mass(quad_cfg):
    deltas = (0.04, 0.02, 0.01, 0.005)
    batch = hlmass.damped_masses(deltas, cfg=quad_cfg)
    assert batch == [float.fromhex(h) for h in FROZEN_DAMPED]
    # each moved by far less than its budget 0.5 * rel_tol * value
    for v, old in zip(batch, FROZEN_DAMPED_V5):
        assert abs(v - float.fromhex(old)) <= 0.5 * quad_cfg.rel_tol * v
    assert batch == [hlmass.damped_mass(d, cfg=quad_cfg) for d in deltas]
    assert hlmass.damped_masses(deltas, cfg=quad_cfg, jobs=2) == batch


def test_damped_batch_checks_each_budget():
    # the envelope of delta = 1 fits 0.5 * 4e-10, that of delta = 0.04 not
    cfg = hlmass.QuadratureConfig(rel_tol=4e-10)
    hlmass.damped_mass(1.0, cfg=cfg)
    with pytest.raises(PrecisionUnreachable):
        hlmass.damped_masses([1.0, 0.04], cfg=cfg)


def test_damped_domain(quad_cfg):
    with pytest.raises(DomainError):
        hlmass.damped_mass(0.0, cfg=quad_cfg)
    with pytest.raises(DomainError):
        hlmass.damped_mass(-0.01, cfg=quad_cfg)
    with pytest.raises(DomainError):
        hlmass.damped_masses([0.04, 2.0], cfg=quad_cfg)
    with pytest.raises(DomainError):
        hlmass.damped_masses([], cfg=quad_cfg)


def test_mass_cell_brackets_the_target(oracle, quad_cfg, shared_ckpt):
    ck = hlmass.new_checkpoint(quad_cfg)
    # the cover grows by 1, 2, 4, 8 cells until I(cover) passes the target
    assert hlmass.mass_cell(oracle["I_10"], quad_cfg, ck) == 9
    assert ck.int_cover == 15
    i_1000 = hlmass.hl_mass(1000.0, cfg=quad_cfg, ckpt=shared_ckpt)
    i_mid = hlmass.hl_mass(1000.25, cfg=quad_cfg, ckpt=shared_ckpt)
    for target in (i_1000, i_mid, 0.5 * (i_1000 + i_mid), i_1000 + 40.0):
        m = hlmass.mass_cell(target, quad_cfg, shared_ckpt)
        assert shared_ckpt.lookup(m) <= target < shared_ckpt.lookup(m + 1)
    assert hlmass.mass_cell(i_mid, quad_cfg, shared_ckpt) == 1000
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            hlmass.mass_cell(bad, quad_cfg, shared_ckpt)


# ---------------------------------------------------------------------------
# certified-budget enforcement
# ---------------------------------------------------------------------------

def test_precision_unreachable_on_tight_budget():
    # T=5: the reference-route envelope of the low region exceeds the budget
    for t, rel_tol in ((200.0, 1e-13), (5.0, 1e-11)):
        cfg = hlmass.QuadratureConfig(rel_tol=rel_tol)
        ck = hlmass.new_checkpoint(cfg)
        with pytest.raises(PrecisionUnreachable):
            hlmass.hl_mass(t, cfg=cfg, ckpt=ck)


def test_envelope_within_budget(quad_cfg):
    """The envelopes of the cells under I(300.5) and of its partial cell
    sum to within the budget."""
    ck = hlmass.new_checkpoint(quad_cfg)
    v = hlmass.hl_mass(300.5, cfg=quad_cfg, ckpt=ck)
    _, cell_envs = hlmass._cells_masses(0, 300)
    _, part_env = hlmass._span_masses((300.0, 300.5))
    env = float(cell_envs.sum() + part_env[0])
    assert 0.0 < part_env[0] and 0.0 < env <= quad_cfg.rel_tol * max(1.0, v)
