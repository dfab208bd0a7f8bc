"""Equal-mass partitions, gap diagnostics, Planck micro-walks."""

import collections
import math

import pytest

from hlq import hlmass, ladder, partition, zfun
from hlq.errors import (DomainError, FormatError, InsufficientSpan,
                        PrecisionUnreachable)


@pytest.fixture(scope="module")
def run150(quad_cfg, shared_ckpt):
    params = partition.PartitionParams(T_start=1000.0, count=150)
    records = partition.generate(params, cfg=quad_cfg, ckpt=shared_ckpt)
    return params, records


# ---------------------------------------------------------------------------
# seeding and stepping
# ---------------------------------------------------------------------------

def test_seed_point_default(quad_cfg, shared_ckpt):
    params = partition.PartitionParams()
    nu0, t0 = partition.seed_point(params, cfg=quad_cfg, ckpt=shared_ckpt)
    # I(1000) = 5212.5078, so the first unit lattice point is nu = 5213
    assert nu0 == 5213
    assert 1000.0 < t0 < 1000.25
    got = hlmass.hl_mass_probe(t0, cfg=quad_cfg, ckpt=shared_ckpt)
    assert abs(got - 5213.0) <= 1e-9 * 5213.0


def test_seed_point_tau_shift(quad_cfg, shared_ckpt):
    # tau = 0.75 pulls the first target below I(1000) + 1: nu0 drops by one
    params = partition.PartitionParams(tau=0.75)
    nu0, t0 = partition.seed_point(params, cfg=quad_cfg, ckpt=shared_ckpt)
    assert nu0 == 5212
    got = hlmass.hl_mass_probe(t0, cfg=quad_cfg, ckpt=shared_ckpt)
    assert abs(got - 5212.75) <= 1e-9 * 5212.75


def test_next_point_unit_mass(quad_cfg, shared_ckpt):
    t = partition.next_point(1000.0, 1.0, cfg=quad_cfg, ckpt=shared_ckpt)
    assert abs(t - 1000.33029988917) <= 1e-8
    m = hlmass.hl_mass_between(1000.0, t)
    assert abs(m - 1.0) <= 1e-8


def test_next_point_domain(quad_cfg, shared_ckpt):
    with pytest.raises(DomainError):
        partition.next_point(50.0, 1.0, cfg=quad_cfg, ckpt=shared_ckpt)
    for omega in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            partition.next_point(1000.0, omega, cfg=quad_cfg, ckpt=shared_ckpt)


def test_every_lattice_root_is_budget_checked(monkeypatch, quad_cfg):
    """seed_point and next_point refuse a root whose partial cell misses the
    budget, as generate does: here every two-edge span reports 1e6 times its
    envelope on a grid covered to 1010, so no partial cell fits."""
    ck = hlmass.new_checkpoint(quad_cfg)
    hlmass.hl_mass(1010.0, cfg=quad_cfg, ckpt=ck)
    span_masses = hlmass._span_masses

    def inflated(edges, *args, **kwargs):
        vals, envs = span_masses(edges, *args, **kwargs)
        return vals, envs * 1e6 if len(edges) == 2 else envs
    monkeypatch.setattr(hlmass, "_span_masses", inflated)
    with pytest.raises(PrecisionUnreachable, match="at T=1000.5"):
        hlmass.hl_mass(1000.5, cfg=quad_cfg, ckpt=ck)
    with pytest.raises(PrecisionUnreachable, match="at T=1000.3"):
        partition.next_point(1000.0, 1.0, cfg=quad_cfg, ckpt=ck)
    with pytest.raises(PrecisionUnreachable, match="at T=1000.2"):
        partition.seed_point(partition.PartitionParams(T_start=1000.0),
                             cfg=quad_cfg, ckpt=ck)
    assert ck.int_cover == 1010


@pytest.mark.parametrize("omega", [1e-6, 1e-12, 1e-20])
def test_unresolvable_omega_is_refused(omega, quad_cfg, shared_ckpt):
    """At T = 1000 the lattice residual bound is 1e-9 * I ~ 5.2e-6: an omega
    not above it names no distinct lattice points."""
    params = partition.PartitionParams(omega=omega, T_start=1000.0, count=3)
    with pytest.raises(PrecisionUnreachable, match="omega .* residual bound"):
        partition.generate(params, cfg=quad_cfg, ckpt=shared_ckpt)
    with pytest.raises(PrecisionUnreachable, match="omega .* residual bound"):
        partition.next_point(1000.0, omega, cfg=quad_cfg, ckpt=shared_ckpt)


# ---------------------------------------------------------------------------
# generated sequences
# ---------------------------------------------------------------------------

def test_lattice_points_do_not_depend_on_the_start(quad_cfg):
    """Each T_nu is solved inside its own grid cell, so two walks that share
    a nu share its bits, whatever point came before it."""
    ck = hlmass.new_checkpoint(quad_cfg)
    walks = [{r.nu: r.T for r in partition.generate(
                 partition.PartitionParams(T_start=start, count=30),
                 cfg=quad_cfg, ckpt=ck)}
             for start in (1000.0, 1001.0)]
    shared = sorted(set(walks[0]) & set(walks[1]))
    assert len(shared) >= 20
    assert [walks[0][nu] for nu in shared] == [walks[1][nu] for nu in shared]


def test_walk_integrates_each_partial_cell_once(monkeypatch, quad_cfg):
    """Brent's last probe, the residual check and the budget check share
    one integration of each point's partial cell [m, T]."""
    seen = collections.Counter()
    span_masses = hlmass._span_masses

    def counted(edges, *args, **kwargs):
        if len(edges) == 2:
            seen[tuple(map(float, edges)), kwargs.get("rule")] += 1
        return span_masses(edges, *args, **kwargs)
    monkeypatch.setattr(hlmass, "_span_masses", counted)
    params = partition.PartitionParams(T_start=1000.0, count=50)
    partition.generate(params, cfg=quad_cfg, ckpt=hlmass.new_checkpoint(quad_cfg))
    assert len(seen) > 100
    assert max(seen.values()) == 1


def test_recheck_is_one_span_per_interval(monkeypatch, quad_cfg, shared_ckpt):
    """Each mass is its interval integrated as one span under the recheck
    rule, with one kernel call per 256 intervals: two for 300."""
    calls = []
    span_masses = hlmass._span_masses

    def counted(edges, *args, **kwargs):
        if kwargs.get("rule") == partition._RECHECK_RULE:
            calls.append(len(edges))
        return span_masses(edges, *args, **kwargs)
    monkeypatch.setattr(hlmass, "_span_masses", counted)
    params = partition.PartitionParams(T_start=1000.0, count=300)
    records = partition.generate(params, cfg=quad_cfg, ckpt=shared_ckpt)
    assert calls == [257, 45]
    monkeypatch.undo()
    for lo, hi in zip(records, records[1:]):
        want, _ = hlmass._span_masses((lo.T, hi.T), rule=partition._RECHECK_RULE)
        assert lo.mass == float(want[0])


def test_long_gaps_recheck_to_omega(quad_cfg, shared_ckpt):
    """At omega = 30 gaps reach several whole cells, each integrated as one
    span; the recheck still finds omega."""
    params = partition.PartitionParams(omega=30.0, T_start=1000.0, count=5)
    records = partition.generate(params, cfg=quad_cfg, ckpt=shared_ckpt)
    assert max(r.gap for r in records[:-1]) > 2.0
    for r in records[:-1]:
        assert abs(r.mass - params.omega) <= 1e-8 * params.omega


def test_walk_extends_a_cover_below_a_recorded_row(tmp_path, quad_cfg, shared_ckpt):
    """A file with a row 1002.5 above the cover 1000 is refused; a walk from
    the file cut at 1000 fills in the cells past it."""
    hlmass.hl_mass_probe(1003.0, cfg=quad_cfg, ckpt=shared_ckpt)
    full = tmp_path / "full.ckpt"
    hlmass.save_checkpoint(shared_ckpt, str(full))
    header, *rows = full.read_text().splitlines()
    kept = [r for r in rows if float(r.split("\t")[0]) <= 1000.0]
    row = f"1002.5\t{hlmass.hl_mass_probe(1002.5, cfg=quad_cfg, ckpt=shared_ckpt)!r}"
    path = tmp_path / "gap.ckpt"
    path.write_text("\n".join([header, *kept, row]) + "\n")
    with pytest.raises(FormatError, match="row T=1002.5 where T=1001 is due"):
        hlmass.load_checkpoint(str(path))
    path.write_text("\n".join([header, *kept]) + "\n")
    ck = hlmass.load_checkpoint(str(path))
    assert ck.int_cover == 1000
    params = partition.PartitionParams(T_start=1000.0, count=20)
    records = partition.generate(params, cfg=quad_cfg, ckpt=ck)
    assert records[-1].T > 1002.5
    assert ck.int_cover > 1002.5
    for m in (1001.0, 1002.0, 1003.0):
        assert ck.lookup(m) == shared_ckpt.lookup(m)
    for r in records[:-1]:
        assert abs(r.mass - params.omega) <= 1e-8


def test_generate_structure(run150):
    params, records = run150
    assert len(records) == params.count + 1
    assert [r.nu for r in records] == list(range(5213, 5213 + 151))
    ts = [r.T for r in records]
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))
    last = records[-1]
    assert last.gap is None and last.mass is None
    assert all(r.gap is not None for r in records[:-1])


def test_generate_masses_equal_omega(run150):
    params, records = run150
    for r in records[:-1]:
        assert abs(r.mass - params.omega) <= 1e-9
        assert r.gap == pytest.approx(r.predicted_gap, rel=1e-3)
        assert r.rel_gap_err <= 1e-3


def test_generate_lattice_values(run150, quad_cfg, shared_ckpt):
    params, records = run150
    for r in records[::30]:
        target = params.omega * r.nu + params.tau
        got = hlmass.hl_mass_probe(r.T, cfg=quad_cfg, ckpt=shared_ckpt)
        assert abs(got - target) <= 1e-9 * target


def test_predicted_gap_formula(quad_cfg, shared_ckpt):
    p1 = ladder.phi_at(1000.0, cfg=quad_cfg, ckpt=shared_ckpt)
    p2 = ladder.phi_at(1000.5, cfg=quad_cfg, ckpt=shared_ckpt)
    want = 1.0 / ((math.log(0.5 * p1.phi) - ladder.A)
                  * ladder.chord_tan_alpha(p1, p2))
    assert partition.predicted_gap(p1, p2, 1.0) == pytest.approx(want,
                                                                 rel=1e-14)


def test_params_validation():
    for kw in ({"omega": 0.0}, {"omega": 1e7}, {"tau": 1.0},
               {"tau": -0.1}, {"T_start": 10.0}, {"count": 0},
               {"count": 2.5}, {"count": 2.0}, {"count": True},
               {"epsilon": 0.0}, {"epsilon": 0.2}):
        with pytest.raises(DomainError):
            partition.PartitionParams(**kw)


# ---------------------------------------------------------------------------
# interleaving of shifted lattices
# ---------------------------------------------------------------------------

def test_lattices_interleave(quad_cfg, shared_ckpt):
    seqs = {}
    for tau in (0.0, 0.5):
        params = partition.PartitionParams(tau=tau, count=12)
        records = partition.generate(params, cfg=quad_cfg, ckpt=shared_ckpt)
        seqs[tau] = [(r.nu + tau, r.T) for r in records]
    merged = sorted(seqs[0.0] + seqs[0.5])
    ts = [t for _, t in merged]
    # cumulative-mass order is realized-height order: strict interleaving
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


# ---------------------------------------------------------------------------
# mean-gap statistic
# ---------------------------------------------------------------------------

def test_mean_gap_stat(run150):
    params, records = run150
    st = partition.mean_gap_stat(records, params)
    assert st.anchor_t == records[0].T
    assert st.u0 == pytest.approx(st.anchor_t ** (1 / 3 + 2 * params.epsilon))
    assert st.span <= st.u0
    assert st.mean_gap == st.span / st.n0
    # consistency between the two predictors
    dens_sharp = math.log(st.anchor_t / zfun.TWO_PI) + 2 * 0.5772156649015329
    assert st.predicted == pytest.approx(params.omega / dens_sharp, rel=1e-12)
    assert st.predicted_asymptotic == pytest.approx(
        params.omega / math.log(st.anchor_t), rel=1e-12)
    # realized window means fluctuate strongly at a fixed anchor; both
    # ratios must still be O(1)
    assert 0.4 < st.ratio < 1.7
    assert 0.4 < st.ratio_asymptotic < 1.7


def test_mean_gap_insufficient_span(quad_cfg, shared_ckpt):
    params = partition.PartitionParams(count=10)
    records = partition.generate(params, cfg=quad_cfg, ckpt=shared_ckpt)
    with pytest.raises(InsufficientSpan):
        partition.mean_gap_stat(records, params)


# ---------------------------------------------------------------------------
# Planck micro-walk
# ---------------------------------------------------------------------------

def test_planck_sequence_exact_quanta():
    steps = partition.planck_sequence(10002.0, 2000)
    assert len(steps) == 2000
    assert steps[0][0] == 0.0
    offs = [o for o, _ in steps]
    assert all(b > a for a, b in zip(offs, offs[1:]))
    z2 = zfun.z_eval(10002.0, target_abs_err=1e-9).z ** 2
    # the quantum is restored bit-exactly: mass * pi == 6.6e-27
    for _, gap in steps[::97]:
        assert gap * z2 * math.pi == partition.PLANCK_H
    # micro-gaps: far below float spacing effects at this height
    assert steps[0][1] < 1e-26
    # Z^2 is evaluated once, at T0: every gap of a long walk is the first
    walk = partition.planck_sequence(10002.0, 10 ** 4)
    assert {gap for _, gap in walk} == {walk[0][1]}


# planck_sequence(10002, 1e5) offsets when Z(T0) took the pointwise RS sum
PLANCK_PINS_POINTWISE = {1: "0x1.2d0aeacd38a83p-91", 3: "0x1.c3906033d4fc4p-90",
                         12345: "0x1.c5a89ba612893p-78",
                         65537: "0x1.2d0c17d823757p-75",
                         99999: "0x1.cb599b7c79c67p-75"}


def test_planck_offsets_are_products():
    steps = partition.planck_sequence(10002.0, 10 ** 5)
    gap = steps[0][1]
    assert all(o == k * gap for k, (o, _) in enumerate(steps))
    pinned = {1: "0x1.2d0aeacd3b0e0p-91", 3: "0x1.c3906033d8950p-90",
              12345: "0x1.c5a89ba616263p-78", 65537: "0x1.2d0c17d825db4p-75",
              99999: "0x1.cb599b7c7d6f0p-75"}
    for k, bits in pinned.items():
        assert steps[k][0].hex() == bits, k
    # the pins before z_eval took its RS main sum as a one-node cell are
    # within twice z_eval's relative envelope
    z = zfun.z_eval(10002.0, target_abs_err=1e-9)
    r = z.abs_err / abs(z.z)
    bound = 2.0 * r + r * r + 8.0 * zfun.EPS
    for k, old in PLANCK_PINS_POINTWISE.items():
        assert abs(float.fromhex(old) - steps[k][0]) <= bound * steps[k][0], k


def test_planck_gaps_against_mpmath():
    """pi * gap * Z^2 restores h when Z comes from mpmath's siegelz at 30
    digits, at T0 and at T0 plus the last offset, not from the z_eval value
    the gaps were divided by: to within twice z_eval's relative envelope."""
    mpmath = pytest.importorskip("mpmath")
    t0 = 10002.0
    steps = partition.planck_sequence(t0, 10 ** 5)
    z = zfun.z_eval(t0, target_abs_err=1e-9)
    r = z.abs_err / abs(z.z)
    bound = 2.0 * r + r * r + 8.0 * zfun.EPS
    with mpmath.workdps(30):
        for offset, gap in (steps[0], steps[-1]):
            z_mp = mpmath.siegelz(mpmath.mpf(t0) + mpmath.mpf(offset))
            quantum = mpmath.pi * mpmath.mpf(gap) * z_mp ** 2
            err = abs(quantum - partition.PLANCK_H) / partition.PLANCK_H
            assert float(err) <= bound, (offset, float(err), bound)


def test_planck_domain():
    with pytest.raises(DomainError):
        partition.planck_sequence(500.0, 10)
    with pytest.raises(DomainError):
        partition.planck_sequence(2e5, 10)
    with pytest.raises(DomainError):
        partition.planck_sequence(10002.0, 0)
    with pytest.raises(DomainError):
        partition.planck_sequence(10002.0, 2 * 10 ** 6)
    for count in (2.5, 2.0, True):  # counts are ints, never truncated
        with pytest.raises(DomainError):
            partition.planck_sequence(10002.0, count)
    # anchor must not sit too close to a zero of Z
    with pytest.raises(DomainError):
        partition.planck_sequence(10000.0, 10)
