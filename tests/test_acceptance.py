"""Acceptance criteria.

Each test prints exactly one PASS/FAIL line (straight to the terminal,
bypassing capture) and then asserts.  Heavy artifacts are shared through a
lazily-populated module context; every stored value is path-independent,
so sharing cannot change any outcome.
"""

import json
import math
import os
import statistics
import time

import pytest

from hlq import cli, gram, hlmass, ladder, partition, verify, zfun

DATA = os.path.join(os.path.dirname(__file__), "data", "z_oracle_200.json")


class _Ctx:
    def __init__(self, tmp):
        self.cfg = hlmass.QuadratureConfig()
        self.ckpt = hlmass.new_checkpoint(self.cfg)
        self.tmp = tmp
        self._records500 = None

    @property
    def records500(self):
        if self._records500 is None:
            params = partition.PartitionParams(T_start=1000.0, count=500)
            recs = partition.generate(params, cfg=self.cfg, ckpt=self.ckpt)
            self._records500 = (params, recs)
        return self._records500


@pytest.fixture(scope="module")
def actx(tmp_path_factory):
    return _Ctx(tmp_path_factory.mktemp("acceptance"))


def _verdict(capsys, num, label, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d} [{label}]: {detail}"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_01_z_accuracy(capsys):
    with open(DATA) as f:
        pairs = [(float(t), float(z)) for t, z in json.load(f)["pairs"]]
    t0 = time.perf_counter()
    samples = [zfun.z_eval(t, target_abs_err=1e-9) for t, _ in pairs]
    elapsed = time.perf_counter() - t0
    worst = max(abs(s.z - zref) for s, (_, zref) in zip(samples, pairs))
    certified = all(abs(s.z - zref) <= max(s.abs_err, 1e-10)
                    for s, (_, zref) in zip(samples, pairs))
    ok = worst <= 1e-8 and elapsed < 10.0 and certified
    _verdict(capsys, 1, "Z accuracy", ok,
             f"200 points in [10, 5000]: max |dZ| = {worst:.3g} (<= 1e-8), "
             f"{elapsed:.2f}s (< 10s), all inside certified envelopes")


def test_criterion_02_balasubramanian(capsys, actx):
    reports = [verify.balasubramanian_residual(t, cfg=actx.cfg,
                                               ckpt=actx.ckpt)
               for t in (1e3, 3e3, 1e4)]
    ok = all(r.within_bound for r in reports)
    detail = ", ".join(
        f"T={r.inputs['T']:g}: R={r.residual:+.4f} (|R| <= {r.bound:.2f})"
        for r in reports)
    _verdict(capsys, 2, "second-moment residuals", ok, detail)


def test_criterion_03_partition_masses(capsys, actx):
    params, recs = actx.records500
    devs = [abs(r.mass - params.omega) for r in recs if r.gap is not None]
    ok = len(devs) == 500 and max(devs) <= 1e-8
    _verdict(capsys, 3, "equal-mass partition", ok,
             f"500 intervals from T=1000: max |mass - 1| = {max(devs):.3g} "
             f"(<= 1e-8)")


def test_criterion_04_gap_prediction(capsys, actx):
    _, recs = actx.records500
    errs = [r.rel_gap_err for r in recs if r.gap is not None]
    med = statistics.median(errs)
    ok = max(errs) <= 0.02 and med <= 0.005
    _verdict(capsys, 4, "chord gap prediction", ok,
             f"rel gap error: max = {max(errs):.3g} (<= 0.02), "
             f"median = {med:.3g} (<= 0.005)")


def test_criterion_05_mean_gap(capsys, actx):
    params = partition.PartitionParams(T_start=10700.0, count=280)
    recs = partition.generate(params, cfg=actx.cfg, ckpt=actx.ckpt)
    st = partition.mean_gap_stat(recs, params)
    ok = 0.95 <= st.ratio <= 1.05
    _verdict(capsys, 5, "mean gap law", ok,
             f"anchor T={st.anchor_t:.1f}, window U0={st.u0:.1f} ({st.n0} "
             f"gaps): mean/local = {st.ratio:.5f} (in [0.95, 1.05]); "
             f"mean/asymptotic = {st.ratio_asymptotic:.5f}")


def test_criterion_06_interleaving(capsys, actx):
    merged = []
    for tau in (0.0, 0.25, 0.5, 0.75):
        params = partition.PartitionParams(tau=tau, count=40)
        recs = partition.generate(params, cfg=actx.cfg, ckpt=actx.ckpt)
        merged.extend((r.nu + tau, r.T) for r in recs)
    merged.sort()
    ts = [t for _, t in merged]
    ok = all(b > a for a, b in zip(ts, ts[1:]))
    _verdict(capsys, 6, "shifted-lattice interleaving", ok,
             f"tau in {{0, 0.25, 0.5, 0.75}} x 41 points each: heights "
             f"strictly interleave in cumulative-mass order ({len(ts)} points)")


def test_criterion_07_ladder_bounds(capsys, actx):
    _, recs = actx.records500
    path = str(actx.tmp / "shared.ckpt")
    hlmass.save_checkpoint(actx.ckpt, path)
    fresh = hlmass.load_checkpoint(path)
    # the certified envelope at T = 1e5 exceeds the 1e-9 budget; the wide
    # points run under an explicit 1e-7 tolerance on a fresh instance
    cfg7 = hlmass.QuadratureConfig(rel_tol=1e-7)
    reports = verify.ladder_checks([1e4, 3e4, 1e5], cfg=cfg7, ckpt=fresh)
    increments = verify.ladder_increment_checks(recs, omega=1.0, tau=0.0)
    band_ok = all(r.within_bound for r in reports)
    inc_ok = all(r.within_bound for r in increments)
    ratios = ", ".join(f"phi({r.inputs['T']:g})/T = {r.observed:.4f}"
                       for r in reports)
    worst_inc = max(r.observed for r in increments)
    _verdict(capsys, 7, "ladder bounds and increments", band_ok and inc_ok,
             f"{ratios} (all in (1.9, 2.0)); max increment x ln T = "
             f"{worst_inc:.3f} (<= 10 omega)")


def test_criterion_08_short_interval(capsys, actx):
    r = verify.short_interval_check(1e4, 0.01, cfg=actx.cfg, ckpt=actx.ckpt)
    ok = abs(r.residual) <= 0.5 and r.within_bound
    _verdict(capsys, 8, "short-interval mass", ok,
             f"T=1e4, U={r.inputs['U']:.2f}: observed {r.observed:.4f} vs "
             f"chord {r.predicted:.4f}, residual {r.residual:+.4f} "
             f"(|R| <= 0.5)")


def test_criterion_09_gram_spacings(capsys):
    _, s0 = gram.gram_spacing_report(100, 1000, 0.0)
    _, s1 = gram.gram_spacing_report(100, 1000, math.pi / 2)
    ok = (0.98 <= s0.mean_ratio <= 1.02) and (0.96 <= s1.mean_ratio <= 1.04)
    _verdict(capsys, 9, "Gram spacings", ok,
             f"nu 100..1000: mean spacing/local = {s0.mean_ratio:.5f} "
             f"(tau=0, in [0.98, 1.02]), {s1.mean_ratio:.5f} (tau=pi/2, in "
             f"[0.96, 1.04]); asymptotic-form ratios "
             f"{s0.mean_ratio_asymptotic:.4f}/{s1.mean_ratio_asymptotic:.4f}")


def test_criterion_10_damped_second_moment(capsys, actx):
    reports, slope = verify.tka_ladder(cfg=actx.cfg)
    resid = [abs(r.residual) for r in reports]  # delta descending
    decreasing = all(b < a for a, b in zip(resid, resid[1:]))
    halving = all(1.7 <= a / b <= 2.3 for a, b in zip(resid, resid[1:]))
    slope_ok = 0.9 <= slope <= 1.1
    bounds_ok = all(r.within_bound for r in reports)
    lead = verify.tka_leading(0.01)
    lead_ok = abs(lead - 132.56) <= 0.05
    ok = decreasing and halving and slope_ok and bounds_ok and lead_ok
    _verdict(capsys, 10, "damped second moment", ok,
             f"|residual| over delta 0.04..0.005: "
             + "/".join(f"{x:.4f}" for x in resid)
             + f" (halving, log-log slope {slope:.3f} in [0.9, 1.1]); "
               f"leading(0.01) = {lead:.4f} (~132.56)")


def test_criterion_11_planck_walk(capsys, actx):
    t0_anchor = 10002.0  # nearest anchor to 1e4 with |Z| >= 0.5
    t0 = time.perf_counter()
    steps = partition.planck_sequence(t0_anchor, 100000)
    elapsed = time.perf_counter() - t0
    z2 = zfun.z_eval(t0_anchor, target_abs_err=1e-9).z ** 2
    worst = max(abs(g * z2 * math.pi - partition.PLANCK_H) for _, g in steps)
    offs = [o for o, _ in steps]
    mono = all(b > a for a, b in zip(offs, offs[1:]))
    ok = elapsed < 30.0 and worst == 0.0 and mono and len(steps) == 100000
    _verdict(capsys, 11, "Planck micro-walk", ok,
             f"1e5 steps at T0={t0_anchor:g} in {elapsed:.2f}s (< 30s); "
             f"max |pi * mass - 6.6e-27| = {worst:g} (bit-exact), offsets "
             f"strictly increasing")


def test_criterion_12_determinism(capsys, actx, tmp_path):
    outs = {}
    for tag, jobs in (("j1", "1"), ("j1b", "1"), ("j4", "4")):
        ck = tmp_path / f"{tag}.ckpt"
        csv = tmp_path / f"{tag}.csv"
        code = cli.main(["partition", "--count", "30", "--checkpoint",
                         str(ck), "--out", str(csv), "--jobs", jobs])
        assert code == 0
        outs[tag] = (csv.read_bytes(), ck.read_bytes())
    rerun_ok = outs["j1"] == outs["j1b"]
    jobs_ok = outs["j1"] == outs["j4"]
    lib_ok = (hlmass.hl_mass(500.0, cfg=actx.cfg,
                             ckpt=hlmass.new_checkpoint(actx.cfg), jobs=1)
              == hlmass.hl_mass(500.0, cfg=actx.cfg,
                                ckpt=hlmass.new_checkpoint(actx.cfg), jobs=8))
    ok = rerun_ok and jobs_ok and lib_ok
    _verdict(capsys, 12, "byte determinism", ok,
             "partition CSV and checkpoint bytes identical across reruns "
             "and --jobs {1, 4}; I(500) bit-equal for jobs 1 vs 8")
