"""Tests of the benchmark's own arithmetic, on synthetic spans and samples.

    python3 -m pytest perfbench/test_perfbench.py
"""

import pytest

from tracing import Tracer, covered_length, layer_metrics, self_times, tail_percentile


def span(sid, name, parent, t0, t1, op=1, attrs=None):
    return [sid, name, parent, op, t0, t1, attrs]


def test_self_time_subtracts_nested_children():
    spans = [span(1, "op", 0, 0.0, 10.0),
             span(2, "hlmass.hl_mass", 1, 1.0, 9.0),
             span(3, "zfun.z_many", 2, 2.0, 4.0),
             span(4, "zfun.z_many", 2, 5.0, 8.0)]
    st = self_times(spans)
    assert st == {1: pytest.approx(2.0), 2: pytest.approx(3.0),
                  3: pytest.approx(2.0), 4: pytest.approx(3.0)}
    # self times of a tree add up to the root's duration
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # two worker threads busy at once under one blocked parent
    spans = [span(1, "hlmass.hl_mass", 0, 0.0, 10.0),
             span(2, "zfun.z_many", 1, 1.0, 6.0),
             span(3, "zfun.z_many", 1, 4.0, 8.0)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, "cli.main", 0, 2.0, 5.0),
             span(2, "hlmass.hl_mass", 1, 1.0, 3.0),
             span(3, "hlmass.hl_mass", 1, 4.5, 7.0)]
    assert self_times(spans)[1] == pytest.approx(1.5)


@pytest.mark.parametrize("intervals, lo, hi, want", [
    ([], 0.0, 1.0, 0.0),
    ([(0.0, 1.0), (1.0, 2.0)], 0.0, 2.0, 2.0),
    ([(0.0, 3.0), (1.0, 2.0)], 0.0, 5.0, 3.0),
    ([(-1.0, 0.5), (0.7, 9.0)], 0.0, 1.0, 0.8),
    ([(2.0, 3.0)], 0.0, 1.0, 0.0),
])
def test_covered_length(intervals, lo, hi, want):
    assert covered_length(intervals, lo, hi) == pytest.approx(want)


def test_tail_percentile_has_ten_samples_beyond_it():
    xs = list(range(1, 101))  # 1..100
    value, pct, n = tail_percentile(reversed(xs))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for x in xs if x > value) == 10


def test_tail_percentile_is_capped_at_p99():
    xs = list(range(5000))
    value, pct, n = tail_percentile(xs)
    assert (value, pct, n) == (4949, 99.0, 5000)
    assert sum(1 for x in xs if x > value) == 50


def test_tail_percentile_smallest_sample_count():
    value, pct, n = tail_percentile(list(range(21)))
    assert (value, pct, n) == (10, 100.0 * 11 / 21, 21)
    # at 20 samples the one with ten beyond it is below the median
    assert tail_percentile(list(range(20))) == (9.5, 50.0, 20)


def test_tail_percentile_too_few_samples_reports_the_median():
    assert tail_percentile([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)
    assert tail_percentile([5.0] * 18 + [1.0]) == (5.0, 50.0, 19)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_layer_metrics_probes_hits_and_profile():
    spans = [
        span(1, "op", 0, 0.0, 10.0, attrs={"jobs": 1}),
        span(2, "partition.generate", 1, 0.0, 10.0, attrs={"points": 2}),
        span(3, "hlmass.hl_mass_probe", 2, 1.0, 2.0),
        span(4, "zfun.z_many", 3, 1.2, 1.8, attrs={"n": 30, "em": 10, "rs": 20}),
        span(5, "zfun._z_rs_block", 4, 1.3, 1.7),
        span(6, "hlmass.hl_mass_probe", 2, 3.0, 4.0),
        span(7, "zfun.z_many", 6, 3.2, 3.8, attrs={"n": 10, "em": 0, "rs": 10}),
        span(8, "hlmass.hl_mass_probe", 2, 5.0, 6.0),
        span(9, "zfun.z_many", 8, 5.2, 5.8, attrs={"n": 20, "em": 0, "rs": 20}),
        span(10, "hlmass.hl_mass", 2, 7.0, 7.5),  # a hit: no Z call below
        span(11, "hlmass.hl_mass_between", 2, 8.0, 9.0),
    ]
    m = {k: v for k, (v, _) in layer_metrics(spans).items()}
    assert m["partition.points"] == 2
    assert m["partition.probes_per_point"] == 1.5
    assert m["partition.recheck_s"] == pytest.approx(1.0)
    assert m["hlmass.hl_mass.hits"] == 1
    assert m["zfun.z_many.points"] == 60
    assert m["zfun.z_many.points_em"] == 10
    assert m["zfun.z_many.mean_batch"] == 20
    assert m["zfun.z_many.busy_s"] == pytest.approx(1.8)
    assert m["profile.rs_share"] == pytest.approx(0.04)
    # probes 3 x (1.0 - 0.6) + hl_mass 0.5 + between 1.0
    assert m["hlmass.self_s"] == pytest.approx(2.7)
    assert m["partition.self_s"] == pytest.approx(10.0 - 4.5)


def test_tracer_wraps_every_binding_and_restores_them():
    import types
    import sys

    pkg = types.ModuleType("hlq")
    mods = {}
    for layer in ("zfun", "hlmass", "ladder", "partition", "gram", "verify", "cli"):
        mods[layer] = types.ModuleType(f"hlq.{layer}")
        setattr(pkg, layer, mods[layer])

    def f_inverse(v):
        return 2 * v
    mods["ladder"].F_inverse = f_inverse
    mods["partition"].F_inverse = f_inverse   # bound by name, as in the package
    from tracing import PUBLIC
    for layer, names in PUBLIC.items():
        for dotted in names:
            owner = mods[layer]
            *path, attr = dotted.split(".")
            for p in path:
                if not hasattr(owner, p):
                    setattr(owner, p, type(p, (), {}))
                owner = getattr(owner, p)
            if not hasattr(owner, attr):
                setattr(owner, attr, lambda *a, **k: None)
    saved = {k: v for k, v in sys.modules.items() if k == "hlq" or k.startswith("hlq.")}
    try:
        sys.modules["hlq"] = pkg
        for layer, mod in mods.items():
            sys.modules[f"hlq.{layer}"] = mod
        tr = Tracer()
        tr.install(pkg)
        with tr.op(1, {"jobs": 1}):
            assert mods["partition"].F_inverse(3) == 6
            assert mods["ladder"].F_inverse(4) == 8
        tr.uninstall()
    finally:
        for k in [k for k in sys.modules if k == "hlq" or k.startswith("hlq.")]:
            del sys.modules[k]
        sys.modules.update(saved)
    names = [s[1] for s in tr.spans]
    assert names.count("ladder.F_inverse") == 2
    assert mods["partition"].F_inverse is f_inverse
    assert mods["ladder"].F_inverse is f_inverse


def test_run_ops_counts_from_first_and_stops_on_whole_steps():
    import types
    from run import run_ops

    hlq = types.SimpleNamespace(HlqError=RuntimeError)
    seen = []

    def op(i):
        return 1 + i % 2, lambda: i

    def check(i, out):
        seen.append((i, out))
        return [] if out == i else ["wrong"]

    samples = run_ops(op, check, hlq, n_ops=5, first=3)
    assert [j for j, _, _ in samples] == [2, 1, 2, 1, 2]
    assert seen == [(i, i) for i in range(3, 8)]
    # a budget already spent still runs two ops, one at each jobs
    assert len(run_ops(op, check, hlq, seconds=0.0)) == 2
    assert len(run_ops(op, check, hlq, seconds=0.0, step=3)) == 3
    assert len(run_ops(op, check, hlq, seconds=0.0, n_ops=1)) == 1


def test_interleaved_replays_the_op_before_every_fifth_slot():
    import types
    from run import interleaved

    wl = types.SimpleNamespace(op=lambda k: ("op", k),
                               replay=lambda k: ("replay", k),
                               check=lambda k, out: [("op", k, out)],
                               check_replay=lambda k, out: [("replay", k, out)])
    op, check = interleaved(wl, every=5)
    assert [op(i) for i in range(12)] == [
        ("op", 0), ("replay", 0), ("op", 1), ("op", 2), ("op", 3),
        ("op", 4), ("replay", 4), ("op", 5), ("op", 6), ("op", 7),
        ("op", 8), ("replay", 8)]
    assert check(6, "x") == [("replay", 4, "x")]
    assert check(7, "y") == [("op", 5, "y")]
    op, check = interleaved(wl, every=2)
    assert [op(i) for i in range(6)] == [
        ("op", 0), ("replay", 0), ("op", 1), ("replay", 1), ("op", 2),
        ("replay", 2)]
    assert check(3, "z") == [("replay", 1, "z")]
