"""Span recording from outside the package, and the arithmetic on spans.

A span is one call of a wrapped function: name, start, end, the span that
was open when it started (its parent) and the op it belongs to.  Spans are
kept in memory and written out once the run ends.

Wrappers are installed on module attributes, at every binding that points at
the original function (``partition`` imports ``F_inverse`` by name, ``verify``
imports ``phi_at`` and ``chord_tan_alpha`` by name, and the package re-exports
most functions), so a call through any of them is caught.  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) of each public function the trace covers, by layer.
PUBLIC = {
    "zfun": ("z_many", "z_eval", "theta"),
    "hlmass": ("hl_mass", "hl_mass_probe", "hl_mass_between", "damped_mass",
               "save_checkpoint", "load_checkpoint", "MassCheckpoint.insert"),
    "ladder": ("F_inverse", "phi_at", "chord_tan_alpha"),
    "partition": ("generate", "seed_point", "next_point", "mean_gap_stat"),
    "gram": ("gram_t", "gram_point", "gram_spacing_report"),
    "verify": ("balasubramanian_residual", "tka_residual", "tka_ladder",
               "short_interval_check", "ladder_checks",
               "ladder_increment_checks", "main_term", "tka_leading"),
    "cli": ("main", "emit_report"),
}

# Private Z routes, wrapped only to split the profile into its EM and RS
# shares.  They are optional: when a later version renames them, the two
# profile shares read 0 and the rest of the trace is unaffected.
PROFILE_PROBES = {"zfun": ("_zeta_em_block", "_z_rs_block")}

_SPAN_ID, _NAME, _PARENT, _OP, _T0, _T1, _ATTRS = range(7)


class Tracer:
    """Collects spans of wrapped calls; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._op_id = 0
        self._restore: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------
    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, attrs: dict | None = None) -> list:
        st = self._stack()
        if st:
            parent = st[-1]
        else:
            # A worker thread of the package's pool: its work was caused by
            # whatever the op's own thread is blocked in.
            parent = self._op_stack[-1] if self._op_stack else 0
        span = [next(self._ids), name, parent, self._op_id,
                time.perf_counter(), 0.0, attrs]
        st.append(span[_SPAN_ID])
        return span

    def close(self, span: list) -> None:
        span[_T1] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, op_id: int, attrs: dict):
        """The root span of one op, on the calling thread."""
        self._op_id = op_id
        self._local.stack = self._op_stack
        span = self.open("op", attrs)
        try:
            yield
        finally:
            self.close(span)
            self._op_id = 0

    def op_spans(self) -> list[list]:
        """Spans recorded inside ops; calls made by the output checks are not."""
        return [s for s in self.spans if s[_OP]]

    # -- installing wrappers ------------------------------------------
    def install(self, hlq_pkg) -> int:
        """Wrap every binding of the traced functions; returns the count."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "hlq" or n.startswith("hlq.")}
        n_bound = 0
        for table, optional in ((PUBLIC, False), (PROFILE_PROBES, True)):
            for layer, names in table.items():
                mod = getattr(hlq_pkg, layer)
                for dotted in names:
                    n_bound += self._install_one(mods, mod, layer, dotted,
                                                 optional)
        return n_bound

    def _install_one(self, mods, mod, layer, dotted, optional) -> int:
        owner = mod
        *path, attr = dotted.split(".")
        for p in path:
            owner = getattr(owner, p)
        orig = getattr(owner, attr, None)
        if orig is None:
            if optional:
                return 0
            raise AttributeError(f"{layer}.{dotted} not found")
        wrapped = self._wrapper(f"{layer}.{dotted.split('.')[-1]}", orig)
        n = 0
        if path:  # a method: the class attribute is its only binding
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, orig))
            return 1
        for m in mods.values():
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapped)
                    self._restore.append((m, k, orig))
                    n += 1
        return n

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrapper(self, name: str, fn):
        before, after = _HOOKS.get(name, (None, None))
        sig = inspect.signature(fn) if (before or after) else None
        tracer = self

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if sig else None
            state = before(bound) if before else None
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after:
                span[_ATTRS] = after(bound, state, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- output -------------------------------------------------------
    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "name", "parent", "op", "t0", "t1", "attrs")
        with open(path, "w", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: s[_SPAN_ID]):
                f.write(json.dumps(dict(zip(keys, s))) + "\n")


# -- per-function attributes, computed outside the span's timed interval ---

def _z_after(bound, _state, _result):
    import numpy as np
    ts = np.atleast_1d(np.asarray(bound.arguments["ts"], dtype=float))
    zc = bound.arguments.get("z_config")
    rs_min = zc.rs_min_t if zc is not None else bound.signature.parameters[
        "z_config"].default.rs_min_t
    n_em = int(np.count_nonzero(ts < rs_min))
    return {"n": int(ts.size), "em": n_em, "rs": int(ts.size) - n_em}


def _cover_before(bound):
    ck = bound.arguments.get("ckpt")
    return (ck, ck.int_cover) if ck is not None else None


def _cover_after(_bound, state, _result):
    if state is None:
        return None
    ck, before = state
    return {"cells": ck.int_cover - before}


def _save_after(bound, _state, _result):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


def _len_after(_bound, _state, result):
    return {"points": len(result)}


def _bundle_after(bound, _state, _result):
    root = bound.arguments["output_dir"]
    total = sum(os.path.getsize(os.path.join(d, f))
                for d, _, files in os.walk(root) for f in files)
    return {"bytes": total}


_HOOKS = {
    "zfun.z_many": (None, _z_after),
    "hlmass.hl_mass": (_cover_before, _cover_after),
    "hlmass.hl_mass_probe": (_cover_before, _cover_after),
    "hlmass.save_checkpoint": (None, _save_after),
    "partition.generate": (None, _len_after),
    "cli.emit_report": (None, _bundle_after),
}


# ---------------------------------------------------------------------------
# span arithmetic (pure functions on span tuples; unit-tested)
# ---------------------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals``, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it its children cover.

    Children on worker threads may overlap each other; the union is
    subtracted, so a parent blocked on two parallel children loses the
    interval once, not twice.
    """
    kids = defaultdict(list)
    for s in spans:
        kids[s[_PARENT]].append((s[_T0], s[_T1]))
    return {s[_SPAN_ID]: (s[_T1] - s[_T0])
            - covered_length(kids.get(s[_SPAN_ID], ()), s[_T0], s[_T1])
            for s in spans}


def tail_percentile(samples):
    """The highest percentile, up to p99, with at least ten samples beyond it.

    Returns (value, percentile, n).  With n samples that is the sample with
    max(10, n // 100) samples above it.  The cap at p99 keeps the tail of a
    run of thousands of ops off the few host stalls at its very top.  Up to
    20 samples no percentile above the median has ten samples beyond it,
    and the median is reported (percentile 50), so the tail is never below
    the median.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 20:
        return statistics.median(xs), 50.0, n
    beyond = max(10, n // 100)
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n


class SpanIndex:
    """Ancestry queries over one run's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[_SPAN_ID]: s for s in spans}
        self.self_s = self_times(spans)
        self.children = defaultdict(list)
        for s in spans:
            self.children[s[_PARENT]].append(s)

    def named(self, name):
        return [s for s in self.spans if s[_NAME] == name]

    def in_layer(self, layer):
        return [s for s in self.spans if s[_NAME].startswith(layer + ".")]

    def descendants(self, span):
        out, todo = [], list(self.children.get(span[_SPAN_ID], ()))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children.get(s[_SPAN_ID], ()))
        return out

    def has_ancestor(self, span, pred) -> bool:
        p = self.by_id.get(span[_PARENT])
        while p is not None:
            if pred(p):
                return True
            p = self.by_id.get(p[_PARENT])
        return False

    def outermost(self, name):
        """``name`` spans not nested in another ``name`` span."""
        same = lambda p: p[_NAME] == name  # noqa: E731
        return [s for s in self.named(name) if not self.has_ancestor(s, same)]

    def busy(self, name) -> float:
        """Summed duration of the outermost ``name`` spans."""
        return sum(s[_T1] - s[_T0] for s in self.outermost(name))


def layer_metrics(spans) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced run."""
    ix = SpanIndex(spans)
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def ratio(a, b):
        return a / b if b else 0.0

    def self_sum(layer, exclude=()):
        return sum(ix.self_s[s[_SPAN_ID]] for s in ix.in_layer(layer)
                   if s[_NAME] not in exclude)

    def attr_sum(spans_, key):
        return sum((s[_ATTRS] or {}).get(key, 0) for s in spans_)

    # zfun
    zm = ix.named("zfun.z_many")
    points = attr_sum(zm, "n")
    busy_z = ix.busy("zfun.z_many")
    put("zfun.z_many.calls", len(zm), "count")
    put("zfun.z_many.points", points, "count")
    put("zfun.z_many.points_em", attr_sum(zm, "em"), "count")
    put("zfun.z_many.points_rs", attr_sum(zm, "rs"), "count")
    put("zfun.z_many.busy_s", busy_z, "s")
    put("zfun.z_many.mean_batch", ratio(points, len(zm)), "count")
    put("zfun.points_per_s", ratio(points, busy_z), "1/s")
    for fn in ("z_eval", "theta"):
        put(f"zfun.{fn}.calls", len(ix.named(f"zfun.{fn}")), "count")
        put(f"zfun.{fn}.busy_s", ix.busy(f"zfun.{fn}"), "s")

    # hlmass
    io_names = ("hlmass.insert", "hlmass.save_checkpoint",
                "hlmass.load_checkpoint")
    put("hlmass.self_s", self_sum("hlmass", io_names), "s")
    hm = ix.named("hlmass.hl_mass")
    is_z = lambda s: s[_NAME].startswith("zfun.")  # noqa: E731
    hits = sum(1 for s in hm if not any(is_z(d) for d in ix.descendants(s)))
    put("hlmass.hl_mass.calls", len(hm), "count")
    put("hlmass.hl_mass.hits", hits, "count")
    probes = ix.named("hlmass.hl_mass_probe")
    put("hlmass.hl_mass_probe.calls", len(probes), "count")
    extenders = [s for s in hm + probes if (s[_ATTRS] or {}).get("cells", 0) > 0]
    cells = attr_sum(extenders, "cells")
    ext_points = sum(attr_sum([d for d in ix.descendants(s)
                               if d[_NAME] == "zfun.z_many"], "n")
                     for s in extenders)
    put("hlmass.cells_extended", cells, "count")
    put("hlmass.nodes_per_cell", ratio(ext_points, cells), "count")
    put("hlmass.insert.calls", len(ix.named("hlmass.insert")), "count")
    put("hlmass.insert.busy_s", ix.busy("hlmass.insert"), "s")
    saves = ix.named("hlmass.save_checkpoint")
    put("hlmass.save_checkpoint.busy_s", ix.busy("hlmass.save_checkpoint"), "s")
    put("hlmass.load_checkpoint.busy_s", ix.busy("hlmass.load_checkpoint"), "s")
    put("hlmass.checkpoint_bytes", ratio(attr_sum(saves, "bytes"), len(saves)),
        "bytes")
    put("hlmass.hl_mass_between.busy_s", ix.busy("hlmass.hl_mass_between"), "s")
    put("hlmass.damped_mass.busy_s", ix.busy("hlmass.damped_mass"), "s")

    # ladder
    put("ladder.F_inverse.calls", len(ix.named("ladder.F_inverse")), "count")
    put("ladder.self_s", self_sum("ladder"), "s")

    # partition
    gens = ix.named("partition.generate")
    n_points = attr_sum(gens, "points")
    in_gen = lambda p: p[_NAME] == "partition.generate"  # noqa: E731
    gen_probes = sum(1 for s in probes if ix.has_ancestor(s, in_gen))
    recheck = sum(s[_T1] - s[_T0] for s in ix.named("hlmass.hl_mass_between")
                  if ix.has_ancestor(s, in_gen))
    put("partition.points", n_points, "count")
    put("partition.probes_per_point", ratio(gen_probes, n_points), "count")
    put("partition.recheck_s", recheck, "s")
    put("partition.self_s", self_sum("partition"), "s")

    # gram
    gpts = len(ix.named("gram.gram_t"))
    in_gram = lambda p: p[_NAME].startswith("gram.")  # noqa: E731
    gram_theta = sum(1 for s in ix.named("zfun.theta")
                     if ix.has_ancestor(s, in_gram))
    put("gram.points", gpts, "count")
    put("gram.theta_per_point", ratio(gram_theta, gpts), "count")
    put("gram.self_s", self_sum("gram"), "s")

    # verify, cli
    put("verify.self_s", self_sum("verify"), "s")
    put("cli.self_s", self_sum("cli"), "s")
    put("cli.bytes_written", attr_sum(ix.named("cli.emit_report"), "bytes"),
        "bytes")

    # profile: shares of the single-threaded ops' wall time
    ops1 = {s[_OP]: s for s in ix.named("op") if (s[_ATTRS] or {}).get("jobs") == 1}
    wall1 = sum(s[_T1] - s[_T0] for s in ops1.values())

    def share(spans_):
        return ratio(sum(s[_T1] - s[_T0] for s in spans_ if s[_OP] in ops1), wall1)

    put("profile.rs_share", share(ix.outermost("zfun._z_rs_block")), "ratio")
    put("profile.em_share", share(ix.outermost("zfun._zeta_em_block")), "ratio")
    node_self = sum(ix.self_s[s[_SPAN_ID]] for s in ix.in_layer("hlmass")
                    if s[_OP] in ops1 and s[_NAME] not in io_names)
    put("profile.nodes_share", ratio(node_self, wall1), "ratio")
    put("trace.spans", len(spans), "count")
    return m
