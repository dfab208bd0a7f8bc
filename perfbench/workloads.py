"""The four workloads: inputs made from the seed, one timed op, output checks.

Every workload is a closed loop with one client: the next op is issued when
the previous one returns.  On a ``paired`` workload (``cold-mass``, and
``query-mix`` as the control) an even op runs at ``jobs=1`` and the odd op
after it at ``jobs=2``.  The other workloads run their ops at ``jobs=1``, and
the run replays some of those inputs at ``jobs=2`` from the same starting
state (``replay(k)``).  A pair or a replay must reproduce the ``jobs=1`` output byte
for byte (the package's determinism contract).  Comparisons are made within a
run only, never against digests from another commit.

A workload object is built from the seed alone; ``setup()`` may be called
several times and rebuilds the same state each time.  ``op(i)`` and
``replay(k)`` return ``(jobs, fn)``: ``fn()`` is the timed work and returns
what ``check(i, out)`` or ``check_replay(k, out)`` inspects, untimed,
returning a list of problems (empty when correct).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import random
import shutil

# I(1000), frozen from an independent high-precision evaluation (the same
# constant as the package's test oracle, copied rather than imported).
ORACLE_I1000 = 5212.50776333778246
EULER_GAMMA = 0.57721566490153286061
LN_TWO_PI = math.log(2.0 * math.pi)


def main_term(t: float) -> float:
    """T ln T + (2c - 1 - ln 2pi) T, written out here as an independent check."""
    return t * math.log(t) + (2.0 * EULER_GAMMA - 1.0 - LN_TWO_PI) * t


def balasubramanian_ok(t: float, value: float) -> bool:
    return abs(value - main_term(t)) <= t ** (1.0 / 3.0 + 0.1)


def oracle_problems(value, rel_tol: float, where: str) -> list[str]:
    if value is None or not abs(value - ORACLE_I1000) <= rel_tol * ORACLE_I1000:
        return [f"{where}: I(1000) = {value!r}, oracle {ORACLE_I1000!r}"]
    return []


def rows_digest(ckpt) -> str:
    """Digest of the checkpoint's header and rows, exact to the bit."""
    import numpy as np
    h = hashlib.sha256(json.dumps(
        {"version": ckpt.version, "tol": ckpt.tol, "z_config": ckpt.z_config},
        sort_keys=True).encode())
    h.update(np.asarray(list(ckpt.rows()), dtype=np.float64).tobytes())
    return h.hexdigest()


def spread_start(offset: float, k: int, lo: float, hi: float) -> float:
    """k-th start of a golden-ratio sequence with a seeded offset in [0, 1).

    Op cost grows with the height, so starts that cover [lo, hi] evenly in
    every run keep the seed from moving the run's medians.
    """
    return lo + (hi - lo) * ((offset + 0.6180339887498949 * k) % 1.0)


def _exact(x) -> str:
    """Exact text of a value: floats by their hex form, so -0.0 != 0.0."""
    return float(x).hex() if isinstance(x, float) else repr(x)


def _fingerprint(records) -> list:
    return [tuple(_exact(v) for v in vars(r).values()) for r in records]


class Workload:
    name = ""
    trace_ops = 2   # fixed op count of a traced run, so its counts repeat
    paired = False  # ops alternate jobs=1 and jobs=2; else jobs=1, then replays
    replay_every = 5  # unpaired: one op in this many is a jobs=2 replay

    def __init__(self, hlq, seed: int, tmp: str):
        self.hlq = hlq
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.offset = self.rng.random()
        self.tmp = tmp

    def setup(self) -> list[str]:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def replay(self, k: int):
        """Op k's input again at jobs=2, from the state op k started in."""
        raise NotImplementedError

    def check_replay(self, k: int, out) -> list[str]:
        raise NotImplementedError


class ColdMass(Workload):
    """Cold I(1e5) at rel_tol 1e-7 on a fresh checkpoint, jobs=1 then jobs=2."""

    name = "cold-mass"
    paired = True
    T = 1e5
    REL_TOL = 1e-7

    def setup(self):
        hm = self.hlq.hlmass
        self.cfg = hm.QuadratureConfig(rel_tol=self.REL_TOL)
        self.first = None
        warm = hm.new_checkpoint(self.cfg)
        v = hm.hl_mass(1000.0, cfg=self.cfg, ckpt=warm)
        return oracle_problems(v, self.REL_TOL, "warm-up")

    def op(self, i):
        hm = self.hlq.hlmass
        jobs = 1 + i % 2

        def fn():
            ck = hm.new_checkpoint(self.cfg)
            return hm.hl_mass(self.T, cfg=self.cfg, ckpt=ck, jobs=jobs), ck
        return jobs, fn

    def check(self, i, out):
        v, ck = out
        probs = oracle_problems(ck.lookup(1000.0), self.REL_TOL, f"op {i}")
        if not balasubramanian_ok(self.T, v):
            probs.append(f"op {i}: |I(T) - main term| above T^(1/3+0.1)")
        got = (_exact(v), rows_digest(ck))
        if self.first is None:
            self.first = got
        elif got != self.first:
            probs.append(f"op {i}: value or checkpoint differs from op 0")
        return probs


class PartitionWalk(Workload):
    """partition.generate(count=100) from a seeded T_start in [1000, 2000]."""

    name = "partition-walk"
    trace_ops = 4
    # Each op is replayed at jobs=2 right after it: a run has only ~25 ops of
    # ~1 s, and with one replay in five the few jobs=2 ops spread too much.
    replay_every = 2
    COUNT = 100
    COVER = 2100.0   # top of the range plus the longest 100-interval walk

    def setup(self):
        hm, pt = self.hlq.hlmass, self.hlq.partition
        self.cfg = hm.QuadratureConfig()
        self.ck = hm.new_checkpoint(self.cfg)
        hm.hl_mass(self.COVER, cfg=self.cfg, ckpt=self.ck)
        # per op: start, checkpoint before, records, checkpoint digest after
        self.done = []
        warm = pt.generate(pt.PartitionParams(T_start=1000.0, count=5),
                           cfg=self.cfg, ckpt=copy.deepcopy(self.ck))
        return (oracle_problems(self.ck.lookup(1000.0), self.cfg.rel_tol, "setup")
                + self._mass_problems(warm, 5, "warm-up"))

    def op(self, i):
        pt = self.hlq.partition
        start = round(spread_start(self.offset, i, 1000.0, 2000.0), 6)
        params = pt.PartitionParams(T_start=start, count=self.COUNT)
        # the replay's starting state; check() adds records and digest
        self.done.append([start, copy.deepcopy(self.ck), None, None])

        def fn():
            return pt.generate(params, cfg=self.cfg, ckpt=self.ck, jobs=1)
        return 1, fn

    def replay(self, k):
        pt = self.hlq.partition
        start, before, _, _ = self.done[k]
        params = pt.PartitionParams(T_start=start, count=self.COUNT)

        def fn():
            return pt.generate(params, cfg=self.cfg, ckpt=before, jobs=2), before
        return 2, fn

    def _mass_problems(self, records, count, where):
        if len(records) != count + 1:
            return [f"{where}: {len(records)} records, expected {count + 1}"]
        bad = [r.nu for r in records[:-1] if not abs(r.mass - 1.0) <= 1e-8]
        return [f"{where}: interval masses off omega at nu {bad[:5]}"] if bad else []

    def check(self, i, records):
        probs = self._mass_problems(records, self.COUNT, f"op {i}")
        probs += oracle_problems(self.ck.lookup(1000.0), self.cfg.rel_tol, f"op {i}")
        self.done[i][2:] = _fingerprint(records), rows_digest(self.ck)
        return probs

    def check_replay(self, k, out):
        records, ck = out
        start, _, fp, digest = self.done[k]
        probs = self._mass_problems(records, self.COUNT, f"replay {k}")
        if _fingerprint(records) != fp:
            probs.append(f"replay {k}: records from T_start={start} at jobs=2 "
                         "differ from jobs=1")
        if rows_digest(ck) != digest:
            probs.append(f"replay {k}: checkpoint after T_start={start} at "
                         "jobs=2 differs from jobs=1")
        return probs


class QueryMix(Workload):
    """I(t) queries on a loaded checkpoint: ~80% probes, ~20% recorded."""

    name = "query-mix"
    paired = True         # nothing here runs in parallel: the jobs=2 control
    trace_ops = 4002      # two round trips
    T_MAX = 3e4
    REL_TOL = 1e-8
    WRITE_SHARE = 0.2
    ROUND_TRIP = 2001     # odd, so round trips alternate between jobs=1 and 2
    RECHECK_EVERY = 10    # untimed re-query of an earlier t after every 10th op

    def setup(self):
        hm = self.hlq.hlmass
        self.cfg = hm.QuadratureConfig(rel_tol=self.REL_TOL)
        self.path = os.path.join(self.tmp, "query-mix.ckpt")
        built = hm.new_checkpoint(self.cfg)
        hm.hl_mass(self.T_MAX, cfg=self.cfg, ckpt=built)
        hm.save_checkpoint(built, self.path)
        self.ck = hm.load_checkpoint(self.path)
        hm.check_compat(self.ck, self.cfg)
        self.answers = []
        self.recheck_rng = random.Random(f"{self.name}:recheck:{self.seed}")
        probs = oracle_problems(self.ck.lookup(1000.0), self.REL_TOL, "setup")
        if rows_digest(self.ck) != rows_digest(built):
            probs.append("setup: reloaded checkpoint differs from the saved one")
        warm = copy.deepcopy(self.ck)
        hm.hl_mass_probe(1234.5, cfg=self.cfg, ckpt=warm)
        hm.hl_mass(2345.5, cfg=self.cfg, ckpt=warm)
        return probs

    def op(self, i):
        hm = self.hlq.hlmass
        t = self.rng.uniform(1e3, self.T_MAX - 1.0)
        write = self.rng.random() < self.WRITE_SHARE
        jobs = 1 + i % 2
        round_trip = (i + 1) % self.ROUND_TRIP == 0
        query = hm.hl_mass if write else hm.hl_mass_probe

        def fn():
            ck = self.ck
            v = query(t, cfg=self.cfg, ckpt=ck, jobs=jobs)
            if round_trip:
                hm.save_checkpoint(ck, self.path)
                self.ck = hm.load_checkpoint(self.path)
                return t, jobs, v, ck
            return t, jobs, v, None
        return jobs, fn

    def check(self, i, out):
        t, jobs, v, saved = out
        probs = []
        m = math.floor(t)
        lo, hi = self.ck.lookup(float(m)), self.ck.lookup(float(m + 1))
        if lo is None or hi is None or not (lo <= v <= hi):
            probs.append(f"op {i}: I({t!r}) = {v!r} outside its cell [{lo}, {hi}]")
        self.answers.append((t, jobs, v))
        if (i + 1) % self.RECHECK_EVERY == 0:
            # A probe inside the integer cover leaves the checkpoint as it is,
            # so an earlier t can be asked again here, at the other jobs.
            t0, j0, v0 = self.recheck_rng.choice(self.answers)
            again = self.hlq.hlmass.hl_mass_probe(t0, cfg=self.cfg, ckpt=self.ck,
                                                  jobs=3 - j0)
            if _exact(again) != _exact(v0):
                probs.append(f"op {i}: I({t0!r}) asked again = {again!r}, "
                             f"earlier {v0!r}")
        if saved is not None:
            if rows_digest(saved) != rows_digest(self.ck):
                probs.append(f"op {i}: save and reload changed the checkpoint")
            probs += oracle_problems(self.ck.lookup(1000.0), self.REL_TOL,
                                     f"op {i} reload")
        return probs


class Report(Workload):
    """hlq report --count 200 --start S in-process, on a fresh checkpoint."""

    name = "report"
    COUNT = 200
    REL_TOL = 1e-9   # the CLI default
    # Near the CLI's default start: the partition is ~40% of the op and its
    # cost grows with height, so a narrow range keeps the few ops of a run
    # from moving its median with the seed.
    START = (1000.0, 1200.0)

    def setup(self):
        os.environ.pop("HLQ_CHECKPOINT", None)
        self.done = []   # per op: start, bundle
        out = os.path.join(self.tmp, "warm-up.txt")
        rc = self.hlq.cli.main(["mass", "--t", "1000", "--out", out])
        if rc != 0:
            return [f"warm-up: hlq mass exited {rc}"]
        with open(out, encoding="utf-8") as f:
            vals = dict(ln.split(" = ") for ln in f.read().splitlines())
        return oracle_problems(float(vals["mass"]), self.REL_TOL, "warm-up")

    def _report(self, start, jobs, out_dir):
        argv = ["report", "--count", str(self.COUNT), "--start", start,
                "--out", out_dir, "--jobs", str(jobs)]

        def fn():
            return self.hlq.cli.main(argv), out_dir
        return jobs, fn

    def op(self, i):
        start = f"{spread_start(self.offset, i, *self.START):.3f}"
        self.done.append((start, None))
        return self._report(start, 1, os.path.join(self.tmp, f"report-{i}"))

    def replay(self, k):
        return self._report(self.done[k][0], 2,
                            os.path.join(self.tmp, f"replay-{k}"))

    def check(self, i, out):
        probs, bundle = self._bundle_problems(f"op {i}", *out)
        self.done[i] = (self.done[i][0], bundle)
        return probs

    def check_replay(self, k, out):
        probs, bundle = self._bundle_problems(f"replay {k}", *out)
        start, first = self.done[k]
        if bundle != first:
            a, b = bundle or {}, first or {}
            diff = sorted(f for f in set(a) | set(b) if a.get(f) != b.get(f))
            probs.append(f"replay {k}: bundle for --start {start} at jobs=2 "
                         f"differs from jobs=1 in {diff}")
        return probs

    def _bundle_problems(self, where, rc, out_dir):
        """(problems, {file name: bytes}) of one report bundle, then removes it."""
        if rc != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            return [f"{where}: hlq report exited {rc}"], None
        bundle = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as f:
                bundle[name] = f.read()
        shutil.rmtree(out_dir)
        probs = []
        rows = bundle.get("partition.csv", b"").decode().splitlines()
        masses = [float(r.split(",")[3]) for r in rows[1:]]
        if len(masses) != self.COUNT or any(not abs(m - 1.0) <= 1e-8 for m in masses):
            probs.append(f"{where}: partition.csv masses not within 1e-8 of omega")
        reports = json.loads(bundle.get("verify.json", b"{}")).get("reports", [])
        bala = {r["inputs"]["T"]: r for r in reports if r["kind"] == "balasubramanian"}
        if sorted(bala) != [1e3, 3e3, 1e4]:
            probs.append(f"{where}: verify.json lacks the three residual reports")
        for t, r in bala.items():
            if not balasubramanian_ok(t, r["observed"]):
                probs.append(f"{where}: |I({t:g}) - main term| above bound")
        probs += oracle_problems(bala.get(1e3, {}).get("observed"), self.REL_TOL,
                                 where)
        return probs, bundle


WORKLOADS = {w.name: w for w in (ColdMass, PartitionWalk, QueryMix, Report)}
