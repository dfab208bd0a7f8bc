"""Cumulative second-moment integral I(T) = int_0^T Z(t)^2 dt.

Quadrature layout
-----------------
Every mass here -- whole cells, the partial cell of a query, an interval,
the damped integral -- comes from one kernel, ``_span_masses``, which
integrates Z^2 over each span of a list of edges.  Above ``zfun.T_SWITCH``
a span is split into equal panels no wider than half the local mean zero
spacing 2*pi/ln(t/2pi), and each panel gets a fixed Gauss-Legendre rule.
Since a panel then spans at most half an oscillation of Z^2, the rule is far
inside its spectral-accuracy regime and the limiting error is the certified
envelope of the point evaluations, which is accumulated explicitly and
checked against the requested relative tolerance.  Below ``zfun.T_SWITCH``
the integrand is evaluated through the reference route and integrated with
fixed-step Simpson (step 1e-3).

The nodes of all spans in one call are evaluated as a single Z batch and
each span is reduced in index order by ``np.add.reduceat``, so a span's
value depends only on its own edges, not on the spans batched with it.

Checkpoints
-----------
Cumulative values are anchored at every integer plus every requested T, so
any value is reproducible from its own coordinates alone; the checkpoint
file (JSON header line, then "T<TAB>I" rows at 17 significant digits) is
therefore byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaincc

from . import zfun
from ._util import atomic_write_text, fmt17, pairwise_sum
from .errors import (
    CheckpointConflict,
    CheckpointIOError,
    DomainError,
    FormatError,
    PrecisionUnreachable,
)

CHECKPOINT_VERSION = "2"
SIMPSON_STEP = 1e-3

# crude empirical envelope Z(t)^2 <= C * sqrt(t), calibrated on [1, 1e4]
# (observed max 3.62); used only for damped-integral tail bounds and
# reported alongside any result that relies on it
Z2_ENVELOPE_C = 8.0


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    nodes_per_oscillation: int = 16
    max_panel: float = 1.0
    damped_truncation_eps: float = 1e-14

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3):
            raise DomainError("rel_tol must be in (0, 1e-3]")
        if not (4 <= int(self.nodes_per_oscillation) <= 64):
            raise DomainError("nodes_per_oscillation must be in 4..64")
        if not (0.01 <= self.max_panel <= 10.0):
            raise DomainError("max_panel must be in [0.01, 10]")
        if not (0.0 < self.damped_truncation_eps <= 1e-6):
            raise DomainError("damped_truncation_eps must be in (0, 1e-6]")

    def eval_config(self, z_config: zfun.ZConfig = zfun.DEFAULT_Z_CONFIG) -> dict:
        """Dict identifying every knob that affects stored values."""
        d = z_config.as_dict()
        d["nodes_per_panel"] = int(self.nodes_per_oscillation)
        d["max_panel"] = float(self.max_panel)
        return d


DEFAULT_CONFIG = QuadratureConfig()


class MassCheckpoint:
    """In-memory cumulative grid; see module docstring for the file format."""

    def __init__(self, tol: float, z_config: dict):
        self.version = CHECKPOINT_VERSION
        self.tol = float(tol)
        self.z_config = dict(z_config)
        self._ts: list[float] = [0.0]
        self._is: list[float] = [0.0]
        self._int_cover = 0  # all integers 0.._int_cover are present
        self._env = 0.0      # in-memory envelope accumulated this session

    # -- queries ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ts)

    def lookup(self, t: float):
        t = float(t)
        pos = bisect.bisect_left(self._ts, t)
        if pos < len(self._ts) and self._ts[pos] == t:
            return self._is[pos]
        return None

    def floor_anchor(self, t: float):
        """Greatest integer row <= t (always exists up to _int_cover)."""
        m = float(min(int(math.floor(t)), self._int_cover))
        return m, self.lookup(m)

    def rows(self):
        return zip(self._ts, self._is)

    @property
    def max_t(self) -> float:
        return self._ts[-1]

    @property
    def int_cover(self) -> int:
        return self._int_cover

    # -- mutation -----------------------------------------------------
    def insert(self, t: float, i_val: float) -> None:
        t = float(t)
        pos = bisect.bisect_left(self._ts, t)
        if pos < len(self._ts) and self._ts[pos] == t:
            return
        prev_i = self._is[pos - 1] if pos else 0.0
        next_i = self._is[pos] if pos < len(self._is) else None
        if i_val < prev_i or (next_i is not None and i_val > next_i):
            raise FormatError("insert would break monotonicity of the grid")
        self._ts.insert(pos, t)
        self._is.insert(pos, i_val)
        if t == float(self._int_cover + 1):
            self._extend_cover()

    def _extend_cover(self) -> None:
        m = self._int_cover
        while self.lookup(m + 1) is not None:
            m += 1
        self._int_cover = m


def new_checkpoint(cfg: QuadratureConfig = DEFAULT_CONFIG,
                   z_config: zfun.ZConfig = zfun.DEFAULT_Z_CONFIG) -> MassCheckpoint:
    return MassCheckpoint(cfg.rel_tol, cfg.eval_config(z_config))


def check_compat(ckpt: MassCheckpoint, cfg: QuadratureConfig,
                 z_config: zfun.ZConfig = zfun.DEFAULT_Z_CONFIG) -> None:
    if ckpt.version != CHECKPOINT_VERSION:
        raise CheckpointConflict(f"checkpoint version {ckpt.version!r} unsupported")
    want = cfg.eval_config(z_config)
    if ckpt.z_config != want:
        raise CheckpointConflict(
            f"checkpoint evaluation config {ckpt.z_config} != requested {want}"
        )
    if ckpt.tol > cfg.rel_tol:
        raise CheckpointConflict(
            f"checkpoint tol {ckpt.tol:g} is coarser than requested {cfg.rel_tol:g}"
        )


def save_checkpoint(ckpt: MassCheckpoint, path: str) -> None:
    header = json.dumps(
        {"version": ckpt.version, "tol": ckpt.tol, "z_config": ckpt.z_config},
        sort_keys=True,
    )
    lines = [header]
    lines.extend(f"{fmt17(t)}\t{fmt17(v)}" for t, v in ckpt.rows())
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_checkpoint(path: str) -> MassCheckpoint:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise CheckpointIOError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty checkpoint file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"checkpoint header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or {"version", "tol", "z_config"} - set(header):
        raise FormatError("checkpoint header missing version/tol/z_config")
    if header["version"] != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {header['version']!r}")
    try:
        tol = float(header["tol"])
        zc = dict(header["z_config"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed checkpoint header: {exc}") from exc
    ck = MassCheckpoint(tol, zc)
    ts, is_ = [], []
    for ln_no, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        parts = ln.split("\t")
        if len(parts) != 2:
            raise FormatError(f"line {ln_no}: expected 'T<TAB>I'")
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise FormatError(f"line {ln_no}: {exc}") from exc
        if not (math.isfinite(t) and math.isfinite(v)):
            raise FormatError(f"line {ln_no}: non-finite value")
        ts.append(t)
        is_.append(v)
    if ts:
        if ts[0] != 0.0 or is_[0] != 0.0:
            raise FormatError("first row must be 0<TAB>0")
        dt = np.diff(ts)
        if np.any(dt <= 0):
            raise FormatError("T column must be strictly increasing")
        if np.any(np.diff(is_) < 0):
            raise FormatError("I column must be nondecreasing")
        ck._ts = ts
        ck._is = is_
        ck._extend_cover()
    return ck


# ---------------------------------------------------------------------------
# panel machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _gl_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_width(b: float, cfg: QuadratureConfig) -> float:
    # half the local mean zero spacing, judged at the right endpoint
    dens = math.log(max(b, TWO_PI_E) / zfun.TWO_PI)
    return min(cfg.max_panel, math.pi / max(1.0, dens))


TWO_PI_E = zfun.TWO_PI * math.e


def _interval_nodes(a: float, b: float, cfg: QuadratureConfig):
    """Equal-split panels of [a,b] with the GL rule; returns (nodes, weights)."""
    n_panels = max(1, int(math.ceil((b - a) / _panel_width(b, cfg))))
    edges = np.linspace(a, b, n_panels + 1)
    x, w = _gl_rule(int(cfg.nodes_per_oscillation))
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# low region: fixed-step Simpson on the reference integrand
# ---------------------------------------------------------------------------

def _simpson_reference(a: float, b: float, damp: float = 0.0):
    """Simpson on [a,b] subset of [0, T_SWITCH], fixed step <= 1e-3."""
    if b <= a:
        return 0.0, 0.0
    n = int(math.ceil((b - a) / SIMPSON_STEP))
    n += n % 2
    n = max(n, 2)
    xs = np.linspace(a, b, n + 1)
    vals, rem, ro = zfun._zeta_em_block(xs, 50, 14)
    f = np.abs(vals) ** 2
    if damp:
        f = f * np.exp(-2.0 * damp * xs)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (b - a) / n
    val = float((w * f).sum() * h / 3.0)
    point_env = float(((2.0 * np.abs(vals) + rem + ro) * (rem + ro) * w).sum() * h / 3.0)
    trunc = (b - a) * h ** 4 / 180.0 * 50.0  # coarse |f''''| <= 50 on [0,10]
    return val, point_env + trunc


# ---------------------------------------------------------------------------
# the span kernel
# ---------------------------------------------------------------------------

def _span_masses(edges, cfg: QuadratureConfig, z_config: zfun.ZConfig,
                 damp: float = 0.0):
    """Masses of Z^2 (times exp(-2*damp*t) if ``damp``) over each span
    [edges[i], edges[i+1]]; returns (values, envelopes) as arrays.

    The part of a span below ``zfun.T_SWITCH`` goes through
    ``_simpson_reference``; the rest gets Gauss-Legendre panels, and the
    nodes of all spans go to Z as one batch.  Each span's terms are reduced
    in index order by ``np.add.reduceat``, so a span's value does not depend
    on which other spans share its batch.  The envelope covers the certified
    point errors |d(f^2)| <= (2|f|+e)*e plus summation roundoff.
    """
    n = len(edges) - 1
    vals = np.zeros(n)
    envs = np.zeros(n)
    nodes, weights, starts, gl_spans = [], [], [], []
    count = 0
    for k in range(n):
        a, b = float(edges[k]), float(edges[k + 1])
        if a < zfun.T_SWITCH:
            vals[k], envs[k] = _simpson_reference(a, min(b, zfun.T_SWITCH), damp)
        lo = max(a, zfun.T_SWITCH)
        if lo < b:
            x, w = _interval_nodes(lo, b, cfg)
            nodes.append(x)
            weights.append(w)
            starts.append(count)
            gl_spans.append(k)
            count += len(x)
    if not gl_spans:
        return vals, envs
    x = np.concatenate(nodes)
    w = np.concatenate(weights)
    f, e = zfun.z_many(x, z_config)
    contrib = w * (f * f)
    env_terms = w * (2.0 * np.abs(f) + e) * e
    if damp:
        att = np.exp(-2.0 * damp * x)
        contrib = contrib * att
        env_terms = env_terms * att
    vals[gl_spans] += np.add.reduceat(contrib, starts)
    envs[gl_spans] += (np.add.reduceat(env_terms, starts)
                       + 8.0 * zfun.EPS * np.add.reduceat(np.abs(contrib), starts))
    return vals, envs


_CELL_BLOCK = 256


def _cells_masses(m0: int, m1: int, cfg: QuadratureConfig,
                  z_config: zfun.ZConfig, jobs: int = 1, damp: float = 0.0):
    """Per-cell masses for integer cells m0..m1-1, worker-count independent."""
    blocks = [range(b, min(b + _CELL_BLOCK, m1) + 1)
              for b in range(m0, m1, _CELL_BLOCK)]

    def block_masses(edges):
        return _span_masses(edges, cfg, z_config, damp)
    if jobs > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(block_masses, blocks))
    else:
        results = [block_masses(edges) for edges in blocks]
    vals = np.concatenate([r[0] for r in results]) if results else np.zeros(0)
    envs = np.concatenate([r[1] for r in results]) if results else np.zeros(0)
    return vals, envs


# ---------------------------------------------------------------------------
# public integration API
# ---------------------------------------------------------------------------

def _ensure_cover(ckpt: MassCheckpoint, target_m: int, cfg: QuadratureConfig,
                  z_config: zfun.ZConfig, jobs: int) -> None:
    """Extend integer coverage up to target_m, enforcing the error budget.

    Every extension's certified envelope must fit half the relative budget
    at its endpoint; the other half is reserved for partial cells.  After
    extending under a coarser tolerance the checkpoint records it, so the
    header never promises more than the loosest pass that built the grid.
    """
    if target_m <= ckpt.int_cover:
        return
    m0 = ckpt.int_cover
    vals, envs = _cells_masses(m0, target_m, cfg, z_config, jobs=jobs)
    env_new = float(envs.sum())
    end_val = ckpt.lookup(float(m0)) + float(vals.sum())
    budget = 0.5 * cfg.rel_tol * max(1.0, end_val)
    if env_new > budget:
        raise PrecisionUnreachable(
            f"certified envelope {env_new:.3g} exceeds budget {budget:.3g} "
            f"extending to T={target_m}"
        )
    acc = ckpt.lookup(float(m0))
    for k, v in enumerate(vals):
        acc += float(v)
        ckpt.insert(float(m0 + k + 1), acc)
    ckpt._env += env_new
    ckpt.tol = max(ckpt.tol, cfg.rel_tol)


def _mass_at(t: float, cfg: QuadratureConfig, ckpt: MassCheckpoint,
             jobs: int, z_config: zfun.ZConfig):
    """(I(t), partial-cell envelope) from the integer grid plus a stub."""
    _ensure_cover(ckpt, int(math.floor(t)), cfg, z_config, jobs)
    anchor_t, anchor_i = ckpt.floor_anchor(t)
    part, part_env = _span_masses((anchor_t, t), cfg, z_config)
    return anchor_i + float(part[0]), float(part_env[0])


def _query(t: float, cfg: QuadratureConfig, ckpt: MassCheckpoint | None,
           jobs: int, z_config: zfun.ZConfig, record: bool) -> float:
    """I(t) from the checkpoint grid; with ``record``, check the partial
    cell's envelope against the budget and store t as a row."""
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError("I(T) requires finite T >= 0")
    if ckpt is None:
        ckpt = new_checkpoint(cfg, z_config)
    check_compat(ckpt, cfg, z_config)
    hit = ckpt.lookup(t)
    if hit is not None:
        return hit
    total, part_env = _mass_at(t, cfg, ckpt, jobs, z_config)
    if not record:
        return total
    ckpt._env += part_env
    budget = 0.5 * cfg.rel_tol * max(1.0, total)
    if part_env > budget:
        raise PrecisionUnreachable(
            f"certified envelope {part_env:.3g} exceeds rel_tol budget "
            f"{budget:.3g} at T={t:g}"
        )
    ckpt.insert(t, total)
    return total


def hl_mass(t: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
            ckpt: MassCheckpoint | None = None, jobs: int = 1,
            z_config: zfun.ZConfig = zfun.DEFAULT_Z_CONFIG) -> float:
    """Cumulative mass I(t); extends (and reuses) the checkpoint grid."""
    return _query(t, cfg, ckpt, jobs, z_config, record=True)


def hl_mass_probe(t: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                  ckpt: MassCheckpoint | None = None, jobs: int = 1,
                  z_config: zfun.ZConfig = zfun.DEFAULT_Z_CONFIG) -> float:
    """I(t) without recording t itself in the grid.

    Root-finding probes go through here so a checkpoint only ever contains
    the integer grid plus deliberately requested heights, keeping its bytes
    independent of the search path that produced them.
    """
    return _query(t, cfg, ckpt, jobs, z_config, record=False)


def hl_mass_between(t1: float, t2: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                    ckpt: MassCheckpoint | None = None,
                    z_config: zfun.ZConfig = zfun.DEFAULT_Z_CONFIG,
                    _nodes_bump: int = 0) -> float:
    """Mass of [t1, t2] by direct panel quadrature (no large-value subtraction).

    ``_nodes_bump`` raises the per-panel rule order; the partition recheck
    pass uses it to re-integrate with a different discretization.
    """
    t1, t2 = float(t1), float(t2)
    if not (0.0 <= t1 <= t2 and math.isfinite(t2)):
        raise DomainError("hl_mass_between requires 0 <= T1 <= T2")
    if t1 == t2:
        return 0.0
    if ckpt is not None:
        check_compat(ckpt, cfg, z_config)
    if _nodes_bump:
        cfg = QuadratureConfig(
            rel_tol=cfg.rel_tol,
            nodes_per_oscillation=min(64, cfg.nodes_per_oscillation + _nodes_bump),
            max_panel=cfg.max_panel * 0.7,
            damped_truncation_eps=cfg.damped_truncation_eps,
        )
    edges = [t1]
    if t1 < zfun.T_SWITCH < t2:
        edges.append(zfun.T_SWITCH)
    # spans holding at least two whole cells are split at the cell edges
    first, last = math.ceil(max(t1, zfun.T_SWITCH)), math.floor(t2)
    if last - first >= 2:
        edges.extend(float(m) for m in range(first, last + 1)
                     if edges[-1] < m < t2)
    edges.append(t2)
    vals, _ = _span_masses(edges, cfg, z_config)
    return pairwise_sum(vals)


def damped_mass(delta: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                z_config: zfun.ZConfig = zfun.DEFAULT_Z_CONFIG,
                jobs: int = 1) -> float:
    """int_0^inf Z(t)^2 exp(-2 delta t) dt, truncated where the integrand
    weight reaches ``cfg.damped_truncation_eps``; the dropped tail is covered
    by the analytic bound from ``Z2_ENVELOPE_C`` and must fit the tolerance.
    """
    delta = float(delta)
    if not (0.0 < delta <= 1.0):
        raise DomainError("damped_mass requires 0 < delta <= 1")
    t_max = math.log(1.0 / cfg.damped_truncation_eps) / (2.0 * delta)
    m1 = int(math.floor(t_max))
    vals, envs = _cells_masses(0, m1, cfg, z_config, jobs=jobs, damp=delta)
    pieces = [float(v) for v in vals]
    env = float(envs.sum())
    if t_max > m1:
        v, e = _span_masses((float(m1), t_max), cfg, z_config, damp=delta)
        pieces.append(float(v[0]))
        env += float(e[0])
    # analytic tail: Z^2 <= C sqrt(t)  =>  C * Gamma(3/2, 2 d tmax) / (2d)^(3/2)
    x = 2.0 * delta * t_max
    tail = Z2_ENVELOPE_C * float(gammaincc(1.5, x)) * math.gamma(1.5) / (2.0 * delta) ** 1.5
    env += tail
    total = pairwise_sum(pieces)
    if env > 10.0 * cfg.rel_tol * max(1.0, abs(total)):
        raise PrecisionUnreachable(
            f"damped integral envelope {env:.3g} exceeds tolerance at delta={delta:g}"
        )
    return total


def checkpoint_env(ckpt: MassCheckpoint) -> float:
    """Envelope accumulated by extensions in this session (diagnostic)."""
    return ckpt._env
