"""Cumulative second-moment integral I(T) = int_0^T Z(t)^2 dt.

Quadrature layout
-----------------
Every mass here -- whole cells, the partial cell of a query, an interval,
the damped integral -- comes from one kernel, ``_span_masses``, which
integrates Z^2 over each span of a list of edges with one fixed rule from
t = 0 up: a span is split into equal panels no wider than 1.0 and half the
local mean zero spacing 2*pi/ln(t/2pi), and each panel gets 16
Gauss-Legendre nodes.  A panel then spans at most half an oscillation of
Z^2, and Z^2 is analytic in a Bernstein ellipse around it whose size is
limited near t = 0 by the pole of zeta at s = 1 (t = -i/2), so the rule
converges geometrically (Trefethen, ATAP Thm 19.3).  That truncation error
is not bounded in the code: it is empirical (16 nodes agree with the
I(500) reference to 2e-12, 8e-16 relative; 8 nodes miss [0, 1] by 3e-8).
The certified envelope of the point evaluations is accumulated explicitly
and checked against the requested relative tolerance.

A span [a, b] with P panels takes the nodes a + (b - a) c_k of one cached
unit rule per (nodes, P).  A run of whole cells [m, m+1] with one P goes to
Z as a lattice, nodes m + c_k, whose Dirichlet sum, Euler-Maclaurin below
``rs_min_t`` and Riemann-Siegel above, factors into per-cell and
per-offset phase tables with one term count per cell; the nodes of any
other span go to Z as one-node cells, each with its own term count
(``zfun.z_many``).
Each span is reduced in index order by ``np.add.reduceat``, so a span's
value depends only on its own edges, not on the spans batched with it.

Checkpoints
-----------
The checkpoint stores the integer grid only: row m holds I(m), the sum of
the whole cells below m.  A query at any other T adds the partial cell
[floor(T), T] to I(floor(T)), so every value is reproducible from its own
coordinates alone, and the checkpoint file (JSON header line, then
"T<TAB>I" rows T = 0, 1, ..., n at 17 significant digits) is byte-identical
across reruns, worker counts and the heights that were asked for.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import zfun
from ._util import atomic_write_text, check_positive_int, fmt17, pairwise_sum
from .errors import (
    CheckpointConflict,
    CheckpointIOError,
    DomainError,
    FormatError,
    PrecisionUnreachable,
)

CHECKPOINT_VERSION = "6"
# the Z policy (zfun.z_many's default) of every checkpoint; a file naming another is refused
CHECKPOINT_Z_CONFIG = {"correction_depth": 4, "rs_min_t": zfun.RS_MIN_T}

# (Gauss-Legendre nodes per panel, widest panel): the fixed rule
_RULE = (16, 1.0)

# damped_mass integrates up to where exp(-2 delta t) reaches this weight
_DAMPED_TRUNCATION_EPS = 1e-14

# crude empirical envelope Z(t)^2 <= C * sqrt(t), calibrated on [1, 1e4]
# (observed max 3.62); used only for damped-integral tail bounds and
# reported alongside any result that relies on it
Z2_ENVELOPE_C = 8.0


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3):
            raise DomainError("rel_tol must be in (0, 1e-3]")


DEFAULT_CONFIG = QuadratureConfig()


class MassCheckpoint:
    """In-memory integer grid, row m holding I(m); see module docstring for
    the file format."""

    def __init__(self, tol: float):
        self.version = CHECKPOINT_VERSION
        self.tol = float(tol)
        self._is: list[float] = [0.0]  # _is[m] = I(m)

    @property
    def z_config(self) -> dict:
        """The Z policy as written in the header."""
        return dict(CHECKPOINT_Z_CONFIG)

    # -- queries ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._is)

    def lookup(self, t: float):
        """I(t) for an integer t on the grid, else None."""
        if 0.0 <= t < len(self._is) and t == int(t):
            return self._is[int(t)]
        return None

    def rows(self):
        return ((float(m), v) for m, v in enumerate(self._is))

    @property
    def int_cover(self) -> int:
        return len(self._is) - 1

    # -- mutation -----------------------------------------------------
    def insert(self, values) -> None:
        """Append I(int_cover + 1), I(int_cover + 2), ... = ``values``; a
        value that is not finite or falls below the row before it refuses
        the whole batch."""
        prev = self._is[-1]
        for m, v in enumerate(values, start=len(self._is)):
            if not (math.isfinite(v) and v >= prev):
                raise FormatError(f"row T={m} would hold I={v!r}, "
                                  f"not finite or below I({m - 1})={prev!r}")
            prev = v
        self._is.extend(values)


def new_checkpoint(cfg: QuadratureConfig = DEFAULT_CONFIG) -> MassCheckpoint:
    return MassCheckpoint(cfg.rel_tol)


def check_compat(ckpt: MassCheckpoint, cfg: QuadratureConfig) -> None:
    """Only the tolerance can conflict; ``load_checkpoint`` checks the rest."""
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
    zc = json.dumps(header["z_config"], sort_keys=True)
    if zc != json.dumps(CHECKPOINT_Z_CONFIG, sort_keys=True):
        raise FormatError(f"checkpoint z_config {zc} is not the fixed Z policy")
    tol = header["tol"]
    if not isinstance(tol, float):  # a JSON string or bool is not a tolerance
        raise FormatError(f"checkpoint tol {tol!r} is not a number")
    try:
        ck = MassCheckpoint(QuadratureConfig(tol).rel_tol)
    except DomainError as exc:
        raise FormatError(f"malformed checkpoint header: {exc}") from exc
    is_ = []
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
        if t != len(is_):
            raise FormatError(f"line {ln_no}: row T={parts[0]} where "
                              f"T={len(is_)} is due")
        is_.append(v)
    if is_:
        if is_[0] != 0.0:
            raise FormatError("first row must be 0<TAB>0")
        ck.insert(is_[1:])
    return ck


# ---------------------------------------------------------------------------
# panel machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _unit_rule(n_nodes: int, n_panels: int):
    """Offsets c_k in (0, 1) and weights w_k of ``n_panels`` equal panels
    of [0, 1] with ``n_nodes`` Gauss-Legendre nodes each: a span [a, b]
    takes the nodes a + (b - a) c_k and the weights (b - a) w_k."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    offsets = ((np.arange(n_panels)[:, None] + 0.5 * (x + 1.0)) / n_panels).ravel()
    weights = np.tile(0.5 * w / n_panels, n_panels)
    offsets.setflags(write=False)
    weights.setflags(write=False)
    return offsets, weights


TWO_PI_E = zfun.TWO_PI * math.e


def _panel_counts(lo, hi, rule) -> np.ndarray:
    """Equal panels of each span [lo, hi], each no wider than ``rule``'s
    widest panel and half the local mean zero spacing 2pi/ln(t/2pi), judged
    at the right endpoint."""
    dens = np.log(np.maximum(hi, TWO_PI_E) / zfun.TWO_PI)
    width = np.minimum(rule[1], math.pi / dens)
    return np.maximum(1, np.ceil((hi - lo) / width)).astype(np.int64)


# ---------------------------------------------------------------------------
# the span kernel
# ---------------------------------------------------------------------------

def _span_masses(edges, damp=0.0, rule=_RULE):
    """Masses of Z^2 times exp(-2*damp*t) over each span [edges[i],
    edges[i+1]]; returns (values, envelopes) as arrays, with a leading axis
    over ``damp`` when it is a sequence.

    Every nonempty span gets the unit rule of its panel count, and each run
    of spans with one panel count gets its nodes by one broadcast.  A run of
    whole cells [m, m+1] goes to Z as a lattice, with the nodes m + c_k;
    the nodes of other spans go as one-node cells.  Each span's terms are
    reduced in index order by ``np.add.reduceat``, so a span's value does
    not depend on which other spans share its call.  The envelope covers
    the certified point errors |d(f^2)| <= (2|f|+e)*e plus summation
    roundoff.  Every damp weights the same Z values, independently of the
    other damps.
    """
    edges = np.asarray(edges, dtype=np.float64)
    damps = damp if np.ndim(damp) else (damp,)
    vals = np.zeros((len(damps), len(edges) - 1))
    envs = np.zeros_like(vals)
    out = (vals, envs) if np.ndim(damp) else (vals[0], envs[0])
    spans = np.flatnonzero(edges[:-1] < edges[1:])
    if not len(spans):
        return out
    lo, hi = edges[spans], edges[spans + 1]
    width = hi - lo
    is_cell = (width == 1.0) & (lo == np.floor(lo))
    keys = zip(_panel_counts(lo, hi, rule).tolist(), is_cell.tolist())
    parts, sizes, i = [], [], 0
    for (panels, whole), run in itertools.groupby(keys):
        j = i + len(list(run))
        offsets, weights = _unit_rule(rule[0], panels)
        x = (lo[i:j, None] + width[i:j, None] * offsets).ravel()
        w = (width[i:j, None] * weights).ravel()
        lattice = (lo[i:j], offsets) if whole else None
        parts.append((x, w) + zfun.z_many(x, lattice=lattice))
        sizes += [len(offsets)] * (j - i)
        i = j
    x, w, f, e = (np.concatenate(col) for col in zip(*parts))
    starts = np.cumsum([0] + sizes[:-1])
    undamped = w * (f * f)
    undamped_env = w * (2.0 * np.abs(f) + e) * e
    for k, d in enumerate(damps):
        contrib, env_terms = undamped, undamped_env
        if d:
            att = np.exp(-2.0 * d * x)
            contrib, env_terms = undamped * att, undamped_env * att
        vals[k][spans] = np.add.reduceat(contrib, starts)
        envs[k][spans] = (np.add.reduceat(env_terms, starts)
                          + 8.0 * zfun.EPS * np.add.reduceat(np.abs(contrib), starts))
    return out


_CELL_BLOCK = 256


def _cells_masses(m0: int, m1: int, jobs: int = 1, damp=0.0):
    """Per-cell masses for integer cells m0 < m1, worker-count independent."""
    blocks = [range(b, min(b + _CELL_BLOCK, m1) + 1)
              for b in range(m0, m1, _CELL_BLOCK)]

    def block_masses(edges):
        return _span_masses(edges, damp)
    if jobs > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(block_masses, blocks))
    else:
        results = [block_masses(edges) for edges in blocks]
    return tuple(np.concatenate(col, axis=-1) for col in zip(*results))


def verify_rows(ckpt: MassCheckpoint, jobs: int = 1) -> None:
    """Recompute every cell of the grid and check each row against the row
    below it: row m must be fl(I(m - 1) + S(m - 1, m)), bit for bit, as
    ``_ensure_cover`` wrote it.  Raises ``FormatError`` at the first m
    where it is not, naming T and both values."""
    check_positive_int("jobs", jobs)
    if not ckpt.int_cover:
        return
    vals, _ = _cells_masses(0, ckpt.int_cover, jobs=jobs)
    rows = ckpt._is
    for m, s in enumerate(vals.tolist(), start=1):
        if rows[m - 1] + s != rows[m]:
            raise FormatError(f"row T={m} holds I={rows[m]!r}, but I({m - 1}) "
                              f"plus its cell mass is {rows[m - 1] + s!r}")


# ---------------------------------------------------------------------------
# public integration API
# ---------------------------------------------------------------------------

def check_budget(value: float, env: float, cfg: QuadratureConfig,
                 where: str) -> float:
    """The one budget rule: an envelope must fit 0.5*rel_tol*max(1, |value|);
    returns ``value``."""
    budget = 0.5 * cfg.rel_tol * max(1.0, abs(value))
    if env > budget:
        raise PrecisionUnreachable(
            f"certified envelope {env:.3g} exceeds budget {budget:.3g} {where}"
        )
    return value


def _ensure_cover(ckpt: MassCheckpoint, target_m: int, cfg: QuadratureConfig,
                  jobs: int) -> None:
    """Extend integer coverage up to target_m, enforcing the error budget.

    Every extension's certified envelope must fit half the relative budget
    at its endpoint; the other half is reserved for partial cells.  After
    extending under a coarser tolerance the checkpoint records it, so the
    header never promises more than the loosest pass that built the grid.
    """
    if target_m <= ckpt.int_cover:
        return
    vals, envs = _cells_masses(ckpt.int_cover, target_m, jobs=jobs)
    anchor = ckpt._is[-1]
    check_budget(anchor + float(vals.sum()), float(envs.sum()), cfg,
                 f"extending to T={target_m}")
    running = list(itertools.accumulate(vals.tolist(), initial=anchor))
    ckpt.insert(running[1:])
    ckpt.tol = max(ckpt.tol, cfg.rel_tol)


def hl_mass_envelope(t: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                     ckpt: MassCheckpoint | None = None, jobs: int = 1):
    """(I(t), partial-cell envelope) with the envelope unchecked, for the
    probes of a root solve; a grid row has envelope 0."""
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError("I(T) requires finite T >= 0")
    check_positive_int("jobs", jobs)
    if ckpt is None:
        ckpt = new_checkpoint(cfg)
    check_compat(ckpt, cfg)
    hit = ckpt.lookup(t)
    if hit is not None:
        return hit, 0.0
    m = math.floor(t)
    _ensure_cover(ckpt, m, cfg, jobs)
    part, part_env = _span_masses((float(m), t))
    return ckpt.lookup(m) + float(part[0]), float(part_env[0])


def hl_mass(t: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
            ckpt: MassCheckpoint | None = None, jobs: int = 1) -> float:
    """Cumulative mass I(t); extends (and reuses) the checkpoint grid and
    checks the partial cell's envelope against the budget."""
    return check_budget(*hl_mass_envelope(t, cfg, ckpt, jobs), cfg,
                        f"at T={float(t):g}")


def hl_mass_probe(t: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                  ckpt: MassCheckpoint | None = None, jobs: int = 1) -> float:
    """``hl_mass`` under the name ``partition.next_point`` calls it by, so
    that a trace tells the walk's queries from a caller's.  Like every
    query it stores only whole cells of the integer grid."""
    return check_budget(*hl_mass_envelope(t, cfg, ckpt, jobs), cfg,
                        f"at T={float(t):g}")


def mass_cell(target: float, cfg: QuadratureConfig, ckpt: MassCheckpoint,
              jobs: int = 1) -> int:
    """The integer m with I(m) <= target < I(m + 1), read off the grid; the
    cover grows by 1, 2, 4, ... cells while I(int_cover) <= target."""
    if not (target >= 0.0 and math.isfinite(target)):
        raise DomainError("mass_cell requires a finite target >= 0")
    check_positive_int("jobs", jobs)
    check_compat(ckpt, cfg)
    step = 1
    while ckpt._is[-1] <= target:
        _ensure_cover(ckpt, ckpt.int_cover + step, cfg, jobs)
        step *= 2
    return bisect.bisect_right(ckpt._is, target) - 1


def hl_mass_between(t1: float, t2: float) -> float:
    """Mass of [t1, t2] by direct panel quadrature (no large-value subtraction).

    It certifies nothing: the kernel's envelope is neither returned nor
    checked against a budget, and no checkpoint row is read.
    """
    t1, t2 = float(t1), float(t2)
    if not (0.0 <= t1 <= t2 and math.isfinite(t2)):
        raise DomainError("hl_mass_between requires 0 <= T1 <= T2")
    if t1 == t2:
        return 0.0
    edges = [t1]
    # spans holding at least two whole cells are split at the cell edges
    first, last = math.ceil(t1), math.floor(t2)
    if last - first >= 2:
        edges.extend(float(m) for m in range(first, last + 1) if t1 < m < t2)
    edges.append(t2)
    vals, _ = _span_masses(edges)
    return pairwise_sum(vals)


def damped_masses(deltas, cfg: QuadratureConfig = DEFAULT_CONFIG,
                  jobs: int = 1) -> list[float]:
    """int_0^inf Z(t)^2 exp(-2 delta t) dt for each delta, truncated where
    the integrand weight reaches ``_DAMPED_TRUNCATION_EPS``; the dropped
    tail is covered by the analytic bound from ``Z2_ENVELOPE_C`` and must
    fit the tolerance.  The whole cells below the largest truncation point
    are integrated once and weighted for every delta.
    """
    deltas = [float(d) for d in deltas]
    if not deltas or not all(0.0 < d <= 1.0 for d in deltas):
        raise DomainError("damped_mass requires deltas, each 0 < delta <= 1")
    check_positive_int("jobs", jobs)
    t_maxes = [math.log(1.0 / _DAMPED_TRUNCATION_EPS) / (2.0 * d) for d in deltas]
    m1s = [int(math.floor(t_max)) for t_max in t_maxes]
    vals, envs = _cells_masses(0, max(m1s), jobs=jobs, damp=deltas)
    totals = []
    for k, (delta, t_max, m1) in enumerate(zip(deltas, t_maxes, m1s)):
        pieces = vals[k, :m1].tolist()
        env = float(envs[k, :m1].sum())
        if t_max > m1:
            v, e = _span_masses((float(m1), t_max), damp=delta)
            pieces.append(float(v[0]))
            env += float(e[0])
        # analytic tail: Z^2 <= C sqrt(t)  =>  C * Gamma(3/2, 2 d tmax) / (2d)^(3/2),
        # with Gamma(3/2, x) = sqrt(x) e^-x + (sqrt(pi)/2) erfc(sqrt(x))
        x = 2.0 * delta * t_max
        upper_gamma = (math.sqrt(x) * math.exp(-x)
                       + 0.5 * math.sqrt(math.pi) * math.erfc(math.sqrt(x)))
        env += Z2_ENVELOPE_C * upper_gamma / (2.0 * delta) ** 1.5
        total = pairwise_sum(pieces)
        check_budget(total, env, cfg, f"of the damped integral at delta={delta:g}")
        totals.append(total)
    return totals


def damped_mass(delta: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                jobs: int = 1) -> float:
    """``damped_masses`` for the one ``delta``."""
    return damped_masses([delta], cfg, jobs)[0]
