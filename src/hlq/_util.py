"""Small numeric and I/O helpers used across the package."""

from __future__ import annotations

import math
import os
import stat
import uuid

import numpy as np

from .errors import CheckpointIOError, DomainError, NoConvergence


def pairwise_sum(values) -> float:
    """Sum in a fixed balanced-tree order, independent of how the values
    were produced. Used for final reductions so reruns are bit-identical."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return float(vals[0])


def safeguarded_newton(f, df, lo, hi, x0, tol: float, maxiter: int,
                       what: str) -> np.ndarray:
    """x_i in [lo_i, hi_i] with |f_i(x_i)| <= tol, for a batch of f_i each
    increasing across its bracket; ``f(x, i)``, ``df(x, i)`` evaluate f_i
    at the iterates ``x`` of the problems ``i``, one value per iterate.

    Each iterate replaces the bracket end on its side of the root; a Newton
    step that leaves the bracket, or meets df <= 0, becomes the midpoint.
    Converged problems leave the batch, so a root has the bits of its own
    solve.  Raises NoConvergence naming ``what`` after ``maxiter`` iterates.
    """
    lo, hi, x = (np.array(a, dtype=np.float64, ndmin=1) for a in (lo, hi, x0))
    root = x.copy()
    act = np.arange(x.size)
    for _ in range(maxiter):
        fx = np.asarray(f(x, act), dtype=np.float64)
        done = np.abs(fx) <= tol
        if done.any():
            root[act[done]] = x[done]
            act, x, fx, lo, hi = (a[~done] for a in (act, x, fx, lo, hi))
            if not act.size:
                return root
        above = fx > 0.0
        lo, hi = np.where(above, lo, x), np.where(above, x, hi)
        d = np.asarray(df(x, act), dtype=np.float64)
        # a step with df <= 0 is 0, which leaves x on a bracket end
        x_new = x - fx / np.where(d > 0.0, d, np.inf)
        x = np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
    raise NoConvergence(f"{what}: {maxiter} iterations without meeting tolerance")


def brentq(f, xa: float, xb: float, xtol: float, rtol: float,
           maxiter: int) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A line-by-line port of scipy.optimize.brentq's C solver: the same
    iterates, so the same root bits after the same number of calls of f.
    Raises DomainError when f(xa) and f(xb) have one sign, NoConvergence
    after ``maxiter`` iterations.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre))
    fcur = float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError("brentq: f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise NoConvergence(f"brentq: {maxiter} iterations without convergence")


def check_positive_int(name: str, n) -> None:
    """A worker or record count must be an int >= 1 (not a bool, not 2.0)."""
    if type(n) is not int or n < 1:
        raise DomainError(f"{name} must be an int >= 1, got {n!r}")


def fmt17(x: float) -> str:
    """17 significant digits; round-trips any float64 exactly."""
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename.

    The file keeps the mode of the file it replaces; a new file gets the
    mode a plain ``open`` would give it (0666 less the umask).
    """
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp_{uuid.uuid4().hex}~")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
                if os.path.exists(path):
                    os.fchmod(f.fileno(), stat.S_IMODE(os.stat(path).st_mode))
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CheckpointIOError(f"cannot write {path}: {exc}") from exc


def as_float_array(ts) -> np.ndarray:
    arr = np.asarray(ts, dtype=np.float64)
    return np.atleast_1d(arr)
