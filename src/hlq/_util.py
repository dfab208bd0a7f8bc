"""Small numeric and I/O helpers used across the package."""

from __future__ import annotations

import os
import stat
import uuid

import numpy as np

from .errors import CheckpointIOError, NoConvergence


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


def safeguarded_newton(f, df, lo: float, hi: float, x0: float, tol: float,
                       maxiter: int, what: str) -> float:
    """x in [lo, hi] with |f(x)| <= tol, for f increasing across the bracket.

    Each iterate replaces the bracket end on its side of the root; a Newton
    step that leaves the bracket, or meets df <= 0, becomes the midpoint.
    Raises NoConvergence naming ``what`` after ``maxiter`` iterates.
    """
    x = x0
    for _ in range(maxiter):
        fx = f(x)
        if abs(fx) <= tol:
            return x
        if fx > 0.0:
            hi = x
        else:
            lo = x
        d = df(x)
        x_new = x - fx / d if d > 0.0 else x
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    raise NoConvergence(f"{what}: {maxiter} iterations without meeting tolerance")


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
