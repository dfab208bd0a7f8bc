"""Small numeric and I/O helpers used across the package."""

from __future__ import annotations

import os
import stat
import uuid

import numpy as np

from .errors import CheckpointIOError


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
