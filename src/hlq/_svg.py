"""Static SVG plots, written directly; byte-deterministic for fixed input.

Only what the report emitter needs: polyline charts (optionally log-log)
and a histogram.  Coordinates are rounded to fixed decimals so output
never depends on platform float printing quirks.
"""

from __future__ import annotations

import math

from ._util import atomic_write_text

W, H = 640, 420
ML, MR, MT, MB = 62, 16, 34, 46  # margins
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    t0 = math.ceil(lo / step) * step
    out = []
    t = t0
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


class _Frame:
    def __init__(self, xlo, xhi, ylo, yhi, log_x=False, log_y=False):
        self.log_x, self.log_y = log_x, log_y
        tx = math.log10 if log_x else (lambda v: v)
        ty = math.log10 if log_y else (lambda v: v)
        self.tx, self.ty = tx, ty
        self.xlo, self.xhi = tx(xlo), tx(xhi)
        self.ylo, self.yhi = ty(ylo), ty(yhi)
        if self.xhi == self.xlo:
            self.xhi += 1.0
        if self.yhi == self.ylo:
            self.yhi += 1.0

    def px(self, x):
        return ML + (self.tx(x) - self.xlo) / (self.xhi - self.xlo) * (W - ML - MR)

    def py(self, y):
        return H - MB - (self.ty(y) - self.ylo) / (self.yhi - self.ylo) * (H - MT - MB)


def _axes(f: _Frame, title: str, xlabel: str, ylabel: str):
    parts = [
        f'<rect x="{ML}" y="{MT}" width="{W - ML - MR}" height="{H - MT - MB}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{W // 2}" y="{H - 8}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {H // 2})">{ylabel}</text>',
    ]
    if f.log_x:
        xt = range(math.ceil(f.xlo), math.floor(f.xhi) + 1)
        xv = [(10.0 ** e, f"1e{e}") for e in xt]
    else:
        xv = [(t, f"{t:g}") for t in _ticks(f.xlo, f.xhi)]
    for val, lab in xv:
        x = f.px(val)
        parts.append(f'<line x1="{_fmt(x)}" y1="{H - MB}" x2="{_fmt(x)}" y2="{H - MB + 4}" stroke="#333"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{H - MB + 16}" text-anchor="middle" font-size="10">{lab}</text>')
    if f.log_y:
        yt = range(math.ceil(f.ylo), math.floor(f.yhi) + 1)
        yv = [(10.0 ** e, f"1e{e}") for e in yt]
    else:
        yv = [(t, f"{t:g}") for t in _ticks(f.ylo, f.yhi)]
    for val, lab in yv:
        y = f.py(val)
        parts.append(f'<line x1="{ML - 4}" y1="{_fmt(y)}" x2="{ML}" y2="{_fmt(y)}" stroke="#333"/>')
        parts.append(f'<text x="{ML - 6}" y="{_fmt(y + 3)}" text-anchor="end" font-size="10">{lab}</text>')
    return parts


def _polyline(f: _Frame, xs, ys, color: str, dash: str = ""):
    pts = " ".join(f"{_fmt(f.px(x))},{_fmt(f.py(y))}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"{extra}/>'


def _legend(labels):
    parts = []
    for i, lab in enumerate(labels):
        y = MT + 14 + 14 * i
        parts.append(f'<line x1="{W - MR - 150}" y1="{y}" x2="{W - MR - 126}" y2="{y}" '
                     f'stroke="{COLORS[i % len(COLORS)]}" stroke-width="2"/>')
        parts.append(f'<text x="{W - MR - 120}" y="{y + 4}" font-size="11">{lab}</text>')
    return parts


def _document(body) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
            f'viewBox="0 0 {W} {H}" font-family="sans-serif">\n'
            f'<rect width="{W}" height="{H}" fill="white"/>\n')
    return head + "\n".join(body) + "\n</svg>\n"


def line_plot(path: str, series, title: str, xlabel: str, ylabel: str,
              log_x: bool = False, log_y: bool = False) -> None:
    """series: list of (label, xs, ys).  Log axes drop nonpositive points."""
    clean = []
    for label, xs, ys in series:
        pair = [(x, y) for x, y in zip(xs, ys)
                if (not log_x or x > 0) and (not log_y or y > 0)]
        if pair:
            clean.append((label, [p[0] for p in pair], [p[1] for p in pair]))
    if not clean:
        raise ValueError("nothing to plot")
    all_x = [x for _, xs, _ in clean for x in xs]
    all_y = [y for _, _, ys in clean for y in ys]
    f = _Frame(min(all_x), max(all_x), min(all_y), max(all_y),
               log_x=log_x, log_y=log_y)
    body = _axes(f, title, xlabel, ylabel)
    for i, (label, xs, ys) in enumerate(clean):
        body.append(_polyline(f, xs, ys, COLORS[i % len(COLORS)],
                              dash="4 3" if i else ""))
    body.extend(_legend([c[0] for c in clean]))
    atomic_write_text(path, _document(body))


def histogram(path: str, values, bins: int, title: str, xlabel: str) -> None:
    if not values:
        raise ValueError("nothing to plot")
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        i = min(int((v - lo) / width), bins - 1)
        counts[i] += 1
    f = _Frame(lo, hi, 0.0, float(max(counts)))
    body = _axes(f, title, xlabel, "count")
    for i, c in enumerate(counts):
        if c == 0:
            continue
        x0 = f.px(lo + i * width)
        x1 = f.px(lo + (i + 1) * width)
        y0 = f.py(float(c))
        body.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                    f'height="{_fmt(H - MB - y0)}" fill="#1f77b4" stroke="white" '
                    'stroke-width="0.5"/>')
    atomic_write_text(path, _document(body))
