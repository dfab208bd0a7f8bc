"""Micro-scale walks, Gram points, and the damped second moment.

Three companion views of the same mass density:
  * a Planck-quantum walk divides the line into intervals of mass
    6.6e-27 / pi each — at that scale Z^2 is locally constant and the
    quantum is restored bit-exactly;
  * Gram points solve theta(t) = nu*pi + tau and their spacings track
    2 pi / ln(t / 2 pi);
  * the exponentially damped second moment matches
    (c - ln 4 pi delta) / (2 sin delta) + pi with residuals O(delta).

Run:  python3 demos/04_microscale_and_gram.py
"""

import math
import os

from hlq import gram, hlmass, partition, verify
from hlq._svg import histogram

OUT = os.path.join(os.path.dirname(__file__), "out")


def main():
    os.makedirs(OUT, exist_ok=True)
    cfg = hlmass.QuadratureConfig()

    t0 = 10002.0
    steps = partition.planck_sequence(t0, 50000)
    gap = steps[0][1]
    span = steps[-1][0]
    print(f"Planck walk at T0 = {t0:g}: 50000 steps of {gap:.6e}")
    print(f"  total span {span:.3e} — Z^2 never re-evaluated "
          f"(variation scale ~1e-6)")
    print(f"  each interval mass * pi = 6.6e-27 exactly "
          f"(quantum restored bit-for-bit)")

    records, summary = gram.gram_spacing_report(100, 600, 0.0)
    print(f"\nGram points nu = 100..600:")
    print(f"  mean spacing / (2pi / ln(t/2pi)) = {summary.mean_ratio:.5f}")
    print(f"  mean spacing / (2pi / ln t)      = "
          f"{summary.mean_ratio_asymptotic:.5f}")
    print(f"  spacing range [{summary.min_spacing:.4f}, "
          f"{summary.max_spacing:.4f}]")
    shifted = gram.gram_t(100, math.pi / 2)
    print(f"  shifted point t(100, pi/2) = {shifted:.6f} sits between "
          f"t(100) = {records[0].t:.6f} and t(101) = {records[1].t:.6f}")

    print("\nDamped second moment (delta descending):")
    reports, slope = verify.tka_ladder(cfg=cfg)
    for r in reports:
        print(f"  delta = {r.inputs['delta']:6.3f}: observed "
              f"{r.observed:9.4f}  predicted {r.predicted:9.4f}  "
              f"residual {r.residual:+.4f}")
    print(f"  residuals halve with delta: log-log slope {slope:.3f}")
    print("  (the constant pi in the prediction is the diagonal "
          "pole contribution)")

    svg = os.path.join(OUT, "gram_hist.svg")
    histogram(svg, [r.spacing / r.predicted for r in records], 30,
              "Gram spacing over local prediction", "ratio")
    print(f"\nHistogram written to {svg}")


if __name__ == "__main__":
    main()
