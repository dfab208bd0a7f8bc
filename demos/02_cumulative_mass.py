"""The cumulative second moment I(T) = integral of Z^2 from 0 to T.

I(T) grows like T ln T; the classical main term
    T ln T + (2c - 1 - ln 2 pi) T
leaves a residual that stays well inside T^(1/3 + 0.1) at these heights.
Every cumulative value is anchored in a persistent checkpoint whose bytes
are independent of evaluation order and worker count.

Run:  python3 demos/02_cumulative_mass.py
"""

import os

from hlq import hlmass, verify
from hlq._svg import line_plot

OUT = os.path.join(os.path.dirname(__file__), "out")


def main():
    os.makedirs(OUT, exist_ok=True)
    cfg = hlmass.QuadratureConfig()          # certified rel_tol 1e-9
    ckpt = hlmass.new_checkpoint(cfg)

    print("Cumulative masses against the main term:")
    rows = []
    for t in (100.0, 200.0, 500.0, 1000.0, 3000.0):
        r = verify.balasubramanian_residual(t, cfg=cfg, ckpt=ckpt)
        rows.append(r)
        print(f"  I({t:6.0f}) = {r.observed:14.4f}   main term "
              f"{r.predicted:14.4f}   residual {r.residual:+9.4f} "
              f"(bound {r.bound:.1f})")

    # the checkpoint round-trips byte-identically
    path = os.path.join(OUT, "mass.ckpt")
    hlmass.save_checkpoint(ckpt, path)
    back = hlmass.load_checkpoint(path)
    print(f"\nCheckpoint: {len(ckpt)} rows saved to {path}; reload "
          f"identical: {list(back.rows()) == list(ckpt.rows())}")

    # interval masses add up
    ab = hlmass.hl_mass_between(100.0, 500.0)
    ia = hlmass.hl_mass(100.0, cfg=cfg, ckpt=ckpt)
    ib = hlmass.hl_mass(500.0, cfg=cfg, ckpt=ckpt)
    print(f"Interval mass [100, 500] = {ab:.6f}; cumulative difference "
          f"= {ib - ia:.6f}")

    svg = os.path.join(OUT, "residuals.svg")
    line_plot(svg,
              [("|residual|", [r.inputs["T"] for r in rows],
                [max(abs(r.residual), 1e-9) for r in rows]),
               ("T^(1/3+0.1)", [r.inputs["T"] for r in rows],
                [r.bound for r in rows])],
              "second-moment residual", "T", "|R(T)|",
              log_x=True, log_y=True)
    print(f"Residual plot written to {svg}")


if __name__ == "__main__":
    main()
