"""Numeric helpers: the Brent root solver and the batched Newton solver."""

import math
import random

import numpy as np
import pytest

from hlq._util import brentq, safeguarded_newton
from hlq.errors import DomainError, NoConvergence


def _seeded_problems(n, seed=20261018):
    """(f, a, b, xtol, rtol): brackets of smooth and kinked functions,
    either orientation, at the tolerances the package and scipy use."""
    rng = random.Random(seed)
    shapes = (
        lambda r, s: lambda x: (x - r) ** 3,
        lambda r, s: lambda x: math.atan(s * (x - r)) + 0.1 * (x - r) ** 3,
        lambda r, s: lambda x: math.expm1(s * (x - r)),
        lambda r, s: lambda x: math.tanh(x - r) * (1.0 + 0.5 * math.sin(7.0 * x)),
        lambda r, s: lambda x: x - r if x < r else s * (x - r) ** 2,
    )
    for i in range(n):
        r, s = rng.uniform(-50.0, 50.0), rng.uniform(0.1, 3.0)
        a, b = r - rng.uniform(1e-3, 20.0), r + rng.uniform(1e-3, 20.0)
        if rng.random() < 0.5:
            a, b = b, a
        xtol = rng.choice((1e-13, 2e-12, 1e-6))
        rtol = rng.choice((4.0 * 2.220446049250313e-16, 1e-9))
        yield shapes[i % len(shapes)](r, s), a, b, xtol, rtol


def test_brentq_is_scipys_solver():
    """Same root bits after the same number of calls as scipy.optimize.brentq."""
    optimize = pytest.importorskip("scipy.optimize")
    for f, a, b, xtol, rtol in _seeded_problems(1200):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)
        root = brentq(counted, a, b, xtol, rtol, 200)
        ours = list(calls)
        calls.clear()
        ref, info = optimize.brentq(counted, a, b, xtol=xtol, rtol=rtol,
                                    maxiter=200, full_output=True)
        assert root == ref
        assert ours == calls and len(ours) == info.function_calls


def test_brentq_errors():
    with pytest.raises(DomainError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-15, 50)
    with pytest.raises(NoConvergence):
        brentq(lambda x: math.copysign(1.0, x - math.pi), 0.0, 10.0, 1e-15, 1e-15, 3)
    assert brentq(lambda x: x, 0.0, 1.0, 1e-12, 1e-15, 50) == 0.0


def _lone_newton(f, df, lo, hi, x, tol, maxiter):
    """One problem at a time: the loop the batched solver must reproduce."""
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
    raise NoConvergence("lone Newton")


def test_safeguarded_newton_batch_is_each_lone_solve():
    """Same root bits as solving each problem alone, with Newton steps that
    leave the bracket and derivatives <= 0 (every third problem) among them."""
    rng = random.Random(20261019)
    problems = []
    for i in range(300):
        r, s = rng.uniform(-5.0, 5.0), rng.uniform(0.2, 30.0)
        lo, hi = r - rng.uniform(0.01, 4.0), r + rng.uniform(0.01, 4.0)
        f = (lambda r, s: lambda x: math.atan(s * (x - r)) + 0.05 * (x - r) ** 3)(r, s)
        df = (lambda r, s: lambda x: s / (1.0 + (s * (x - r)) ** 2)
              + 0.15 * (x - r) ** 2)(r, s) if i % 3 else (lambda x: -1.0)
        problems.append((f, df, lo, hi, rng.uniform(lo, hi)))
    lone = [_lone_newton(f, df, lo, hi, x0, 1e-12, 200)
            for f, df, lo, hi, x0 in problems]
    batch = safeguarded_newton(
        lambda x, idx: [problems[i][0](v) for v, i in zip(x.tolist(), idx.tolist())],
        lambda x, idx: [problems[i][1](v) for v, i in zip(x.tolist(), idx.tolist())],
        *([p[k] for p in problems] for k in (2, 3, 4)), 1e-12, 200, "batch")
    assert batch.tolist() == lone


def test_safeguarded_newton_no_convergence():
    with pytest.raises(NoConvergence):
        safeguarded_newton(lambda x, i: x - 0.3, lambda x, i: -np.ones_like(x),
                           [0.0, 0.0], [1.0, 1.0], [0.9, 0.3], 0.0, 5, "never")
