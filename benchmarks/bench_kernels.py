#!/usr/bin/env python3
"""Benchmark the compiled series kernels against the pure-Python fallback.

Times the two hot operations (multiplication and scaled accumulation).
The multiplications cover the three paths of the pure-Python `mul_terms`:
truncated products of dense random series of a few representative shapes,
an untruncated (order -1) product of sparse polynomials with mixed
denominators, shaped like the entries of the Bareiss rank code, and a
single-term factor times a dense series.  One end-to-end composition
through the public API runs under whichever backend is selected.

Run:  python benchmarks/bench_kernels.py
"""

import random
import time
from fractions import Fraction

from crreflect import _kernels_py
from crreflect.context import VariableContext, multidegrees
from crreflect.gaussian import GaussianRational
from crreflect.series import TruncatedSeries

try:
    from crreflect import _kernels
except ImportError:
    _kernels = None


def dense_terms(arity, order, rng, density=1.0):
    terms = {}
    for e in multidegrees(arity, order):
        if rng.random() > density:
            continue
        c = GaussianRational(Fraction(rng.randint(-99, 99), rng.randint(1, 12)),
                             Fraction(rng.randint(-99, 99), rng.randint(1, 12)))
        if c:
            terms[e] = c
    return terms


def sparse_terms(arity, degree, count, rng):
    """Sparse polynomial shaped like a Bareiss entry: up to 15-bit
    numerators over a couple of dozen distinct small denominators."""
    pool = [e for e in multidegrees(arity, degree) if sum(e)]
    dens = [2 ** a * 3 ** b * 5 ** c * 7 ** d for a in range(3)
            for b in range(3) for c in range(2) for d in range(2)]
    terms = {}
    for e in rng.sample(pool, count):
        terms[e] = GaussianRational(
            Fraction(rng.randint(-2 ** 15, 2 ** 15), rng.choice(dens)),
            Fraction(rng.randint(-2 ** 15, 2 ** 15), rng.choice(dens)))
    return terms


def time_op(fn, repeat=3):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best, out


def bench_mul(backend, A, B, order):
    return time_op(lambda: backend.mul_terms(A, B, order))


def bench_accumulate(backend, A, coeff, repeat=200):
    def job():
        out = {}
        for _ in range(repeat):
            backend.iadd_scaled(out, A, coeff)
        return out
    return time_op(job)


def bench_compose(order, arity, rng):
    ctx = VariableContext(tuple("x%d" % i for i in range(arity)))
    f = TruncatedSeries(ctx, order, dense_terms(arity, order, rng))
    args = []
    for i in range(arity):
        terms = dense_terms(arity, order, rng, density=0.5)
        terms.pop((0,) * arity, None)
        args.append(TruncatedSeries(ctx, order, terms))
    return time_op(lambda: f.compose(args), repeat=2)


def main():
    rng = random.Random(20240)
    print("kernel backends: pure python%s"
          % (", cython" if _kernels else " (extension not built)"))
    print()
    print("%-28s %12s %12s %8s" % ("operation", "python", "cython", "speedup"))
    cases = []
    for arity, order in [(2, 10), (4, 8), (6, 6)]:
        cases.append(("mul  %d vars, order %d" % (arity, order),
                      dense_terms(arity, order, rng),
                      dense_terms(arity, order, rng), order))
    cases.append(("mul  untruncated, 6 vars",
                  sparse_terms(6, 6, 60, rng),
                  sparse_terms(6, 6, 60, rng), -1))
    monomial = {(1, 0, 2, 0):
                GaussianRational(Fraction(3, 7), Fraction(-2, 5))}
    cases.append(("mul  single term x series", monomial,
                  dense_terms(4, 8, rng), 8))
    for label, A, B, order in cases:
        t_py, out_py = bench_mul(_kernels_py, A, B, order)
        if _kernels:
            t_cy, out_cy = bench_mul(_kernels, A, B, order)
            assert out_py == out_cy, "backends disagree"
            print("%-28s %10.1f ms %10.1f ms %7.1fx"
                  % (label, t_py * 1e3, t_cy * 1e3, t_py / t_cy))
        else:
            print("%-28s %10.1f ms %12s" % (label, t_py * 1e3, "-"))
    A = dense_terms(4, 8, rng)
    coeff = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
    t_py, out_py = bench_accumulate(_kernels_py, A, coeff)
    if _kernels:
        t_cy, out_cy = bench_accumulate(_kernels, A, coeff)
        assert out_py == out_cy
        print("%-28s %10.1f ms %10.1f ms %7.1fx"
              % ("iadd_scaled 4 vars x200", t_py * 1e3, t_cy * 1e3,
                 t_py / t_cy))
    else:
        print("%-28s %10.1f ms %12s"
              % ("iadd_scaled 4 vars x200", t_py * 1e3, "-"))

    # End-to-end composition under the selected backend (whichever is live).
    t, _ = bench_compose(6, 3, rng)
    from crreflect.kernels import BACKEND
    print()
    print("compose 3 vars, order 6 under selected backend (%s): %.1f ms"
          % (BACKEND, t * 1e3))


if __name__ == "__main__":
    main()
