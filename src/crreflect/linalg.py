"""Exact linear algebra over the Gaussian rationals and their polynomials.

Two rank notions live here.  On constant matrices, `numeric_rank` and
`kernel_basis` read the rank and the right kernel off `kernels.echelon`,
the package's one Gauss-Jordan elimination, which takes sparse rows:
`numeric_rank` converts a dense matrix once, and `kernel_basis` takes the
coefficient column of each unknown.  `symbolic_rank` computes the
rank of a matrix of (truncated) polynomial entries over the fraction field
of the polynomial ring, via fraction-free Bareiss elimination, checked
against the rank at a seeded rational point (`symbolic_rank` states why
that is a certified lower bound) whenever Bareiss finds the rank below
min(rows, cols); a point rank never exceeds min(rows, cols), so at full
rank the check could not fail and is not run.  Each pivot is the entry
with the fewest terms over the whole remaining matrix, all rows and
columns not yet pivoted, as Markowitz (Management Science 1957)
chooses pivots to limit fill-in: Bareiss on a row- and column-permuted
matrix, with the same rank.  It is one term whenever the remaining
matrix holds a monomial, and the first divisor is the constant 1 (on the
Segre-chain Jacobians of the benchmark, every divisor is 1).  Bareiss's
last step, with one row left below the pivot, only asks whether that row
vanishes; each of its entries is a numerator divided by the previous
pivot, a nonzero polynomial, and the polynomials over Q(i) have no zero
divisors, so the step tests the numerators and divides nothing.  Every earlier
step divides its entries by the previous pivot through `kernels.divexact`,
the package's one exact division (also behind
`series.divide_with_valuation`).  A one-term divisor divides term by
term, with no scaling at all by 1.  A pivot of several terms takes
`divexact`'s graded-lex reduction on term dicts, one normalization per
updated remainder term.  The witness point is drawn once per (arity,
seed), and `rank_at` evaluates all the entries of a matrix in one
`kernels.evaluate_terms` pass, which shares the point's powers and
monomial values among them."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .gaussian import GaussianRational, ONE, ZERO
from .kernels import (divexact, echelon, evaluate_terms, iadd_scaled,
                      mul_terms)
from .series import SeriesMap, jacobian_at_zero


def numeric_rank(matrix) -> int:
    """Rank of a dense matrix of GaussianRational entries."""
    return len(echelon([dict(enumerate(row)) for row in matrix])[0])


def rank_at_origin(F) -> int:
    """Rank of the Jacobian at 0 of F, a `SeriesMap` or a list of series
    over one context (their orders may differ)."""
    F = list(F)
    return numeric_rank(jacobian_at_zero(F, range(F[0].context.arity)))


def random_rational_point(arity: int, rng: random.Random):
    """Small random rationals, dense enough to avoid accidental collisions."""
    pts = []
    for _ in range(arity):
        num = rng.randint(-17, 17)
        den = rng.randint(1, 7)
        pts.append(GaussianRational(Fraction(num, den)))
    return pts


def _cross(a: dict, b: dict, c: dict, d: dict) -> dict:
    """a*b - c*d of term dicts, untruncated."""
    term = mul_terms(a, b, -1)
    if c:
        iadd_scaled(term, mul_terms(c, d, -1), -ONE)
    return term


def bareiss_rank(entries) -> int:
    """Fraction-free elimination on a matrix of term dicts; exact rank.

    Intermediate entries stay genuine minors of the input (the two-step
    division is always exact), so growth is bounded by the size of the
    actual minors (Bareiss, Math. Comp. 22, 1968).  The matrix is oriented
    with the short side as rows.  Each pivot is the nonzero entry with the
    fewest terms over all the rows and columns not yet pivoted, the first
    such column and then the first such row on a tie, as Markowitz
    (Management Science 3, 1957) chooses pivots to limit fill-in.  So a
    constant or a monomial is taken wherever the remaining matrix holds
    one, and no polynomial pivot grows the entries while a constant column
    waits.  This is Bareiss on a row- and column-permuted matrix, so the
    entries stay minors, every division stays exact and the rank is the
    same.

    A step replaces each entry of a remaining column in the rows below by
    (pivot*m[r][c] - head*m[rank][c]) / prev, prev being the previous
    pivot; the pivot column itself becomes zero there and is never read
    again, so it is not formed.  When one row is left below the pivot,
    the rank is the number of rows or one less, and only whether that row
    vanishes decides which.  Since prev is a nonzero polynomial and the
    polynomial ring is an integral domain, an entry of that row is zero
    exactly when its numerator is.  So the last step forms the numerators
    of the remaining columns one after the other, stops at the first
    nonzero one and divides nothing.
    """
    m = [[dict(e) for e in row] for row in entries]
    if not m or not m[0]:
        return 0
    if len(m) > len(m[0]):
        m = [[m[r][c] for r in range(len(m))] for c in range(len(m[0]))]
    nrows, ncols = len(m), len(m[0])
    arity = next((len(next(iter(e))) for row in m for e in row if e), None)
    if arity is None:
        return 0
    prev = {(0,) * arity: ONE}
    cols = list(range(ncols))
    rank = 0
    while True:
        best = None
        for col in cols:
            for r in range(rank, nrows):
                e = m[r][col]
                if e and (best is None or len(e) < best):
                    best, piv, pc = len(e), r, col
            if best == 1:
                break
        if best is None:
            return rank
        cols.remove(pc)
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        pivot = top[pc]
        if rank + 2 == nrows:
            last = m[rank + 1]
            head = last[pc]
            if any(_cross(pivot, last[c], head, top[c]) for c in cols):
                return nrows
            return rank + 1
        for r in range(rank + 1, nrows):
            row = m[r]
            head = row[pc]
            for c in cols:
                term = _cross(pivot, row[c], head, top[c])
                row[c] = divexact(term, prev) if term else {}
        prev = pivot
        rank += 1
        if rank == nrows:
            return rank


@lru_cache(maxsize=64)
def _witness_point(arity: int, seed: int) -> tuple:
    """The point `random_rational_point(arity, random.Random(seed))`, drawn
    once per (arity, seed)."""
    return tuple(random_rational_point(arity, random.Random(seed)))


def rank_at(matrix, point) -> int:
    """Rank of a matrix of TruncatedSeries entries at `point`, its entries
    evaluated in one `kernels.evaluate_terms` pass (0 for no entries)."""
    if not matrix or not matrix[0]:
        return 0
    ncols = len(matrix[0])
    values = evaluate_terms([e.terms for row in matrix for e in row], point)
    return numeric_rank([values[i:i + ncols]
                         for i in range(0, len(values), ncols)])


def symbolic_rank(matrix, seed: int = 0) -> int:
    """Generic rank of a matrix of TruncatedSeries entries.

    The value is the rank over the fraction field of the polynomial ring of
    the stored truncations; it equals the true generic rank once the
    truncation order is past the degree where the rank stabilizes.

    Bareiss decides the value, with `bareiss_rank`'s pivot rule: the
    sparsest entry of the whole remaining matrix (Markowitz 1957).  A
    minor that is nonzero at a point is a nonzero polynomial, so the rank
    at a point is a certified lower bound (Schwartz, J. ACM 1980; Zippel
    1979): point rank <= generic rank <= min(rows, cols).  When the
    Bareiss rank is below min(rows, cols), the entries are evaluated
    exactly over Q(i), in one shared pass, at `_witness_point(arity,
    seed)`, the point `random_rational_point` draws from
    `random.Random(seed)`, and a point rank above the Bareiss rank raises
    `AssertionError`.  A Bareiss rank of min(rows, cols) is returned at
    once: no point rank can exceed it, so the witness could not fire
    there, and skipping it drops no check.
    """
    if not matrix or not matrix[0]:
        return 0
    rank = bareiss_rank([[e.terms for e in row] for row in matrix])
    if rank == min(len(matrix), len(matrix[0])):
        return rank
    point = _witness_point(matrix[0][0].context.arity, seed)
    numeric = rank_at(matrix, point)
    if numeric > rank:
        raise AssertionError(
            "rank witness exceeds symbolic rank (%d > %d)" % (numeric, rank))
    return rank


def generic_rank(F: SeriesMap, seed: int = 0) -> int:
    """Generic rank of the Jacobian of a series map (0 for the zero map)."""
    if all(c.is_zero() for c in F.components):
        return 0
    return symbolic_rank(F.jacobian(), seed=seed)


def kernel_basis(columns):
    """Basis of the kernel of a sparse linear system over Q(i).

    `columns[j]` maps each equation key to the coefficient of unknown j in
    that equation.  Returns dense vectors (lists, one entry per unknown);
    an empty list for a trivial kernel.
    """
    rows: dict = {}
    for j, column in enumerate(columns):
        for key, c in column.items():
            rows.setdefault(key, {})[j] = c
    pivots, reduced = echelon(rows.values())
    basis = []
    for fc in sorted(set(range(len(columns))) - set(pivots)):
        v = [ZERO] * len(columns)
        v[fc] = ONE
        for row, pc in zip(reduced, pivots):
            v[pc] = -row.get(fc, ZERO)
        basis.append(v)
    return basis
