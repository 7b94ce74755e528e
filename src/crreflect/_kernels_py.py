"""Pure-Python reference implementation of the hot series kernels.

`series` imports these through `kernels`, which prefers the compiled
Cython twin (`_kernels`) when it is available.  Both implementations must
produce identical term dictionaries: keys are exponent tuples, values are
nonzero :class:`~crreflect.gaussian.GaussianRational` coefficients.

`mul_terms` never multiplies `GaussianRational` objects.  It takes one of
two paths:

* **Single-term factor.**  A product with a one-term operand is a shift of
  the other operand's exponents and a scaling of its coefficients, one
  normalization per output term (none for a factor of 1).
* **Common denominator, packed exponents.**  Otherwise each operand is
  converted once to Gaussian-integer numerators over the lcm of its
  denominators (the layout of FLINT's ``fmpq_poly``).  Exponent tuples are
  packed into ints, one field per variable with the total degree in the
  top field (Monagan & Pearce, "Polynomial division using dynamic arrays,
  heaps, and packed exponent vectors", CASC 2007).  Adding two keys
  multiplies the monomials, and since keys sort by degree first, one
  binary search per row of the smaller operand finds the terms of the
  other that stay within the truncation order.  Real and imaginary parts
  are accumulated as plain ints per packed key, and one normalized
  coefficient is built per nonzero output term.

`iadd_scaled` likewise forms `acc + coeff * c` on the integer triples and
normalizes once per updated term.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, lcm
from operator import add, mul

from .gaussian import ONE, GaussianRational

BACKEND = "python"

_new = object.__new__


def _make(a: int, b: int, c: int) -> GaussianRational:
    """Normalize (a + b*i)/c, c > 0, and wrap it."""
    g = gcd(a, b, c)
    if g != 1:
        a //= g
        b //= g
        c //= g
    z = _new(GaussianRational)
    z.a = a
    z.b = b
    z.c = c
    return z


def _scale_shift(e: tuple, c: GaussianRational, T: dict, order: int) -> dict:
    """`{e: c} * T` truncated to total degree <= order (order < 0: none)."""
    if order >= 0:
        room = order - sum(e)
        T = {f: d for f, d in T.items() if sum(f) <= room}
    if not any(e):
        keys = T
    else:
        keys = [tuple(map(add, e, f)) for f in T]
    if c == ONE:
        return dict(zip(keys, T.values()))
    a1, b1, c1 = c.a, c.b, c.c
    return {k: _make(a1 * d.a - b1 * d.b, a1 * d.b + b1 * d.a, c1 * d.c)
            for k, d in zip(keys, T.values())}


def _numerators(T: dict, weights: list, limit):
    """Common-denominator form of a term dict: (lcm of the denominators,
    [(packed key, re, im)] sorted by packed key), keeping only packed keys
    below `limit` (all of them when `limit` is None)."""
    kept = [(sum(map(mul, e, weights)), c) for e, c in T.items()]
    if limit is not None:
        kept = [t for t in kept if t[0] < limit]
    den = lcm(*[c.c for _, c in kept])
    rows = [(p, c.a * m, c.b * m) for p, c in kept for m in (den // c.c,)]
    rows.sort()
    return den, rows


def mul_terms(A: dict, B: dict, order: int) -> dict:
    """Truncated product of two term dicts (total degree <= order).

    A negative order disables truncation (used by the symbolic rank code,
    where entries are honest polynomials).
    """
    if not A or not B:
        return {}
    if len(A) == 1:
        (e, c), = A.items()
        return _scale_shift(e, c, B, order)
    if len(B) == 1:
        (e, c), = B.items()
        return _scale_shift(e, c, A, order)
    if len(A) > len(B):
        A, B = B, A
    arity = len(next(iter(A)))
    if order >= 0:
        top = order
    else:
        top = max(max(e) for e in A) + max(max(e) for e in B)
    # One field of `width` bits per variable, the total degree above them:
    # e . weights packs e, and a key is below `limit` iff degree <= order.
    width = max(top.bit_length(), 1)
    shift = width * arity
    weights = [(1 << (width * i)) + (1 << shift) for i in range(arity)]
    limit = (order + 1) << shift if order >= 0 else None
    da, ra = _numerators(A, weights, limit)
    db, rb = _numerators(B, weights, limit)
    if not ra or not rb:
        return {}
    bkeys = [p for p, _, _ in rb]
    acc: dict = {}
    get = acc.get
    for pa, xa, ya in ra:
        if limit is not None:
            hi = bisect_left(bkeys, limit - pa)
            if not hi:
                break
            rows = rb[:hi]
        else:
            rows = rb
        for pb, xb, yb in rows:
            k = pa + pb
            s = get(k)
            if s is None:
                acc[k] = [xa * xb - ya * yb, xa * yb + ya * xb]
            else:
                s[0] += xa * xb - ya * yb
                s[1] += xa * yb + ya * xb
    den = da * db
    mask = (1 << width) - 1
    shifts = range(0, shift, width)
    out = {}
    for k, (x, y) in acc.items():
        if x or y:
            out[tuple([(k >> s) & mask for s in shifts])] = _make(x, y, den)
    return out


def iadd_scaled(out: dict, A: dict, coeff) -> None:
    """In-place `out += coeff * A`; zero entries are removed."""
    if not coeff or not A:
        return
    a1, b1, c1 = coeff.a, coeff.b, coeff.c
    get = out.get
    for e, c in A.items():
        x = a1 * c.a - b1 * c.b
        y = a1 * c.b + b1 * c.a
        z = c1 * c.c
        s = get(e)
        if s is not None:
            x = s.a * z + x * s.c
            y = s.b * z + y * s.c
            if not (x or y):
                del out[e]
                continue
            z *= s.c
        out[e] = _make(x, y, z)
