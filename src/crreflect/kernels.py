"""The exact kernels every layer above builds on.

Term dicts map exponent tuples to nonzero
:class:`~crreflect.gaussian.GaussianRational` coefficients.  This module is
the bottom layer (it imports only `gaussian`), so `series` and `linalg` can
both use it without an import cycle.

* `mul_terms` and `iadd_scaled`: the truncated product and the scaled
  accumulation of term dicts.
* `compose_terms`: the body of `TruncatedSeries.compose`, the sum of
  group_beta * u^beta over the exponents beta of the moving arguments u.
* `derivation_table` and `derivation_apply`: a first-order operator
  sum_i c_i d/dx_i with series coefficients, converted once and then
  applied to a term dict in one pass.
* `divexact`: exact division of term dicts by graded-lex reduction.
* `echelon`: Gauss-Jordan elimination of a constant matrix, the one
  elimination behind every rank, kernel, inverse and span test.

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

`compose_terms` keeps that layout across a whole composition instead of
one product.  It packs exponents once, with one field width for the
order.  Each moving argument is converted to (lcm denominator, packed
rows) the first time a power needs it; many compositions use few of their
arguments.  Each power u^beta is built from the one a step lower as packed
rows over the product of the denominators, never normalized.  Every
product group_beta * u^beta then goes into one accumulator over the lcm
of all the products' denominators, each group's numerators rescaled to
it first.  The group beta = 0 is added without a product, and when it is
the only group it is returned as it is.  One normalized coefficient is
built per nonzero output term.  `mul_terms` and `compose_terms` share the
packed product loop `_product`.

`iadd_scaled` likewise forms `acc + coeff * c` on the integer triples and
normalizes once per updated term.

`derivation_apply` accumulates sum_i c_i * df/dx_i the way `mul_terms`
accumulates a product: one dict of Gaussian-integer numerators over one
common denominator, keyed by exponent tuple, and one normalized
coefficient per nonzero output term.  A term x^e of f with e_i = k > 0
adds k * f_e * c_i shifted by e - (unit vector i), so no derivative of f
is ever built.  Keys stay tuples: the jet contexts the derivations run in
have dozens of variables, with few of them in any one term, and packing
and unpacking that many fields cost more than it saved.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import compress
from math import gcd, lcm
from operator import add, itemgetter, mul

from .gaussian import ONE, GaussianRational

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


@lru_cache(maxsize=None)
def _packing(arity: int, top: int):
    """(width, weights) for exponent fields of at most `top`: one field of
    `width` bits per variable and the total degree above them, so that
    e . weights packs e, keys sort by degree first, and for order <= top a
    key is below (order + 1) << (width * arity) iff its degree is <= order."""
    width = max(top.bit_length(), 1)
    shift = width * arity
    return width, tuple([(1 << (width * i)) + (1 << shift)
                         for i in range(arity)])


def _product(acc: dict, ra: list, rb: list, limit) -> None:
    """acc[pa + pb] += (xa + i*ya) * (xb + i*yb) for every pair of rows
    with pa + pb < limit (every pair when `limit` is None).

    Rows are (packed key, re, im) sorted by key; `acc` maps packed keys to
    [re, im] lists.  One binary search per row of the shorter operand
    finds the rows of the other that stay below the limit.
    """
    if len(ra) > len(rb):
        ra, rb = rb, ra
    bkeys = [p for p, _, _ in rb]
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


def _unpacked(acc: dict, den: int, width: int, arity: int) -> dict:
    """Term dict of an accumulator over `den`: one normalized coefficient
    per nonzero packed key."""
    mask = (1 << width) - 1
    shifts = range(0, width * arity, width)
    return {tuple([(k >> s) & mask for s in shifts]): _make(x, y, den)
            for k, (x, y) in acc.items() if x or y}


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
    arity = len(next(iter(A)))
    if order >= 0:
        top = order
    else:
        top = max(max(e) for e in A) + max(max(e) for e in B)
    width, weights = _packing(arity, top)
    limit = (order + 1) << (width * arity) if order >= 0 else None
    da, ra = _numerators(A, weights, limit)
    db, rb = _numerators(B, weights, limit)
    acc: dict = {}
    _product(acc, ra, rb, limit)
    return _unpacked(acc, da * db, width, arity)


def compose_terms(groups: dict, args: list, arity: int, order: int) -> dict:
    """sum_beta groups[beta] * prod_i args[i]**beta[i], truncated to total
    degree <= order.

    `groups` maps exponent tuples beta over `args` to term dicts of the
    target arity; `args` are term dicts with no constant term.  Zero
    coefficients in a group are dropped.  When the group beta = 0 is the
    only nonzero one, it is the result as it is.
    """
    zero = (0,) * len(args)
    nonzero = []
    for beta, group in groups.items():
        group = {e: c for e, c in group.items() if c}
        if group:
            nonzero.append((beta, group))
    if not nonzero:
        return {}
    if len(nonzero) == 1 and nonzero[0][0] == zero:
        return nonzero[0][1]
    width, weights = _packing(arity, order)
    limit = (order + 1) << (width * arity)
    powers = {zero: (1, [(0, 1, 0)])}

    def power(beta):
        got = powers.get(beta)
        if got is None:
            i = next(j for j, x in enumerate(beta) if x)
            unit = zero[:i] + (1,) + zero[i + 1:]
            if beta == unit:
                got = _numerators(args[i], weights, limit)
            else:
                dp, rp = power(beta[:i] + (beta[i] - 1,) + beta[i + 1:])
                da, ra = power(unit)
                acc: dict = {}
                _product(acc, rp, ra, limit)
                got = (dp * da, sorted([(k, x, y) for k, (x, y)
                                        in acc.items() if x or y]))
            powers[beta] = got
        return got

    parts = []
    for beta, group in nonzero:
        dp, rp = power(beta)
        if rp:
            dg, rg = _numerators(group, weights, None)
            parts.append((dp * dg, rg, rp if beta != zero else None))
    den = lcm(*[d for d, _, _ in parts])
    acc: dict = {}
    get = acc.get
    for d, rg, rp in parts:
        m = den // d
        if m != 1:
            rg = [(p, x * m, y * m) for p, x, y in rg]
        if rp is not None:
            _product(acc, rg, rp, limit)
            continue
        for p, x, y in rg:  # the group beta = 0, added without a product
            s = get(p)
            if s is None:
                acc[p] = [x, y]
            else:
                s[0] += x
                s[1] += y
    return _unpacked(acc, den, width, arity)


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


def _picker(indices):
    """Exponent tuple -> the tuple of its entries at `indices`."""
    if len(indices) == 1:
        i, = indices
        return lambda e: (e[i],)
    if not indices:
        return lambda e: ()
    return itemgetter(*indices)


def derivation_table(coeffs: dict, forbidden=()):
    """Integer form of the operator sum_i c_i d/dx_i for `derivation_apply`.

    `coeffs` maps a variable index i to the term dict of c_i (a constant is
    a one-term dict at the zero exponent); `forbidden` lists the variables
    an operand must not involve.  Every row of every c_i becomes (degree,
    exponent - unit vector i, re, im) with the numerators over the lcm of
    all the rows' denominators, and each c_i's rows are sorted by degree.
    Build it once per operator: it serves every operand and every order.
    """
    den = lcm(*[c.c for T in coeffs.values() for c in T.values()])
    indices, entries = [], []
    for i, T in coeffs.items():
        if not T:
            continue
        rows = []
        for f, c in T.items():
            shift = list(f)
            shift[i] -= 1
            m = den // c.c
            rows.append((sum(f), tuple(shift), c.a * m, c.b * m))
        rows.sort(key=itemgetter(0))
        indices.append(i)
        entries.append(rows)
    forbidden = sorted(forbidden)
    check = _picker(forbidden) if forbidden else None
    return den, entries, _picker(indices), check, (0,) * len(forbidden)


def derivation_apply(A: dict, table, order: int):
    """sum_i c_i * dA/dx_i truncated to total degree <= order, for a
    `derivation_table`, in one pass over the terms of A.

    Rows of c_i whose degree is past the room left by a term are skipped.
    Returns None when a term of A involves a forbidden variable.
    """
    den, entries, pick, check, clear = table
    if not A:
        return {}
    aden = lcm(*[c.c for c in A.values()])
    acc: dict = {}
    get = acc.get
    for e, c in A.items():
        if check is not None and check(e) != clear:
            return None
        ks = pick(e)
        if not any(ks):
            continue
        room = order + 1 - sum(e)
        if room < 0:
            continue
        m = aden // c.c
        xa = c.a * m
        ya = c.b * m
        for rows, k in zip(compress(entries, ks), filter(None, ks)):
            kx = k * xa
            ky = k * ya
            for deg, shift, xb, yb in rows:
                if deg > room:
                    break
                key = tuple(map(add, e, shift))
                s = get(key)
                if s is None:
                    acc[key] = [kx * xb - ky * yb, kx * yb + ky * xb]
                else:
                    s[0] += kx * xb - ky * yb
                    s[1] += kx * yb + ky * xb
    den *= aden
    return {k: _make(x, y, den) for k, (x, y) in acc.items() if x or y}


def _grlex_key(e):
    return (sum(e), e)


def divexact(f: dict, g: dict) -> dict:
    """Exact quotient f / g of term dicts (any degrees, no truncation).

    Graded-lex reduction: each step cancels the leading term of the
    remainder.  Raises ZeroDivisionError for g = 0 and ArithmeticError,
    naming the leading term left over, when g does not divide f.
    """
    if not f:
        return {}
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    glead = max(g, key=_grlex_key)
    gc = g[glead]
    q: dict = {}
    rem = dict(f)
    while rem:
        flead = max(rem, key=_grlex_key)
        t = tuple(a - b for a, b in zip(flead, glead))
        if any(x < 0 for x in t):
            raise ArithmeticError("remainder at %r" % (flead,))
        coeff = rem[flead] / gc
        q[t] = coeff
        iadd_scaled(rem, mul_terms({t: coeff}, g, -1), -ONE)
    return q


def echelon(rows):
    """Reduced row echelon form of a GaussianRational matrix (Gauss-Jordan).

    Returns (pivots, reduced): `reduced[i]` is the i-th nonzero row of the
    RREF and `pivots[i]` the column of its leading 1, so len(pivots) is the
    rank.  The first nonzero entry of each column is the pivot, and the
    elimination stops once every row holds one.  The input is not modified.
    """
    a = [list(r) for r in rows]
    if not a:
        return [], []
    nrows, ncols = len(a), len(a[0])
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = a[rank][col].inverse()
        prow = a[rank] = [x * inv if x else x for x in a[rank]]
        nonzero = [(j, prow[j]) for j in range(col, ncols) if prow[j]]
        for r in range(nrows):
            row = a[r]
            f = row[col]
            if r != rank and f:
                for j, y in nonzero:
                    row[j] = row[j] - f * y
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return pivots, a[:len(pivots)]
