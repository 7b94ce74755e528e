"""The exact kernels every layer above builds on.

Term dicts map exponent tuples to nonzero
:class:`~crreflect.gaussian.GaussianRational` coefficients.  This module is
the bottom layer (it imports only `gaussian`), so `series` and `linalg` can
both use it without an import cycle.

* `mul_terms` and `iadd_scaled`: the truncated product and the scaled
  accumulation of term dicts.
* `compose_terms`: the body of `TruncatedSeries.compose`, the sum of
  group_beta * u^beta over the exponents beta of the moving arguments u.
* `divexact`: exact division of term dicts.  A one-term divisor c * x^e
  divides term by term, shifting each exponent down by e and scaling by
  1/c (not at all for c = 1); Bareiss's pivots are chosen sparsest, so
  they are one term wherever their column holds a monomial, mostly the
  constant 1.  Any other divisor runs graded-lex reduction on packed
  exponents with a guard bit per field, the remainder's packed keys kept
  in a heap and the divisor held as Gaussian-integer numerators.
* `echelon`: Gauss-Jordan elimination of a constant matrix given as sparse
  {column: coefficient} rows, the one elimination behind every rank,
  kernel, inverse and span test.

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
rows) the first time a level needs it; many compositions use few of their
arguments.  It evaluates by Horner's rule, one argument u after the
other: H_b = G_b + u * H_(b+1) from the top exponent b down, each product
cut to degree order - b*v(u), lower than the one before, so no power of u
is built and fewer products are made (Paterson & Stockmeyer, SIAM J.
Comput. 1973, count these as nonscalar multiplications).  Each level's sum
stays [re, im] numerators over one running denominator, the lcm of its
parts, accumulated into the dict of its part G_b; one normalized
coefficient is built per nonzero output term.  On `graph_reality`, where
composition is most of the work, `cpu_s` fell from 0.617 s to 0.467 s
(medians of ten paired benchmark runs on a 2-vCPU Xeon VM).  `mul_terms`
and `compose_terms` share the packed product loop `_product`, and
`compose_terms` and the degree loop of `series.divide_with_valuation` add
products into a running-denominator accumulator with `_add_product`.

`iadd_scaled` likewise forms `acc + coeff * c` on the integer triples and
normalizes once per updated term.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, gt, mul, neg

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


def _triple(a: int, b: int, c: int) -> tuple:
    """Normalize (a + b*i)/c, c > 0, as an (a, b, c) triple."""
    g = gcd(a, b, c)
    if g != 1:
        return a // g, b // g, c // g
    return a, b, c


def _scale_shift(e: tuple, c: GaussianRational, T: dict, order: int) -> dict:
    """`{e: c} * T` truncated to total degree <= order (order < 0: none).
    `divexact` shifts down with an e of negated exponents."""
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


def _add_product(den: int, acc: dict, d: int, ra: list, rb: list,
                 limit) -> int:
    """Add the product of rows ra and rb, whose numerators multiply to a
    value over d, to the accumulator acc over den, for the pairs that
    `_product` keeps below `limit`.  Both are first put over the lcm of den
    and d, which is returned: the denominator acc is over afterwards."""
    total = lcm(den, d)
    m = total // den
    if m != 1:
        for s in acc.values():
            s[0] *= m
            s[1] *= m
    m = total // d
    if m != 1:
        ra = [(p, x * m, y * m) for p, x, y in ra]
    _product(acc, ra, rb, limit)
    return total


def _rows(acc: dict) -> list:
    """The nonzero entries of an accumulator as rows sorted by packed key."""
    return sorted([(p, x, y) for p, (x, y) in acc.items() if x or y])


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

    Horner's rule over the arguments, first to last.  The groups are split
    by their exponent b in the first argument u that any of them uses, and
    each part G_b, the sum over the remaining arguments of the groups with
    exponent b, is formed the same way.  Since u has valuation v >= 1, G_b
    is needed only to degree order - b*v.  The parts combine as H_b = G_b
    + u * H_(b+1) from the top b down, each product cut to degree order -
    b*v, lower than the one before.  The sum is H_0, and no power of u is
    built.
    """
    nonzero = []
    for beta, group in groups.items():
        group = {e: c for e, c in group.items() if c}
        if group:
            nonzero.append((beta, group))
    if not nonzero:
        return {}
    if len(nonzero) == 1 and not any(nonzero[0][0]):
        return nonzero[0][1]
    width, weights = _packing(arity, order)
    shift = width * arity
    converted = [None] * len(args)

    def argument(i):
        """(denominator, packed rows, valuation) of args[i], converted the
        first time a level needs it."""
        got = converted[i]
        if got is None:
            den, rows = _numerators(args[i], weights, (order + 1) << shift)
            got = converted[i] = (den, rows,
                                  rows[0][0] >> shift if rows else order + 1)
        return got

    def level(items, i, cut):
        """(den, acc): the sum over `items` of group * prod_(j >= i)
        args[j]**beta[j] to degree <= cut, as [re, im] numerators over den
        keyed by packed exponent.  All items share beta[:i], and some
        beta[i:] is nonzero: a part that is one group alone is read as it
        is, without a level of its own."""
        while not any([beta[i] for beta, _ in items]):
            i += 1
        du, ru, v = argument(i)
        split: dict = {}
        for item in items:
            b = item[0][i]
            if b * v <= cut:
                split.setdefault(b, []).append(item)
        parts = {}
        for b, part in split.items():
            c = cut - b * v
            if len(part) == 1 and not any(part[0][0][i + 1:]):
                d, rows = _numerators(part[0][1], weights, (c + 1) << shift)
                parts[b] = d, {p: [x, y] for p, x, y in rows}
            else:
                parts[b] = level(part, i + 1, c)
        if not parts:
            return 1, {}
        b = max(parts)
        den, acc = parts.pop(b)
        while b:  # H_b = G_b + u * H_(b+1), accumulated into G_b
            b -= 1
            rows = _rows(acc)
            dh = den * du
            den, acc = parts.get(b) or (1, {})
            if rows:
                den = _add_product(den, acc, dh, rows, ru,
                                   (cut - b * v + 1) << shift)
        return den, acc

    den, acc = level(nonzero, 0, order)
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




@lru_cache(maxsize=None)
def _division_packing(arity: int, top: int):
    """(width, weights, guards) for exponent fields of at most `top`, the
    layout of `divexact`: the total degree in the top field, then x0 down to
    the last variable, so that keys sort in graded-lex order.  Each field
    has one guard bit above the bits `top` needs, and `guards` marks them
    all: for packed monomials a and b, b divides a iff a - b borrows into
    no field, that is iff (a - b) & guards is 0."""
    width = top.bit_length() + 1
    shift = width * arity
    weights = tuple([(1 << (width * (arity - 1 - i))) + (1 << shift)
                     for i in range(arity)])
    guards = sum([1 << (width * j + width - 1) for j in range(arity + 1)])
    return width, weights, guards


def divexact(f: dict, g: dict) -> dict:
    """Exact quotient f / g of term dicts (any degrees, no truncation).

    A one-term divisor c * x^e divides term by term: each exponent of f
    minus e is one of the quotient, and each coefficient is f's as it is
    for c = 1, or times 1/c with one normalization per term.  When some
    term of f has a field below e's, the error names the largest such term
    in graded-lex order, the one where the reduction below would stop.  On
    the benchmark's workloads every divisor is one term, most often the
    constant 1: Bareiss's pivots are chosen sparsest, and the leads of the
    series divisions are constants or monic monomials.

    Any other divisor takes graded-lex reduction: each step cancels the
    leading term of the remainder, popped from a heap of its keys (Monagan
    & Pearce, JSC 2011).  A step pushes only the keys it adds, all below
    the lead it cancels; a popped key no longer in the remainder is
    skipped.  Raises ZeroDivisionError for g = 0 and ArithmeticError,
    naming the leading term left over, when g does not divide f.

    Exponents are packed by `_division_packing`, x0 in the highest field
    below the degree (the reverse of `_packing`), so the heap holds ints in
    graded-lex order and the test that g's lead divides the remainder's
    lead is one masked subtraction.  g is converted once to
    Gaussian-integer numerators X + iY over the lcm D of its denominators.
    With the lead X0 + iY0 and its norm N = X0^2 + Y0^2, a remainder lead
    (a + ib)/c gives the quotient coefficient
    (a + ib) * D * (X0 - iY0) / (c * N), normalized once.  The step then
    subtracts it times x^t * g from the remainder's normalized (a, b, c)
    triples directly, one gcd per updated term, with no product dict,
    `mul_terms` or `iadd_scaled` call.  Only the quotient keys, and the
    leftover lead in the error, are unpacked.
    """
    if not f:
        return {}
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(g) == 1:
        (e, c), = g.items()
        q = _scale_shift(tuple(map(neg, e)), c if c == ONE else c.inverse(),
                         f, -1)
        if any(e) and any([min(k) < 0 for k in q]):
            left = [k for k in f if any(map(gt, e, k))]
            raise ArithmeticError("remainder at %r" % (
                max(left, key=lambda k: (sum(k), k)),))
        return q
    arity = len(next(iter(g)))
    top = max(max(map(sum, f)), max(map(sum, g)))
    width, weights, guards = _division_packing(arity, top)
    den = lcm(*[c.c for c in g.values()])
    rows = sorted([(sum(map(mul, e, weights)), c.a * m, c.b * m)
                   for e, c in g.items() for m in (den // c.c,)])
    glead, x0, y0 = rows.pop()
    norm = x0 * x0 + y0 * y0
    lead_re, lead_im = x0 * den, y0 * den
    rem = {sum(map(mul, e, weights)): (c.a, c.b, c.c) for e, c in f.items()}
    get, pop = rem.get, rem.pop
    heap = [-p for p in rem]
    heapify(heap)
    mask = (1 << width) - 1
    shifts = range(width * (arity - 1), -1, -width)
    q: dict = {}
    while rem:
        p = -heappop(heap)
        s = pop(p, None)
        if s is None:
            continue
        t = p - glead
        if t & guards:
            lead = tuple([(p >> i) & mask for i in shifts])
            raise ArithmeticError("remainder at %r" % (lead,))
        a, b, c = s
        z = _make(a * lead_re + b * lead_im, b * lead_re - a * lead_im,
                  c * norm)
        q[tuple([(t >> i) & mask for i in shifts])] = z
        qa, qb = z.a, z.b
        m = z.c * den
        for pe, x, y in rows:
            k = t + pe
            re = qa * x - qb * y
            im = qa * y + qb * x
            s = get(k)
            if s is None:
                rem[k] = _triple(-re, -im, m)
                heappush(heap, -k)
                continue
            a, b, c = s
            a = a * m - c * re
            b = b * m - c * im
            if a or b:
                rem[k] = _triple(a, b, c * m)
            else:
                del rem[k]
    return q


def echelon(rows):
    """Reduced row echelon form of a sparse GaussianRational matrix.

    Each row is a {column: coefficient} dict over sortable column keys;
    zero entries are dropped.  Returns (pivots, reduced): `pivots` lists
    the pivot columns in ascending order, so len(pivots) is the rank, and
    `reduced[i]` is the RREF row with its leading 1 in column `pivots[i]`,
    as a dict of its nonzero entries.

    Rows enter one at a time: each is reduced by the pivot rows so far, its
    leading entry is normalised to 1, and that column is cleared from the
    earlier pivot rows.  The RREF is unique, so the row order does not
    change the result.  The input is not modified.
    """
    basis = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        for p in [p for p in r if p in basis]:
            iadd_scaled(r, basis[p], -r[p])
        if not r:
            continue
        lead = min(r)
        inv = r[lead].inverse()
        r = {c: x * inv for c, x in r.items()}
        for b in basis.values():
            f = b.get(lead)
            if f is not None:
                iadd_scaled(b, r, -f)
        basis[lead] = r
    pivots = sorted(basis)
    return pivots, [basis[p] for p in pivots]
