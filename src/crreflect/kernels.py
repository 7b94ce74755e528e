"""The exact kernels every layer above builds on.

Term dicts map exponent tuples to nonzero
:class:`~crreflect.gaussian.GaussianRational` coefficients.  This module is
the bottom layer (it imports only `gaussian`), so `series` and `linalg` can
both use it without an import cycle.

* `mul_terms` and `iadd_scaled`: the truncated product and the scaled
  accumulation of term dicts.
* `compose_terms`: the body of `TruncatedSeries.compose`, from the terms
  of the source and the term dicts of all its arguments: the grouping of
  the terms by their exponents beta in the moving arguments u, and the
  sum of group_beta * u^beta.
* `divexact`: exact division of term dicts.  A one-term divisor c * x^e
  divides term by term, shifting each exponent down by e and scaling by
  1/c (not at all for c = 1).  Bareiss divides only after a pivot that
  is not 1, and its pivots are the sparsest entries of the whole
  remaining matrix, so one term wherever it holds a monomial: on the
  seed-0 benchmark passes, `manifest_analyze`'s 85 divisors are monic
  monomials and `segre_minimality` divides nothing.  Any other divisor
  runs graded-lex reduction on term dicts, each step one `_scale_shift`
  and one `iadd_scaled`.
* `online_solve`: the degree-by-degree solve behind
  `series.divide_with_valuation` and `series.formal_ift`, each degree
  packed from right-hand side to unknown; `pack_parts` packs its
  coefficients, and `divider` and `implicit_step` are its solves of one
  degree.
* `echelon`: Gauss-Jordan elimination of a constant matrix given as sparse
  {column: coefficient} rows, the one elimination behind every rank,
  kernel, inverse and span test.
* `evaluate_terms`: the exact values of several term dicts at one point
  of Q(i)^n, in one pass that shares the point's powers and monomial
  values; the one evaluator behind `TruncatedSeries.evaluate`,
  `SeriesMap.evaluate` and the rank witness of `linalg`.

`mul_terms` never multiplies `GaussianRational` objects.  It takes one of
two paths:

* **Single-term factor.**  A product with a one-term operand is a shift of
  the other operand's exponents and a scaling of its coefficients, one
  normalization per output term (none for a factor of 1).
* **Common denominator, packed exponents.**  Otherwise each operand is
  converted once to Gaussian-integer numerators over the lcm of its
  denominators (the layout of FLINT's ``fmpq_poly``).  Exponent tuples are
  packed into ints by `_packing`, the one layout of this module, which
  serves products, compositions and the on-line solve: the total degree in
  the top field, then x0 down to the last variable, with a spare bit per
  field (Monagan & Pearce, "Polynomial division using dynamic arrays,
  heaps, and packed exponent vectors", CASC 2007).  Keys sort in
  graded-lex order.  Adding two keys multiplies the monomials, and since
  keys sort by degree first, one binary search per row of the smaller
  operand finds the terms of the other that stay within the truncation
  order.  Real and imaginary parts are accumulated as plain ints per
  packed key, and one normalized coefficient is built per nonzero output
  term.

`compose_terms` keeps that layout across a whole composition instead of
one product, with one field width for the order.  It groups the source's
terms on packed keys: each argument has one packed weight (a monomial's
image key, one degree unit for a moving argument, the truncation limit
for a zero one), so one dot product per term gives both the cut and the
term's key, and each group goes straight to (lcm denominator, packed
rows), with no `GaussianRational` sum.  Each moving argument is converted
to the same form the first time a level needs it; many compositions use
few of their arguments.  It evaluates by Horner's rule, one argument u
after the other: H_b = G_b + u * H_(b+1) from the top exponent b down,
each product cut to degree order - b*v(u), lower than the one before, so
no power of u is built and fewer products are made (Paterson &
Stockmeyer, SIAM J. Comput. 1973, count these as nonscalar
multiplications).  Each level's sum stays [re, im] numerators over one
running denominator, the lcm of its parts, accumulated into the dict of
its part G_b; each H_(b+1) is put over its least denominator by one gcd
(`_reduced`) before it multiplies u, so the running denominator does not
gather a factor of u's at every level.  One normalized coefficient is
built per nonzero output term.  On `graph_reality`, where composition is
most of the work, `cpu_s` fell from 0.617 s to 0.467 s
(medians of ten paired benchmark runs on a 2-vCPU Xeon VM).  `mul_terms`
and `compose_terms` share the packed product loop `_product`, and
`compose_terms` and `online_solve` add products into a running-denominator
accumulator with `_add_product`.

`online_solve` solves a triangular system of truncated series on-line,
one degree after the other (van der Hoeven, JSC 2002): the degree-j part
x_j of the unknowns comes from a right-hand side built of the parts
x_(j-1), x_(j-2), ... solved before.  Each degree stays packed.  Its
right-hand side is one accumulator, handed as it is to the solve of that
degree, which works on its integer numerators and returns x_j normalized
once: one gcd over its numerators and its denominator gives the lcm
denominator and numerators that `_numerators` of its term dict would.
x_j is kept in that form for the later degrees and unpacked once into
the returned term dicts.  Division with valuation solves a degree with
`divider`: a one-term lead c * x^e shifts keys down by e's packed key,
reads divisibility off the spare bit of every field and scales by 1/c,
and a lead of several terms goes through `divexact`.  Each step of the
implicit solve solves a degree with `implicit_step`, d_j = -J^{-1} r_j
with its check r_j + J d_j = 0 on integers.  A division of many
numerators by one denominator is one diagonal system, whose divisor
parts `pack_parts` negates as integers and packs once.

`iadd_scaled` likewise forms `acc + coeff * c` on the integer triples and
normalizes once per updated term.

Every packed key goes back to its exponent tuple through `_exponent`, one
bounded cache shared by all kernels: a key decoded by one call is mostly
decoded again by later ones, while within one call keys seldom repeat.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, gt, itemgetter, mul, neg, sub

from .gaussian import ONE, ZERO, GaussianRational

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


def _descending(e: tuple) -> tuple:
    """Sort key of exponent tuples in descending graded-lex order."""
    return -sum(e), tuple(map(neg, e))


def _scale_shift(e: tuple, c: GaussianRational, T: dict, order: int) -> dict:
    """`{e: c} * T` truncated to total degree <= order (order < 0: none).
    `divexact` shifts down with an e of negated exponents, and up by each
    quotient exponent of its reduction."""
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
    """(width, weights), the one packed layout, for exponent fields of at
    most `top`: the total degree in the top field, then x0 down to the last
    variable, so that e . weights packs e and keys sort in graded-lex order.
    For order <= top a key is below (order + 1) << (width * arity) iff its
    degree is <= order.  Each field has one bit above those `top` needs, so
    adding two keys never carries between fields."""
    width = top.bit_length() + 1
    shift = width * arity
    weights = tuple([(1 << (width * (arity - 1 - i))) + (1 << shift)
                     for i in range(arity)])
    return width, weights


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


@lru_cache(maxsize=8192)
def _exponent(key: int, width: int, arity: int) -> tuple:
    """The exponent tuple of a packed key under `_packing`'s layout of
    field width `width`.  Every kernel decodes through this one cache:
    across calls most keys recur (two seed-0 passes of a benchmark
    workload decode 491-3,875 distinct keys against 16k-38k decodes), and
    the bound stays above those counts."""
    mask = (1 << width) - 1
    return tuple([(key >> s) & mask
                  for s in range(width * (arity - 1), -1, -width)])


def _unpacked(acc: dict, den: int, width: int, arity: int) -> dict:
    """Term dict of an accumulator over `den`: one normalized coefficient
    per nonzero packed key."""
    return {_exponent(k, width, arity): _make(x, y, den)
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


def _summed(items: list, width: int, arity: int) -> dict:
    """Term dict of [(packed key, coefficient)]: the coefficients as they
    are, summed only where keys collide, zero sums dropped, keys in the
    order they first occur."""
    out: dict = {}
    get = out.get
    for p, c in items:
        prev = get(p)
        out[p] = c if prev is None else prev + c
    return {_exponent(p, width, arity): c for p, c in out.items() if c}


def _grouped(items: list, off: int):
    """(lcm denominator, rows) of [(packed key, coefficient)], each key
    less `off`: numerators summed where keys collide, zero sums dropped,
    rows sorted by packed key."""
    den = lcm(*[c.c for _, c in items])
    acc: dict = {}
    get = acc.get
    for p, c in items:
        m = den // c.c
        s = get(p - off)
        if s is None:
            acc[p - off] = [c.a * m, c.b * m]
        else:
            s[0] += c.a * m
            s[1] += c.b * m
    return den, _rows(acc)


def compose_terms(terms: dict, args: list, arity: int, order: int) -> dict:
    """sum_alpha terms[alpha] * prod_i args[i]**alpha[i], truncated to
    total degree <= order: the body of `TruncatedSeries.compose`.

    `terms` is a term dict over len(args) variables, and `args` are term
    dicts of the target arity with no constant term.

    Each argument gets one packed weight under `_packing(arity, order)`.
    A monomial argument's weight is the packed key of its image, a moving
    argument's (one of several terms) one unit of the degree field, and a
    zero argument's the limit (order + 1) << (width * arity).  So each term
    of `terms` is keyed by one dot product: the sum is below the limit iff
    the term survives, since a degree past the order, a field overflowed
    by an image past the order or a zero argument all reach the degree
    field.  The terms are grouped by their exponents beta in the moving
    arguments, and a group's packed key is that sum less |beta| degree
    units.  A scaled monomial's coefficient c enters by cached powers c^k.

    When the group beta = 0 is the only nonzero one, it is the result: its
    coefficients as they are, summed where keys collide, in the order the
    keys first occur.  Otherwise each group becomes (lcm denominator,
    packed rows), and the groups are summed with their powers by Horner's
    rule over the moving arguments, first to last.  The groups are split
    by their exponent b in the first moving argument u that any of them
    uses, and each part G_b, the sum over the remaining arguments of the
    groups with exponent b, is formed the same way.  Since u has valuation
    v >= 1, G_b is needed only to degree order - b*v.  The parts combine as
    H_b = G_b + u * H_(b+1) from the top b down, each product cut to
    degree order - b*v, lower than the one before, with H_(b+1) first put
    over its least denominator by `_reduced`.  The sum is H_0, and no
    power of u is built.
    """
    width, weights = _packing(arity, order)
    shift = width * arity
    limit = (order + 1) << shift
    packed, moving, scaled = [], [], []
    for i, a in enumerate(args):
        if len(a) > 1:
            moving.append(i)
            packed.append(1 << shift)
        elif a:
            (m, c), = a.items()
            packed.append(sum(map(mul, m, weights)))
            if c != ONE:
                scaled.append((i, c))
        else:
            packed.append(limit)
    kept = [(p, alpha, c) for alpha, c in terms.items()
            if (p := sum(map(mul, alpha, packed))) < limit]
    if scaled:
        powers: dict = {}

        def scale(alpha, c):
            for i, mc in scaled:
                k = alpha[i]
                if k:
                    f = powers.get((i, k))
                    if f is None:
                        f = powers[(i, k)] = mc ** k
                    c = c * f
            return c
        kept = [(p, alpha, scale(alpha, c)) for p, alpha, c in kept]
    if not moving:
        return _summed([(p, c) for p, _, c in kept], width, arity)
    beta_of = itemgetter(*moving)
    groups: dict = {}
    for p, alpha, c in kept:
        beta = beta_of(alpha)
        group = groups.get(beta)
        if group is None:
            groups[beta] = [(p, c)]
        else:
            group.append((p, c))
    if len(moving) == 1:  # itemgetter of one index gives no tuple
        groups = {(b,): items for b, items in groups.items()}
    zero = (0,) * len(moving)
    rest = groups.pop(zero, [])
    nonzero = []
    for beta, items in groups.items():
        group = _grouped(items, sum(beta) << shift)
        if group[1]:
            nonzero.append((beta, group))
    if not nonzero:
        return _summed(rest, width, arity)
    group = _grouped(rest, 0)
    if group[1]:
        nonzero.append((zero, group))
    converted = [None] * len(moving)

    def argument(i):
        """(denominator, packed rows, valuation) of the i-th moving
        argument, converted the first time a level needs it."""
        got = converted[i]
        if got is None:
            den, rows = _numerators(args[moving[i]], weights, limit)
            got = converted[i] = (den, rows,
                                  rows[0][0] >> shift if rows else order + 1)
        return got

    def level(items, i, cut):
        """(den, acc): the sum over `items` of group * prod_(j >= i)
        u_j**beta[j] to degree <= cut, as [re, im] numerators over den
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
                d, rows = part[0][1]
                rows = rows[:bisect_left(rows, ((c + 1) << shift,))]
                parts[b] = d, {p: [x, y] for p, x, y in rows}
            else:
                parts[b] = level(part, i + 1, c)
        if not parts:
            return 1, {}
        b = max(parts)
        den, acc = parts.pop(b)
        while b:  # H_b = G_b + u * H_(b+1), accumulated into G_b
            b -= 1
            dh, rows = _reduced(den, _rows(acc))
            dh *= du
            den, acc = parts.get(b) or (1, {})
            if rows:
                den = _add_product(den, acc, dh, rows, ru,
                                   (cut - b * v + 1) << shift)
        return den, acc

    den, acc = level(nonzero, 0, order)
    return _unpacked(acc, den, width, arity)


def pack_parts(parts, arity, top, sign=1):
    """The term dicts `parts` as packed parts for `online_solve`: each one
    (lcm denominator, rows) under `_packing(arity, top)`, its numerators
    times `sign`.  A division negates its divisor's parts here, as
    integers."""
    weights = _packing(arity, top)[1]
    out = []
    for part in parts:
        den, rows = _numerators(part, weights, None)
        if sign != 1:
            rows = [(p, x * sign, y * sign) for p, x, y in rows]
        out.append((den, rows))
    return out


def _reduced(den: int, rows: list):
    """(den, rows) over the least denominator: one gcd over every numerator
    and den, which gives exactly what `_numerators` of the term dict would
    (its lcm denominator is den / gcd, each of its numerators x / gcd)."""
    g = gcd(den, *[x for _, x, _ in rows], *[y for _, _, y in rows])
    if g != 1:
        den //= g
        rows = [(p, x // g, y // g) for p, x, y in rows]
    return den, rows


def online_solve(bases, coeffs, first, last, solve, arity, top):
    """Solve a triangular system for the unknowns x degree by degree,
    on-line (van der Hoeven, JSC 2002): for j = first, ..., last,
    x_j = solve(j, rhs) with

        rhs[r] = bases[r][j] + sum_(c, i >= 1) coeffs[r][c][i-1] * x_(j-i)[c]

    over the parts x_first, ..., x_(j-1) solved before.  `bases[r]` lists
    term dicts by degree, and `coeffs[r][c]` the parts of degree 1, 2, ...
    of a coefficient, made by `pack_parts`: a list that stands at several
    places, as the one negated divisor does on the diagonal of a division
    of many numerators, is packed once.  All exponents are at most `top`.
    Returns [x_first, ..., x_last], each a list of term dicts.

    Every degree stays packed from right-hand side to unknown.  Each
    rhs[r] is one accumulator of [re, im] numerators over a running lcm
    denominator, filled by `_add_product` as `compose_terms` fills its
    levels, and `solve` gets it as a packed part (den, rows).  It returns
    x_j as packed parts, one per unknown, each normalized once by
    `_reduced` (None for an unknown it leaves unsolved, read as zero): the
    solves are `divider`'s and `implicit_step`'s, integer steps of this
    module.  x_j is kept as it is for the later degrees, and each of its
    parts is unpacked once into the returned term dicts, its keys decoded
    by `_exponent`.
    """
    width, weights = _packing(arity, top)
    xs = []  # xs[k][c]: the packed part of unknown c at degree first + k
    for j in range(first, last + 1):
        rhs = []
        for base, row in zip(bases, coeffs):
            den, rows = _numerators(base[j], weights, None)
            acc = {p: [x, y] for p, x, y in rows}
            for c, parts in enumerate(row):
                for i, (dp, rp) in enumerate(parts[:j - first], 1):
                    x = xs[j - first - i][c]
                    if rp and x is not None and x[1]:
                        den = _add_product(den, acc, dp * x[0], x[1], rp,
                                           None)
            rhs.append((den, _rows(acc)))
        xs.append(solve(j, rhs))
    return [[{} if x is None else
              {_exponent(p, width, arity): _make(a, b, x[0])
               for p, a, b in x[1]}
             for x in x_j] for x_j in xs]


def divider(lead: dict, arity: int, top: int):
    """The solve of one degree of a division by the term dict `lead`: a
    function from a packed part f to the normalized packed part f / lead,
    raising `divexact`'s ArithmeticError when lead does not divide f.

    A one-term lead c * x^e is integer work: each key is shifted down by
    e's packed key, and the numerators are scaled by 1/c (not at all for
    c = 1) over a denominator times |c|^2.  A field of f below e's borrows
    in the subtraction and sets that field's spare bit, which no field of
    a divisible term has, so divisibility is read off the spare bits; the
    error names the largest term with one, in graded-lex order.  Any other
    lead unpacks f, divides with `divexact` and packs the quotient again,
    so `divexact` stays the one division by several terms."""
    width, weights = _packing(arity, top)
    if len(lead) != 1:
        def divide(part):
            den, rows = part
            q = divexact({_exponent(p, width, arity): _make(x, y, den)
                          for p, x, y in rows}, lead)
            return _numerators(q, weights, None)
        return divide
    (e, c), = lead.items()
    shift = sum(map(mul, e, weights))
    spare = sum([1 << (width * f - 1) for f in range(1, arity + 2)])
    unit = c == ONE
    # 1/c = c.c * (c.a - i*c.b) / |c|^2 with |c|^2 = c.a^2 + c.b^2
    a, b, norm = c.c * c.a, -c.c * c.b, c.a * c.a + c.b * c.b

    def divide(part):
        den, rows = part
        if shift:
            if any([(p - shift) & spare for p, _, _ in rows]):
                left = max([p for p, _, _ in rows if (p - shift) & spare])
                raise ArithmeticError("remainder at %r" % (
                    _exponent(left, width, arity),))
            rows = [(p - shift, x, y) for p, x, y in rows]
        if not unit:
            rows = [(p, a * x - b * y, a * y + b * x) for p, x, y in rows]
            den *= norm
        return _reduced(den, rows)
    return divide


def implicit_step(rhs: list, inverse: list, block: list) -> list:
    """One degree of an implicit solve: d = -inverse * r for the packed
    right-hand sides r, each part of d normalized once by `_reduced`.
    Raises ArithmeticError unless r + block * d vanishes, checked on the
    integer numerators.  `inverse` and `block` are square matrices of
    `GaussianRational`s; an entry multiplies a part as a product with one
    row at packed key 0, the constant monomial."""
    ds = []
    for row in inverse:
        den, acc = 1, {}
        for (dr, rows), q in zip(rhs, row):
            if q and rows:
                den = _add_product(den, acc, dr * q.c, [(0, -q.a, -q.b)],
                                   rows, None)
        ds.append(_reduced(den, _rows(acc)))
    for (den, rows), row in zip(rhs, block):
        acc = {p: [x, y] for p, x, y in rows}
        for (dd, drows), q in zip(ds, row):
            if q and drows:
                den = _add_product(den, acc, dd * q.c, [(0, q.a, q.b)],
                                   drows, None)
        if _rows(acc):
            raise ArithmeticError("implicit step leaves a residual")
    return ds


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


def evaluate_terms(dicts: list, point) -> list:
    """Exact values of the term dicts `dicts` at `point`, a sequence of
    GaussianRational coordinates: the one evaluator behind
    `TruncatedSeries.evaluate`, `SeriesMap.evaluate` and the rank witness.

    One pass in Gaussian integers shared by all the dicts.  With
    p_i = (a_i + b_i*i)/c_i and t_i the top exponent of variable i over
    every dict, the numerator of p_i^k scaled to the denominator c_i^t_i
    is tabled for every k <= t_i, and each distinct monomial's numerator,
    the product of its powers', is formed once.  Each dict puts its
    coefficients over the lcm L of their denominators and sums their
    products with the monomial numerators over L * prod_i c_i^t_i,
    normalized once."""
    monomials = set().union(*dicts)
    if not monomials:
        return [ZERO] * len(dicts)
    scale = 1
    powers = []
    for i, top in enumerate(map(max, zip(*monomials))):
        if top:
            p = point[i]
            a, b, c = p.a, p.b, p.c
            x, y = c ** top, 0
            row = [(x, y)]
            for _ in range(top):
                x, y = (x * a - y * b) // c, (x * b + y * a) // c
                row.append((x, y))
            powers.append((i, row))
            scale *= row[0][0]
    value = {}
    for e in monomials:
        x, y = 1, 0
        for i, row in powers:
            u, v = row[e[i]]
            x, y = x * u - y * v, x * v + y * u
        value[e] = x, y
    out = []
    for T in dicts:
        den = lcm(*[c.c for c in T.values()])
        re = im = 0
        for e, c in T.items():
            m = den // c.c
            x, y = c.a * m, c.b * m
            u, v = value[e]
            re += x * u - y * v
            im += x * v + y * u
        out.append(_make(re, im, den * scale))
    return out


def divexact(f: dict, g: dict) -> dict:
    """Exact quotient f / g of term dicts (any degrees, no truncation).

    A one-term divisor c * x^e divides term by term: each exponent of f
    minus e is one of the quotient, and each coefficient is f's as it is
    for c = 1, or times 1/c with one normalization per term.  When some
    term of f has a field below e's, the error names the largest such term
    in graded-lex order, the one where the reduction below would stop.  On
    the benchmark's workloads every divisor is one term: Bareiss divides
    only after a pivot that is not 1, and its pivots are the sparsest
    entries left, so a seed-0 `manifest_analyze` pass divides 85 times,
    each by a monic monomial, and `segre_minimality` not at all.  (The
    series divisions divide by a one-term lead with `divider`, on packed
    parts.)

    Any other divisor takes graded-lex reduction on term dicts: each step
    cancels the leading term of the remainder, popped from a heap of its
    exponent tuples.  The quotient term is that coefficient over g's lead,
    and its multiple x^t * g, one `_scale_shift`, is subtracted by
    `iadd_scaled` with one normalization per updated term.  A step pushes
    only the keys it adds, all below the lead it cancels; a popped key no
    longer in the remainder is skipped.  Quotient keys come out in
    descending graded-lex order.  No workload of the benchmark divides by
    several terms, so this branch keeps no packed form of its own.  Raises
    ZeroDivisionError for g = 0 and ArithmeticError, naming the leading
    term left over, when g does not divide f.
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
    glead = min(g, key=_descending)
    lead = g[glead]
    rem = dict(f)
    heap = [(_descending(e), e) for e in rem]
    heapify(heap)
    q: dict = {}
    while rem:
        e = heappop(heap)[1]
        c = rem.get(e)
        if c is None:
            continue
        if any(map(gt, glead, e)):
            raise ArithmeticError("remainder at %r" % (e,))
        t = tuple(map(sub, e, glead))
        z = q[t] = c / lead
        step = _scale_shift(t, ONE, g, -1)
        for k in step:
            if k not in rem:
                heappush(heap, (_descending(k), k))
        iadd_scaled(rem, step, -z)
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
