"""Truncated multivariate formal power series over the Gaussian rationals.

A :class:`TruncatedSeries` stores the exact coefficients of a formal power
series up to a total degree bound (its *order*).  The order doubles as a
precision certificate: coefficients of total degree <= order are exact,
nothing is known beyond.  Operations that lose precision (differentiation,
division by a non-unit) return results with a correspondingly smaller order.

Everything is immutable by convention: no public operation mutates a series
in place, so values can be shared freely across threads and memo tables.
"""

from __future__ import annotations

from math import factorial

from .context import (VariableContext, multidegrees, unit_exponent,
                      zero_exponent)
from .gaussian import GaussianRational, ONE, ZERO, _coerce
from .kernels import (compose_terms, divexact, echelon, iadd_scaled,
                      mul_terms)


class SeriesError(ValueError):
    pass


def _coeff(value) -> GaussianRational:
    c = _coerce(value)
    if c is NotImplemented:
        raise TypeError("cannot use %r as a series coefficient" % (value,))
    return c


class TruncatedSeries:
    __slots__ = ("context", "order", "terms")

    def __init__(self, context: VariableContext, order: int, terms=None):
        if order < 0:
            raise SeriesError("order must be non-negative")
        clean = {}
        arity = context.arity
        for e, c in (terms or {}).items():
            if len(e) != arity:
                raise SeriesError("exponent %r has wrong arity for %r" % (e, context))
            if sum(e) > order:
                continue
            c = _coeff(c)
            if c:
                clean[tuple(e)] = c
        self.context = context
        self.order = order
        self.terms = clean

    @classmethod
    def _make(cls, context, order, terms) -> "TruncatedSeries":
        """Internal fast path: `terms` is already clean (no zeros, degrees ok)."""
        self = object.__new__(cls)
        self.context = context
        self.order = order
        self.terms = terms
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, context, order):
        return cls._make(context, order, {})

    @classmethod
    def constant(cls, context, order, value):
        c = _coeff(value)
        if not c:
            return cls.zero(context, order)
        return cls._make(context, order, {zero_exponent(context.arity): c})

    @classmethod
    def variable(cls, context, order, name):
        i = context.index(name)
        if order < 1:
            return cls.zero(context, order)
        return cls._make(context, order, {unit_exponent(context.arity, i): ONE})

    @classmethod
    def monomial(cls, context, order, exponent, value=ONE):
        return cls(context, order, {tuple(exponent): value})

    # -- inspection --------------------------------------------------------

    def coefficient(self, exponent) -> GaussianRational:
        return self.terms.get(tuple(exponent), ZERO)

    def constant_term(self) -> GaussianRational:
        return self.terms.get(zero_exponent(self.context.arity), ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def valuation(self):
        """Smallest total degree with a nonzero coefficient; None if zero."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def degree_part(self, k: int) -> dict:
        return {e: c for e, c in self.terms.items() if sum(e) == k}

    def support_variables(self):
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

    # -- structural helpers --------------------------------------------------

    def truncated(self, order: int) -> "TruncatedSeries":
        """Restrict knowledge to a smaller order (never raises precision)."""
        if order >= self.order:
            return self
        return TruncatedSeries._make(
            self.context, order,
            {e: c for e, c in self.terms.items() if sum(e) <= order})

    def remapped(self, target: VariableContext, name_map=None) -> "TruncatedSeries":
        """Transport into `target`, renaming variables via {old: new}.

        Only variables that actually occur need an image in the target.
        """
        name_map = name_map or {}
        used = self.support_variables()
        positions = {}
        for i in used:
            n = self.context.names[i]
            positions[i] = target.index(name_map.get(n, n))
        arity = target.arity
        out = {}
        for e, c in self.terms.items():
            ne = [0] * arity
            for i, x in enumerate(e):
                if x:
                    ne[positions[i]] += x
            out[tuple(ne)] = c
        return TruncatedSeries._make(target, self.order, out)

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other):
        if self.context != other.context:
            raise SeriesError("context mismatch: %r vs %r"
                              % (self.context, other.context))

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self + TruncatedSeries.constant(self.context, self.order, other)
        self._check_compatible(other)
        order = min(self.order, other.order)
        out = {e: c for e, c in self.terms.items() if sum(e) <= order}
        iadd_scaled(out, {e: c for e, c in other.terms.items() if sum(e) <= order}, ONE)
        return TruncatedSeries._make(self.context, order, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._make(self.context, self.order,
                                     {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self - TruncatedSeries.constant(self.context, self.order, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = _coeff(other)
            if not c:
                return TruncatedSeries.zero(self.context, self.order)
            return TruncatedSeries._make(
                self.context, self.order,
                {e: v * c for e, v in self.terms.items()})
        self._check_compatible(other)
        order = min(self.order, other.order)
        return TruncatedSeries._make(self.context, order,
                                     mul_terms(self.terms, other.terms, order))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise SeriesError("series powers need a non-negative integer")
        out = TruncatedSeries.constant(self.context, self.order, ONE)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.context == other.context and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.context, self.order, frozenset(self.terms.items())))

    # -- calculus -------------------------------------------------------------

    def conjugate(self) -> "TruncatedSeries":
        """Conjugate the coefficients only (an involution)."""
        return TruncatedSeries._make(
            self.context, self.order,
            {e: c.conjugate() for e, c in self.terms.items()})

    def conjugate_swapped(self, name_map, target=None) -> "TruncatedSeries":
        """Coefficient conjugation combined with a variable renaming; this is
        how a defining series and its barred partner are exchanged."""
        return self.conjugate().remapped(target or self.context, name_map)

    def derive(self, var) -> "TruncatedSeries":
        """Partial derivative; costs one order of precision."""
        i = var if isinstance(var, int) else self.context.index(var)
        order = self.order - 1
        if order < 0:
            raise SeriesError("no precision left to differentiate")
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                ne = e[:i] + (k - 1,) + e[i + 1:]
                out[ne] = c * k
        return TruncatedSeries._make(self.context, order, out)

    def derive_multi(self, exponent) -> "TruncatedSeries":
        f = self
        for i, k in enumerate(exponent):
            for _ in range(k):
                f = f.derive(i)
        return f

    def integrate(self, var) -> "TruncatedSeries":
        """Antiderivative with zero constant term (exponent shifts up)."""
        i = var if isinstance(var, int) else self.context.index(var)
        order = self.order + 1
        out = {}
        for e, c in self.terms.items():
            ne = e[:i] + (e[i] + 1,) + e[i + 1:]
            out[ne] = c / (e[i] + 1)
        return TruncatedSeries._make(self.context, order, out)

    def compose(self, args) -> "TruncatedSeries":
        """Substitute one series per context variable.

        Every argument must have zero constant term (otherwise the truncated
        data of `self` does not determine the result).  Arguments with at
        most one term (variables, renamed or scaled monomials, zero) act on
        the exponents of `self` directly.  The terms of `self` are grouped
        by their exponents beta in the remaining ("moving") arguments u, and
        `kernels.compose_terms` sums group_beta * u^beta in numerator form:
        each moving argument is converted once, the powers and the sum stay
        Gaussian-integer numerators over common denominators, and each
        output term is normalized once.
        """
        if isinstance(args, SeriesMap):
            args = args.components
        args = list(args)
        if len(args) != self.context.arity:
            raise SeriesError("need %d arguments, got %d"
                              % (self.context.arity, len(args)))
        if not args:
            return self
        target = args[0].context
        order = self.order
        for a in args:
            if a.context != target:
                raise SeriesError("composition arguments disagree on context")
            if a.constant_term():
                raise SeriesError("composition argument has nonzero constant term")
            order = min(order, a.order)

        moving = [i for i, a in enumerate(args) if len(a.terms) > 1]
        dropped = [i for i, a in enumerate(args) if not a.terms]
        # monomial arguments: (index, [(position, exponent)], degree, coeff)
        monos = []
        for i, a in enumerate(args):
            if len(a.terms) == 1:
                (m, c), = a.terms.items()
                monos.append((i, [(p, x) for p, x in enumerate(m) if x],
                              sum(m), None if c == ONE else c))
        scale_powers: dict = {}
        groups: dict = {}
        for alpha, c in self.terms.items():
            if any(alpha[i] for i in dropped):
                continue
            beta = tuple([alpha[i] for i in moving])
            deg = sum(beta)
            shifted = [0] * target.arity
            for i, places, mdeg, mc in monos:
                k = alpha[i]
                if k:
                    deg += k * mdeg
                    for p, x in places:
                        shifted[p] += k * x
                    if mc is not None:
                        f = scale_powers.get((i, k))
                        if f is None:
                            f = scale_powers[(i, k)] = mc ** k
                        c = c * f
            if deg > order:
                continue
            e = tuple(shifted)
            group = groups.get(beta)
            if group is None:
                groups[beta] = {e: c}
            else:
                prev = group.get(e)
                group[e] = c if prev is None else prev + c

        out = compose_terms(groups, [args[i].terms for i in moving],
                            target.arity, order)
        return TruncatedSeries._make(target, order, out)

    def substitute(self, replacements, target=None) -> "TruncatedSeries":
        """Compose where only some variables change.

        `replacements` maps variable names to series over `target` (default:
        this context).  Untouched variables go to themselves.
        """
        target = target or self.context
        order = self.order
        for s in replacements.values():
            order = min(order, s.order)
        args = []
        for n in self.context.names:
            if n in replacements:
                args.append(replacements[n])
            else:
                args.append(TruncatedSeries.variable(target, order, n))
        return self.compose(args)

    def invert_unit(self) -> "TruncatedSeries":
        """Multiplicative inverse of a series with nonzero constant term."""
        c0 = self.constant_term()
        if not c0:
            raise SeriesError("cannot invert: zero constant term")
        inv0 = c0.inverse()
        u = (self * inv0) - ONE
        acc = TruncatedSeries.constant(self.context, self.order, ONE)
        for _ in range(self.order):
            acc = ONE - (u * acc)
        return acc * inv0

    def __rtruediv__(self, other):
        return self.invert_unit() * other

    def evaluate(self, point):
        """Exact value of the stored polynomial at a rational point."""
        if isinstance(point, dict):
            point = [point[n] for n in self.context.names]
        point = [_coeff(p) for p in point]
        cache = [{0: ONE} for _ in point]

        def pw(i, k):
            got = cache[i].get(k)
            if got is None:
                got = pw(i, k - 1) * point[i]
                cache[i][k] = got
            return got

        total = ZERO
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * pw(i, k)
            total = total + v
        return total

    def coefficient_table(self, var_names):
        """Group terms by the exponents of `var_names`.

        Returns {exponent-of-selected-vars: series in the remaining
        variables}; the piece for exponent gamma is exact to degree
        order - |gamma| in the remaining variables.
        """
        sel = [self.context.index(n) for n in var_names]
        keep = [i for i in range(self.context.arity) if i not in set(sel)]
        rest_ctx = VariableContext(tuple(self.context.names[i] for i in keep))
        buckets: dict = {}
        for e, c in self.terms.items():
            g = tuple(e[i] for i in sel)
            r = tuple(e[i] for i in keep)
            buckets.setdefault(g, {})[r] = c
        return {
            g: TruncatedSeries._make(rest_ctx, self.order - sum(g), t)
            for g, t in buckets.items()
        }

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return "<series order=%d %s>" % (self.order, format_series(self, limit=6))


def format_coefficient(c: GaussianRational) -> str:
    """Render a coefficient in the grammar the expression parser accepts."""
    re, im = c.re, c.im
    if im == 0:
        return str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return "%s*i" % im
    return "(%s%s%s*i)" % (re, "+" if im >= 0 else "-", abs(im))


def format_series(f: TruncatedSeries, limit=None) -> str:
    if not f.terms:
        return "0"
    keys = sorted(f.terms, key=lambda e: (sum(e), e))
    if limit is not None and len(keys) > limit:
        keys = keys[:limit]
        suffix = " + ..."
    else:
        suffix = ""
    parts = []
    for e in keys:
        c = f.terms[e]
        factors = []
        for name, k in zip(f.context.names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append("%s^%d" % (name, k))
        cs = format_coefficient(c)
        if factors:
            if cs == "1":
                body = "*".join(factors)
            elif cs == "-1":
                body = "-" + "*".join(factors)
            else:
                body = "*".join([cs] + factors)
        else:
            body = cs
        parts.append(body)
    text = parts[0]
    for p in parts[1:]:
        text += " - " + p[1:] if p.startswith("-") else " + " + p
    return text + suffix


class SeriesMap:
    """A tuple of series sharing one context and order."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise SeriesError("a series map needs at least one component")
        c0 = components[0]
        for c in components[1:]:
            if c.context != c0.context:
                raise SeriesError("map components disagree on context")
            if c.order != c0.order:
                raise SeriesError("map components disagree on order")
        self.components = components

    @classmethod
    def identity(cls, context, order):
        return cls([TruncatedSeries.variable(context, order, n)
                    for n in context.names])

    @property
    def context(self):
        return self.components[0].context

    @property
    def order(self):
        return self.components[0].order

    @property
    def arity(self):
        return self.context.arity

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other):
        return isinstance(other, SeriesMap) and self.components == other.components

    def truncated(self, order):
        return SeriesMap([c.truncated(order) for c in self.components])

    def conjugate(self):
        return SeriesMap([c.conjugate() for c in self.components])

    def compose(self, args):
        return SeriesMap([c.compose(args) for c in self.components])

    def substitute(self, replacements, target=None):
        return SeriesMap([c.substitute(replacements, target)
                          for c in self.components])

    def remapped(self, target, name_map=None):
        return SeriesMap([c.remapped(target, name_map) for c in self.components])

    def evaluate(self, point):
        return [c.evaluate(point) for c in self.components]

    def constant_terms(self):
        return [c.constant_term() for c in self.components]

    def jacobian(self):
        """Matrix of partials: rows = components, columns = variables."""
        return [[c.derive(i) for i in range(self.arity)]
                for c in self.components]

    def __repr__(self):
        return "SeriesMap(%d components, order %d, %s)" % (
            len(self.components), self.order, self.context)


def mul_precise(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Product with valuation-aware precision.

    If a is exact to degree p and b has valuation v, the unknown tail of a
    only pollutes degrees above p+v; the product is therefore exact to
    min(a.order + val(b), b.order + val(a)), which can exceed both inputs'
    orders.  A factor that is zero to its order p vanishes to degree p + 1
    at least, so p + 1 stands in for its valuation.  The stored terms
    suffice to compute the product.
    """
    a._check_compatible(b)
    va = a.valuation() if a.terms else a.order + 1
    vb = b.valuation() if b.terms else b.order + 1
    order = min(a.order + vb, b.order + va)
    return TruncatedSeries._make(a.context, order,
                                 mul_terms(a.terms, b.terms, order))


def jet(F: SeriesMap, ell: int) -> SeriesMap:
    """All partial derivatives of order <= ell, one block per component.

    Component order is canonical: for each component, multidegrees ascending
    by total degree then lexicographically.  Every jet entry is truncated to
    the common surviving precision (order - ell).
    """
    if ell > F.order:
        raise SeriesError("jet order %d exceeds series order %d" % (ell, F.order))
    out_order = F.order - ell
    comps = []
    for f in F.components:
        for alpha in multidegrees(F.arity, ell):
            comps.append(f.derive_multi(alpha).truncated(out_order))
    return SeriesMap(comps)


def divide_with_valuation(num: TruncatedSeries, den: TruncatedSeries):
    """Exact division of truncated series.

    Returns (quotient, lost_order) where lost_order is the valuation of the
    denominator; the quotient is exact to degree num.order - lost_order.
    Raises if the denominator vanishes identically or the division leaves a
    remainder within provable degrees.
    """
    num._check_compatible(den)
    order = min(num.order, den.order)
    mu = den.valuation()
    if mu is None:
        raise SeriesError("division by a series that is zero to its order")
    for e in num.terms:
        if sum(e) < mu:
            raise SeriesError("numerator valuation below denominator valuation")
    d_parts = [den.degree_part(k) for k in range(order + 1)]
    lead = d_parts[mu]
    q_parts = []
    for s in range(order - mu + 1):
        rhs = dict(num.degree_part(mu + s))
        for l in range(1, s + 1):
            if d_parts[mu + l]:
                prod = mul_terms(q_parts[s - l], d_parts[mu + l], order)
                iadd_scaled(rhs, prod, -ONE)
        try:
            q_parts.append(divexact(rhs, lead))
        except ArithmeticError as exc:
            raise SeriesError("series not divisible (%s)" % exc) from None
    out: dict = {}
    for qp in q_parts:
        out.update(qp)
    return TruncatedSeries._make(num.context, order - mu, out), mu


def formal_ift(F: SeriesMap, unknowns) -> SeriesMap:
    """Solve F(x, u) = 0 for the `unknowns` u as series in the free variables.

    Requirements: F(0) = 0, as many equations as unknowns, and the constant
    Jacobian block dF/du(0) invertible.  The solution is produced degree by
    degree and is the unique one with u(0) = 0; it is verified by
    substitution before being returned.
    """
    ctx_all = F.context
    unk = [u if isinstance(u, int) else ctx_all.index(u) for u in unknowns]
    if len(unk) != len(F.components):
        raise SeriesError("need exactly one equation per unknown")
    if any(F.constant_terms()):
        raise SeriesError("system does not vanish at the origin")
    unk_set = set(unk)
    free = [i for i in range(ctx_all.arity) if i not in unk_set]
    free_ctx = VariableContext(tuple(ctx_all.names[i] for i in free))
    order = F.order

    block = [[F.components[r].derive(u).constant_term() for u in unk]
             for r in range(len(unk))]
    try:
        inv_block = invert_matrix(block)
    except ZeroDivisionError:
        raise SeriesError("implicit function hypothesis fails: "
                          "constant linear block is singular")

    sol = [TruncatedSeries.zero(free_ctx, order) for _ in unk]
    for k in range(1, order + 1):
        args = []
        pos = {i: j for j, i in enumerate(unk)}
        for i, name in enumerate(ctx_all.names):
            if i in unk_set:
                args.append(sol[pos[i]].truncated(k))
            else:
                args.append(TruncatedSeries.variable(free_ctx, k, name))
        g = [c.truncated(k).compose(args).degree_part(k) for c in F.components]
        for j in range(len(unk)):
            part: dict = {}
            for r in range(len(unk)):
                iadd_scaled(part, g[r], -inv_block[j][r])
            if part:
                upd = dict(sol[j].terms)
                upd.update(part)
                sol[j] = TruncatedSeries._make(free_ctx, order, upd)

    args = []
    pos = {i: j for j, i in enumerate(unk)}
    for i, name in enumerate(ctx_all.names):
        args.append(sol[pos[i]] if i in unk_set
                    else TruncatedSeries.variable(free_ctx, order, name))
    for c in F.components:
        if c.compose(args):
            raise SeriesError("internal: implicit solve failed to verify")
    return SeriesMap(sol)


def invert_matrix(m):
    """Exact inverse of a square GaussianRational matrix; raises
    ZeroDivisionError if it is singular."""
    n = len(m)
    pivots, reduced = echelon(
        [[_coeff(x) for x in row] + [ONE if i == j else ZERO for j in range(n)]
         for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in reduced]


def factorial_multi(alpha) -> int:
    out = 1
    for k in alpha:
        out *= factorial(k)
    return out
