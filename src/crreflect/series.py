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

from math import factorial, lcm

from .context import (VariableContext, multidegrees, unit_exponent,
                      zero_exponent)
from .gaussian import (GaussianRational, MINUS_ONE, ONE, ZERO, _coerce,
                       _norm)
from .kernels import (_add_product, _make as _normalized, _numerators,
                      _packing, _unpacked, compose_terms, divexact, echelon,
                      iadd_scaled, mul_terms)


class SeriesError(ValueError):
    pass


# Each bounded entry point's rule, bound -> (least value, spend): the bound
# plus the precision its deepest step spends beyond it is at most the input's
# order.  A spend that names a bound spends its value; None spends nothing.
# "order" is the input's order itself, with the least its first step needs.
PRECISION_BUDGET = {
    "classify_manifold": {"kmax": (1, 1), "dmax": (0, None)},
    "classify_map_cr": {"order": (1, None), "dmax": (0, None)},
    "psi_table": {"beta_max": (0, 0)},
    "psi_and_h_conditions": {"kmax": (1, 1)},
    "ideal_contains_power_of_maximal": {"dmax": (0, None)},
    "holomorphic_degeneracy_field": {"order": (1, None), "dmax": (0, None)},
    "reflection_components": {"gmax": (0, 0)},
    "reflection_identities": {"beta_max": (0, 0)},
    "q_jbeta_cramer": {"order": (1, None), "beta_max": (0, 0)},
    "forward_expansion": {"bmax": (0, None)},
    "invert_expansion": {"bmax": (0, None)},
    "transversality_kernel": {"degree": (0, None), "nwork": (0, 0)},
    "resolve_finitely_nondeg": {"ell0": (0, 1)},
    "jet_identity_report": {"ell": (0, "ell0")},
    "composed_jet_table": {"depth": (0, 0)},
    "chain": {"k": (1, None)},
    "minimality": {"kmax": (2, None)},
    "segre_jet_map": {"k": (0, 0)},
    "complexify_and_graph": {"order": (1, None)},
}


def check_budget(entry: str, order, **bounds) -> None:
    """Raise SeriesError, before any work, when a bound breaks the rule of
    `entry` in PRECISION_BUDGET for an input of order `order`."""
    for name, (least, spend) in PRECISION_BUDGET[entry].items():
        value = order if name == "order" else bounds[name]
        if value < least:
            raise SeriesError("%s must be non-negative" % name if least == 0
                              else "%s must be at least %d" % (name, least))
        if spend is None:
            continue
        cost = bounds[spend] if isinstance(spend, str) else spend
        if value + cost > order:
            raise SeriesError("%s%s exceeds the truncation order"
                              % (name, " + %s" % spend if spend else ""))


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

    def _plus(self, other, coeff):
        """self + coeff * other in one pass, at the lesser order."""
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.context, self.order, other)
        self._check_compatible(other)
        order = min(self.order, other.order)
        out = {e: c for e, c in self.terms.items() if sum(e) <= order}
        iadd_scaled(out, {e: c for e, c in other.terms.items() if sum(e) <= order},
                    coeff)
        return TruncatedSeries._make(self.context, order, out)

    def __add__(self, other):
        return self._plus(other, ONE)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._make(self.context, self.order,
                                     {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, MINUS_ONE)

    def __rsub__(self, other):
        return TruncatedSeries.constant(self.context, self.order,
                                        other)._plus(self, MINUS_ONE)

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
                out[ne] = c if k == 1 else _normalized(c.a * k, c.b * k, c.c)
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
        `kernels.compose_terms` sums group_beta * u^beta in numerator form,
        by Horner's rule over the moving arguments: each one is converted
        once, the partial sums stay Gaussian-integer numerators over common
        denominators, and each output term is normalized once.
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
        if not self.constant_term():
            raise SeriesError("cannot invert: zero constant term")
        one = TruncatedSeries.constant(self.context, self.order, ONE)
        return divide_with_valuation(one, self)[0]

    def __rtruediv__(self, other):
        return self.invert_unit() * other

    def evaluate(self, point):
        """Exact value of the stored polynomial at a point of Q(i)^n.

        `point` is a sequence of coordinates, or a dict keyed by variable
        name; entries are anything a coefficient can be.  One pass over the
        terms in Gaussian integers: with p_i = (a_i + b_i*i)/c_i and t_i
        the top exponent of variable i, the numerator of p_i^k scaled to
        the denominator c_i^t_i is cached for every k <= t_i, each
        coefficient is put over the lcm L of the coefficient denominators,
        and each term adds the product of its numerators to one running sum
        over L * prod_i c_i^t_i.  The sum is normalized once at the end.
        """
        if isinstance(point, dict):
            point = [point[n] for n in self.context.names]
        point = [_coeff(p) for p in point]
        terms = self.terms
        if not terms:
            return ZERO
        den = lcm(*[c.c for c in terms.values()])
        total_den = den
        powers = []
        for i, top in enumerate(map(max, zip(*terms))):
            if top:
                a, b, c = point[i].a, point[i].b, point[i].c
                x, y = c ** top, 0
                row = [(x, y)]
                for _ in range(top):
                    x, y = (x * a - y * b) // c, (x * b + y * a) // c
                    row.append((x, y))
                powers.append((i, row))
                total_den *= row[0][0]
        re = im = 0
        for e, c in terms.items():
            scale = den // c.c
            x, y = c.a * scale, c.b * scale
            for i, row in powers:
                u, v = row[e[i]]
                x, y = x * u - y * v, x * v + y * u
            re += x
            im += y
        return GaussianRational._raw(*_norm(re, im, total_den))

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


def jacobian_at_zero(components, variables):
    """[[d c / d x_i at 0 for i in variables] for c in components], read off
    the degree-1 coefficients without differentiating.  Like `derive`, it
    raises on a series of order 0."""
    rows = []
    for c in components:
        if variables and c.order < 1:
            raise SeriesError("no precision left to differentiate")
        arity = c.context.arity
        rows.append([c.terms.get(unit_exponent(arity, i), ZERO)
                     for i in variables])
    return rows


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
    if ell < 0:
        raise SeriesError("jet order must be non-negative")
    if ell > F.order:
        raise SeriesError("jet order %d exceeds series order %d" % (ell, F.order))
    out_order = F.order - ell
    comps = []
    for f in F.components:
        for alpha in multidegrees(F.arity, ell):
            comps.append(f.derive_multi(alpha).truncated(out_order))
    return SeriesMap(comps)


def by_degree(terms: dict, k: int) -> list:
    """The degree parts 0..k of a term dict; terms above degree k are
    dropped."""
    parts = [{} for _ in range(k + 1)]
    for e, c in terms.items():
        d = sum(e)
        if d <= k:
            parts[d][e] = c
    return parts


def divide_with_valuation(num: TruncatedSeries, den: TruncatedSeries):
    """Exact division of truncated series.

    The working order is min(num.order, den.order).  Returns (quotient,
    lost_order) where lost_order is the valuation of the denominator within
    it; the quotient is exact to degree order - lost_order.  Raises if the
    denominator vanishes to the working order or the division leaves a
    remainder within provable degrees.

    Degree by degree: with mu that valuation and d_k, n_k, q_k the
    degree-k parts, split off once by `by_degree`, q_s = (n_(mu+s) -
    sum_(1 <= l <= s) q_(s-l) d_(mu+l)) / d_mu, and the quotient of that
    polynomial division by the lead d_mu is `divexact`'s, term by term for
    a one-term lead.  Every d_k and every q_s is converted once to packed
    Gaussian-integer rows (the layout of `mul_terms`), and each right-hand
    side is one accumulator of [re, im] numerators over a running lcm
    denominator, filled by `_product` as `compose_terms` fills its levels;
    each of its terms is normalized once, with no `mul_terms` product and
    no `iadd_scaled` pass.  Every product stays within degree mu + s, so no
    truncation is needed.
    """
    num._check_compatible(den)
    order = min(num.order, den.order)
    d_parts = by_degree(den.terms, order)
    mu = next((k for k, part in enumerate(d_parts) if part), None)
    if mu is None:
        raise SeriesError("division by a series that is zero to its order")
    n_parts = by_degree(num.terms, order)
    if any(n_parts[:mu]):
        raise SeriesError("numerator valuation below denominator valuation")
    arity = num.context.arity
    width, weights = _packing(arity, order)
    lead = d_parts[mu]
    # d_rows[l - 1] and minus_q[s] are d_(mu+l) and -q_s in packed rows
    d_rows = [_numerators(part, weights, None) for part in d_parts[mu + 1:]]
    minus_q = []
    out: dict = {}
    for s in range(order - mu + 1):
        total, rows = _numerators(n_parts[mu + s], weights, None)
        acc = {p: [x, y] for p, x, y in rows}
        for l in range(1, s + 1):
            dd, rd = d_rows[l - 1]
            dq, rq = minus_q[s - l]
            if rd and rq:
                total = _add_product(total, acc, dq * dd, rq, rd, None)
        try:
            q = divexact(_unpacked(acc, total, width, arity), lead)
        except ArithmeticError as exc:
            raise SeriesError("series not divisible (%s)" % exc) from None
        out.update(q)
        dq, rq = _numerators(q, weights, None)
        minus_q.append((dq, [(p, -x, -y) for p, x, y in rq]))
    return TruncatedSeries._make(num.context, order - mu, out), mu


def formal_ift(F: SeriesMap, unknowns) -> SeriesMap:
    """Solve F(x, u) = 0 for the `unknowns` u as series in the free variables.

    Requirements: F(0) = 0, as many equations as unknowns, and the constant
    Jacobian block J = dF/du(0) invertible.  The solution is the unique one
    with u(0) = 0, lifted by precision doubling (Brent & Kung, J. ACM 1978):
    from u = 0 at precision 0 through the precisions ..., N // 4, N // 2,
    N, with N the working order.  The step from a solution u to precision
    h to precision n (h = n // 2) composes G = F(x, u) once to order n,
    which must have no term of degree <= h, and P = dF/du(x, u) to order
    n - h - 1; the partials of F are taken once per solve.  Since
    F(x, u + d) = G + P d + O(d^2) and a correction d of valuation h + 1
    has d^2 of valuation 2h + 2 > n, the degrees h < j <= n of d are solved
    on-line, one after the other (van der Hoeven, JSC 2002):
    d_j = -J^{-1} r_j with r_j = G_j + sum_(1 <= i < j - h) (P - J)_i
    d_(j-i), and r_j + J d_j must vanish.  Given the correction's products,
    the two checks prove F(x, u) = 0 to the working order without composing
    again; the next step's composition rechecks them, except at the last
    step.  Each right-hand side is one packed accumulator, as in
    `divide_with_valuation`: every degree part of P and every d_j is
    converted to packed rows once, and each r_j is normalized once.

    The schedule is read off F.  If no term of F has total degree >= 2 in
    the unknowns, then F(x, u + d) = G + P d holds exactly, with P = dF/du
    free of u: there is no d^2 term for the doubling to keep past the
    precision, so the one step 0 -> N solves every degree, with the same
    two checks.  Otherwise the precisions double as above.  At order 0
    there is no step.
    """
    ctx_all = F.context
    unk = [u if isinstance(u, int) else ctx_all.index(u) for u in unknowns]
    if len(unk) != len(F.components):
        raise SeriesError("need exactly one equation per unknown")
    if any(F.constant_terms()):
        raise SeriesError("system does not vanish at the origin")
    pos = {i: j for j, i in enumerate(unk)}
    free = [i for i in range(ctx_all.arity) if i not in pos]
    free_ctx = VariableContext(tuple(ctx_all.names[i] for i in free))
    order = F.order

    block = jacobian_at_zero(F.components, unk)
    try:
        inv_block = invert_matrix(block)
    except ZeroDivisionError:
        raise SeriesError("implicit function hypothesis fails: "
                          "constant linear block is singular")

    unverified = "internal: implicit solve failed to verify"
    arity = free_ctx.arity
    width, weights = _packing(arity, order)
    partials = [[c.derive(i) for i in unk] for c in F.components]
    sol = [{} for _ in unk]

    def composed(series, k):
        """Each of `series` composed with (x, u) to order k."""
        args = [TruncatedSeries._make(
                    free_ctx, k, {e: c for e, c in sol[pos[i]].items()
                                  if sum(e) <= k}) if i in pos
                else TruncatedSeries.variable(free_ctx, k, name)
                for i, name in enumerate(ctx_all.names)]
        return [f.truncated(k).compose(args).terms for f in series]

    halvings = [order >> s for s in range(order.bit_length())]
    if all(sum(e[i] for i in unk) <= 1
           for f in F.components for e in f.terms):
        halvings = halvings[:1]  # F is affine in u: one step 0 -> N
    h = 0
    for n in reversed(halvings):
        g = [by_degree(t, n) for t in composed(F.components, n)]
        if any(parts[k] for parts in g for k in range(h + 1)):
            raise SeriesError(unverified)
        # p_rows[r][c][i - 1]: the degree-i part of P_rc in packed rows
        p_rows = [[[_numerators(part, weights, None)
                    for part in by_degree(t, n - h - 1)[1:]]
                   for t in composed(row, n - h - 1)]
                  for row in partials] if n - h > 1 else None
        d_rows = [{} for _ in unk]  # d_rows[c][j]: d_j of u_c, packed
        for j in range(h + 1, n + 1):
            rhs = []
            for r, parts in enumerate(g):
                total, rows = _numerators(parts[j], weights, None)
                acc = {p: [x, y] for p, x, y in rows}
                for c, deltas in enumerate(d_rows):
                    for i in range(1, j - h):
                        dp, rp = p_rows[r][c][i - 1]
                        dd, rd = deltas[j - i]
                        if rp and rd:
                            total = _add_product(total, acc, dp * dd, rp, rd,
                                                 None)
                rhs.append(_unpacked(acc, total, width, arity))
            ds = []
            for row in inv_block:
                d: dict = {}
                for t, coeff in zip(rhs, row):
                    iadd_scaled(d, t, -coeff)
                ds.append(d)
            for t, row in zip(rhs, block):
                residual = dict(t)
                for d, coeff in zip(ds, row):
                    iadd_scaled(residual, d, coeff)
                if residual:
                    raise SeriesError(unverified)
            for terms, deltas, d in zip(sol, d_rows, ds):
                terms.update(d)
                deltas[j] = _numerators(d, weights, None)
        h = n
    return SeriesMap([TruncatedSeries._make(free_ctx, order, t) for t in sol])


def invert_matrix(m):
    """Exact inverse of a square GaussianRational matrix; raises
    ZeroDivisionError if it is singular."""
    n = len(m)
    pivots, reduced = echelon(
        [{**dict(enumerate(map(_coeff, row))), n + i: ONE}
         for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [[row.get(n + j, ZERO) for j in range(n)] for row in reduced]


def factorial_multi(alpha) -> int:
    out = 1
    for k in alpha:
        out *= factorial(k)
    return out
