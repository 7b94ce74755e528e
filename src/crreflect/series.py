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
from .gaussian import GaussianRational, MINUS_ONE, ONE, ZERO, _coerce
from .kernels import (_make as _normalized, compose_terms, divider, echelon,
                      evaluate_terms, iadd_scaled, implicit_step, mul_terms,
                      online_solve, pack_parts)


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


def _check_order(order: int) -> None:
    if order < 0:
        raise SeriesError("order must be non-negative")


def _point(context, point) -> list:
    """The coordinates of `point`, a sequence or a dict keyed by the names
    of `context`, as coefficients."""
    if isinstance(point, dict):
        point = [point[n] for n in context.names]
    return [_coeff(p) for p in point]


def _coeff(value) -> GaussianRational:
    c = _coerce(value)
    if c is NotImplemented:
        raise TypeError("cannot use %r as a series coefficient" % (value,))
    return c


class TruncatedSeries:
    __slots__ = ("context", "order", "terms")

    def __init__(self, context: VariableContext, order: int, terms=None):
        _check_order(order)
        clean = {}
        arity = context.arity
        for e, c in (terms or {}).items():
            if len(e) != arity:
                raise SeriesError("exponent %r has wrong arity for %r" % (e, context))
            if min(e, default=0) < 0:
                raise SeriesError("exponent %r has a negative entry" % (e,))
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
        _check_order(order)
        return cls._make(context, order, {})

    @classmethod
    def constant(cls, context, order, value):
        _check_order(order)
        c = _coeff(value)
        if not c:
            return cls.zero(context, order)
        return cls._make(context, order, {zero_exponent(context.arity): c})

    @classmethod
    def variable(cls, context, order, name):
        i = context.index(name)
        if order < 1:  # zero refuses a negative order
            return cls.zero(context, order)
        return cls._make(context, order, {unit_exponent(context.arity, i): ONE})

    @classmethod
    def monomial(cls, context, order, exponent, value=ONE):
        return cls(context, order, {tuple(exponent): value})

    # -- inspection --------------------------------------------------------

    def coefficient(self, exponent) -> GaussianRational:
        exponent = tuple(exponent)
        if len(exponent) != self.context.arity:
            raise SeriesError("exponent %r does not have the arity %d of %r"
                              % (exponent, self.context.arity, self.context))
        return self.terms.get(exponent, ZERO)

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
        Where several of them go to one variable, terms that meet there are
        summed, as `compose` with the same images sums them.
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
            k = tuple(ne)
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        if len(out) < len(self.terms):  # only terms that met can sum to 0
            out = {e: c for e, c in out.items() if c}
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
        exponent = tuple(exponent)
        if len(exponent) != self.context.arity:
            raise SeriesError(
                "derivative order %r does not have the arity %d of %r"
                % (exponent, self.context.arity, self.context))
        if min(exponent, default=0) < 0:
            raise SeriesError("derivative order %r has a negative entry"
                              % (exponent,))
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
        data of `self` does not determine the result).  The terms of `self`
        and of every argument go to `kernels.compose_terms` as they are.
        It groups the terms of `self` on packed keys: arguments with at most
        one term (variables, renamed or scaled monomials, zero) act on those
        keys directly, and the exponents beta in the remaining ("moving")
        arguments u key the groups.  It sums group_beta * u^beta in
        numerator form, by Horner's rule over the moving arguments: each
        one is converted once, the partial sums stay Gaussian-integer
        numerators over common denominators, and each output term is
        normalized once, its key decoded through one bounded cache.
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
        zero = zero_exponent(target.arity)
        order = self.order
        for a in args:
            if a.context != target:
                raise SeriesError("composition arguments disagree on context")
            if a.terms.get(zero):
                raise SeriesError("composition argument has nonzero constant term")
            order = min(order, a.order)

        out = compose_terms(self.terms, [a.terms for a in args],
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
        name; entries are anything a coefficient can be.  The value comes
        from `kernels.evaluate_terms`, one pass in Gaussian integers
        normalized once.
        """
        return evaluate_terms([self.terms], _point(self.context, point))[0]

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
        """The components' values at `point`, as `TruncatedSeries.evaluate`
        takes it, in one `kernels.evaluate_terms` pass that shares the
        point's powers and monomial values."""
        return evaluate_terms([c.terms for c in self.components],
                              _point(self.context, point))

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


def divide_with_valuation(num, den: TruncatedSeries):
    """Exact division of truncated series.

    The working order is min(num.order, den.order).  Returns (quotient,
    lost_order) where lost_order is the valuation of the denominator within
    it; the quotient is exact to degree order - lost_order.  Raises if the
    denominator vanishes to the working order or the division leaves a
    remainder within provable degrees.

    A `SeriesMap` of numerators divides componentwise and returns
    (SeriesMap of quotients, lost_order), with the error the first failing
    component would raise on its own.

    Degree by degree: with mu that valuation and d_k, n_k, q_k the
    degree-k parts, split off once by `by_degree`, q_s = (n_(mu+s) -
    sum_(1 <= l <= s) d_(mu+l) q_(s-l)) / d_mu.  `online_solve` forms each
    right-hand side from the numerator parts and the negated parts
    d_(mu+l), and `divider` divides it by the lead d_mu while it is
    packed: on integers for a one-term lead, with the error `divexact`
    would raise, and through `divexact` for a lead of several terms.
    Each q_s stays packed for the later degrees.  Every product stays
    within degree mu + s, so no truncation is needed.  The denominator is
    split, negated and packed once per call (`pack_parts` negates its
    numerators as integers): the numerators of a map are the rows of one
    diagonal system, each with the same list of negated parts.
    """
    nums = num.components if isinstance(num, SeriesMap) else [num]
    nums[0]._check_compatible(den)
    order = min(nums[0].order, den.order)
    d_parts = by_degree(den.terms, order)
    mu = next((k for k, part in enumerate(d_parts) if part), None)
    if mu is None:
        raise SeriesError("division by a series that is zero to its order")
    n_parts = [by_degree(n.terms, order) for n in nums]
    # The first failing component's error is raised; components after it
    # are not solved.  One with a term below mu fails before its solve.
    live = next((r for r, parts in enumerate(n_parts) if any(parts[:mu])),
                len(nums))
    error = "numerator valuation below denominator valuation"
    if not live:
        raise SeriesError(error)
    arity = den.context.arity
    divide = divider(d_parts[mu], arity, order)

    def solve(s, rhs):
        nonlocal live, error
        qs = [None] * len(rhs)
        for r in range(live):
            try:
                qs[r] = divide(rhs[r])
            except ArithmeticError as exc:
                live, error = r, "series not divisible (%s)" % exc
                if not r:
                    raise SeriesError(error) from None
                break
        return qs

    minus_d = pack_parts(d_parts[mu + 1:], arity, order, -1)
    diagonal = [[minus_d if c == r else [] for c in range(live)]
                for r in range(live)]
    outs = [{} for _ in range(live)]
    for qs in online_solve([parts[mu:] for parts in n_parts[:live]],
                           diagonal, 0, order - mu, solve, arity, order):
        for out, q in zip(outs, qs):
            out.update(q)
    if live < len(nums):
        raise SeriesError(error)
    quotients = [TruncatedSeries._make(den.context, order - mu, out)
                 for out in outs]
    if isinstance(num, SeriesMap):
        return SeriesMap(quotients), mu
    return quotients[0], mu


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
    step.  `online_solve` forms each r_j from the degree parts of G and P,
    packed once by `pack_parts`, and `implicit_step` solves for d_j and
    checks r_j + J d_j = 0 on the packed integer numerators; d_j stays
    packed for the later degrees of the step.
    While u = 0, as in the step from precision 0, G and P are read off F
    and its partials without a composition: the terms free of u, put on
    the free variables.

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
    partials = [[c.derive(i) for i in unk] for c in F.components]
    sol = [{} for _ in unk]

    def composed(series, k):
        """Each of `series` composed with (x, u) to order k.  At u = 0 that
        is its terms free of u, put on the free variables."""
        if not any(sol):
            return [{tuple([e[i] for i in free]): c
                     for e, c in f.terms.items()
                     if sum(e) <= k and not any([e[i] for i in unk])}
                    for f in series]
        args = [TruncatedSeries._make(
                    free_ctx, k, {e: c for e, c in sol[pos[i]].items()
                                  if sum(e) <= k}) if i in pos
                else TruncatedSeries.variable(free_ctx, k, name)
                for i, name in enumerate(ctx_all.names)]
        return [f.truncated(k).compose(args).terms for f in series]

    def solve(j, rhs):
        """d_j = -J^{-1} r_j, refused unless r_j + J d_j vanishes."""
        try:
            return implicit_step(rhs, inv_block, block)
        except ArithmeticError:
            raise SeriesError(unverified) from None

    halvings = [order >> s for s in range(order.bit_length())]
    if all(sum(e[i] for i in unk) <= 1
           for f in F.components for e in f.terms):
        halvings = halvings[:1]  # F is affine in u: one step 0 -> N
    h = 0
    for n in reversed(halvings):
        g = [by_degree(t, n) for t in composed(F.components, n)]
        if any(parts[k] for parts in g for k in range(h + 1)):
            raise SeriesError(unverified)
        # p[r][c][i - 1]: the degree-i part of P_rc
        p = [[pack_parts(by_degree(t, n - h - 1)[1:], free_ctx.arity, order)
              for t in composed(row, n - h - 1)]
             for row in partials] if n - h > 1 else [[]] * len(g)
        for ds in online_solve(g, p, h + 1, n, solve, free_ctx.arity, order):
            for terms, d in zip(sol, ds):
                terms.update(d)
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
