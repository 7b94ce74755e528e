"""Nondegeneracy classification and degenerate self-map generation.

Five conditions on the target manifold (Levi, finite, essentially finite,
Segre, holomorphic nondegeneracy), five CR-horizontal conditions on a map,
and four conditions on a map through its reflection-identity data.  Every
"generic rank" or "does not vanish identically" verdict is decided on the
working truncation and carries the bound it was decided at: verdicts are
tri-state, never silent booleans.

A rung that a certificate already computed decides returns that answer
without further work; each rule is a theorem about the stored
truncations, so verdicts are the same as when the rung is computed.

- The finite-map certificate needs at least as many nonconstant
  generators as variables.  Success at D gives m^D inside I + m^(D+1),
  so m^D inside I over the formal power series by Nakayama, so I is
  m-primary, and an m-primary ideal of C[[x_1..x_n]] needs n generators
  (Krull's height theorem).  This serves nd3, cr3 and h3.
- nd5 holds at every k >= k2, the least k at which nd2 holds: the
  Jacobian of the jet map has full rank at 0 there, and a minor that is
  nonzero at 0 is a nonzero polynomial, so the generic rank is full.
- h4 holds once h2 does (ell0 set): at z = 0 the h4 matrix holds the
  t'-Jacobian at 0 of the Psi' entries, among them those of order ell0,
  of rank n', and the matrix has n' columns.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .context import VariableContext, multidegrees, zero_exponent
from .gaussian import GaussianRational
from .kernels import echelon
from .linalg import (generic_rank, kernel_basis, rank_at_origin,
                     symbolic_rank)
from .manifold import GraphedManifold
from .reflection import FormalCRMap, ReflectionError, transversality_kernel
from .segre import segre_jet_map
from .series import SeriesMap, TruncatedSeries, check_budget


HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


class Verdict:
    """Tri-state outcome with the bound it was decided at."""

    __slots__ = ("status", "k0", "bound", "witness")

    def __init__(self, status, k0=None, bound=None, witness=None):
        self.status = status
        self.k0 = k0
        self.bound = bound
        self.witness = witness

    def __eq__(self, other):
        if isinstance(other, str):
            return self.status == other
        return NotImplemented

    def __repr__(self):
        extra = ""
        if self.k0 is not None:
            extra += ", k0=%s" % (self.k0,)
        if self.bound is not None:
            extra += ", bound=%s" % (self.bound,)
        return "Verdict(%s%s)" % (self.status, extra)


def _chain_consistent(verdicts, unbound=()):
    """Check an implication chain v1 => v2 => ... on decided entries; link i
    (from verdicts[i] to verdicts[i + 1]) is skipped when listed in
    `unbound`."""
    return not any(a.status == HOLDS and b.status == FAILS
                   for i, (a, b) in enumerate(zip(verdicts, verdicts[1:]))
                   if i not in unbound)


def _least_k(kmax: int, test):
    """The least k in 1..kmax at which a ladder rung holds, with test(k):
    the rung holds where its test gives neither False nor None (a rank test
    gives True, a certificate test its certificate).  (None, None) when no
    k <= kmax does; the tests run in order of k and stop at the first."""
    for k in range(1, kmax + 1):
        value = test(k)
        if value is not False and value is not None:
            return k, value
    return None, None


class ManifoldClassification:
    def __init__(self, nd1, nd2, nd3, nd4, nd5, kmax, dmax, order):
        self.nd1, self.nd2, self.nd3, self.nd4, self.nd5 = nd1, nd2, nd3, nd4, nd5
        self.kmax = kmax
        self.dmax = dmax
        self.order = order

    @property
    def chain(self):
        return [self.nd1, self.nd2, self.nd3, self.nd4, self.nd5]

    def chain_consistent(self):
        return _chain_consistent(self.chain)

    def __repr__(self):
        return ("ManifoldClassification(nd1=%s, nd2=%s, nd3=%s, nd4=%s, "
                "nd5=%s)") % tuple(v.status for v in self.chain)


def _ideal_search_degree(generators, dmax: int) -> int:
    """The highest degree `ideal_contains_power_of_maximal` searches: dmax,
    cut at the least order among the nonconstant generators (0 when there
    are none, as no degree is searched then)."""
    orders = [g.order for g in generators if any(map(sum, g.terms))]
    return min(dmax, *orders) if orders else 0


def ideal_contains_power_of_maximal(generators, dmax: int):
    """Smallest D <= dmax with every degree-D monomial inside the truncated
    ideal of the generators (a finite-map certificate), or None.

    Membership is graded linear algebra: x^alpha must be an exact
    combination sum c_q g_q modulo degree D+1; by Nakayama this certifies
    m^D inside the ideal, hence finiteness.  D stops at the generators'
    least order: past it, truncated-away terms would read as zero.

    Fewer nonconstant generators than variables give None before any row
    is built: an ideal containing m^D is m-primary, of height n, and by
    Krull's height theorem it needs at least n generators.
    """
    check_budget("ideal_contains_power_of_maximal", None, dmax=dmax)
    gens = [g - g.constant_term() for g in generators]
    gens = [g for g in gens if g]
    if not gens:
        return None
    arity = gens[0].context.arity
    if len(gens) < arity:
        return None
    for D in range(1, _ideal_search_degree(gens, dmax) + 1):
        monos = list(multidegrees(arity, D))
        index = {e: i for i, e in enumerate(monos)}
        rows = []
        for g in gens:
            v = g.valuation()
            if v > D:
                continue
            for mult in multidegrees(arity, D - v):
                row = {}
                for e, c in g.terms.items():
                    shifted = tuple(a + b for a, b in zip(e, mult))
                    if sum(shifted) <= D:
                        row[index[shifted]] = c
                rows.append(row)
        # x^e lies in the span iff column e is a pivot whose reduced row
        # is the unit vector.
        pivots, reduced = echelon(rows)
        units = {col for col, row in zip(pivots, reduced) if len(row) == 1}
        if all(index[e] in units for e in monos if sum(e) == D):
            return D
    return None


def holomorphic_degeneracy_field(Mp: GraphedManifold, dmax: int = 4):
    """A nonzero holomorphic field tangent to the manifold, or None.

    Searches polynomial coefficients a'_{i'}(t') of degree <= dmax with
    sum_i a'_{i'} d theta'_j / d t'_{i'} == 0 to the working order, by
    linear algebra on the coefficients.  None means the kernel is trivial
    at these bounds (holomorphic nondegeneracy is then plausible).
    """
    check_budget("holomorphic_degeneracy_field", Mp.order, dmax=dmax)
    ctx = Mp.ctx_theta
    N = Mp.order
    t_idx = [ctx.index(n) for n in Mp.names.t]
    partials = [[Mp.theta[j].derive(i) for i in t_idx] for j in range(Mp.d)]
    alphas = list(multidegrees(Mp.n, dmax))
    unknowns = [(i, a) for i in range(Mp.n) for a in alphas]
    columns = []
    for i, a in unknowns:
        mono = TruncatedSeries.monomial(ctx, N - 1, (0,) * Mp.m + tuple(a))
        columns.append({(j, e): c for j in range(Mp.d)
                        for e, c in (partials[j][i] * mono).terms.items()})
    basis = kernel_basis(columns)
    if not basis:
        return None
    ctx_tp = VariableContext(Mp.names.t)
    vec = basis[0]
    comps = []
    for i in range(Mp.n):
        terms = {}
        for col, (ci, a) in enumerate(unknowns):
            if ci == i and vec[col]:
                terms[tuple(a)] = vec[col]
        comps.append(TruncatedSeries(ctx_tp, N, terms))
    return SeriesMap(comps)


def classify_manifold(Mp: GraphedManifold, kmax: int = None,
                      dmax: int = 4, seed: int = 0) -> ManifoldClassification:
    """The five-step nondegeneracy ladder of the (target) manifold.

    The default kmax is min(order - 1, 4): on a Levi-degenerate manifold
    the nd2 rung climbs to k = kmax, and a Segre jet of order k = order has
    no precision left to differentiate."""
    if kmax is None:
        kmax = min(Mp.order - 1, 4)
    check_budget("classify_manifold", Mp.order, kmax=kmax, dmax=dmax)
    full = Mp.m + Mp.n
    jet_maps = {}

    def jet_map(k):
        """The Segre jet map phi'_k, built when a rung first asks for k."""
        if k not in jet_maps:
            jet_maps[k] = segre_jet_map(Mp, k).components
        return jet_maps[k]

    # nd1, Levi nondegeneracy, is nd2 at k = 1.
    k2, _ = _least_k(kmax, lambda k: rank_at_origin(jet_map(k)) == full)
    nd1 = Verdict(HOLDS, k0=1, bound=1) if k2 == 1 else Verdict(FAILS, bound=1)
    nd2 = Verdict(HOLDS if k2 else FAILS, k0=k2, bound=kmax)
    k3, D = _least_k(kmax, lambda k: ideal_contains_power_of_maximal(
        jet_map(k).components, dmax))
    nd3 = Verdict(HOLDS if k3 else INCONCLUSIVE, k0=k3,
                  bound=(kmax, D if k3 else dmax))
    # nd4: each jet map on the Segre leaf through 0, a map of z' alone.
    k4, _ = _least_k(kmax, lambda k: generic_rank(
        Mp.restrict(jet_map(k), "leaf"), seed=seed) == Mp.m)
    nd4 = Verdict(HOLDS if k4 else FAILS, k0=k4, bound=kmax)
    # nd5 holds at k2, where the Jacobian has full rank at 0, so full
    # generic rank; the search stops there.
    k5, _ = _least_k(kmax, lambda k: k == k2
                     or generic_rank(jet_map(k), seed=seed) == full)
    nd5 = Verdict(HOLDS if k5 else INCONCLUSIVE, k0=k5, bound=kmax)
    if not k5:
        field = holomorphic_degeneracy_field(Mp, dmax)
        if field is not None:
            nd5 = Verdict(FAILS, bound=(kmax, dmax), witness=field)
    cls = ManifoldClassification(nd1, nd2, nd3, nd4, nd5, kmax, dmax, Mp.order)
    if not cls.chain_consistent():
        raise AssertionError("nondegeneracy chain violated: %r" % cls)
    return cls


class MapClassification:
    def __init__(self, cr1, cr2, cr3, cr4, cr5, h1=None, h2=None, h3=None,
                 h4=None, ell0=None, mp=None, m=None):
        self.cr1, self.cr2, self.cr3, self.cr4, self.cr5 = cr1, cr2, cr3, cr4, cr5
        self.h1, self.h2, self.h3, self.h4 = h1, h2, h3, h4
        self.ell0 = ell0
        self.mp = mp
        self.m = m

    @property
    def cr_chain(self):
        return [self.cr1, self.cr2, self.cr3, self.cr4, self.cr5]

    def cr_chain_consistent(self):
        """Eq-style chain on the decided cr flags; the 2nd and 3rd steps
        only bind when the CR dimensions agree."""
        return _chain_consistent(self.cr_chain,
                                 () if self.mp == self.m else (0, 1))

    def __repr__(self):
        parts = ["cr%d=%s" % (i + 1, v.status)
                 for i, v in enumerate(self.cr_chain) if v is not None]
        if self.h1 is not None:
            parts += ["h%d=%s" % (i + 1, v.status) for i, v in
                      enumerate([self.h1, self.h2, self.h3, self.h4])]
        return "MapClassification(%s)" % ", ".join(parts)


def classify_map_cr(h: FormalCRMap, dmax: int = 4,
                    seed: int = 0) -> MapClassification:
    """The CR-horizontal ladder cr1..cr5 of a verified formal CR map."""
    check_budget("classify_map_cr", h.order, dmax=dmax)
    if not h.cr_report.ok:
        raise ReflectionError("map is not CR to the working order")
    horiz = h.horizontal_part()
    m, mp = h.M.m, h.mp
    r0 = rank_at_origin(horiz)

    cr1 = Verdict(HOLDS if (mp == m and r0 == m) else FAILS, bound=1)
    cr2 = Verdict(HOLDS if (mp <= m and r0 == mp) else FAILS, bound=1)
    if mp == m:
        D = ideal_contains_power_of_maximal(horiz.components, dmax)
        cr3 = Verdict(HOLDS if D is not None else INCONCLUSIVE, k0=D,
                      bound=_ideal_search_degree(horiz.components, dmax))
    else:
        cr3 = Verdict(FAILS, bound=dmax)
    rg = generic_rank(horiz, seed=seed)
    cr4 = Verdict(HOLDS if (mp <= m and rg == mp) else FAILS, bound=h.order)
    # a monomial of degree above the order truncates to zero and would read
    # as a relation, so cr5 searches relations up to the order at most
    degree = min(dmax, h.order)
    relations = transversality_kernel(h, degree=degree)
    if relations:
        cr5 = Verdict(FAILS, bound=degree, witness=relations)
    else:
        cr5 = Verdict(HOLDS, bound=degree)
    cls = MapClassification(cr1, cr2, cr3, cr4, cr5, mp=mp, m=m)
    if not cls.cr_chain_consistent():
        raise AssertionError("cr chain violated: %r" % cls)
    return cls


def psi_table(h: FormalCRMap, beta_max: int = 1) -> dict:
    """(j', beta) -> Psi'_{j',beta}(z, w, zeta, t'), the reflection-identity
    kernel series on the manifold, for |beta| <= beta_max, beta outer and
    j' inner.

    Psi' is Lbar^beta of hbar_{m'+j'} - Theta'_{j'}(hbar_{<m'}, t') with t'
    free.  Lbar is tangent to the complexified manifold and restricts to
    d/dzeta on side 'xi', since theta involves no xi; so each entry is the
    plain partial d_zeta^beta of that seed with hbar put on side 'xi' once,
    over (z, w, zeta, t').  The seed is exact to the order, so each entry
    is exact to order - |beta|.
    """
    check_budget("psi_table", h.order, beta_max=beta_max)
    M, Mp = h.M, h.Mp
    ctx = VariableContext(M.ctx_restrict_xi.names + Mp.names.t)
    hbar_on = [c.remapped(ctx) for c in M.restrict(h.hbar, "xi")]
    args = hbar_on[:h.mp] + [TruncatedSeries.variable(ctx, h.order, n)
                             for n in Mp.names.t]
    seeds = [hbar_on[h.mp + jp] - s.compose(args)
             for jp, s in enumerate(Mp.theta)]
    return {(jp, tuple(beta)):
            seeds[jp].derive_multi(zero_exponent(M.n) + tuple(beta)
                                   + zero_exponent(Mp.n))
            for beta in multidegrees(M.m, beta_max) for jp in range(h.dp)}


def psi_and_h_conditions(h: FormalCRMap, kmax: int = None,
                         seed: int = 0) -> MapClassification:
    """Classification of the map through its reflection-identity data.

    The default kmax is min(order - 1, 2): the h4 rung differentiates the
    entries with |beta| = kmax once more, which needs kmax below the
    order."""
    M, Mp = h.M, h.Mp
    if kmax is None:
        kmax = min(h.order - 1, 2)
    check_budget("psi_and_h_conditions", h.order, kmax=kmax)
    table = psi_table(h, beta_max=kmax)
    ctx_tp = VariableContext(Mp.names.t)
    zero = TruncatedSeries.zero(ctx_tp, h.order)
    base_zero = {n: zero for n in M.ctx_restrict_xi.names}

    psi0 = {key: s.substitute(base_zero, ctx_tp) for key, s in table.items()}

    def psi_k(k):
        return [s for (jp, beta), s in sorted(psi0.items()) if sum(beta) <= k]

    # h1 is h2 at k = 1.
    ell0, _ = _least_k(kmax, lambda k: rank_at_origin(psi_k(k)) == h.np)
    h1 = Verdict(HOLDS if ell0 == 1 else FAILS, bound=1)
    h2 = Verdict(HOLDS if ell0 else FAILS, k0=ell0, bound=kmax)
    k3, D = _least_k(kmax, lambda k: ideal_contains_power_of_maximal(
        psi_k(k), dmax=min(h.order, 4)))
    h3 = Verdict(HOLDS if k3 else INCONCLUSIVE, k0=k3,
                 bound=(kmax, D) if k3 else kmax)

    # h4: rank of the t'-gradients of Psi along the Segre leaf through 0,
    # evaluated at t' = h(z, theta_bar(z, 0)).  At z = 0 that matrix holds
    # the t'-Jacobian at 0 of psi_k(ell0), of rank n', so h2 decides it.
    if ell0:
        r4 = h.np
    else:
        h_on = dict(zip(Mp.names.t, M.restrict(h.h, "leaf").components))
        rows = [[M.restrict(table[key].derive(n), "leaf", h_on)
                 for n in Mp.names.t] for key in sorted(table)]
        r4 = symbolic_rank(rows, seed=seed)
    h4 = Verdict(HOLDS if r4 == h.np else FAILS, bound=kmax)

    return MapClassification(None, None, None, None, None,
                             h1, h2, h3, h4, ell0=ell0, mp=h.mp, m=M.m)


def degenerate_selfmap_generator(Mp: GraphedManifold, field: SeriesMap,
                                 varpi=None, seed: int = 0) -> FormalCRMap:
    """Flow a tangent holomorphic field for a formal time varpi'(t').

    The flow Phi(s, t') is integrated degree by degree, and the self-map is
    t' -> Phi(varpi'(t'), t').  It is CR by theorem, so it is not checked
    again here: X.theta' = 0 is checked exactly where the field enters, so
    for fixed tau' the flow of X moves t' inside the leaf xi' =
    theta'(zeta', t'), for any time, and the conjugate flow does the same
    for the other graph; hence the map takes M' to M'.  With a
    nonconvergent varpi' this is the classical counterexample showing that
    holomorphically degenerate targets admit divergent CR self-maps; at
    finite order every choice of varpi' works.
    """
    ctx_tp = VariableContext(Mp.names.t)
    N = Mp.order
    if field.context != ctx_tp:
        field = field.remapped(ctx_tp)
    _check_tangent(Mp, field)
    if varpi is None:
        rng = random.Random(seed)
        terms = {}
        for alpha in multidegrees(Mp.n, N):
            if sum(alpha) == 0:
                continue
            num = rng.randint(-6, 6)
            if num:
                terms[alpha] = GaussianRational(
                    Fraction(num, rng.randint(1, 4)),
                    Fraction(rng.randint(-3, 3), 2))
        varpi = TruncatedSeries(ctx_tp, N, terms)
    if varpi.context != ctx_tp:
        varpi = varpi.remapped(ctx_tp)
    if varpi.constant_term():
        raise ReflectionError("formal time must vanish at the origin")

    ctx_flow = VariableContext(("s_flow",) + Mp.names.t)
    s_idx = 0
    svar = TruncatedSeries.variable(ctx_flow, N, "s_flow")
    tvars = [TruncatedSeries.variable(ctx_flow, N, n) for n in Mp.names.t]
    a_emb = [c.remapped(ctx_flow) for c in field.components]
    phi = list(tvars)
    for _ in range(N + 1):
        nxt = [tvars[i]
               + a_emb[i].compose([svar] + phi).integrate(s_idx).truncated(N)
               for i in range(Mp.n)]
        if nxt == phi:
            break
        phi = nxt

    subs = {"s_flow": varpi}
    hmap = SeriesMap([c.substitute(subs, ctx_tp) for c in phi])
    return FormalCRMap(hmap, Mp, Mp)


def _check_tangent(Mp: GraphedManifold, field: SeriesMap):
    ctx = Mp.ctx_theta
    t_idx = [ctx.index(n) for n in Mp.names.t]
    emb = [c.remapped(ctx) for c in field.components]
    for j in range(Mp.d):
        total = None
        for i in range(Mp.n):
            piece = Mp.theta[j].derive(t_idx[i]) * emb[i].truncated(Mp.order - 1)
            total = piece if total is None else total + piece
        if total:
            raise ReflectionError("field is not tangent to the manifold "
                                  "(defect valuation %s)" % total.valuation())
