"""The CR reflection map and its identity families.

Everything here revolves around the two conjugate fundamental identities a
formal CR map satisfies on the complexified source, and what becomes of them
under the CR derivations: the reflection components Theta'_{j',gamma'}(h(t)),
the four residual families, the Cramer jet identities, the inversion and
transport formulas, and the finitely-nondegenerate resolution of h through
jets of its conjugate.

Precision discipline: a residual produced after applying |beta| derivations
is exact to degree order - |beta|; reports always carry that bound next to
the observed valuation, never a bare boolean.
"""

from __future__ import annotations

from math import comb

from .context import VariableContext, multidegrees, zero_exponent
from .gaussian import ONE, MINUS_ONE
from .kernels import echelon
from .linalg import kernel_basis, numeric_rank
from .manifold import GraphedManifold, JetSymbols, fields
from .segre import SegreChain
from .series import (SeriesMap, TruncatedSeries, SeriesError, check_budget,
                     divide_with_valuation, factorial_multi, formal_ift,
                     jacobian_at_zero, mul_precise)


class ReflectionError(ValueError):
    pass


class FormalCRMap:
    """A formal map h between source and target manifolds, with its
    coefficient-conjugate.

    h lives in the source t-variables and splits as (f, g) along the target
    (z', w') split; hbar is the coefficient conjugate, expressed in the
    source tau-variables.
    """

    def __init__(self, h: SeriesMap, M: GraphedManifold, Mp: GraphedManifold):
        if len(h.components) != Mp.n:
            raise ReflectionError("map must have %d components" % Mp.n)
        ctx_t = VariableContext(M.names.t)
        if h.context != ctx_t:
            h = h.remapped(ctx_t)
        if any(h.constant_terms()):
            raise ReflectionError("map components must vanish at 0")
        self.M = M
        self.Mp = Mp
        self.h = h
        self.n = M.n
        self.np = Mp.n
        self.mp = Mp.m
        self.dp = Mp.d
        tau_map = dict(zip(M.names.t, M.names.tau))
        ctx_tau = VariableContext(M.names.tau)
        self.hbar = SeriesMap([c.conjugate_swapped(tau_map, ctx_tau)
                               for c in h.components])
        self._cr_report = None
        self._side_w = None

    @property
    def f(self):
        return SeriesMap(self.h.components[:self.mp])

    @property
    def g(self):
        return SeriesMap(self.h.components[self.mp:])

    @property
    def fbar(self):
        return SeriesMap(self.hbar.components[:self.mp])

    @property
    def gbar(self):
        return SeriesMap(self.hbar.components[self.mp:])

    @property
    def order(self):
        return self.h.order

    def is_invertible(self) -> bool:
        return self.np == self.n and numeric_rank(
            jacobian_at_zero(self.h.components, range(self.n))) == self.n

    def horizontal_part(self) -> SeriesMap:
        """The CR-horizontal restriction z -> f(z, theta_bar(z, 0))."""
        return self.M.restrict(self.f, "leaf")

    def horizontal_part_bar(self) -> SeriesMap:
        """zeta -> fbar(zeta, theta(zeta, 0)), the conjugate horizontal part."""
        return self.M.restrict(self.fbar, "leaf_bar")

    @property
    def cr_report(self) -> "ResidualReport":
        """`verify_formal_cr_map(self)`, computed on first use and kept:
        the map's CR property is checked once, wherever it is first read."""
        if self._cr_report is None:
            self._cr_report = verify_formal_cr_map(self)
        return self._cr_report

    def _side_w_identity(self):
        """(on, residuals): h put on side 'w' (w := theta_bar, over (z, zeta,
        xi)), and for each j' the fundamental identity there,
        on_{m'+j'} - theta_bar'_{j'}(on_{<m'}, hbar), exact to the order.
        Computed on first use and kept: `verify_formal_cr_map` and
        `reflection_identities` both start from it."""
        if self._side_w is None:
            M, mp = self.M, self.mp
            on = list(M.restrict(self.h, "w"))
            args = on[:mp] + [c.remapped(M.ctx_restrict_w) for c in self.hbar]
            residuals = [on[mp + jp] - graph.compose(args)
                         for jp, graph in enumerate(self.Mp.theta_bar)]
            self._side_w = (on, residuals)
        return self._side_w

    def __repr__(self):
        return "FormalCRMap(%d -> %d, order %d)" % (self.n, self.np, self.order)


# -- residual reports ---------------------------------------------------------


class ResidualReport:
    """Valuation bookkeeping for a grid of residual series.

    Each entry is keyed (family, j', beta) and stores the residual's
    valuation (None when it vanishes within precision) and the degree to
    which the residual is exact.
    """

    def __init__(self):
        self.entries = {}

    def add(self, family, jp, beta, residual: TruncatedSeries):
        val = residual.valuation() if residual else None
        self.entries[(family, jp, tuple(beta))] = (val, residual.order)

    @property
    def ok(self) -> bool:
        return all(v is None for v, _ in self.entries.values())

    def family_ok(self, family) -> bool:
        return all(v is None for (fam, _, _), (v, _) in self.entries.items()
                   if fam == family)

    def first_failure(self, family=None):
        """Smallest failing valuation (None when everything vanishes)."""
        vals = [v for (fam, _, _), (v, _) in self.entries.items()
                if v is not None and (family is None or fam == family)]
        return min(vals) if vals else None

    def __repr__(self):
        bad = sum(1 for v, _ in self.entries.values() if v is not None)
        return "ResidualReport(%d entries, %d failing)" % (
            len(self.entries), bad)


def verify_formal_cr_map(h: FormalCRMap) -> ResidualReport:
    """The beta = 0 reflection identities, in substituted form.

    Family 3 puts h on the manifold by w := theta_bar and checks its
    w'-part against the target's graph of w' at (f, hbar):
    g(z, theta_bar(z, zeta, xi)) - theta_bar'(f(...), hbar(zeta, xi)), over
    (z, zeta, xi).  Family 1 is the conjugate identity, hbar by xi := theta
    against the graph of xi' at (fbar, h), and each of its residuals is the
    conjugate-swap (z <-> zeta, w <-> xi) of the family-3 residual with the
    same j', so it is read off rather than composed.  That is exact for any
    h, CR or not: hbar is the conjugate-swap of h, the graphs of M and of
    M' come in conjugate-swapped pairs (built so by `from_theta_bar`,
    `from_theta` and `primed`, checked by the constructor otherwise), and
    conjugate-swapping commutes with restriction, composition and
    truncation.  Both families must vanish mod degree order+1 for h to be
    a formal CR map.
    """
    M = h.M
    report = ResidualReport()
    _, residuals = h._side_w_identity()
    for jp, res in enumerate(residuals):
        report.add(3, jp, (), res)
    swap = M.names.swap_map()
    for jp, res in enumerate(residuals):
        report.add(1, jp, (), res.conjugate_swapped(swap, M.ctx_restrict_xi))
    return report


# -- reflection components ----------------------------------------------------


class ReflectionComponents:
    """The table gamma' -> Theta'_{gamma'}(h(t)), doubly truncated.

    Entry gamma' holds d' series in the source t variables, exact to degree
    order - |gamma'|; reassembling sum zeta'^gamma' table[gamma'] recovers
    Theta'(zeta', h(t)) inside the box |gamma'| <= gmax, t-degree <= order.
    """

    def __init__(self, h: FormalCRMap, gmax: int, table: dict):
        self.h = h
        self.gmax = gmax
        self.table = table

    def nonzero_gammas(self):
        return sorted((g for g, entry in self.table.items()
                       if any(entry)), key=lambda g: (sum(g), g))

    def reassembly_defect(self):
        """Valuation of the worst reassembly residual, or None if exact."""
        h, Mp = self.h, self.h.Mp
        N = h.order
        joint = VariableContext(Mp.names.zeta + h.M.names.t)
        zp = [TruncatedSeries.variable(joint, N, n) for n in Mp.names.zeta]
        h_emb = [c.remapped(joint) for c in h.h.components]
        worst = None
        for jp in range(h.dp):
            direct = Mp.theta[jp].compose(zp + h_emb)
            direct = _box_filter(direct, range(Mp.m), self.gmax)
            assembled = TruncatedSeries.zero(joint, N)
            for gamma, entry in self.table.items():
                mono = TruncatedSeries.monomial(
                    joint, N, tuple(gamma) + zero_exponent(h.n))
                assembled = assembled + mul_precise(
                    mono, entry[jp].remapped(joint)).truncated(N)
            res = direct - assembled
            if res:
                v = res.valuation()
                worst = v if worst is None else min(worst, v)
        return worst

    def __repr__(self):
        return "ReflectionComponents(gmax=%d, %d nonzero entries)" % (
            self.gmax, len(self.nonzero_gammas()))


def _box_filter(f: TruncatedSeries, var_indices, bound: int) -> TruncatedSeries:
    sel = list(var_indices)
    terms = {e: c for e, c in f.terms.items()
             if sum(e[i] for i in sel) <= bound}
    return TruncatedSeries._make(f.context, f.order, terms)


def target_component_tables(Mp: GraphedManifold):
    """Expansions of theta' and theta_bar' in powers of zeta' resp. z'.

    Returns (table, table_bar): table[j'][gamma'] is a series in t', exact
    to degree order - |gamma'|; table_bar[j'][gamma'] lives in tau'.
    """
    table = [t.coefficient_table(Mp.names.zeta) for t in Mp.theta.components]
    table_bar = [t.coefficient_table(Mp.names.z)
                 for t in Mp.theta_bar.components]
    return table, table_bar


def reflection_components(h: FormalCRMap, gmax=None) -> ReflectionComponents:
    """Each Theta'_{j',gamma'}(h(t)) as an exact truncated series."""
    gmax = h.order if gmax is None else gmax
    check_budget("reflection_components", h.order, gmax=gmax)
    table, _ = target_component_tables(h.Mp)
    return ReflectionComponents(h, gmax, _compose_components(
        h, gmax, (((jp, gamma), s) for jp in range(h.dp)
                  for gamma, s in table[jp].items())))


def _compose_components(h: FormalCRMap, gmax: int, entries) -> dict:
    """gamma' -> [Theta'_{j',gamma'}(h(t)) for each j'] from the pairs
    ((j', gamma'), Theta'_{j',gamma'}) with |gamma'| <= gmax.  A j' without
    an entry is zero, exact to order - |gamma'|; a gamma' whose entries all
    vanish is dropped."""
    h_args = list(h.h.components)
    composed = {}
    for (jp, gamma), s in entries:
        if sum(gamma) <= gmax:
            composed.setdefault(tuple(gamma), {})[jp] = s.compose(h_args)
    ctx_t = VariableContext(h.M.names.t)
    table = {}
    for gamma, entry in composed.items():
        filled = [entry[jp] if jp in entry
                  else TruncatedSeries.zero(ctx_t, h.order - sum(gamma))
                  for jp in range(h.dp)]
        if any(filled):
            table[gamma] = filled
    return table


# -- multidegree tables -------------------------------------------------------


def _multidegree_table(step, seed):
    """beta -> X^beta(seed) for a commuting family X, memoised.

    Each value is step(k, value at beta - e_k), k the first nonzero slot of
    beta; that is exact because the family commutes.
    """
    memo = {}

    def table(beta):
        beta = tuple(beta)
        got = memo.get(beta)
        if got is None:
            if any(beta):
                k = next(i for i, x in enumerate(beta) if x)
                got = step(k, table(beta[:k] + (beta[k] - 1,) + beta[k + 1:]))
            else:
                got = seed
            memo[beta] = got
        return got

    return table


def _identity_table(h, near, jets, beta_max):
    """(j', beta) -> Lbar^beta of near_{m'+j'} - Theta'_{j'}(near_{<m'}, t')
    for |beta| <= beta_max, beta outer and j' inner: the rows of
    `resolve_finitely_nondeg`.  `near` lives over a context that contains
    the `jets` block and t', where Lbar_a acts by the chain rule as
    D_{zeta_a} + sum_b (d theta_b/d zeta_a) D_{xi_b}, D the total
    derivative (`Derivation`).  The fields kill every function of t', so
    each word is the gamma'-sum of the words of near_{<m'}^gamma' times
    Theta'_{j',gamma'}(t')."""
    ctx, N = near[0].context, h.order
    Lbar = fields(h.M, "Lbar", ctx, jets)
    args = near[:h.mp] + [TruncatedSeries.variable(ctx, N, n)
                          for n in h.Mp.names.t]
    words = [_multidegree_table(lambda k, v: Lbar[k].apply(v),
                                near[h.mp + jp] - s.compose(args))
             for jp, s in enumerate(h.Mp.theta)]
    return {(jp, tuple(beta)): words[jp](beta)
            for beta in multidegrees(h.M.m, beta_max) for jp in range(h.dp)}


def reflection_identities(h: FormalCRMap, beta_max=1) -> ResidualReport:
    """Residuals of the four reflection-identity families up to |beta| <=
    beta_max, including the undifferentiated beta = 0 lines.

    Families 3/4 are L^beta of g - Theta_bar'(f, hbar) and of
    gbar - Theta'(fbar, h), with w := theta_bar substituted, over
    (z, zeta, xi).  L is tangent to the complexified manifold and
    restricts to d/dz on side 'w', since theta_bar depends on (z, zeta,
    xi) only; so each entry is d_z^beta of one seed restricted first:
    on_{m'+j'} - Theta_bar'_{j'}(on_{<m'}, hbar) for family 3, the
    residual `verify_formal_cr_map` checks, and hbar_{m'+j'} -
    Theta'_{j'}(fbar, on) for family 4, where on is h on side 'w'.  Each
    seed is exact to the order, so each entry is exact to order - |beta|.
    Families 1/2 are the conjugate identities with xi := theta, over
    (z, w, zeta): each residual is the conjugate-swap (z <-> zeta, w <->
    xi) of the family-3/4 one with the same (j', beta), so it is read off.
    That is exact for any h, CR or not: hbar is the conjugate-swap of h,
    the graphs of M and of M', hence L and Lbar, come in conjugate-swapped
    pairs, and conjugate-swapping commutes with composition,
    differentiation, restriction and truncation.  For a formal CR map all
    residuals vanish within precision.
    """
    check_budget("reflection_identities", h.order, beta_max=beta_max)
    M, Mp = h.M, h.Mp
    on, family3 = h._side_w_identity()
    hbar = [c.remapped(M.ctx_restrict_w) for c in h.hbar]
    args = hbar[:h.mp] + on
    family4 = [hbar[h.mp + jp] - graph.compose(args)
               for jp, graph in enumerate(Mp.theta)]
    side_w = {}
    for beta in multidegrees(M.m, beta_max):
        dz = tuple(beta) + zero_exponent(M.n)
        for jp in range(h.dp):
            side_w[(jp, beta)] = (family3[jp].derive_multi(dz),
                                  family4[jp].derive_multi(dz))

    swap = M.names.swap_map()
    side_xi = {key: [r.conjugate_swapped(swap, M.ctx_restrict_xi)
                     for r in pair] for key, pair in side_w.items()}
    report = ResidualReport()
    for first, side in ((1, side_xi), (3, side_w)):
        for (jp, beta), pair in side.items():
            for family, res in enumerate(pair, first):
                report.add(family, jp, beta, res)
    return report


def _power_cache(components, order):
    """gamma -> the monomial power of a component family, memoised."""
    return _multidegree_table(
        lambda i, v: v * components[i],
        TruncatedSeries.constant(components[0].context, order, ONE))


# -- Cramer jet identities ----------------------------------------------------


def _det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        piece = matrix[0][j] * _det(minor)
        if j % 2:
            piece = -piece
        total = piece if total is None else total + piece
    return total


def _adjugate(matrix):
    n = len(matrix)
    if n == 1:
        one = TruncatedSeries.constant(matrix[0][0].context,
                                       matrix[0][0].order, ONE)
        return [[one]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[matrix[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = _det(minor)
            if (i + j) % 2:
                cof = -cof
            out[j][i] = cof
    return out


class CramerTable:
    """For each (j, beta): the iterated-Cramer value of the composed jet
    (1/beta!) d^beta theta'_j (fbar o, h o) and the directly differentiated
    series, both over the (z, w, zeta) chart."""

    def __init__(self, det0, entries):
        self.det_at_zero = det0
        self.entries = entries

    def defects(self):
        """(j, beta) pairs where the two routes disagree within precision."""
        bad = []
        for key, (cramer, direct) in self.entries.items():
            prec = min(cramer.order, direct.order)
            if cramer.truncated(prec) != direct.truncated(prec):
                bad.append(key)
        return bad


def q_jbeta_cramer(h: FormalCRMap, beta_max=1) -> CramerTable:
    """Iterated Cramer solving of the differentiated fundamental identity.

    Requires h invertible; the m x m determinant of the first derivatives of
    the composed fbar must be a unit (its vanishing at 0 would contradict
    invertibility and is reported as an inconsistency).

    Level |beta| + 1 comes from level |beta|: the value at beta + e_l is
    sum_k adj[l][k] d_(zeta_k) v_beta / det.  Each level's numerators form
    one `SeriesMap` and are divided by det in one `divide_with_valuation`
    call, which prepares det once; det is a unit, so each quotient is exact
    to its numerator's order, and no inverse of det is formed.
    """
    check_budget("q_jbeta_cramer", h.order, beta_max=beta_max)
    M, Mp = h.M, h.Mp
    if not h.is_invertible():
        raise ReflectionError("Cramer identities need an invertible map")
    m = M.m
    ctx = M.ctx_restrict_xi
    fbar_on = list(M.restrict(h.fbar, "xi"))
    gbar_on = list(M.restrict(h.gbar, "xi"))
    h_emb = [c.remapped(ctx) for c in h.h.components]
    zeta_idx = [ctx.index(n) for n in M.names.zeta]

    A = [[fbar_on[l].derive(zeta_idx[k]) for l in range(m)] for k in range(m)]
    det = _det(A)
    det0 = det.constant_term()
    if not det0:
        raise ReflectionError(
            "inconsistency: the Cramer determinant vanishes at 0 "
            "for an invertible map")
    adj = _adjugate(A)

    values = {}
    for j in range(M.d):
        values[(j, zero_exponent(m))] = gbar_on[j]
    level = {zero_exponent(m)}
    for _ in range(beta_max):
        nums = {}  # (j, target) -> sum_k adj[l][k] d_(zeta_k) v
        for beta in sorted(level):
            for j in range(M.d):
                v = values[(j, beta)]
                rhs = [v.derive(zeta_idx[k]) for k in range(m)]
                for l in range(m):
                    target = beta[:l] + (beta[l] + 1,) + beta[l + 1:]
                    if (j, target) in nums:
                        continue
                    sol = None
                    for k in range(m):
                        piece = adj[l][k] * rhs[k]
                        sol = piece if sol is None else sol + piece
                    nums[(j, target)] = sol
        quotients, _ = divide_with_valuation(SeriesMap(nums.values()), det)
        values.update(zip(nums, quotients))
        level = {target for _, target in nums}

    entries = {}
    for (j, beta), v in values.items():
        scale = ONE / factorial_multi(beta)
        cramer = v * scale
        d_theta = Mp.theta[j].derive_multi(
            tuple(beta) + zero_exponent(Mp.n))
        direct = d_theta.compose(fbar_on + h_emb) * scale
        entries[(j, beta)] = (cramer, direct)
    return CramerTable(det0, entries)


# -- inversion of the component expansion -------------------------------------


def _binom_multi(beta, gamma):
    out = 1
    for b, g in zip(beta, gamma):
        out *= comb(b + g, g)
    return out


def forward_expansion(theta_table: dict, zeta, mp: int, bmax: int) -> dict:
    """q_{j,beta} = sum_gamma ((beta+gamma)!/(beta! gamma!)) zeta^gamma
    theta_{j,beta+gamma}, over table depth bmax."""
    check_budget("forward_expansion", None, bmax=bmax)
    return _expansion(theta_table, zeta, mp, bmax, invert=False)


def invert_expansion(q_table: dict, zeta, mp: int, bmax: int) -> dict:
    """theta_{j,beta} = sum_gamma (-1)^|gamma| ((beta+gamma)!/(beta! gamma!))
    zeta^gamma q_{j,beta+gamma}: the exact inverse of `forward_expansion`."""
    check_budget("invert_expansion", None, bmax=bmax)
    return _expansion(q_table, zeta, mp, bmax, invert=True)


def _expansion(table: dict, zeta, mp: int, bmax: int, invert: bool) -> dict:
    zeta = list(zeta)
    if len(zeta) != mp:
        raise ReflectionError("zeta must have %d components" % mp)
    js = sorted({j for j, _ in table})
    zpow = _multidegree_table(lambda i, v: zeta[i] * v, ONE)
    out = {}
    for j in js:
        for beta in multidegrees(mp, bmax):
            total = None
            for gamma in multidegrees(mp, bmax - sum(beta)):
                src = table.get((j, tuple(a + b for a, b in zip(beta, gamma))))
                if src is None:
                    continue
                zp = zpow(gamma)
                if isinstance(zp, TruncatedSeries) and \
                        isinstance(src, TruncatedSeries):
                    piece = mul_precise(zp, src) * _binom_multi(beta, gamma)
                else:
                    piece = zp * src * _binom_multi(beta, gamma)
                if invert and sum(gamma) % 2:
                    piece = piece * MINUS_ONE
                total = piece if total is None else total + piece
            if total is not None:
                out[(j, beta)] = total
    return out


# -- formal Cramer solve ------------------------------------------------------


def formal_cramer_solve(coeffs, rhs):
    """Solve sum_k r[i][k] a_k = b_i for series a_k.

    The determinant must not vanish identically to the working order; the
    solution is obtained by adjugate multiplication and exact division and
    is determined modulo degree order - valuation(det).  The n numerators
    sum_k adj[i][k] b_k are divided by det in one `divide_with_valuation`
    call.  Returns (solutions, lost_order).
    """
    n = len(coeffs)
    if not n:
        raise ReflectionError("system needs at least one equation")
    if any(len(row) != n for row in coeffs) or len(rhs) != n:
        raise ReflectionError("system must be square with matching rhs")
    det = _det(coeffs)
    if det.is_zero():
        raise ReflectionError("determinant vanishes to the working order")
    adj = _adjugate(coeffs)
    nums = []
    for i in range(n):
        num = None
        for k in range(n):
            piece = adj[i][k] * rhs[k]
            num = piece if num is None else num + piece
        nums.append(num)
    # The least order is every numerator's working order with det: each
    # entry of r lies in some cofactor, and no cofactor is less exact than
    # det.  So the cut changes no quotient.
    order = min(num.order for num in nums)
    sols, lost = divide_with_valuation(
        SeriesMap([num.truncated(order) for num in nums]), det)
    return list(sols), lost


# -- transversality -----------------------------------------------------------


def transversality_kernel(h: FormalCRMap, degree: int = 4, nwork=None):
    """Candidate polynomial relations on the conjugate horizontal part.

    Returns a basis (possibly empty) of polynomials Fbar' of degree <=
    `degree` in m' variables with Fbar'(fbar(zeta, theta(zeta, 0))) == 0 mod
    degree nwork+1.  An empty basis means CR-transversality holds as far as
    these bounds can see.
    """
    nwork = h.order if nwork is None else nwork
    check_budget("transversality_kernel", h.order, degree=degree, nwork=nwork)
    horiz = [c.truncated(nwork) for c in h.horizontal_part_bar().components]
    gammas = list(multidegrees(h.mp, degree))
    power = _power_cache(horiz, nwork)
    basis = kernel_basis([power(g).terms for g in gammas])
    ctx_rel = VariableContext(h.Mp.names.zeta)
    out = []
    for vec in basis:
        terms = {gamma: coeff for gamma, coeff in zip(gammas, vec) if coeff}
        out.append(TruncatedSeries(ctx_rel, degree, terms))
    return out


# -- chain pullbacks ----------------------------------------------------------


def _jet_constants(F: SeriesMap, level: int) -> dict:
    """(component, alpha) -> (d^alpha F)(0) for |alpha| <= level."""
    out = {}
    for idx, comp in enumerate(F.components):
        for alpha in multidegrees(F.arity, level):
            out[(idx, alpha)] = comp.coefficient(alpha) \
                * factorial_multi(alpha)
    return out


class Resolution:
    """h resolved through the jets of its conjugate (the basic reflection
    identity in solved form).

    `phi` is a series map over (t, tau, jet symbols) with
    h(t) == phi(t, zeta, theta(zeta, t), strict-jet values of hbar composed
    with (zeta, theta)), modulo the surviving precision; the conjugate line
    holds as well.  `phi` is fixed at construction, where the family-1
    residual h_i - phi_i is formed once, on side 'xi' with the level-ell0
    jet values of hbar, over (z, w, zeta); both reports read it.  Another
    phi is another `Resolution`.
    """

    def __init__(self, h, ell0, jets, phi, rows_used):
        self.h = h
        self.ell0 = ell0
        self.jets = jets
        self.phi = phi
        self.rows_used = rows_used
        uargs = self._jet_args(ell0, jets)
        values = [h.M.restrict(c, "xi", uargs) for c in phi.components]
        self.residuals = [f.remapped(v.context).truncated(v.order) - v
                          for f, v in zip(h.h, values)]

    def _jet_args(self, level, jets):
        """u_{i,alpha} -> (d^alpha hbar_i)(zeta, theta(zeta, t)) minus the
        constant: the strict jet values on side 'xi', over (z, w, zeta)."""
        M = self.h.M
        out = {}
        for i, comp in enumerate(self.h.hbar.components):
            for alpha in multidegrees(M.n, level):
                value = M.restrict(comp.derive_multi(alpha), "xi")
                out[jets.name(i, alpha)] = value - jets.constant(i, alpha)
        return out

    def verification_report(self) -> ResidualReport:
        """Both lines of the solved identity; families 1 and 2 label the
        unbarred and the conjugate line.

        Family 2, hbar against the conjugate of phi with the jets of h on
        side 'w', is the conjugate-swap (z <-> zeta, w <-> xi) of family 1
        into (z, zeta, xi), term for term: hbar is the conjugate-swap of h,
        the jet values of h on side 'w' are those of hbar on side 'xi'
        conjugate-swapped, since the manifold's two graphs are a
        conjugate-swapped pair, and conjugate-swapping commutes with
        differentiation, restriction and truncation.  So it is read off
        family 1 rather than composed.
        """
        M = self.h.M
        swap = M.names.swap_map()
        report = ResidualReport()
        for i, res in enumerate(self.residuals):
            report.add(1, i, (), res)
        for i, res in enumerate(self.residuals):
            report.add(2, i, (), res.conjugate_swapped(swap, M.ctx_restrict_w))
        return report

    def jet_identity_report(self, ell: int) -> ResidualReport:
        """The order-ell jet extension of the solved identity.

        Entry ("jet", i, alpha), alpha over (z, w) with |alpha| <= ell, is
        the plain partial d^alpha of the family-1 residual h_i - phi_i.  On
        side 'xi' the manifold is parametrised by (z, w, zeta), so d/dz and
        d/dw are tangent there, and the words L^beta Ups^delta of the
        identity are a unit-triangular combination of these partials: every
        word residual vanishes exactly when every partial residual does.
        Every entry is exact to order - ell0 - ell, the precision of the
        jets of hbar of order ell0 + ell; past the order this raises
        SeriesError.

        The entries are partials of the residual the resolution was checked
        on, so for a resolution that `resolve_finitely_nondeg` returned
        every entry vanishes: the report records each tier's precision and
        checks nothing that `verification_report` did not.
        """
        check_budget("jet_identity_report", self.h.order, ell=ell,
                     ell0=self.ell0)
        room = self.h.order - self.ell0 - ell
        report = ResidualReport()
        alphas = sorted(multidegrees(self.h.M.n, ell))
        pad = zero_exponent(self.h.M.m)  # the residuals are over (z, w, zeta)
        for i, res in enumerate(self.residuals):
            for alpha in alphas:
                report.add("jet", i, alpha,
                           res.derive_multi(alpha + pad).truncated(room))
        return report


def resolve_finitely_nondeg(h: FormalCRMap, ell0: int = 1) -> Resolution:
    """Solve h(t) from the reflection identities of order <= ell0.

    Requires the rank-n' hypothesis on the differentiated system at 0 (the
    finitely-nondegenerate condition on h with order ell0); the solution map
    phi is produced by the formal implicit function theorem on n' selected
    rows and verified against h before being returned.  A system of
    d' C(m + ell0, m) rows, fewer than n', fails the rank hypothesis before
    any row is built (always so at ell0 = 0 when m' >= 1); the rows of a
    CR map vanish at 0, so none could have failed "does not vanish at 0"
    first.
    """
    check_budget("resolve_finitely_nondeg", h.order, ell0=ell0)
    M, Mp = h.M, h.Mp
    if not h.cr_report.ok:
        raise ReflectionError("the map is not CR to the working order")
    if h.dp * comb(M.m + ell0, M.m) < h.np:
        raise _rank_failure(ell0, h.np)
    jets = JetSymbols("ujb", h.np, M.names.tau, ell0,
                      _jet_constants(h.hbar, ell0))
    ctx_ext = VariableContext(M.ctx_joint.names + jets.names + Mp.names.t)
    u = [jets.jet_series(i, zero_exponent(M.n), ctx_ext, h.order)
         for i in range(h.np)]
    table = _identity_table(h, u, jets, ell0)
    keys, rows = list(table), list(table.values())
    for R in rows:
        if R.constant_term():
            raise ReflectionError("resolution system does not vanish at 0")

    tp_idx = [ctx_ext.index(n) for n in Mp.names.t]
    grads = jacobian_at_zero(rows, tp_idx)
    chosen = _independent_rows(grads, h.np)
    if chosen is None:
        raise _rank_failure(ell0, h.np)
    system = SeriesMap([rows[i].truncated(min(rows[i].order for i in chosen))
                        for i in chosen])
    phi = formal_ift(system, list(Mp.names.t))
    res = Resolution(h, ell0, jets, phi, [keys[i] for i in chosen])
    rep = res.verification_report()
    if not rep.ok:
        raise AssertionError("resolution failed verification: %r" % rep)
    return res


def _rank_failure(ell0, need):
    return ReflectionError(
        "rank hypothesis fails: the order-%d system has rank < %d"
        % (ell0, need))


def _independent_rows(matrix, need):
    """Indices of the first `need` rows, chosen greedily, each independent
    of those before it; None if the rank is below `need`."""
    pivots, _ = echelon([dict(enumerate(col)) for col in zip(*matrix)])
    return pivots[:need] if len(pivots) >= need else None


# -- biholomorphic transport of the component table ---------------------------


def transform_target(Mp: GraphedManifold, phi_p: SeriesMap) -> GraphedManifold:
    """Graphed equations of the image manifold under t'' = phi'(t').

    Solves the transformed graph with the implicit function theorem; raises
    when the transformed manifold is not graphable in the inherited split.
    The image of a real manifold under a biholomorphism is real, so the new
    graph is built with `check=False`.
    """
    if any(phi_p.constant_terms()):
        raise ReflectionError("target change must fix the origin")
    ctx_tp = VariableContext(Mp.names.t)
    if phi_p.context != ctx_tp:
        phi_p = phi_p.remapped(ctx_tp)
    if numeric_rank(jacobian_at_zero(phi_p.components, range(Mp.n))) < Mp.n:
        raise ReflectionError("target change is not invertible")
    N = Mp.order
    tau_map = dict(zip(Mp.names.t, Mp.names.tau))
    ctx_taup = VariableContext(Mp.names.tau)
    phibar = SeriesMap([c.conjugate_swapped(tau_map, ctx_taup)
                        for c in phi_p.components])
    phibar_on = list(Mp.restrict(phibar, "xi"))
    ctx_src = phibar_on[0].context
    S = phibar_on[:Mp.m] + [c.remapped(ctx_src) for c in phi_p.components]

    # Solve S(zeta, t) = (tc) for (zeta, t); theta'' is the transversal part
    # of phibar at that solution, with tc renamed to (zeta'', t'').
    temp = tuple("tc%d" % i for i in range(len(S)))
    ctx_big = VariableContext(temp + ctx_src.names)
    eqs = []
    for i, s in enumerate(S):
        eqs.append(s.remapped(ctx_big)
                   - TruncatedSeries.variable(ctx_big, N, temp[i]))
    try:
        inv = formal_ift(SeriesMap(eqs), list(ctx_src.names))
    except SeriesError as exc:
        raise ReflectionError("target split failure after the change: %s"
                              % exc)
    rename = dict(zip(temp, Mp.names.zeta + Mp.names.t))
    theta_new = [phibar_on[Mp.m + j].compose(list(inv.components))
                 .remapped(Mp.ctx_theta, rename) for j in range(Mp.d)]
    return GraphedManifold.from_theta(Mp.m, Mp.d, SeriesMap(theta_new),
                                      primed=True, check=False)


def composed_jet_table(hmap: FormalCRMap, depth: int) -> dict:
    """(j, beta) -> (1/beta!) [d^beta theta'_j](fbar o, h o) at zeta = 0.

    These are the right-hand sides of the component expansion, as series in
    the source t variables; entry (j, beta) is exact to order - |beta|.
    """
    check_budget("composed_jet_table", hmap.order, depth=depth)
    M, Mp = hmap.M, hmap.Mp
    args = list(M.restrict(hmap.fbar, "zeta0")) + list(hmap.h.components)
    out = {}
    for j in range(Mp.d):
        for beta in multidegrees(Mp.m, depth):
            d = Mp.theta[j].derive_multi(tuple(beta) + zero_exponent(Mp.n))
            out[(j, beta)] = d.compose(args) * (ONE / factorial_multi(beta))
    return out


def target_change_transport(components: ReflectionComponents,
                            phi_p: SeriesMap) -> ReflectionComponents:
    """Transport a component table through a target change of coordinates.

    Recomputes the graph of the image manifold, then evaluates the new
    components through the inversion formula applied to the composed jet
    table of the change (the substitution chain at zeta = 0), finally
    substituting h.  Consistency with the direct recomputation holds within
    the shared precision.
    """
    h = components.h
    M, Mp = h.M, h.Mp
    N = h.order
    Mpp = transform_target(Mp, phi_p)
    ctx_tp = VariableContext(Mp.names.t)
    if phi_p.context != ctx_tp:
        phi_p = phi_p.remapped(ctx_tp)
    hpp = FormalCRMap(SeriesMap([c.compose(list(h.h.components))
                                 for c in phi_p.components]), M, Mpp)
    change = FormalCRMap(phi_p, Mp, Mpp)

    gmax = components.gmax
    q = composed_jet_table(change, N)

    fb0 = list(Mp.restrict(change.fbar, "zeta0").truncated(N))

    raw = invert_expansion(q, fb0, Mp.m, N)
    return ReflectionComponents(hpp, gmax,
                                _compose_components(h, gmax, raw.items()))


def chain_pullback(F: SeriesMap, chain: SegreChain) -> SeriesMap:
    """Compose a map on the joint (t, tau) context with a Segre chain.

    When the map only involves t (resp. tau) variables and the chain's last
    flow acts on the other block, the pullback collapses to the shorter
    chain; the collapse is asserted exactly before returning.
    """
    M = chain.M
    if F.context != M.ctx_joint:
        F = F.remapped(M.ctx_joint)
    pulled = F.compose(chain.components)
    if chain.k >= 1:
        used = set()
        for c in F.components:
            used |= {M.ctx_joint.names[i] for i in c.support_variables()}
        t_names = set(M.names.t)
        tau_names = set(M.names.tau)
        pure_t = used <= t_names
        pure_tau = used <= tau_names
        barred_first = chain.start_side == "barred"
        last_flow_barred = (chain.k % 2 == 1) == barred_first
        collapses = (pure_t and last_flow_barred) or \
                    (pure_tau and not last_flow_barred)
        if collapses and chain.k >= 2:
            shorter = chain.restricted_to_shorter(chain.k - 1)
            expect = F.compose(shorter.components).remapped(pulled.context)
            if expect != pulled:
                raise AssertionError(
                    "parity collapse violated on a chain pullback")
    return pulled
