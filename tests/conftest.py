"""Shared fixtures: model manifolds and seeded random data generators."""

import random
from contextlib import contextmanager
from fractions import Fraction
from heapq import heapify, heappop, heappush
from unittest import mock

import pytest

from crreflect import linalg
from crreflect.context import VariableContext, multidegrees, zero_exponent
from crreflect.gaussian import ONE, ZERO, GaussianRational, I
from crreflect.kernels import iadd_scaled, mul_terms
from crreflect.manifold import (Derivation, RealDefiningSystem,
                                complexify_and_graph, fields)
from crreflect.reflection import (CramerTable, FormalCRMap, ReflectionError,
                                  _adjugate, _det, _multidegree_table)
from crreflect.segre import chain
from crreflect.series import (SeriesError, SeriesMap, TruncatedSeries, _coeff,
                              check_budget, factorial_multi, invert_matrix,
                              jacobian_at_zero)


def make_heisenberg(order=8, primed=False):
    """w = conj(w) + i z conj(z) in C^2."""
    ctx = VariableContext(("t1", "t2", "tau1", "tau2"))
    t1 = TruncatedSeries.variable(ctx, order, "t1")
    t2 = TruncatedSeries.variable(ctx, order, "t2")
    s1 = TruncatedSeries.variable(ctx, order, "tau1")
    s2 = TruncatedSeries.variable(ctx, order, "tau2")
    system = RealDefiningSystem(2, 1, SeriesMap([t2 - s2 - I * t1 * s1]))
    return complexify_and_graph(system, primed=primed)


def make_sphere3(order=8, primed=False):
    """w = conj(w) + i (z1 conj(z1) + z2 conj(z2)) in C^3."""
    ctx = VariableContext(("t1", "t2", "t3", "tau1", "tau2", "tau3"))
    v = {n: TruncatedSeries.variable(ctx, order, n) for n in ctx.names}
    rho = v["t3"] - v["tau3"] - I * (v["t1"] * v["tau1"]
                                     + v["t2"] * v["tau2"])
    system = RealDefiningSystem(3, 1, SeriesMap([rho]))
    return complexify_and_graph(system, primed=primed)


def make_ex121(order=8, primed=True):
    """The degenerate hypersurface w = conj(w) + i z1 conj(z1) in C^3."""
    ctx = VariableContext(("t1", "t2", "t3", "tau1", "tau2", "tau3"))
    v = {n: TruncatedSeries.variable(ctx, order, n) for n in ctx.names}
    rho = v["t3"] - v["tau3"] - I * v["t1"] * v["tau1"]
    system = RealDefiningSystem(3, 1, SeriesMap([rho]))
    return complexify_and_graph(system, primed=primed)


def make_flat(order=8, m=1, d=1, primed=False):
    n = m + d
    ctx = VariableContext(tuple("t%d" % i for i in range(1, n + 1))
                          + tuple("tau%d" % i for i in range(1, n + 1)))
    comps = []
    for j in range(d):
        wj = TruncatedSeries.variable(ctx, order, "t%d" % (m + j + 1))
        xij = TruncatedSeries.variable(ctx, order, "tau%d" % (m + j + 1))
        comps.append(wj - xij)
    return complexify_and_graph(RealDefiningSystem(n, d, SeriesMap(comps)),
                                primed=primed)


def make_z2zb2(order=8, primed=False):
    """w = conj(w) + i z^2 conj(z)^2: minimal but Levi-degenerate at 0."""
    ctx = VariableContext(("t1", "t2", "tau1", "tau2"))
    t1 = TruncatedSeries.variable(ctx, order, "t1")
    t2 = TruncatedSeries.variable(ctx, order, "t2")
    s1 = TruncatedSeries.variable(ctx, order, "tau1")
    s2 = TruncatedSeries.variable(ctx, order, "tau2")
    system = RealDefiningSystem(
        2, 1, SeriesMap([t2 - s2 - I * t1 * t1 * s1 * s1]))
    return complexify_and_graph(system, primed=primed)


def quadric_pair(order=8):
    """w1 = conj(w1) + i z conj(z),  w2 = conj(w2) + i z^2 conj(z)^2."""
    ctx = VariableContext(("t1", "t2", "t3", "tau1", "tau2", "tau3"))
    v = {n: TruncatedSeries.variable(ctx, order, n) for n in ctx.names}
    rho = SeriesMap([
        v["t2"] - v["tau2"] - I * v["t1"] * v["tau1"],
        v["t3"] - v["tau3"] - I * v["t1"] ** 2 * v["tau1"] ** 2,
    ])
    M = complexify_and_graph(RealDefiningSystem(3, 2, rho))
    Mp = complexify_and_graph(RealDefiningSystem(3, 2, rho), primed=True)
    return M, Mp


def random_coeff(rng, small=False):
    span = 3 if small else 9
    return GaussianRational(Fraction(rng.randint(-span, span),
                                     rng.randint(1, 4)),
                            Fraction(rng.randint(-span, span),
                                     rng.randint(1, 4)))


def random_series(ctx, order, rng, degree=None, min_degree=0, density=0.6):
    degree = order if degree is None else degree
    terms = {}
    for e in multidegrees(ctx.arity, degree):
        if sum(e) < min_degree:
            continue
        if rng.random() > density:
            continue
        c = random_coeff(rng, small=True)
        if c:
            terms[e] = c
    return TruncatedSeries(ctx, order, terms)


def random_real_system(seed, m, d, order, degree=3):
    """A seeded random real defining system, generic at 0 by construction.

    The linear part is i(w_j - xi_j); random degree>=2 terms are added and
    symmetrized so reality holds exactly.
    """
    rng = random.Random(seed)
    n = m + d
    ctx = VariableContext(tuple("t%d" % i for i in range(1, n + 1))
                          + tuple("tau%d" % i for i in range(1, n + 1)))
    comps = []
    for j in range(d):
        wj = TruncatedSeries.variable(ctx, order, "t%d" % (m + j + 1))
        xij = TruncatedSeries.variable(ctx, order, "tau%d" % (m + j + 1))
        noise = random_series(ctx, order, rng, degree=degree, min_degree=2,
                              density=0.35)
        comps.append((wj - xij) * I + noise)
    return RealDefiningSystem.symmetrize(n, d, SeriesMap(comps))


def sparse_noise(ctx, order, rng, n_terms=2, degree=3):
    """A handful of random terms of degree 2..degree."""
    terms = {}
    pool = [e for e in multidegrees(ctx.arity, degree) if 2 <= sum(e)]
    for _ in range(n_terms):
        e = pool[rng.randrange(len(pool))]
        c = random_coeff(rng, small=True)
        if c:
            terms[e] = terms.get(e, c * 0) + c
    return TruncatedSeries(ctx, order, terms)


def random_minimal_manifold(seed, order=6):
    """Seeded random minimal manifold; the Levi term guarantees minimality
    (the type is then decided by chains of length at most d+1)."""
    rng = random.Random(seed)
    dims = [(1, 1), (2, 1), (1, 2)][seed % 3]
    m, d = dims
    n = m + d
    ctx = VariableContext(tuple("t%d" % i for i in range(1, n + 1))
                          + tuple("tau%d" % i for i in range(1, n + 1)))
    comps = []
    for j in range(d):
        wj = TruncatedSeries.variable(ctx, order, "t%d" % (m + j + 1))
        xij = TruncatedSeries.variable(ctx, order, "tau%d" % (m + j + 1))
        levi = TruncatedSeries.zero(ctx, order)
        for k in range(m):
            zk = TruncatedSeries.variable(ctx, order, "t%d" % (k + 1))
            zetak = TruncatedSeries.variable(ctx, order, "tau%d" % (k + 1))
            levi = levi + zk * zetak
        noise = sparse_noise(ctx, order, rng, n_terms=2, degree=3)
        comps.append((wj - xij) * I - levi + noise)
    system = RealDefiningSystem.symmetrize(n, d, SeriesMap(comps))
    return complexify_and_graph(system)



def seeded_maps(order=5, seeds=(11, 12, 13)):
    """(label, map) on seeded random manifolds of dims (1,1), (2,1), (1,2),
    one seed each: the identity onto the primed copy, a CR map, and the
    identity plus seeded terms of degree 2..3, which is not CR."""
    out = []
    for seed, (m, d) in zip(seeds, ((1, 1), (2, 1), (1, 2))):
        system = random_real_system(seed, m, d, order)
        M = complexify_and_graph(system)
        Mp = complexify_and_graph(system, primed=True)
        ident = SeriesMap.identity(VariableContext(M.names.t), order)
        rng = random.Random(seed)
        bent = SeriesMap([c + random_series(c.context, order, rng, degree=3,
                                            min_degree=2, density=0.3)
                          for c in ident.components])
        out.append(("%d%d-cr" % (m, d), FormalCRMap(ident, M, Mp)))
        out.append(("%d%d-non-cr" % (m, d), FormalCRMap(bent, M, Mp)))
    return out


def embedded_theta(M):
    """theta over the joint (z, w, zeta, xi) context."""
    return M.theta.remapped(M.ctx_joint)


def embedded_theta_bar(M):
    """theta_bar over the joint (z, w, zeta, xi) context."""
    return M.theta_bar.remapped(M.ctx_joint)


def conjugate_chain_symmetry_defect(M, k):
    """sigma-bar symmetry: the conjugate (`SegreChain.conjugate`) of the
    flow-built barred chain == the flow-built unbarred chain.  Returns None
    when the identity holds exactly, else the first differing pair."""
    read = chain(M, k, "barred").conjugate()
    built = chain(M, k, "unbarred")
    for a, b in zip(read.components, built.components):
        if a != b:
            return (a, b)
    return None


def derivation_words(family, seed):
    """beta -> X^beta(seed) for the commuting derivations X = `family`."""
    return _multidegree_table(lambda k, v: family[k].apply(v), seed)


def cr_fields(M):
    """The two families of complexified CR fields (L_k, and barred)."""
    return fields(M, "L"), fields(M, "Lbar")


def transversal_fields(M):
    """The two transversal families (Upsilon_j, and barred)."""
    return fields(M, "Ups"), fields(M, "UpsBar")


class LiftReference:
    """Reference for a `Derivation` on jet space: the lift built in full,
    as the program built it before it applied the chain rule.

    The base derivation D gains, for each symbol u_{c,alpha} of `jets`
    below the top level, the coefficient sum_v a_v * (const + u)_{c,
    alpha+e_v} over the dependency variables v of `jets`, one product
    series per symbol, and is applied as the plain sum over all of them.
    Top-level symbols are forbidden: an operand that involves one raises.
    """

    def __init__(self, D, jets, context, order):
        base = {}
        for i, val in D.coeffs.items():
            if isinstance(val, TruncatedSeries):
                val = val.remapped(context)
            base[D.context.names[i]] = val
        coeffs = dict(base)
        forbidden = set()
        active = [(slot, base[n]) for slot, n in enumerate(jets.dep_names)
                  if n in base]
        for c in range(jets.n_components):
            for alpha in jets.alphas:
                if sum(alpha) >= jets.level:
                    forbidden.add(context.index(jets.name(c, alpha)))
                    continue
                total = None
                for slot, a_v in active:
                    up = list(alpha)
                    up[slot] += 1
                    piece = jets.jet_series(c, tuple(up), context, order) * a_v
                    total = piece if total is None else total + piece
                if total is not None:
                    coeffs[jets.name(c, alpha)] = total
        self.plain = Derivation(context, coeffs, label=D.label + "^jet")
        self.forbidden = frozenset(forbidden)

    def apply(self, f):
        if f.context != self.plain.context:
            f = f.remapped(self.plain.context)
        if f.support_variables() & self.forbidden:
            raise SeriesError(
                "operand involves jet symbols beyond the lifted level")
        return self.plain.apply(f)


def echelon_reference(rows):
    """Dense Gauss-Jordan elimination, the layout `kernels.echelon` had
    before it took sparse rows: (pivots, reduced) with list rows."""
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


def kernel_basis_reference(matrix):
    """Right kernel of a dense matrix, read off `echelon_reference`."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    pivots, reduced = echelon_reference(matrix)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [ZERO] * ncols
        v[fc] = ONE
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def _bareiss_rank_reference(entries):
    """`linalg.bareiss_rank` as it was before its last step stopped
    dividing: every row below every pivot is eliminated and divided by the
    previous pivot, the last one included, and the loop reads the rank off
    the pivots it finds.  Only the guard for empty rows is new; the old
    code raised IndexError on [[]].  It divides with `_divexact_reference`,
    so one-term pivots are checked against the heap reduction."""
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
    rank = 0
    for col in range(ncols):
        piv = None
        best = None
        for r in range(rank, nrows):
            if m[r][col]:
                size = len(m[r][col])
                if best is None or size < best:
                    best, piv = size, r
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, nrows):
            head = m[r][col]
            for c in range(col, ncols):
                term = mul_terms(pivot, m[r][c], -1)
                if head:
                    iadd_scaled(term, mul_terms(head, m[rank][c], -1), -ONE)
                m[r][c] = _divexact_reference(term, prev) if term else {}
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank


@contextmanager
def bareiss_steps():
    """Record, in order, what `linalg.bareiss_rank` forms while the block
    runs: each product as ("mul", (a, b), out), each `iadd_scaled` as
    ("iadd", (out, a, coeff), sum), sum being a copy of out once a is
    added, and each division as ("divexact", (f, g), out).  A step logs,
    for each entry, its product by a pivot other than 1, the product
    head*y and the `iadd_scaled` that takes it off where head and y are
    both nonzero, and the division by a previous pivot other than 1."""
    log = []
    mul, iadd, div = linalg.mul_terms, linalg.iadd_scaled, linalg.divexact

    def spy_mul(a, b, order):
        out = mul(a, b, order)
        log.append(("mul", (a, b), out))
        return out

    def spy_iadd(out, a, coeff):
        iadd(out, a, coeff)
        log.append(("iadd", (out, a, coeff), dict(out)))

    def spy_div(f, g):
        out = div(f, g)
        log.append(("divexact", (f, g), out))
        return out
    with mock.patch.object(linalg, "mul_terms", spy_mul), \
            mock.patch.object(linalg, "iadd_scaled", spy_iadd), \
            mock.patch.object(linalg, "divexact", spy_div):
        yield log


def _divexact_reference(f, g):
    """`kernels.divexact` as it was before it ran on packed keys and integer
    numerators: tuple keys in a heap under a graded-lex sort key, one
    normalized `GaussianRational` division per quotient term, and each step
    a one-term `mul_terms` product subtracted with `iadd_scaled`."""
    def grlex_desc(e):
        return (-sum(e), tuple([-x for x in e]))

    if not f:
        return {}
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    glead = min(g, key=grlex_desc)
    gc = g[glead]
    q = {}
    rem = dict(f)
    heap = [(grlex_desc(e), e) for e in rem]
    heapify(heap)
    while rem:
        flead = heappop(heap)[1]
        if flead not in rem:
            continue
        t = tuple(a - b for a, b in zip(flead, glead))
        if any(x < 0 for x in t):
            raise ArithmeticError("remainder at %r" % (flead,))
        coeff = rem[flead] / gc
        q[t] = coeff
        step = mul_terms({t: coeff}, g, -1)
        added = [e for e in step if e not in rem]
        iadd_scaled(rem, step, -ONE)
        for e in added:
            heappush(heap, (grlex_desc(e), e))
    return q


def _divide_with_valuation_reference(num, den):
    """`series.divide_with_valuation` as it was before its degree loop ran
    on packed rows: the degree-(mu + s) right-hand side built from one
    normalized `mul_terms` product and one `iadd_scaled` pass per (s, l),
    then divided by the lead with `_divexact_reference`."""
    num._check_compatible(den)
    order = min(num.order, den.order)
    mu = den.valuation()
    if mu is None:
        raise SeriesError("division by a series that is zero to its order")
    for e in num.terms:
        if sum(e) < mu:
            raise SeriesError("numerator valuation below denominator valuation")

    def degree_part(f, k):
        return {e: c for e, c in f.terms.items() if sum(e) == k}

    d_parts = [degree_part(den, k) for k in range(order + 1)]
    lead = d_parts[mu]
    q_parts = []
    for s in range(order - mu + 1):
        rhs = degree_part(num, mu + s)
        for l in range(1, s + 1):
            if d_parts[mu + l]:
                prod = mul_terms(q_parts[s - l], d_parts[mu + l], order)
                iadd_scaled(rhs, prod, -ONE)
        try:
            q_parts.append(_divexact_reference(rhs, lead))
        except ArithmeticError as exc:
            raise SeriesError("series not divisible (%s)" % exc) from None
    out = {}
    for qp in q_parts:
        out.update(qp)
    return TruncatedSeries._make(num.context, order - mu, out), mu


def _formal_ift_reference(F, unknowns):
    """`series.formal_ift` as it was before it lifted by precision
    doubling: step k composes F(x, u_{<k}) to degree k, requires no term
    below degree k, and sets u_k = -J^{-1} g_k from its degree-k part g_k;
    after the last step N, g_N + J u_N must vanish."""
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
    sol = [TruncatedSeries.zero(free_ctx, order) for _ in unk]
    for k in range(1, order + 1):
        args = [sol[pos[i]].truncated(k) if i in pos
                else TruncatedSeries.variable(free_ctx, k, name)
                for i, name in enumerate(ctx_all.names)]
        g = [c.truncated(k).compose(args).terms for c in F.components]
        if any(sum(e) < k for terms in g for e in terms):
            raise SeriesError(unverified)
        parts = []
        for j, sol_j in enumerate(sol):
            part = {}
            for r in range(len(unk)):
                iadd_scaled(part, g[r], -inv_block[j][r])
            parts.append(part)
            sol[j] = TruncatedSeries._make(free_ctx, order,
                                           {**sol_j.terms, **part})

    for terms, row in zip(g, block):
        residual = dict(terms)
        for part, c in zip(parts, row):
            iadd_scaled(residual, part, c)
        if residual:
            raise SeriesError(unverified)
    return SeriesMap(sol)


def _q_jbeta_cramer_reference(h, beta_max=1):
    """`reflection.q_jbeta_cramer` as it was before it divided by the
    determinant: each value is its numerator times the inverse of det."""
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
    det_inv = det.invert_unit()
    adj = _adjugate(A)

    values = {}
    for j in range(M.d):
        values[(j, zero_exponent(m))] = gbar_on[j]
    level = {zero_exponent(m)}
    for _ in range(beta_max):
        nxt = set()
        for beta in sorted(level):
            for j in range(M.d):
                v = values[(j, beta)]
                rhs = [v.derive(zeta_idx[k]) for k in range(m)]
                for l in range(m):
                    target = beta[:l] + (beta[l] + 1,) + beta[l + 1:]
                    if (j, target) in values:
                        continue
                    sol = None
                    for k in range(m):
                        piece = adj[l][k] * rhs[k]
                        sol = piece if sol is None else sol + piece
                    values[(j, target)] = sol * det_inv.truncated(sol.order)
                    nxt.add(target)
        level = nxt

    entries = {}
    for (j, beta), v in values.items():
        scale = ONE / factorial_multi(beta)
        cramer = v * scale
        d_theta = Mp.theta[j].derive_multi(
            tuple(beta) + zero_exponent(Mp.n))
        direct = d_theta.compose(fbar_on + h_emb) * scale
        entries[(j, beta)] = (cramer, direct)
    return CramerTable(det0, entries)


def _evaluate_reference(series, point):
    """`TruncatedSeries.evaluate` as it was before it ran in Gaussian
    integers: one normalized GaussianRational product per variable of
    each term, and one normalized sum per term."""
    if isinstance(point, dict):
        point = [point[n] for n in series.context.names]
    point = [_coeff(p) for p in point]
    cache = [{0: ONE} for _ in point]

    def pw(i, k):
        got = cache[i].get(k)
        if got is None:
            got = pw(i, k - 1) * point[i]
            cache[i][k] = got
        return got

    total = ZERO
    for e, c in series.terms.items():
        v = c
        for i, k in enumerate(e):
            if k:
                v = v * pw(i, k)
        total = total + v
    return total


ACCEPTANCE_LINES = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    _ACCEPTANCE_OUTCOMES[report.nodeid] = report.outcome


_ACCEPTANCE_OUTCOMES = {}


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, outside capture."""
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for nodeid in sorted(_ACCEPTANCE_OUTCOMES):
        name = nodeid.split("::")[-1]
        number = int(name.split("_")[2])
        outcome = _ACCEPTANCE_OUTCOMES[nodeid]
        detail = ACCEPTANCE_LINES.get(number, "")
        terminalreporter.write_line(
            "  criterion %2d: %s  %s"
            % (number, "PASS" if outcome == "passed" else outcome.upper(),
               detail))


@pytest.fixture(scope="session")
def heisenberg():
    return make_heisenberg()


@pytest.fixture(scope="session")
def heisenberg_target():
    return make_heisenberg(primed=True)
