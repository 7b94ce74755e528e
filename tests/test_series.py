"""Series-core operations against their independent oracles."""

import ast
import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from conftest import (_evaluate_reference, _formal_ift_reference,
                      random_minimal_manifold, random_real_system,
                      random_series, seeded_maps)
import crreflect
from crreflect import series
from crreflect.context import VariableContext, multidegrees, zero_exponent
from crreflect.gaussian import I, ONE, ZERO, gr
from crreflect.kernels import iadd_scaled, mul_terms
from crreflect.manifold import JetSymbols, complexify_and_graph, verify_reality
from crreflect.reflection import reflection_identities, resolve_finitely_nondeg
from crreflect.segre import chain
from crreflect.series import (SeriesMap, TruncatedSeries, SeriesError,
                              divide_with_valuation, formal_ift, jet,
                              factorial_multi, jacobian_at_zero, mul_precise)

CTX2 = VariableContext(("z", "w"))
CTX1 = VariableContext(("x",))


def var(ctx, name, order=8):
    return TruncatedSeries.variable(ctx, order, name)


# -- arithmetic ----------------------------------------------------------------


def test_difference_of_squares():
    z = var(CTX2, "z")
    assert (1 + z) * (1 - z) == 1 - z * z


def test_i_zeta_squared():
    z = var(CTX2, "z")
    assert (I * z) * (I * z) == -(z * z)


def test_truncation_drops_high_degrees():
    z = var(CTX2, "z", order=2)
    f = z + z * z
    assert f * f == TruncatedSeries(CTX2, 2, {(2, 0): 1})


def test_context_mismatch_raises():
    with pytest.raises(SeriesError):
        var(CTX2, "z") * var(CTX1, "x")


@pytest.mark.parametrize("make", [
    lambda order: TruncatedSeries(CTX2, order),
    lambda order: TruncatedSeries.zero(CTX2, order),
    lambda order: TruncatedSeries.constant(CTX2, order, 3),
    lambda order: TruncatedSeries.constant(CTX2, order, 0),
    lambda order: TruncatedSeries.variable(CTX2, order, "z"),
], ids=["init", "zero", "constant", "constant-zero", "variable"])
def test_constructors_refuse_a_negative_order(make):
    with pytest.raises(SeriesError, match="order must be non-negative"):
        make(-5)
    assert make(0).order == 0


XY = VariableContext(("x", "y"))


@pytest.mark.parametrize("make", [
    lambda: TruncatedSeries(XY, 3, {(-1, 2): 1}),
    lambda: TruncatedSeries(XY, 3, {(-1, 2): 1, (1, 0): 1, (0, 1): 2}),
    lambda: TruncatedSeries(XY, 3, {(0, 0): 1, (2, -1): 0}),
    lambda: TruncatedSeries.monomial(XY, 3, (0, -1)),
    lambda: TruncatedSeries.monomial(XY, 3, [-2, 5]),
], ids=["init", "init-mixed", "init-zero-coefficient", "monomial",
        "monomial-list"])
def test_constructors_refuse_a_negative_exponent(make):
    # a negative field would borrow from the field above it in a packed
    # key: x^-1 * y^2 printed as y^2, and a product reached x^7 * y^3 at
    # order 3
    with pytest.raises(SeriesError, match=r"exponent \(.*-\d.*\) has a "
                       r"negative entry"):
        make()


def test_derive_multi_refuses_a_negative_order():
    u = TruncatedSeries(XY, 3, {(1, 1): 1, (0, 1): 2})
    for exponent in [(-1, 0), (0, -2), (1, -1)]:
        with pytest.raises(SeriesError, match=re.escape(
                "derivative order %r has a negative entry" % (exponent,))):
            u.derive_multi(exponent)
    assert u.derive_multi((0, 0)) == u
    assert u.derive_multi((1, 0)) == TruncatedSeries(XY, 2, {(0, 1): 1})


def test_exponents_of_the_wrong_arity_are_refused():
    # An exponent is not padded or cut to the context's arity: one entry
    # too few, none at all, or one too many is an error naming the arity.
    u = TruncatedSeries(XY, 3, {(1, 0): 1, (1, 1): 2})
    for exponent in [(1,), (), (0, 0, 1)]:
        with pytest.raises(SeriesError, match=re.escape(
                "derivative order %r does not have the arity 2 of %r"
                % (exponent, XY))):
            u.derive_multi(exponent)
        with pytest.raises(SeriesError, match=re.escape(
                "exponent %r does not have the arity 2 of %r"
                % (exponent, XY))):
            u.coefficient(exponent)
    assert u.coefficient([1, 1]) == gr(2)


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(25):
        a = random_series(CTX2, 5, rng, degree=3)
        b = random_series(CTX2, 5, rng, degree=3)
        c = random_series(CTX2, 5, rng, degree=3)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# -- composition ---------------------------------------------------------------


def test_compose_direct_substitution():
    x = var(CTX1, "x")
    f = x + x * x
    assert f.compose([2 * x]) == 2 * x + 4 * x * x


def test_compose_identity():
    z, w = var(CTX2, "z"), var(CTX2, "w")
    f = z + w * w * z
    assert f.compose([z, w]) == f


def test_compose_rejects_constant_terms():
    x = var(CTX1, "x")
    with pytest.raises(SeriesError):
        x.compose([x + 1])


def test_compose_brute_force_oracle():
    # f(args) must match the termwise expansion sum c_alpha prod args^alpha
    rng = random.Random(19)
    for _ in range(6):
        f = random_series(CTX2, 5, rng, degree=3)
        g1 = random_series(CTX2, 5, rng, degree=2, min_degree=1)
        g2 = random_series(CTX2, 5, rng, degree=2, min_degree=1)
        brute = TruncatedSeries.zero(CTX2, 5)
        for e, c in f.terms.items():
            brute = brute + c * (g1 ** e[0]) * (g2 ** e[1])
        assert f.compose([g1, g2]) == brute


def test_compose_chain_rule_oracle():
    # d(f o g)/dx == (f' o g) * g' on random degree-<=3 inputs
    rng = random.Random(23)
    for _ in range(10):
        f = random_series(CTX1, 6, rng, degree=3)
        g = random_series(CTX1, 6, rng, degree=3, min_degree=1)
        lhs = f.compose([g]).derive(0)
        rhs = f.derive(0).compose([g.truncated(5)]) * g.derive(0)
        assert lhs == rhs


def test_compose_associative():
    rng = random.Random(5)
    for _ in range(8):
        f = random_series(CTX1, 6, rng, degree=3)
        g = random_series(CTX1, 6, rng, degree=3, min_degree=1)
        h = random_series(CTX1, 6, rng, degree=3, min_degree=1)
        assert f.compose([g]).compose([h]) == f.compose([g.compose([h])])


def test_remapped_sums_terms_that_meet():
    # z and w both renamed to t: the terms that meet there are summed, and
    # a sum of zero is dropped, as `compose` with the images t, t does.
    ctx_t = VariableContext(("t", "s"))
    t = var(ctx_t, "t", order=4)
    z, w = var(CTX2, "z", order=4), var(CTX2, "w", order=4)
    both = {"z": "t", "w": "t"}
    for f in [z + w, z - w + z * w, 3 * z * w - w * z + z * z * (1 - I)]:
        got = f.remapped(ctx_t, both)
        want = f.compose([t, t])
        assert got == want and got.order == want.order
        assert list(got.terms.items()) == list(want.terms.items())
    assert (z + w).remapped(ctx_t, both) == 2 * t
    assert (z - w).remapped(ctx_t, both).is_zero()
    # an injective rename keeps every term, in its order
    f = w * w + 2 * z
    got = f.remapped(ctx_t, {"z": "s", "w": "t"})
    assert list(got.terms.items()) == list(
        f.compose([var(ctx_t, "s", order=4), t]).terms.items())


# Reference for `compose`: the loop it ran before `kernels.compose_terms`,
# one `mul_terms` per power of the moving arguments and per group, summed
# with `iadd_scaled`.


def _compose_reference(f, args):
    args = list(args)
    target = args[0].context
    order = min([f.order] + [a.order for a in args])
    moving = [i for i, a in enumerate(args) if len(a.terms) > 1]
    dropped = [i for i, a in enumerate(args) if not a.terms]
    monos = []
    for i, a in enumerate(args):
        if len(a.terms) == 1:
            (m, c), = a.terms.items()
            monos.append((i, [(p, x) for p, x in enumerate(m) if x],
                          sum(m), None if c == ONE else c))
    groups = {}
    for alpha, c in f.terms.items():
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
                    c = c * mc ** k
        if deg > order:
            continue
        e = tuple(shifted)
        group = groups.setdefault(beta, {})
        group[e] = group[e] + c if e in group else c

    moving_terms = [args[i].terms for i in moving]
    powers = {zero_exponent(len(moving)): {zero_exponent(target.arity): ONE}}

    def power(beta):
        got = powers.get(beta)
        if got is None:
            i = next(j for j, x in enumerate(beta) if x)
            prev = power(beta[:i] + (beta[i] - 1,) + beta[i + 1:])
            got = powers[beta] = mul_terms(prev, moving_terms[i], order)
        return got

    out = {}
    for beta, group in groups.items():
        group = {e: c for e, c in group.items() if c}
        if not group:
            continue
        prod = mul_terms(group, power(beta), order) if any(beta) else group
        if out:
            iadd_scaled(out, prod, ONE)
        else:
            out = prod
    return TruncatedSeries._make(target, order, out)


@pytest.fixture
def checked_compose(monkeypatch):
    """Make every `compose` call check itself against the reference loop;
    returns the list of (source arity, target arity) of the calls made."""
    calls = []
    plain = TruncatedSeries.compose

    def compose(self, args):
        got = plain(self, args)
        if isinstance(args, SeriesMap):
            args = args.components
        want = _compose_reference(self, args)
        assert got == want
        assert got.order == want.order and got.context == want.context
        assert all(got.terms.values())
        calls.append((self.context.arity, got.context.arity))
        return got

    monkeypatch.setattr(TruncatedSeries, "compose", compose)
    return calls


_SHAPES = [(0, 1, 1), (1, 2, 1), (2, 1, 2)]


@pytest.mark.parametrize("seed,m,d", _SHAPES)
def test_compose_matches_reference_in_graphing_and_reality(
        checked_compose, seed, m, d):
    M = complexify_and_graph(random_real_system(seed, m, d, 5))
    graphed = len(checked_compose)
    assert verify_reality(M).ok
    assert graphed and len(checked_compose) > graphed


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compose_matches_reference_in_segre_flows(checked_compose, seed):
    M = random_minimal_manifold(seed, order=5)
    for side in ("barred", "unbarred"):
        chain(M, M.d + 1, side)
    assert checked_compose


@pytest.mark.parametrize("seed,m,d", _SHAPES)
def test_compose_matches_reference_in_restrict(checked_compose, seed, m, d):
    # f lives over the joint coordinates plus two components of level-2
    # jet symbols: 16 (1,1), 26 (2,1) or 22 (1,2) variables
    M = complexify_and_graph(random_real_system(seed, m, d, 5))
    rng = random.Random(seed + 40)
    jets = JetSymbols("u", 2, M.names.tau, 2)
    ctx = VariableContext(M.ctx_joint.names + jets.names)
    assert ctx.arity >= 16
    f = random_series(ctx, M.order, rng, degree=3, density=0.05)
    targets = {"xi": M.ctx_restrict_xi, "w": M.ctx_restrict_w,
               "leaf": VariableContext(M.names.z),
               "leaf_bar": VariableContext(M.names.zeta)}
    for side, target in targets.items():
        if side == "leaf_bar":  # over tau only, as its callers use it
            f = random_series(VariableContext(M.names.tau + jets.names),
                              M.order, rng, degree=3, density=0.1)
        extra = {u: random_series(target, M.order - 1, rng, degree=2,
                                  min_degree=1, density=0.5)
                 for u in jets.names}
        extra[jets.names[0]] = TruncatedSeries.zero(target, M.order)
        got = M.restrict(f, side, extra)
        assert got.context == target and got.order == M.order - 1
    assert len(checked_compose) >= 4


def test_compose_matches_reference_in_reflection(checked_compose,
                                                 monkeypatch):
    # The reflection identities make many-group compositions whose moving
    # arguments have only 2 or 3 terms within the order, the shape on which
    # Horner's partial sums gain least over the powers.
    sizes = []
    plain = series.compose_terms

    def compose_terms(terms, args, arity, order):
        for k, a in enumerate(args):
            if len(a) > 1 and any(alpha[k] and sum(alpha) <= order
                                  for alpha in terms):
                sizes.append(sum(sum(e) <= order for e in a))
        return plain(terms, args, arity, order)

    monkeypatch.setattr(series, "compose_terms", compose_terms)
    maps = dict(seeded_maps())
    assert reflection_identities(maps["11-cr"], beta_max=1).ok
    assert not reflection_identities(maps["11-non-cr"], beta_max=1).ok
    resolve_finitely_nondeg(maps["11-cr"], ell0=1)
    assert any(2 <= size < 4 for size in sizes)
    assert checked_compose


# -- conjugation ---------------------------------------------------------------


def test_conjugate_basics():
    z = var(CTX2, "z")
    assert (I * z).conjugate() == -I * z
    rng = random.Random(3)
    for _ in range(20):
        f = random_series(CTX2, 5, rng)
        g = random_series(CTX2, 5, rng)
        assert f.conjugate().conjugate() == f
        assert (f * g).conjugate() == f.conjugate() * g.conjugate()
        assert (f + g).conjugate() == f.conjugate() + g.conjugate()


# -- differentiation -----------------------------------------------------------


def test_derive_basics():
    z, w = var(CTX2, "z"), var(CTX2, "w")
    assert (z * z * w).derive("z") == (2 * z * w).truncated(7)
    const = TruncatedSeries.constant(CTX2, 8, gr(5))
    assert const.derive("z").is_zero()
    assert const.derive("z").order == 7


def test_jacobian_at_zero_matches_derivatives():
    rng = random.Random(23)
    ctx = VariableContext(("x", "y", "z"))
    for order in (1, 2, 5):
        comps = [random_series(ctx, order, rng, density=0.5)
                 for _ in range(3)]
        for variables in ([0, 1, 2], [2, 0], [1], []):
            assert jacobian_at_zero(comps, variables) == [
                [c.derive(v).constant_term() for v in variables]
                for c in comps]


def test_jacobian_at_zero_needs_precision():
    flat = [var(CTX2, "z", 1), TruncatedSeries.constant(CTX2, 0, gr(2))]
    with pytest.raises(SeriesError, match="no precision left to differentiate"):
        jacobian_at_zero(flat, [0, 1])
    with pytest.raises(SeriesError, match="no precision left to differentiate"):
        flat[1].derive(0)
    assert jacobian_at_zero(flat[:1], [1, 0]) == [[ZERO, ONE]]


def test_coefficient_extraction_oracle():
    # phi_alpha = (1/alpha!) d^alpha phi (0)
    rng = random.Random(17)
    for _ in range(5):
        f = random_series(CTX2, 5, rng)
        for alpha in multidegrees(2, 3):
            d = f.derive_multi(alpha)
            got = d.constant_term() * (ONE / factorial_multi(alpha))
            assert got == f.coefficient(alpha)


def test_leibniz():
    rng = random.Random(29)
    for _ in range(10):
        f = random_series(CTX2, 6, rng)
        g = random_series(CTX2, 6, rng)
        lhs = (f * g).derive("z")
        rhs = f.truncated(5) * g.derive("z") + g.truncated(5) * f.derive("z")
        assert lhs == rhs


# -- inversion and division ----------------------------------------------------


def test_geometric_series():
    z = var(CTX2, "z", order=3)
    assert (1 - z).invert_unit() == 1 + z + z * z + z * z * z


def test_invert_constant():
    half = TruncatedSeries.constant(CTX2, 4, gr("1/2"))
    assert half.invert_unit() == TruncatedSeries.constant(CTX2, 4, gr(2))


def test_invert_unit_oracle():
    rng = random.Random(31)
    one = TruncatedSeries.constant(CTX2, 6, ONE)
    for _ in range(10):
        f = random_series(CTX2, 6, rng) + gr(2)
        assert f * f.invert_unit() == one


def test_invert_zero_constant_raises():
    with pytest.raises(SeriesError):
        var(CTX2, "z").invert_unit()


def test_divide_simple():
    z = var(CTX2, "z")
    q, lost = divide_with_valuation(z * z, z)
    assert q == z.truncated(7) and lost == 1
    num = z - z * z * z
    den = 1 - z * z
    q, lost = divide_with_valuation(num, den)
    assert q == z and lost == 0


def test_divide_multiply_back_oracle():
    rng = random.Random(37)
    for mu in (0, 1, 2):
        for _ in range(8):
            q_true = random_series(CTX2, 8, rng)
            den = random_series(CTX2, 8, rng, min_degree=mu) \
                + TruncatedSeries.monomial(CTX2, 8, (mu, 0))
            num = q_true * den
            q, lost = divide_with_valuation(num, den)
            assert lost == mu
            assert q == q_true.truncated(8 - mu)


def test_divide_rejects_non_divisible():
    z, w = var(CTX2, "z"), var(CTX2, "w")
    with pytest.raises(SeriesError):
        divide_with_valuation(w, z)


def test_divide_by_zero_raises():
    z = var(CTX2, "z")
    with pytest.raises(SeriesError):
        divide_with_valuation(z, TruncatedSeries.zero(CTX2, 8))
    # z^3 + 2*w^4 is zero to the working order 2 of the division
    den = TruncatedSeries(CTX2, 5, {(3, 0): ONE, (0, 4): gr(2)})
    with pytest.raises(SeriesError, match="zero to its order"):
        divide_with_valuation(TruncatedSeries.zero(CTX2, 2), den)


def test_mul_precise_gains_precision():
    # a known to degree 4, b = z^3 known to degree 8: the tail of a only
    # pollutes degrees above 4 + 3.
    z = var(CTX2, "z", order=4)
    a = (1 + z).truncated(4)
    b = TruncatedSeries.monomial(CTX2, 8, (3, 0))
    assert mul_precise(a, b).order == 7
    assert mul_precise(a, b).coefficient((4, 0)) == ONE


def test_mul_precise_zero_factor():
    # 0 + O(x^3) times x + O(x^11) is O(x^4): exact to degree 3, not 10
    a = TruncatedSeries.zero(CTX1, 2)
    b = var(CTX1, "x", order=10)
    for p in (mul_precise(a, b), mul_precise(b, a)):
        assert p.order == 3 and p.is_zero()
    # a zero factor against a unit keeps only the zero factor's order
    assert mul_precise(a, 1 + b).order == 2


@pytest.mark.parametrize("pa,pb", [(0, 0), (2, 5), (4, 1)])
def test_mul_precise_both_zero(pa, pb):
    a = TruncatedSeries.zero(CTX2, pa)
    b = TruncatedSeries.zero(CTX2, pb)
    assert mul_precise(a, b).order == pa + pb + 1
    assert mul_precise(a, b).is_zero()


# -- implicit solve -------------------------------------------------------------


def test_formal_ift_catalan():
    ctx = VariableContext(("x", "u"))
    x, u = var(ctx, "x", 4), var(ctx, "u", 4)
    sol = formal_ift(SeriesMap([u - x - u * u]), ["u"])
    out = sol[0]
    assert [out.coefficient((k,)) for k in range(1, 5)] == \
        [ONE, ONE, gr(2), gr(5)]


def test_formal_ift_explicit_system():
    # w = xi + i z zeta, already explicit
    ctx = VariableContext(("z", "zeta", "xi", "w"))
    z, zeta, xi, w = (var(ctx, n, 6) for n in ctx.names)
    sol = formal_ift(SeriesMap([w - xi - I * z * zeta]), ["w"])
    free = sol[0].context
    assert free.names == ("z", "zeta", "xi")
    expect = TruncatedSeries.variable(free, 6, "xi") \
        + I * TruncatedSeries.variable(free, 6, "z") \
        * TruncatedSeries.variable(free, 6, "zeta")
    assert sol[0] == expect


def test_formal_ift_substitute_back():
    rng = random.Random(41)
    ctx = VariableContext(("x", "y", "u"))
    x, y, u = (var(ctx, n, 5) for n in ctx.names)
    for _ in range(6):
        g = random_series(ctx, 5, rng, degree=3, min_degree=2)
        F = SeriesMap([u - x * y - g])
        sol = formal_ift(F, ["u"])
        free = sol[0].context
        args = [TruncatedSeries.variable(free, 5, "x"),
                TruncatedSeries.variable(free, 5, "y"), sol[0]]
        assert F[0].compose(args).is_zero()


@pytest.mark.parametrize("order, quadratic", [
    (1, True), (2, True), (4, True), (2, False), (4, False)])
def test_formal_ift_rejects_a_wrong_inverse(monkeypatch, order, quadratic):
    # Twice the true inverse over-corrects every degree.  At every order the
    # per-degree check r_j + J d_j = 0 fires first, at degree 1 of the first
    # step (to precision 1, or to the order when F is affine in u): there
    # r_1 = -x and d_1 = 2x, so r_1 + J d_1 = x.  The check that the next
    # step's composition has no term of degree <= h is not reached.
    true_inverse = series.invert_matrix
    monkeypatch.setattr(series, "invert_matrix", lambda m: [
        [c * 2 for c in row] for row in true_inverse(m)])
    ctx = VariableContext(("x", "u"))
    x, u = var(ctx, "x", order), var(ctx, "u", order)
    F = u - x - u * u if quadratic else u - x
    with pytest.raises(SeriesError,
                       match="internal: implicit solve failed to verify"):
        formal_ift(SeriesMap([F]), ["u"])


def test_formal_ift_schedule_is_read_off_the_system(monkeypatch):
    # The orders of the `compose` calls give the schedule.  The step from
    # u = 0 reads F and its partials off without composing.  Affine in the
    # unknowns (x u terms, no term of degree >= 2 in u, v): the one step
    # 0 -> 8 composes nothing.  Catalan, u = x + u^2, at order 6: doubling
    # through 1, 3, 6, each step after the first composing the equation to
    # order n and the partial to n - h - 1.
    ctx = VariableContext(("x", "y", "u", "v"))
    x, y, u, v = (var(ctx, n) for n in ctx.names)
    affine = SeriesMap([u - x + x * v + y * y * u,
                        2 * v + I * x * u - y + x * y * v])
    ctx = VariableContext(("x", "u"))
    x, u = var(ctx, "x", 6), var(ctx, "u", 6)
    catalan = SeriesMap([u - x - u * u])
    want = [_formal_ift_reference(affine, ["u", "v"]),
            _formal_ift_reference(catalan, ["u"])]
    orders = []
    plain = TruncatedSeries.compose
    monkeypatch.setattr(TruncatedSeries, "compose", lambda self, args: (
        orders.append(self.order) or plain(self, args)))
    assert formal_ift(affine, ["u", "v"]) == want[0]
    assert orders == []
    orders.clear()
    assert formal_ift(catalan, ["u"]) == want[1]
    assert orders == [3, 1, 6, 2]


def test_formal_ift_singular_block_raises():
    ctx = VariableContext(("x", "u"))
    x, u = var(ctx, "x", 4), var(ctx, "u", 4)
    with pytest.raises(SeriesError):
        formal_ift(SeriesMap([x - u * u]), ["u"])


# -- jets -----------------------------------------------------------------------


def test_jet_one_variable():
    x = var(CTX1, "x", 6)
    J = jet(SeriesMap([x * x]), 1)
    assert [str(c) for c in J] == ["x^2", "2*x"]


def test_jet_component_count():
    # n'=1, n=2, ell=2 -> 6 components
    z = var(CTX2, "z", 6)
    assert len(jet(SeriesMap([z]), 2).components) == 1 * comb(2 + 2, 2)
    assert 1 * comb(2 + 2, 2) == 6


def test_jet_constant():
    c = TruncatedSeries.constant(CTX2, 5, gr(7))
    J = jet(SeriesMap([c]), 2)
    assert J[0] == TruncatedSeries.constant(CTX2, 3, gr(7))
    assert all(comp.is_zero() for comp in J.components[1:])


def test_jet_order_guard():
    x = var(CTX1, "x", 3)
    with pytest.raises(SeriesError):
        jet(SeriesMap([x]), 4)


def test_jet_rejects_negative_order():
    # it used to fail with "a series map needs at least one component"
    x = var(CTX1, "x", 3)
    with pytest.raises(SeriesError, match="jet order must be non-negative"):
        jet(SeriesMap([x]), -1)


# -- structural helpers ----------------------------------------------------------


def test_coefficient_table_roundtrip():
    rng = random.Random(43)
    f = random_series(CTX2, 6, rng)
    table = f.coefficient_table(["z"])
    rebuilt = {}
    for g, s in table.items():
        for e, c in s.terms.items():
            rebuilt[(g[0], e[0])] = c
    assert rebuilt == dict(f.terms.items() | set())


def test_evaluate_exact():
    z, w = var(CTX2, "z"), var(CTX2, "w")
    f = 3 * z * z * w - I * w + 1
    val = f.evaluate([gr("1/2"), gr(2, 1)])
    # 3*(1/4)*(2+i) - i*(2+i) + 1 = (3/2+3/4 i) + (1-2i) + 1
    assert val == gr("7/2") + gr(0, "-5/4")


def test_evaluate_edge_cases():
    z, w = var(CTX2, "z"), var(CTX2, "w")
    f = 3 * z * z * w - I * w + 1
    point = [gr("1/2", "-2/3"), gr("-3/5", "1/7")]
    cases = [
        # the zero series
        (TruncatedSeries.zero(CTX2, 4), point, ZERO),
        # a constant
        (TruncatedSeries.constant(CTX2, 4, gr("3/4", -2)), point,
         gr("3/4", -2)),
        # z occurs in no term, so its coordinate is never read
        (2 * w * w - I * w, [gr("5/7", 11), gr(1, 1)], gr(1, 3)),
        # a zero coordinate, as the mirrored multitimes of segre have
        (f, [ZERO, gr(2, 1)], gr(2, -2)),
        (f, [gr(2, 1), ZERO], ONE),
        # a dict point, with a Fraction and an int among its coordinates
        (f, {"w": gr(2, 1), "z": Fraction(1, 2)}, gr("7/2", "-5/4")),
        (f, {"z": 0, "w": 1}, gr(1, -1)),
    ]
    for g, at, want in cases:
        got = g.evaluate(at)
        assert got == want == _evaluate_reference(g, at)
        assert (got.a, got.b, got.c) == (want.a, want.b, want.c)


# The helpers that know the packed exponent layout of `kernels`.
PACKED_HELPERS = {"_packing", "_numerators", "_unpacked", "_add_product",
                  "_product", "_rows", "_exponent"}


def test_packed_layout_stays_in_kernels():
    # Only kernels.py may use the packed layout: no other module of the
    # package imports its helpers, or reads them off the module.
    leaks = []
    for path in sorted(Path(crreflect.__file__).parent.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            leaks += [(path.name, n) for n in names if n in PACKED_HELPERS]
    assert not leaks
