"""Series-core operations against their independent oracles."""

import random
from math import comb

import pytest

from conftest import random_series
from crreflect.context import VariableContext, multidegrees
from crreflect.gaussian import I, ONE, gr
from crreflect.series import (SeriesMap, TruncatedSeries, SeriesError,
                              divide_with_valuation, formal_ift, jet,
                              factorial_multi, mul_precise)

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


def test_mul_precise_gains_precision():
    # a known to degree 4, b = z^3 known to degree 8: the tail of a only
    # pollutes degrees above 4 + 3.
    z = var(CTX2, "z", order=4)
    a = (1 + z).truncated(4)
    b = TruncatedSeries.monomial(CTX2, 8, (3, 0))
    assert mul_precise(a, b).order == 7
    assert mul_precise(a, b).coefficient((4, 0)) == ONE


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
