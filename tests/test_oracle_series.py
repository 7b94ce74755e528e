"""The exact kernels, `compose` and the linear algebra against an
independent oracle: sympy's Gaussian-rational polynomial ring (`QQ_I`),
expand first, truncate after, sympy's `Matrix`, and `DomainMatrix` over
the rational function field `QQ_I(x0, x1)`."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st
from sympy import Matrix, symbols
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import ring

from crreflect import kernels
from crreflect.context import VariableContext
from crreflect.gaussian import ONE, ZERO, GaussianRational, gr
from crreflect.linalg import random_rational_point, symbolic_rank
from crreflect.reflection import _independent_rows
from crreflect.series import TruncatedSeries, invert_matrix, mul_precise

SETTINGS = settings(max_examples=40, deadline=None)

# Distinct non-unit denominators make the common-denominator path rescale.
_DENS = (1, 2, 3, 4, 5, 7, 12)


@st.composite
def coefficients(draw):
    def part():
        return Fraction(draw(st.integers(-30, 30)),
                        draw(st.sampled_from(_DENS)))
    c = GaussianRational(part(), part())
    return c if c else GaussianRational(1)


def term_dicts(arity, max_exp, min_size=0, max_size=8, min_degree=0):
    exps = st.tuples(*[st.integers(0, max_exp)] * arity).filter(
        lambda e: sum(e) >= min_degree)
    return st.dictionaries(exps, coefficients(), min_size=min_size,
                           max_size=max_size)


def _ring(arity):
    return ring(["x%d" % i for i in range(arity)], QQ_I)[0]


def to_sympy(R, terms):
    return R({e: QQ_I(QQ(c.a, c.c), QQ(c.b, c.c)) for e, c in terms.items()})


def from_sympy(p, order=-1):
    """Term dict of a sympy polynomial, truncated to degree <= order."""
    out = {}
    for e, v in p.items():
        if order >= 0 and sum(e) > order:
            continue
        out[tuple(e)] = from_qq_i(v)
    return out


def from_qq_i(v):
    return GaussianRational(
        Fraction(int(v.x.numerator), int(v.x.denominator)),
        Fraction(int(v.y.numerator), int(v.y.denominator)))


def oracle_product(A, B, arity, order):
    R = _ring(arity)
    return from_sympy(to_sympy(R, A) * to_sympy(R, B), order)


def check_mul(A, B, order):
    arity = len(next(iter(A or B), ()))
    got = kernels.mul_terms(dict(A), dict(B), order)
    assert got == oracle_product(A, B, arity, order)
    assert all(got.values())
    assert all(type(e) is tuple and len(e) == arity for e in got)


@st.composite
def mul_cases(draw):
    arity = draw(st.integers(0, 4))
    order = draw(st.integers(-1, 7))
    max_exp = max(order, 3)
    A = draw(term_dicts(arity, max_exp))
    B = draw(term_dicts(arity, max_exp))
    return A, B, order


@SETTINGS
@given(mul_cases())
def test_mul_terms_matches_oracle(case):
    check_mul(*case)


@SETTINGS
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(term_dicts(n, 4, 1, 1), term_dicts(n, 4, 2, 10),
                        st.integers(-1, 6), st.booleans())))
def test_mul_terms_single_term_either_side(case):
    one, many, order, left = case
    check_mul(*((one, many) if left else (many, one)), order)


@pytest.mark.parametrize("order", [1, 3, 7, 8])
def test_mul_terms_full_exponent_fields(order):
    # exponents equal to the order fill every bit of a packed field
    A = {(order, 0, 0): gr("1/2", 3), (0, order, 0): gr(-2, "5/7"),
         (0, 0, 0): gr(1, 1), (1, 0, order - 1): gr("3/4")}
    B = {(0, 0, order): gr(5, "-1/3"), (0, 0, 0): gr("2/5", 1),
         (order, 0, 0): gr(-1), (0, 1, 0): gr(0, "7/12")}
    check_mul(A, B, order)
    check_mul(A, B, -1)


def test_mul_terms_arity_zero_and_one():
    check_mul({(): gr("1/2", 3)}, {(): gr(-4, "1/5")}, 0)
    check_mul({(): gr(2)}, {(): gr(0, 1)}, -1)
    A = {(0,): gr(1, 2), (2,): gr("1/3"), (5,): gr(0, "-3/7")}
    B = {(1,): gr(-1, "1/2"), (4,): gr("5/12", 1), (0,): gr(3)}
    for order in (-1, 0, 1, 5, 6, 9):
        check_mul(A, B, order)


@SETTINGS
@given(st.integers(0, 3).flatmap(
    lambda n: st.tuples(term_dicts(n, 4), term_dicts(n, 4), coefficients())))
def test_iadd_scaled_matches_oracle(case):
    out, A, coeff = case
    arity = len(next(iter(out or A), ()))
    R = _ring(arity)
    c = QQ_I(QQ(coeff.a, coeff.c), QQ(coeff.b, coeff.c))
    want = from_sympy(to_sympy(R, out) + to_sympy(R, A) * c)
    got = dict(out)
    kernels.iadd_scaled(got, A, coeff)
    assert got == want


# -- derivations ------------------------------------------------------------


@st.composite
def derivation_cases(draw):
    n = draw(st.integers(1, 4))
    order = draw(st.integers(0, 6))
    f = draw(term_dicts(n, 4, max_size=10))
    coeffs = {}
    for i in sorted(draw(st.sets(st.integers(0, n - 1)))):
        kind = draw(st.sampled_from(("zero", "constant", "series")))
        if kind == "zero":
            coeffs[i] = {}
        elif kind == "constant":
            coeffs[i] = {(0,) * n: draw(coefficients())}
        else:
            coeffs[i] = draw(term_dicts(n, 4, 1, 6))
    forbidden = draw(st.sets(st.integers(0, n - 1), max_size=2))
    return n, f, coeffs, order, forbidden


@SETTINGS
@given(derivation_cases())
@example((2, {(2, 0): gr(1), (0, 2): gr(1)},
          {0: {(0, 1): gr(1)}, 1: {(1, 0): gr(-1)}}, 4, set()))
@example((3, {(1, 2, 0): gr("1/2", 3), (0, 0, 3): gr(0, "-2/7")},
          {1: {(0, 0, 0): gr(2, "1/3")}, 2: {(0, 1, 0): gr("5/12"),
                                             (3, 1, 0): gr(1, 1)}},
          3, {0}))
@example((2, {(1, 1): gr(1, 1), (2, 0): gr("1/3", -2)},
          {0: {(1, 0): gr(2, 3), (0, 0): gr(0, "1/5")},
           1: {(0, 1): gr(-1, "1/2")}}, 3, set()))
def test_derivation_apply_matches_oracle(case):
    # the first example, (y d/dx - x d/dy)(x^2 + y^2), cancels to zero; in
    # the third, both complex coefficients add into the x*y term
    n, f, coeffs, order, forbidden = case
    table = kernels.derivation_table(coeffs, forbidden)
    got = kernels.derivation_apply(dict(f), table, order)
    if any(e[i] for e in f for i in forbidden):
        assert got is None
        return
    R = _ring(n)
    p = to_sympy(R, f)
    total = R.zero
    for i, c in coeffs.items():
        total += to_sympy(R, c) * p.diff(R.gens[i])
    assert got == from_sympy(total, order)
    assert all(got.values())
    assert all(type(e) is tuple and len(e) == n for e in got)


# -- compose ----------------------------------------------------------------

_KINDS = ("variable", "renamed", "scaled", "monomial", "zero", "series")


@st.composite
def compose_cases(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    src = VariableContext(["x%d" % i for i in range(n)])
    tgt = VariableContext(["y%d" % i for i in range(m)])
    order = draw(st.integers(0, 5))
    f = TruncatedSeries(src, order, draw(term_dicts(n, order, max_size=10)))
    args = []
    for i in range(n):
        kind = draw(st.sampled_from(_KINDS))
        a_order = draw(st.integers(order, order + 2))
        if kind in ("variable", "renamed", "scaled"):
            name = tgt.names[i % m] if kind == "variable" \
                else draw(st.sampled_from(tgt.names))
            a = TruncatedSeries.variable(tgt, a_order, name)
            if kind == "scaled":
                a = a * draw(coefficients())
        elif kind == "monomial":
            e = draw(st.tuples(*[st.integers(0, 2)] * m).filter(any))
            a = TruncatedSeries.monomial(tgt, a_order, e, draw(coefficients()))
        elif kind == "zero":
            a = TruncatedSeries.zero(tgt, a_order)
        else:
            a = TruncatedSeries(tgt, a_order, draw(
                term_dicts(m, a_order, 2, 5, min_degree=1)))
        args.append(a)
    return f, args


def oracle_compose(f, args):
    R = _ring(args[0].context.arity)
    order = min([f.order] + [a.order for a in args])
    total = R.zero
    images = [to_sympy(R, a.terms) for a in args]
    for alpha, c in f.terms.items():
        term = to_sympy(R, {(0,) * R.ngens: c})
        for g, k in zip(images, alpha):
            if k:
                term *= g ** k
        total += term
    return order, from_sympy(total, order)


def _series(names, order, terms):
    """A series over `names` from {exponent: gr arguments}."""
    return TruncatedSeries(VariableContext(names), order,
                           {e: gr(*c) for e, c in terms.items()})


_XY = (["x0", "x1"], ["y0", "y1"])
_X3 = ["x0", "x1", "x2"]
_Y12 = ["y%d" % i for i in range(12)]


@SETTINGS
@given(compose_cases())
@example((_series(_XY[0], 3, {(1, 1): (1,), (0, 2): (-1,), (1, 0): (2,)}),
          [TruncatedSeries.variable(VariableContext(["y0"]), 3, "y0"),
           TruncatedSeries.variable(VariableContext(["y0"]), 3, "y0")]))
@example((_series(_XY[0], 3, {(2, 0): ("1/5",), (0, 1): ("-1/5",),
                               (1, 0): ("2/7", 1)}),
          [_series(_XY[1], 3, {(1, 0): ("1/2",), (0, 1): ("1/3",)}),
           _series(_XY[1], 3, {(2, 0): ("1/4",), (1, 1): ("1/3",),
                               (0, 2): ("1/9",), (3, 0): (-1,)})]))
@example((_series(_X3, 3, {(3, 0, 0): (1,), (0, 3, 0): (1, 1),
                           (0, 0, 3): ("1/2",), (1, 1, 1): (-1,),
                           (1, 0, 0): (0, 1)}),
          [_series(["y0", "y1", "y2"], 3, {(1, 0, 0): (1,),
                                           (0, 3, 0): ("1/2",)}),
           _series(["y0", "y1", "y2"], 3, {(0, 1, 0): (1,),
                                           (0, 0, 3): (0, "1/3")}),
           _series(["y0", "y1", "y2"], 3, {(0, 0, 1): (2, -1),
                                           (3, 0, 0): ("-1/4",)})]))
@example((_series(["x0"], 7, {(7,): (1,), (2,): ("1/2", 1)}),
          [_series(["y0"], 7, {(1,): (1,), (7,): ("1/3",)})]))
@example((_series(_XY[0], 3, {(0, 0): (3, 1), (1, 0): (1,), (2, 0): (2,)}),
          [_series(_XY[1], 3, {(1, 0): (1,), (0, 1): ("1/2",)}),
           TruncatedSeries.zero(VariableContext(_XY[1]), 0)]))
@example((_series(_X3, 4, {(2, 1, 0): (1,), (0, 2, 0): ("1/3", 2),
                           (1, 0, 1): (-1,), (1, 0, 0): (1,),
                           (0, 0, 3): ("1/2",)}),
          [_series(_Y12, 4, {(1,) + (0,) * 11: (1,),
                             (0,) * 5 + (1,) + (0,) * 5 + (1,): ("1/2",),
                             (0,) * 3 + (2,) + (0,) * 8: (0, -1)}),
           _series(_Y12, 5, {(0,) * 11 + (1,): ("1/3",),
                             (0,) * 7 + (2,) + (0,) * 4: (0, 1)}),
           TruncatedSeries.variable(VariableContext(_Y12), 4, "y4")]))
def test_compose_matches_oracle(case):
    # Explicit examples: (1) both variables renamed to y0, x0*x1 - x1^2
    # cancels; (2) the powers x0^2 and x1 of two multi-term arguments with
    # denominators 6 and 36 cancel on y0^2, y0*y1 and y1^2, and the
    # products over 180 and 42 share one denominator; (3) and (4)
    # exponents equal to the order fill every packed field; (5) a zero
    # argument of order 0 makes the result order 0; (6) a target context
    # of 12 variables.
    f, args = case
    got = f.compose(args)
    order, terms = oracle_compose(f, args)
    assert got.order == order
    assert got.terms == terms
    assert all(got.terms.values())


# -- mul_precise ------------------------------------------------------------


@st.composite
def precise_cases(draw):
    """(arity, a, tail of a, b, tail of b): each factor with random terms
    past its order standing for the digits it does not know."""
    n = draw(st.integers(1, 3))
    out = [n]
    for _ in range(2):
        p = draw(st.integers(0, 4))
        out.append(TruncatedSeries(VariableContext(["x%d" % i
                                                    for i in range(n)]),
                                   p, draw(term_dicts(n, p, max_size=6))))
        out.append(draw(term_dicts(n, p + 3, max_size=4, min_degree=p + 1)))
    return tuple(out)


@SETTINGS
@given(precise_cases())
def test_mul_precise_matches_oracle(case):
    n, a, ta, b, tb = case
    got = mul_precise(a, b)
    # a zero factor vanishes to at least its order + 1
    va = a.order + 1 if a.is_zero() else a.valuation()
    vb = b.order + 1 if b.is_zero() else b.valuation()
    assert got.order == min(a.order + vb, b.order + va)
    R = _ring(n)
    full = ((to_sympy(R, a.terms) + to_sympy(R, ta))
            * (to_sympy(R, b.terms) + to_sympy(R, tb)))
    assert got.terms == from_sympy(full, got.order)


# -- divexact ---------------------------------------------------------------


@SETTINGS
@given(st.integers(0, 3).flatmap(
    lambda n: st.tuples(term_dicts(n, 3), term_dicts(n, 3, min_size=1),
                        term_dicts(n, 3, max_size=3), st.booleans())))
def test_divexact_matches_oracle(case):
    f, g, extra, exact = case
    arity = len(next(iter(g)))
    R = _ring(arity)
    P, G = to_sympy(R, f) * to_sympy(R, g), to_sympy(R, g)
    if not exact:
        P += to_sympy(R, extra)
    try:
        want = from_sympy(P.exquo(G))
    except ExactQuotientFailed:
        with pytest.raises(ArithmeticError):
            kernels.divexact(from_sympy(P), g)
    else:
        assert kernels.divexact(from_sympy(P), g) == want


def test_divexact_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        kernels.divexact({(1,): gr(1)}, {})


# -- echelon and the code built on it ---------------------------------------


@st.composite
def matrices(draw, rows=None, cols=None):
    """A product B*C of random sparse matrices: its rank is at most the
    inner size, so rank-deficient, wide and tall shapes all occur."""
    nrows = rows or draw(st.integers(1, 5))
    ncols = cols or draw(st.integers(1, 5))
    inner = draw(st.integers(0, max(nrows, ncols)))
    entry = st.one_of(st.just(ZERO), coefficients())
    B = [[draw(entry) for _ in range(inner)] for _ in range(nrows)]
    C = [[draw(entry) for _ in range(ncols)] for _ in range(inner)]
    return [[sum((B[i][k] * C[k][j] for k in range(inner)), ZERO)
             for j in range(ncols)] for i in range(nrows)]


def to_matrix(rows):
    return Matrix([[QQ_I.to_sympy(QQ_I(QQ(c.a, c.c), QQ(c.b, c.c)))
                    for c in row] for row in rows])


def from_matrix(M):
    return [[from_qq_i(QQ_I.from_sympy(x)) for x in M.row(i)]
            for i in range(M.rows)]


@SETTINGS
@given(matrices())
def test_echelon_matches_sympy_rref(rows):
    R, want_pivots = to_matrix(rows).rref()
    pivots, reduced = kernels.echelon(rows)
    assert pivots == list(want_pivots)
    assert reduced == from_matrix(R)[:len(pivots)]


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: matrices(n, n)))
def test_invert_matrix_or_singular(A):
    n = len(A)
    if to_matrix(A).rank() < n:
        with pytest.raises(ZeroDivisionError):
            invert_matrix(A)
        return
    inv = invert_matrix(A)
    assert [[sum((inv[i][k] * A[k][j] for k in range(n)), ZERO)
             for j in range(n)] for i in range(n)] == \
        [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


@SETTINGS
@given(matrices(), st.integers(1, 5))
def test_independent_rows_is_greedy(rows, need):
    chosen = []
    for i in range(len(rows)):
        if to_matrix([rows[j] for j in chosen + [i]]).rank() > len(chosen):
            chosen.append(i)
    want = chosen[:need] if len(chosen) >= need else None
    assert _independent_rows(rows, need) == want


# -- generic rank of polynomial matrices ------------------------------------


def _seed_shift(R, seed):
    """x0 - a, with a the first coordinate of `symbolic_rank`'s point."""
    a = random_rational_point(2, random.Random(seed))[0]
    return R.gens[0] - to_sympy(R, {(0, 0): a})


@st.composite
def polynomial_matrices(draw):
    """(seed, rows of sympy polynomials in x0, x1).

    A product of an r x k and a k x c matrix has rank at most k, so
    rank-deficient, wide and tall shapes all occur.  Scaling a row by
    x0 - a keeps the generic rank but zeroes the row at the seeded point,
    so the point rank falls short and Bareiss has to decide."""
    R = _ring(2)
    seed = draw(st.integers(0, 3))
    nrows, ncols, inner = (draw(st.integers(1, 3)) for _ in range(3))
    entry = term_dicts(2, 1, max_size=3)
    B = [[to_sympy(R, draw(entry)) for _ in range(inner)]
         for _ in range(nrows)]
    C = [[to_sympy(R, draw(entry)) for _ in range(ncols)]
         for _ in range(inner)]
    shift = _seed_shift(R, seed)
    rows = []
    for i in range(nrows):
        row = [sum((B[i][k] * C[k][j] for k in range(inner)), R.zero)
               for j in range(ncols)]
        if draw(st.booleans()):
            row = [p * shift for p in row]
        rows.append(row)
    return seed, rows


def _example_rank_case(seed):
    """Full generic rank 2, singular at the seeded point."""
    R = _ring(2)
    x0, x1 = R.gens
    shift = _seed_shift(R, seed)
    return seed, [[shift, x1, R.one], [R.zero, shift, R.zero]]


@SETTINGS
@given(polynomial_matrices())
@example(_example_rank_case(0))
@example(_example_rank_case(3))
def test_symbolic_rank_matches_oracle(case):
    seed, rows = case
    ctx = VariableContext(["x0", "x1"])
    matrix = [[TruncatedSeries(ctx, 6, from_sympy(p)) for p in row]
              for row in rows]
    K = QQ_I.frac_field(*symbols("x0 x1"))
    want = DomainMatrix([[K.field(p) for p in row] for row in rows],
                        (len(rows), len(rows[0])), K).rank()
    assert symbolic_rank(matrix, seed=seed) == want
