"""The exact kernels, `compose` and the linear algebra against an
independent oracle: sympy's Gaussian-rational polynomial ring (`QQ_I`),
expand first, truncate after, sympy's `Matrix`, and `DomainMatrix` over
the rational function field `QQ_I(x0, x1)`.  Bareiss on matrices too large
for sympy's rank is checked against its full-elimination reference."""

import itertools
import random
import re
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest

pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import event, example, given, settings, strategies as st
from sympy import Matrix, symbols
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import ring

from conftest import (_bareiss_rank_reference, _divexact_reference,
                      _divide_with_valuation_reference, _evaluate_reference,
                      _formal_ift_reference)
from crreflect import kernels, linalg, series
from crreflect.context import VariableContext, multidegrees
from crreflect.gaussian import ONE, ZERO, GaussianRational, gr
from crreflect.linalg import (bareiss_rank, kernel_basis, random_rational_point,
                              symbolic_rank)
from crreflect.manifold import Derivation
from crreflect.reflection import _independent_rows
from crreflect.series import (SeriesError, SeriesMap, TruncatedSeries,
                              divide_with_valuation, formal_ift,
                              invert_matrix, jet, mul_precise)

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
    return n, f, coeffs, order


@SETTINGS
@given(derivation_cases())
@example((2, {(2, 0): gr(1), (0, 2): gr(1)},
          {0: {(0, 1): gr(1)}, 1: {(1, 0): gr(-1)}}, 4))
@example((3, {(1, 2, 0): gr("1/2", 3), (0, 0, 3): gr(0, "-2/7")},
          {1: {(0, 0, 0): gr(2, "1/3")}, 2: {(0, 1, 0): gr("5/12"),
                                             (3, 1, 0): gr(1, 1)}},
          3))
@example((2, {(1, 1): gr(1, 1), (2, 0): gr("1/3", -2)},
          {0: {(1, 0): gr(2, 3), (0, 0): gr(0, "1/5")},
           1: {(0, 1): gr(-1, "1/2")}}, 3))
def test_derivation_apply_matches_oracle(case):
    # the first example, (y d/dx - x d/dy)(x^2 + y^2), cancels to zero; in
    # the third, both complex coefficients add into the x*y term
    n, f, coeffs, order = case
    ctx = VariableContext(["x%d" % i for i in range(n)])
    F = TruncatedSeries(ctx, order + 1, f)
    zero = (0,) * n
    # a constant goes in as a plain number, as `Derivation` allows
    D = Derivation(ctx, {i: c[zero] if list(c) == [zero]
                         else TruncatedSeries(ctx, order, c)
                         for i, c in coeffs.items()})
    if not coeffs:
        with pytest.raises(SeriesError, match="empty derivation"):
            D.apply(F)
        return
    got = D.apply(F)
    R = _ring(n)
    p = to_sympy(R, F.terms)
    total = R.zero
    for i, c in coeffs.items():
        total += to_sympy(R, c) * p.diff(R.gens[i])
    assert got.order == order
    assert got.terms == from_sympy(total, order)
    assert all(got.terms.values())


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
        else:  # valuation 1 or 2
            a = TruncatedSeries(tgt, a_order, draw(term_dicts(
                m, max(a_order, 2), 2, 5,
                min_degree=draw(st.integers(1, 2)))))
        args.append(a)
    return f, args


@st.composite
def recursion_cases(draw):
    """(f, args) that reach the recursion of `compose_terms`: at least one
    multi-term argument, each keeping two or more terms within the order
    (valuation 1 or 2, sometimes with terms past the order), and a source
    with at least two distinct nonzero exponents in the variables those
    arguments replace.  The other arguments act on exponents directly."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    order = draw(st.integers(3, 5))
    src = VariableContext(["x%d" % i for i in range(n)])
    tgt = VariableContext(["y%d" % i for i in range(m)])
    moving = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    args = []
    for i in range(n):
        a_order = draw(st.integers(order, order + 2))
        if not moving[i]:
            a = TruncatedSeries.variable(tgt, a_order,
                                         draw(st.sampled_from(tgt.names)))
            args.append(a * draw(coefficients()))
            continue
        v = draw(st.integers(1, 2))
        within = [e for e in multidegrees(m, order) if sum(e) >= v]
        terms = draw(st.dictionaries(st.sampled_from(within), coefficients(),
                                     min_size=2, max_size=4))
        terms.update(draw(term_dicts(m, a_order, 0, 2,
                                     min_degree=order + 1)))
        args.append(TruncatedSeries(tgt, a_order, terms))
    picked = [i for i in range(n) if moving[i]]
    exps = [e for e in multidegrees(n, order) if any(e[i] for i in picked)]
    terms = draw(term_dicts(n, order, max_size=4))
    terms.update(draw(st.dictionaries(
        st.sampled_from(exps), coefficients(), min_size=2, max_size=6).filter(
            lambda T: len({tuple(e[i] for i in picked) for e in T}) >= 2)))
    return TruncatedSeries(src, order, terms), args


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
# A moving argument of four terms with mixed denominators.
_U4 = _series(_XY[1], 5, {(1, 0): (1, 1), (0, 1): ("1/2",), (1, 1): (0, 3),
                          (0, 3): ("2/5", -1)})


@SETTINGS
@given(st.one_of(compose_cases(), recursion_cases()))
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
@example((_series(_XY[0], 5, {(0, 0): (1, 2), (0, 2): ("1/3",),
                              (3, 0): (2, -1), (3, 1): ("1/2", 1)}),
          [_U4, TruncatedSeries.variable(VariableContext(_XY[1]), 5, "y1")]))
@example((_series(_X3, 4, {(0, 2, 0): (1,), (0, 1, 1): ("2/3", -1),
                           (0, 0, 1): (1, 1), (0, 0, 2): (0, "1/5")}),
          [_U4, _U4 * gr(0, 1),
           _series(_XY[1], 4, {(1, 0): (1,), (0, 1): (2,)})]))
@example((_series(_X3, 5, {(1, 1, 0): ("1/2",), (1, 0, 1): ("-1/2",),
                           (0, 0, 0): (1,), (0, 0, 1): (3,)}),
          [_U4, _U4, _U4]))
@example((_series(["x0"], 6, {(0,): (1,), (1,): (2,), (2,): ("1/3", 1),
                              (3,): (-1, 2)}),
          [_series(_XY[1], 6, {(2, 0): (1,), (1, 1): ("1/2",),
                               (0, 2): (0, 1), (3, 0): ("1/7",),
                               (0, 4): (2,)})]))
@example((_series(["x0"], 3, {(1,): (1,), (2,): ("1/2",), (3,): (1, 1)}),
          [_series(_XY[1], 5, {(1, 0): (1,), (0, 1): (1,), (1, 1): (2,),
                               (0, 2): (-1,), (4, 0): (1, 1),
                               (0, 5): ("1/3",), (2, 3): (3,)})]))
def test_compose_matches_oracle(case):
    # Explicit examples: (1) both variables renamed to y0, x0*x1 - x1^2
    # cancels; (2) the powers x0^2 and x1 of two multi-term arguments with
    # denominators 6 and 36 cancel on y0^2, y0*y1 and y1^2, and the
    # products over 180 and 42 share one denominator; (3) and (4)
    # exponents equal to the order fill every packed field; (5) a zero
    # argument of order 0 makes the result order 0; (6) a target context
    # of 12 variables.  The rest reach the edges of `compose_terms`'s
    # Horner recursion: (7) groups only at exponents 0 and 3 of the first
    # argument, so there are no parts at 1 and 2; (8) a first moving
    # argument that no group uses; (9) with x1 and x2 both sent to u, the
    # part at exponent 1 in x0 sums u/2 - u/2 to zero; (10) an argument
    # of valuation 2, so the part at exponent b is cut to degree 6 - 2b;
    # (11) an argument of order 5 with terms past the result order 3.
    f, args = case
    got = f.compose(args)
    order, terms = oracle_compose(f, args)
    assert got.order == order
    assert got.terms == terms
    assert all(got.terms.values())


def _compose_grouped_reference(f, args):
    """`compose` as it ran before the grouping moved into `kernels`: one
    exponent tuple and one `GaussianRational` product per term of f, the
    groups summed as term dicts, then Horner's rule on the groups, each
    converted again with `_numerators`."""
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
    scale_powers = {}
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
                    g = scale_powers.get((i, k))
                    if g is None:
                        g = scale_powers[(i, k)] = mc ** k
                    c = c * g
        if deg > order:
            continue
        e = tuple(shifted)
        group = groups.get(beta)
        if group is None:
            groups[beta] = {e: c}
        else:
            prev = group.get(e)
            group[e] = c if prev is None else prev + c
    moving_terms = [args[i].terms for i in moving]
    arity = target.arity

    nonzero = []
    for beta, group in groups.items():
        group = {e: c for e, c in group.items() if c}
        if group:
            nonzero.append((beta, group))
    if not nonzero:
        return TruncatedSeries._make(target, order, {})
    if len(nonzero) == 1 and not any(nonzero[0][0]):
        return TruncatedSeries._make(target, order, nonzero[0][1])
    width, weights = kernels._packing(arity, order)
    shift = width * arity
    converted = [None] * len(moving_terms)

    def argument(i):
        got = converted[i]
        if got is None:
            den, rows = kernels._numerators(moving_terms[i], weights,
                                            (order + 1) << shift)
            got = converted[i] = (den, rows,
                                  rows[0][0] >> shift if rows else order + 1)
        return got

    def level(items, i, cut):
        while not any([beta[i] for beta, _ in items]):
            i += 1
        du, ru, v = argument(i)
        split = {}
        for item in items:
            b = item[0][i]
            if b * v <= cut:
                split.setdefault(b, []).append(item)
        parts = {}
        for b, part in split.items():
            c = cut - b * v
            if len(part) == 1 and not any(part[0][0][i + 1:]):
                d, rows = kernels._numerators(part[0][1], weights,
                                              (c + 1) << shift)
                parts[b] = d, {p: [x, y] for p, x, y in rows}
            else:
                parts[b] = level(part, i + 1, c)
        if not parts:
            return 1, {}
        b = max(parts)
        den, acc = parts.pop(b)
        while b:
            b -= 1
            rows = kernels._rows(acc)
            dh = den * du
            den, acc = parts.get(b) or (1, {})
            if rows:
                den = kernels._add_product(den, acc, dh, rows, ru,
                                           (cut - b * v + 1) << shift)
        return den, acc

    den, acc = level(nonzero, 0, order)
    return TruncatedSeries._make(target, order,
                                 kernels._unpacked(acc, den, width, arity))


_SOURCE = ["x%d" % i for i in range(4)]


@st.composite
def grouping_cases(draw):
    """(f, args) for the grouping of `compose`: scaled monomials, zero
    arguments, monomial images of degree past the order (their packed keys
    overflow a field), targets of 1-3 or 12 variables, and, when x0 and x1
    both go to one target variable, a source g - g(x1, x0) + h whose terms
    collide there and cancel, as whole groups when some argument moves."""
    n = draw(st.integers(2, 4))
    m = draw(st.sampled_from((1, 2, 3, 12)))
    order = draw(st.integers(0, 5))
    src = VariableContext(_SOURCE[:n])
    tgt = VariableContext(["y%d" % i for i in range(m)])
    kinds = ("renamed", "scaled", "scaled", "monomial", "past", "zero",
             "series", "series")
    args = []
    for i in range(n):
        kind = draw(st.sampled_from(kinds))
        a_order = draw(st.integers(order, order + 2))
        if kind in ("renamed", "scaled"):
            a = TruncatedSeries.variable(tgt, a_order,
                                         draw(st.sampled_from(tgt.names)))
            if kind == "scaled":
                a = a * draw(coefficients())
        elif kind in ("monomial", "past"):
            low = order + 1 if kind == "past" else 1
            e = [0] * m
            for _ in range(draw(st.integers(low, max(low, 3)))):
                e[draw(st.integers(0, m - 1))] += 1
            a = TruncatedSeries(tgt, max(a_order, sum(e)),
                                {tuple(e): draw(coefficients())})
        elif kind == "zero":
            a = TruncatedSeries.zero(tgt, a_order)
        else:
            a = TruncatedSeries(tgt, a_order, draw(term_dicts(
                m, 2, 2, 4, min_degree=1)))
        args.append(a)
    terms = draw(term_dicts(n, order, max_size=8))
    if draw(st.integers(0, 2)):
        args[1] = args[0]
        for e, c in draw(term_dicts(n, order, 1, 6)).items():
            swapped = (e[1], e[0]) + e[2:]
            if swapped != e:
                terms[e] = c
                terms[swapped] = -c
    return TruncatedSeries(src, order, terms), args


_Y1 = VariableContext(["y0", "y1"])


@settings(max_examples=150, deadline=None)
@given(st.one_of(grouping_cases(), recursion_cases()))
@example((_series(_X3, 4, {(0, 2, 0): (1,), (1, 0, 0): (2,), (1, 1, 0): (0, 3),
                           (0, 1, 0): (1, 1), (1, 0, 1): (5,),
                           (2, 0, 0): ("1/2",)}),
          [TruncatedSeries.variable(_Y1, 4, "y1") * gr(0, 1),
           TruncatedSeries.variable(_Y1, 4, "y0"),
           TruncatedSeries.zero(_Y1, 4)]))
@example((_series(_XY[0], 2, {(1, 0): (1,), (0, 1): (2,)}),
          [TruncatedSeries.zero(_Y1, 2),
           TruncatedSeries.variable(_Y1, 2, "y0")]))
@example((_series(_X3, 4, {(1, 1, 0): (1,), (0, 2, 0): (3,),
                           (1, 0, 1): (-1,), (0, 0, 1): ("1/3",)}),
          [_series(_XY[1], 4, {(1, 0): (1,), (0, 2): (2,)}),
           TruncatedSeries.variable(_Y1, 4, "y1"),
           TruncatedSeries.variable(_Y1, 4, "y1")]))
def test_compose_matches_frozen_grouping(case):
    # The grouping on packed keys gives the old grouping's result: the
    # same order, values and key insertion order.  Explicit examples: (1)
    # monomial images only, with keys first met out of graded-lex order,
    # a collision and a zero argument; (2) a term x0 of degree 1 whose
    # zero argument puts its packed sum at the limit itself; (3) a group
    # of x0 that cancels, leaving the group beta = 0 alone.
    f, args = case
    got = f.compose(args)
    want = _compose_grouped_reference(f, args)
    assert got.order == want.order and got.context == want.context
    assert list(got.terms.items()) == list(want.terms.items())
    event("%s, %s%s" % (
        "moving" if any(len(a.terms) > 1 for a in args) else "monomials",
        "nonzero" if got.terms else "zero",
        ", x0 and x1 alike" if len(args) > 1 and args[0] is args[1] else ""))


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
# (x0 - x1)(x0 + x1): the two x0*x1 products cancel, and the reduction adds
# x0*x1 back and cancels it together with x1^2
@example(({(1, 0): gr(1), (0, 1): gr(-1)}, {(1, 0): gr(1), (0, 1): gr(1)},
          {}, True))
@example(({(1, 0): gr(1), (0, 1): gr(-1)}, {(1, 0): gr(1), (0, 1): gr(1)},
          {(0, 1): gr(1, 1)}, False))
# the first step cancels x^2 of the remainder and the second adds it back
@example(({(0,): gr(2), (1,): gr(-1), (2,): gr(1)},
          {(0,): gr(2), (1,): gr(2), (2,): gr(1)}, {}, True))
# besides its lead, the first step cancels x0^2*x1^2 and x0^2*x1: the
# first pops stale, the second is added back by the next step
@example(({(1, 1): gr(2), (1, 0): gr(2), (0, 1): gr(2)},
          {(1, 1): gr(-1), (2, 0): gr(1), (1, 0): gr(1)}, {}, True))
# x^3, absent from the product, is added, cancelled and added again by
# three steps; x^4 is cancelled, added back and then popped stale
@example(({(0,): gr(2), (1,): gr(-2), (2,): gr(2), (3,): gr(1)},
          {(0,): gr(2), (1,): gr(-1), (2,): gr(-1), (3,): gr(-1)}, {}, True))
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


def test_divexact_names_the_leftover_lead():
    # x0^2 + x1 over x0: x0 goes in, x1 is left and x0 does not divide it
    with pytest.raises(ArithmeticError, match=r"remainder at \(0, 1\)"):
        kernels.divexact({(2, 0): gr(1), (0, 1): gr(1)}, {(1, 0): gr(1)})


@st.composite
def division_pairs(draw):
    """(f, g), g nonzero, in 1-4 variables: f is a multiple of g, such a
    multiple plus a few stray terms, or a nonzero f of lower degree than g.
    Coefficients have mixed denominators; the lead of g is sometimes made
    non-real, and g is often one term."""
    n = draw(st.integers(1, 4))
    g = draw(term_dicts(n, 3, min_size=1,
                        max_size=draw(st.sampled_from((1, 2, 4)))))
    kind = draw(st.sampled_from(("exact", "inexact", "low")))
    if kind == "low":
        f = draw(term_dicts(n, 1, min_size=1))
        g[(n + 1,) + (0,) * (n - 1)] = draw(coefficients())
    if draw(st.booleans()):
        lead = max(g, key=lambda e: (sum(e), e))
        g[lead] = GaussianRational(g[lead].re, draw(st.sampled_from((1, -3))))
    if kind != "low":
        f = kernels.mul_terms(draw(term_dicts(n, 3, max_size=6)), g, -1)
        if kind == "inexact":
            kernels.iadd_scaled(f, draw(term_dicts(n, 4, min_size=1,
                                                   max_size=3)), ONE)
    return f, g


# three terms with mixed denominators and a non-real lead
_MIXED_G = {(1, 0): gr(Fraction(1, 3), 2), (0, 1): gr(Fraction(5, 7)),
            (0, 0): gr(0, Fraction(1, 2))}


@settings(max_examples=150, deadline=None)
@given(division_pairs())
@example((kernels.mul_terms({(1, 0): gr(Fraction(1, 2), 1),
                             (0, 1): gr(Fraction(-2, 3))}, _MIXED_G, -1),
          _MIXED_G))
@example(({(2, 0): gr(Fraction(1, 6), 1), (1, 1): gr(Fraction(-5, 21), 2),
           (0, 2): gr(Fraction(2, 7)), (1, 0): gr(0, Fraction(1, 3)),
           (0, 1): gr(Fraction(1, 2), Fraction(1, 3))}, _MIXED_G))
# a one-term divisor in four variables
@example(({(1, 2, 0, 1): gr(3, -1), (1, 0, 1, 1): gr(Fraction(2, 5))},
          {(1, 0, 0, 1): gr(Fraction(2, 3), 1)}))
# a divisor of higher degree than the dividend
@example(({(1, 1): gr(1), (0, 0): gr(2)}, {(3, 0): gr(1), (0, 0): gr(1)}))
# the divisor 1 in three variables, as Bareiss's first pivot is
@example(({(1, 0, 2): gr(Fraction(1, 2), 3), (0, 0, 0): gr(-1)},
          {(0, 0, 0): gr(1)}))
# a non-real constant
@example(({(1, 1): gr(2, 1), (0, 2): gr(Fraction(1, 3))},
          {(0, 0): gr(Fraction(2, 5), -1)}))
# a monic monomial
@example(({(3, 1): gr(1, 2), (1, 2): gr(Fraction(-1, 4))}, {(1, 1): gr(1)}))
# two terms x0 does not divide, the smaller first in dict order: the
# error names the larger, where the reduction stops
@example(({(0, 1): gr(1), (2, 0): gr(3), (0, 2): gr(Fraction(1, 2))},
          {(1, 0): gr(3)}))
def test_divexact_matches_reference(case):
    f, g = case
    try:
        want = _divexact_reference(f, g)
    except ArithmeticError as exc:
        with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
            kernels.divexact(f, g)
        return
    got = kernels.divexact(f, g)
    assert got == want
    if len(g) == 1:
        # a one-term divisor c * x^e keeps the dividend's key order
        (e, _), = g.items()
        assert list(got) == [tuple([a - b for a, b in zip(k, e)]) for k in f]
    else:
        # the reduction yields quotient terms in descending graded-lex order
        assert list(got.items()) == list(want.items())
    assert all(gcd(c.a, c.b, c.c) == 1 and c.c > 0 for c in got.values())


@pytest.mark.parametrize("f, g", [
    ((0, 2), (1, 1)),
    ((2, 0), (1, 1)),
    ((1, 1, 0), (0, 0, 2)),
    ((0, 2, 1), (1, 0, 1)),
])
def test_divexact_packed_fields_do_not_borrow(f, g):
    # a field of g's lead above the remainder's, with a larger field above
    # it that would cover a borrow in a packed subtraction: the lead is not
    # divisible, and the error names it
    with pytest.raises(ArithmeticError,
                       match=re.escape("remainder at %r" % (f,))):
        kernels.divexact({f: gr(1)}, {g: gr(1)})


# -- divide_with_valuation and formal_ift ------------------------------------


def _context(n, prefix="x"):
    return VariableContext(["%s%d" % (prefix, i) for i in range(n)])


@st.composite
def division_cases(draw):
    """(arity, order, mu, planted quotient, denominator): the denominator
    has valuation mu, with a nonzero term of degree mu."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(0, 5))
    mu = draw(st.integers(0, order))
    lead = draw(term_dicts(n, mu, min_size=1, max_size=3, min_degree=mu)
                .filter(lambda t: any(sum(e) == mu for e in t)))
    den = {e: c for e, c in lead.items() if sum(e) == mu}
    den.update((e, c) for e, c in draw(term_dicts(
        n, order, max_size=5, min_degree=mu + 1)).items() if sum(e) <= order)
    q = draw(term_dicts(n, order - mu, max_size=6))
    q = {e: c for e, c in q.items() if sum(e) <= order - mu}
    return n, order, mu, q, den


@SETTINGS
@given(division_cases())
@example((2, 4, 2, {(0, 0): gr(1), (1, 1): gr("1/3", 2)},
          {(2, 0): gr(1), (1, 1): gr(0, -1), (0, 3): gr("5/7")}))
# a denominator term three degrees above the valuation meets the quotient's
# constant term
@example((1, 5, 1, {(0,): gr(1), (1,): gr(0, 1)},
          {(1,): gr(2, "1/3"), (4,): gr(-3)}))
def test_divide_with_valuation_matches_oracle(case):
    n, order, mu, q, den = case
    R = _ring(n)
    ctx = _context(n)
    num = from_sympy(to_sympy(R, q) * to_sympy(R, den), order)
    quo, lost = divide_with_valuation(TruncatedSeries(ctx, order, num),
                                      TruncatedSeries(ctx, order, den))
    assert lost == mu
    assert quo.order == order - mu and quo.context == ctx
    # quotient x denominator gives back the numerator to order - mu (and
    # in fact to the full order: the valuation-mu factor shifts it up)
    back = to_sympy(R, quo.terms) * to_sympy(R, den)
    assert from_sympy(back, order - mu) == from_sympy(to_sympy(R, num),
                                                      order - mu)
    assert from_sympy(back, order) == num
    # the planted quotient is the only one
    assert quo.terms == q


def _of_degree(arity, k):
    """Exponent tuples of total degree exactly k."""
    return st.sampled_from([e for e in multidegrees(arity, k) if sum(e) == k])


@st.composite
def valuation_divisions(draw, maps=False):
    """(arity, numerator order, numerator, denominator order, denominator):
    a denominator of valuation mu <= 3 whose lead is a constant, one
    monomial or several, with terms above it, and a numerator that is a
    multiple of it, a multiple plus a few terms, or any terms at all.  With
    `maps`, a list of 1-4 such numerators stands in the numerator's place."""
    n = draw(st.integers(1, 4))
    mu = draw(st.integers(0, 3))
    den_order = draw(st.integers(mu, mu + 4 - min(n, 3)))
    den = draw(st.dictionaries(_of_degree(n, mu), coefficients(), min_size=1,
                               max_size=draw(st.sampled_from((1, 3)))))
    for k in range(mu + 1, den_order + 1):
        den.update(draw(st.dictionaries(_of_degree(n, k), coefficients(),
                                        max_size=2)))
    num_order = den_order + draw(st.integers(0, 1))

    def numerator():
        kind = draw(st.sampled_from(("exact", "inexact", "any")))
        terms = {}
        for k in range(num_order + 1):
            terms.update(draw(st.dictionaries(_of_degree(n, k),
                                              coefficients(), max_size=2)))
        if kind == "any":
            return terms
        q = {e: c for e, c in terms.items() if sum(e) <= num_order - mu}
        num = kernels.mul_terms(q, den, num_order)
        if kind == "inexact":
            kernels.iadd_scaled(num, {e: c for e, c in terms.items()
                                      if sum(e) >= mu}, ONE)
        return num

    if maps:
        num = [numerator() for _ in range(draw(st.integers(1, 4)))]
    else:
        num = numerator()
    return n, num_order, num, den_order, den


@settings(max_examples=150, deadline=None)
@given(valuation_divisions())
# the lead x0*x1 does not divide the degree-3 right-hand side x0^2*x1 + x1^3
@example((2, 4, {(2, 1): gr(1), (0, 3): gr("1/2", 1)}, 4,
          {(1, 1): gr(2, "-1/3"), (2, 1): gr("5/7")}))
# a numerator term below the denominator's valuation
@example((2, 5, {(1, 0): gr(0, "1/3"), (2, 2): gr(1)}, 5,
          {(2, 0): gr(3), (0, 2): gr("1/2", 1), (1, 2): gr(-1)}))
def test_divide_with_valuation_matches_reference(case):
    n, num_order, num, den_order, den = case
    ctx = _context(n)
    num = TruncatedSeries(ctx, num_order, num)
    den = TruncatedSeries(ctx, den_order, den)
    try:
        want = _divide_with_valuation_reference(num, den)
    except SeriesError as exc:
        with pytest.raises(SeriesError, match=re.escape(str(exc))):
            divide_with_valuation(num, den)
        return
    quo, lost = divide_with_valuation(num, den)
    assert quo == want[0] and lost == want[1]


@settings(max_examples=150, deadline=None)
@given(valuation_divisions(maps=True))
# the lead x0*x1 leaves x0^3 of the second numerator over at degree 3 and
# x0^4 of the first at degree 4, and the third is below the valuation: the
# first numerator's error is raised
@example((2, 4, [{(4, 0): gr(1)}, {(3, 0): gr(1)}, {(1, 0): gr(1)}], 4,
          {(1, 1): gr(1)}))
# the first numerator divides, the second is below the valuation
@example((2, 4, [{(2, 1): gr(1), (3, 1): gr(2)}, {(1, 0): gr(1)}], 4,
          {(1, 1): gr(1)}))
def test_divide_with_valuation_divides_maps_componentwise(case):
    # A map divides componentwise: each quotient and the lost order are
    # those of its numerator alone, and the error is the first failing
    # component's.
    n, num_order, nums, den_order, den = case
    ctx = _context(n)
    nums = [TruncatedSeries(ctx, num_order, num) for num in nums]
    den = TruncatedSeries(ctx, den_order, den)
    try:
        want = [_divide_with_valuation_reference(num, den) for num in nums]
    except SeriesError as exc:
        with pytest.raises(SeriesError, match=re.escape(str(exc))):
            divide_with_valuation(SeriesMap(nums), den)
        return
    quo, lost = divide_with_valuation(SeriesMap(nums), den)
    assert isinstance(quo, SeriesMap)
    assert list(quo) == [q for q, _ in want]
    assert all(lost == mu for _, mu in want)


@pytest.mark.parametrize("num, den, order, left", [
    # a field of the lead above the right-hand side's, with a larger field
    # above it that would cover a borrow in a packed subtraction
    ({(0, 2): gr(1)}, {(1, 1): gr(1)}, 2, (0, 2)),
    ({(2, 0): gr(1)}, {(1, 1): gr(1)}, 2, (2, 0)),
    ({(0, 2, 1): gr(1)}, {(1, 0, 1): gr(1)}, 3, (0, 2, 1)),
    # the same in the degree-2 solve of a lead 3 * x1: its right-hand side
    # 2 x0^3 - x0^2 x1 / 3 is formed from the degree-1 quotient x0 / 3
    ({(1, 1): gr(1), (3, 0): gr(2)}, {(0, 1): gr(3), (1, 1): gr(1)}, 3,
     (3, 0)),
    # a lead whose field is the working order, the top of every field
    ({(1, 1, 0): gr(1)}, {(0, 0, 2): gr(1)}, 2, (1, 1, 0)),
    ({(1, 2): gr(1)}, {(0, 3): gr(0, 1)}, 3, (1, 2)),
    ({(2, 1): gr("1/2")}, {(3, 0): gr(2, 1)}, 3, (2, 1)),
    # a lead of several terms, divided by `divexact`'s reduction
    ({(2, 0): gr(1)}, {(1, 0): gr(1), (0, 1): gr(1)}, 2, (0, 2)),
])
def test_divide_with_valuation_packed_fields_do_not_borrow(num, den, order,
                                                           left):
    ctx = _context(len(left))
    num = TruncatedSeries(ctx, order, num)
    den = TruncatedSeries(ctx, order, den)
    with pytest.raises(SeriesError) as want:
        _divide_with_valuation_reference(num, den)
    assert str(want.value) == "series not divisible (remainder at %r)" % (
        left,)
    with pytest.raises(SeriesError, match=re.escape(str(want.value))):
        divide_with_valuation(num, den)


@st.composite
def ift_cases(draw, planted=True, affine=False):
    """(free variables, unknowns, order, equations as term dicts over
    (x, u)): the u-block of the linear part is a planted invertible
    lower-triangular matrix, everything else is random of degree >= 1.
    Unplanted, every term is random: the block may be singular and an
    equation may have a constant term.  Affine, every term is a monomial
    in x times at most one unknown, x u terms included: F has no term of
    degree >= 2 in u, so the solver takes one step, and P - J is nonzero
    wherever an x u term is drawn."""
    nx = draw(st.integers(int(affine), 2))
    nu = draw(st.integers(1, 3))
    order = draw(st.integers(1, 7))

    def times_unknown(c):
        """x^a u_c, or x^a alone for c = nu, of total degree in range."""
        low, high = (int(planted), order) if c == nu else (0, order - 1)
        return st.integers(low, high).flatmap(
            lambda a: _of_degree(nx, a)).map(
            lambda e: e + tuple(int(k == c) for k in range(nu)))

    monomials = (st.integers(0, nu).flatmap(times_unknown) if affine
                 else st.integers(int(planted), order).flatmap(
                     lambda k: _of_degree(nx + nu, k)))
    eqs = []
    for r in range(nu):
        terms = draw(st.dictionaries(monomials, coefficients(), max_size=6))
        terms = {e: c for e, c in terms.items()
                 if not (planted and sum(e) == 1
                         and any(e[nx + k] for k in range(r, nu)))}
        if planted:
            diag = tuple(int(i == nx + r) for i in range(nx + nu))
            terms[diag] = draw(coefficients())
        eqs.append(terms)
    return nx, nu, order, eqs


def _ift_system(case):
    nx, nu, order, eqs = case
    names = ["x%d" % i for i in range(nx)] + ["u%d" % k for k in range(nu)]
    ctx = VariableContext(names)
    return SeriesMap([TruncatedSeries(ctx, order, t) for t in eqs]), names


# affine in u, solved in one step 0 -> 4: the x u terms make P - J nonzero
_AFFINE_IFT = (1, 2, 4, [{(0, 1, 0): gr(1), (1, 0, 1): gr(1),
                          (1, 0, 0): gr(-1), (2, 1, 0): gr(0, 1)},
                         {(0, 0, 1): gr(3), (1, 1, 0): gr(1, 1),
                          (2, 0, 0): gr("1/2"), (3, 0, 1): gr(-1)}])


def _affine_in_u(nx, eqs):
    return all(sum(e[nx:]) <= 1 for t in eqs for e in t)


@settings(max_examples=60, deadline=None)
@given(st.one_of(ift_cases(), ift_cases(affine=True)))
@example((1, 2, 3, [{(0, 1, 0): gr(2), (1, 0, 0): gr(1), (0, 0, 2): gr(0, 1)},
                    {(0, 1, 0): gr(1, 1), (0, 0, 1): gr("1/3"),
                     (2, 0, 0): gr(-1), (1, 1, 1): gr(5)}]))
@example(_AFFINE_IFT)
def test_formal_ift_matches_oracle(case):
    nx, nu, order, eqs = case
    event("affine in u" if _affine_in_u(nx, eqs) else "degree >= 2 in u")
    F, names = _ift_system(case)
    sol = formal_ift(F, names[nx:])
    assert sol.context.names == tuple(names[:nx]) and sol.order == order
    assert not any(sol.constant_terms())  # u(0) = 0
    R, *gens = ring(names, QQ_I)
    pad = (0,) * nu
    subs = [(gens[nx + k], to_sympy(R, {e + pad: c
                                        for e, c in u.terms.items()}))
            for k, u in enumerate(sol)]
    for t in eqs:
        # F(x, u(x)) == 0 mod degree order + 1
        assert not from_sympy(to_sympy(R, t).compose(subs), order)


@settings(max_examples=300, deadline=None)
@given(st.one_of(ift_cases(), ift_cases(planted=False),
                 ift_cases(affine=True)))
# the degree-2 correction d_2 = -J^{-1} (P - J)_1 d_1 at order 3: u u' and
# x u terms make P - J nonzero in degree 1
@example((1, 2, 3, [{(0, 1, 0): gr(1), (1, 0, 0): gr(-1), (0, 1, 1): gr(2),
                     (1, 1, 0): gr(0, 1)},
                    {(0, 0, 1): gr(3), (1, 0, 0): gr(1, 1),
                     (1, 0, 1): gr("1/2"), (2, 1, 0): gr(-1)}]))
# Catalan, u = x + u^2: the step from 3 to 6 reads (P - J)_2 = -2 u_2 at
# degree 6, and (P - J)_1 = -2 u_1 at every degree
@example((1, 1, 6, [{(0, 1): gr(1), (1, 0): gr(-1), (0, 2): gr(-1)}]))
@example(_AFFINE_IFT)
def test_formal_ift_matches_reference(case):
    # the same solution as the step loop, or the same SeriesError text
    nx, nu, order, eqs = case
    F, names = _ift_system(case)
    try:
        want = _formal_ift_reference(F, names[nx:])
    except SeriesError as exc:
        event("refused")
        with pytest.raises(SeriesError, match=re.escape(str(exc))):
            formal_ift(F, names[nx:])
        return
    # from order 3 on, some step solves for two degrees or more, and its
    # correction products are nonzero when some term is nonlinear in u
    nonlinear = any(sum(e) >= 2 and any(e[nx:]) for t in eqs for e in t)
    event("solved, order below 3" if order < 3
          else "solved, correction with nonzero P - J" if nonlinear
          else "solved, correction with P = J")
    if _affine_in_u(nx, eqs):
        event("solved in one step (affine in u), "
              + ("nonzero P - J" if nonlinear else "P = J"))
    got = formal_ift(F, names[nx:])
    assert got == want and got.order == want.order
    assert got.context == want.context


def _kept_parts(run):
    """The packed parts of the unknowns x_j that `online_solve` keeps for
    its later degrees while `run()` runs, each with its arity and top, as
    the solve it is given returns them."""
    kept = []

    def spy(bases, coeffs, first, last, solve, arity, top):
        def recording(j, rhs):
            xs = solve(j, rhs)
            kept.extend((x, arity, top) for x in xs if x is not None)
            return xs
        return kernels.online_solve(bases, coeffs, first, last, recording,
                                    arity, top)

    with mock.patch.object(series, "online_solve", spy):
        try:
            run()
        except SeriesError:
            pass
    return kept


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    valuation_divisions().map(lambda c: ("divide", c)),
    valuation_divisions(maps=True).map(lambda c: ("divide", c)),
    ift_cases().map(lambda c: ("ift", c)),
    ift_cases(affine=True).map(lambda c: ("ift", c))))
# a constant lead 2: each quotient part is its numerator part over 2
@example(("divide", (1, 2, {(0,): gr(1), (1,): gr(3), (2,): gr(0, 1)}, 2,
                     {(0,): gr(2), (1,): gr(1)})))
@example(("ift", _AFFINE_IFT))
def test_online_solve_keeps_each_unknown_normalized(case):
    # Each kept x_j is (denominator, rows) over the least denominator: the
    # same denominator and numerators as `_numerators` of its term dict.
    kind, case = case
    if kind == "divide":
        n, num_order, num, den_order, den = case
        ctx = _context(n)
        num = (SeriesMap([TruncatedSeries(ctx, num_order, t) for t in num])
               if isinstance(num, list)
               else TruncatedSeries(ctx, num_order, num))
        den = TruncatedSeries(ctx, den_order, den)
        kept = _kept_parts(lambda: divide_with_valuation(num, den))
    else:
        F, names = _ift_system(case)
        kept = _kept_parts(lambda: formal_ift(F, names[case[0]:]))
    event("%s, %d parts kept" % (kind, min(len(kept), 5)))
    for (den, rows), arity, top in kept:
        width, weights = kernels._packing(arity, top)
        assert all(x or y for _, x, y in rows)
        terms = {kernels._exponent(p, width, arity): kernels._make(x, y, den)
                 for p, x, y in rows}
        assert kernels._numerators(terms, weights, None) == (den, rows)


@st.composite
def jet_cases(draw):
    """(arity, order, ell, components as term dicts of degree <= order)."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(0, 5))
    ell = draw(st.integers(0, order))
    comps = [{e: c for e, c in draw(term_dicts(n, order, max_size=6)).items()
              if sum(e) <= order}
             for _ in range(draw(st.integers(1, 2)))]
    return n, order, ell, comps


@SETTINGS
@given(jet_cases())
# exponents at the order, and a term whose derivative lands past order - ell
@example((2, 3, 2, [{(3, 0): gr(1, -2), (1, 2): gr("1/3")},
                    {(0, 1): gr(5), (2, 1): gr(0, "7/2")}]))
def test_jet_matches_oracle(case):
    n, order, ell, comps = case
    ctx = _context(n)
    got = jet(SeriesMap([TruncatedSeries(ctx, order, t) for t in comps]), ell)
    R, *gens = ring(["x%d" % i for i in range(n)], QQ_I)
    # every partial of order <= ell, by total degree and then lex
    alphas = sorted((a for a in itertools.product(range(ell + 1), repeat=n)
                     if sum(a) <= ell), key=lambda a: (sum(a), a))
    assert len(got) == len(comps) * len(alphas)
    want = []
    for t in comps:
        for alpha in alphas:
            D = to_sympy(R, t)
            for x, k in zip(gens, alpha):
                for _ in range(k):
                    D = D.diff(x)
            want.append(from_sympy(D, order - ell))
    assert all(c.order == order - ell and c.context == ctx for c in got)
    assert [c.terms for c in got] == want


# -- evaluate ---------------------------------------------------------------


@st.composite
def points(draw, arity):
    """Complex coordinates with non-unit denominators, and sometimes 0."""
    def part():
        return Fraction(draw(st.integers(-30, 30).filter(bool)),
                        draw(st.sampled_from(_DENS[1:])))
    return [ZERO if draw(st.integers(0, 4)) == 0
            else GaussianRational(part(), part()) for _ in range(arity)]


@st.composite
def evaluate_cases(draw):
    arity = draw(st.integers(1, 4))
    terms = draw(term_dicts(arity, 5, max_size=10))
    return arity, terms, draw(points(arity))


@SETTINGS
@given(evaluate_cases())
def test_evaluate_matches_oracle(case):
    arity, terms, point = case
    s = TruncatedSeries(VariableContext(["x%d" % i for i in range(arity)]),
                        5 * arity, terms)
    want = to_sympy(_ring(arity), s.terms)(
        *[QQ_I(QQ(p.a, p.c), QQ(p.b, p.c)) for p in point])
    got = s.evaluate(point)
    assert got == from_qq_i(QQ_I.convert(want)) == _evaluate_reference(s, point)


def _evaluate_terms_example(arity, dicts, point):
    return arity, dicts, [GaussianRational(p) for p in point]


@st.composite
def evaluate_terms_cases(draw):
    arity = draw(st.integers(1, 4))
    dicts = draw(st.lists(term_dicts(arity, 4, max_size=6), max_size=5))
    return arity, dicts, draw(points(arity))


@SETTINGS
@given(evaluate_terms_cases())
@example(_evaluate_terms_example(1, [], [3]))
@example(_evaluate_terms_example(1, [{}, {(2,): gr("1/2", 1)}, {}],
                                 [Fraction(-5, 7)]))
@example(_evaluate_terms_example(
    2, [{(3, 0): gr(2, "1/3"), (1, 0): gr(-1)},
        {(0, 2): gr(0, "5/4"), (0, 0): gr(7)}], [Fraction(3, 2), 0]))
@example(_evaluate_terms_example(
    3, [{(1, 1, 0): gr(1)}, {(0, 0, 4): gr("3/5", -2)}, {}],
    [0, Fraction(-2, 3), 4]))
def test_evaluate_terms_matches_oracle(case):
    # One shared pass over several term dicts, including empty ones,
    # disjoint supports and zero coordinates: each value is the dict's own
    # value, as sympy and the per-term reference give it.
    arity, dicts, point = case
    ctx = VariableContext(["x%d" % i for i in range(arity)])
    at = [QQ_I(QQ(p.a, p.c), QQ(p.b, p.c)) for p in point]
    want = [from_qq_i(QQ_I.convert(to_sympy(_ring(arity), T)(*at)))
            for T in dicts]
    got = kernels.evaluate_terms(dicts, point)
    assert got == want == [
        _evaluate_reference(TruncatedSeries(ctx, 4 * arity, T), point)
        for T in dicts]
    if dicts:
        F = SeriesMap([TruncatedSeries(ctx, 4 * arity, T) for T in dicts])
        assert F.evaluate(point) == want


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
    pivots, reduced = kernels.echelon([dict(enumerate(r)) for r in rows])
    assert pivots == list(want_pivots)
    assert reduced == [{j: x for j, x in enumerate(r) if x}
                       for r in from_matrix(R)[:len(pivots)]]


@SETTINGS
@given(matrices().flatmap(lambda m: st.tuples(st.just(m), st.permutations(m))))
def test_echelon_ignores_row_order(pair):
    rows, shuffled = pair
    assert (kernels.echelon([dict(enumerate(r)) for r in shuffled])
            == kernels.echelon([dict(enumerate(r)) for r in rows]))


@SETTINGS
@given(matrices())
def test_kernel_basis_matches_sympy_nullspace(rows):
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]}
               for j in range(len(rows[0]))]
    dm = DomainMatrix([[QQ_I(QQ(c.a, c.c), QQ(c.b, c.c)) for c in row]
                       for row in rows], (len(rows), len(rows[0])), QQ_I)
    want = [[from_qq_i(x) for x in v]
            for v in dm.nullspace(divide_last=True).to_list()]
    assert kernel_basis(columns) == want


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
    # The witness runs exactly where it could contradict Bareiss: below
    # full rank.  Both branches are checked against the oracle.
    with mock.patch.object(linalg, "rank_at",
                           wraps=linalg.rank_at) as witness:
        assert symbolic_rank(matrix, seed=seed) == want
    full = want == min(len(rows), len(rows[0]))
    event("full rank" if full else "below full rank")
    assert witness.call_count == (0 if full else 1)


@st.composite
def planted_matrices(draw):
    """1-4 x 1-5 matrices of term dicts in x0, x1, with planted dependence.

    Each row after the first is a sum of the rows before it times drawn
    polynomials on its first `cut` entries and free past them: free for
    cut = 0, dependent for cut = ncols, and in between the 2 x 2 minors
    with those rows vanish on the first columns only, which is when
    Bareiss's last step finds a zero numerator before a nonzero one.  The
    rows are then shuffled."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = term_dicts(2, 2, max_size=3)
    rows = []
    for _ in range(nrows):
        row = [draw(entry) for _ in range(ncols)]
        cut = draw(st.sampled_from([0, ncols, *range(2, ncols)])) \
            if rows else 0
        if cut:
            row[:cut] = [{} for _ in range(cut)]
            for earlier in rows:
                f = draw(entry)
                for c in range(cut):
                    kernels.iadd_scaled(
                        row[c], kernels.mul_terms(f, earlier[c], -1), ONE)
        rows.append(row)
    return draw(st.permutations(rows))


@settings(max_examples=80, deadline=None)
@given(planted_matrices())
def test_bareiss_rank_matches_reference(m):
    # sympy's rank over QQ_I(x0, x1) is far slower than Bareiss on the
    # larger of these matrices, so the check here is the full elimination
    # of `_bareiss_rank_reference`; `test_symbolic_rank_matches_oracle`
    # checks smaller matrices against sympy.
    assert bareiss_rank(m) == _bareiss_rank_reference(m)


@st.composite
def scrambled_matrices(draw):
    """A planted matrix or its transpose, with all-zero rows and columns
    inserted and its rows and columns permuted: a pivot may then sit in
    any row and column, and some rows and columns hold no pivot at all."""
    m = draw(planted_matrices())
    if draw(st.booleans()):
        m = [list(col) for col in zip(*m)]
    for _ in range(draw(st.integers(0, 2))):
        m.append([{} for _ in m[0]])
    for _ in range(draw(st.integers(0, 2))):
        for row in m:
            row.append({})
    rows = draw(st.permutations(range(len(m))))
    cols = draw(st.permutations(range(len(m[0]))))
    return [[m[r][c] for c in cols] for r in rows]


@settings(max_examples=80, deadline=None)
@given(scrambled_matrices())
def test_bareiss_rank_ignores_row_and_column_order(m):
    # The pivot is the sparsest entry of the whole remaining matrix, so the
    # elimination runs on a row- and column-permuted matrix; the rank is
    # that of the frozen column-order elimination, and sympy's rank over
    # QQ_I(x0, x1) wherever a 3 x 3 block bounds it.
    rank = bareiss_rank(m)
    assert rank == _bareiss_rank_reference(m)
    nonzero_rows = [r for r in m if any(r)]
    nonzero_cols = [c for c in zip(*nonzero_rows) if any(c)]
    if len(nonzero_rows) <= 3 and len(nonzero_cols) <= 3:
        event("checked against sympy")
        R = _ring(2)
        K = QQ_I.frac_field(*symbols("x0 x1"))
        rows = [[K.field(to_sympy(R, e)) for e in row] for row in m]
        assert rank == DomainMatrix(rows, (len(m), len(m[0])), K).rank()
