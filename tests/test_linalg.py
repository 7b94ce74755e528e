"""Rank computations: symbolic vs numeric, invariance, kernels."""

import random

import pytest

from conftest import (_bareiss_rank_reference, _evaluate_reference,
                      make_heisenberg, random_series)
from crreflect import linalg
from crreflect.context import VariableContext
from crreflect.gaussian import ONE, ZERO, gr
from crreflect.linalg import (bareiss_rank, generic_rank, kernel_basis,
                              numeric_rank, random_rational_point, rank_at,
                              rank_at_origin, symbolic_rank)
from crreflect.segre import chain
from crreflect.series import SeriesMap, TruncatedSeries


def test_numeric_rank_basic():
    assert numeric_rank([[ONE, ZERO], [ZERO, ONE]]) == 2
    assert numeric_rank([[ONE, ONE], [ONE, ONE]]) == 1
    assert numeric_rank([[ZERO, ZERO]]) == 0


def test_generic_rank_identity():
    ctx = VariableContext(("z1", "z2"))
    assert generic_rank(SeriesMap.identity(ctx, 4)) == 2


def test_generic_rank_zero_map():
    ctx = VariableContext(("z1", "z2"))
    assert generic_rank(SeriesMap([TruncatedSeries.zero(ctx, 4)])) == 0


def test_generic_rank_heisenberg_chains():
    M = make_heisenberg()
    assert generic_rank(chain(M, 2, "barred").components) == 2
    g3 = chain(M, 3, "barred").components
    assert generic_rank(g3) == 3
    # a 3x3 minor of the unbarred Gamma_3 Jacobian equals -i z2 (up to the
    # orientation of the chosen rows)
    gu = chain(M, 3, "unbarred").components
    jac = gu.jacobian()
    rows = [0, 2, 3]
    minor = [[jac[r][c] for c in range(3)] for r in rows]
    from crreflect.reflection import _det
    det = _det(minor)
    zc = TruncatedSeries.variable(det.context, det.order, "z2_1")
    assert det in (-gr(0, 1) * zc, gr(0, 1) * zc)


def test_rank_drops_below_point_rank_impossible():
    rng = random.Random(9)
    ctx = VariableContext(("x", "y"))
    for seed in range(5):
        comps = [random_series(ctx, 5, rng, degree=3) for _ in range(2)]
        comps = [c - c.constant_term() for c in comps]
        F = SeriesMap(comps)
        r = generic_rank(F, seed=seed)
        assert r >= rank_at_origin(F)


def test_generic_rank_invariant_under_linear_change():
    rng = random.Random(13)
    ctx = VariableContext(("x", "y"))
    x = TruncatedSeries.variable(ctx, 5, "x")
    y = TruncatedSeries.variable(ctx, 5, "y")
    F = SeriesMap([x * x, x * y])
    base = generic_rank(F)
    for _ in range(5):
        while True:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c != 0:
                break
        changed = F.compose([a * x + b * y, c * x + d * y])
        assert generic_rank(changed) == base


def test_symbolic_rank_catches_hidden_dependence():
    ctx = VariableContext(("x", "y"))
    x = TruncatedSeries.variable(ctx, 6, "x")
    y = TruncatedSeries.variable(ctx, 6, "y")
    # rows proportional over the fraction field: rank 1
    m = [[x, y], [x * x, x * y]]
    assert symbolic_rank(m) == 1
    m2 = [[x, y], [y, x]]
    assert symbolic_rank(m2) == 2


def _spy_bareiss(monkeypatch):
    """Record every matrix that `symbolic_rank` hands to Bareiss."""
    calls = []

    def spy(entries):
        calls.append(entries)
        return bareiss_rank(entries)
    monkeypatch.setattr(linalg, "bareiss_rank", spy)
    return calls


def _rank_cases(seed):
    """(name, matrix, generic rank, whether the point rank falls short)."""
    ctx = VariableContext(("x", "y"))
    x = TruncatedSeries.variable(ctx, 6, "x")
    y = TruncatedSeries.variable(ctx, 6, "y")
    one = TruncatedSeries.constant(ctx, 6, 1)
    zero = TruncatedSeries.zero(ctx, 6)
    # x - a vanishes at the seeded point, so these full-rank matrices are
    # singular there and only Bareiss can see their rank.
    point = random_rational_point(2, random.Random(seed))
    xa = x - point[0]
    return point, [
        ("square", [[x, y], [y, x]], 2, False),
        ("tall", [[x, one], [y, x], [x * y, y]], 2, False),
        ("wide", [[x, y, x * y], [one, x, y]], 2, False),
        ("square, singular at the point", [[xa, y], [zero, xa]], 2, True),
        ("wide, singular at the point",
         [[xa, y, one], [zero, xa, zero]], 2, True),
        ("tall, singular at the point",
         [[xa * y, zero], [one, xa], [zero, zero]], 2, True),
        ("rank-deficient square", [[x, y], [x * x, x * y]], 1, True),
        ("rank-deficient tall",
         [[x, y], [x * x, x * y], [y * x, y * y]], 1, True),
        ("rank-deficient wide",
         [[x, y, x + y], [x * y, y * y, x * y + y * y]], 1, True),
        ("zero", [[zero, zero], [zero, zero]], 0, True),
    ]


@pytest.mark.parametrize("seed", [0, 5])
def test_symbolic_rank_equals_bareiss(monkeypatch, seed):
    point, cases = _rank_cases(seed)
    for name, m, expected, short in cases:
        at_point = numeric_rank([[e.evaluate(point) for e in row]
                                 for row in m])
        assert (at_point < min(len(m), len(m[0]))) == short, name
        calls = _spy_bareiss(monkeypatch)
        got = symbolic_rank(m, seed=seed)
        assert len(calls) == 1, name
        assert got == bareiss_rank([[e.terms for e in row] for row in m]) \
            == expected, name


def test_witness_point_is_the_seeded_point_drawn_once():
    for arity in (1, 2, 5):
        for seed in (0, 5, 17):
            point = linalg._witness_point(arity, seed)
            assert point == tuple(random_rational_point(
                arity, random.Random(seed)))
            assert linalg._witness_point(arity, seed) is point


def test_rank_at_evaluates_every_entry_at_the_point():
    for seed in (0, 5):
        point, cases = _rank_cases(seed)
        for name, m, _, _ in cases:
            assert rank_at(m, point) == numeric_rank(
                [[_evaluate_reference(e, point) for e in row]
                 for row in m]), name


def test_symbolic_rank_value_does_not_depend_on_the_seed():
    for name, m, expected, _ in _rank_cases(0)[1]:
        assert [symbolic_rank(m, seed=s) for s in range(6)] \
            == [expected] * 6, name


def test_symbolic_rank_keeps_the_witness_check(monkeypatch):
    # A point rank above the Bareiss rank cannot happen for polynomial
    # entries; a Bareiss that undercounts must still be caught.
    ctx = VariableContext(("x", "y"))
    x = TruncatedSeries.variable(ctx, 6, "x")
    y = TruncatedSeries.variable(ctx, 6, "y")
    monkeypatch.setattr(linalg, "bareiss_rank", lambda entries: 0)
    with pytest.raises(AssertionError, match="exceeds symbolic rank"):
        symbolic_rank([[x, y], [x * x, x * y]])


def test_rank_of_empty_rows_is_zero():
    point = random_rational_point(2, random.Random(0))
    for m in ([], [[]], [[], []]):
        assert bareiss_rank(m) == 0
        assert numeric_rank(m) == 0
        assert rank_at(m, point) == 0
        assert symbolic_rank(m) == 0


def _spy_cross(monkeypatch):
    """Record the arguments and the result of every numerator `_cross`
    that Bareiss forms."""
    calls = []
    cross = linalg._cross

    def spy(*args):
        out = cross(*args)
        calls.append((args, out))
        return out
    monkeypatch.setattr(linalg, "_cross", spy)
    return calls


def _last_step_cases():
    """(name, matrix, rank, numerators): each exit of Bareiss, and each exit
    of its last step, where one row is left below the pivot and only its
    numerators of the remaining columns are formed.  `numerators` says, in
    order, whether each numerator Bareiss forms is nonzero; the last step's
    are the trailing ones."""
    ctx = VariableContext(("x", "y"))
    x = TruncatedSeries.variable(ctx, 6, "x")
    y = TruncatedSeries.variable(ctx, 6, "y")
    one = TruncatedSeries.constant(ctx, 6, 1)
    zero = TruncatedSeries.zero(ctx, 6)
    T, F = True, False
    return [
        ("first numerator nonzero", [[x, y], [y, x]], 2, [T]),
        ("first numerator zero, a later one not", [[x, y, one], [x, y, x]],
         2, [F, T]),
        ("every numerator zero", [[x, y, one], [x * x, x * y, x]], 1,
         [F, F]),
        ("pivot in the last column, the remaining column zero",
         [[zero, x], [zero, y]], 1, [F]),
        ("zero head, a later entry not", [[x, y, one], [zero, zero, y]], 2,
         [F, T]),
        ("sparser pivot in a later column", [[x + y, one], [x - y, x]], 2,
         [T]),
        ("after one step, first numerator nonzero",
         [[x, y, one], [y, x, one], [one, x, y]], 3, [T, T, T, T, T]),
        ("after one step, every numerator zero",
         [[x, y, one], [y, x, one], [x + y, x + y, 2 * one]], 2,
         [T, T, T, T, F]),
        ("tall, after one step, first numerator zero, a later one not",
         [[one, zero, zero], [zero, x, x], [zero, y, y], [zero, one, x]], 3,
         [T, T, T, T, T, T, F, T]),
        ("no pivot left before the last step",
         [[x, y, one], [x * x, x * y, x], [x * y, y * y, y]], 1,
         [F, F, F, F]),
        ("one row", [[x + y, y]], 1, []),
    ]


@pytest.mark.parametrize("case", _last_step_cases(), ids=lambda c: c[0])
def test_bareiss_last_step_exits(monkeypatch, case):
    _, m, expected, numerators = case
    entries = [[e.terms for e in row] for row in m]
    calls = _spy_cross(monkeypatch)
    assert bareiss_rank(entries) == _bareiss_rank_reference(entries) \
        == expected
    assert [bool(out) for _, out in calls] == numerators


def _pivot_cases():
    """(name, matrix, (row, column) of the first pivot): the sparsest
    nonzero entry of the whole matrix, the first column and then the first
    row on a tie."""
    ctx = VariableContext(("x", "y"))
    x = TruncatedSeries.variable(ctx, 6, "x")
    y = TruncatedSeries.variable(ctx, 6, "y")
    one = TruncatedSeries.constant(ctx, 6, 1)
    zero = TruncatedSeries.zero(ctx, 6)
    a, b, c = x + y + one, x * y + x + 2 * one, y * y - x + 3 * one
    return [
        ("neither first row nor first column",
         [[a, b, c, b], [b, c, a, x + one], [c, a, b, y]], (2, 3)),
        ("first column wins a tie",
         [[a, b, c, x], [b, c, y, a], [zero, a, b, c]], (1, 2)),
        ("first row wins a tie in one column",
         [[a, b, c, a], [b, x, a, b], [c, y, b, c]], (1, 1)),
        ("fewest terms beats an earlier column",
         [[a, x + one, y], [b, c, a], [c, a, b]], (0, 2)),
    ]


@pytest.mark.parametrize("case", _pivot_cases(), ids=lambda c: c[0])
def test_bareiss_pivots_on_the_sparsest_entry_anywhere(monkeypatch, case):
    # The first step forms (pivot * m[r][c] - head * top[c]) for every row
    # r below the pivot row and every column c but the pivot's, in order.
    _, m, (pr, pc) = case
    entries = [[e.terms for e in row] for row in m]
    calls = _spy_cross(monkeypatch)
    rank = bareiss_rank(entries)
    assert rank == _bareiss_rank_reference(entries)
    rows = list(range(len(m)))
    rows[0], rows[pr] = pr, 0
    cols = [c for c in range(len(m[0])) if c != pc]
    top = entries[pr]
    want = [(top[pc], entries[r][c], entries[r][pc], top[c])
            for r in rows[1:] for c in cols]
    assert [args for args, _ in calls[:len(want)]] == want


def _spy_rank_at(monkeypatch):
    """Record every point at which `symbolic_rank` evaluates its matrix."""
    calls = []

    def spy(matrix, point):
        calls.append(point)
        return rank_at(matrix, point)
    monkeypatch.setattr(linalg, "rank_at", spy)
    return calls


def test_symbolic_rank_runs_the_witness_only_below_full_rank(monkeypatch):
    # A point rank is at most min(rows, cols), so the witness can only
    # contradict a Bareiss rank below that; there it runs once, at the
    # seeded point, and nowhere else.
    cases = [(seed, name, m, expected)
             for seed in (0, 5)
             for name, m, expected, _ in _rank_cases(seed)[1]]
    cases += [(0, name, m, expected)
              for name, m, expected, _ in _last_step_cases()]
    cases += [(0, name, m, _bareiss_rank_reference(
                  [[e.terms for e in row] for row in m]))
              for name, m, _ in _pivot_cases()]
    ran = 0
    for seed, name, m, expected in cases:
        calls = _spy_rank_at(monkeypatch)
        assert symbolic_rank(m, seed=seed) == expected, name
        if expected < min(len(m), len(m[0])):
            assert calls == [linalg._witness_point(2, seed)], name
            ran += 1
        else:
            assert calls == [], name
    assert 0 < ran < len(cases)


def test_kernel_basis():
    # equations x0 + x1 = 0 and x2 = 0, one coefficient column per unknown
    basis = kernel_basis([{"a": ONE}, {"a": ONE}, {"b": ONE}])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == ZERO and v[2] == ZERO
    assert kernel_basis([{"a": ONE}, {"b": ONE}]) == []
