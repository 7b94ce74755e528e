"""Graphing, the reality involution, tangent fields and derivations."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (LiftReference, cr_fields, embedded_theta,
                      embedded_theta_bar, make_ex121, make_flat,
                      make_heisenberg, make_sphere3, make_z2zb2, quadric_pair,
                      random_coeff, random_real_system, random_series,
                      transversal_fields)
from crreflect import manifold
from crreflect.context import VariableContext, multidegrees
from crreflect.exprparse import parse_expression
from crreflect.gaussian import I, ONE, gr
from crreflect.linalg import numeric_rank
from crreflect.manifold import (Derivation, GraphedManifold, JetSymbols,
                                ManifoldError, Names, RealDefiningSystem,
                                complexify_and_graph, fields, verify_reality)
from crreflect.reflection import transform_target
from crreflect.series import (SeriesError, SeriesMap, TruncatedSeries,
                              jacobian_at_zero)


def tvar(ctx, name, order=8):
    return TruncatedSeries.variable(ctx, order, name)


def test_heisenberg_graph():
    M = make_heisenberg()
    zeta = tvar(M.ctx_theta_bar, "zeta1")
    z = tvar(M.ctx_theta_bar, "z1")
    xi = tvar(M.ctx_theta_bar, "xi1")
    assert M.theta_bar[0] == xi + I * z * zeta
    assert verify_reality(M).ok


def test_flat_graph():
    M = make_flat()
    xi = tvar(M.ctx_theta_bar, "xi1")
    assert M.theta_bar[0] == xi
    assert verify_reality(M).ok


def test_z2zb2_graph_substitute_back():
    M = make_z2zb2()
    zeta = tvar(M.ctx_theta_bar, "zeta1")
    z = tvar(M.ctx_theta_bar, "z1")
    xi = tvar(M.ctx_theta_bar, "xi1")
    assert M.theta_bar[0] == xi + I * z * z * zeta * zeta
    assert verify_reality(M).ok


def test_reality_violation_detected():
    order = 6
    names = VariableContext(("z1", "zeta1", "xi1"))
    xi = tvar(names, "xi1", order)
    z = tvar(names, "z1", order)
    # theta_bar = xi + z breaks the involution pairing
    with pytest.raises(ManifoldError):
        GraphedManifold.from_theta_bar(1, 1, SeriesMap([xi + z]))
    # as a report instead of an error: first failure at degree 1
    M = GraphedManifold.from_theta_bar(1, 1, SeriesMap([xi + z]), check=False)
    rep = verify_reality(M)
    assert not rep.ok and rep.first_failing_degree == 1


def _two_way_reality_degree(M):
    """Reference: the smallest valuation of the substituted involution
    residuals in both directions, w - theta_bar(z, zeta, theta) and
    xi - theta(zeta, z, theta_bar); None when both vanish."""
    vals = []
    ctx = VariableContext(M.names.z + M.names.w + M.names.zeta)
    repl = {x: t.remapped(ctx) for x, t in zip(M.names.xi, M.theta)}
    for j, tb in enumerate(M.theta_bar.components):
        vals.append((tb.substitute(repl, ctx)
                     - tvar(ctx, M.names.w[j], M.order)).valuation())
    ctx = VariableContext(M.names.zeta + M.names.z + M.names.xi)
    repl = {w: t.remapped(ctx) for w, t in zip(M.names.w, M.theta_bar)}
    for j, th in enumerate(M.theta.components):
        vals.append((th.substitute(repl, ctx)
                     - tvar(ctx, M.names.xi[j], M.order)).valuation())
    vals = [v for v in vals if v is not None]
    return min(vals) if vals else None


def test_one_way_reality_matches_both_directions():
    ctx = VariableContext(("z1", "zeta1", "xi1"))
    for broken in (tvar(ctx, "xi1", 6) + tvar(ctx, "z1", 6),
                   tvar(ctx, "xi1", 6) * 2,
                   tvar(ctx, "xi1", 6) + tvar(ctx, "z1", 6) ** 3):
        M = GraphedManifold.from_theta_bar(1, 1, SeriesMap([broken]),
                                           check=False)
        rep = verify_reality(M)
        assert not rep.ok
        assert rep.first_failing_degree == _two_way_reality_degree(M)


def test_unpaired_graph_is_not_real():
    # theta_bar = xi + 2 z zeta and theta = w - 2 zeta z invert each other,
    # so both substituted identities hold, but they are not conjugates:
    # only the pairing residual -4 z zeta shows it.
    names = Names(1, 1)
    ctx_tb = VariableContext(names.z + names.zeta + names.xi)
    ctx_t = VariableContext(names.zeta + names.z + names.w)
    theta_bar = SeriesMap([tvar(ctx_tb, "xi1", 6) + tvar(ctx_tb, "z1", 6)
                           * tvar(ctx_tb, "zeta1", 6) * 2])
    theta = SeriesMap([tvar(ctx_t, "w1", 6) - tvar(ctx_t, "zeta1", 6)
                       * tvar(ctx_t, "z1", 6) * 2])
    M = GraphedManifold(1, 1, theta, theta_bar, names, check=False)
    assert _two_way_reality_degree(M) is None
    rep = verify_reality(M)
    assert not rep.ok and rep.first_failing_degree == 2
    with pytest.raises(ManifoldError):
        GraphedManifold(1, 1, theta, theta_bar, names)


def test_anti_real_normalization():
    # w - xi - i z zeta is anti-real; its i-multiple defines the same set
    M = make_heisenberg()
    assert verify_reality(M).ok


def test_rejects_mixed_reality():
    ctx = VariableContext(("t1", "t2", "tau1", "tau2"))
    t1 = tvar(ctx, "t1")
    t2 = tvar(ctx, "t2")
    s2 = tvar(ctx, "tau2")
    with pytest.raises(ManifoldError):
        RealDefiningSystem(2, 1, SeriesMap([t2 - s2 - t1 * t1]))


def test_degenerate_input_is_hard_error():
    ctx = VariableContext(("t1", "t2", "tau1", "tau2"))
    t1, t2 = tvar(ctx, "t1"), tvar(ctx, "t2")
    s1, s2 = tvar(ctx, "tau1"), tvar(ctx, "tau2")
    # both defining functions vanish to order 2: rank 0 < d at 0
    rho = SeriesMap([(t2 * t2 - s2 * s2) * I])
    with pytest.raises(ManifoldError):
        complexify_and_graph(RealDefiningSystem(2, 1, rho))


def test_random_systems_reality_and_involution():
    for seed in range(6):
        m, d = [(1, 1), (2, 1), (1, 2)][seed % 3]
        system = random_real_system(seed, m, d, order=6)
        assert system.reality_defect() is None
        M = complexify_and_graph(system)
        assert verify_reality(M).ok
        assert _two_way_reality_degree(M) is None


def _mixed_real_system(seed, m, d, order=5):
    """A seeded random real system whose linear part mixes every
    t-coordinate, with its valid splits: the d-subsets of the t-indices
    whose Jacobian block at 0 is nonsingular."""
    rng = random.Random(seed)
    n = m + d
    ctx = VariableContext(tuple("t%d" % i for i in range(1, n + 1))
                          + tuple("tau%d" % i for i in range(1, n + 1)))
    comps = []
    for _ in range(d):
        comp = random_series(ctx, order, rng, degree=3, min_degree=2,
                             density=0.35)
        for i in range(1, n + 1):
            comp = comp + tvar(ctx, "t%d" % i, order) * random_coeff(rng)
        comps.append(comp)
    system = RealDefiningSystem.symmetrize(n, d, SeriesMap(comps))
    jac = jacobian_at_zero(system.rho.components, range(n))
    splits = [s for s in itertools.combinations(range(n), d)
              if numeric_rank([[row[c] for c in s] for row in jac]) == d]
    return system, splits


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       dims=st.sampled_from([(1, 1), (2, 1), (1, 2)]),
       pick=st.integers(0, 2 ** 16))
def test_graphs_of_real_systems_are_real(seed, dims, pick):
    # The theorem `complexify_and_graph` rests on, in place of a check:
    # rho is real and the implicit solve is unique, so the graph is real
    # for every valid split.
    system, splits = _mixed_real_system(seed, *dims)
    assume(splits)
    M = complexify_and_graph(system, split=splits[pick % len(splits)])
    assert verify_reality(M).ok


def test_reality_is_checked_where_a_graph_enters(monkeypatch):
    calls = []
    check = manifold.verify_reality
    monkeypatch.setattr(manifold, "verify_reality",
                        lambda M: calls.append(M) or check(M))
    # derived graphs are real by theorem: no check
    M = complexify_and_graph(random_real_system(0, 2, 1, order=6))
    Mp = M.primed()
    zp1, zp2, wp1 = (tvar(VariableContext(Mp.names.t), n, 6)
                     for n in Mp.names.t)
    transform_target(Mp, SeriesMap([zp1 + zp2 * wp1, zp2 * 2 + I * zp1 * zp1,
                                    wp1 + wp1 * wp1]))
    assert calls == []
    # graphs supplied from outside: one check each
    GraphedManifold.from_theta_bar(M.m, M.d, M.theta_bar)
    assert len(calls) == 1
    GraphedManifold.from_theta(M.m, M.d, M.theta)
    assert len(calls) == 2
    GraphedManifold(M.m, M.d, M.theta, M.theta_bar, M.names)
    assert len(calls) == 3


def _theta_bar_pair(primed):
    """A manifold given by its theta_bar, built in either alphabet."""
    p = "p" if primed else ""
    names = Names(1, 1, primed)
    text = "xi1 + i*z1*zeta1 + i*z1^2*zeta1^2"
    text = text.replace("1", p + "1")
    graph = parse_expression(text, names.graph_context("w"), 6)
    return GraphedManifold.from_theta_bar(1, 1, SeriesMap([graph]),
                                          primed=primed)


def _primed_pairs():
    """(source, the same manifold graphed in the primed alphabet)."""
    yield make_heisenberg(), make_heisenberg(primed=True)
    yield make_sphere3(), make_sphere3(primed=True)
    yield make_ex121(primed=False), make_ex121(primed=True)
    yield quadric_pair()
    yield _theta_bar_pair(False), _theta_bar_pair(True)
    for seed, (m, d) in enumerate([(1, 1), (2, 1), (1, 2)]):
        system = random_real_system(seed, m, d, order=6)
        yield (complexify_and_graph(system),
               complexify_and_graph(system, primed=True))


def test_primed_equals_primed_graphing():
    for M, ref in _primed_pairs():
        Mp = M.primed()
        assert (Mp.m, Mp.d, Mp.n, Mp.order) == \
            (ref.m, ref.d, ref.n, ref.order)
        assert Mp.theta == ref.theta and Mp.theta_bar == ref.theta_bar
        blocks = ("z", "w", "zeta", "xi")
        assert Mp.names.blocks(*blocks) == ref.names.blocks(*blocks)
        assert (Mp.ctx_theta, Mp.ctx_theta_bar, Mp.ctx_joint) == \
            (ref.ctx_theta, ref.ctx_theta_bar, ref.ctx_joint)
        assert (Mp.ctx_restrict_xi, Mp.ctx_restrict_w) == \
            (ref.ctx_restrict_xi, ref.ctx_restrict_w)
        assert verify_reality(Mp).ok


def test_cr_fields_heisenberg():
    M = make_heisenberg()
    L, Lbar = cr_fields(M)
    ctxj = M.ctx_joint
    zeta = tvar(ctxj, "zeta1")
    z = tvar(ctxj, "z1")
    assert L[0].coeffs[ctxj.index("z1")] == ONE
    assert L[0].coeffs[ctxj.index("w1")] == (I * zeta).truncated(7)
    assert Lbar[0].coeffs[ctxj.index("zeta1")] == ONE
    assert Lbar[0].coeffs[ctxj.index("xi1")] == (-I * z).truncated(7)


def test_flat_cr_field_is_plain_partial():
    M = make_flat()
    L, _ = cr_fields(M)
    assert set(L[0].coeffs) == {M.ctx_joint.index("z1")} or \
        all(not c for i, c in L[0].coeffs.items()
            if i != M.ctx_joint.index("z1"))


def test_tangency_identities():
    for M in (make_heisenberg(), make_z2zb2(), make_flat()):
        ctxj = M.ctx_joint
        L, Lbar = cr_fields(M)
        U, Ubar = transversal_fields(M)
        for j in range(M.d):
            w = tvar(ctxj, M.names.w[j])
            xi = tvar(ctxj, M.names.xi[j])
            rbar = w - embedded_theta_bar(M)[j]
            r = xi - embedded_theta(M)[j]
            for k in range(M.m):
                assert L[k].apply(rbar).is_zero()
                assert Lbar[k].apply(r).is_zero()
            for j1 in range(M.d):
                assert U[j1].apply(r).is_zero()
                assert Ubar[j1].apply(rbar).is_zero()


def test_transversal_field_heisenberg():
    M = make_heisenberg()
    U, _ = transversal_fields(M)
    ctxj = M.ctx_joint
    assert U[0].coeffs[ctxj.index("w1")] == ONE
    assert U[0].coeffs[ctxj.index("xi1")] == \
        TruncatedSeries.constant(ctxj, 7, ONE)


def test_cr_fields_commute():
    rng = random.Random(77)
    system = random_real_system(4, 2, 1, order=6)
    M = complexify_and_graph(system)
    L, Lbar = cr_fields(M)
    f = random_series(M.ctx_joint, 6, rng, degree=3)
    assert L[0].apply(L[1].apply(f)) == L[1].apply(L[0].apply(f))
    assert Lbar[0].apply(Lbar[1].apply(f)) == Lbar[1].apply(Lbar[0].apply(f))


def test_lbar_matches_zeta_derivative_of_restriction():
    # d/d zeta_k of psi(zeta, theta) == [Lbar_k psi](zeta, theta)
    rng = random.Random(55)
    M = make_heisenberg(order=6)
    ctxj = M.ctx_joint
    _, Lbar = cr_fields(M)
    psi = random_series(
        VariableContext(("zeta1", "xi1")), 6, rng, degree=3).remapped(ctxj)
    lhs = M.restrict(psi, "xi").derive("zeta1")
    rhs = M.restrict(Lbar[0].apply(psi), "xi")
    assert lhs == rhs.truncated(lhs.order)


def test_upsilon_on_pure_t_is_w_partial():
    M = make_heisenberg(order=6)
    rng = random.Random(66)
    U, _ = transversal_fields(M)
    h = random_series(VariableContext(("z1", "w1")), 6, rng, degree=3)
    emb = h.remapped(M.ctx_joint)
    assert U[0].apply(emb) == h.derive("w1").remapped(M.ctx_joint)


def test_restrictions_vanish_together():
    M = make_heisenberg()
    ctxj = M.ctx_joint
    w = tvar(ctxj, "w1")
    xi = tvar(ctxj, "xi1")
    r = xi - embedded_theta(M)[0]
    rbar = w - embedded_theta_bar(M)[0]
    for f in (r, rbar):
        a = M.restrict(f, "xi").is_zero()
        b = M.restrict(f, "w").is_zero()
        assert a == b == True  # noqa: E712


def test_restrict_values():
    M = make_heisenberg()
    ctxj = M.ctx_joint
    w = tvar(ctxj, "w1")
    out = M.restrict(w, "w")
    z = tvar(M.ctx_restrict_w, "z1")
    zeta = tvar(M.ctx_restrict_w, "zeta1")
    xi = tvar(M.ctx_restrict_w, "xi1")
    assert out == xi + I * z * zeta


def test_split_autodetection_permuted():
    # genericity pivot lands on t1 when the transversal slot is first
    ctx = VariableContext(("t1", "t2", "tau1", "tau2"))
    t1, t2 = tvar(ctx, "t1"), tvar(ctx, "t2")
    s1, s2 = tvar(ctx, "tau1"), tvar(ctx, "tau2")
    rho = SeriesMap([t1 - s1 - I * t2 * s2])
    M = complexify_and_graph(RealDefiningSystem(2, 1, rho))
    assert M.m == 1 and M.d == 1
    assert verify_reality(M).ok


# References for `GraphedManifold.restrict`: the argument lists the
# reflection and nondegeneracy code built by hand before every graph
# substitution went through `restrict`.


def _chart_reference(M, f, side, uargs=None):
    """The old `Resolution._compose_phi`: `uargs` first, then xi := theta
    (side 'xi') or w := theta_bar (side 'w'), every other name kept."""
    uargs = uargs or {}
    nm = M.names
    ctx_v = VariableContext(nm.z + nm.w + nm.zeta if side == "xi"
                            else nm.z + nm.zeta + nm.xi)
    args = []
    for name in f.context.names:
        if name in uargs:
            args.append(uargs[name])
        elif side == "xi" and name in M.names.xi:
            args.append(M.theta[M.names.xi.index(name)].remapped(ctx_v))
        elif side == "w" and name in M.names.w:
            args.append(M.theta_bar[M.names.w.index(name)].remapped(ctx_v))
        else:
            args.append(tvar(ctx_v, name, f.order))
    return f.compose(args)


def _leaf_reference(M, f, extra=None):
    """The old `on_segre` and h4 argument list: z kept,
    w := theta_bar(z, 0, 0), names in `extra` replaced, the rest zero."""
    extra = extra or {}
    ctx_z = VariableContext(M.names.z)
    zs = [tvar(ctx_z, n, f.order) for n in M.names.z]
    zero = TruncatedSeries.zero(ctx_z, f.order)
    tb0 = [t.compose(zs + [zero] * (M.m + M.d)) for t in M.theta_bar]
    args = []
    for name in f.context.names:
        if name in extra:
            args.append(extra[name])
        elif name in M.names.z:
            args.append(zs[M.names.z.index(name)])
        elif name in M.names.w:
            args.append(tb0[M.names.w.index(name)])
        else:
            args.append(zero)
    return f.compose(args)


def _leaf_bar_reference(M, f):
    """The old `horizontal_part_bar` argument list, for f over tau:
    zeta kept, xi := theta(zeta, 0, 0)."""
    ctx_zeta = VariableContext(M.names.zeta)
    zetas = [tvar(ctx_zeta, n, f.order) for n in M.names.zeta]
    zero = TruncatedSeries.zero(ctx_zeta, f.order)
    th0 = [t.compose(zetas + [zero] * (M.m + M.d)) for t in M.theta]
    return f.compose(zetas + th0)


SEEDED = [complexify_and_graph(random_real_system(seed, m, d, 5),
                               primed=primed)
          for seed, (m, d) in enumerate([(1, 1), (2, 1), (1, 2)])
          for primed in (False, True)]
SEEDED_IDS = ["(%d,%d)%s" % (M.m, M.d, "p" if M.names.z[0] == "zp1" else "")
              for M in SEEDED]


@pytest.mark.parametrize("M", SEEDED, ids=SEEDED_IDS)
def test_restrict_matches_hand_built_arguments(M):
    rng = random.Random(M.m * 10 + M.d)
    ctxj = M.ctx_joint
    ctx_tau = VariableContext(M.names.tau)
    for order in (M.order, M.order - 2):
        f = random_series(ctxj, order, rng, degree=3, density=0.3)
        for side in ("xi", "w"):
            got = M.restrict(f, side)
            assert got == _chart_reference(M, f, side)
            assert got.order == order
        assert M.restrict(f, "leaf") == _leaf_reference(M, f)
        g = random_series(ctx_tau, order, rng, degree=3, density=0.5)
        assert M.restrict(g, "leaf_bar") == _leaf_bar_reference(M, g)
    # leaf and leaf_bar zero the conjugate block: a pure-tau series
    # restricts to its constant term on the leaf.
    g = random_series(ctx_tau, M.order, rng, degree=2, density=1.0)
    assert M.restrict(g, "leaf") == TruncatedSeries.constant(
        VariableContext(M.names.z), M.order, g.constant_term())


@pytest.mark.parametrize("M", SEEDED[:2], ids=SEEDED_IDS[:2])
def test_restrict_with_extra_names(M):
    rng = random.Random(3)
    ctx = VariableContext(M.ctx_joint.names + ("u1", "u2"))
    f = random_series(ctx, M.order - 1, rng, degree=3, density=0.2)
    for side in ("xi", "w"):
        target = M.ctx_restrict_xi if side == "xi" else M.ctx_restrict_w
        uargs = {u: random_series(target, M.order - 1, rng, degree=2,
                                  min_degree=1, density=0.4)
                 for u in ("u1", "u2")}
        got = M.restrict(f, side, uargs)
        assert got == _chart_reference(M, f, side, uargs)
        assert got.order == M.order - 1
    ctx_z = VariableContext(M.names.z)
    extra = {"u1": TruncatedSeries.zero(ctx_z, M.order),
             "u2": random_series(ctx_z, M.order, rng, degree=2,
                                 min_degree=1)}
    assert M.restrict(f, "leaf", extra) == _leaf_reference(M, f, extra)


def test_restrict_rejects_unknown_side_and_names():
    M = make_heisenberg(order=4)
    f = embedded_theta(M)[0]
    with pytest.raises(ValueError, match="'leaf_bar', 'zeta0'"):
        M.restrict(f, "zeta")
    stray = TruncatedSeries.variable(
        VariableContext(("z1", "u1")), 4, "u1")
    with pytest.raises(ValueError):
        M.restrict(stray, "xi")
    with pytest.raises(ValueError):
        M.restrict(stray, "leaf", {"u2": TruncatedSeries.zero(
            VariableContext(("z1",)), 4)})


def test_leaf_zeros_stay_zero():
    # zeta and xi are zero series on the leaf; a lookup that treated a
    # falsy series as missing would keep them as variables.
    M = make_heisenberg(order=4)
    ctxj = M.ctx_joint
    out = M.restrict(tvar(ctxj, "zeta1", 4) + tvar(ctxj, "xi1", 4), "leaf")
    assert out.is_zero() and out.context.names == ("z1",)
    out = M.restrict(tvar(ctxj, "z1", 4) * tvar(ctxj, "w1", 4), "leaf_bar")
    assert out.is_zero() and out.context.names == ("zeta1",)


def _zeta0_reference(M, f):
    """The old `composed_jet_table` route: restrict to side 'xi', then set
    zeta = 0 with `substitute`."""
    ctx_t = VariableContext(M.names.t)
    at_zero = {n: TruncatedSeries.zero(ctx_t, f.order) for n in M.names.zeta}
    return M.restrict(f, "xi").substitute(at_zero, ctx_t)


@pytest.mark.parametrize("M", SEEDED, ids=SEEDED_IDS)
def test_restrict_zeta0(M):
    rng = random.Random(M.m * 10 + M.d + 5)
    ctx_t = VariableContext(M.names.t)
    for order in (M.order, M.order - 2):
        f = random_series(M.ctx_joint, order, rng, degree=3, density=0.3)
        got = M.restrict(f, "zeta0")
        assert got == _zeta0_reference(M, f)
        assert got.order == order and got.context == ctx_t
    # xi := theta(0, z, w) over (z, w)
    xi = [TruncatedSeries.variable(M.ctx_joint, M.order, n)
          for n in M.names.xi]
    zero = TruncatedSeries.zero(ctx_t, M.order)
    tvars = [TruncatedSeries.variable(ctx_t, M.order, n) for n in M.names.t]
    assert [M.restrict(x, "zeta0") for x in xi] == \
        [t.compose([zero] * M.m + tvars) for t in M.theta]


@pytest.mark.parametrize("M", SEEDED, ids=SEEDED_IDS)
def test_from_either_graph_gives_the_same_manifold(M):
    primed = M.names.z[0] == "zp1"
    for built in (
            GraphedManifold.from_theta(M.m, M.d, M.theta, primed=primed),
            GraphedManifold.from_theta_bar(M.m, M.d, M.theta_bar,
                                           primed=primed)):
        assert built.theta == M.theta and built.theta_bar == M.theta_bar
        assert built.names.tau == M.names.tau
    # a graph over a permuted context is put into the graph's own order
    permuted = M.theta.remapped(VariableContext(tuple(reversed(
        M.ctx_theta.names))))
    built = GraphedManifold.from_theta(M.m, M.d, permuted, primed=primed)
    assert built.theta == M.theta


# Reference for `cr_fields` and `transversal_fields`: the four loops they
# ran before one builder read the family table.


def _fields_reference(M):
    ctxj = M.ctx_joint
    tb = embedded_theta_bar(M)
    th = embedded_theta(M)
    L = []
    for k, zk in enumerate(M.names.z):
        coeffs = {zk: ONE}
        for j, wj in enumerate(M.names.w):
            coeffs[wj] = tb[j].derive(ctxj.index(zk))
        L.append(Derivation(ctxj, coeffs, label="L_%s" % zk))
    Lbar = []
    for k, zetak in enumerate(M.names.zeta):
        coeffs = {zetak: ONE}
        for j, xij in enumerate(M.names.xi):
            coeffs[xij] = th[j].derive(ctxj.index(zetak))
        Lbar.append(Derivation(ctxj, coeffs, label="Lbar_%s" % zetak))
    U = []
    for j, wj in enumerate(M.names.w):
        coeffs = {wj: ONE}
        for l, xil in enumerate(M.names.xi):
            coeffs[xil] = th[l].derive(ctxj.index(wj))
        U.append(Derivation(ctxj, coeffs, label="Ups_%s" % wj))
    Ubar = []
    for j, xij in enumerate(M.names.xi):
        coeffs = {xij: ONE}
        for l, wl in enumerate(M.names.w):
            coeffs[wl] = tb[l].derive(ctxj.index(xij))
        Ubar.append(Derivation(ctxj, coeffs, label="UpsBar_%s" % xij))
    return L, Lbar, U, Ubar


@pytest.mark.parametrize("M", SEEDED, ids=SEEDED_IDS)
def test_fields_match_reference_loops(M):
    got = cr_fields(M) + transversal_fields(M)
    want = _fields_reference(M)
    assert [len(f) for f in got] == [M.m, M.m, M.d, M.d]
    for fam_got, fam_want in zip(got, want):
        assert len(fam_got) == len(fam_want)
        for D, E in zip(fam_got, fam_want):
            assert D.label == E.label and D.context == E.context
            assert D.jets is None and E.jets is None
            # in insertion order; series equality compares order and context
            assert list(D.coeffs.items()) == list(E.coeffs.items())


# Reference for `Derivation.apply`: the loop it ran before the fused kernel,
# one derivative, one product and one sum per coefficient.


def _apply_reference(D, f):
    assert D.jets is None  # a derivation on jet space: `LiftReference`
    if f.context != D.context:
        f = f.remapped(D.context)
    out = None
    for i, c in D.coeffs.items():
        df = f.derive(i)
        if isinstance(c, TruncatedSeries):
            piece = df * c.truncated(df.order)
        else:
            piece = df * c
        out = piece if out is None else out + piece
    if out is None:
        raise SeriesError("empty derivation")
    return out


def _check_apply(D, f, reference=None):
    got = D.apply(f)
    want = reference.apply(f) if reference else _apply_reference(D, f)
    assert got == want
    assert got.order == want.order and got.context == D.context
    assert all(got.terms.values())
    return got


@pytest.mark.parametrize("M", SEEDED, ids=SEEDED_IDS)
def test_apply_matches_reference_loop(M):
    rng = random.Random(M.m * 10 + M.d + 1)
    ctxj = M.ctx_joint
    L, Lbar = cr_fields(M)
    U, Ubar = transversal_fields(M)
    ctx_t = VariableContext(M.names.t)
    for order in (M.order, M.order - 2, 1):
        f = random_series(ctxj, order, rng, degree=4, density=0.3)
        g = random_series(ctx_t, order, rng, degree=3, density=0.5)
        for D in L + Lbar + U + Ubar:
            _check_apply(D, f)
            _check_apply(D, g)  # remapped into the joint context first
    # iterated, so operands carry the reduced orders of earlier results
    f = random_series(ctxj, M.order, rng, degree=3, density=0.4)
    for D in L + U + L:
        f = _check_apply(D, f)


def _on_jets(M, family, jets, context):
    """(field, reference lift) pairs of one family on `context`, which
    holds the `jets` block."""
    return list(zip(fields(M, family, context, jets),
                    [LiftReference(D, jets, context, M.order)
                     for D in fields(M, family)]))


@pytest.mark.parametrize("M", SEEDED[::2], ids=SEEDED_IDS[::2])
def test_apply_matches_reference_on_jet_lifts(M):
    """Both lifts: hbar jets over tau at level 2 with constants (as
    `resolve_finitely_nondeg` lifts Lbar at level ell0), and one
    component's jets over t at level 1 (a generic t-jet)."""
    rng = random.Random(7 + M.m + 2 * M.d)
    N = M.order
    tau_jets = JetSymbols("u", 2, M.names.tau, 2, {
        (c, a): gr(rng.randint(-3, 3), rng.randint(-3, 3))
        for c in range(2) for a in multidegrees(M.n, 2)})
    t_jets = JetSymbols("v", 1, M.names.t, 1, {})
    for jets, families in ((tau_jets, "L Ups"), (t_jets, "Lbar Ups")):
        ctx = VariableContext(M.ctx_joint.names + jets.names)
        lifted = [pair for family in families.split()
                  for pair in _on_jets(M, family, jets, ctx)]
        low = [jets.name(c, a) for c in range(jets.n_components)
               for a in jets.alphas if not any(a)]
        base = VariableContext(M.ctx_joint.names[:M.n] + tuple(low))
        f = random_series(base, N, rng, degree=3, density=0.3).remapped(ctx)
        f = f + jets.jet_series(0, (0,) * len(jets.dep_names), ctx, N)
        for D, ref in lifted:
            assert D.jets is jets and ref.forbidden
            g = _check_apply(D, f, ref)
            for E, ref_E in lifted:
                top = g.support_variables() & ref_E.forbidden
                if top:  # level 1: D put the top jets into g
                    _raises_same(E, g, "beyond the lifted level", ref_E)
                else:
                    _check_apply(E, g, ref_E)


@pytest.mark.parametrize("M", SEEDED, ids=SEEDED_IDS)
def test_tangent_fields_commute_with_restriction(M):
    """restrict_xi(D f) == D_xi restrict_xi(f), for single fields and for
    words of two: the tangent fields restrict to side 'xi' as L_k ->
    d/dz_k + sum_j (d theta_bar_j/dz_k on the manifold) d/dw_j, Ups_j ->
    d/dw_j and Lbar_k -> d/dzeta_k, because theta involves no xi."""
    rng = random.Random(5 * M.m + M.d)
    L, Lbar = cr_fields(M)
    U, _ = transversal_fields(M)
    pairs = []
    for z, D in zip(M.names.z, L):
        coeffs = {w: M.restrict(tb.derive(z), "xi")
                  for w, tb in zip(M.names.w, M.theta_bar)}
        coeffs[z] = ONE
        pairs.append((D, Derivation(M.ctx_restrict_xi, coeffs).apply))
    for fields, names in ((U, M.names.w), (Lbar, M.names.zeta)):
        pairs += [(D, lambda f, v=v: f.derive(v))
                  for D, v in zip(fields, names)]
    for order in (M.order, M.order - 2):
        f = random_series(M.ctx_joint, order, rng, degree=4, density=0.3)
        on = M.restrict(f, "xi")
        for D, D_xi in pairs:
            once = D.apply(f)
            assert M.restrict(once, "xi") == D_xi(on)
            for E, E_xi in pairs:
                assert M.restrict(E.apply(once), "xi") == E_xi(D_xi(on))


def test_apply_constant_zero_and_series_coefficients():
    rng = random.Random(11)
    ctx = VariableContext(("x", "y", "z", "s"))
    c = random_series(ctx, 5, rng, degree=3, density=0.5)
    coeff_sets = [
        {"x": 3, "y": Fraction(-2, 7), "z": gr(1, -2)},
        {"x": 0, "y": TruncatedSeries.zero(ctx, 6)},
        {"x": c, "y": ONE, "s": TruncatedSeries.zero(ctx, 3)},
        {"z": c.truncated(2), "s": c, "x": gr(0, 1)},
    ]
    for coeffs in coeff_sets:
        D = Derivation(ctx, coeffs)
        for order in (6, 4, 1):
            f = random_series(ctx, order, rng, degree=4, density=0.4)
            _check_apply(D, f)
            _check_apply(D, TruncatedSeries.zero(ctx, order))
    # the result order is the least of f.order - 1 and the coefficients'
    D = Derivation(ctx, {"x": c.truncated(2), "y": 5})
    f = random_series(ctx, 6, rng, degree=4, density=0.4)
    assert D.apply(f).order == 2
    assert Derivation(ctx, {"x": 5}).apply(f).order == 5


def _raises_same(D, f, text, reference=None):
    with pytest.raises(SeriesError, match=text):
        D.apply(f)
    with pytest.raises(SeriesError, match=text):
        reference.apply(f) if reference else _apply_reference(D, f)


def test_apply_errors_match_reference():
    M = make_heisenberg(order=4)
    ctxj = M.ctx_joint
    L, _ = cr_fields(M)
    f = embedded_theta(M)[0]
    _raises_same(L[0], f.truncated(0), "no precision left")
    _raises_same(Derivation(ctxj, {}), f, "empty derivation")
    _raises_same(Derivation(ctxj, {}), f.truncated(0), "empty derivation")
    jets = JetSymbols("u", 1, M.names.tau, 1)
    ctx = VariableContext(ctxj.names + jets.names)
    lifted, ref = _on_jets(M, "L", jets, ctx)[0]
    top = jets.name(0, (1, 0))
    assert lifted.jets is jets and ctx.index(top) in ref.forbidden
    g = TruncatedSeries.variable(ctx, 4, top) * f.remapped(ctx)
    _raises_same(lifted, g, "beyond the lifted level", ref)
    # checked first: an empty derivation on jet space says so too
    empty = Derivation(ctx, {}, jets=jets)
    empty_ref = LiftReference(Derivation(ctxj, {}), jets, ctx, 4)
    _raises_same(empty, g, "beyond the lifted level", empty_ref)
    # a symbol below the top level is fine
    low = jets.name(0, (0, 0))
    h = TruncatedSeries.variable(ctx, 4, low) * f.remapped(ctx)
    _check_apply(lifted, h, ref)


def _outcome(apply, f):
    try:
        return apply(f)
    except SeriesError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(case=st.tuples(
    st.integers(0, len(SEEDED) - 1), st.sampled_from(("L", "Lbar", "Ups")),
    st.booleans(), st.integers(1, 3), st.integers(1, 2), st.integers(0, 5),
    st.booleans(), st.integers(0, 10 ** 6)))
def test_chain_rule_apply_matches_reference_lift(case):
    """`Derivation.apply` on jet space, by the chain rule, against the lift
    built in full: the same series, order and context, or the same
    SeriesError message.  The derivations are one family's fields and the
    bare total derivative D_v along one dependency variable v.  Operands
    carry a few jet symbols below the top level, and with `with_top` one
    top-level symbol, at orders down to 0; each result is fed to every
    derivation once more."""
    index, family, on_tau, level, comps, order, with_top, seed = case
    M = SEEDED[index]
    rng = random.Random(seed)
    if on_tau:  # hbar jets, as the resolution lifts Lbar, with constants
        jets = JetSymbols("u", comps, M.names.tau, level, {
            (c, a): gr(rng.randint(-3, 3), rng.randint(-3, 3))
            for c in range(comps) for a in multidegrees(M.n, level)})
    else:  # a generic t-jet
        jets = JetSymbols("v", comps, M.names.t, level, {})
    ctx = VariableContext(M.ctx_joint.names + jets.names)
    v = rng.choice(jets.dep_names)
    pairs = _on_jets(M, family, jets, ctx) + [(
        Derivation(ctx, {v: ONE}, jets=jets),
        LiftReference(Derivation(M.ctx_joint, {v: ONE}), jets, ctx, M.order))]
    below = [jets.name(c, a) for c in range(comps) for a in jets.alphas
             if sum(a) < level]
    top = [n for n in jets.names if n not in below]
    symbols = rng.sample(below, min(3, len(below)))
    if with_top:
        symbols.append(rng.choice(top))
    base = VariableContext(M.ctx_joint.names + tuple(symbols))
    f = random_series(base, min(order, M.order), rng, degree=3,
                      density=0.15).remapped(ctx)
    for D, ref in pairs:
        got = _outcome(D.apply, f)
        assert got == _outcome(ref.apply, f)
        if f.support_variables() & ref.forbidden:
            assert "beyond the lifted level" in got
        if isinstance(got, TruncatedSeries):
            for E, ref_E in pairs:
                assert _outcome(E.apply, got) == _outcome(ref_E.apply, got)
