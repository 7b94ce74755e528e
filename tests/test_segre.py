"""Flows, chains, minimality and Segre jets."""

import pytest

import random

from conftest import (conjugate_chain_symmetry_defect, make_flat,
                      make_heisenberg, make_sphere3, make_z2zb2, quadric_pair,
                      random_minimal_manifold, random_real_system,
                      random_series)
from crreflect import segre
from crreflect.context import VariableContext
from crreflect.linalg import generic_rank
from crreflect.manifold import ManifoldError, complexify_and_graph
from crreflect.segre import (DEFAULT_CHAIN_BUDGET, JetMapData, _chains,
                             chain, chain_time_names, check_on_manifold,
                             flow, minimality, origin_point, segre_jet_map)
from crreflect.series import SeriesError, SeriesMap, TruncatedSeries


def _t_components(g):
    """The t block of a Segre chain: its first n components."""
    return SeriesMap(g.components.components[:g.M.n])


def _project(ph, k2):
    """A Segre jet map with its jet entries of order above k2 <= ph.k
    dropped."""
    comps = ph.components.components
    keep = list(comps[:ph.M.m])
    idx = ph.M.m
    for _ in range(ph.M.d):
        for beta in ph.betas:
            if sum(beta) <= k2:
                keep.append(comps[idx])
            idx += 1
    betas = [b for b in ph.betas if sum(b) <= k2]
    return JetMapData(ph.M, k2, SeriesMap(keep), betas)


def test_flow_time_zero_is_identity():
    M = make_heisenberg()
    ctx = VariableContext(chain_time_names(1, 2))
    p = origin_point(M, ctx)
    zero_time = [TruncatedSeries.zero(ctx, M.order)]
    for field in ("L", "Lbar", "Ups", "UpsBar"):
        time = zero_time if field in ("L", "Lbar") else zero_time
        q = flow(M, field, p, time)
        assert q == p


def test_flow_steps_match_paper_values():
    M = make_heisenberg()
    ctx = VariableContext(chain_time_names(1, 2))
    z1 = TruncatedSeries.variable(ctx, M.order, "z1_1")
    z2 = TruncatedSeries.variable(ctx, M.order, "z2_1")
    p0 = origin_point(M, ctx)
    p1 = flow(M, "Lbar", p0, [z1])
    assert [str(c) for c in p1] == ["0", "0", "z1_1", "0"]
    p2 = flow(M, "L", p1, [z2])
    assert [str(c) for c in p2] == ["z2_1", "i*z1_1*z2_1", "z1_1", "0"]


def test_flow_rejects_offmanifold_points():
    M = make_heisenberg()
    ctx = VariableContext(chain_time_names(1, 1))
    p = origin_point(M, ctx)
    bad = list(p)
    bad[1] = TruncatedSeries.variable(ctx, M.order, "z1_1")  # w != theta
    with pytest.raises(ManifoldError):
        flow(M, "L", bad, [TruncatedSeries.zero(ctx, M.order)])


def test_check_on_manifold_compares_to_the_lesser_order():
    # the two-flow point (z2, i z1 z2, z1, 0) on Heisenberg at order 8
    M = make_heisenberg()
    ctx = VariableContext(chain_time_names(1, 2))
    z1 = TruncatedSeries.variable(ctx, M.order, "z1_1")
    z2 = TruncatedSeries.variable(ctx, M.order, "z2_1")
    p = flow(M, "L", flow(M, "Lbar", origin_point(M, ctx), [z1]), [z2])
    xi = M.ctx_joint.index(M.names.xi[0])
    z = M.ctx_joint.index(M.names.z[0])
    for idx in (xi, z):
        low = list(p)
        low[idx] = low[idx].truncated(6)
        check_on_manifold(M, low)
        assert segre._xi_defect(M, low) is None
        flow(M, "Lbar", low, [z2])
    for order in (M.order, 6):
        off = list(p)
        off[xi] = (off[xi] + z1 * z2 * z2).truncated(order)
        assert segre._xi_defect(M, off) == 3
        with pytest.raises(ManifoldError):
            check_on_manifold(M, off)


def test_flow_rejects_bad_fields_and_times():
    M = make_flat(order=4, m=2, d=1)
    ctx = VariableContext(chain_time_names(2, 1))
    p = origin_point(M, ctx)
    zero = TruncatedSeries.zero(ctx, M.order)
    with pytest.raises(ValueError, match="unknown field 'Z'"):
        flow(M, "Z", p, [zero, zero])
    for field in ("L", "Lbar"):  # CR flows take m = 2 times
        with pytest.raises(ValueError, match="2 time components"):
            flow(M, field, p, [zero])
        with pytest.raises(ValueError, match="2 time components"):
            flow(M, field, p, [zero] * 3)
    for field in ("Ups", "UpsBar"):  # transversal flows take d = 1
        with pytest.raises(ValueError, match="1 time components"):
            flow(M, field, p, [zero, zero])
        with pytest.raises(ValueError, match="1 time components"):
            flow(M, field, p, [])


def _flow_reference(M, field, p, time):
    """The four branches `_flow` ran before it read the family table."""
    m, d = M.m, M.d
    z, w, zeta, xi = p[:m], p[m:m + d], p[m + d:2 * m + d], p[2 * m + d:]
    time = list(time)
    if field == "L":
        nz = [a + b for a, b in zip(z, time)]
        nw = [M.theta_bar[j].compose(nz + list(zeta) + list(xi))
              for j in range(d)]
        return nz + nw + list(zeta) + list(xi)
    if field == "Lbar":
        nzeta = [a + b for a, b in zip(zeta, time)]
        nxi = [M.theta[j].compose(nzeta + list(z) + list(w))
               for j in range(d)]
        return list(z) + list(w) + nzeta + nxi
    if field == "Ups":
        nw = [a + b for a, b in zip(w, time)]
        nxi = [M.theta[j].compose(list(zeta) + list(z) + nw)
               for j in range(d)]
        return list(z) + nw + list(zeta) + nxi
    assert field == "UpsBar"
    nxi = [a + b for a, b in zip(xi, time)]
    nw = [M.theta_bar[j].compose(list(z) + list(zeta) + nxi)
          for j in range(d)]
    return list(z) + nw + list(zeta) + nxi


@pytest.mark.parametrize("seed, m, d", [(0, 1, 1), (1, 2, 1), (2, 1, 2)])
def test_flows_match_reference_branches(seed, m, d):
    M = complexify_and_graph(random_real_system(seed, m, d, 5))
    rng = random.Random(seed)
    ctx = VariableContext(("s1", "s2", "s3"))

    def times(k):
        return [random_series(ctx, M.order, rng, degree=2, min_degree=1,
                              density=0.5) for _ in range(k)]

    # a point off the origin, on M by construction
    p = origin_point(M, ctx)
    for field, k in (("Lbar", m), ("L", m), ("UpsBar", d)):
        p = _flow_reference(M, field, p, times(k))
    assert any(c for c in p[:M.n]) and any(c for c in p[M.n:])
    for field, k in (("L", m), ("Lbar", m), ("Ups", d), ("UpsBar", d)):
        t = times(k)
        got = flow(M, field, p, t)
        want = _flow_reference(M, field, p, t)
        assert got == want  # context and order included
        check_on_manifold(M, got)


def test_chain_values():
    M = make_heisenberg()
    g2 = chain(M, 2, "barred")
    assert [str(c) for c in g2.components] == \
        ["z2_1", "i*z1_1*z2_1", "z1_1", "0"]
    g3 = chain(M, 3, "unbarred")
    assert [str(c) for c in g3.components] == \
        ["z3_1 + z1_1", "i*z2_1*z3_1", "z2_1", "-i*z1_1*z2_1"]


def test_chain_invariants():
    for M in (make_heisenberg(order=6), make_z2zb2(order=6)):
        for side in ("barred", "unbarred"):
            for k in range(1, 6):
                g = chain(M, k, side)
                assert all(not c.constant_term() for c in g.components)
                assert g.on_manifold_defect() is None
        for k in range(2, 6):
            g = chain(M, k, "barred")
            assert g.restricted_to_shorter(k - 1).components == \
                chain(M, k - 1, "barred").components


def _chain_reference(M, k, start_side):
    """The from-origin loop `_chains` replaced: the chain of length k
    rebuilt from the origin with k checked flows."""
    ctx = VariableContext(chain_time_names(M.m, k))
    p = origin_point(M, ctx)
    for j in range(1, k + 1):
        time = [TruncatedSeries.variable(ctx, M.order, "z%d_%d" % (j, i))
                for i in range(1, M.m + 1)]
        barred_step = (j % 2 == 1) == (start_side == "barred")
        p = flow(M, "Lbar" if barred_step else "L", p, time)
    return p


def test_chain_builder_matches_reference():
    # Seeds 0, 1, 2 are the (1,1), (2,1) and (1,2) shapes.
    for seed in (0, 1, 2):
        M = random_minimal_manifold(seed)
        kmax = M.d + 2
        for side in ("barred", "unbarred"):
            built = list(_chains(M, kmax, side, DEFAULT_CHAIN_BUDGET))
            assert [g.k for g in built] == list(range(1, kmax + 1))
            for g in built:
                ref = _chain_reference(M, g.k, side)
                assert g.context == ref[0].context
                assert g.order == M.order
                assert list(g.components.components) == ref
                assert list(chain(M, g.k, side).components.components) == ref


def test_chain_builder_checks_before_work(monkeypatch):
    M = make_heisenberg()  # m = 1, order 8: 45 monomials in 2 times, 165 in 3
    assert chain(M, 2, budget=100).k == 2
    flows = []
    monkeypatch.setattr(segre, "_flow", lambda *args: flows.append(args))
    with pytest.raises(SeriesError, match="3 time variables"):
        chain(M, 3, budget=100)
    with pytest.raises(ValueError):
        chain(M, 0)
    with pytest.raises(ValueError):
        chain(M, 2, "sideways")
    assert not flows


def test_minimality_reports_unchanged():
    # The reports the from-origin chains with a Bareiss rank at every k
    # gave.  Seed 7 is the (2,1) truncated-chain-rank case (rank 6 > 2m+d).
    cases = [
        (make_heisenberg(), None, True, 2,
         [(1, 1), (2, 2), (3, 3), (3, 3), (3, 3)], 5, 8,
         ["1", "9", "0", "-9", "-1"]),
        (make_flat(), None, False, None,
         [(1, 1), (2, 2), (2, 2), (2, 2), (2, 2)], 5, 8, None),
        (random_minimal_manifold(7), None, False, None,
         [(2, 2), (4, 4), (6, 6), (6, 6), (6, 6)], 5, 6, None),
        (random_minimal_manifold(7), 3, False, None,
         [(2, 2), (4, 4), (6, 6)], 3, 6, None),
        # The loop stops at k = 5; chains of length 22 and more would be
        # over the budget, and none of them is built.
        (make_heisenberg(), 30, True, 2,
         [(1, 1), (2, 2), (3, 3), (3, 3), (3, 3)], 30, 8,
         ["1", "9", "0", "-9", "-1"]),
    ]
    for M, kmax, minimal, nu0, ranks, want_kmax, order, witness in cases:
        rep = minimality(M, kmax=kmax)
        assert (rep.minimal, rep.nu0, rep.kmax, rep.order, rep.conclusive) \
            == (minimal, nu0, want_kmax, order, True)
        assert rep.ranks == dict(enumerate(ranks, 1))
        got = (None if rep.mu0_witness is None
               else [str(c) for c in rep.mu0_witness])
        assert got == witness


def _ranks_reference(M, kmax=None, seed=0):
    """(nu0, ranks) as `minimality` had them when it ranked every chain up
    to the one of length 2 nu0 + 1."""
    kmax = 2 * (M.d + 1) + 1 if kmax is None else kmax
    full = 2 * M.m + M.d
    ranks, nu0 = {}, None
    for gb in _chains(M, kmax, "barred", DEFAULT_CHAIN_BUDGET):
        r = generic_rank(gb.components, seed=seed)
        ranks[gb.k] = (r, r)
        if nu0 is None and r == full:
            nu0 = gb.k - 1
        if nu0 is not None and gb.k >= 2 * nu0 + 1:
            break
    return nu0, ranks


def test_minimality_ranks_match_every_chain_ranked():
    # Ranked in full, a chain past nu0 may read above 2m+d (seeds 0, 1 and
    # 3 do, at k = 4 and 5): there the report now reads 2m+d, and
    # everywhere else it is unchanged.  Seeds 2 and 5 are left out by cost:
    # ranking their chains past nu0 takes seconds.  Seed 7 jumps past 2m+d
    # and never reaches nu0, so all its chains are still ranked.
    manifolds = [make_heisenberg(order=6), make_z2zb2(order=6),
                 make_flat(order=6), make_flat(order=6, m=2),
                 make_sphere3(order=6), quadric_pair(order=6)[0]]
    manifolds += [random_minimal_manifold(seed) for seed in (0, 1, 3, 4, 7)]
    above = 0
    for M in manifolds:
        full = 2 * M.m + M.d
        rep = minimality(M)
        nu0, ranks = _ranks_reference(M)
        assert rep.nu0 == nu0 and list(rep.ranks) == list(ranks)
        for k, r in ranks.items():
            if nu0 is not None and k > nu0 + 1:
                assert r[0] >= full and rep.ranks[k] == (full, full)
                above += r[0] > full
            else:
                assert rep.ranks[k] == r
    assert above == 6


def test_minimality_ranks_no_chain_past_nu0(monkeypatch):
    ranked = []
    rank = segre.generic_rank

    def spy(F, seed=0):
        ranked.append(F)
        return rank(F, seed=seed)

    monkeypatch.setattr(segre, "generic_rank", spy)
    # seed 2 at the default kmax is the (1,2) case that took seconds in
    # Bareiss when its chains past nu0 were ranked
    for M in (make_heisenberg(order=6), random_minimal_manifold(2),
              random_minimal_manifold(4), quadric_pair(order=6)[0]):
        ranked.clear()
        rep = minimality(M)
        full = 2 * M.m + M.d
        assert rep.minimal and len(ranked) == rep.nu0 + 1
        assert max(rep.ranks) == 2 * rep.nu0 + 1
        assert all(rep.ranks[k] == (full, full)
                   for k in range(rep.nu0 + 1, 2 * rep.nu0 + 2))


def test_chain_symmetry():
    # seeds 1 and 2 are the (2,1) and (1,2) shapes, with n = 3
    for M in (make_heisenberg(order=6), make_z2zb2(order=6),
              random_minimal_manifold(1), random_minimal_manifold(2)):
        for k in (1, 2, 3, 4):
            assert conjugate_chain_symmetry_defect(M, k) is None


def test_projection_simplification():
    # pi_t(Gammabar_{2nu+1}) == pi_t(Gammabar_{2nu}) as series
    M = make_heisenberg(order=6)
    rep = minimality(M)
    nu0 = rep.nu0
    g_odd = chain(M, 2 * nu0 + 1, "barred")
    g_even = chain(M, 2 * nu0, "barred")
    long_ctx = g_odd.context
    for a, b in zip(_t_components(g_odd), _t_components(g_even)):
        assert a == b.remapped(long_ctx)


def test_minimality_heisenberg():
    rep = minimality(make_heisenberg())
    assert rep.minimal and rep.conclusive
    assert rep.nu0 == 2 and rep.nu0 <= 1 + 1 + 0 + 1  # d+1 bound: nu0 <= 2
    assert rep.nu0 <= 2
    assert rep.mu0_witness is not None
    assert rep.ranks[3] == (3, 3)


def test_minimality_flat_negative():
    rep = minimality(make_flat())
    assert not rep.minimal and rep.conclusive
    assert all(r == (2, 2) for k, r in rep.ranks.items() if k >= 2)


def test_minimality_z2zb2():
    rep = minimality(make_z2zb2())
    assert rep.minimal and rep.nu0 <= 2


def test_minimality_random_manifolds():
    # kmax = d+2 already decides minimality (the type is at most d+1)
    for seed in range(4):
        M = random_minimal_manifold(seed)
        rep = minimality(M, kmax=M.d + 2)
        assert rep.minimal
        assert rep.nu0 <= M.d + 1
        ranks = [rep.ranks[k][0] for k in sorted(rep.ranks)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        assert max(ranks) <= 2 * M.m + M.d


def test_segre_jet_map_heisenberg():
    M = make_heisenberg()
    ph1 = segre_jet_map(M, 1)
    assert [str(c) for c in ph1.components] == \
        ["zeta1", "w1 - i*zeta1*z1", "-i*z1"]


def test_segre_jet_map_flat():
    M = make_flat()
    ph2 = segre_jet_map(M, 2)
    strs = [str(c) for c in ph2.components]
    assert strs[0] == "zeta1" and strs[1] == "w1"
    assert all(s == "0" for s in strs[2:])


def test_segre_jet_projection_compatibility():
    M = random_minimal_manifold(7)
    ph2 = segre_jet_map(M, 2)
    ph1 = segre_jet_map(M, 1)
    proj = _project(ph2, 1)
    assert proj.components == ph1.components.truncated(proj.components.order)


def test_segre_jet_component_count():
    M = make_z2zb2()
    ph3 = segre_jet_map(M, 3)
    assert len(ph3.components) == M.m + M.d * 4  # C(1+3,3) = 4


def test_chain_parities_share_generic_rank():
    # minimality ranks only the barred chain.  Seed 7 is a (2,1) manifold
    # whose order-6 chain of length 3 has rank 6 > 2m+d: the truncated
    # chain rank defect, where the parities must agree all the same.
    manifolds = [make_heisenberg(order=6), make_z2zb2(order=6)]
    manifolds += [random_minimal_manifold(seed) for seed in (0, 2, 7)]
    for M in manifolds:
        for k in range(1, M.d + 3):
            barred, unbarred = (generic_rank(chain(M, k, side).components)
                                for side in ("barred", "unbarred"))
            assert barred == unbarred
    assert generic_rank(chain(manifolds[-1], 3, "barred").components) == 6
