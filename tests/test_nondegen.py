"""Nondegeneracy ladders, degeneracy fields, degenerate self-maps."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cr_fields, derivation_words, echelon_reference,
                      kernel_basis_reference, make_ex121, make_flat,
                      make_heisenberg, make_sphere3, make_z2zb2, quadric_pair,
                      random_coeff, random_series, seeded_maps)
from crreflect.context import VariableContext, multidegrees
from crreflect import nondegen, reflection
from crreflect.gaussian import ZERO
from crreflect.linalg import generic_rank, rank_at_origin, symbolic_rank
from crreflect.manifold import GraphedManifold
from crreflect.nondegen import (FAILS, HOLDS, INCONCLUSIVE,
                                ManifoldClassification, MapClassification,
                                Verdict, classify_manifold, classify_map_cr,
                                degenerate_selfmap_generator,
                                holomorphic_degeneracy_field,
                                ideal_contains_power_of_maximal,
                                psi_and_h_conditions, psi_table)
from crreflect.reflection import (FormalCRMap, ReflectionError, _power_cache,
                                  resolve_finitely_nondeg,
                                  target_component_tables,
                                  verify_formal_cr_map)
from crreflect.segre import segre_jet_map
from crreflect.series import (SeriesError, SeriesMap, TruncatedSeries,
                              mul_precise)


def tvar(ctx, name, order=8):
    return TruncatedSeries.variable(ctx, order, name)


def identity_on(M, Mp):
    ctx_t = VariableContext(M.names.t)
    return FormalCRMap(SeriesMap.identity(ctx_t, M.order), M, Mp)


# -- the finite-map certificate ---------------------------------------------------


def test_ideal_membership_basics():
    ctx = VariableContext(("x", "y"))
    x, y = tvar(ctx, "x", 6), tvar(ctx, "y", 6)
    assert ideal_contains_power_of_maximal([x, y], 3) == 1
    assert ideal_contains_power_of_maximal([x * x, y], 4) == 2
    assert ideal_contains_power_of_maximal([x], 4) is None
    assert ideal_contains_power_of_maximal([x + y * y, y * y * y], 4) == 3


def _negative_dmax_cases():
    Mq = make_ex121(order=5)
    ctx = VariableContext(("x", "y"))
    gens = [tvar(ctx, "x", 6), tvar(ctx, "y", 6)]
    h = identity_on(make_heisenberg(order=5),
                    make_heisenberg(order=5, primed=True))
    return [
        ("classify_manifold", SeriesError,
         lambda d: classify_manifold(Mq, kmax=3, dmax=d),
         lambda cls: cls.nd5.status == FAILS),
        ("holomorphic_degeneracy_field", SeriesError,
         lambda d: holomorphic_degeneracy_field(Mq, d),
         lambda field: field is not None),
        ("ideal_contains_power_of_maximal", SeriesError,
         lambda d: ideal_contains_power_of_maximal(gens, d),
         lambda D: D == 1),
        ("classify_map_cr", SeriesError,
         lambda d: classify_map_cr(h, dmax=d),
         lambda cls: cls.cr5.status == HOLDS),
    ]


NEGATIVE_DMAX = _negative_dmax_cases()


@pytest.mark.parametrize("label, error, call, decided", NEGATIVE_DMAX,
                         ids=[c[0] for c in NEGATIVE_DMAX])
def test_negative_dmax_is_rejected(label, error, call, decided):
    # a negative degree bound searches no degree: it used to read as
    # `inconclusive` or None, where dmax = 4 decides, or (classify_map_cr)
    # to raise only after cr1..cr4 had run
    with pytest.raises(error, match="dmax must be non-negative"):
        call(-1)
    assert decided(call(4))


def test_ideal_membership_stays_within_precision():
    # as polynomials, (-y + y^2 - x^2, -y^2) contains m^4 and
    # (-y + y^2 - x^2, -y^2 + x^4) does not; the two pairs agree to order 2,
    # so neither order-2 truncation may be certified past degree 2
    ctx = VariableContext(("x", "y"))
    found = {}
    for order in (2, 6):
        x, y = tvar(ctx, "x", order), tvar(ctx, "y", order)
        first = -y + y * y - x * x
        found[order] = [ideal_contains_power_of_maximal([first, second], 4)
                        for second in (-y * y, -y * y + x ** 4)]
    assert found == {2: [None, None], 6: [4, None]}


# -- manifold ladder ----------------------------------------------------------------


def test_heisenberg_all_conditions_hold():
    cls = classify_manifold(make_heisenberg(primed=True), kmax=3)
    assert all(v.status == HOLDS for v in cls.chain)
    assert cls.nd1.k0 == 1 and cls.nd2.k0 == 1
    assert cls.chain_consistent()


def test_ex121_degenerate():
    cls = classify_manifold(make_ex121(), kmax=3)
    assert cls.nd1.status == FAILS
    assert cls.nd2.status == FAILS
    assert cls.nd4.status == FAILS
    assert cls.nd5.status == FAILS
    field = cls.nd5.witness
    # proportional to d/dz2'
    assert field[0].is_zero() and field[2].is_zero() and field[1]
    assert cls.chain_consistent()


def test_z2zb2_ladder():
    cls = classify_manifold(make_z2zb2(primed=True), kmax=3)
    assert cls.nd1.status == FAILS
    assert cls.nd2.status == FAILS
    assert cls.nd3.status == HOLDS
    assert cls.nd5.status == HOLDS
    assert cls.chain_consistent()


def test_flat_fully_degenerate():
    cls = classify_manifold(make_flat(primed=True), kmax=3)
    assert cls.nd4.status == FAILS and cls.nd5.status == FAILS
    field = cls.nd5.witness
    assert field is not None and field[0]


def test_nd5_routes_agree():
    # generic-rank route and tangent-field route never contradict
    for maker in (make_heisenberg, make_z2zb2, make_ex121, make_flat):
        Mp = maker(primed=True) if maker is not make_ex121 else maker()
        cls = classify_manifold(Mp, kmax=3)
        field = holomorphic_degeneracy_field(Mp, 4)
        if cls.nd5.status == HOLDS:
            assert field is None
        if field is not None:
            assert cls.nd5.status in (FAILS, INCONCLUSIVE)


def test_degeneracy_field_heisenberg_none():
    assert holomorphic_degeneracy_field(make_heisenberg(), 4) is None


def test_component_determinant_criterion_matches_field():
    # the t'-Jacobian of the component family has full generic rank exactly
    # when no holomorphic tangent field exists (at the working bounds)
    from crreflect.linalg import symbolic_rank
    from crreflect.reflection import target_component_tables
    for maker, primed in ((make_heisenberg, True), (make_sphere3, True),
                          (make_z2zb2, True), (make_flat, True)):
        Mp = maker(primed=primed)
        table, _ = target_component_tables(Mp)
        ctx_tp = VariableContext(Mp.names.t)
        rows = []
        for jp in range(Mp.d):
            for gamma, s in sorted(table[jp].items()):
                if s.order < 1:
                    continue
                rows.append([s.derive(i) for i in range(Mp.n)])
        rank = symbolic_rank(rows)
        field = holomorphic_degeneracy_field(Mp, 4)
        assert (rank == Mp.n) == (field is None)
    Mp = make_ex121()
    table, _ = target_component_tables(Mp)
    rows = []
    for jp in range(Mp.d):
        for gamma, s in sorted(table[jp].items()):
            if s.order < 1:
                continue
            rows.append([s.derive(i) for i in range(Mp.n)])
    assert symbolic_rank(rows) < Mp.n
    assert holomorphic_degeneracy_field(Mp, 4) is not None


def test_degeneracy_field_is_tangent():
    Mp = make_ex121()
    field = holomorphic_degeneracy_field(Mp, 4)
    ctx = Mp.ctx_theta
    t_idx = [ctx.index(n) for n in Mp.names.t]
    total = None
    emb = [c.remapped(ctx) for c in field.components]
    for i in range(Mp.n):
        piece = Mp.theta[0].derive(t_idx[i]) * emb[i].truncated(Mp.order - 1)
        total = piece if total is None else total + piece
    assert total.is_zero()


# -- CR-horizontal ladder -------------------------------------------------------------


def test_identity_cr_ladder():
    M = make_heisenberg()
    Mp = make_heisenberg(primed=True)
    cls = classify_map_cr(identity_on(M, Mp))
    assert all(v.status == HOLDS for v in cls.cr_chain)
    assert cls.cr_chain_consistent()


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cr3_bound_is_the_degree_searched(order):
    # The default dmax of 4 is above these orders.  The finite-map
    # certificate searches degrees up to the horizontal part's order, and
    # cr3 records that degree as its bound, as cr5 does.
    M = make_heisenberg(order=order)
    h = identity_on(M, make_heisenberg(order=order, primed=True))
    for dmax, searched in ((4, order), (order - 1, order - 1)):
        cls = classify_map_cr(h, dmax=dmax)
        assert (cls.cr3.k0, cls.cr3.bound) == ((1 if searched else None),
                                               searched)
        assert cls.cr3.status == (HOLDS if searched else INCONCLUSIVE)
        assert cls.cr5.bound == searched
        assert cls.cr_chain_consistent()


def test_square_map_cr_ladder():
    # horizontal part z -> z^2: cr1 fails, cr4 holds
    M = make_heisenberg()
    Mp = make_flat(primed=True)
    ctx_t = VariableContext(M.names.t)
    z = tvar(ctx_t, "z1")
    zero = TruncatedSeries.zero(ctx_t, 8)
    h = FormalCRMap(SeriesMap([z * z, zero]), M, Mp)
    cls = classify_map_cr(h)
    assert cls.cr1.status == FAILS
    assert cls.cr2.status == FAILS
    assert cls.cr3.status == HOLDS
    assert cls.cr4.status == HOLDS
    assert cls.cr5.status == HOLDS
    assert cls.cr_chain_consistent()


def test_collapsed_map_fails_cr5():
    Ms = make_ex121(primed=False)
    Mp = make_ex121(primed=True)
    ctx_t = VariableContext(Ms.names.t)
    z1, w = tvar(ctx_t, "z1"), tvar(ctx_t, "w1")
    h = FormalCRMap(SeriesMap([z1, z1, w]), Ms, Mp)
    cls = classify_map_cr(h)
    assert cls.cr5.status == FAILS
    assert cls.cr5.witness
    assert cls.cr4.status == FAILS  # horizontal (z1, z1) has rank 1 < 2
    assert cls.cr_chain_consistent()


def test_non_cr_map_rejected():
    M = make_heisenberg()
    Mp = make_heisenberg(primed=True)
    ctx_t = VariableContext(M.names.t)
    z, w = tvar(ctx_t, "z1"), tvar(ctx_t, "w1")
    with pytest.raises(ReflectionError):
        classify_map_cr(FormalCRMap(SeriesMap([z, w + z * z]), M, Mp))
    h = FormalCRMap(SeriesMap([z, w + z * z]), M, Mp)
    with pytest.raises(ReflectionError, match="not CR"):
        resolve_finitely_nondeg(h)
    with pytest.raises(ReflectionError, match="not CR"):
        classify_map_cr(h)


def test_cr_report_is_computed_once(monkeypatch):
    calls = []
    verify = reflection.verify_formal_cr_map
    monkeypatch.setattr(reflection, "verify_formal_cr_map",
                        lambda h: calls.append(h) or verify(h))
    M = make_heisenberg(order=5)
    h = identity_on(M, make_heisenberg(order=5, primed=True))
    classify_map_cr(h)
    resolve_finitely_nondeg(h)
    assert h.cr_report is h.cr_report and h.cr_report.ok
    assert calls == [h]
    # the kept report is the one `verify_formal_cr_map` computes
    assert h.cr_report.entries == verify(h).entries


# -- psi table and h-conditions --------------------------------------------------------


def test_identity_h_ladder():
    M = make_heisenberg()
    Mp = make_heisenberg(primed=True)
    cls = psi_and_h_conditions(identity_on(M, Mp), kmax=2)
    assert cls.h1.status == HOLDS and cls.ell0 == 1
    assert cls.h2.status == HOLDS
    assert cls.h3.status == HOLDS
    assert cls.h4.status == HOLDS


def test_degenerate_direction_fails_h2():
    Ms = make_ex121(primed=False)
    Mp = make_ex121(primed=True)
    ctx_t = VariableContext(Ms.names.t)
    z1, z2, w = (tvar(ctx_t, n) for n in ("z1", "z2", "w1"))
    h = FormalCRMap(SeriesMap([z1, z2 + 4 * z2 * z2, w]), Ms, Mp)
    cls = psi_and_h_conditions(h, kmax=3)
    assert cls.h1.status == FAILS
    assert cls.h2.status == FAILS  # psi'_k never sees the t2' direction
    assert cls.ell0 is None


def _dilation(M, Mp, order=8):
    """The CR dilation (2z, 4w) of a hypersurface w = conj(w) + i<z, z>."""
    ctx_t = VariableContext(M.names.t)
    comps = [tvar(ctx_t, n, order) for n in M.names.t]
    return FormalCRMap(SeriesMap([2 * c for c in comps[:-1]]
                                 + [4 * comps[-1]]), M, Mp)


def test_psi_vanishes_on_graph_of_cr_map():
    # Psi'_{j',beta}(t, tau, h(t)) restricted to the manifold is zero, for
    # the identity and dilations
    heis, heis_p = make_heisenberg(), make_heisenberg(primed=True)
    sph, sph_p = make_sphere3(order=6), make_sphere3(order=6, primed=True)
    for h in (identity_on(heis, heis_p), _dilation(heis, heis_p),
              _dilation(sph, sph_p, 6)):
        table = psi_table(h, beta_max=2)
        assert all(v.is_zero() for v in _psi_on_graph(h, table))


def _psi_on_graph(h, table):
    """Each entry of a Psi' table over (z, w, zeta, t') at t' = h(t)."""
    M = h.M
    ctx = M.ctx_restrict_xi
    args = [TruncatedSeries.variable(ctx, M.order, n)
            for n in ctx.names] + [c.remapped(ctx) for c in h.h.components]
    return [series.compose([a.truncated(series.order) for a in args])
            for series in table.values()]


def _on_side_xi(M, f, ctx):
    """A series over (z, w, zeta, xi, t') with xi := theta, over ctx =
    (z, w, zeta, t'): t' stays free."""
    values = {n: TruncatedSeries.variable(ctx, M.order, n) for n in ctx.names}
    values.update(zip(M.names.xi, M.solve("xi", values)))
    return f.compose([values[n] for n in f.context.names])


def _psi_table_reference(h, beta_max):
    """`psi_table` as a gamma'-sum: Lbar^beta gbar minus Lbar^beta[fbar^gamma']
    times Theta'_{j',gamma'}(t'), multiplied valuation-aware."""
    M, Mp = h.M, h.Mp
    ctxj = M.ctx_joint
    ctx_psi = VariableContext(ctxj.names + Mp.names.t)
    _, Lbar = cr_fields(M)
    fbar_emb = [c.remapped(ctxj) for c in h.fbar.components]
    gbar_emb = [c.remapped(ctxj) for c in h.gbar.components]
    fpow = _power_cache(fbar_emb, h.order)
    table, _ = target_component_tables(Mp)
    gammas = sorted({g for tab in table for g in tab},
                    key=lambda g: (sum(g), g))
    caches_f = {g: derivation_words(Lbar, fpow(g)) for g in gammas}
    caches_g = [derivation_words(Lbar, s) for s in gbar_emb]
    out = {}
    for beta in multidegrees(M.m, beta_max):
        room = h.order - sum(beta)
        for jp in range(h.dp):
            psi = caches_g[jp](beta).remapped(ctx_psi).truncated(room)
            for g, s in table[jp].items():
                term = mul_precise(caches_f[g](beta).remapped(ctx_psi),
                                   s.remapped(ctx_psi))
                psi = psi - term.truncated(room)
            out[(jp, tuple(beta))] = psi
    return out


SEEDED_MAPS = seeded_maps()


@pytest.mark.parametrize("label, h", SEEDED_MAPS,
                         ids=[c[0] for c in SEEDED_MAPS])
def test_psi_table_matches_reference(label, h):
    for beta_max in (0, 1, 2):
        got = psi_table(h, beta_max=beta_max)
        # the Lbar words over the joint context, put on side xi after
        ctx = VariableContext(h.M.ctx_restrict_xi.names + h.Mp.names.t)
        want = {key: _on_side_xi(h.M, s, ctx)
                for key, s in _psi_table_reference(h, beta_max).items()}
        # series equality compares the context and the order too
        assert list(got.items()) == list(want.items())
    cr = not label.endswith("non-cr")
    assert cr == all(v.is_zero() for v in _psi_on_graph(h, got))


def test_lbar_powers_match_expansion_coefficients():
    # [Lbar^beta fbar^gamma'](0) equals the Taylor data of the horizontal
    # power along the first conjugate chain
    M = make_heisenberg(order=6)
    Mp = make_heisenberg(order=6, primed=True)
    h = identity_on(M, Mp)
    _, Lbar = cr_fields(M)
    fbar_emb = [c.remapped(M.ctx_joint) for c in h.fbar.components]
    power = _power_cache(fbar_emb, 6)
    horiz = h.horizontal_part_bar()
    for gamma in [(0,), (1,), (2,), (3,)]:
        horiz_pow = SeriesMap([horiz[0] ** gamma[0]]) if gamma[0] else None
        cache = derivation_words(Lbar, power(gamma))
        for beta in [(0,), (1,), (2,)]:
            lhs = cache(beta).evaluate(
                [ZERO] * M.ctx_joint.arity)
            hp = horiz[0] ** gamma[0]
            rhs = hp.derive_multi(beta).constant_term()
            assert lhs == rhs


# -- degenerate self-maps ----------------------------------------------------------------


def test_translation_flow_selfmap():
    Mp = make_ex121()
    field = holomorphic_degeneracy_field(Mp, 4)
    ctx_tp = VariableContext(Mp.names.t)
    zp2 = tvar(ctx_tp, "zp2")
    gen = degenerate_selfmap_generator(Mp, field, zp2)
    # the field is a multiple of d/dz2': the flow is a shear in z2'
    assert gen.h[0] == tvar(ctx_tp, "zp1")
    assert gen.h[2] == tvar(ctx_tp, "wp1")
    assert verify_formal_cr_map(gen).ok


def test_zero_time_gives_identity():
    Mp = make_ex121()
    field = holomorphic_degeneracy_field(Mp, 4)
    ctx_tp = VariableContext(Mp.names.t)
    gen = degenerate_selfmap_generator(Mp, field,
                                       TruncatedSeries.zero(ctx_tp, 8))
    assert gen.h == SeriesMap.identity(ctx_tp, 8)


def test_random_times_always_cr():
    Mp = make_ex121()
    field = holomorphic_degeneracy_field(Mp, 4)
    for seed in range(5):
        gen = degenerate_selfmap_generator(Mp, field, None, seed=seed)
        assert verify_formal_cr_map(gen).ok


def _flowed_selfmap_cases():
    """(label, field, formal time) on ex121': the degeneracy field with a
    dense time, and two tangent fields whose flows are not translations."""
    Mp = make_ex121()
    ctx_tp = VariableContext(Mp.names.t)
    zp1, zp2, wp1 = (tvar(ctx_tp, n) for n in Mp.names.t)
    zero = TruncatedSeries.zero(ctx_tp, 8)
    dense = random_series(ctx_tp, 8, random.Random(11), min_degree=1,
                          density=0.9)
    fields = [("z2", SeriesMap([zero, zp2, zero])),
              ("quadratic", SeriesMap([zero, zp2 * zp2 + wp1 + zp1 * zp2,
                                       zero]))]
    return ([("degeneracy-dense", holomorphic_degeneracy_field(Mp, 4),
              dense)]
            + [("%s-%s" % (label, time), field, t)
               for label, field in fields
               for time, t in (("seeded", None), ("dense", dense))])


FLOWED_SELFMAPS = _flowed_selfmap_cases()


@pytest.mark.parametrize("label, field, varpi", FLOWED_SELFMAPS,
                         ids=[c[0] for c in FLOWED_SELFMAPS])
def test_flowed_selfmaps_are_cr(label, field, varpi):
    # the generator returns its map unchecked, CR by the flow theorem; the
    # CR check of the map is made here
    gen = degenerate_selfmap_generator(make_ex121(), field, varpi, seed=2)
    assert verify_formal_cr_map(gen).ok


def test_nontangent_field_rejected():
    Mp = make_heisenberg(primed=True)
    ctx_tp = VariableContext(Mp.names.t)
    bad = SeriesMap([tvar(ctx_tp, "zp1") * 0 + 1,
                     TruncatedSeries.zero(ctx_tp, 8)])
    with pytest.raises(ReflectionError):
        degenerate_selfmap_generator(Mp, bad, TruncatedSeries.zero(ctx_tp, 8))


# -- the sparse systems against the dense builders they replaced ---------------


def _ideal_contains_power_of_maximal_reference(generators, dmax):
    """One padded row per shifted generator, eliminated densely."""
    gens = [g - g.constant_term() for g in generators]
    gens = [g for g in gens if g]
    if not gens:
        return None
    arity = gens[0].context.arity
    for D in range(1, dmax + 1):
        monos = list(multidegrees(arity, D))
        index = {e: i for i, e in enumerate(monos)}
        rows = []
        for g in gens:
            v = g.valuation()
            if v is None or v > D:
                continue
            for mult in multidegrees(arity, D - v):
                vec = [ZERO] * len(monos)
                any_entry = False
                for e, c in g.terms.items():
                    shifted = tuple(a + b for a, b in zip(e, mult))
                    if sum(shifted) <= D:
                        vec[index[shifted]] = c
                        any_entry = True
                if any_entry:
                    rows.append(vec)
        if not rows:
            continue
        pivots, reduced = echelon_reference(rows)
        units = {col for col, row in zip(pivots, reduced)
                 if sum(map(bool, row)) == 1}
        if all(index[e] in units for e in monos if sum(e) == D):
            return D
    return None


def _holomorphic_degeneracy_field_reference(Mp, dmax):
    """One padded row per (j, exponent), a dense kernel."""
    ctx = Mp.ctx_theta
    N = Mp.order
    t_idx = [ctx.index(n) for n in Mp.names.t]
    partials = [[Mp.theta[j].derive(i) for i in t_idx] for j in range(Mp.d)]
    alphas = list(multidegrees(Mp.n, dmax))
    unknowns = [(i, a) for i in range(Mp.n) for a in alphas]
    rows = {}
    for j in range(Mp.d):
        for col, (i, a) in enumerate(unknowns):
            mono = TruncatedSeries.monomial(
                ctx, N - 1, (0,) * Mp.m + tuple(a))
            prod = partials[j][i] * mono
            for e, c in prod.terms.items():
                rows.setdefault((j, e), [ZERO] * len(unknowns))[col] = c
    matrix = [rows[k] for k in sorted(rows)]
    if not matrix:
        return None
    basis = kernel_basis_reference(matrix)
    if not basis:
        return None
    ctx_tp = VariableContext(Mp.names.t)
    comps = []
    for i in range(Mp.n):
        terms = {tuple(a): basis[0][col]
                 for col, (ci, a) in enumerate(unknowns)
                 if ci == i and basis[0][col]}
        comps.append(TruncatedSeries(ctx_tp, N, terms))
    return SeriesMap(comps)


def _target_manifolds():
    seeded = [h.Mp for label, h in SEEDED_MAPS if "non-cr" not in label]
    return seeded + [make_heisenberg(primed=True), make_z2zb2(primed=True),
                     make_ex121(), make_flat(primed=True),
                     make_flat(m=1, d=2, primed=True), quadric_pair()[1]]


@pytest.mark.parametrize("label, h", SEEDED_MAPS,
                         ids=[c[0] for c in SEEDED_MAPS])
def test_ideal_membership_matches_reference(label, h):
    horiz = h.horizontal_part().components
    for gens in (horiz, [g * g for g in horiz], horiz[:1]):
        for dmax in (1, 2, 4):
            assert (ideal_contains_power_of_maximal(gens, dmax)
                    == _ideal_contains_power_of_maximal_reference(gens, dmax))


def test_jet_map_ideals_match_reference():
    for Mp in _target_manifolds():
        for k in (1, 2):
            gens = segre_jet_map(Mp, k).components.components
            assert (ideal_contains_power_of_maximal(gens, 3)
                    == _ideal_contains_power_of_maximal_reference(gens, 3))


def _krull_generators(rng, n, order, k):
    """k generators over n variables: full-rank linear parts, their
    squares or random series, each shifted by a random constant."""
    ctx = VariableContext(tuple("x%d" % i for i in range(n)))
    shape = rng.choice(("linear", "square", "random"))
    gens = []
    for i in range(k):
        if shape == "random":
            g = random_series(ctx, order, rng, min_degree=1)
        else:
            g = tvar(ctx, "x%d" % (i % n), order) + random_series(
                ctx, order, rng, min_degree=2, density=0.3)
        if shape == "square":
            g = g * g
        gens.append(g + random_coeff(rng, small=True))
    return gens


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 4),
       order=st.integers(1, 4), excess=st.integers(-3, 1))
def test_ideal_search_needs_as_many_generators_as_variables(seed, n, order,
                                                            excess):
    # an ideal holding m^D is m-primary, so by Krull's height theorem it
    # needs n generators: with fewer nonconstant ones the reference
    # elimination finds no degree, and the search builds no row
    rng = random.Random(seed)
    gens = _krull_generators(rng, n, order, max(1, n + excess))
    nonconstant = sum(1 for g in gens if g - g.constant_term())
    with pytest.MonkeyPatch.context() as mp:
        if nonconstant < n:
            mp.setattr(nondegen, "echelon",
                       lambda rows: pytest.fail("the search eliminated"))
        for dmax in range(order + 1):
            want = _ideal_contains_power_of_maximal_reference(gens, dmax)
            assert ideal_contains_power_of_maximal(gens, dmax) == want
            if nonconstant < n:
                assert want is None


def test_degeneracy_field_matches_reference():
    for Mp in _target_manifolds():
        for dmax in (1, 2):
            got = holomorphic_degeneracy_field(Mp, dmax)
            want = _holomorphic_degeneracy_field_reference(Mp, dmax)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.components == want.components


# -- the ladders against the per-rung loops they replaced ---------------------


def _classify_manifold_reference(Mp, kmax=None, dmax=4, seed=0):
    """`classify_manifold` with every jet map built up front, one loop per
    rung and nd1 ranked on its own."""
    if kmax is None:
        kmax = min(Mp.order, 4)
    if kmax < 1:
        raise SeriesError("kmax must be at least 1")
    if kmax > Mp.order:
        raise SeriesError("kmax exceeds the truncation order")
    full = Mp.m + Mp.n
    jet_maps = {k: segre_jet_map(Mp, k) for k in range(1, kmax + 1)}
    r1 = rank_at_origin(jet_maps[1].components)
    nd1 = Verdict(HOLDS if r1 == full else FAILS, k0=1 if r1 == full else None,
                  bound=1)
    nd2 = Verdict(FAILS, bound=kmax)
    for k in range(1, kmax + 1):
        if rank_at_origin(jet_maps[k].components) == full:
            nd2 = Verdict(HOLDS, k0=k, bound=kmax)
            break
    nd3 = Verdict(INCONCLUSIVE, bound=(kmax, dmax))
    for k in range(1, kmax + 1):
        D = ideal_contains_power_of_maximal(
            jet_maps[k].components.components, dmax)
        if D is not None:
            nd3 = Verdict(HOLDS, k0=k, bound=(kmax, D))
            break
    nd4 = Verdict(FAILS, bound=kmax)
    for k in range(1, kmax + 1):
        leaf_map = Mp.restrict(jet_maps[k].components, "leaf")
        if generic_rank(leaf_map, seed=seed) == Mp.m:
            nd4 = Verdict(HOLDS, k0=k, bound=kmax)
            break
    nd5 = Verdict(INCONCLUSIVE, bound=kmax)
    for k in range(1, kmax + 1):
        if generic_rank(jet_maps[k].components, seed=seed) == full:
            nd5 = Verdict(HOLDS, k0=k, bound=kmax)
            break
    if nd5.status != HOLDS:
        field = holomorphic_degeneracy_field(Mp, dmax)
        if field is not None:
            nd5 = Verdict(FAILS, bound=(kmax, dmax), witness=field)
    cls = ManifoldClassification(nd1, nd2, nd3, nd4, nd5, kmax, dmax, Mp.order)
    if not cls.chain_consistent():
        raise AssertionError("nondegeneracy chain violated: %r" % cls)
    return cls


def _psi_and_h_reference(h, kmax=2, seed=0):
    """`psi_and_h_conditions` with one loop per rung and h1 ranked on its
    own."""
    M, Mp = h.M, h.Mp
    if kmax < 1:
        raise SeriesError("kmax must be at least 1")
    if kmax > h.order:
        raise SeriesError("kmax exceeds the truncation order")
    table = psi_table(h, beta_max=kmax)
    ctx_xi = M.ctx_restrict_xi
    ctx_psi = VariableContext(ctx_xi.names + Mp.names.t)
    ctx_tp = VariableContext(Mp.names.t)
    zero = TruncatedSeries.zero(ctx_tp, h.order)
    base_zero = {n: zero for n in ctx_xi.names}
    psi0 = {key: s.substitute(base_zero, ctx_tp) for key, s in table.items()}

    def psi_k_rank(k):
        comps = [s for (jp, beta), s in sorted(psi0.items())
                 if sum(beta) <= k]
        order = min(c.order for c in comps)
        return rank_at_origin(SeriesMap([c.truncated(order) for c in comps]))

    np_ = h.np
    r1 = psi_k_rank(1) if kmax >= 1 else None
    h1 = Verdict(HOLDS if r1 == np_ else FAILS, bound=1)
    h2 = Verdict(FAILS, bound=kmax)
    ell0 = None
    for k in range(1, kmax + 1):
        if psi_k_rank(k) == np_:
            ell0 = k
            h2 = Verdict(HOLDS, k0=k, bound=kmax)
            break
    h3 = Verdict(INCONCLUSIVE, bound=kmax)
    for k in range(1, kmax + 1):
        gens = [s for (jp, beta), s in sorted(psi0.items()) if sum(beta) <= k]
        D = ideal_contains_power_of_maximal(gens, dmax=min(h.order, 4))
        if D is not None:
            h3 = Verdict(HOLDS, k0=k, bound=(kmax, D))
            break
    h_on = dict(zip(Mp.names.t, M.restrict(h.h, "leaf").components))
    tp_idx = [ctx_psi.index(n) for n in Mp.names.t]
    rows = [[M.restrict(table[key].derive(i), "leaf", h_on) for i in tp_idx]
            for key in sorted(table)]
    r4 = symbolic_rank(rows, seed=seed)
    h4 = Verdict(HOLDS if r4 == np_ else FAILS, bound=kmax)
    return MapClassification(None, None, None, None, None,
                             h1, h2, h3, h4, ell0=ell0, mp=h.mp, m=M.m)


def _outcome(classify, ladder, *args, **kwargs):
    """(status, k0, bound, witness) of every rung, or the exception raised."""
    try:
        cls = classify(*args, **kwargs)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return [(v.status, v.k0, v.bound, v.witness) for v in ladder(cls)]


LADDER_ORDER = 4
LADDER_MANIFOLDS = [
    ("heisenberg", make_heisenberg(LADDER_ORDER, primed=True)),
    ("sphere3", make_sphere3(LADDER_ORDER, primed=True)),
    ("ex121", make_ex121(LADDER_ORDER)),
    ("z2zb2", make_z2zb2(LADDER_ORDER, primed=True)),
    ("flat", make_flat(LADDER_ORDER, primed=True)),
    ("flat12", make_flat(LADDER_ORDER, m=1, d=2, primed=True)),
    ("quadric-pair", quadric_pair(LADDER_ORDER)[1]),
]


@pytest.mark.parametrize("label, Mp", LADDER_MANIFOLDS,
                         ids=[c[0] for c in LADDER_MANIFOLDS])
def test_manifold_ladder_matches_reference(monkeypatch, label, Mp):
    for kmax in range(1, LADDER_ORDER):
        for dmax in range(5):
            got = _outcome(classify_manifold, lambda c: c.chain, Mp,
                           kmax=kmax, dmax=dmax)
            want = _outcome(_classify_manifold_reference, lambda c: c.chain,
                            Mp, kmax=kmax, dmax=dmax)
            assert got == want
            assert not isinstance(got, tuple)
    # nd2 of a Levi-degenerate manifold climbs to k = kmax, and a Segre jet
    # of order k = order has no precision left; so kmax = order is refused
    # on every manifold, before any jet map is built
    _assert_kmax_refused(monkeypatch, Mp, LADDER_ORDER)


def _assert_kmax_refused(monkeypatch, Mp, kmax):
    monkeypatch.setattr(nondegen, "segre_jet_map",
                        lambda *args: pytest.fail("a jet map was built"))
    with pytest.raises(SeriesError,
                       match=r"kmax \+ 1 exceeds the truncation order"):
        classify_manifold(Mp, kmax=kmax)


def test_ladders_reject_kmax_below_one():
    # a ladder searches k in 1..kmax; at kmax = 0 it used to read `fails`
    # on every searched rung without looking at any jet
    M, Mp = make_heisenberg(order=5), make_heisenberg(order=5, primed=True)
    for kmax in (0, -1):
        with pytest.raises(SeriesError, match="kmax must be at least 1"):
            classify_manifold(Mp, kmax=kmax)
        with pytest.raises(SeriesError, match="kmax must be at least 1"):
            psi_and_h_conditions(identity_on(M, Mp), kmax=kmax)
    assert classify_manifold(Mp, kmax=1).nd1.status == HOLDS
    assert psi_and_h_conditions(identity_on(M, Mp), kmax=1).h1.status == HOLDS


def test_flat_ladder_raises_at_the_parent(monkeypatch):
    # nd2 would reach k = 4, whose jet map has no precision left to rank
    _assert_kmax_refused(monkeypatch, make_flat(order=4), 4)


def _ladder_maps():
    M, Mp = make_heisenberg(order=5), make_heisenberg(order=5, primed=True)
    Ms, Mq = make_ex121(order=5, primed=False), make_ex121(order=5)
    ctx_t = VariableContext(Ms.names.t)
    z1, z2, w = (tvar(ctx_t, n, 5) for n in ("z1", "z2", "w1"))
    return SEEDED_MAPS + [
        ("heisenberg-identity", identity_on(M, Mp)),
        ("heisenberg-dilation", _dilation(M, Mp, order=5)),
        ("ex121-shear", FormalCRMap(SeriesMap([z1, z2 + 4 * z2 * z2, w]),
                                    Ms, Mq)),
        ("ex121-collapse", FormalCRMap(SeriesMap([z1, z1, w]), Ms, Mq))]


LADDER_MAPS = _ladder_maps()


@pytest.mark.parametrize("label, h", LADDER_MAPS,
                         ids=[c[0] for c in LADDER_MAPS])
def test_h_ladder_matches_reference(label, h):
    def ladder(cls):
        return [cls.h1, cls.h2, cls.h3, cls.h4, Verdict(cls.ell0)]
    for kmax in range(3):
        got = _outcome(psi_and_h_conditions, ladder, h, kmax=kmax)
        want = _outcome(_psi_and_h_reference, ladder, h, kmax=kmax)
        assert got == want


# -- rungs that a computed certificate decides --------------------------------


@pytest.mark.parametrize("Mp", [make_heisenberg(5, primed=True),
                                make_sphere3(5, primed=True)],
                         ids=["heisenberg", "sphere3"])
def test_nd5_is_read_off_nd2(monkeypatch, Mp):
    # nd5 ranks Segre jet maps, over (zeta', t'); nd4 ranks leaf maps
    calls = []
    rank = nondegen.generic_rank

    def spy(F, seed=0):
        if F.context == Mp.ctx_theta:
            calls.append(F)
        return rank(F, seed=seed)

    monkeypatch.setattr(nondegen, "generic_rank", spy)
    cls = classify_manifold(Mp, kmax=3)
    assert (cls.nd2.k0, cls.nd5.status, cls.nd5.k0) == (1, HOLDS, 1)
    assert calls == []


# the conftest targets whose nd2 first holds at k2 >= 2
PAST_LEVI = [(label, h.Mp) for label, h in SEEDED_MAPS
             if label in ("21-cr", "12-cr")]


@pytest.mark.parametrize("label, Mp", PAST_LEVI,
                         ids=[c[0] for c in PAST_LEVI])
def test_ladder_past_levi_matches_reference(label, Mp):
    assert classify_manifold(Mp, kmax=2, dmax=0).nd2.k0 == 2
    for kmax in (2, 3):
        for dmax in (0, 2, 4):
            got = _outcome(classify_manifold, lambda c: c.chain, Mp,
                           kmax=kmax, dmax=dmax)
            want = _outcome(_classify_manifold_reference, lambda c: c.chain,
                            Mp, kmax=kmax, dmax=dmax)
            assert got == want
            assert not isinstance(got, tuple)


def _h4_work(monkeypatch):
    """Spies on the h4 rung: its `symbolic_rank` calls and the sides of
    every `GraphedManifold.restrict`."""
    ranks, sides = [], []
    rank, restrict = nondegen.symbolic_rank, GraphedManifold.restrict
    monkeypatch.setattr(nondegen, "symbolic_rank", lambda rows, seed=0: (
        ranks.append(len(rows)) or rank(rows, seed=seed)))
    monkeypatch.setattr(GraphedManifold, "restrict",
                        lambda self, f, side, extra=None: (
                            sides.append(side)
                            or restrict(self, f, side, extra)))
    return ranks, sides


@pytest.mark.parametrize("make", [make_heisenberg, make_sphere3],
                         ids=["heisenberg", "sphere3"])
def test_h4_is_read_off_h2(monkeypatch, make):
    h = identity_on(make(order=5), make(order=5, primed=True))
    ranks, sides = _h4_work(monkeypatch)
    cls = psi_and_h_conditions(h, kmax=2)
    assert (cls.ell0, cls.h4.status) == (1, HOLDS)
    assert ranks == []
    assert "leaf" not in sides


def test_h4_is_ranked_without_h2(monkeypatch):
    Ms, Mp = make_ex121(order=5, primed=False), make_ex121(order=5)
    ctx_t = VariableContext(Ms.names.t)
    z1, z2, w = (tvar(ctx_t, n, 5) for n in ("z1", "z2", "w1"))
    h = FormalCRMap(SeriesMap([z1, z2 + 4 * z2 * z2, w]), Ms, Mp)
    want = _psi_and_h_reference(h, kmax=2)
    ranks, sides = _h4_work(monkeypatch)
    cls = psi_and_h_conditions(h, kmax=2)
    assert cls.ell0 is None
    assert cls.h4.status == want.h4.status
    assert len(ranks) == 1 and "leaf" in sides
