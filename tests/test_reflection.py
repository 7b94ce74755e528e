"""Reflection map machinery: verification, components, identity families,
Cramer jets, inversion, transport, resolution, transversality."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (LiftReference, _q_jbeta_cramer_reference, cr_fields,
                      derivation_words, kernel_basis_reference, make_ex121,
                      make_flat, make_heisenberg, make_sphere3, quadric_pair,
                      random_coeff, random_minimal_manifold, random_series,
                      seeded_maps, transversal_fields)
from crreflect import reflection
from crreflect.context import VariableContext, multidegrees, zero_exponent
from crreflect.gaussian import GaussianRational, I, ONE, ZERO, gr
from crreflect.linalg import kernel_basis, numeric_rank
from crreflect.manifold import GraphedManifold, JetSymbols, verify_reality
from crreflect.nondegen import (degenerate_selfmap_generator,
                                holomorphic_degeneracy_field, psi_table)
from crreflect.reflection import (FormalCRMap, ReflectionComponents,
                                  ReflectionError, Resolution, ResidualReport,
                                  _compose_components, _jet_constants,
                                  _multidegree_table, _power_cache,
                                  chain_pullback,
                                  composed_jet_table,
                                  forward_expansion, formal_cramer_solve,
                                  invert_expansion, q_jbeta_cramer,
                                  reflection_components,
                                  reflection_identities,
                                  resolve_finitely_nondeg,
                                  target_change_transport,
                                  target_component_tables, transform_target,
                                  transversality_kernel,
                                  verify_formal_cr_map)
from crreflect.segre import chain
from crreflect.series import (SeriesError, SeriesMap, TruncatedSeries,
                              factorial_multi, formal_ift, jacobian_at_zero,
                              mul_precise)


def tvar(ctx, name, order=8):
    return TruncatedSeries.variable(ctx, order, name)


def hmap(M, Mp, comps):
    return FormalCRMap(SeriesMap(comps), M, Mp)


def heis_pair(order=8):
    return make_heisenberg(order), make_heisenberg(order, primed=True)


def identity_on(M, Mp):
    ctx_t = VariableContext(M.names.t)
    return FormalCRMap(SeriesMap.identity(ctx_t, M.order), M, Mp)


# -- verification ----------------------------------------------------------------


def test_verify_identity_and_dilation():
    M, Mp = heis_pair()
    assert verify_formal_cr_map(identity_on(M, Mp)).ok
    ctx_t = VariableContext(M.names.t)
    z, w = tvar(ctx_t, "z1"), tvar(ctx_t, "w1")
    assert verify_formal_cr_map(hmap(M, Mp, [2 * z, 4 * w])).ok


def test_verify_non_cr_map_valuation():
    M, Mp = heis_pair()
    ctx_t = VariableContext(M.names.t)
    z, w = tvar(ctx_t, "z1"), tvar(ctx_t, "w1")
    rep = verify_formal_cr_map(hmap(M, Mp, [z, w + z * z]))
    assert not rep.ok
    assert rep.first_failure() == 2  # residual z^2 - zeta^2


# -- components ------------------------------------------------------------------


def test_components_identity():
    M, Mp = heis_pair()
    comps = reflection_components(identity_on(M, Mp))
    assert sorted(comps.table) == [(0,), (1,)]
    ctx_t = VariableContext(M.names.t)
    assert comps.table[(0,)][0] == tvar(ctx_t, "w1")
    assert comps.table[(1,)][0] == (-I * tvar(ctx_t, "z1")).truncated(7)
    assert comps.reassembly_defect() is None


def test_components_reject_gmax_outside_the_order():
    M, Mp = heis_pair()
    h = identity_on(M, Mp)
    for gmax in (-1, M.order + 1):
        with pytest.raises(SeriesError, match="gmax"):
            reflection_components(h, gmax=gmax)


def test_components_flat_target():
    M = make_flat()
    Mp = make_flat(primed=True)
    ctx_t = VariableContext(M.names.t)
    z, w = tvar(ctx_t, "z1"), tvar(ctx_t, "w1")
    h = hmap(M, Mp, [z, w])
    assert verify_formal_cr_map(h).ok
    comps = reflection_components(h)
    assert sorted(comps.table) == [(0,)]
    assert comps.table[(0,)][0] == w
    assert comps.reassembly_defect() is None


def test_components_independent_of_bad_component():
    Ms = make_ex121(primed=False)
    Mp = make_ex121(primed=True)
    ctx_t = VariableContext(Ms.names.t)
    z1, z2, w = (tvar(ctx_t, n) for n in ("z1", "z2", "w1"))
    tables = []
    for varpi in (z2 + 5 * z2 * z2, 2 * z2 - z1 * z1 * z2 + w * w):
        h = hmap(Ms, Mp, [z1, varpi, w])
        assert verify_formal_cr_map(h).ok
        comps = reflection_components(h, gmax=8)
        assert comps.reassembly_defect() is None
        tables.append({g: [s.terms for s in e]
                       for g, e in comps.table.items()})
    assert tables[0] == tables[1]
    assert sorted(tables[0]) == [(0, 0), (1, 0)]


# -- the four families -----------------------------------------------------------


def test_identity_families_vanish():
    M, Mp = heis_pair()
    rep = reflection_identities(identity_on(M, Mp), beta_max=3)
    assert rep.ok
    betas = {beta for (_, _, beta) in rep.entries}
    assert (0,) in betas and (3,) in betas


def test_beta_zero_family_matches_verify():
    M, Mp = heis_pair()
    ctx_t = VariableContext(M.names.t)
    z, w = tvar(ctx_t, "z1"), tvar(ctx_t, "w1")
    h = hmap(M, Mp, [z, w + z * z * z])
    fam = reflection_identities(h, beta_max=0)
    ver = verify_formal_cr_map(h)
    # family 2 at beta = 0 is the undifferentiated fundamental identity
    assert fam.first_failure(2) == ver.first_failure(3)


def test_family_equivalence_on_non_cr_maps():
    M, Mp = heis_pair()
    ctx_t = VariableContext(M.names.t)
    z, w = tvar(ctx_t, "z1"), tvar(ctx_t, "w1")
    rng = random.Random(2)
    for _ in range(4):
        pert = random_series(ctx_t, 8, rng, degree=3, min_degree=2,
                             density=0.4)
        h = hmap(M, Mp, [z, w + pert])
        rep = reflection_identities(h, beta_max=2)
        fams = {f: rep.family_ok(f) for f in (1, 2, 3, 4)}
        assert fams[1] == fams[2]
        assert fams[3] == fams[4]
        assert rep.first_failure(1) == rep.first_failure(3)
        assert rep.first_failure(2) == rep.first_failure(4)


# -- Cramer jet identities --------------------------------------------------------


def test_cramer_identity_heisenberg():
    M, Mp = heis_pair()
    table = q_jbeta_cramer(identity_on(M, Mp), beta_max=3)
    assert table.det_at_zero == ONE
    assert table.defects() == []


def test_cramer_beta_zero_is_fundamental_identity():
    M, Mp = heis_pair()
    table = q_jbeta_cramer(identity_on(M, Mp), beta_max=0)
    cramer, direct = table.entries[(0, (0,))]
    assert cramer == direct


def test_cramer_dilation_sphere3():
    M = make_sphere3()
    Mp = make_sphere3(primed=True)
    ctx_t = VariableContext(M.names.t)
    z1, z2, w = (tvar(ctx_t, n) for n in ("z1", "z2", "w1"))
    h = hmap(M, Mp, [2 * z1, 2 * z2, 4 * w])
    assert verify_formal_cr_map(h).ok
    table = q_jbeta_cramer(h, beta_max=3)
    assert bool(table.det_at_zero)
    assert table.defects() == []


def _cramer_maps():
    """(label, map): the invertible seeded maps, and three degenerate
    self-maps of ex121' from seeded formal times."""
    Mp = make_ex121()
    field = holomorphic_degeneracy_field(Mp, 4)
    return ([(label, h) for label, h in seeded_maps() if h.is_invertible()]
            + [("ex121-selfmap-%d" % seed,
                degenerate_selfmap_generator(Mp, field, None, seed=seed))
               for seed in range(3)])


CRAMER_MAPS = _cramer_maps()


@pytest.mark.parametrize("beta_max", range(4))
@pytest.mark.parametrize("label, h", CRAMER_MAPS,
                         ids=[c[0] for c in CRAMER_MAPS])
def test_q_jbeta_cramer_matches_reference(monkeypatch, label, h, beta_max):
    # Each level divides its numerators by det in one call, and no inverse
    # of det is formed; the table is the one of inverse-then-multiply.
    want = _q_jbeta_cramer_reference(h, beta_max)
    divisions = []
    plain = reflection.divide_with_valuation

    def spy(num, den):
        divisions.append(num)
        return plain(num, den)

    def refuse(self):
        raise AssertionError("q_jbeta_cramer inverted a series")

    monkeypatch.setattr(reflection, "divide_with_valuation", spy)
    monkeypatch.setattr(TruncatedSeries, "invert_unit", refuse)
    got = q_jbeta_cramer(h, beta_max)
    assert len(divisions) == beta_max
    assert got.det_at_zero == want.det_at_zero
    # series equality compares orders as well as terms
    assert list(got.entries.items()) == list(want.entries.items())


def test_cramer_needs_invertible():
    M, Mp = heis_pair()
    ctx_t = VariableContext(M.names.t)
    z, w = tvar(ctx_t, "z1"), tvar(ctx_t, "w1")
    with pytest.raises(ReflectionError):
        q_jbeta_cramer(hmap(M, Mp, [z * z, w * w]), beta_max=1)


# -- inversion of the expansion ---------------------------------------------------


def test_inversion_at_zero_is_identity():
    rng = random.Random(8)
    table = {(0, beta): GaussianRational(rng.randint(-9, 9), rng.randint(0, 4))
             for beta in multidegrees(2, 3)}
    zero = [GaussianRational(0)] * 2
    assert invert_expansion(table, zero, 2, 3) == table


def test_inversion_hand_example():
    # m' = 1, theta = (t0, t1, 0, ...): q0 = t0 + zeta t1, q1 = t1
    t0, t1 = gr(3), gr(5)
    zeta = [gr("1/2")]
    theta = {(0, (0,)): t0, (0, (1,)): t1}
    q = forward_expansion(theta, zeta, 1, 3)
    assert q[(0, (0,))] == t0 + zeta[0] * t1
    assert q[(0, (1,))] == t1
    back = invert_expansion(q, zeta, 1, 3)
    assert back[(0, (0,))] == t0 and back[(0, (1,))] == t1


def test_inversion_roundtrip_random():
    rng = random.Random(99)
    for trial in range(25):
        mp = 1 + trial % 2
        zeta = [GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))
                for _ in range(mp)]
        table = {}
        for j in range(2):
            for beta in multidegrees(mp, 3):
                c = GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
                table[(j, beta)] = c
        forward = forward_expansion(table, zeta, mp, 3)
        back = invert_expansion(forward, zeta, mp, 3)
        assert back == table


# -- formal Cramer solve -----------------------------------------------------------


def test_formal_cramer_unit_scalar():
    ctx = VariableContext(("x",))
    x = tvar(ctx, "x")
    a = 1 + x
    y = x - 3 * x * x
    sols, lost = formal_cramer_solve([[a]], [a * y])
    assert lost == 0 and sols[0] == y


def test_formal_cramer_planted_systems():
    rng = random.Random(12)
    ctx = VariableContext(("x", "y"))
    x = tvar(ctx, "x")
    for mu in (0, 1, 2):
        for _ in range(5):
            u01 = random_series(ctx, 8, rng, degree=2, density=0.5)
            u10 = random_series(ctx, 8, rng, degree=2, density=0.5)
            head = TruncatedSeries.monomial(ctx, 8, (mu, 0))
            r = [[head + 0 * x, u01], [u10 * head, 1 + u10]]
            # det = head (1 + u10) - u01 u10 head = head (1 + u10 - u01 u10)
            a_true = [random_series(ctx, 8, rng, degree=4),
                      random_series(ctx, 8, rng, degree=4)]
            b = [r[i][0] * a_true[0] + r[i][1] * a_true[1] for i in range(2)]
            sols, lost = formal_cramer_solve(r, b)
            assert lost == mu
            for got, want in zip(sols, a_true):
                assert got == want.truncated(got.order)


def test_formal_cramer_empty_system_rejected(monkeypatch):
    # refused before any work: no determinant is formed
    monkeypatch.setattr(reflection, "_det", None)
    with pytest.raises(ReflectionError, match="at least one equation"):
        formal_cramer_solve([], [])


def test_formal_cramer_zero_det_rejected():
    ctx = VariableContext(("x",))
    x = tvar(ctx, "x")
    with pytest.raises(ReflectionError):
        formal_cramer_solve([[0 * x]], [x])


# -- chain pullbacks ----------------------------------------------------------------


def test_pullback_jet_constant_on_first_chain():
    M, Mp = heis_pair()
    h = identity_on(M, Mp)
    g1 = chain(M, 1, "barred")
    hbar_emb = SeriesMap([c.remapped(M.ctx_joint)
                          for c in h.hbar.components])
    pulled = chain_pullback(hbar_emb, g1)
    # Gammabar_1 = (0, 0, z1, 0): hbar o Gammabar_1 = (z1, 0)
    assert str(pulled[0]) == "z1_1"
    assert pulled[1].is_zero()


def test_pullback_parity_collapse():
    for seed in (0, 1, 2):
        M = random_minimal_manifold(seed)
        rng = random.Random(seed + 100)
        ctx_t = VariableContext(M.names.t)
        u = random_series(ctx_t, M.order, rng, degree=3).remapped(M.ctx_joint)
        u = SeriesMap([u])
        ctx_tau = VariableContext(M.names.tau)
        v = SeriesMap([random_series(ctx_tau, M.order, rng, degree=3)
                       .remapped(M.ctx_joint)])
        for k in (2, 3, 4):
            for side in ("barred", "unbarred"):
                g = chain(M, k, side)
                barred_last = (k % 2 == 1) == (side == "barred")
                F = u if barred_last else v
                pulled = chain_pullback(F, g)
                shorter = chain_pullback(F, chain(M, k - 1, side))
                assert pulled == shorter.remapped(pulled.context)


def test_pullback_identity_values():
    M, Mp = heis_pair()
    h = identity_on(M, Mp)
    g2 = chain(M, 2, "barred")
    emb = SeriesMap([c.remapped(M.ctx_joint) for c in h.h.components])
    pulled = chain_pullback(emb, g2)
    assert [str(c) for c in pulled] == ["z2_1", "i*z1_1*z2_1"]


# -- transversality -----------------------------------------------------------------


def test_transversality_full_horizontal():
    M = make_sphere3()
    Mp = make_sphere3(primed=True)
    h = identity_on(M, Mp)
    assert transversality_kernel(h, degree=4) == []


def test_transversality_repeated_component():
    Ms = make_ex121(primed=False)
    Mp = make_ex121(primed=True)
    ctx_t = VariableContext(Ms.names.t)
    z1, w = tvar(ctx_t, "z1"), tvar(ctx_t, "w1")
    h = hmap(Ms, Mp, [z1, z1, w])
    assert verify_formal_cr_map(h).ok
    basis = transversality_kernel(h, degree=2)
    assert basis
    rel = basis[0]
    x = TruncatedSeries.variable(rel.context, rel.order, rel.context.names[0])
    y = TruncatedSeries.variable(rel.context, rel.order, rel.context.names[1])
    scaled = rel.coefficient((1, 0)) * x + rel.coefficient((0, 1)) * y
    assert rel == scaled  # purely linear
    assert rel.coefficient((1, 0)) == -rel.coefficient((0, 1))


def test_transversality_square_component():
    M, _ = heis_pair()
    Mp = make_flat(primed=True)
    ctx_t = VariableContext(M.names.t)
    z = tvar(ctx_t, "z1")
    zero = TruncatedSeries.zero(ctx_t, 8)
    h = hmap(M, Mp, [z * z, zero])
    assert verify_formal_cr_map(h).ok
    assert transversality_kernel(h, degree=4) == []


def test_transversality_uniqueness_principle():
    M, Mp = heis_pair(order=6)
    h = identity_on(M, Mp)
    assert transversality_uniqueness_defect(h, degree=2, beta_max=4,
                                            gamma_max=2) == 0


def _transversality_kernel_reference(h, degree):
    """The relation kernel from a matrix re-indexed by first appearance
    of each monomial, eliminated densely."""
    horiz = h.horizontal_part_bar().components
    gammas = list(multidegrees(h.mp, degree))
    power = _power_cache(horiz, h.order)
    mono_index = {}
    columns = []
    for gamma in gammas:
        vec = {}
        for e, c in power(gamma).terms.items():
            vec[e] = c
            mono_index.setdefault(e, len(mono_index))
        columns.append(vec)
    matrix = [[col.get(e, ZERO) for col in columns]
              for e, _ in sorted(mono_index.items(), key=lambda kv: kv[1])]
    if not matrix:
        matrix = [[ZERO] * len(columns)]
    ctx_rel = VariableContext(h.Mp.names.zeta)
    return [TruncatedSeries(ctx_rel, degree,
                            {g: c for g, c in zip(gammas, vec) if c})
            for vec in kernel_basis_reference(matrix)]


def transversality_uniqueness_defect(h: FormalCRMap, degree: int = 2,
                                     nwork=None, beta_max=None,
                                     gamma_max=None):
    """The generalized graded uniqueness principle behind CR-transversality.

    Looks for series families {Fbar_gamma'(z)} of degree <= `degree`,
    |gamma'| <= gamma_max, solving
    sum_gamma' [Lbar^beta fbar^gamma'](z, theta_bar(z,0), 0, 0) *
    Fbar_gamma'(z) == 0  for all |beta| <= beta_max, to order nwork.
    Returns the kernel dimension: 0 means the only family is zero, which is
    what transversality forces.
    """
    M = h.M
    nwork = h.order if nwork is None else nwork
    beta_max = nwork if beta_max is None else beta_max
    gamma_max = degree if gamma_max is None else gamma_max
    for name, value in (("degree", degree), ("nwork", nwork),
                        ("beta_max", beta_max), ("gamma_max", gamma_max)):
        if value < 0:
            raise SeriesError("%s must be non-negative" % name)
    # Lbar is tangent to the manifold and restricts to d/dzeta on side
    # 'xi', since theta depends on (zeta, z, w) only: Lbar^beta fbar^gamma'
    # on the leaf is d_zeta^beta of fbar^gamma' restricted there.
    power = _power_cache(list(M.restrict(h.fbar, "xi")), h.order)
    gammas = list(multidegrees(h.mp, gamma_max))
    ctx_z = VariableContext(M.names.z)
    rel_monos = list(multidegrees(M.m, degree))
    columns = {(g, mono): {} for g in gammas for mono in rel_monos}
    for beta in multidegrees(M.m, beta_max):
        room = nwork - sum(beta)
        if room < 0:
            continue
        dzeta = zero_exponent(M.n) + tuple(beta)
        for g in gammas:
            w = M.restrict(power(g).derive_multi(dzeta),
                           "leaf").truncated(room)
            for mono in rel_monos:
                shifted = w * TruncatedSeries.monomial(ctx_z, room, mono)
                columns[(g, mono)].update(
                    ((beta, e), c) for e, c in shifted.terms.items())
    return len(kernel_basis(list(columns.values())))


def _transversality_uniqueness_defect_reference(h, degree, beta_max,
                                                gamma_max):
    """The kernel dimension from one padded row per (beta, exponent), with
    each Lbar word taken over the joint context and restricted to the leaf
    afterwards."""
    M = h.M
    _, Lbar = cr_fields(M)
    fbar_emb = [c.remapped(M.ctx_joint) for c in h.fbar.components]
    power = _power_cache(fbar_emb, h.order)
    gammas = list(multidegrees(h.mp, gamma_max))
    caches = {g: derivation_words(Lbar, power(g)) for g in gammas}
    ctx_z = VariableContext(M.names.z)
    rel_monos = list(multidegrees(M.m, degree))
    column = {u: k for k, u in enumerate(
        (g, mono) for g in gammas for mono in rel_monos)}
    rows = {}
    for beta in multidegrees(M.m, beta_max):
        room = h.order - sum(beta)
        if room < 0:
            continue
        for g in gammas:
            w = M.restrict(caches[g](beta), "leaf").truncated(room)
            for mono in rel_monos:
                shifted = w * TruncatedSeries.monomial(ctx_z, room, mono)
                col = column[(g, mono)]
                for e, c in shifted.terms.items():
                    rows.setdefault((beta, e), [ZERO] * len(column))[col] = c
    matrix = [rows[k] for k in sorted(rows)]
    if not matrix:
        return 0
    return len(kernel_basis_reference(matrix))


def _transversality_maps():
    Ms, Mp = make_ex121(primed=False), make_ex121(primed=True)
    z1, w = (tvar(VariableContext(Ms.names.t), n) for n in ("z1", "w1"))
    return seeded_maps() + [("ex121-repeated", hmap(Ms, Mp, [z1, z1, w]))]


TRANSVERSALITY_MAPS = _transversality_maps()


@pytest.mark.parametrize("label, h", TRANSVERSALITY_MAPS,
                         ids=[c[0] for c in TRANSVERSALITY_MAPS])
def test_transversality_systems_match_reference(label, h):
    for degree in (1, 2, 3):
        assert (transversality_kernel(h, degree=degree)
                == _transversality_kernel_reference(h, degree))
    for degree, beta_max, gamma_max in ((0, 1, 1), (1, 2, 1), (2, 1, 2)):
        assert (transversality_uniqueness_defect(
                    h, degree=degree, beta_max=beta_max, gamma_max=gamma_max)
                == _transversality_uniqueness_defect_reference(
                    h, degree, beta_max, gamma_max))


# -- resolution ----------------------------------------------------------------------


def test_resolution_identity_and_dilation():
    M, Mp = heis_pair(order=9)  # margin: ell0 = 1
    for comps in (None, "dilation"):
        ctx_t = VariableContext(M.names.t)
        if comps is None:
            h = identity_on(M, Mp)
        else:
            z, w = tvar(ctx_t, "z1", 9), tvar(ctx_t, "w1", 9)
            h = hmap(M, Mp, [2 * z, 4 * w])
        res = resolve_finitely_nondeg(h, ell0=1)
        rep = res.verification_report()
        assert rep.ok
        assert all(prec >= 8 for _, prec in rep.entries.values())
        jrep = res.jet_identity_report(2)
        assert jrep.ok


def test_resolution_multidimensional():
    # two CR directions: row selection must pick a full-rank subsystem
    M = make_sphere3(order=7)
    Mp = make_sphere3(order=7, primed=True)
    res = resolve_finitely_nondeg(identity_on(M, Mp), ell0=1)
    assert res.verification_report().ok
    assert len(res.rows_used) == 3
    assert res.jet_identity_report(1).ok


def test_resolution_needs_rank():
    Ms = make_ex121(primed=False)
    Mp = make_ex121(primed=True)
    ctx_t = VariableContext(Ms.names.t)
    z1, z2, w = (tvar(ctx_t, n) for n in ("z1", "z2", "w1"))
    h = hmap(Ms, Mp, [z1, z2, w])
    with pytest.raises(ReflectionError):
        resolve_finitely_nondeg(h, ell0=1)


def _resolution_rows_reference(h, ell0):
    """The resolution rows and their keys as a gamma'-sum: Lbar^beta u_g
    minus Lbar^beta[u_f^gamma'] times Theta'_{j',gamma'}(t'), multiplied
    valuation-aware."""
    M, Mp, N = h.M, h.Mp, h.order
    jets = JetSymbols("ujb", h.np, M.names.tau, ell0,
                      _jet_constants(h.hbar, ell0))
    ctx_ext = VariableContext(M.ctx_joint.names + jets.names + Mp.names.t)
    _, Lbar = cr_fields(M)
    lifted = [LiftReference(D, jets, ctx_ext, N) for D in Lbar]
    base_u = [jets.jet_series(i, zero_exponent(M.n), ctx_ext, N)
              for i in range(h.np)]
    fpow = _power_cache(base_u[:h.mp], N)
    table, _ = target_component_tables(Mp)
    gammas = sorted({g for tab in table for g in tab},
                    key=lambda g: (sum(g), g))
    caches_f = {g: derivation_words(lifted, fpow(g)) for g in gammas}
    caches_g = [derivation_words(lifted, base_u[h.mp + j]) for j in range(h.dp)]
    theta_emb = [{g: s.remapped(ctx_ext) for g, s in table[j].items()}
                 for j in range(h.dp)]
    rows = []
    keys = []
    for beta in multidegrees(M.m, ell0):
        room = N - sum(beta)
        for j in range(h.dp):
            R = caches_g[j](beta).truncated(room)
            for g, s in theta_emb[j].items():
                R = R - mul_precise(caches_f[g](beta), s).truncated(room)
            rows.append(R)
            keys.append((j, beta))
    return rows, keys


def _row_maps():
    M, Mp = heis_pair(order=7)
    z, w = (tvar(VariableContext(M.names.t), n, 7) for n in M.names.t)
    S, Sp = make_sphere3(order=6), make_sphere3(order=6, primed=True)
    return seeded_maps() + [
        ("heisenberg-dilation", hmap(M, Mp, [2 * z, 4 * w])),
        ("sphere3-identity", identity_on(S, Sp))]


ROW_MAPS = _row_maps()


@pytest.mark.parametrize("label, h", ROW_MAPS, ids=[c[0] for c in ROW_MAPS])
def test_resolution_rows_match_reference(monkeypatch, label, h):
    # record the rows `resolve_finitely_nondeg` builds; a map that is not
    # CR is let through the CR check so that its rows are built as well
    tables = []
    build = reflection._identity_table
    monkeypatch.setattr(reflection, "_identity_table",
                        lambda *a: tables.append(build(*a)) or tables[-1])
    monkeypatch.setattr(reflection, "verify_formal_cr_map",
                        lambda *a: ResidualReport())
    for ell0 in (1, 2):
        try:
            resolve_finitely_nondeg(h, ell0=ell0)
        except (ReflectionError, AssertionError) as exc:
            # the identity of a (2,1) or (1,2) manifold resolves at ell0 = 2
            assert label.endswith("non-cr") or (
                ell0 == 1 and "rank hypothesis" in str(exc))
        rows, keys = _resolution_rows_reference(h, ell0)
        table = tables.pop()
        assert list(table) == keys
        # series equality compares the context and the order too
        assert list(table.values()) == rows



def test_too_few_rows_fail_the_rank_hypothesis_before_any_row(monkeypatch):
    # d' C(m + ell0, m) rows, fewer than n', cannot have rank n'.  The
    # reference rows confirm the verdict the built rows would give: they
    # vanish at 0 and their t'-gradients have rank below n'
    M, Mp = heis_pair(order=5)
    S, Sp = make_sphere3(order=5), make_sphere3(order=5, primed=True)
    z, w = (tvar(VariableContext(M.names.t), n, 5) for n in M.names.t)
    embedding = hmap(M, Sp, [z, 0 * z, w])
    cases = [(identity_on(M, Mp), 0), (identity_on(S, Sp), 0),
             (embedding, 0), (embedding, 1)]
    for h, ell0 in cases:
        assert h.dp * len(list(multidegrees(h.M.m, ell0))) < h.np
        rows, _ = _resolution_rows_reference(h, ell0)
        assert not any(R.constant_term() for R in rows)
        ctx = rows[0].context
        grads = jacobian_at_zero(rows, [ctx.index(n) for n in h.Mp.names.t])
        assert numeric_rank(grads) < h.np
    built = []
    build = reflection._identity_table
    monkeypatch.setattr(reflection, "_identity_table",
                        lambda *a: built.append(a[-1]) or build(*a))
    for h, ell0 in cases:
        with pytest.raises(ReflectionError) as exc:
            resolve_finitely_nondeg(h, ell0=ell0)
        assert str(exc.value) == ("rank hypothesis fails: the order-%d "
                                  "system has rank < %d" % (ell0, h.np))
    assert built == []
    # at ell0 = 2 the embedding has n' = 3 rows: they are built and ranked
    with pytest.raises(ReflectionError, match="order-2 system has rank < 3"):
        resolve_finitely_nondeg(embedding, ell0=2)
    assert built == [2]



@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), arity=st.integers(1, 3),
       order=st.integers(0, 5))
def test_multidegree_table_matches_direct_products(seed, arity, order):
    # each entry is built from beta - e_k, k the first nonzero slot; the
    # direct paths share no memo and multiply or differentiate in another
    # order: powers by `TruncatedSeries.__pow__`, partials by
    # `derive_multi`, zeta-powers by `GaussianRational.__pow__`
    rng = random.Random(seed)
    ctx = VariableContext(tuple("x%d" % i for i in range(arity)))
    comps = [random_series(ctx, order, rng, degree=2) for _ in range(arity)]
    f = random_series(ctx, order, rng)
    zeta = [random_coeff(rng) for _ in range(arity)]
    power = _power_cache(comps, order)
    partial = _multidegree_table(lambda i, v: v.derive(i), f)
    zpow = _multidegree_table(lambda i, v: zeta[i] * v, ONE)
    for gamma in multidegrees(arity, 3):
        direct = TruncatedSeries.constant(ctx, order, ONE)
        zdirect = ONE
        for c, z, k in zip(comps, zeta, gamma):
            direct = direct * c ** k
            zdirect = zdirect * z ** k
        # series equality compares the context and the order too
        assert power(gamma) == direct
        assert zpow(gamma) == zdirect
        if sum(gamma) <= order:
            assert partial(gamma) == f.derive_multi(gamma)

# -- transport ------------------------------------------------------------------------


def test_transport_identity_change():
    M, Mp = heis_pair()
    h = identity_on(M, Mp)
    comps = reflection_components(h, gmax=3)
    ctx_tp = VariableContext(Mp.names.t)
    ident = SeriesMap.identity(ctx_tp, 8)
    moved = target_change_transport(comps, ident)
    assert {g: [s.terms for s in e] for g, e in moved.table.items()} == \
        {g: [s.truncated(moved.table[g][0].order).terms for s in e]
         for g, e in comps.table.items()}


def test_transport_scaling():
    M, Mp = heis_pair()
    h = identity_on(M, Mp)
    comps = reflection_components(h, gmax=3)
    ctx_tp = VariableContext(Mp.names.t)
    zp, wp = tvar(ctx_tp, "zp1"), tvar(ctx_tp, "wp1")
    moved = target_change_transport(comps, SeriesMap([zp, 2 * wp]))
    ctx_t = VariableContext(M.names.t)
    z, w = tvar(ctx_t, "z1"), tvar(ctx_t, "w1")
    assert moved.table[(0,)][0] == (2 * w).truncated(
        moved.table[(0,)][0].order)
    assert moved.table[(1,)][0] == (-2 * I * z).truncated(
        moved.table[(1,)][0].order)
    # agrees with the direct recomputation
    direct = reflection_components(moved.h, gmax=3)
    for g, entry in moved.table.items():
        for a, b in zip(entry, direct.table[g]):
            prec = min(a.order, b.order)
            assert a.truncated(prec) == b.truncated(prec)
    assert moved.reassembly_defect() is None


def test_transport_composes():
    M, Mp = heis_pair()
    h = identity_on(M, Mp)
    comps = reflection_components(h, gmax=2)
    ctx_tp = VariableContext(Mp.names.t)
    zp, wp = tvar(ctx_tp, "zp1"), tvar(ctx_tp, "wp1")
    rng = random.Random(4)
    for _ in range(3):
        a = rng.choice([1, 2, 3])
        b = rng.choice([1, 2])
        phi1 = SeriesMap([a * zp, (a * a) * wp])
        phi2 = SeriesMap([b * zp, (b * b) * wp])
        once = target_change_transport(target_change_transport(comps, phi1),
                                       phi2)
        combo = SeriesMap([(b * a) * zp, (b * b * a * a) * wp])
        direct = target_change_transport(comps, combo)
        for g in direct.table:
            for s1, s2 in zip(once.table.get(g, direct.table[g]),
                              direct.table[g]):
                prec = min(s1.order, s2.order)
                assert s1.truncated(prec) == s2.truncated(prec)


def test_transform_target_graph():
    Mp = make_heisenberg(primed=True)
    ctx_tp = VariableContext(Mp.names.t)
    zp, wp = tvar(ctx_tp, "zp1"), tvar(ctx_tp, "wp1")
    Mpp = transform_target(Mp, SeriesMap([zp, 2 * wp]))
    ctx = Mpp.ctx_theta_bar
    xi = tvar(ctx, "xip1")
    z = tvar(ctx, "zp1")
    zeta = tvar(ctx, "zetap1")
    assert Mpp.theta_bar[0] == xi + 2 * I * z * zeta


# References for the conjugate-side bodies: `verify_formal_cr_map`,
# `reflection_identities` and `Resolution.verification_report` as they were
# written before one body per side read a (side, data) tuple.  Each test
# records every residual that reaches `ResidualReport.add`, so the series
# themselves are compared, not just their valuations.


def _verify_formal_cr_map_reference(h):
    M, Mp = h.M, h.Mp
    report = ResidualReport()
    h_on = list(M.restrict(h.h, "w"))
    hbar_emb = [c.remapped(M.ctx_restrict_w) for c in h.hbar.components]
    for jp in range(h.dp):
        rhs = Mp.theta_bar[jp].compose(h_on[:h.mp] + hbar_emb)
        report.add(3, jp, (), h_on[h.mp + jp] - rhs)
    hbar_on = list(M.restrict(h.hbar, "xi"))
    h_emb = [c.remapped(M.ctx_restrict_xi) for c in h.h.components]
    for jp in range(h.dp):
        rhs = Mp.theta[jp].compose(hbar_on[:h.mp] + h_emb)
        report.add(1, jp, (), hbar_on[h.mp + jp] - rhs)
    return report


def _reflection_identities_reference(h, beta_max, families):
    M, Mp = h.M, h.Mp
    N = h.order
    ctxj = M.ctx_joint
    L, Lbar = cr_fields(M)
    table, table_bar = target_component_tables(Mp)
    gammas = sorted({g for tab in table for g in tab}
                    | {g for tab in table_bar for g in tab},
                    key=lambda g: (sum(g), g))
    f_emb = [c.remapped(ctxj) for c in h.f.components]
    g_emb = [c.remapped(ctxj) for c in h.g.components]
    fbar_emb = [c.remapped(ctxj) for c in h.fbar.components]
    gbar_emb = [c.remapped(ctxj) for c in h.gbar.components]
    h_args = list(h.h.components)
    hbar_args = list(h.hbar.components)
    comp = {jp: {g: s.compose(h_args).remapped(ctxj)
                 for g, s in table[jp].items()} for jp in range(h.dp)}
    comp_bar = {jp: {g: s.compose(hbar_args).remapped(ctxj)
                     for g, s in table_bar[jp].items()}
                for jp in range(h.dp)}
    fbar_pow = _power_cache(fbar_emb, N)
    f_pow = _power_cache(f_emb, N)
    betas = list(multidegrees(M.m, beta_max))
    report = ResidualReport()
    if 1 in families or 2 in families:
        lbar_fbar = {g: derivation_words(Lbar, fbar_pow(g)) for g in gammas}
        lbar_gbar = [derivation_words(Lbar, s) for s in gbar_emb]
        lbar_compbar = {jp: {g: derivation_words(Lbar, s)
                             for g, s in comp_bar[jp].items()}
                        for jp in range(h.dp)} if 2 in families else None
        for beta in betas:
            room = N - sum(beta)
            for jp in range(h.dp):
                if 1 in families:
                    res = lbar_gbar[jp](beta)
                    for g in gammas:
                        piece = comp[jp].get(g)
                        if piece is None:
                            continue
                        res = res - mul_precise(
                            lbar_fbar[g](beta), piece).truncated(room)
                    report.add(1, jp, beta,
                               M.restrict(res.truncated(room), "xi"))
                if 2 in families:
                    if sum(beta) == 0:
                        res = g_emb[jp].truncated(room)
                    else:
                        res = TruncatedSeries.zero(ctxj, room)
                    for g, cache in lbar_compbar[jp].items():
                        res = res - mul_precise(
                            f_pow(g), cache(beta)).truncated(room)
                    report.add(2, jp, beta,
                               M.restrict(res.truncated(room), "xi"))
    if 3 in families or 4 in families:
        l_f = {g: derivation_words(L, f_pow(g)) for g in gammas}
        l_g = [derivation_words(L, s) for s in g_emb]
        l_comp = {jp: {g: derivation_words(L, s) for g, s in comp[jp].items()}
                  for jp in range(h.dp)} if 4 in families else None
        for beta in betas:
            room = N - sum(beta)
            for jp in range(h.dp):
                if 3 in families:
                    res = l_g[jp](beta)
                    for g in gammas:
                        piece = comp_bar[jp].get(g)
                        if piece is None:
                            continue
                        res = res - mul_precise(
                            l_f[g](beta), piece).truncated(room)
                    report.add(3, jp, beta,
                               M.restrict(res.truncated(room), "w"))
                if 4 in families:
                    if sum(beta) == 0:
                        res = gbar_emb[jp].truncated(room)
                    else:
                        res = TruncatedSeries.zero(ctxj, room)
                    for g, cache in l_comp[jp].items():
                        res = res - mul_precise(
                            fbar_pow(g), cache(beta)).truncated(room)
                    report.add(4, jp, beta,
                               M.restrict(res.truncated(room), "w"))
    return report


def _gamma_sum_identities_reference(h, beta_max):
    """The four families as gamma'-sums over the joint context, each family
    composed on its own side.  With X = Lbar, u = hbar, v = h on side 'xi'
    (families 1, 2) and X = L, u = h, v = hbar on side 'w' (families 3, 4),
    X kills v, and the pair is X^beta u_{m'+j'} minus the sum of
    X^beta[u_{<m'}^gamma'] times u's graph component gamma' at v, and
    v_{m'+j'} (at beta = 0) minus the sum of v_{<m'}^gamma' times X^beta of
    v's graph component gamma' at u.  That component has order
    N - |gamma'|, and v_{<m'}^gamma' valuation |gamma'|, so the second sum
    skips |gamma'| > N - |beta|: its products vanish within precision."""
    M, Mp = h.M, h.Mp
    N = h.order
    ctxj = M.ctx_joint
    L, Lbar = cr_fields(M)
    table, table_bar = target_component_tables(Mp)
    comp = [{g: s.compose(list(h.h)).remapped(ctxj) for g, s in tab.items()}
            for tab in table]
    comp_bar = [{g: s.compose(list(h.hbar)).remapped(ctxj)
                 for g, s in tab.items()} for tab in table_bar]

    def word(X, seed, beta):
        for k, b in enumerate(beta):
            for _ in range(b):
                seed = X[k].apply(seed)
        return seed

    report = ResidualReport()
    for first, side, X, u, v, at_v, at_u in (
            (1, "xi", Lbar, h.hbar, h.h, comp, comp_bar),
            (3, "w", L, h.h, h.hbar, comp_bar, comp)):
        u = [c.remapped(ctxj) for c in u]
        v = [c.remapped(ctxj) for c in v]
        u_pow, v_pow = _power_cache(u[:h.mp], N), _power_cache(v[:h.mp], N)
        for beta in multidegrees(M.m, beta_max):
            room = N - sum(beta)
            for jp in range(h.dp):
                near = word(X, u[h.mp + jp], beta)
                for g, s in at_v[jp].items():
                    near = near - mul_precise(word(X, u_pow(g), beta),
                                              s).truncated(room)
                far = (TruncatedSeries.zero(ctxj, room) if any(beta)
                       else v[h.mp + jp])
                for g, s in at_u[jp].items():
                    if sum(g) <= room:
                        far = far - mul_precise(v_pow(g), word(X, s, beta))
                for family, res in enumerate((near, far), first):
                    report.add(family, jp, beta,
                               M.restrict(res.truncated(room), side))
    return report


def _jet_args_side_w(res):
    """The conjugate line's jet values: u_{i,alpha} -> jets of h composed
    with (z, theta_bar(z, tau)) minus the conjugated constants, over
    (z, zeta, xi)."""
    M, jets = res.h.M, res.jets
    out = {}
    for i, comp in enumerate(res.h.h.components):
        for alpha in multidegrees(M.n, res.ell0):
            out[jets.name(i, alpha)] = (
                M.restrict(comp.derive_multi(alpha), "w")
                - jets.constant(i, alpha).conjugate())
    return out


def _verification_report_reference(res):
    h, M = res.h, res.h.M
    report = ResidualReport()
    ctx_v = M.ctx_restrict_xi
    uargs = res._jet_args(res.ell0, res.jets)
    for i, comp in enumerate(res.phi.components):
        value = M.restrict(comp, "xi", uargs)
        report.add(1, i, (), h.h[i].remapped(ctx_v).truncated(value.order)
                   - value)
    swap = M.names.swap_map()
    ctx_cv = M.ctx_restrict_w
    uargs_bar = _jet_args_side_w(res)
    for i, comp in enumerate(res.phi.components):
        phibar = comp.conjugate_swapped(swap, comp.context)
        value = M.restrict(phibar, "w", uargs_bar)
        report.add(2, i, (), h.hbar[i].remapped(ctx_cv).truncated(value.order)
                   - value)
    return report


@pytest.fixture
def record_residuals(monkeypatch):
    """Run a report builder and return (report, [(family, j', beta,
    residual), ...]) in the order the residuals were added."""
    add = ResidualReport.add

    def run(fn, *args, **kwargs):
        seen = []

        def recording(self, family, jp, beta, residual):
            seen.append((family, jp, tuple(beta), residual))
            add(self, family, jp, beta, residual)

        monkeypatch.setattr(ResidualReport, "add", recording)
        try:
            rep = fn(*args, **kwargs)
        finally:
            monkeypatch.setattr(ResidualReport, "add", add)
        return rep, seen

    return run


def _assert_same_residuals(got, want):
    (rep, seen), (ref, ref_seen) = got, want
    assert list(rep.entries.items()) == list(ref.entries.items())
    # series equality compares the context and the order too
    assert seen == ref_seen


def _side_cases():
    """(label, map): identity and dilation on Heisenberg, a degenerate
    self-map of the C^3 example, and a map that is not CR."""
    M, Mp = heis_pair(order=6)
    ctx_t = VariableContext(M.names.t)
    z, w = tvar(ctx_t, "z1", 6), tvar(ctx_t, "w1", 6)
    Mdeg = make_ex121(order=5)
    field = holomorphic_degeneracy_field(Mdeg, dmax=3)
    return [("identity", identity_on(M, Mp)),
            ("dilation", hmap(M, Mp, [2 * z, 4 * w])),
            ("degenerate", degenerate_selfmap_generator(Mdeg, field, None,
                                                         seed=3)),
            ("non-cr", hmap(M, Mp, [z + w * z, w + z * z * z]))]


def _quadric_cases():
    """(label, map) on the (1,2) quadric pair, whose target has d' = 2
    components for the conjugate-swap to carry: the identity, and a
    perturbation of it that is not CR."""
    Q, Qp = quadric_pair(order=5)
    ctx_t = VariableContext(Q.names.t)
    z, w1, w2 = (tvar(ctx_t, n, 5) for n in Q.names.t)
    return [("quadric-identity", identity_on(Q, Qp)),
            ("quadric-non-cr", hmap(Q, Qp, [z + w2 * z, w1 + z * z * z,
                                            w2 + I * w1 * z]))]


SIDE_CASES = _side_cases()
IDENTITY_CASES = SIDE_CASES + _quadric_cases()


@pytest.mark.parametrize("label, h", SIDE_CASES,
                         ids=[c[0] for c in SIDE_CASES])
def test_verify_formal_cr_map_matches_reference(record_residuals, label, h):
    got = record_residuals(verify_formal_cr_map, h)
    _assert_same_residuals(got, record_residuals(
        _verify_formal_cr_map_reference, h))
    assert got[0].ok == (label != "non-cr")


@pytest.mark.parametrize("label, h", IDENTITY_CASES,
                         ids=[c[0] for c in IDENTITY_CASES])
def test_reflection_identities_match_reference(record_residuals, label, h):
    # families 1 and 2 are read off families 3 and 4 by conjugate-swapping;
    # each must be the series the reference composes on side 'xi'
    for beta_max in (0, 1, 2):
        got = record_residuals(reflection_identities, h, beta_max=beta_max)
        want = record_residuals(_reflection_identities_reference, h,
                                beta_max, (1, 2, 3, 4))
        _assert_same_residuals(got, want)
    if label.endswith("non-cr"):
        assert not got[0].ok
        assert all(got[0].first_failure(f) is not None for f in (1, 2, 3, 4))


DENSE_TARGET_MAPS = [("seed%d-%s" % (seed, label), h) for seed in (0, 1)
                     for label, h in seeded_maps(seeds=(seed,) * 3)]


@pytest.mark.parametrize("label, h", DENSE_TARGET_MAPS,
                         ids=[c[0] for c in DENSE_TARGET_MAPS])
def test_reflection_identities_on_dense_targets(record_residuals, label, h):
    # these target graphs have terms of every zeta'-degree up to the
    # order, so a word of a component Theta'_{j',gamma'}(h) runs out of
    # precision; each entry is d_z^beta of one seed restricted first
    for beta_max in (0, 1, 2):
        got = record_residuals(reflection_identities, h, beta_max=beta_max)
        _assert_same_residuals(got, record_residuals(
            _gamma_sum_identities_reference, h, beta_max))
        assert all(prec == h.order - sum(beta)
                   for (_, _, beta), (_, prec) in got[0].entries.items())
    if label.endswith("non-cr"):
        assert all(got[0].first_failure(f) is not None for f in (1, 2, 3, 4))
    else:
        assert got[0].ok


@pytest.mark.parametrize("label, h", SIDE_CASES,
                         ids=[c[0] for c in SIDE_CASES])
def test_transversality_defect_restricts_first(label, h):
    # Lbar^beta fbar^gamma' on the leaf, as d_zeta^beta after restricting
    # fbar^gamma' to side 'xi', against the joint-context words
    for degree, beta_max, gamma_max in itertools.product(
            (0, 1, 2), (0, 1, 2, 4), (0, 1, 2)):
        assert (transversality_uniqueness_defect(
                    h, degree=degree, beta_max=beta_max, gamma_max=gamma_max)
                == _transversality_uniqueness_defect_reference(
                    h, degree, beta_max, gamma_max)), (degree, beta_max,
                                                       gamma_max)


def test_verification_report_matches_reference(record_residuals):
    M, Mp = heis_pair(order=7)
    ctx_t = VariableContext(M.names.t)
    z, w = tvar(ctx_t, "z1", 7), tvar(ctx_t, "w1", 7)
    S = make_sphere3(order=6)
    Sp = make_sphere3(order=6, primed=True)
    for h in (identity_on(M, Mp), hmap(M, Mp, [2 * z, 4 * w]),
              identity_on(S, Sp)):
        res = resolve_finitely_nondeg(h, ell0=1)
        got = record_residuals(res.verification_report)
        _assert_same_residuals(got, record_residuals(
            _verification_report_reference, res))
        assert got[0].ok
        assert [k[0] for k in got[1]] == [1] * h.np + [2] * h.np


SEEDED_MAPS = seeded_maps()


@pytest.mark.parametrize("label, h", SEEDED_MAPS,
                         ids=[c[0] for c in SEEDED_MAPS])
def test_conjugate_families_match_reference_on_seeded_maps(record_residuals,
                                                           label, h):
    # the conjugate family of each check is read off the other by
    # conjugate-swapping; on random real graphs, CR or not, it must be the
    # series the composed family gave
    got = record_residuals(verify_formal_cr_map, h)
    _assert_same_residuals(got, record_residuals(
        _verify_formal_cr_map_reference, h))
    cr = not label.endswith("non-cr")
    assert got[0].ok == cr
    resolved = 0
    for ell0 in (1, 2):
        try:
            res = resolve_finitely_nondeg(h, ell0=ell0)
        except ReflectionError:
            continue
        resolved += 1
        got = record_residuals(res.verification_report)
        _assert_same_residuals(got, record_residuals(
            _verification_report_reference, res))
        assert got[0].ok
    assert resolved == (2 if label == "11-cr" else 1 if cr else 0)


def test_conjugate_families_restrict_one_side(monkeypatch):
    # the CR check composes on side 'w' only and the resolution, once its
    # map's side-'w' identity is kept, on side 'xi' only: each conjugate
    # family is a conjugate-swap
    M, Mp = heis_pair(order=6)
    ctx_t = VariableContext(M.names.t)
    z, w = tvar(ctx_t, "z1", 6), tvar(ctx_t, "w1", 6)
    maps = [identity_on(M, Mp), hmap(M, Mp, [z + w * z, w + z * z * z])]
    restrict = GraphedManifold.restrict
    sides = []

    def counting(self, f, side, extra=None):
        sides.append(side)
        return restrict(self, f, side, extra)

    monkeypatch.setattr(GraphedManifold, "restrict", counting)
    for h in maps:
        verify_formal_cr_map(h)
    assert sides and set(sides) == {"w"}
    sides.clear()
    res = resolve_finitely_nondeg(maps[0], ell0=1)
    assert sides and "w" not in sides
    sides.clear()
    res.verification_report()
    res.jet_identity_report(1)
    assert not sides


def _jet_identity_report_reference(res, ell):
    """`Resolution.jet_identity_report` as it was written before each entry
    became one word's residual: each word L^beta Ups^delta of one generic
    t-jet is expanded into plain partials, the unit-triangular system is
    solved for d^alpha of phi over the jets context, and each formula is
    restricted to the manifold and compared with d^alpha h."""
    h, M = res.h, res.h.M
    N = h.order
    level = res.ell0 + ell
    jets2 = JetSymbols(res.jets.prefix, h.np, M.names.tau, level,
                       _jet_constants(h.hbar, level))
    ctx2 = VariableContext(M.ctx_joint.names + jets2.names)
    phi2 = [c.remapped(ctx2) for c in res.phi.components]
    L, _ = cr_fields(M)
    U, _ = transversal_fields(M)
    liftL = [LiftReference(D, jets2, ctx2, N) for D in L]
    liftU = [LiftReference(D, jets2, ctx2, N) for D in U]

    def nested_values(seed, liftL, liftU):
        by_delta = derivation_words(liftU, seed)
        caches = {}

        def get(beta, delta):
            cache = caches.get(delta)
            if cache is None:
                cache = derivation_words(liftL, by_delta(delta))
                caches[delta] = cache
            return cache(beta)

        return get

    G = [nested_values(phi2[i], liftL, liftU) for i in range(h.np)]

    vjets = JetSymbols("vres", 1, M.names.t, ell, {})
    ctx_c = VariableContext(M.ctx_joint.names + vjets.names)
    liftLc = [LiftReference(D, vjets, ctx_c, N) for D in L]
    liftUc = [LiftReference(D, vjets, ctx_c, N) for D in U]
    seed = vjets.jet_series(0, zero_exponent(M.n), ctx_c, N)
    W = nested_values(seed, liftLc, liftUc)

    words = [(beta, delta)
             for beta in multidegrees(M.m, ell)
             for delta in multidegrees(M.d, ell - sum(beta))]
    words.sort(key=lambda bd: (sum(bd[0]) + sum(bd[1]), -sum(bd[1])))

    exprs = {}
    for beta, delta in words:
        w_expr = W(beta, delta)
        coeffs = {}
        for alpha in multidegrees(M.n, ell):
            c = w_expr.derive(ctx_c.index(vjets.name(0, alpha)))
            if c:
                if c.support_variables() & {
                        ctx_c.index(n) for n in vjets.names}:
                    raise AssertionError("jet expansion is not linear")
                coeffs[alpha] = c.remapped(ctx2)
        diag = tuple(beta) + tuple(delta)
        dcoeff = coeffs.get(diag)
        if dcoeff is None or dcoeff.constant_term() != ONE \
                or len(dcoeff.terms) != 1:
            raise AssertionError("jet inversion lost its unit diagonal")
        for i in range(h.np):
            expr = G[i](beta, delta)
            for alpha, c in coeffs.items():
                if alpha == diag:
                    continue
                prev = exprs[(i, alpha)]
                expr = expr - c.truncated(prev.order) * prev
            exprs[(i, diag)] = expr

    report = ResidualReport()
    uargs = res._jet_args(level, jets2)
    for (i, alpha), expr in sorted(exprs.items()):
        value = M.restrict(expr, "xi", uargs)
        lhs = h.h[i].derive_multi(alpha).remapped(M.ctx_restrict_xi)
        report.add("jet", i, alpha,
                   lhs.truncated(value.order) - value.truncated(lhs.order))
    return report


NEGATIVE_BOUNDS = [
    ("beta_max", lambda h: reflection_identities(h, beta_max=-1)),
    ("ell0", lambda h: resolve_finitely_nondeg(h, ell0=-1)),
    ("ell", lambda h: resolve_finitely_nondeg(h).jet_identity_report(-1)),
    ("degree", lambda h: transversality_kernel(h, degree=-1)),
    ("nwork", lambda h: transversality_kernel(h, nwork=-1)),
    ("degree", lambda h: transversality_uniqueness_defect(h, degree=-1)),
    ("nwork", lambda h: transversality_uniqueness_defect(h, nwork=-1)),
    ("beta_max",
     lambda h: transversality_uniqueness_defect(h, beta_max=-1)),
    ("gamma_max",
     lambda h: transversality_uniqueness_defect(h, gamma_max=-1)),
    ("beta_max", lambda h: q_jbeta_cramer(h, beta_max=-1)),
    ("depth", lambda h: composed_jet_table(h, -1)),
    ("bmax", lambda h: forward_expansion(composed_jet_table(h, 1),
                                         [ZERO] * h.mp, h.mp, -1)),
    ("bmax", lambda h: invert_expansion(composed_jet_table(h, 1),
                                        [ZERO] * h.mp, h.mp, -1)),
    ("beta_max", lambda h: psi_table(h, beta_max=-1)),
]


@pytest.mark.parametrize("bound, call", NEGATIVE_BOUNDS,
                         ids=["%s-%d" % (b, k)
                              for k, (b, _) in enumerate(NEGATIVE_BOUNDS)])
def test_negative_bounds_are_rejected(bound, call):
    # a negative bound must be refused up front, not pass a check with no
    # entries or fail deep inside it
    h = identity_on(*heis_pair(order=7))
    with pytest.raises(SeriesError, match="%s must be non-negative"
                       % bound):
        call(h)


def _jet_resolutions():
    """(label, resolution, ells) for the passing jet-report cases."""
    out = []
    M, Mp = heis_pair(order=7)
    z, w = (tvar(VariableContext(M.names.t), n, 7) for n in M.names.t)
    for label, h in (("heisenberg-identity", identity_on(M, Mp)),
                     ("heisenberg-dilation", hmap(M, Mp, [2 * z, 4 * w]))):
        out.append((label, resolve_finitely_nondeg(h, ell0=1), (0, 1, 2)))
    for order in (6, 7):
        S, Sp = make_sphere3(order=order), make_sphere3(order=order,
                                                        primed=True)
        out.append(("sphere3-%d" % order,
                    resolve_finitely_nondeg(identity_on(S, Sp), ell0=1),
                    (0, 1)))
    Q, Qp = quadric_pair()
    out.append(("quadric", resolve_finitely_nondeg(identity_on(Q, Qp),
                                                   ell0=1), (1,)))
    return out


def test_jet_identity_report_matches_reference(record_residuals):
    cases = _jet_resolutions()
    for label, res, ells in cases:
        for ell in ells:
            got = record_residuals(res.jet_identity_report, ell)
            want = record_residuals(_jet_identity_report_reference, res, ell)
            _assert_same_residuals(got, want)
            assert got[0].ok, (label, ell)
    # a perturbed phi, as its own resolution: each entry is a plain
    # partial of the residual, so the failing entries agree with the old
    # inversion's, entry for entry
    res = cases[0][1]
    phi = res.phi
    z, w = (TruncatedSeries.variable(phi.context, phi.order, n)
            for n in res.h.M.names.t)
    for bump in (z * w, w ** 3, w ** 4):
        bumped = Resolution(res.h, res.ell0, res.jets,
                            SeriesMap([phi[0], phi[1] + bump]), res.rows_used)
        for ell in (1, 2):
            got = bumped.jet_identity_report(ell)
            want = _jet_identity_report_reference(bumped, ell)
            assert not got.ok
            assert got.entries == want.entries


def test_resolution_residual_is_formed_once(monkeypatch):
    # resolve_finitely_nondeg checks the residual it builds; both reports
    # read that one residual and form no jet values of their own
    jet_args = Resolution._jet_args
    calls = []

    def counting(self, level, jets):
        calls.append(level)
        return jet_args(self, level, jets)

    monkeypatch.setattr(Resolution, "_jet_args", counting)
    S, Sp = make_sphere3(order=6), make_sphere3(order=6, primed=True)
    for h in (identity_on(*heis_pair(order=7)), identity_on(S, Sp)):
        calls.clear()
        res = resolve_finitely_nondeg(h, ell0=1)
        assert res.verification_report().ok
        for ell in (1, 2, 3):
            assert res.jet_identity_report(ell).ok
        assert calls == [1]


def test_jet_identity_report_precision_edge(monkeypatch, record_residuals):
    # at ell = order - ell0 every entry is exact to degree 0; one order
    # further, the reference raises, and the report refuses before it
    # differentiates anything
    for label, res, _ in _jet_resolutions():
        edge = res.h.order - res.ell0
        if label in ("heisenberg-identity", "sphere3-6"):
            got = record_residuals(res.jet_identity_report, edge)
            _assert_same_residuals(got, record_residuals(
                _jet_identity_report_reference, res, edge))
            assert got[0].ok
            assert {p for _, p in got[0].entries.values()} == {0}
        with pytest.raises(SeriesError,
                           match="no precision left to differentiate"):
            _jet_identity_report_reference(res, edge + 1)
        with monkeypatch.context() as patched:
            patched.setattr(TruncatedSeries, "derive", lambda *args:
                            pytest.fail("the report differentiated"))
            with pytest.raises(SeriesError, match=r"ell \+ ell0 exceeds "
                               "the truncation order"):
                res.jet_identity_report(edge + 1)


# References for the three substitutions that built their own arguments
# before `GraphedManifold.restrict` gained side 'zeta0' and
# `transform_target` used side 'xi'.


def _transform_target_reference(Mp, phi_p):
    ctx_tp = VariableContext(Mp.names.t)
    if phi_p.context != ctx_tp:
        phi_p = phi_p.remapped(ctx_tp)
    ctx_src = Mp.ctx_theta
    N = Mp.order
    tau_map = dict(zip(Mp.names.t, Mp.names.tau))
    ctx_taup = VariableContext(Mp.names.tau)
    phibar = [c.conjugate_swapped(tau_map, ctx_taup)
              for c in phi_p.components]
    zetas = [TruncatedSeries.variable(ctx_src, N, n) for n in Mp.names.zeta]
    th = list(Mp.theta.components)
    phibar_on = [c.compose(zetas + th) for c in phibar]
    S = phibar_on[:Mp.m] + [c.remapped(ctx_src) for c in phi_p.components]
    temp = tuple("tc%d" % i for i in range(len(S)))
    ctx_big = VariableContext(temp + ctx_src.names)
    eqs = [s.remapped(ctx_big) - TruncatedSeries.variable(ctx_big, N, temp[i])
           for i, s in enumerate(S)]
    inv = formal_ift(SeriesMap(eqs), list(ctx_src.names))
    theta_new = [phibar_on[Mp.m + j].compose(list(inv.components))
                 for j in range(Mp.d)]
    rename = dict(zip(temp, ctx_src.names))
    theta_new = [t.remapped(ctx_src, rename) for t in theta_new]
    return GraphedManifold.from_theta(Mp.m, Mp.d, SeriesMap(theta_new),
                                      primed=True)


def _composed_jet_table_reference(hmap, depth):
    M, Mp = hmap.M, hmap.Mp
    N = hmap.order
    fbar_on = list(M.restrict(hmap.fbar, "xi"))
    h_emb = [c.remapped(M.ctx_restrict_xi) for c in hmap.h.components]
    ctx_t = VariableContext(M.names.t)
    at_zero = {n: TruncatedSeries.zero(ctx_t, N) for n in M.names.zeta}
    out = {}
    for j in range(Mp.d):
        for beta in multidegrees(Mp.m, depth):
            d = Mp.theta[j].derive_multi(tuple(beta) + zero_exponent(Mp.n))
            val = d.compose(fbar_on + h_emb) * (ONE / factorial_multi(beta))
            out[(j, beta)] = val.substitute(at_zero, ctx_t)
    return out


def _target_change_transport_reference(components, phi_p):
    h = components.h
    M, Mp = h.M, h.Mp
    N = h.order
    Mpp = _transform_target_reference(Mp, phi_p)
    ctx_tp = VariableContext(Mp.names.t)
    if phi_p.context != ctx_tp:
        phi_p = phi_p.remapped(ctx_tp)
    hpp = FormalCRMap(SeriesMap([c.compose(list(h.h.components))
                                 for c in phi_p.components]), M, Mpp)
    change = FormalCRMap(phi_p, Mp, Mpp)
    gmax = components.gmax
    depth = min(gmax + N, N)
    q = _composed_jet_table_reference(change, depth)
    tps = [TruncatedSeries.variable(ctx_tp, N, n) for n in Mp.names.t]
    zero = TruncatedSeries.zero(ctx_tp, N)
    th0 = [t.compose([zero] * Mp.m + tps) for t in Mp.theta.components]
    fb0 = [c.compose([zero] * Mp.m + th0) for c in change.fbar.components]
    raw = invert_expansion(q, fb0, Mp.m, depth)
    return ReflectionComponents(hpp, gmax,
                                _compose_components(h, gmax, raw.items()))


def _target_changes():
    """(source, target, nonlinear target change) on Heisenberg and sphere3."""
    M, Mp = heis_pair(order=7)
    zp, wp = (tvar(VariableContext(Mp.names.t), n, 7) for n in Mp.names.t)
    heis = SeriesMap([zp + gr(1, 1) * zp * wp, 2 * wp + zp * wp * wp])
    S = make_sphere3(order=5)
    Sp = make_sphere3(order=5, primed=True)
    z1, z2, w = (tvar(VariableContext(Sp.names.t), n, 5) for n in Sp.names.t)
    sphere = SeriesMap([z1 + z2 * w, z2 + I * z1 * w, w + w * w])
    return [(M, Mp, heis), (S, Sp, sphere)]


@pytest.mark.parametrize("M, Mp, phi", _target_changes(),
                         ids=["heisenberg", "sphere3"])
def test_substitutions_match_reference(M, Mp, phi):
    got = transform_target(Mp, phi)
    want = _transform_target_reference(Mp, phi)
    assert got.theta == want.theta and got.theta_bar == want.theta_bar
    assert verify_reality(got).ok
    ctx_t = VariableContext(M.names.t)
    # h.order below the target's order as well as equal to it
    for order in (M.order, M.order - 2):
        h = FormalCRMap(SeriesMap.identity(ctx_t, order), M, Mp)
        change = FormalCRMap(phi, Mp, got)
        for depth in (0, 2, order):
            table = composed_jet_table(change, depth)
            ref = _composed_jet_table_reference(change, depth)
            assert list(table.items()) == list(ref.items())
        comps = reflection_components(h, gmax=2)
        moved = target_change_transport(comps, phi)
        ref = _target_change_transport_reference(comps, phi)
        assert moved.gmax == ref.gmax
        assert list(moved.table.items()) == list(ref.table.items())
        assert moved.h.h == ref.h.h
        assert moved.reassembly_defect() == ref.reassembly_defect()
