"""Cross-module workout at codimension 2 (two graphed equations)."""

from conftest import quadric_pair
from crreflect.context import VariableContext
from crreflect.manifold import verify_reality
from crreflect.nondegen import HOLDS, classify_manifold, psi_and_h_conditions
from crreflect.reflection import (FormalCRMap, q_jbeta_cramer,
                                  reflection_components,
                                  reflection_identities,
                                  resolve_finitely_nondeg,
                                  verify_formal_cr_map)
from crreflect.segre import minimality
from crreflect.series import SeriesMap


def test_codim2_graph_and_reality():
    M, _ = quadric_pair()
    assert (M.m, M.d) == (1, 2)
    assert [str(c) for c in M.theta_bar] == \
        ["xi1 + i*z1*zeta1", "xi2 + i*z1^2*zeta1^2"]
    assert verify_reality(M).ok


def test_codim2_minimality_attains_type_bound():
    M, _ = quadric_pair()
    rep = minimality(M)
    assert rep.minimal
    assert rep.nu0 == M.d + 1 == 3
    assert rep.ranks[4] == (4, 4)
    assert rep.mu0_witness is not None


def test_codim2_reflection_stack():
    M, Mp = quadric_pair()
    ctx_t = VariableContext(M.names.t)
    h = FormalCRMap(SeriesMap.identity(ctx_t, M.order), M, Mp)
    assert verify_formal_cr_map(h).ok

    comps = reflection_components(h, gmax=6)
    table = {g: [str(x) for x in e] for g, e in sorted(comps.table.items())}
    assert table == {
        (0,): ["w1", "w2"],
        (1,): ["-i*z1", "0"],
        (2,): ["0", "-i*z1^2"],
    }
    assert comps.reassembly_defect() is None

    idents = reflection_identities(h, beta_max=2)
    assert idents.ok
    # valuation-aware sums keep the full surviving precision N - |beta|
    for (fam, jp, beta), (val, prec) in idents.entries.items():
        assert prec == M.order - sum(beta)
    ct = q_jbeta_cramer(h, beta_max=2)
    assert bool(ct.det_at_zero) and ct.defects() == []


def test_codim2_classification_and_resolution():
    M, Mp = quadric_pair()
    cls = classify_manifold(Mp, kmax=3)
    assert all(v.status == HOLDS for v in cls.chain)
    ctx_t = VariableContext(M.names.t)
    h = FormalCRMap(SeriesMap.identity(ctx_t, M.order), M, Mp)
    hc = psi_and_h_conditions(h, kmax=2)
    assert hc.h2.status == HOLDS and hc.ell0 == 1
    res = resolve_finitely_nondeg(h, ell0=1)
    assert res.verification_report().ok
    assert len(res.rows_used) == 3
    assert res.jet_identity_report(1).ok
