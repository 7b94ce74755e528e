"""The four benchmark workloads: seeded inputs, operations and math checks.

Every workload is a fixed list of operations ("ops").  The shape of each
op (dimensions, term supports, which model and map) is fixed by the op's
index; the workload seed draws the coefficient values.  So the amount of
work per op barely moves from seed to seed, while the exact numbers the
program computes with change with every seed.

An op returns an `Outcome`: a digest of its exact output and, when a math
check failed, a description of the problem.  Exceptions propagate to the
harness, which classifies them.  Every call into the program goes through
a module attribute looked up at call time, so the tracer's wrappers see it.

Inputs are generated with `crreflect` data types, so this module imports the
package; `run.py` puts the checkout's `src/` on `sys.path` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

import crreflect.cli
import crreflect.manifold as manifold
import crreflect.nondegen as nondegen
import crreflect.reflection as reflection
import crreflect.segre as segre
from crreflect.context import VariableContext, multidegrees
from crreflect.exprparse import parse_expression
from crreflect.gaussian import GaussianRational, I, ONE, ZERO
from crreflect.manifold import RealDefiningSystem
from crreflect.series import SeriesMap, TruncatedSeries

# Known defects of the program that the benchmark counts as failed ops
# without declaring the run incorrect.  Any other failure makes it incorrect.
KNOWN_FAILURES = {
    "reflection-order0-derive":
        "reflection_identities families 2 and 4 differentiate an order-0 "
        "comp_bar entry when the target graph has a |gamma'| = N term "
        "(SeriesError: no precision left to differentiate); the manifest "
        "run exits 3",
    "truncated-chain-rank":
        "generic ranks of truncated Segre chains go above 2m+d or stop "
        "below it, so minimality(kmax=d+2) reports a manifold that is "
        "minimal by construction as conclusively not minimal",
    "map-chain-violated":
        "classify_map_cr rejects its own implication chain for the CR map "
        "(z1, varpi, w1) on the degenerate C^3 example; the manifest run "
        "exits 3",
}


class Outcome:
    """An op's output digest and, if a check failed, the problem, its
    failure kind ("check" or "exit") and, for a known defect, its key in
    KNOWN_FAILURES."""

    __slots__ = ("digest", "problem", "known", "kind")

    def __init__(self, digest, problem=None, known=None, kind="check"):
        self.digest = digest
        self.problem = problem
        self.known = known
        self.kind = kind


class Op:
    __slots__ = ("label", "call")

    def __init__(self, label, call):
        self.label = label
        self.call = call


# -- digests ------------------------------------------------------------------


def _series_text(s: TruncatedSeries) -> str:
    terms = sorted(s.terms.items())
    return "%s|%d|%s" % (",".join(s.context.names), s.order, ";".join(
        "%s:%d,%d,%d" % (e, c.a, c.b, c.c) for e, c in terms))


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, TruncatedSeries):
            p = _series_text(p)
        elif isinstance(p, SeriesMap):
            p = "[" + "/".join(_series_text(c) for c in p.components) + "]"
        elif not isinstance(p, (str, bytes)):
            p = repr(p)
        h.update(p if isinstance(p, bytes) else p.encode())
        h.update(b"\0")
    return h.hexdigest()[:32]


def _residual_text(rep) -> str:
    return repr(sorted(rep.entries.items(), key=lambda kv: repr(kv[0])))


# -- seeded inputs ------------------------------------------------------------


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _coeff(rng, span=3) -> GaussianRational:
    """Gaussian rational whose real and imaginary parts are both nonzero,
    so a term survives symmetrization whatever the seed."""
    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, span),
                        rng.randint(1, 4))
    return GaussianRational(part(), part())


def _joint_context(n):
    return VariableContext(tuple("t%d" % i for i in range(1, n + 1))
                           + tuple("tau%d" % i for i in range(1, n + 1)))


def real_system(shape, values, m, d, order, degree=3, density=0.35):
    """Criterion-1 style real system: i(w_j - xi_j) plus random terms of
    degree 2..degree, symmetrized.  `shape` picks the supports, `values`
    the coefficients."""
    n = m + d
    ctx = _joint_context(n)
    comps = []
    for j in range(d):
        terms = {}
        for e in multidegrees(2 * n, degree):
            if sum(e) >= 2 and shape.random() < density:
                terms[e] = _coeff(values)
        wj = TruncatedSeries.variable(ctx, order, "t%d" % (m + j + 1))
        xij = TruncatedSeries.variable(ctx, order, "tau%d" % (m + j + 1))
        comps.append((wj - xij) * I + TruncatedSeries(ctx, order, terms))
    return RealDefiningSystem.symmetrize(n, d, SeriesMap(comps))


def minimal_system(shape, values, m, d, order):
    """`random_minimal_manifold` shape: i(w - xi) - Levi form plus two
    sparse noise terms of degree 2..3, symmetrized."""
    n = m + d
    ctx = _joint_context(n)
    pool = [e for e in multidegrees(2 * n, 3) if sum(e) >= 2]
    comps = []
    for j in range(d):
        wj = TruncatedSeries.variable(ctx, order, "t%d" % (m + j + 1))
        xij = TruncatedSeries.variable(ctx, order, "tau%d" % (m + j + 1))
        levi = TruncatedSeries.zero(ctx, order)
        for k in range(1, m + 1):
            levi = levi + (TruncatedSeries.variable(ctx, order, "t%d" % k)
                           * TruncatedSeries.variable(ctx, order, "tau%d" % k))
        noise = {}
        for _ in range(2):
            e = pool[shape.randrange(len(pool))]
            noise[e] = noise.get(e, ZERO) + _coeff(values)
        comps.append((wj - xij) * I - levi
                     + TruncatedSeries(ctx, order, noise))
    return RealDefiningSystem.symmetrize(n, d, SeriesMap(comps))


def random_series(ctx, order, shape, values, degree, min_degree=0,
                  density=0.5):
    terms = {e: _coeff(values) for e in multidegrees(ctx.arity, degree)
             if sum(e) >= min_degree and shape.random() < density}
    return TruncatedSeries(ctx, order, terms)


def _model_rho(name):
    """Defining systems of the five model manifolds, as (m, d, rho texts)."""
    return {
        "heisenberg": (1, 1, ["w1 - xi1 - i*z1*zeta1"]),
        "sphere3": (2, 1, ["w1 - xi1 - i*z1*zeta1 - i*z2*zeta2"]),
        "ex121": (2, 1, ["w1 - xi1 - i*z1*zeta1"]),
        "z2zb2": (1, 1, ["w1 - xi1 - i*z1^2*zeta1^2"]),
        "quadric_pair": (1, 2, ["w1 - xi1 - i*z1*zeta1",
                                "w2 - xi2 - i*z1^2*zeta1^2"]),
    }[name]


# Weights of the CR dilations z -> lam z, w_j -> lam^k w_j of each model.
_DILATION_WEIGHTS = {
    "heisenberg": [1, 2], "sphere3": [1, 1, 2], "ex121": [1, 1, 2],
    "z2zb2": [1, 4], "quadric_pair": [1, 2, 4],
}


def _model_system(name, order) -> RealDefiningSystem:
    m, d, rho = _model_rho(name)
    names = manifold.Names(m, d, False)
    ctx = VariableContext(names.t + names.tau)
    return RealDefiningSystem(m + d, d, SeriesMap(
        [parse_expression(text, ctx, order) for text in rho]))


def _lam(values) -> Fraction:
    return Fraction(values.randint(2, 5), values.randint(1, 3))


# -- workload: graph_reality --------------------------------------------------

DIMS = [(1, 1), (2, 1), (1, 2)]


def graph_reality_ops(seed, count=21, order=6):
    ops = []
    for i in range(count):
        m, d = DIMS[i % 3]
        system = real_system(_rng("graph_reality", i),
                             _rng("graph_reality", seed, i), m, d, order)
        ops.append(Op("graph_reality/%02d(%d,%d)" % (i, m, d),
                      _graph_reality_call(system)))
    return ops


def _graph_reality_call(system):
    def call():
        M = manifold.complexify_and_graph(system)
        rep = manifold.verify_reality(M)
        problem = None if rep.ok else "reality fails: %r" % rep
        return Outcome(digest(M.theta_bar, M.theta, rep.ok), problem)
    return call


# -- workload: segre_minimality -----------------------------------------------

# Codimension-2 manifolds run at order 5: at order 6 one such op takes
# 0.2-7 s here, which does not fit several passes into one run.
SEGRE_ORDERS = {(1, 1): 6, (2, 1): 6, (1, 2): 5}


def segre_minimality_ops(seed, count=45):
    ops = []
    for i in range(count):
        m, d = DIMS[i % 3]
        system = minimal_system(_rng("segre_minimality", i),
                                _rng("segre_minimality", seed, i), m, d,
                                SEGRE_ORDERS[(m, d)])
        M = manifold.complexify_and_graph(system)
        ops.append(Op("segre_minimality/%02d(%d,%d)" % (i, m, d),
                      _minimality_call(M)))
    return ops


def check_minimality(rep, m, d):
    """Problems with a minimality report of a manifold minimal by
    construction, as (problem, known kind) or (None, None)."""
    full = 2 * m + d
    ks = sorted(rep.ranks)
    for side in (0, 1):
        seq = [rep.ranks[k][side] for k in ks]
        if any(a > b for a, b in zip(seq, seq[1:])):
            return "chain ranks not monotone: %r" % rep.ranks, None
    if any(rb != ru for rb, ru in rep.ranks.values()):
        return "barred and unbarred ranks differ: %r" % rep.ranks, None
    if any(max(r) > full for r in rep.ranks.values()):
        return ("chain rank above 2m+d=%d: %r" % (full, rep.ranks),
                "truncated-chain-rank")
    if not rep.minimal:
        return ("not minimal, ranks stop below 2m+d=%d: %r"
                % (full, rep.ranks), "truncated-chain-rank")
    if rep.nu0 > d + 1 or not rep.conclusive:
        return "type bound violated: %r" % rep, None
    return None, None


def _minimality_call(M):
    def call():
        rep = segre.minimality(M, kmax=M.d + 2)
        problem, known = check_minimality(rep, M.m, M.d)
        witness = None if rep.mu0_witness is None else [
            (x.a, x.b, x.c) for x in rep.mu0_witness]
        return Outcome(digest(sorted(rep.ranks.items()), rep.nu0,
                              rep.minimal, rep.conclusive, witness),
                       problem, known)
    return call


# -- workload: reflection_resolution ------------------------------------------


def _graph_pair(name, order):
    system = _model_system(name, order)
    return (manifold.complexify_and_graph(system),
            manifold.complexify_and_graph(system, primed=True))


def _dilation(M, Mp, name, lam):
    ctx_t = VariableContext(M.names.t)
    comps = [TruncatedSeries.variable(ctx_t, M.order, v)
             * GaussianRational(lam ** k)
             for v, k in zip(M.names.t, _DILATION_WEIGHTS[name])]
    return reflection.FormalCRMap(SeriesMap(comps), M, Mp)


def reflection_resolution_ops(seed):
    """2 sphere and 4 Heisenberg resolutions, 10 degenerate self-maps with
    their Cramer tables, 12 planted Cramer systems: 28 ops.  The self-maps
    outnumber the much cheaper Cramer solves, so the median op is a
    self-map rather than a 2 ms solve at the mercy of timer noise."""
    values = _rng("reflection_resolution", seed)
    ops = []
    resolutions = [("sphere3", 8, 2, 2), ("heisenberg", 12, 3, 4)]
    for name, order, ell, count in resolutions:
        M, Mp = _graph_pair(name, order)
        for i in range(count):
            lam = Fraction(1) if i == 0 else _lam(values)
            h = _dilation(M, Mp, name, lam)
            ops.append(Op("reflection_resolution/resolve-%s-%s" % (name, lam),
                          _resolution_call(h, ell)))
    _, Mp = _graph_pair("ex121", 8)
    field = nondegen.holomorphic_degeneracy_field(Mp, 4)
    ctx_t = VariableContext(Mp.names.t)
    for i in range(10):
        # The self-map is (z1, z2 + varpi, w1) up to the field's scale; a
        # linear coefficient with nonzero imaginary part keeps it invertible,
        # as q_jbeta_cramer requires.
        varpi = random_series(ctx_t, Mp.order,
                              _rng("reflection_resolution/varpi", i),
                              _rng("reflection_resolution/varpi", seed, i),
                              Mp.order, min_degree=1, density=0.9)
        ops.append(Op("reflection_resolution/selfmap-%02d" % i,
                      _selfmap_call(Mp, field, varpi)))
    ctx = VariableContext(("x", "y"))
    for i in range(12):
        r, rhs, planted, mu = _planted_system(
            ctx, 8, _rng("reflection_resolution/cramer", i),
            _rng("reflection_resolution/cramer", seed, i), i % 3)
        ops.append(Op("reflection_resolution/cramer-%02d(mu=%d)" % (i, mu),
                      _cramer_call(r, rhs, planted, mu)))
    return ops


def _resolution_call(h, ell):
    def call():
        res = reflection.resolve_finitely_nondeg(h, ell0=1)
        rep = res.verification_report()
        jrep = res.jet_identity_report(ell)
        problem = None
        if not rep.ok:
            problem = "solved identity fails: %r" % rep
        elif not jrep.ok:
            problem = "jet identities fail: %r" % jrep
        elif {sum(a) for (_, _, a) in jrep.entries} != set(range(ell + 1)):
            problem = "jet tiers missing: %r" % sorted(jrep.entries)
        return Outcome(digest(res.phi, _residual_text(rep),
                              _residual_text(jrep)), problem)
    return call


def _selfmap_call(Mp, field, varpi):
    def call():
        gen = nondegen.degenerate_selfmap_generator(Mp, field, varpi)
        table = reflection.q_jbeta_cramer(gen, beta_max=3)
        problem = None
        if not table.det_at_zero:
            problem = "Cramer determinant vanishes at 0"
        elif table.defects():
            problem = "Cramer table defects: %r" % table.defects()
        parts = [gen.h]
        for key in sorted(table.entries):
            parts += [repr(key), table.entries[key][0]]
        return Outcome(digest(*parts), problem)
    return call


def _planted_system(ctx, N, shape, values, mu):
    """Criterion 7: a 2x2 system with det = head*(1 + u01 - u01*u10), so
    its valuation is exactly mu."""
    head = TruncatedSeries.monomial(ctx, N, (mu, 0)) if mu else \
        TruncatedSeries.constant(ctx, N, ONE)
    u01 = random_series(ctx, N, shape, values, 2, min_degree=1, density=0.4)
    u10 = random_series(ctx, N, shape, values, 2, min_degree=1, density=0.4)
    r = [[head, u01 * head], [u10, 1 + u01]]
    planted = [random_series(ctx, N, shape, values, 5, density=0.6),
               random_series(ctx, N, shape, values, 5, density=0.6)]
    rhs = [r[i][0] * planted[0] + r[i][1] * planted[1] for i in range(2)]
    return r, rhs, planted, mu


def _cramer_call(r, rhs, planted, mu):
    def call():
        sols, lost = reflection.formal_cramer_solve(r, rhs)
        problem = None
        if lost != mu:
            problem = "lost_order %s != %d" % (lost, mu)
        elif any(got != want.truncated(want.order - mu)
                 for got, want in zip(sols, planted)):
            problem = "planted solution not recovered"
        return Outcome(digest(lost, *sols), problem)
    return call


# -- workload: manifest_analyze -----------------------------------------------

MANIFEST_ANALYSES = [
    {"name": "verify-cr"},
    {"name": "classify-manifold", "kmax": 3},
    {"name": "classify-map"},
    {"name": "psi-conditions", "kmax": 2},
    {"name": "minimality"},
    {"name": "reflection", "Gmax": 3, "betamax": 2},
    {"name": "degeneracy-field", "Dmax": 3},
    {"name": "chains", "k": 2},
]


def manifest_documents(seed, dense=6):
    """The model manifests (five manifolds at order 8, each with three CR
    maps) followed by `dense` seeded dense (1,1) manifests at order 6."""
    values = _rng("manifest_analyze", seed)
    docs = []
    for name in ("heisenberg", "sphere3", "ex121", "z2zb2", "quadric_pair"):
        m, d, rho = _model_rho(name)
        tnames = manifold.Names(m, d, False).t
        maps = [("identity", list(tnames))]
        for i in range(2):
            lam = _lam(values)
            maps.append(("dilation%d" % i, [
                "%s*%s" % (lam ** k, v)
                for v, k in zip(tnames, _DILATION_WEIGHTS[name])]))
        if name == "ex121":
            ctx_t = VariableContext(tnames)
            varpi = random_series(ctx_t, 8, _rng("manifest_analyze/varpi"),
                                  values, 4, min_degree=1, density=0.4)
            maps[-1] = ("varpi", ["z1", str(varpi), "w1"])
        for kind, texts in maps:
            docs.append(("%s-%s" % (name, kind), _manifest(
                8, seed, {"m": m, "d": d, "rho": rho}, texts, d)))
    for i in range(dense):
        system = real_system(_rng("manifest_analyze/dense", i),
                             _rng("manifest_analyze/dense", seed, i),
                             1, 1, 6, density=0.6)
        rho = [str(c) for c in system.rho.components]
        docs.append(("dense-%02d" % i, _manifest(
            6, seed, {"m": 1, "d": 1, "rho": rho}, ["t1", "t2"], 1)))
    return docs


def _manifest(order, seed, source, map_texts, d):
    analyses = [dict(a) for a in MANIFEST_ANALYSES]
    for a in analyses:
        if a["name"] == "minimality":
            a["kmax"] = d + 2
    return {"order": order, "seed": seed, "source": source,
            "map": map_texts, "analyses": analyses}


def manifest_analyze_ops(seed, workdir, dense=6):
    ops = []
    for label, doc in manifest_documents(seed, dense):
        path = os.path.join(workdir, label + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        ops.append(Op("manifest_analyze/" + label,
                      _analyze_call(path, os.path.join(
                          workdir, label + ".report.json"))))
    return ops


def check_report(report: dict):
    """Math checks on a report of a manifest whose map is CR."""
    for item in report["analyses"]:
        name, res = item["name"], item["result"]
        if name == "verify-cr" and not res["ok"]:
            return "verify-cr fails for a CR map"
        if name in ("classify-manifold", "classify-map") \
                and not res["chain_consistent"]:
            return "%s: implication chain violated" % name
        if name == "reflection" and (not res["identities"]["ok"]
                                     or res["reassembly_defect"] is not None):
            return "reflection identities fail for a CR map"
        if name == "chains":
            for side in ("barred", "unbarred"):
                if res[side]["on_manifold_defect"] is not None:
                    return "chain leaves the manifold (%s)" % side
    return None


def _analyze_call(path, out):
    def call():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = crreflect.cli.main(["analyze", path, "--out", out])
        if code != 0:
            msg = err.getvalue().strip()
            known = None
            if code == 3 and "'reflection' failed" in msg \
                    and "no precision left to differentiate" in msg:
                known = "reflection-order0-derive"
            elif code == 3 and "'classify-map' failed: cr chain violated" \
                    in msg and "-varpi" in path:
                known = "map-chain-violated"
            return Outcome(digest(code, msg),
                           "exit code %d: %s" % (code, msg), known, "exit")
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
        return Outcome(digest(data), check_report(json.loads(data)))
    return call


WORKLOADS = {
    "graph_reality": lambda seed, workdir: graph_reality_ops(seed),
    "segre_minimality": lambda seed, workdir: segre_minimality_ops(seed),
    "reflection_resolution":
        lambda seed, workdir: reflection_resolution_ops(seed),
    "manifest_analyze": manifest_analyze_ops,
}
