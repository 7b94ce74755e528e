"""Segre varieties: multiflows, chains, minimality, jets.

Chains are kept as maps (never as point sets): the k-th chain is the
alternating composition of the two CR multiflows starting from the origin,
a series map in the mk multitime variables.  Minimality is decided through
the generic rank of the chains; the classical bound says the type is at
most d+1, so a chain budget of d+2 already decides the question at the
working truncation order.
"""

from __future__ import annotations

import random
from math import comb

from .context import VariableContext, count_multidegrees, multidegrees
from .gaussian import ONE, ZERO
from .linalg import generic_rank, random_rational_point, rank_at
from .manifold import FAMILIES, GraphedManifold, ManifoldError
from .series import (SeriesMap, TruncatedSeries, SeriesError, check_budget,
                     factorial_multi)


def chain_time_names(m: int, k: int):
    return tuple("z%d_%d" % (j, i) for j in range(1, k + 1)
                 for i in range(1, m + 1))


def origin_point(M: GraphedManifold, context: VariableContext, order=None):
    order = order if order is not None else M.order
    zero = TruncatedSeries.zero(context, order)
    return [zero] * (2 * M.n)


def _xi_defect(M: GraphedManifold, p):
    """Valuation of the worst xi - theta(zeta, t) residual at the point p,
    each known to the lesser of the two orders; None when exact."""
    point = dict(zip(M.ctx_joint.names, p))
    worst = None
    for name, expected in zip(M.names.xi, M.solve("xi", point)):
        res = expected - point[name]  # at the lesser of the two orders
        if res:
            v = res.valuation()
            worst = v if worst is None else min(worst, v)
    return worst


def check_on_manifold(M: GraphedManifold, p):
    """Exact membership check: xi components equal theta(zeta, t) to the
    order both are known to."""
    if _xi_defect(M, p) is not None:
        raise ManifoldError("flow base point is off the manifold")


def flow(M: GraphedManifold, field: str, p, time):
    """Multiflow of one of the four tangent families through p.

    `field` is one of 'L', 'Lbar', 'Ups', 'UpsBar'; `time` has m series for
    the CR flows and d for the transversal ones.  The image stays on the
    manifold and time 0 is the identity.
    """
    p = list(p)
    check_on_manifold(M, p)
    return _flow(M, field, p, time)


def _flow(M: GraphedManifold, field: str, p, time):
    """`flow` without the base-point check, for points on M by construction:
    the time moves the family's block (`manifold.FAMILIES`), and the graph
    of its solved block recomposes that one."""
    if field not in FAMILIES:
        raise ValueError("unknown field %r" % field)
    moved, solved = FAMILIES[field]
    moved = getattr(M.names, moved)
    time = list(time)
    if len(time) != len(moved):
        raise ValueError("the %s flow takes %d time components"
                         % (field, len(moved)))
    point = dict(zip(M.ctx_joint.names, p))
    point.update((n, point[n] + s) for n, s in zip(moved, time))
    point.update(zip(getattr(M.names, solved), M.solve(solved, point)))
    return [point[n] for n in M.ctx_joint.names]


class SegreChain:
    """The k-th (conjugate) Segre chain as a map of the multitimes."""

    __slots__ = ("M", "k", "start_side", "components", "context", "order")

    def __init__(self, M, k, start_side, components):
        self.M = M
        self.k = k
        self.start_side = start_side
        self.components = components
        self.context = components.context
        self.order = components.order

    def on_manifold_defect(self):
        """Valuation of the worst xi - theta residual; None when exact."""
        return _xi_defect(self.M, self.components.components)

    def conjugate(self) -> "SegreChain":
        """The chain of the other parity: t and tau blocks swapped,
        coefficients conjugated.  Exact, as the two graphs of M, hence the
        L and Lbar flows, are a conjugate-swapped pair."""
        n = self.M.n
        comps = self.components.components
        other = "unbarred" if self.start_side == "barred" else "barred"
        return SegreChain(self.M, self.k, other,
                          SeriesMap(comps[n:] + comps[:n]).conjugate())

    def restricted_to_shorter(self, k2: int) -> "SegreChain":
        """Set the trailing time blocks to zero: the length-k2 prefix chain."""
        if k2 > self.k:
            raise ValueError("cannot extend a chain by restriction")
        m = self.M.m
        sub = VariableContext(chain_time_names(m, k2))
        zero = TruncatedSeries.zero(sub, self.order)
        args = []
        for name in self.context.names:
            step = int(name.split("_")[0][1:])
            if step <= k2:
                args.append(TruncatedSeries.variable(sub, self.order, name))
            else:
                args.append(zero)
        return SegreChain(self.M, k2, self.start_side,
                          self.components.compose(args))

    def __repr__(self):
        return "SegreChain(k=%d, %s, order=%d)" % (
            self.k, self.start_side, self.order)


DEFAULT_CHAIN_BUDGET = 5_000_000


def chain(M: GraphedManifold, k: int, start_side: str = "barred",
          budget: int = DEFAULT_CHAIN_BUDGET) -> SegreChain:
    """Alternating flow composition from the origin (Gamma or conjugate).

    Cost grows combinatorially in k*m and the order; `budget` caps the
    number of potential monomials of one chain component.
    """
    check_budget("chain", M.order, k=k)
    if start_side not in ("barred", "unbarred"):
        raise ValueError("start_side must be 'barred' or 'unbarred'")
    _check_chain_budget(M, k, budget)
    *_, last = _chains(M, k, start_side, budget)
    return last


def _check_chain_budget(M: GraphedManifold, k: int, budget: int):
    if count_multidegrees(M.m * k, M.order) > budget:
        raise SeriesError(
            "chain budget exceeded: %d time variables at order %d"
            % (M.m * k, M.order))


def _chains(M: GraphedManifold, kmax: int, start_side: str, budget: int):
    """Yield the chains of lengths 1..kmax, each one extending the last.

    The chain of length k is the one of length k-1 remapped into the k-th
    time context, then one more flow.  The remap is exact: the same
    polynomials are truncated at the same total degree.  The origin is on
    the manifold and every flow keeps the point on it, so no step
    re-checks its base point.  The budget is checked for each k just
    before its flow, so a caller that stops early never pays for a longer
    chain.
    """
    first_barred = (start_side == "barred")
    p = None
    for k in range(1, kmax + 1):
        _check_chain_budget(M, k, budget)
        ctx = VariableContext(chain_time_names(M.m, k))
        p = (origin_point(M, ctx) if p is None
             else [c.remapped(ctx) for c in p])
        time = [TruncatedSeries.variable(ctx, M.order, "z%d_%d" % (k, i))
                for i in range(1, M.m + 1)]
        barred_step = (k % 2 == 1) == first_barred
        p = _flow(M, "Lbar" if barred_step else "L", p, time)
        yield SegreChain(M, k, start_side, SeriesMap(p))


class MinimalityReport:
    __slots__ = ("minimal", "nu0", "ranks", "mu0_witness", "kmax", "order",
                 "conclusive")

    def __init__(self, minimal, nu0, ranks, mu0_witness, kmax, order,
                 conclusive):
        self.minimal = minimal
        self.nu0 = nu0
        self.ranks = ranks
        self.mu0_witness = mu0_witness
        self.kmax = kmax
        self.order = order
        self.conclusive = conclusive

    def __repr__(self):
        return ("MinimalityReport(minimal=%s, nu0=%s, ranks=%s, "
                "witness=%s, kmax=%d, order=%d)" % (
                    self.minimal, self.nu0, self.ranks,
                    self.mu0_witness is not None, self.kmax, self.order))


def minimality(M: GraphedManifold, kmax=None, seed: int = 0) -> MinimalityReport:
    """Decide minimality through chain generic ranks (at truncation order).

    nu0 is the smallest nu with generic rank 2m+d for the chains of length
    nu+1 of both parities; since the type never exceeds d+1, the default
    budget 2(d+1)+1 settles the question and leaves room for the witness
    search on the chain of length 2 nu0 + 1.

    Only the barred chain is ranked; `ranks[k]` repeats its rank for both
    parities.  The unbarred chain is its conjugate with the t/tau blocks
    swapped (`SegreChain.conjugate`, exact given the reality pairing; the
    tests compare it with the flow-built unbarred chain), and neither
    conjugation nor a row permutation changes the Bareiss rank or the rank
    at a real rational point.

    Past nu0 no chain is ranked: its rank is 2m+d, since the rank never
    drops as k grows (Gamma_{k+1}(z_1..z_k, 0) = Gamma_k(z_1..z_k), so J_k
    is a column block of J_{k+1} on z_{k+1} = 0) and never exceeds 2m+d,
    the dimension of the complexified manifold.
    """
    if kmax is None:
        kmax = 2 * (M.d + 1) + 1
    check_budget("minimality", M.order, kmax=kmax)
    full = 2 * M.m + M.d
    ranks = {}
    chains_b = {}
    nu0 = None
    for gb in _chains(M, kmax, "barred", DEFAULT_CHAIN_BUDGET):
        k = gb.k
        chains_b[k] = gb
        r = full if nu0 is not None else generic_rank(gb.components, seed=seed)
        ranks[k] = (r, r)
        if nu0 is None and r == full:
            nu0 = k - 1
        if nu0 is not None and k >= 2 * nu0 + 1:
            break
    minimal = nu0 is not None
    conclusive = minimal or kmax >= M.d + 2
    witness = None
    if minimal:
        mu0 = 2 * nu0 + 1
        if mu0 <= max(chains_b):
            witness = _zero_fiber_witness(M, chains_b[mu0], nu0, seed)
    return MinimalityReport(minimal, nu0, ranks, witness, kmax, M.order,
                            conclusive)


def _zero_fiber_witness(M, gamma, nu0, seed, attempts=8):
    """Sample mirrored multitimes (a_1..a_nu, 0, -a_nu..-a_1): they retrace
    the flows, so they always land in the zero fiber; test full Jacobian
    rank there at seeded random rational parameters."""
    rng = random.Random(seed)
    m = M.m
    jac = gamma.components.jacobian()
    for _ in range(attempts):
        a = random_rational_point(m * nu0, rng)
        point = list(a)
        point += [ZERO] * m
        for j in range(nu0 - 1, -1, -1):
            point += [-x for x in a[j * m:(j + 1) * m]]
        values = gamma.components.evaluate(point)
        if any(values):
            raise AssertionError("mirrored multitime left the zero fiber")
        rank = rank_at(jac, point)
        if rank == 2 * M.m + M.d:
            return point
    return None


class JetMapData:
    """The order-k jet map of the conjugate Segre varieties.

    Components over (zeta', z', w'): first the m' plain zeta' variables,
    then (1/beta'!) d^beta'/d zeta'^beta' theta'_j for every j and every
    |beta'| <= k, with beta' in canonical graded order inside each j.
    """

    __slots__ = ("M", "k", "components", "betas")

    def __init__(self, M, k, components, betas):
        self.M = M
        self.k = k
        self.components = components
        self.betas = betas

    def __repr__(self):
        return "JetMapData(k=%d, %d components)" % (
            self.k, len(self.components.components))


def segre_jet_map(M: GraphedManifold, k: int) -> JetMapData:
    """phi'_k: (zeta, t) -> (zeta, normalized zeta-jets of theta)."""
    check_budget("segre_jet_map", M.order, k=k)
    out_order = M.order - k
    ctx = M.ctx_theta
    comps = [TruncatedSeries.variable(ctx, out_order, n) for n in M.names.zeta]
    betas = list(multidegrees(M.m, k))
    for j in range(M.d):
        for beta in betas:
            exp = tuple(beta) + (0,) * M.n
            df = M.theta[j].derive_multi(exp)
            scale = ONE / factorial_multi(beta)
            comps.append((df * scale).truncated(out_order))
    expected = M.m + M.d * comb(M.m + k, k)
    assert len(comps) == expected
    return JetMapData(M, k, SeriesMap(comps), betas)
