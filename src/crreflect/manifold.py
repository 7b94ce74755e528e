"""Generic submanifolds in complexified graphed form.

A manifold enters as a real defining system rho(t, conj t) = 0.  Replacing
the conjugated variables by independent ones and solving for the transversal
coordinates produces the graphed equations xi = Theta(zeta, t), equivalently
w = ThetaBar(z, tau), which are the fundamental data everything else in the
package consumes.  The two graphs are coefficient-conjugates of one another,
and theta_bar(z, zeta, theta(zeta, z, w)) == w.

That reality invariant is checked where it enters and carried from there.
`RealDefiningSystem` checks a defining system coefficient by coefficient, and
`verify_reality` checks a graph supplied from outside: the `GraphedManifold`
constructor and `from_theta_bar`/`from_theta` run it by default.  A graph the
package derives from a real one is real by theorem, and is built with
`check=False`: `complexify_and_graph` (rho is real and the formal implicit
solve is unique), `GraphedManifold.primed` (a renaming) and
`reflection.transform_target` (the image under a biholomorphism).

Variable conventions (unprimed source, primed target via the `primed` flag):
z1..zm, w1..wd are the t-coordinates, zeta1..zetam, xi1..xid the tau-ones;
the primed alphabet is zp, wp, zetap, xip.  `GraphedManifold.primed()`
renames a graphed manifold into it without graphing it again.
The joint context used by derivations is ordered (z, w, zeta, xi).

One pair of tables says how the four blocks hang together.  `GRAPHS` sends
each transversal block to the graph that solves it: xi to theta over
(zeta, z, w), w to theta_bar over (z, zeta, xi).  `FAMILIES` sends each
tangent family to the block it moves and the block it solves:

    L: z, solving w      Lbar: zeta, solving xi
    Ups: w, solving xi   UpsBar: xi, solving w

The field of a family along a moved coordinate a is d/da plus, for each
solved coordinate, the a-derivative of its graph; the family's flow adds
the time to the moved block and recomposes the solved one.  `SIDES` lists
the substitutions of `GraphedManifold.restrict` in the same terms.

`fields(M, family)` builds a family's fields as `Derivation`s.  On a
context that also holds jet symbols they apply by the chain rule, with the
total derivative, so the lift to the jets is never built.
"""

from __future__ import annotations

from .context import VariableContext, multidegrees, numbered
from .gaussian import GaussianRational, I, ONE, ZERO
from .kernels import echelon, iadd_scaled
from .linalg import numeric_rank
from .series import (SeriesMap, TruncatedSeries, SeriesError, check_budget,
                     formal_ift, jacobian_at_zero)


class ManifoldError(ValueError):
    pass


# block -> (the graph that solves it, the blocks that graph is a series in)
GRAPHS = {"xi": ("theta", ("zeta", "z", "w")),
          "w": ("theta_bar", ("z", "zeta", "xi"))}

# tangent family -> (the block it moves, the block its graph then solves)
FAMILIES = {"L": ("z", "w"), "Lbar": ("zeta", "xi"),
            "Ups": ("w", "xi"), "UpsBar": ("xi", "w")}

# side of `GraphedManifold.restrict` -> (kept blocks, zeroed blocks, the
# block solved by its graph over them)
SIDES = {"xi": (("z", "w", "zeta"), (), "xi"),
         "w": (("z", "zeta", "xi"), (), "w"),
         "leaf": (("z",), ("zeta", "xi"), "w"),
         "leaf_bar": (("zeta",), ("z", "w"), "xi"),
         "zeta0": (("z", "w"), ("zeta",), "xi")}


def _swap_map_for(names, n: int):
    """The renaming that swaps names[i] and names[n + i] for i < n, the
    conjugation of roles t <-> tau."""
    t, tau = names[:n], names[n:]
    return {**dict(zip(t, tau)), **dict(zip(tau, t))}


class Names:
    """Coordinate name bundle for one manifold."""

    __slots__ = ("z", "w", "zeta", "xi")

    def __init__(self, m, d, primed=False):
        p = "p" if primed else ""
        self.z = numbered("z" + p, m)
        self.w = numbered("w" + p, d)
        self.zeta = numbered("zeta" + p, m)
        self.xi = numbered("xi" + p, d)

    @property
    def t(self):
        return self.z + self.w

    @property
    def tau(self):
        return self.zeta + self.xi

    def blocks(self, *blocks):
        """The names of the listed blocks, in that order."""
        return tuple(n for b in blocks for n in getattr(self, b))

    def graph_context(self, block):
        """The context of the graph that solves `block`."""
        return VariableContext(self.blocks(*GRAPHS[block][1]))

    def swap_map(self):
        """Renaming that conjugates roles: z <-> zeta, w <-> xi."""
        return _swap_map_for(self.t + self.tau, len(self.t))


class RealDefiningSystem:
    """d real-analytic defining series in complexified form.

    The context of `rho` must list the n t-coordinates first and their
    complexified conjugates second, in matching order.  Reality means
    rho_j(t, tau) == conj-coefficients of rho_j with the two blocks swapped.
    Components satisfying the identity with a minus sign (the usual way
    equations like w = conj(w) + i*z*conj(z) are written) describe the same
    zero set after multiplication by i; they are normalized on input.
    """

    def __init__(self, n, d, rho: SeriesMap):
        if len(rho.components) != d:
            raise ManifoldError("expected %d defining series" % d)
        if rho.arity != 2 * n:
            raise ManifoldError("context must hold t and tau (%d variables)"
                                % (2 * n))
        if any(rho.constant_terms()):
            raise ManifoldError("defining series must vanish at 0")
        self.n = n
        self.d = d
        swap = _swap_map_for(rho.context.names, n)
        comps = []
        for j, r in enumerate(rho.components):
            flipped = r.conjugate_swapped(swap)
            if flipped == r:
                comps.append(r)
            elif flipped == -r:
                comps.append(r * I)
            else:
                raise ManifoldError(
                    "defining system is not real (component %d)" % j)
        self.rho = SeriesMap(comps)

    def reality_defect(self):
        """Index of the first component violating (normalized) reality."""
        swap = _swap_map_for(self.rho.context.names, self.n)
        for j, r in enumerate(self.rho.components):
            if r.conjugate_swapped(swap) != r:
                return j
        return None

    @staticmethod
    def symmetrize(n, d, rho: SeriesMap) -> "RealDefiningSystem":
        """Project arbitrary series onto real ones:
        rho -> (rho + swapped conjugate)/2.  Used to manufacture test data.
        """
        swap = _swap_map_for(rho.context.names, n)
        half = GaussianRational(1) / 2
        comps = [(r + r.conjugate_swapped(swap)) * half
                 for r in rho.components]
        return RealDefiningSystem(n, d, SeriesMap(comps))


class GraphedManifold:
    """Complexified generic submanifold in graphed form.

    theta: d series over (zeta, z, w);  theta_bar: d series over (z, zeta, xi).
    The pair is articulated by the reality involution
    theta_bar(z, zeta, theta(zeta, z, w)) == w (mod degree order+1).
    """

    def __init__(self, m, d, theta: SeriesMap, theta_bar: SeriesMap,
                 names: Names, *, check=True):
        self.m = m
        self.d = d
        self.n = m + d
        self.names = names
        self.theta = theta
        self.theta_bar = theta_bar
        self.order = theta.order
        self.ctx_theta = names.graph_context("xi")
        self.ctx_theta_bar = names.graph_context("w")
        self.ctx_joint = VariableContext(names.z + names.w + names.zeta + names.xi)
        self._restrictions = {}
        if theta.context != self.ctx_theta:
            raise ManifoldError("theta context must be (zeta, z, w)")
        if theta_bar.context != self.ctx_theta_bar:
            raise ManifoldError("theta_bar context must be (z, zeta, xi)")
        if check:
            if len(theta) != d or len(theta_bar) != d \
                    or theta_bar.order != self.order:
                raise ManifoldError("theta and theta_bar need %d series "
                                    "at one order" % d)
            if any(theta.constant_terms()) or any(theta_bar.constant_terms()):
                raise ManifoldError("graph series must vanish at 0")
            rep = verify_reality(self)
            if not rep.ok:
                raise ManifoldError(
                    "reality involution fails at degree %s" % rep.first_failing_degree)

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_theta_bar(cls, m, d, theta_bar: SeriesMap, *, primed=False,
                       check=True) -> "GraphedManifold":
        return cls._from_graph(m, d, "w", theta_bar, primed, check)

    @classmethod
    def from_theta(cls, m, d, theta: SeriesMap, *, primed=False,
                   check=True) -> "GraphedManifold":
        return cls._from_graph(m, d, "xi", theta, primed, check)

    @classmethod
    def _from_graph(cls, m, d, block, graph, primed, check):
        """The manifold whose graph of `block` is `graph`; the other graph
        is its conjugate with the blocks swapped."""
        names = Names(m, d, primed)
        ctx = names.graph_context(block)
        if graph.context != ctx:
            graph = graph.remapped(ctx)
        other = "w" if block == "xi" else "xi"
        ctx_other = names.graph_context(other)
        graphs = {block: graph, other: SeriesMap([
            g.conjugate_swapped(names.swap_map(), ctx_other) for g in graph])}
        return cls(m, d, graphs["xi"], graphs["w"], names, check=check)

    def primed(self) -> "GraphedManifold":
        """The same manifold in the primed alphabet: theta and theta_bar
        renamed block-wise, z -> zp, w -> wp, zeta -> zetap, xi -> xip.
        Renaming keeps the reality pairing, checked when this manifold was
        built, so the copy is built with `check=False`."""
        names = Names(self.m, self.d, True)
        rename = dict(zip(self.ctx_joint.names,
                          names.blocks("z", "w", "zeta", "xi")))
        return GraphedManifold(
            self.m, self.d,
            self.theta.remapped(names.graph_context("xi"), rename),
            self.theta_bar.remapped(names.graph_context("w"), rename),
            names, check=False)

    # -- restriction to the manifold ----------------------------------------

    @property
    def ctx_restrict_xi(self):
        """Context after substituting xi := theta: (z, w, zeta)."""
        return self._restriction("xi")[0]

    @property
    def ctx_restrict_w(self):
        """Context after substituting w := theta_bar: (z, zeta, xi)."""
        return self._restriction("w")[0]

    def graph(self, block) -> SeriesMap:
        """The graph that solves `block` ('xi' or 'w')."""
        return getattr(self, GRAPHS[block][0])

    def solve(self, block, values) -> list:
        """The graph of `block` at `values`, a map from each of its
        argument names to a series."""
        graph = self.graph(block)
        args = [values[n] for n in graph.context.names]
        return [g.compose(args) for g in graph]

    def _restriction(self, side):
        """(target context, {coordinate: series over the target}) of one
        side, built on first use and kept: the manifold never changes."""
        got = self._restrictions.get(side)
        if got is not None:
            return got
        if side not in SIDES:
            raise ValueError("side must be one of %s"
                             % ", ".join(map(repr, SIDES)))
        kept, zeroed, solved = SIDES[side]
        nm = self.names
        target = VariableContext(nm.blocks(*kept))
        table = {n: TruncatedSeries.variable(target, self.order, n)
                 for n in target.names}
        table.update((n, TruncatedSeries.zero(target, self.order))
                     for n in nm.blocks(*zeroed))
        table.update(zip(nm.blocks(solved), self.solve(solved, table)))
        got = self._restrictions[side] = (target, table)
        return got

    def restrict(self, f, side: str, extra=None):
        """Put a series on the complexified manifold by substituting one of
        its graphed equations.

        side='xi' replaces xi by theta(zeta, z, w), giving a series over
        (z, w, zeta); side='w' replaces w by theta_bar(z, zeta, xi), over
        (z, zeta, xi).  side='leaf' restricts to the Segre leaf through 0,
        zeta = xi = 0 and w = theta_bar(z, 0, 0), over (z); 'leaf_bar' is
        its conjugate, z = w = 0 and xi = theta(zeta, 0, 0), over (zeta).
        side='zeta0' sets zeta = 0 and xi = theta(0, z, w), over (z, w).
        `f` may live in any context made of the manifold's coordinates and
        of names that `extra` maps to series over the target context.  The
        result is exact to the least order of `f`, the manifold and the
        `extra` series used.  Maps restrict componentwise.
        """
        if isinstance(f, SeriesMap):
            return SeriesMap([self.restrict(c, side, extra)
                              for c in f.components])
        _, table = self._restriction(side)
        extra = extra or {}
        args = []
        for n in f.context.names:
            if n in extra:
                args.append(extra[n])
            elif n in table:
                args.append(table[n])
            else:
                raise ValueError("cannot restrict: %r is not a coordinate "
                                 "of the manifold" % n)
        return f.compose(args)

    def __repr__(self):
        return "GraphedManifold(m=%d, d=%d, order=%d)" % (self.m, self.d, self.order)


class RealityReport:
    __slots__ = ("ok", "first_failing_degree")

    def __init__(self, ok, first_failing_degree=None):
        self.ok = ok
        self.first_failing_degree = first_failing_degree

    def __repr__(self):
        if self.ok:
            return "RealityReport(ok)"
        return "RealityReport(fails at degree %s)" % self.first_failing_degree


def verify_reality(M: GraphedManifold) -> RealityReport:
    """Check the reality involution: theta_bar == conj-swap(theta) by
    coefficients and theta_bar(z, zeta, theta) == w by substitution,
    reporting the smallest valuation of both residuals.  The reverse
    substitution is not run: given the pairing, its residual is exactly the
    conjugate-swap of the forward one, so this is sound for a manifold
    built with `check=False` too."""
    swap = M.names.swap_map()
    residuals = [th.conjugate_swapped(swap, M.ctx_theta_bar) - tb
                 for th, tb in zip(M.theta, M.theta_bar)]
    residuals += [M.restrict(tb, "xi")
                  - TruncatedSeries.variable(M.ctx_restrict_xi, M.order, w)
                  for w, tb in zip(M.names.w, M.theta_bar)]
    vals = [r.valuation() for r in residuals if r]
    worst = min(vals) if vals else None
    return RealityReport(worst is None, worst)


def complexify_and_graph(system: RealDefiningSystem, split=None,
                         *, primed=False) -> GraphedManifold:
    """Solve the complexified defining system for the transversal block.

    `split`, when given, lists the d indices (into the t-coordinates) used
    as w; otherwise greedy column pivoting on d rho/d t(0) picks them.

    The graph is real by construction and is not checked again.  rho is
    real (`RealDefiningSystem` checked it), so the conjugate-swap of
    rho(z, theta_bar, zeta, xi) = 0 is rho(z, w, zeta, theta) = 0, with
    theta the conjugate-swap of theta_bar.  Then w and theta_bar(z, zeta,
    theta) both solve rho(z, ., zeta, theta) = 0 for the w-block, and a
    formal implicit solution is unique.
    """
    check_budget("complexify_and_graph", system.rho.order)
    n, d = system.n, system.d
    jac = jacobian_at_zero(system.rho.components, range(n))
    if split is None:
        split = echelon([dict(enumerate(row)) for row in jac])[0]
        if len(split) < d:
            raise ManifoldError(
                "manifold is not generic: rank d rho/d t(0) = %d < %d"
                % (len(split), d))
    else:
        split = list(split)
        block = [[jac[r][c] for c in split] for r in range(d)]
        if numeric_rank(block) < d:
            raise ManifoldError("supplied split has singular transversal block")
    m = n - d
    names = Names(m, d, primed)
    z_pos = [i for i in range(n) if i not in set(split)]

    # Rename rho into the split coordinates, joint context (z, w, zeta, xi).
    old = system.rho.context.names
    rename = {}
    for k, i in enumerate(z_pos):
        rename[old[i]] = names.z[k]
        rename[old[n + i]] = names.zeta[k]
    for k, i in enumerate(split):
        rename[old[i]] = names.w[k]
        rename[old[n + i]] = names.xi[k]
    ctx_joint = VariableContext(names.z + names.w + names.zeta + names.xi)
    rho = system.rho.remapped(ctx_joint, rename)
    try:
        theta_bar = formal_ift(rho, list(names.w))
    except SeriesError as exc:
        raise ManifoldError("implicit solve for the graph failed: %s" % exc)
    return GraphedManifold.from_theta_bar(m, d, theta_bar, primed=primed,
                                          check=False)


class Derivation:
    """First-order operator  sum_v coeff_v * D_v  on a fixed context.

    Coefficients are series over the same context, or plain numbers;
    missing entries mean 0.  D_v is d/dx_v, except for a dependency variable
    v of the `JetSymbols` block `jets`: there it is the total derivative
    (Olver, Applications of Lie Groups to Differential Equations, 1986,
    section 2.3), D_v f = df/dv + sum (const + u)_{c,alpha+e_v}
    df/du_{c,alpha} over the symbols below the top level.  So the
    derivation acts as its lift to the jets, and the lift is never built.
    """

    __slots__ = ("context", "coeffs", "label", "jets", "_top", "_rises")

    def __init__(self, context: VariableContext, coeffs: dict, label="",
                 jets=None):
        self.context = context
        self.coeffs = {key if isinstance(key, int) else context.index(key): c
                       for key, c in coeffs.items()}
        self.label = label
        self.jets = jets
        # context indices: the top-level symbols, and for each dependency
        # variable v the (u_{c,alpha}, u_{c,alpha+e_v}, const) it raises
        self._top, self._rises = set(), {}
        if jets is None:
            return
        index = context.index
        for c in range(jets.n_components):
            for alpha in jets.alphas:
                u = index(jets.name(c, alpha))
                if sum(alpha) == jets.level:
                    self._top.add(u)
                    continue
                for slot, v in enumerate(jets.dep_names):
                    up = alpha[:slot] + (alpha[slot] + 1,) + alpha[slot + 1:]
                    self._rises.setdefault(index(v), []).append(
                        (u, index(jets.name(c, up)), jets.constant(c, up)))

    def apply(self, f: TruncatedSeries) -> TruncatedSeries:
        """sum_v coeff_v * D_v f, each series coefficient cut to the order
        f.order - 1 of D_v f, which is the order of the result unless a
        coefficient's is less.  Raises SeriesError when f involves a
        top-level jet symbol, when the derivation has no coefficient and
        when f has no precision left, checked in that order.
        """
        if f.context != self.context:
            f = f.remapped(self.context)
        if self._top & f.support_variables():
            raise SeriesError(
                "operand involves jet symbols beyond the lifted level")
        if not self.coeffs:
            raise SeriesError("empty derivation")
        out = None
        for i, c in self.coeffs.items():
            df = self._derive(f, i)
            if isinstance(c, TruncatedSeries):
                c = c.truncated(df.order)
            piece = df * c
            out = piece if out is None else out + piece
        return out

    def _derive(self, f, i):
        """D_i f by rewriting terms: for each (u, up, const) that x_i
        raises, a term k x^e with p = e[u] > 0 adds p k x^(e - e_u) (const
        + x_up), cut to the order f.order - 1."""
        df = f.derive(i)
        extra = {}
        for u, up, const in self._rises.get(i, ()):
            for e, k in f.terms.items():
                p = e[u]
                if p:
                    low = e[:u] + (p - 1,) + e[u + 1:]
                    high = low[:up] + (low[up] + 1,) + low[up + 1:]
                    for key, c in ((low, const), (high, ONE)):
                        if c and sum(key) <= df.order:
                            extra[key] = extra.get(key, ZERO) + k * p * c
        iadd_scaled(df.terms, {e: c for e, c in extra.items() if c}, ONE)
        return df

    def __repr__(self):
        return "Derivation(%s)" % (self.label or "?")


def fields(M: GraphedManifold, family: str, context=None, jets=None):
    """The derivations of one tangent family, one per moved coordinate a:
    d/da plus, on each solved coordinate, the a-derivative of its graph.
    They live on `context` (the joint one by default), which holds the
    `jets` block when given."""
    moved, solved = FAMILIES[family]
    context = context or M.ctx_joint
    out = []
    for a in getattr(M.names, moved):
        coeffs = {a: ONE}
        coeffs.update((b, g.derive(a).remapped(context))
                      for b, g in zip(getattr(M.names, solved),
                                      M.graph(solved)))
        out.append(Derivation(context, coeffs, label="%s_%s" % (family, a),
                              jets=jets))
    return out


# -- formal jet symbols ------------------------------------------------------


class JetSymbols:
    """Formal variables u_{c,alpha} standing for the strict jet values
    (d^alpha phi_c)(y) - (d^alpha phi_c)(0) of an unknown map phi in the
    variables `dep_names`, up to |alpha| <= level.

    `constants[c][alpha]` holds the jet of the concrete map at 0 so that
    derivations can rebuild (d^alpha phi_c)(y) = constant + symbol.
    """

    def __init__(self, prefix, n_components, dep_names, level, constants=None):
        self.prefix = prefix
        self.n_components = n_components
        self.dep_names = tuple(dep_names)
        self.level = level
        self.alphas = list(multidegrees(len(self.dep_names), level))
        self.names = tuple(
            "%s%d_%s" % (prefix, c + 1, "_".join(map(str, a)))
            for c in range(n_components) for a in self.alphas)
        self.constants = constants or {}

    def name(self, comp, alpha):
        return "%s%d_%s" % (self.prefix, comp + 1, "_".join(map(str, alpha)))

    def constant(self, comp, alpha) -> GaussianRational:
        return self.constants.get((comp, tuple(alpha)), ZERO)

    def jet_series(self, comp, alpha, context, order):
        """constant + symbol, as a series over `context`."""
        base = TruncatedSeries.constant(context, order, self.constant(comp, alpha))
        return base + TruncatedSeries.variable(context, order, self.name(comp, alpha))
