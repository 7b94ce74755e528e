"""The precision budget: every bounded entry point against its rule in
`series.PRECISION_BUDGET`, on the model manifolds and their identity maps.

A call either returns, or is refused with `SeriesError` before it
differentiates or composes anything, exactly where the table refuses it.
The results of the calls that return are pinned in
`precision_budget_pins.json`, one digest per (model, order, entry point,
bound), recorded on the code before the checks moved into the table: a
call that returned then returns the same now, but for the one stated
change.  `PYTHONPATH=src python tests/test_budget.py` prints the pins
afresh.
"""

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import (make_ex121, make_flat, make_heisenberg, make_sphere3,
                      make_z2zb2)
from crreflect import nondegen, reflection, segre, series
from crreflect.context import VariableContext
from crreflect.gaussian import GaussianRational
from crreflect.manifest import ANALYSES, Manifest, ManifestError
from crreflect.manifold import GraphedManifold
from crreflect.reflection import FormalCRMap, ReflectionError
from crreflect.series import SeriesError, SeriesMap, TruncatedSeries

PINS = Path(__file__).with_name("precision_budget_pins.json")
ORDERS = range(6)
MODELS = {
    "heisenberg": make_heisenberg,
    "sphere3": make_sphere3,
    "z2zb2": make_z2zb2,
    "flat": make_flat,
    "ex121": make_ex121,
}


@lru_cache(maxsize=None)
def model(label, order, primed):
    """The model at `order`; at order 0, which no `rho` can be graphed at,
    the order-1 graph truncated to order 0."""
    if order:
        return MODELS[label](order, primed=primed)
    M = MODELS[label](1, primed=primed)
    return GraphedManifold.from_theta_bar(
        M.m, M.d, SeriesMap([c.truncated(0) for c in M.theta_bar]),
        primed=primed)


def cases(label, order):
    """(entry point, the input's order, bounds at their defaults, extra
    budget arguments, call taking the bounds) for every entry point of
    the table."""
    M, Mp = model(label, order, False), model(label, order, True)

    def h():
        return FormalCRMap(SeriesMap.identity(VariableContext(M.names.t),
                                              order), M, Mp)

    gens = h().horizontal_part().components
    table = {(j, g): s for j, tab in
             enumerate(reflection.target_component_tables(Mp)[0])
             for g, s in tab.items()}
    ctx_tp = VariableContext(Mp.names.t)
    zeta = [TruncatedSeries.variable(ctx_tp, order, n) for n in Mp.names.z]
    out = [
        ("classify_manifold", order, {"kmax": min(order - 1, 4), "dmax": 4},
         {}, lambda b: nondegen.classify_manifold(Mp, **b)),
        ("classify_map_cr", order, {"dmax": 4}, {},
         lambda b: nondegen.classify_map_cr(h(), **b)),
        ("psi_table", order, {"beta_max": 1}, {},
         lambda b: nondegen.psi_table(h(), **b)),
        ("psi_and_h_conditions", order, {"kmax": min(order - 1, 2)}, {},
         lambda b: nondegen.psi_and_h_conditions(h(), **b)),
        ("ideal_contains_power_of_maximal", None, {"dmax": 4}, {},
         lambda b: nondegen.ideal_contains_power_of_maximal(gens, **b)),
        ("holomorphic_degeneracy_field", order, {"dmax": 4}, {},
         lambda b: nondegen.holomorphic_degeneracy_field(Mp, **b)),
        ("reflection_components", order, {"gmax": order}, {},
         lambda b: reflection.reflection_components(h(), **b)),
        ("reflection_identities", order, {"beta_max": 1}, {},
         lambda b: reflection.reflection_identities(h(), **b)),
        ("q_jbeta_cramer", order, {"beta_max": 1}, {},
         lambda b: reflection.q_jbeta_cramer(h(), **b)),
        ("forward_expansion", None, {"bmax": 1}, {},
         lambda b: reflection.forward_expansion(table, zeta, Mp.m, **b)),
        ("invert_expansion", None, {"bmax": 1}, {},
         lambda b: reflection.invert_expansion(table, zeta, Mp.m, **b)),
        ("transversality_kernel", order, {"degree": 4, "nwork": order}, {},
         lambda b: reflection.transversality_kernel(h(), **b)),
        ("resolve_finitely_nondeg", order, {"ell0": 1}, {},
         lambda b: reflection.resolve_finitely_nondeg(h(), **b)),
        ("composed_jet_table", order, {"depth": 1}, {},
         lambda b: reflection.composed_jet_table(h(), **b)),
        ("chain", order, {"k": 2}, {}, lambda b: segre.chain(M, **b)),
        ("minimality", order, {"kmax": 2 * (M.d + 1) + 1}, {},
         lambda b: segre.minimality(M, **b)),
        ("segre_jet_map", order, {"k": 1}, {},
         lambda b: segre.segre_jet_map(Mp, **b)),
        ("complexify_and_graph", order, {}, {},
         lambda b: MODELS[label](order)),
    ]
    if order >= 2 and label in ("heisenberg", "sphere3"):
        res = reflection.resolve_finitely_nondeg(h(), ell0=1)
        out.append(("jet_identity_report", order, {"ell": 1}, {"ell0": 1},
                    lambda b: res.jet_identity_report(**b)))
    return out


def calls(label, order):
    """(entry point, bound, value, input order, all budget arguments, call)
    for each bound from -1 to order + 2, the others at their defaults; an
    entry point with no bound is called once, under the bound 'order'."""
    for entry, top, defaults, extra, call in cases(label, order):
        if not defaults:
            yield entry, "order", order, top, {}, (lambda c=call: c({}))
        for bound in defaults:
            for value in range(-1, order + 3):
                b = dict(defaults, **{bound: value})
                yield (entry, bound, value, top, dict(b, **extra),
                       lambda c=call, b=b: c(b))


# -- result digests --------------------------------------------------------------

FIELDS = {
    "Verdict": ("status", "k0", "bound", "witness"),
    "ManifoldClassification": ("chain", "kmax", "dmax", "order"),
    "MapClassification": ("cr_chain", "h1", "h2", "h3", "h4", "ell0"),
    "ResidualReport": ("entries",),
    "ReflectionComponents": ("gmax", "table"),
    "CramerTable": ("det_at_zero", "entries"),
    "Resolution": ("ell0", "phi", "rows_used", "residuals"),
    "JetMapData": ("k", "components", "betas"),
    "SegreChain": ("k", "start_side", "components"),
    "MinimalityReport": ("minimal", "nu0", "ranks", "mu0_witness", "kmax",
                         "order", "conclusive"),
    "GraphedManifold": ("m", "d", "theta", "theta_bar"),
}


def encoded(x):
    """A plain, deterministic rendering of a result."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, GaussianRational):
        return str(x)
    if isinstance(x, TruncatedSeries):
        return ["S", list(x.context.names), x.order,
                sorted([list(e), str(c)] for e, c in x.terms.items())]
    if isinstance(x, SeriesMap):
        return [encoded(c) for c in x.components]
    if isinstance(x, (list, tuple)):
        return [encoded(v) for v in x]
    if isinstance(x, dict):
        return sorted([repr(k), encoded(v)] for k, v in x.items())
    name = type(x).__name__
    return [name] + [encoded(getattr(x, f)) for f in FIELDS[name]]


def stated_change(entry, bound, value, order):
    """classify_manifold(kmax=order) is refused on every manifold; it used
    to return on the Levi-nondegenerate ones."""
    return (entry, bound) == ("classify_manifold", "kmax") and value == order


def outcomes(label, order, run):
    """[(entry point, bound, value, input order, budget arguments, result,
    kind, message)], each call made through run(call) -> (result, kind,
    message); kind is 'returned' when the call returned."""
    return [row[:5] + run(row[5]) for row in calls(label, order)]


def digests(rows, order):
    """(entry point, bound) -> sha256 of [(value, result digest or
    'raised')] over the rows at `order`, the stated change left out."""
    groups = {}
    for entry, bound, value, _, _, result, kind, _ in rows:
        if stated_change(entry, bound, value, order):
            continue
        text = "raised" if kind != "returned" else hashlib.sha256(
            repr(encoded(result)).encode()).hexdigest()
        groups.setdefault("%s/%s" % (entry, bound), []).append((value, text))
    return {key: hashlib.sha256(repr(v).encode()).hexdigest()[:16]
            for key, v in groups.items()}


def _plain_run(call):
    try:
        return call(), "returned", ""
    except Exception as exc:  # pinned as 'raised'
        return None, "raised", str(exc)


def pin_table():
    return {"%s/%d" % (label, order):
            digests(outcomes(label, order, _plain_run), order)
            for label in MODELS for order in ORDERS}


# -- the gate ----------------------------------------------------------------------


def test_gate_covers_every_entry_point():
    covered = {c[0] for c in cases("heisenberg", 2)}
    assert covered == set(series.PRECISION_BUDGET)


def _refused_by_table(entry, top, bounds):
    try:
        series.check_budget(entry, top, **bounds)
    except SeriesError:
        return True
    return False


@pytest.mark.parametrize("label, order", [
    pytest.param(label, order, id="%s-%d" % (label, order))
    for label in MODELS for order in ORDERS])
def test_every_bound_is_refused_before_any_work(monkeypatch, label, order):
    # each call returns, or raises SeriesError before its first derive or
    # compose exactly where the table refuses it; the one data outcome is a
    # resolution of a map that is not finitely nondegenerate at ell0
    work = [0]
    for name in ("derive", "compose"):
        original = getattr(TruncatedSeries, name)

        def counted(self, arg, original=original):
            work[0] += 1
            return original(self, arg)

        monkeypatch.setattr(TruncatedSeries, name, counted)

    def run(call):
        work[0] = 0
        try:
            return call(), "returned", ""
        except SeriesError as exc:
            return None, "late" if work[0] else "refused", str(exc)
        except ReflectionError as exc:
            return None, "data", str(exc)

    rows = outcomes(label, order, run)
    for entry, bound, value, top, bounds, _, kind, text in rows:
        case = (entry, bound, value)
        assert "no precision left" not in text, case
        assert kind != "late", (case, text)
        if kind == "data":
            assert entry == "resolve_finitely_nondeg", (case, text)
            assert text.startswith("rank hypothesis fails"), (case, text)
        assert (kind == "refused") == _refused_by_table(entry, top, bounds), \
            (case, kind, text)
        if stated_change(entry, bound, value, order):
            assert kind == "refused", case
    pins = json.loads(PINS.read_text())["%s/%d" % (label, order)]
    assert digests(rows, order) == pins


# -- the manifest reads the same table -------------------------------------------

# The bounds each analysis passes when the manifest omits them (`_run_one`).
ANALYSIS_DEFAULTS = {
    "classify-manifold": lambda order: {"kmax": min(order - 1, 4),
                                        "Dmax": 4},
    "classify-map": lambda order: {"Dmax": 4},
    "psi-conditions": lambda order: {"kmax": min(order - 1, 2)},
    "minimality": lambda order: {"kmax": 5},
    "reflection": lambda order: {"Gmax": min(order, 4),
                                 "betamax": min(order, 2)},
    "degeneracy-field": lambda order: {"Dmax": 4},
    "chains": lambda order: {"k": 2},
}


def _table_refuses(name, order, given):
    """Whether any entry point the analysis calls refuses its bounds,
    the omitted ones at their defaults."""
    bounds = dict(ANALYSIS_DEFAULTS[name](order), **given)
    per_entry = {}
    for key, (entry, bound) in ANALYSES[name].items():
        per_entry.setdefault(entry, {})[bound] = bounds[key]
    return any(_refused_by_table(entry, order, entry_bounds)
               for entry, entry_bounds in per_entry.items())


@pytest.mark.parametrize("name", sorted(ANALYSIS_DEFAULTS))
def test_manifest_agrees_with_the_table(name):
    # for every key and value, Manifest refuses exactly where the table
    # does, or where the value exceeds the order (a manifest-only limit)
    source = {"m": 1, "d": 1, "theta_bar": ["xi1 + i*z1*zeta1"]}
    for order in ORDERS:
        for key in ANALYSES[name]:
            for value in range(-1, order + 2):
                data = {"order": order, "source": source, "map": ["z1", "w1"],
                        "analyses": [{"name": name, key: value}]}
                try:
                    Manifest(data)
                    refused = False
                except ManifestError:
                    refused = True
                want = (_table_refuses(name, order, {key: value})
                        or value > order)
                assert refused == want, (name, key, order, value)


if __name__ == "__main__":
    json.dump(pin_table(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
