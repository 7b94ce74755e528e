"""Manifest ingestion, analysis orchestration and report emission.

A manifest is a JSON document declaring the working order, a seed, a source
manifold (defining series or graphed equations), optionally a target
manifold and a formal map, and a list of analyses with their bounds.  The
report mirrors the manifest deterministically: same manifest, same bytes.
All numbers are exact: rationals as "p/q" strings, complex coefficients as
[re, im] pairs of such strings.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .context import VariableContext
from .exprparse import ParseError, parse_expression
from .gaussian import GaussianRational
from .linalg import generic_rank
from .manifold import (GraphedManifold, ManifoldError, Names,
                       RealDefiningSystem, complexify_and_graph)
from .nondegen import (classify_manifold, classify_map_cr,
                       holomorphic_degeneracy_field, psi_and_h_conditions)
from .reflection import (FormalCRMap, ReflectionError,
                         reflection_components, reflection_identities)
from .segre import chain, minimality
from .series import PRECISION_BUDGET, SeriesError, SeriesMap, TruncatedSeries


class ManifestError(ValueError):
    pass


def _role_aliases(m, d, primed):
    names = Names(m, d, primed)
    suffix = "p" if primed else ""
    return {"%s%s%d" % (role, suffix, i): name
            for role, block in (("t", names.t), ("tau", names.tau))
            for i, name in enumerate(block, 1)}


def build_manifold(spec: dict, order: int, primed: bool) -> GraphedManifold:
    """Graph a manifold spec checked by `Manifest`; a `ManifoldError` or
    `ParseError` is reported as a `ManifestError` naming the manifold."""
    m, d = spec["m"], spec["d"]
    names = Names(m, d, primed)
    aliases = _role_aliases(m, d, primed)
    try:
        if "rho" in spec:
            ctx = VariableContext(names.t + names.tau)
            comps = [parse_expression(text, ctx, order, aliases)
                     for text in spec["rho"]]
            system = RealDefiningSystem(m + d, d, SeriesMap(comps))
            split = spec.get("split")
            if split is None:
                split = list(range(m, m + d))
            return complexify_and_graph(system, split=split, primed=primed)
        if "theta_bar" in spec:
            ctx = VariableContext(names.z + names.zeta + names.xi)
            comps = [parse_expression(text, ctx, order, aliases)
                     for text in spec["theta_bar"]]
            return GraphedManifold.from_theta_bar(m, d, SeriesMap(comps),
                                                  primed=primed)
    except (ManifoldError, ParseError) as exc:
        raise ManifestError("%s manifold: %s"
                            % ("target" if primed else "source", exc)) from None
    raise ManifestError("manifold spec needs 'rho' or 'theta_bar'")


def _check_manifold_spec(spec, role: str, order: int) -> None:
    """Check the shape of a source or target spec: positive ints `m` and
    `d`, `split`, when given, as d distinct indices into t, and at most
    one of `rho` and `theta_bar`, as a list of d expression strings; and
    for `rho` the order that `complexify_and_graph` needs to graph it."""
    if not isinstance(spec, dict):
        raise ManifestError("%s manifold must be a JSON object" % role)
    for key in ("m", "d"):
        value = spec.get(key)
        if type(value) is not int or value < 1:
            raise ManifestError("%s manifold: '%s' must be a positive "
                                "integer, got %r" % (role, key, value))
    n, d = spec["m"] + spec["d"], spec["d"]
    split = spec.get("split")
    if split is not None and not (
            isinstance(split, list) and len(split) == d
            and all(type(i) is int and 0 <= i < n for i in split)
            and len(set(split)) == d):
        raise ManifestError("%s manifold: 'split' must list %d distinct "
                            "indices in 0..%d, got %r"
                            % (role, d, n - 1, split))
    if "rho" in spec and "theta_bar" in spec:
        raise ManifestError("%s manifold: give 'rho' or 'theta_bar', not "
                            "both" % role)
    for key in ("rho", "theta_bar"):
        texts = spec.get(key)
        if key in spec and not (
                isinstance(texts, list) and len(texts) == d
                and all(isinstance(t, str) for t in texts)):
            raise ManifestError("%s manifold: '%s' must be a list of %d "
                                "expression strings, got %r"
                                % (role, key, d, texts))
    least = PRECISION_BUDGET["complexify_and_graph"]["order"][0]
    if "rho" in spec and order < least:
        raise ManifestError("%s manifold: 'rho' needs an 'order' of at least "
                            "%d, got %d" % (role, least, order))


def _int_field(data: dict, key: str, default: int) -> int:
    """An integer field: an int, an integral float or a decimal string.
    Bools and non-integral numbers are rejected, not truncated."""
    value = data.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif type(value) is int:
        return value
    raise ManifestError("'%s' must be an integer, got %r" % (key, value))


# Each analysis's bounds, key -> (entry point, bound): checked by the rule
# in PRECISION_BUDGET when the manifest is read, and at most the order.
ANALYSES = {
    "verify-cr": {},
    "classify-manifold": {"kmax": ("classify_manifold", "kmax"),
                          "Dmax": ("classify_manifold", "dmax")},
    "classify-map": {"Dmax": ("classify_map_cr", "dmax")},
    "psi-conditions": {"kmax": ("psi_and_h_conditions", "kmax")},
    "minimality": {"kmax": ("minimality", "kmax")},
    "reflection": {"Gmax": ("reflection_components", "gmax"),
                   "betamax": ("reflection_identities", "beta_max")},
    "degeneracy-field": {"Dmax": ("holomorphic_degeneracy_field", "dmax")},
    "chains": {"k": ("chain", "k")},
}
NEEDS_MAP = ("verify-cr", "classify-map", "psi-conditions", "reflection")


class Manifest:
    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ManifestError("a manifest must be a JSON object")
        self.order = _int_field(data, "order", 6)
        self.seed = _int_field(data, "seed", 0)
        if self.order < 0:
            raise ManifestError("'order' must be non-negative, got %d"
                                % self.order)
        if "source" not in data:
            raise ManifestError("manifest needs a 'source' manifold")
        self.source_spec = data["source"]
        self.target_spec = data.get("target")
        _check_manifold_spec(self.source_spec, "source", self.order)
        if self.target_spec is not None:
            _check_manifold_spec(self.target_spec, "target", self.order)
        self.map_spec = data.get("map")
        if self.map_spec is not None and not (
                isinstance(self.map_spec, list)
                and all(isinstance(t, str) for t in self.map_spec)):
            raise ManifestError("'map' must be a list of expressions, got %r"
                                % (self.map_spec,))
        analyses = data.get("analyses", [])
        if not isinstance(analyses, list):
            raise ManifestError("'analyses' must be a list")
        self.analyses = []
        for a in analyses:
            if not isinstance(a, dict) or "name" not in a:
                raise ManifestError("every analysis needs a 'name'")
            name = a["name"]
            if not isinstance(name, str) or name not in ANALYSES:
                raise ManifestError("unknown analysis %r; known: %s"
                                    % (name, ", ".join(ANALYSES)))
            if name in NEEDS_MAP and self.map_spec is None:
                raise ManifestError("analysis %r needs a 'map' entry" % name)
            rules = ANALYSES[name]
            a = dict(a)
            for key in a:
                if key == "name":
                    continue
                if key not in rules:
                    raise ManifestError(
                        "analysis %r does not read '%s'; it reads %s"
                        % (name, key, ", ".join(rules) or "no bounds"))
                a[key] = value = _int_field(a, key, 0)
                entry, bound = rules[key]
                least, spend = PRECISION_BUDGET[entry][bound]
                if spend and value + spend > self.order:
                    problem = "of %r must be below order %d" % (
                        name, self.order + 1 - spend)
                elif value > self.order:
                    problem = "exceeds order %d" % self.order
                elif value < least:
                    problem = "of %r is below %d" % (name, least)
                else:
                    continue
                raise ManifestError("analysis bound %s=%s %s"
                                    % (key, value, problem))
            for key, (entry, bound) in rules.items():
                least, spend = PRECISION_BUDGET[entry][bound]
                floor = PRECISION_BUDGET[entry].get("order", (0,))[0]
                if self.order < floor:
                    raise ManifestError(
                        "analysis %r needs an order above %d, got order %d"
                        % (name, floor - 1, self.order))
                # an omitted bound with a spend defaults to at most the
                # order less the spend
                if key not in a and spend is not None \
                        and self.order < least + spend:
                    raise ManifestError(
                        "analysis %r without '%s' needs an order above %d, "
                        "got order %d"
                        % (name, key, least + spend - 1, self.order))
            self.analyses.append(a)

    @classmethod
    def load(cls, path: str, order=None, seed=None) -> "Manifest":
        """Read a manifest file; `order` and `seed`, when given, replace the
        file's values before anything is validated."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ManifestError("cannot read manifest %s: %s"
                                % (path, exc.strerror or exc))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ManifestError("manifest %s is not valid JSON: %s"
                                % (path, exc))
        if isinstance(data, dict):
            if order is not None:
                data["order"] = order
            if seed is not None:
                data["seed"] = seed
        return cls(data)


# -- serialization helpers -----------------------------------------------------


def _frac_str(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator) if q.denominator != 1 \
        else str(q.numerator)


def encode_coeff(c: GaussianRational):
    return [_frac_str(c.re), _frac_str(c.im)]


def encode_series(s: TruncatedSeries):
    terms = []
    for e in sorted(s.terms, key=lambda e: (sum(e), e)):
        terms.append([list(e), encode_coeff(s.terms[e])])
    return {"context": list(s.context.names), "order": s.order,
            "terms": terms, "text": str(s)}


def encode_verdict(v):
    out = {"status": v.status}
    if v.k0 is not None:
        out["k0"] = v.k0
    if v.bound is not None:
        out["bound"] = list(v.bound) if isinstance(v.bound, tuple) else v.bound
    if v.witness is not None:
        out["witness"] = [encode_series(s) for s in v.witness]
    return out


def encode_ladder(prefix: str, verdicts, **extra) -> dict:
    """{prefix1: verdict 1, prefix2: verdict 2, ...} and the extra keys."""
    out = {"%s%d" % (prefix, i): encode_verdict(v)
           for i, v in enumerate(verdicts, 1)}
    out.update(extra)
    return out


def encode_residuals(rep):
    entries = []
    for (fam, jp, beta), (val, prec) in sorted(
            rep.entries.items(), key=lambda kv: (str(kv[0][0]), kv[0][1:])):
        entries.append({"family": fam, "component": jp, "beta": list(beta),
                        "valuation": val, "precision": prec})
    return {"ok": rep.ok, "entries": entries}


# -- orchestration -------------------------------------------------------------


class AnalysisFailure(Exception):
    def __init__(self, name, cause):
        super().__init__("analysis %r failed: %s" % (name, cause))
        self.name = name
        self.cause = cause


def run(manifest: Manifest) -> dict:
    """Execute the manifest's analyses in dependency order.

    Returns the report dictionary; raises AnalysisFailure when a module
    errors (an inconclusive verdict is not an error).
    """
    order = manifest.order
    report = {
        "provenance": {
            "tool": "crreflect",
            "version": __version__,
            "order": order,
            "seed": manifest.seed,
        },
        "analyses": [],
    }
    M = build_manifold(manifest.source_spec, order, primed=False)
    report["provenance"]["source"] = {"m": M.m, "d": M.d}
    Mp = None
    if manifest.target_spec is not None:
        Mp = build_manifold(manifest.target_spec, order, primed=True)
    elif manifest.map_spec is not None:
        Mp = M.primed()
    if Mp is not None:
        report["provenance"]["target"] = {"m": Mp.m, "d": Mp.d}

    hmap = None
    if manifest.map_spec is not None:
        ctx_t = VariableContext(M.names.t)
        aliases = _role_aliases(M.m, M.d, primed=False)
        try:
            comps = [parse_expression(text, ctx_t, order, aliases)
                     for text in manifest.map_spec]
            hmap = FormalCRMap(SeriesMap(comps), M, Mp)
        except (ParseError, ReflectionError, SeriesError) as exc:
            raise ManifestError("'map': %s" % exc) from None

    # build_manifold raises unless the reality involution holds.
    report["provenance"]["source_reality_ok"] = True

    for spec in manifest.analyses:
        name = spec["name"]
        try:
            result = _run_one(name, spec, manifest, M, Mp, hmap)
        except AnalysisFailure:
            raise
        except Exception as exc:  # surfaced with the analysis name
            raise AnalysisFailure(name, exc) from exc
        report["analyses"].append({"name": name, "result": result})
    return report


def _run_one(name, spec, manifest, M, Mp, hmap):
    order = manifest.order
    seed = manifest.seed
    if name == "verify-cr":
        return encode_residuals(hmap.cr_report)
    if name == "classify-manifold":
        target = Mp if Mp is not None else M
        cls = classify_manifold(target, kmax=spec.get("kmax"),
                                dmax=spec.get("Dmax", 4), seed=seed)
        return encode_ladder("nd", cls.chain,
                             chain_consistent=cls.chain_consistent())
    if name == "classify-map":
        cls = classify_map_cr(hmap, dmax=spec.get("Dmax", 4), seed=seed)
        return encode_ladder("cr", cls.cr_chain,
                             chain_consistent=cls.cr_chain_consistent())
    if name == "psi-conditions":
        cls = psi_and_h_conditions(hmap, kmax=spec.get("kmax"), seed=seed)
        return encode_ladder("h", [cls.h1, cls.h2, cls.h3, cls.h4],
                             ell0=cls.ell0)
    if name == "minimality":
        rep = minimality(M, kmax=spec.get("kmax"), seed=seed)
        return {
            "minimal": rep.minimal,
            "nu0": rep.nu0,
            "ranks": {str(k): list(v) for k, v in sorted(rep.ranks.items())},
            "mu0_witness": None if rep.mu0_witness is None
            else [encode_coeff(x) for x in rep.mu0_witness],
            "kmax": rep.kmax,
            "conclusive": rep.conclusive,
            "order": rep.order,
        }
    if name == "reflection":
        gmax = spec.get("Gmax", min(order, 4))
        comps = reflection_components(hmap, gmax=gmax)
        beta_max = spec.get("betamax", min(order, 2))
        idents = reflection_identities(hmap, beta_max=beta_max)
        table = []
        for gamma in comps.nonzero_gammas():
            table.append({"gamma": list(gamma),
                          "series": [encode_series(s)
                                     for s in comps.table[gamma]]})
        return {
            "components": table,
            "reassembly_defect": comps.reassembly_defect(),
            "identities": encode_residuals(idents),
        }
    if name == "degeneracy-field":
        target = Mp if Mp is not None else M
        field = holomorphic_degeneracy_field(target, spec.get("Dmax", 4))
        if field is None:
            return {"found": False, "Dmax": spec.get("Dmax", 4)}
        return {"found": True,
                "coefficients": [encode_series(c) for c in field.components]}
    if name == "chains":
        k = spec.get("k", 2)
        # The unbarred chain is the barred one's conjugate, and the
        # parities share one generic rank (see `minimality`).
        barred = chain(M, k, "barred")
        rank = generic_rank(barred.components, seed=seed)
        sides = (("barred", barred), ("unbarred", barred.conjugate()))
        return {side: {
            "components": [encode_series(c) for c in g.components],
            "generic_rank": rank,
            "on_manifold_defect": g.on_manifold_defect(),
        } for side, g in sides}


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def summarize(report: dict) -> str:
    lines = []
    prov = report["provenance"]
    lines.append("crreflect %s  order=%d seed=%d"
                 % (prov["version"], prov["order"], prov["seed"]))
    for item in report["analyses"]:
        name, result = item["name"], item["result"]
        if name == "verify-cr":
            lines.append("verify-cr: %s" % ("pass" if result["ok"] else "FAIL"))
        elif name == "classify-manifold":
            flags = ", ".join("nd%d=%s" % (i, result["nd%d" % i]["status"])
                              for i in range(1, 6))
            lines.append("classify-manifold: " + flags)
        elif name == "classify-map":
            flags = ", ".join("cr%d=%s" % (i, result["cr%d" % i]["status"])
                              for i in range(1, 6))
            lines.append("classify-map: " + flags)
        elif name == "psi-conditions":
            flags = ", ".join("h%d=%s" % (i, result["h%d" % i]["status"])
                              for i in range(1, 5))
            lines.append("psi-conditions: %s, ell0=%s" % (flags, result["ell0"]))
        elif name == "minimality":
            lines.append("minimality: %s (nu0=%s)"
                         % ("minimal" if result["minimal"] else "not minimal",
                            result["nu0"]))
        elif name == "reflection":
            ok = result["identities"]["ok"]
            lines.append("reflection: %d nonzero components, identities %s"
                         % (len(result["components"]),
                            "pass" if ok else "FAIL"))
        elif name == "degeneracy-field":
            lines.append("degeneracy-field: %s"
                         % ("found" if result["found"] else "none"))
        elif name == "chains":
            lines.append("chains: ranks %s / %s"
                         % (result["barred"]["generic_rank"],
                            result["unbarred"]["generic_rank"]))
    return "\n".join(lines)
