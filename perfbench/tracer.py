"""Outside-in tracing of crreflect's layers.

`Tracer.install()` wraps the public functions listed in `TARGETS`.  A
module-level function is replaced under every name that holds it in any
`crreflect` module (for example `mul_terms` is bound in `kernels`, `series`
and `linalg`), so no call slips past; a method is replaced on its class.
`uninstall()` puts every original object back.

Each wrapped call records a span: name, start, end, parent span and op id.
Spans stay in compact in-memory arrays until the run ends.  Times come from
a clock that stops while the tracer does its own bookkeeping, so the
counters computed in the wrappers do not inflate any span.  A layer's self
time is its span time minus the part of it that child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (metric prefix, defining module, attribute path)
TARGETS = [
    ("kernels.mul_terms", "crreflect.kernels", "mul_terms"),
    ("kernels.iadd_scaled", "crreflect.kernels", "iadd_scaled"),
    ("series.compose", "crreflect.series", "TruncatedSeries.compose"),
    ("series.formal_ift", "crreflect.series", "formal_ift"),
    ("series.divide_with_valuation", "crreflect.series",
     "divide_with_valuation"),
    ("series.invert_unit", "crreflect.series", "TruncatedSeries.invert_unit"),
    ("series.derive", "crreflect.series", "TruncatedSeries.derive"),
    ("series.jet", "crreflect.series", "jet"),
    ("linalg.symbolic_rank", "crreflect.linalg", "symbolic_rank"),
    ("linalg.bareiss_rank", "crreflect.linalg", "bareiss_rank"),
    ("linalg.numeric_rank", "crreflect.linalg", "numeric_rank"),
    ("linalg.kernel_basis", "crreflect.linalg", "kernel_basis"),
    ("manifold.complexify_and_graph", "crreflect.manifold",
     "complexify_and_graph"),
    ("manifold.verify_reality", "crreflect.manifold", "verify_reality"),
    ("manifold.Derivation.apply", "crreflect.manifold", "Derivation.apply"),
    ("segre.minimality", "crreflect.segre", "minimality"),
    ("segre.chain", "crreflect.segre", "chain"),
    ("segre.flow", "crreflect.segre", "flow"),
    ("segre.check_on_manifold", "crreflect.segre", "check_on_manifold"),
    ("nondegen.classify_manifold", "crreflect.nondegen", "classify_manifold"),
    ("nondegen.classify_map_cr", "crreflect.nondegen", "classify_map_cr"),
    ("nondegen.ideal_contains_power_of_maximal", "crreflect.nondegen",
     "ideal_contains_power_of_maximal"),
    ("nondegen.holomorphic_degeneracy_field", "crreflect.nondegen",
     "holomorphic_degeneracy_field"),
    ("nondegen.degenerate_selfmap_generator", "crreflect.nondegen",
     "degenerate_selfmap_generator"),
    ("reflection.resolve_finitely_nondeg", "crreflect.reflection",
     "resolve_finitely_nondeg"),
    ("reflection.jet_identity_report", "crreflect.reflection",
     "Resolution.jet_identity_report"),
    ("reflection.q_jbeta_cramer", "crreflect.reflection", "q_jbeta_cramer"),
    ("reflection.formal_cramer_solve", "crreflect.reflection",
     "formal_cramer_solve"),
    ("reflection.reflection_identities", "crreflect.reflection",
     "reflection_identities"),
    ("reflection.reflection_components", "crreflect.reflection",
     "reflection_components"),
    ("reflection.verify_formal_cr_map", "crreflect.reflection",
     "verify_formal_cr_map"),
    ("exprparse.parse_expression", "crreflect.exprparse", "parse_expression"),
    ("manifest.run", "crreflect.manifest", "run"),
    ("manifest.build_manifold", "crreflect.manifest", "build_manifold"),
    ("manifest.render_report", "crreflect.manifest", "render_report"),
    ("cli.main", "crreflect.cli", "main"),
]

MODULES = sorted({name.split(".")[0] for name, _, _ in TARGETS})

# Counters the wrappers accumulate besides calls and times.
COUNTERS = [
    "kernels.mul_terms.terms_out", "kernels.mul_terms.pairs",
    "kernels.iadd_scaled.terms_in", "series.formal_ift.compose_calls",
    "linalg.symbolic_rank.full", "linalg.bareiss_rank.entry_terms",
    "exprparse.parse_expression.chars", "manifest.render_report.bytes",
]

# The per-layer metrics a traced run reports, as (prefix, stats).
LAYER_STATS = [
    ("kernels.mul_terms", "calls self_s terms_out pairs"),
    ("kernels.iadd_scaled", "calls self_s terms_in"),
    ("gaussian", "coeff_bits_max coeff_bits_p50"),
    ("series.compose", "calls s self_s"),
    ("series.formal_ift", "calls s compose_calls"),
    ("series.divide_with_valuation", "calls s"),
    ("series.invert_unit", "calls s"),
    ("series.derive", "calls s"),
    ("series.jet", "calls s"),
    ("linalg.symbolic_rank", "calls s self_s full_share"),
    ("linalg.bareiss_rank", "calls s entry_terms"),
    ("linalg.numeric_rank", "calls s"),
    ("linalg.kernel_basis", "calls s"),
    ("manifold.complexify_and_graph", "calls s self_s"),
    ("manifold.verify_reality", "calls s"),
    ("manifold.Derivation.apply", "calls s"),
    ("segre.minimality", "calls s self_s"),
    ("segre.chain", "calls s"),
    ("segre.flow", "calls s"),
    ("segre.check_on_manifold", "calls s"),
    ("nondegen.classify_manifold", "calls s"),
    ("nondegen.classify_map_cr", "calls s"),
    ("nondegen.ideal_contains_power_of_maximal", "calls s"),
    ("nondegen.holomorphic_degeneracy_field", "calls s"),
    ("nondegen.degenerate_selfmap_generator", "calls s"),
    ("reflection.resolve_finitely_nondeg", "calls s self_s"),
    ("reflection.jet_identity_report", "s"),
    ("reflection.q_jbeta_cramer", "calls s"),
    ("reflection.formal_cramer_solve", "calls s"),
    ("reflection.reflection_identities", "calls s"),
    ("reflection.reflection_components", "calls s"),
    ("reflection.verify_formal_cr_map", "calls s"),
    ("exprparse.parse_expression", "calls s chars"),
    ("manifest.run", "calls self_s"),
    ("manifest.build_manifold", "calls s"),
    ("manifest.render_report", "s bytes"),
    ("cli.main", "s"),
] + [(module, "errors") for module in MODULES] + [("trace", "overhead_ratio")]

_UNITS = {"s": "s", "self_s": "s", "full_share": "ratio", "bytes": "bytes",
          "overhead_ratio": "ratio", "coeff_bits_max": "bits",
          "coeff_bits_p50": "bits"}

# (metric name, unit, better)
PER_LAYER = [("%s.%s" % (prefix, stat), _UNITS.get(stat, "count"),
              "higher" if stat == "full_share" else "lower")
             for prefix, stats in LAYER_STATS for stat in stats.split()]


# -- counters computed from a call's inputs and result ------------------------


def mul_pairs(A: dict, B: dict, order: int) -> int:
    """Coefficient products `mul_terms` performs: |A|*|B| when order < 0,
    otherwise the pairs whose degrees fit within the truncation room."""
    if not A or not B:
        return 0
    if order < 0:
        return len(A) * len(B)
    upto = [0] * (order + 1)  # upto[k]: terms of B of degree <= k
    for e in B:
        k = sum(e)
        if k <= order:
            upto[k] += 1
    for k in range(1, order + 1):
        upto[k] += upto[k - 1]
    return sum(upto[order - sum(e)] for e in A if sum(e) <= order)


def _after_mul_terms(tr, args, kwargs, result):
    A, B, order = args
    c = tr.counts
    c["kernels.mul_terms.terms_out"] += len(result)
    c["kernels.mul_terms.pairs"] += mul_pairs(A, B, order)
    bits = tr.coeff_bits
    for v in result.values():
        bits[max(abs(v.a).bit_length(), abs(v.b).bit_length(),
                 v.c.bit_length())] += 1


def _after_iadd_scaled(tr, args, kwargs, result):
    tr.counts["kernels.iadd_scaled.terms_in"] += len(args[1])


def _after_bareiss(tr, args, kwargs, result):
    tr.counts["linalg.bareiss_rank.entry_terms"] += sum(
        len(e) for row in args[0] for e in row)


def _after_symbolic_rank(tr, args, kwargs, result):
    matrix = args[0]
    full = min(len(matrix), len(matrix[0])) if matrix else 0
    tr.counts["linalg.symbolic_rank.full"] += result == full


def _after_compose(tr, args, kwargs, result):
    if tr.active[tr.ids["series.formal_ift"]]:
        tr.counts["series.formal_ift.compose_calls"] += 1


def _after_parse(tr, args, kwargs, result):
    tr.counts["exprparse.parse_expression.chars"] += len(args[0])


def _after_render(tr, args, kwargs, result):
    tr.counts["manifest.render_report.bytes"] += len(result.encode())


AFTER = {
    "kernels.mul_terms": _after_mul_terms,
    "kernels.iadd_scaled": _after_iadd_scaled,
    "linalg.bareiss_rank": _after_bareiss,
    "linalg.symbolic_rank": _after_symbolic_rank,
    "series.compose": _after_compose,
    "exprparse.parse_expression": _after_parse,
    "manifest.render_report": _after_render,
}


def histogram_median(hist: Counter):
    """Median of the values a {value: count} histogram holds (0 if empty)."""
    total = sum(hist.values())
    if not total:
        return 0
    lo_rank, hi_rank = (total - 1) // 2, total // 2
    seen, lo = 0, None
    for value in sorted(hist):
        seen += hist[value]
        if lo is None and seen > lo_rank:
            lo = value
        if seen > hi_rank:
            return (lo + value) / 2


# -- self time ----------------------------------------------------------------


def self_times(start, end, parent):
    """Per span: its duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    n = len(start)
    covered = [0] * n
    reach = {}  # parent -> end of the children's union so far
    for i in sorted(range(n), key=lambda j: start[j]):
        p = parent[i]
        if p < 0:
            continue
        lo, hi = max(start[i], start[p]), min(end[i], end[p])
        lo = max(lo, reach.get(p, lo))
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def _is_wrapper(value):
    return getattr(value, "perfbench_wrapper", False) is True


def originals_restored() -> bool:
    """True when no crreflect module or traced class holds a wrapper."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "crreflect"
                                or name.startswith("crreflect.")):
            if any(_is_wrapper(v) for v in list(vars(mod).values())):
                return False
    for _, module_name, path in TARGETS:
        owner, attr = _resolve(module_name, path)
        if isinstance(owner, type) and _is_wrapper(owner.__dict__[attr]):
            return False
    return True


# -- the tracer ---------------------------------------------------------------


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.active = [0] * len(self.names)
        self.stack = []
        self.paused = 0
        self.op_id = -1
        self.counts = Counter(dict.fromkeys(COUNTERS, 0))
        self.errors = Counter()
        self.coeff_bits = Counter()
        self._patches = []

    # -- patching --

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "crreflect"
                                         or n.startswith("crreflect."))]
        for i, (name, module_name, path) in enumerate(TARGETS):
            owner, attr = _resolve(module_name, path)
            orig = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = self._wrap(i, orig, name.split(".")[0], AFTER.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _wrap(self, nid, fn, module, after):
        tr = self

        def traced(*args, **kwargs):
            raw = perf_counter_ns()
            sid = len(tr.start)
            tr.span_name.append(nid)
            tr.start.append(raw - tr.paused)
            tr.end.append(0)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.op.append(tr.op_id)
            tr.nested.append(1 if tr.active[nid] else 0)
            tr.active[nid] += 1
            tr.stack.append(sid)
            tr.paused += perf_counter_ns() - raw
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                raw = perf_counter_ns()
                tr.end[sid] = raw - tr.paused
                tr.stack.pop()
                tr.active[nid] -= 1
                if not ok:
                    tr.errors[module] += 1
                elif after is not None:
                    after(tr, args, kwargs, result)
                tr.paused += perf_counter_ns() - raw

        traced.__wrapped__ = fn
        traced.perfbench_wrapper = True
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- results --

    def exact_counts(self) -> dict:
        """Every integer counter of the run; these repeat exactly."""
        out = dict(self.counts)
        calls = Counter(self.span_name)
        for i, name in enumerate(self.names):
            out[name + ".calls"] = calls.get(i, 0)
        for module in MODULES:
            out[module + ".errors"] = self.errors.get(module, 0)
        out["gaussian.coeff_bits"] = sorted(self.coeff_bits.items())
        return out

    def layer_metrics(self) -> dict:
        """Per target: calls, inclusive seconds and self seconds; plus the
        counters and coefficient-size statistics."""
        n = len(self.names)
        calls, incl, own = [0] * n, [0] * n, [0] * n
        selfs = self_times(self.start, self.end, self.parent)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            own[nid] += selfs[i]
            if not self.nested[i]:
                incl[nid] += self.end[i] - self.start[i]
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = calls[i]
            out[name + ".s"] = incl[i] / 1e9
            out[name + ".self_s"] = own[i] / 1e9
        for key, value in self.counts.items():
            out[key] = value
        rank_calls = calls[self.ids["linalg.symbolic_rank"]]
        out["linalg.symbolic_rank.full_share"] = (
            self.counts["linalg.symbolic_rank.full"] / rank_calls
            if rank_calls else 0.0)
        for module in MODULES:
            out[module + ".errors"] = self.errors.get(module, 0)
        out["gaussian.coeff_bits_max"] = max(self.coeff_bits, default=0)
        out["gaussian.coeff_bits_p50"] = histogram_median(self.coeff_bits)
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write("%d\t%s\t%d\t%d\t%d\t%d\n" % (
                    i, names[self.span_name[i]], self.start[i], self.end[i],
                    self.parent[i], self.op[i]))
