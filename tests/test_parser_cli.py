"""Expression grammar, manifest orchestration, CLI determinism."""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import random
from pathlib import Path

import pytest

from conftest import random_series
from crreflect.cli import main
from crreflect.context import VariableContext
from crreflect.exprparse import ParseError, parse_expression
from crreflect.gaussian import gr
from crreflect.manifest import Manifest, ManifestError, render_report, run

CTX = VariableContext(("z1", "w1", "zeta1", "xi1"))


def test_heisenberg_defining_expression():
    s = parse_expression("w1 - xi1 - i*z1*zeta1", CTX, 8)
    assert s.coefficient((0, 1, 0, 0)) == gr(1)
    assert s.coefficient((0, 0, 0, 1)) == gr(-1)
    assert s.coefficient((1, 0, 1, 0)) == gr(0, -1)


def test_coefficient_forms():
    assert parse_expression("3/2*i*z1^2", CTX, 8).coefficient(
        (2, 0, 0, 0)) == gr(0, "3/2")
    assert parse_expression("(1/2+3/4*i)*w1", CTX, 8).coefficient(
        (0, 1, 0, 0)) == gr("1/2", "3/4")
    assert parse_expression("(1-2/3*i)", CTX, 8).constant_term() == \
        gr(1, "-2/3")
    assert parse_expression("7", CTX, 8).constant_term() == gr(7)
    assert parse_expression("-i", CTX, 8).constant_term() == gr(0, -1)


def test_malformed_input_reports_position():
    with pytest.raises(ParseError) as err:
        parse_expression("z1^^2", CTX, 8)
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_expression("z1 + + w1", CTX, 8)
    with pytest.raises(ParseError):
        parse_expression("bogus1", CTX, 8)


def test_exponent_overflow_warns_and_truncates():
    warnings = []
    s = parse_expression("z1^9 + w1", CTX, 8, warnings=warnings)
    assert warnings and s == parse_expression("w1", CTX, 8)


def test_print_parse_roundtrip_random():
    rng = random.Random(21)
    for _ in range(20):
        f = random_series(CTX, 6, rng, degree=4, density=0.3)
        assert parse_expression(str(f), CTX, 6) == f
    zero = parse_expression("0", CTX, 6)
    assert zero.is_zero()


def test_aliases():
    s = parse_expression("t2 - tau2 - i*t1*tau1", CTX, 8,
                         aliases={"t1": "z1", "t2": "w1",
                                  "tau1": "zeta1", "tau2": "xi1"})
    assert s == parse_expression("w1 - xi1 - i*z1*zeta1", CTX, 8)


HEIS_MANIFEST = {
    "order": 6,
    "seed": 0,
    "source": {"m": 1, "d": 1, "rho": ["w1 - xi1 - i*z1*zeta1"]},
    "map": ["z1", "w1"],
    "analyses": [
        {"name": "verify-cr"},
        {"name": "classify-manifold", "kmax": 3},
        {"name": "minimality", "kmax": 5},
        {"name": "reflection", "Gmax": 3, "betamax": 2},
    ],
}


def test_run_heisenberg_manifest():
    report = run(Manifest(HEIS_MANIFEST))
    results = {a["name"]: a["result"] for a in report["analyses"]}
    assert results["verify-cr"]["ok"]
    assert results["classify-manifold"]["nd1"]["status"] == "holds"
    assert results["minimality"]["minimal"] and \
        results["minimality"]["nu0"] == 2
    assert results["reflection"]["identities"]["ok"]
    gammas = [tuple(t["gamma"]) for t in results["reflection"]["components"]]
    assert gammas == [(0,), (1,)]


def test_run_deterministic_bytes():
    a = render_report(run(Manifest(HEIS_MANIFEST)))
    b = render_report(run(Manifest(HEIS_MANIFEST)))
    assert a == b


def test_empty_analyses_gives_provenance_only():
    report = run(Manifest({
        "order": 4, "source": {"m": 1, "d": 1,
                               "rho": ["w1 - xi1 - i*z1*zeta1"]},
    }))
    assert report["analyses"] == []
    assert report["provenance"]["order"] == 4


def test_bounds_checked_against_order():
    data = dict(HEIS_MANIFEST)
    data["analyses"] = [{"name": "classify-manifold", "kmax": 9}]
    with pytest.raises(ManifestError):
        Manifest(data)


def test_missing_map_is_surfaced():
    data = {
        "order": 4,
        "source": {"m": 1, "d": 1, "rho": ["w1 - xi1 - i*z1*zeta1"]},
        "analyses": [{"name": "verify-cr"}],
    }
    with pytest.raises(ManifestError,
                       match="analysis 'verify-cr' needs a 'map' entry"):
        Manifest(data)


def test_ex121_manifest_flags_degeneracy():
    data = {
        "order": 6,
        "source": {"m": 2, "d": 1,
                   "rho": ["w1 - xi1 - i*z1*zeta1"]},
        "analyses": [{"name": "classify-manifold", "kmax": 3},
                     {"name": "degeneracy-field", "Dmax": 3}],
    }
    report = run(Manifest(data))
    results = {a["name"]: a["result"] for a in report["analyses"]}
    assert results["classify-manifold"]["nd5"]["status"] == "fails"
    witness = results["classify-manifold"]["nd5"]["witness"]
    assert witness[0]["terms"] == [] and witness[1]["terms"]
    assert results["degeneracy-field"]["found"]


def test_cli_end_to_end(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(HEIS_MANIFEST))
    out = tmp_path / "report.json"
    code = main(["analyze", str(mpath), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "minimality: minimal" in text
    report = json.loads(out.read_text())
    assert report["provenance"]["order"] == 6


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("rho", ["w1 - xi1 - i*z1*zeta1",
                                 "w1 - xi1 - i*z1^2*zeta1^2"])
def test_cli_classify_map_default_dmax_above_the_order(tmp_path, capsys,
                                                       rho, order):
    # The default Dmax of 4 is above these orders.  A monomial of degree
    # above the order truncates to zero and would read as a relation, so
    # cr5 searches relations up to the order and records that as its bound;
    # cr3's finite-map certificate searches degrees up to the order as well.
    mpath = tmp_path / "m.json"
    out = tmp_path / "r.json"
    mpath.write_text(json.dumps(dict(
        HEIS_MANIFEST, order=order, source=dict(HEIS_MANIFEST["source"],
                                                rho=[rho]),
        analyses=[{"name": "classify-map"}])))
    assert main(["analyze", str(mpath), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    result = json.loads(out.read_text())["analyses"][0]["result"]
    assert result["chain_consistent"]
    assert result["cr5"]["bound"] == order
    assert result["cr3"]["bound"] == order


NON_CR_MANIFEST = dict(HEIS_MANIFEST, map=["z1", "w1 + z1^2"])


def test_cli_failed_analysis_exits_3(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    out = tmp_path / "r.json"
    mpath.write_text(json.dumps(dict(NON_CR_MANIFEST, analyses=[
        {"name": "verify-cr"}, {"name": "classify-map"}])))
    assert main(["analyze", str(mpath), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: analysis 'classify-map' failed: map is not CR to the "
        "working order\n")
    assert not out.exists()
    mpath.write_text(json.dumps(dict(NON_CR_MANIFEST,
                                     analyses=[{"name": "verify-cr"}])))
    assert main(["analyze", str(mpath), "--out", str(out)]) == 0
    assert "verify-cr: FAIL" in capsys.readouterr().out
    assert not json.loads(out.read_text())["analyses"][0]["result"]["ok"]


def test_cli_order_override(tmp_path):
    mpath = tmp_path / "m.json"
    data = dict(HEIS_MANIFEST, analyses=[])
    mpath.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    assert main(["analyze", str(mpath), "--order", "5",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["provenance"]["order"] == 5


@pytest.mark.parametrize("role", ["source", "target"])
@pytest.mark.parametrize("where", ["file", "flag"])
def test_cli_rho_manifest_at_order_0_exits_2(tmp_path, capsys, role, where):
    # graphing `rho` reads its Jacobian at 0, which needs order 1; at order 0
    # the manifest is refused when read, even with no analyses, where it
    # used to escape `main` with a SeriesError traceback
    data = dict(HEIS_MANIFEST, analyses=[],
                order=0 if where == "file" else 6)
    if role == "target":
        data.update(source={"m": 1, "d": 1, "theta_bar": ["xi1 + i*z1*zeta1"]},
                    target={"m": 1, "d": 1,
                            "rho": ["wp1 - xip1 - i*zp1*zetap1"]})
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    argv = ["analyze", str(mpath), "--out", str(out)]
    assert main(argv + (["--order", "0"] if where == "flag" else [])) == 2
    assert ("error: %s manifold: 'rho' needs an 'order' of at least 1, got 0"
            % role) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("analysis", ["classify-map", "degeneracy-field"])
def test_cli_order_0_graph_is_refused_where_a_rung_differentiates(
        tmp_path, capsys, analysis):
    # a `theta_bar` source graphs at order 0, but these analyses read first
    # derivatives; they used to exit 3 with "no precision left"
    data = dict(HEIS_MANIFEST, order=0, analyses=[{"name": analysis}],
                source={"m": 1, "d": 1, "theta_bar": ["xi1 + i*z1*zeta1"]})
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    assert main(["analyze", str(mpath), "--out", str(out)]) == 2
    assert ("analysis %r needs an order above 0, got order 0" % analysis) \
        in capsys.readouterr().err
    data["analyses"] = [{"name": "verify-cr"}, {"name": "chains"}]
    mpath.write_text(json.dumps(data))
    assert main(["analyze", str(mpath), "--out", str(out)]) == 0


def test_cli_parse_check(capsys):
    assert main(["parse-check", "w1 - xi1 - i*z1*zeta1"]) == 0
    assert "w1" in capsys.readouterr().out
    assert main(["parse-check", "z1^^2"]) == 2
    assert "position" in capsys.readouterr().err
    assert main(["parse-check", "z1", "--order", "-5"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "--order -5: order must be non-negative" in captured.err


def test_cli_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("argv, field", [
    (["--order", "-1"], "'order'"),
    (["--order", "2"], "kmax=3"),
])
def test_cli_overrides_are_validated(tmp_path, capsys, argv, field):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(HEIS_MANIFEST))
    out = tmp_path / "r.json"
    assert main(["analyze", str(mpath), "--out", str(out)] + argv) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, needle", [
    (None, "cannot read manifest"),
    ("{not json", "not valid JSON"),
    ("[1, 2]", "JSON object"),
    (json.dumps(dict(HEIS_MANIFEST, order="six")), "'order'"),
    (json.dumps(dict(HEIS_MANIFEST, seed=[1])), "'seed'"),
    (json.dumps(dict(HEIS_MANIFEST, analyses={"name": "verify-cr"})),
     "'analyses'"),
])
def test_cli_bad_manifest_file_exits_2(tmp_path, capsys, text, needle):
    mpath = tmp_path / "m.json"
    if text is not None:
        mpath.write_text(text)
    assert main(["analyze", str(mpath), "--out",
                 str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    if text is None:
        assert str(mpath) in err


@pytest.mark.parametrize("analysis, key, value", [
    ("minimality", "kmax", "3"),
    ("chains", "k", "2"),
    ("classify-manifold", "Dmax", "2"),
])
def test_string_bounds_are_stored_as_ints(analysis, key, value):
    data = dict(HEIS_MANIFEST, order=4)
    as_text = dict(data, analyses=[{"name": analysis, key: value}])
    as_int = dict(data, analyses=[{"name": analysis, key: int(value)}])
    assert render_report(run(Manifest(as_text))) == \
        render_report(run(Manifest(as_int)))


HEIS_RHO = ["w1 - xi1 - i*z1*zeta1"]
# `rho`/`theta_bar` fields that are not a list of d = 1 strings: each once
# crashed `analyze` with a traceback, or (a bare string) parsed it one
# character at a time.
BAD_EXPRESSIONS = [{"theta_bar": [5]}, {"rho": [None]}, {"theta_bar": None},
                   {"theta_bar": []}, {"theta_bar": "xi1"}]


@pytest.mark.parametrize("source, needle", [
    ({"m": 1, "d": 1, "rho": ["w1 - xi1 - z1*zeta1"]}, "source manifold: "
     "defining system is not real"),
    ({"m": 1, "d": 1, "rho": HEIS_RHO, "split": [7]}, "'split'"),
    ({"m": 1, "d": 1, "rho": HEIS_RHO, "split": [0, 1]}, "'split'"),
    ({"m": 2, "d": 2, "rho": HEIS_RHO * 2, "split": [1, 1]}, "'split'"),
    ({"m": 1, "d": 1, "rho": HEIS_RHO, "split": ["1"]}, "'split'"),
    ({"m": "x", "d": 1, "rho": HEIS_RHO}, "source manifold: 'm'"),
    ({"m": 0, "d": 1, "rho": HEIS_RHO}, "source manifold: 'm'"),
    ({"m": 1, "rho": HEIS_RHO}, "source manifold: 'd'"),
    ("heisenberg", "source manifold must be a JSON object"),
    # both fields: once `rho` won and `theta_bar` was never read
    ({"m": 1, "d": 1, "rho": HEIS_RHO, "theta_bar": [5]},
     "source manifold: give 'rho' or 'theta_bar', not both"),
] + [(dict(spec, m=1, d=1), "source manifold: '%s' must be a list of 1 "
      "expression strings" % next(iter(spec))) for spec in BAD_EXPRESSIONS] + [
    # a supplied graph is where reality enters, so it is checked there
    ({"m": 1, "d": 1, "theta_bar": ["xi1 + z1"]},
     "source manifold: reality involution fails at degree 1")])
def test_cli_bad_manifold_spec_exits_2(tmp_path, capsys, source, needle):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(dict(HEIS_MANIFEST, source=source)))
    out = tmp_path / "r.json"
    assert main(["analyze", str(mpath), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert not out.exists()


def test_cli_bad_target_is_named(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    targets = [{"rho": ["w1 - xi1"], "split": [0]}] + BAD_EXPRESSIONS
    for target in targets:
        mpath.write_text(json.dumps(dict(
            HEIS_MANIFEST, target=dict(target, m=1, d=1))))
        assert main(["analyze", str(mpath), "--out",
                     str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: target manifold: ")
        if target in BAD_EXPRESSIONS:
            assert "'%s' must be a list" % next(iter(target)) in err


def test_cli_singular_primed_target_is_named(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(dict(HEIS_MANIFEST, target={
        "m": 1, "d": 1, "rho": ["wp1 - xip1"], "split": [0]})))
    assert main(["analyze", str(mpath), "--out",
                 str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == ("error: target manifold: supplied "
                                       "split has singular transversal "
                                       "block\n")


HEIS_TARGET = {"m": 1, "d": 1, "rho": ["wp1 - xip1 - i*zp1*zetap1"]}


@pytest.mark.parametrize("field, needle", [
    ({"source": dict(HEIS_MANIFEST["source"], rho=["w1 - xi1 - q*z1"])},
     "source manifold: unknown variable 'q' (at position 11)"),
    ({"source": {"m": 1, "d": 1, "theta_bar": ["xi1 + i*z1*zeta1)"]}},
     "source manifold: expected '+' or '-', found ')' (at position 16)"),
    ({"target": dict(HEIS_TARGET, rho=["wp1 - xip1 - i*z1*zetap1"])},
     "target manifold: unknown variable 'z1' (at position 15)"),
    ({"map": ["z1", "w1 + q*z1"]},
     "'map': unknown variable 'q' (at position 5)"),
])
def test_cli_parse_error_names_its_field(tmp_path, capsys, field, needle):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(dict(HEIS_MANIFEST, **field)))
    out = tmp_path / "r.json"
    assert main(["analyze", str(mpath), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s\n" % needle
    assert not out.exists()


def test_default_target_matches_written_target():
    # The default target is the source renamed into the primed alphabet.
    written = dict(HEIS_MANIFEST, target=HEIS_TARGET)
    assert render_report(run(Manifest(HEIS_MANIFEST))) == \
        render_report(run(Manifest(written)))


@pytest.mark.parametrize("map_spec, needle", [
    (["z1"], "'map': map must have 2 components"),
    (["z1", "w1", "z1"], "'map': map must have 2 components"),
    ([], "'map': "),
    (["z1", "w1 + 1"], "'map': map components must vanish at 0"),
    ("z1", "'map' must be a list"),
    (["z1", 1], "'map' must be a list"),
])
def test_cli_bad_map_exits_2(tmp_path, capsys, map_spec, needle):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(dict(HEIS_MANIFEST, map=map_spec)))
    out = tmp_path / "r.json"
    assert main(["analyze", str(mpath), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("order", 4.7), ("order", True), ("order", "4.0"), ("seed", 1.5),
    ("seed", False), ("kmax", 3.5), ("kmax", True),
])
def test_cli_non_integers_exit_2(tmp_path, capsys, key, value):
    if key == "kmax":
        data = dict(HEIS_MANIFEST,
                    analyses=[{"name": "minimality", "kmax": value}])
    else:
        data = dict(HEIS_MANIFEST, **{key: value})
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(data))
    assert main(["analyze", str(mpath), "--out",
                 str(tmp_path / "r.json")]) == 2
    assert "'%s' must be an integer" % key in capsys.readouterr().err


def test_integral_floats_are_accepted():
    data = dict(HEIS_MANIFEST, order=4.0, analyses=[])
    assert run(Manifest(data))["provenance"]["order"] == 4


@pytest.mark.parametrize("analysis, key, value, low", [
    ("minimality", "kmax", -1, 2),
    ("minimality", "kmax", 1, 2),
    ("chains", "k", 0, 1),
    ("classify-manifold", "kmax", 0, 1),
    ("classify-manifold", "Dmax", -1, 0),
    ("psi-conditions", "kmax", -2, 1),
    ("psi-conditions", "kmax", 0, 1),
    ("reflection", "Gmax", -1, 0),
    ("reflection", "betamax", -1, 0),
    ("degeneracy-field", "Dmax", -3, 0),
])
def test_cli_bound_below_minimum_exits_2(tmp_path, capsys, analysis, key,
                                         value, low):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(dict(
        HEIS_MANIFEST, analyses=[{"name": analysis, key: value}])))
    assert main(["analyze", str(mpath), "--out",
                 str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "%s=%d of %r is below %d" % (key, value, analysis, low) in err


def test_cli_classify_manifold_kmax_stays_below_the_order(tmp_path, capsys):
    # nd2 of this Levi-degenerate source climbs to k = kmax; at k = order
    # no precision is left, so kmax = order is refused when the manifest is
    # read instead of failing the analysis
    data = {"order": 4,
            "source": {"m": 2, "d": 1, "rho": ["w1 - xi1 - i*z1*zeta1"]}}
    mpath = tmp_path / "m.json"
    out = str(tmp_path / "r.json")
    mpath.write_text(json.dumps(dict(
        data, analyses=[{"name": "classify-manifold", "kmax": 4}])))
    assert main(["analyze", str(mpath), "--out", out]) == 2
    assert "kmax=4 of 'classify-manifold' must be below order 4" in \
        capsys.readouterr().err
    mpath.write_text(json.dumps(dict(
        data, analyses=[{"name": "classify-manifold", "kmax": 3}])))
    assert main(["analyze", str(mpath), "--out", out]) == 0


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_cli_classify_manifold_default_kmax_stays_below_the_order(
        tmp_path, capsys, order):
    # without a kmax the ladder searches k <= min(order - 1, 4), so the
    # Levi-degenerate source runs at every order from 2 up; at order 1 no
    # kmax is below the order, and the manifest is refused when read
    data = {"order": order,
            "source": {"m": 2, "d": 1, "rho": ["w1 - xi1 - i*z1*zeta1"]},
            "analyses": [{"name": "classify-manifold"}]}
    mpath = tmp_path / "m.json"
    out = tmp_path / "r.json"
    mpath.write_text(json.dumps(data))
    code = main(["analyze", str(mpath), "--out", str(out)])
    if order == 1:
        assert code == 2
        assert ("analysis 'classify-manifold' without 'kmax' needs an order "
                "above 1, got order 1") in capsys.readouterr().err
        return
    assert code == 0
    ladder = json.loads(out.read_text())["analyses"][0]["result"]
    kmax = min(order - 1, 4)
    assert ladder["nd2"] == {"bound": kmax, "status": "fails"}
    assert ladder["nd3"]["bound"] == [kmax, 4]



@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_cli_psi_conditions_and_reflection_bounds_stay_in_precision(
        tmp_path, capsys, order):
    # the h4 rung differentiates the psi entries with |beta| = kmax once
    # more, so kmax = order is refused when the manifest is read and kmax
    # defaults to min(order - 1, 2); reflection defaults betamax to
    # min(order, 2), whose entries are exact to degree order - |beta|
    data = {"order": order, "map": ["z1", "w1"],
            "source": {"m": 1, "d": 1, "rho": ["w1 - xi1 - i*z1*zeta1"]}}
    mpath = tmp_path / "m.json"
    out = tmp_path / "r.json"

    def analyze(analysis):
        mpath.write_text(json.dumps(dict(data, analyses=[analysis])))
        return main(["analyze", str(mpath), "--out", str(out)])

    def result():
        return json.loads(out.read_text())["analyses"][0]["result"]

    assert analyze({"name": "psi-conditions", "kmax": order}) == 2
    assert ("kmax=%d of 'psi-conditions' must be below order %d"
            % (order, order)) in capsys.readouterr().err
    if order == 1:
        assert analyze({"name": "psi-conditions"}) == 2
        assert ("analysis 'psi-conditions' without 'kmax' needs an order "
                "above 1, got order 1") in capsys.readouterr().err
    else:
        assert analyze({"name": "psi-conditions"}) == 0
        assert result()["h2"] == {"bound": min(order - 1, 2), "k0": 1,
                                  "status": "holds"}
    assert analyze({"name": "reflection"}) == 0
    identities = result()["identities"]
    assert identities["ok"]
    assert max(sum(e["beta"]) for e in identities["entries"]) \
        == min(order, 2)

QUADRIC_MANIFEST = {
    "order": 7,
    "seed": 0,
    "source": {"m": 1, "d": 2, "rho": ["t2 - tau2 - i*t1*tau1",
                                      "t3 - tau3 - i*t1^2*tau1^2"]},
    "analyses": [{"name": "chains", "k": 3},
                 {"name": "minimality", "kmax": 7}],
}

# Its graph theta(zeta, 0, 0) = zeta^2 - zeta^3 + ... has a term of every
# zeta-degree up to the order, down to reflection components of order 0.
DENSE_MANIFEST = {
    "order": 6,
    "seed": 0,
    "source": {"m": 1, "d": 1, "rho": [
        "w1 - xi1 - i*z1*zeta1 + zeta1^2 - z1^2 + z1*w1 - zeta1*xi1"]},
    "map": ["z1", "w1"],
    "analyses": [{"name": "reflection", "Gmax": 3, "betamax": 2}],
}


@pytest.mark.parametrize("data, sha256", [
    (HEIS_MANIFEST,
     "6f7290bf9ff26538a0088d00f8a45a2482530eb23cf0877c7d6d4e414722b29e"),
    (QUADRIC_MANIFEST,
     "2480f5624ebe38747cfc3cc624585a7ed67e3d50fbe1122d6bc14262e8a57448"),
    (DENSE_MANIFEST,
     "3c675fd2a2ebec26a54025be4a125ebc59dcc5ef30195533f7ee4fa34e777882"),
])
def test_report_bytes_are_pinned(data, sha256):
    # A new digest means the same manifest now gives different report bytes.
    text = render_report(run(Manifest(data)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


# sha256 of (exit code, stderr, report bytes) of `crreflect analyze` on the
# benchmark's manifests, `perfbench/workloads.py::manifest_documents`.  A
# manifest that fails by a known defect is pinned as it fails today, under
# the key the benchmark gives the defect: its fix shows up as a re-pin.
KNOWN_DEFECTS = {"ex121-varpi": "map-chain-violated"}
MANIFEST_PINS = [
    (0, "heisenberg-identity",
     "206406f7452829e822decddbf905dc8ec1065ac9cb512f6f1a37c60568d65c8a"),
    (0, "heisenberg-dilation0",
     "355636d8813a72144503546c566b4269beb0e28ca2157b08734570e591833a2e"),
    (0, "heisenberg-dilation1",
     "206406f7452829e822decddbf905dc8ec1065ac9cb512f6f1a37c60568d65c8a"),
    (0, "sphere3-identity",
     "1186752e32334d78f880fbbb57536176a6da7f53c964a4f87744aedbb238169d"),
    (0, "sphere3-dilation0",
     "0d84d9c687e1daf06c7bf42fcfb5ac8483bff2e383bc743283368a47ba2a26bb"),
    (0, "sphere3-dilation1",
     "242b18dc6cc8c4b13c9ec9f420ab898ec862efa6332379ef19f4e56d5c24fb44"),
    (0, "ex121-identity",
     "f8394da40b416b36d1def7e8b568ca255601a6a2358d63cf2902e2a7a0bd8311"),
    (0, "ex121-dilation0",
     "3214713b23ac7ff8bb09fc7d2652a3a6fba9d66b63ba02333984e696d4bbbbd9"),
    (0, "ex121-varpi",
     "d89021d34425c6d249d743e9e9f1186a06d9d261a74b947178e75fbf4680460a"),
    (0, "z2zb2-identity",
     "4a70a9682ba96322bebaf82cb3032e12cb8c4277ecfa5217c844d09ec5bbcb18"),
    (0, "z2zb2-dilation0",
     "4a70a9682ba96322bebaf82cb3032e12cb8c4277ecfa5217c844d09ec5bbcb18"),
    (0, "z2zb2-dilation1",
     "b1b43c33cc0fceeb9a4d0c1217249d0e85931917fa6095aaead06ab0b5ce2475"),
    (0, "quadric_pair-identity",
     "2357ad0bdcd306ae8a8b384a4dca4962497d8b2f5034c6a71087f028fa5a058b"),
    (0, "quadric_pair-dilation0",
     "2357ad0bdcd306ae8a8b384a4dca4962497d8b2f5034c6a71087f028fa5a058b"),
    (0, "quadric_pair-dilation1",
     "3bdbb2f10a570739d1531a580c226fe88e5b197ee76afd470e8f8359254f9371"),
    (0, "dense-00",
     "042715f1553f5a2f9b6ecc8da7591a9c50f5b357f4f423bec2848039a536fd6b"),
    (0, "dense-01",
     "c05cfce8002c7930db7d89656e34f4153906e60e016098e3e50f30957202662c"),
    (0, "dense-02",
     "e63c21b0b15eebb91078972a46e861f1124397458f97a3afa530ec87cec28c58"),
    (0, "dense-03",
     "7b7767f7582e9644c126b46c4633436f5ea404af66ac6e43390aa79106f4bd8a"),
    (0, "dense-04",
     "045ad8ce69042fa02817494b2087f03975d27cbe59039e9b5f2cffe0cef86c89"),
    (0, "dense-05",
     "c14208db6b6c9fe6e6b81a6dda50e4c7bea9c4637bbd11ad96aa5c66b5a127c2"),
    (777, "heisenberg-identity",
     "2694dc841d8e27ae012d3fa6817d2162c8d2215c5acc1b805045bbda4dead659"),
    (777, "heisenberg-dilation0",
     "22d77ed1b340351e14982aa6298a323091bb581c8ec571a2e7ee179bac1c7b9b"),
    (777, "heisenberg-dilation1",
     "dadcf9fb82e862588b682ee9fc41539128b66c2bda411e5586f0799177627da1"),
    (777, "sphere3-identity",
     "2c9b6f5abb3e446084e1b8e577523ef335151e0f2455e3454947fc1a6e13353c"),
    (777, "sphere3-dilation0",
     "2ebc7ecac64d9c5089e32eecd8923b1ec5e61d214d20f91a42074eb92046e019"),
    (777, "sphere3-dilation1",
     "a80902ee5892409d60f18749e6aa9debac2dc9de868bf798f0d6f4f801f95118"),
    (777, "ex121-identity",
     "61de39459de3290941cfef29f1b5447509323bf75c9332b69b8ca7dae8731707"),
    (777, "ex121-dilation0",
     "fd8ae28da3ee6a8f9ee29fc2518fffcf32b92cb1a70f242addf9f269f3d26efe"),
    (777, "ex121-varpi",
     "d89021d34425c6d249d743e9e9f1186a06d9d261a74b947178e75fbf4680460a"),
    (777, "z2zb2-identity",
     "41ad2dea36c5ca346013fd7252f837843beee04ee4b42b6564841840dfa226d2"),
    (777, "z2zb2-dilation0",
     "41ad2dea36c5ca346013fd7252f837843beee04ee4b42b6564841840dfa226d2"),
    (777, "z2zb2-dilation1",
     "d3f07c7e13733a2b9776328b1005b39c074dcf69a259511e966965d40de672bd"),
    (777, "quadric_pair-identity",
     "cca539767f31ec9eb7df56c7bf93db64280168842aba4b162b64b60c6505c93d"),
    (777, "quadric_pair-dilation0",
     "5240722819d155fceffadc665a065e337a72579336302ce820c62bad3e1babe4"),
    (777, "quadric_pair-dilation1",
     "616e1358df038bef602714269573249fc7eb6d16b8eab924910b29aed324afd2"),
    (777, "dense-00",
     "3cf904d774f2f692fe17a80b847082de68cdcf988dfe725b7d1054b2b595db5b"),
    (777, "dense-01",
     "b4cb83ecfc123353e578057bc2ecc4ea48bda54af1d77dafcbc2ad240de60878"),
    (777, "dense-02",
     "113cf5e312068a73edef6e8cde04b6976164bdb99b8ea25a05c72738c74d1d4b"),
    (777, "dense-03",
     "d4c0587dc6ec909ade1e6e1f141264f36644f61a541cc8322f0aa0c5ad8b5f29"),
    (777, "dense-04",
     "964a587623e47e352b66bd4738235b6dfaa9e9cd17b31ae2a6bfaf259db5b96c"),
    (777, "dense-05",
     "11a917d2dc3fc209a816d4aca8561556fb24ce4b35d9c6d68026073660fe8eec"),
]


@functools.lru_cache(maxsize=None)
def _benchmark_manifests(seed):
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return dict(workloads.manifest_documents(seed))


def _pin_id(seed, label):
    key = KNOWN_DEFECTS.get(label)
    return "%d-%s%s" % (seed, label, "-" + key if key else "")


@pytest.mark.parametrize("seed, label, sha256", [
    pytest.param(*pin, id=_pin_id(*pin[:2])) for pin in MANIFEST_PINS])
def test_benchmark_manifest_reports_are_pinned(tmp_path, seed, label, sha256):
    path, out = tmp_path / "m.json", tmp_path / "r.json"
    path.write_text(json.dumps(_benchmark_manifests(seed)[label]))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["analyze", str(path), "--out", str(out)])
    assert code == (3 if label in KNOWN_DEFECTS else 0)
    digest = hashlib.sha256(("%d\n%s\n" % (code, err.getvalue())).encode())
    digest.update(out.read_bytes() if out.exists() else b"")
    assert digest.hexdigest() == sha256


def test_cli_unknown_analysis_exits_2_before_any_runs(tmp_path, capsys,
                                                      monkeypatch):
    ran = []
    monkeypatch.setattr("crreflect.manifest.minimality",
                        lambda *args, **kw: ran.append(args))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(dict(
        HEIS_MANIFEST, order=4,
        analyses=[{"name": "minimality", "kmax": 3}, {"name": "bogus"}])))
    out = tmp_path / "r.json"
    assert main(["analyze", str(mpath), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "unknown analysis 'bogus'" in captured.err
    assert captured.out == "" and not ran and not out.exists()



@pytest.mark.parametrize("analysis", ["verify-cr", "classify-map",
                                      "psi-conditions", "reflection"])
def test_cli_missing_map_exits_2_before_any_runs(tmp_path, capsys,
                                                 monkeypatch, analysis):
    ran = []
    monkeypatch.setattr("crreflect.manifest.minimality",
                        lambda *args, **kw: ran.append(args))
    data = dict(HEIS_MANIFEST, order=4,
                analyses=[{"name": "minimality", "kmax": 3},
                          {"name": analysis}])
    del data["map"]
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    assert main(["analyze", str(mpath), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "analysis %r needs a 'map' entry" % analysis in captured.err
    assert "failed" not in captured.err
    assert captured.out == "" and not ran and not out.exists()

@pytest.mark.parametrize("out", ["missing/r.json", "."])
def test_cli_unwritable_out_exits_2_before_any_runs(tmp_path, capsys,
                                                    monkeypatch, out):
    ran = []
    monkeypatch.setattr("crreflect.manifest.minimality",
                        lambda *args, **kw: ran.append(args))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(dict(
        HEIS_MANIFEST, order=4, analyses=[{"name": "minimality", "kmax": 3}])))
    target = tmp_path / out
    assert main(["analyze", str(mpath), "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not ran
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("analysis, key", [
    ("chains", "ell0"),
    ("chains", "kmax"),
    ("verify-cr", "kmax"),
    ("classify-map", "kmax"),
    ("reflection", "k"),
    ("minimality", "Dmax"),
])
def test_cli_unread_bound_exits_2(tmp_path, capsys, analysis, key):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(dict(
        HEIS_MANIFEST, analyses=[{"name": analysis, key: 1}])))
    out = tmp_path / "r.json"
    assert main(["analyze", str(mpath), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "%r does not read '%s'" % (analysis, key) in err
    assert not out.exists()


def test_readme_example_manifest_runs(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    example = readme.read_text(encoding="utf-8").split("```json\n")[1]
    mpath = tmp_path / "m.json"
    mpath.write_text(example.split("```")[0])
    assert main(["analyze", str(mpath), "--out",
                 str(tmp_path / "r.json")]) == 0
