"""CLI and serialization tests: determinism, exit codes, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grs import io as gio
from grs.catalog import (HVI_TEXT, MATCH_PAIRS, get_scheme, get_system, scheme_names,
                         system_names)
from grs.cli import main

GOLDEN_CLI = Path(__file__).parent / "golden_cli"


@pytest.mark.parametrize("name", system_names())
def test_builtin_systems_round_trip_byte_identically(name):
    vf = get_system(name).vf
    text = gio.dumps(gio.vf_to_json(vf))
    again = gio.vf_from_json(gio.loads(text))
    assert gio.dumps(gio.vf_to_json(again)) == text
    assert again.dxdt == vf.dxdt and again.dydt == vf.dydt


@pytest.mark.parametrize("name", scheme_names())
def test_builtin_schemes_round_trip(name):
    scheme = get_scheme(name).scheme
    text = gio.dumps(gio.scheme_to_json(scheme))
    again = gio.scheme_from_json(gio.loads(text))
    assert gio.dumps(gio.scheme_to_json(again)) == text


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_show_round_trip_and_determinism(capsys):
    code1, out1, _ = _run(capsys, "show", "--system", "gen-piii", "--format", "json")
    code2, out2, _ = _run(capsys, "show", "--system", "gen-piii", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["chart"] == "U0"


def test_cli_classify(capsys):
    code, out, _ = _run(capsys, "classify", "--relation", "genVI")
    assert code == 0
    tuples = [line for line in out.splitlines() if line.startswith("  (")]
    assert len(tuples) == 4 and "  (2, 2, 2, 2)" in tuples


def test_cli_recover_pvi(capsys):
    code, out, _ = _run(capsys, "recover", "--scheme", "builtin:pvi", "--trace")
    assert code == 0
    assert "a5 -> -2*a10" in out
    assert "normalization" in out


def test_cli_recover_reports_relation(capsys):
    code, out, _ = _run(capsys, "recover", "--scheme", "builtin:gen-piii")
    assert code == 0
    assert "n1*n2 - 4 = 0" in out


def test_cli_singular_pvi(capsys):
    code, out, _ = _run(capsys, "singular", "--system", "pvi")
    assert code == 0
    for label in ("X=0", "X=1", "X=t", "X=inf"):
        assert label in out
    assert "ratio 2" in out


def test_cli_singular_piv_reports_undefined_matrix(capsys):
    # the field has a pole at the triple point X=inf, so its matrix is undefined
    code, out, err = _run(capsys, "singular", "--system", "piv")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "X=0 (multiplicity 1, chart U2)",
        "  matrix [[4, 2*beta1], [0, 2]]",
        "  local index ('2', '4')  ratio 2",
        "X=inf (multiplicity 3, chart U3)",
        "  matrix undefined (field not regular at X=inf in chart U3)",
        "  local index ('degenerate (multiple point)', 'degenerate (multiple point)')"
        "  ratio resolve the point first",
    ]
    code, out, _ = _run(capsys, "singular", "--system", "piv", "--format", "json")
    assert code == 0
    rows = {row["point"]: row for row in json.loads(out)}
    assert rows["0"]["matrix"] == [["4", "2*beta1"], ["0", "2"]]
    assert rows["inf"]["matrix"] is None
    assert rows["inf"]["multiplicity"] == 3


def test_cli_resolve(capsys):
    code, out, _ = _run(capsys, "resolve", "--system", "gen-pv", "--point", "0")
    assert code == 0
    assert "patching map: (x, x^2*y)" in out
    assert "resolved point: (0, -t)" in out


def test_cli_resolve_simple_point_is_a_usage_error(capsys):
    code, out, err = _run(capsys, "resolve", "--system", "pvi", "--point", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: X=0 has multiplicity 1;") and err.count("\n") == 1


def test_cli_resolve_unresolvable_point_exits_three(tmp_path, capsys):
    """a10 != 0 keeps the exceptional origin of the double point X=0 inaccessible."""
    from grs.algebra import Context
    from grs.surface import SIGMA2_UNKNOWNS, generic_family, sigma2_model
    ctx = Context.make(parameters=["alpha2"], unknowns=list(SIGMA2_UNKNOWNS))
    family = generic_family(sigma2_model(ctx), ctx)
    values = {"a1": 1, "a2": 1, "a3": 0, "a4": 0, "a5": 0, "a6": 0, "a7": 0,
              "a8": 0, "a9": 0, "a10": 3}
    vf = family.vf.subs_params({k: ctx.rat(v) for k, v in values.items()})
    path = tmp_path / "double.json"
    path.write_text(gio.dumps(gio.vf_to_json(vf)))
    code, out, err = _run(capsys, "resolve", "--system", str(path), "--point", "0")
    assert (code, out) == (3, "")
    assert err.startswith("verification mismatch:") and err.count("\n") == 1


def test_cli_alpha_test(capsys):
    code, out, _ = _run(capsys, "alpha-test", "--system", "pvi", "--point", "0")
    assert code == 0
    assert "single-valued: True" in out


def test_cli_symmetry_exit_codes(capsys):
    code, out, _ = _run(capsys, "symmetry", "--system", "gen-piii", "--map", "s",
                        "--draws", "3")
    assert code == 0
    code, out, _ = _run(capsys, "symmetry", "--system", "gen-pvi",
                        "--map", "pi3-verbatim", "--draws", "2")
    assert code == 3


def test_cli_construct(capsys):
    code, out, _ = _run(capsys, "construct", "--n", "2", "--points", "0,1",
                        "--ratios", "2,2,2,2")
    assert code == 0
    assert "accessible points: 0, 1, t, inf" in out


@pytest.mark.parametrize("flags", [("--ratios", "1/0"),
                                   ("--points", "1/0,1", "--ratios", "2,2,2,2")])
def test_cli_construct_zero_denominator_exits_one(capsys, flags):
    code, out, err = _run(capsys, "construct", "--n", "2", *flags)
    assert (code, out) == (1, "")
    assert err.startswith("error: zero denominator in '1/0") and err.count("\n") == 1


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_cli_symmetry_without_probes_exits_one(capsys, draws):
    code, out, err = _run(capsys, "symmetry", "--system", "gen-pvi", "--map", "pi2",
                          "--draws", draws)
    assert (code, out) == (1, "")
    assert err == f"error: numeric-probe mode needs draws >= 1, got {draws}\n"


def test_cli_symmetry_draws_over_cap_exits_one(capsys):
    code, out, err = _run(capsys, "symmetry", "--system", "gen-pvi", "--map", "pi2",
                          "--draws", "1000000000")
    assert (code, out) == (1, "")
    assert err == "error: numeric-probe mode takes at most 1000 draws, got 1000000000\n"
    # symbolic mode draws nothing and ignores the option
    code, out, _ = _run(capsys, "symmetry", "--system", "gen-piii", "--map", "s",
                        "--symbolic", "--draws", "1000000000")
    assert code == 0 and "invariant=True (symbolic, draws=0)" in out


def test_cli_classify_integers_over_budget_exits_one(capsys):
    # the default --bound 100 asks for a genVI box of 200^4 tuples
    code, out, err = _run(capsys, "classify", "--relation", "genVI", "--integers")
    assert (code, out) == (1, "")
    assert err == ("error: genVI search box of (2*100)^4 = 1600000000 tuples exceeds "
                   "the budget of 10000000; the largest bound allowed is 28\n")


@pytest.mark.parametrize("bound", ["0", "-4"])
def test_cli_classify_integers_bound_below_one_exits_one(capsys, bound):
    assert _run(capsys, "classify", "--relation", "genIV", "--integers", "--bound", bound) == (
        1, "", f"error: --integers needs --bound >= 1, got {bound}\n")


def test_cli_recover_point_at_a_high_power_of_t(capsys):
    """gen-pvi with point 0 moved to t^5 (io.scheme_to_json of the builtin,
    one location changed); its gcds once ran a PRS without end."""
    scheme = Path(__file__).parent / "fixtures" / "gen-pvi_point0_t5.json"
    code, out, err = _run(capsys, "recover", "--scheme", str(scheme))
    assert (code, err) == (0, "")
    assert ("# eigenvalue relation: 2*n1*n2*n3*n4 - n1*n2*n3 - n1*n2*n4 - n1*n3*n4"
            " - n2*n3*n4 = 0") in out.splitlines()


FIXTURES = Path(__file__).parent / "fixtures"
# dx/dt = (x^2 + 1)*(t*x - 1)*y, dy/dt = 0: F1(s, 0) = (s^2 + 1)*(t*s - 1)
QUADRATIC_FACTOR = FIXTURES / "quadratic_factor.json"
_CUBIC = "error: unresolved factor: (-1)*X^0 + (t)*X^1 + (-1)*X^2 + (t)*X^3\n"
# x^320*y and y^256*t: exponents and degrees past every byte boundary
HIGH_DEGREE = FIXTURES / "high_degree.json"


@pytest.mark.parametrize("fmt, golden", [("pretty", "show_high_degree.txt"),
                                         ("json", "show_high_degree.json")])
def test_cli_show_high_degree_matches_golden(capsys, fmt, golden):
    assert _run(capsys, "show", "--system", str(HIGH_DEGREE), "--format", fmt) == (
        0, (GOLDEN_CLI / golden).read_text(), "")


@pytest.mark.parametrize("candidates, err", [
    (None, _CUBIC),
    # the root 1/t deflates, and s^2 + 1 stays
    ("1/t", "error: unresolved factor: (t)*X^0 + (t)*X^2\n"),
])
def test_cli_singular_unresolved_factor(capsys, monkeypatch, candidates, err):
    if candidates is None:
        monkeypatch.delenv("GRS_CANDIDATE_ROOTS", raising=False)
    else:
        monkeypatch.setenv("GRS_CANDIDATE_ROOTS", candidates)
    assert _run(capsys, "singular", "--system", str(QUADRATIC_FACTOR)) == (1, "", err)


@pytest.mark.parametrize("candidate", ["x+1", "x"])
def test_cli_singular_candidate_involving_x_is_never_a_root(candidate):
    """x + 1 would formally deflate s^2 + 1 for ever (its d*s - n is -1), and
    x would divide by zero; both are refused, in seconds."""
    env = dict(os.environ, GRS_CANDIDATE_ROOTS=candidate,
               PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "grs.cli", "singular", "--system",
                           str(QUADRATIC_FACTOR)], capture_output=True, text=True,
                          env=env, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", _CUBIC)


@pytest.mark.parametrize("name", ["gen-pv_point0_x1", "pvi_point1_x1"])
@pytest.mark.parametrize("command", ["recover", "relation"])
def test_cli_scheme_location_involving_x_exits_one(capsys, name, command):
    """A double point (gen-pv) and a simple point (pvi) moved to x + 1."""
    scheme = FIXTURES / f"{name}.json"
    assert _run(capsys, command, "--scheme", str(scheme)) == (
        1, "", "error: scheme column X=x + 1: the location may not involve x or y\n")


def test_cli_scheme_resolved_point_involving_y_exits_one(tmp_path, capsys):
    data = gio.scheme_to_json(get_scheme("gen-pv").scheme)
    data["specs"][0]["resolved"]["point"][1] = "t*y"
    path = tmp_path / "resolved_y.json"
    path.write_text(gio.dumps(data))
    assert _run(capsys, "recover", "--scheme", str(path)) == (
        1, "", "error: scheme column X=0: the resolved point may not involve x or y\n")


def test_cli_scheme_resolved_point_off_the_exceptional_line_exits_one(tmp_path, capsys):
    data = gio.scheme_to_json(get_scheme("gen-pv").scheme)
    data["specs"][0]["resolved"]["point"][0] = "5"
    path = tmp_path / "resolved_off_line.json"
    path.write_text(gio.dumps(data))
    assert _run(capsys, "recover", "--scheme", str(path)) == (
        1, "", "error: scheme column X=0: the resolved point (5, -t) is off the "
               "exceptional line\n")


def test_cli_match(capsys):
    code, out, _ = _run(capsys, "match", "--pair", "gen-piv:piv")
    assert code == 0
    assert "beta1 -> alpha1" in out


@pytest.mark.parametrize("pair", MATCH_PAIRS)
def test_cli_match_json_matches_golden(capsys, pair):
    code, out, err = _run(capsys, "match", "--pair", pair, "--format", "json")
    golden = (GOLDEN_CLI / f"match_{pair.replace(':', '_')}.json").read_text()
    assert (code, out, err) == (0, golden, "")


@pytest.mark.parametrize("system", system_names())
def test_cli_singular_json_matches_golden(capsys, system):
    code, out, err = _run(capsys, "singular", "--system", system, "--format", "json")
    golden = (GOLDEN_CLI / f"singular_{system}.json").read_text()
    assert (code, out, err) == (0, golden, "")


@pytest.mark.parametrize("system", system_names())
def test_cli_singular_pretty_matches_golden(capsys, system):
    golden = (GOLDEN_CLI / f"singular_{system}.txt").read_text()
    assert _run(capsys, "singular", "--system", system) == (0, golden, "")


@pytest.mark.parametrize("system", ["pvi", "gen-pvi"])
@pytest.mark.parametrize("point", ["0", "1", "t", "inf"])
def test_cli_alpha_test_json_matches_golden(capsys, system, point):
    code, out, err = _run(capsys, "alpha-test", "--system", system, "--point", point,
                          "--format", "json")
    golden = (GOLDEN_CLI / f"alpha-test_{system}_{point}.json").read_text()
    assert (code, out, err) == (0, golden, "")


@pytest.mark.parametrize("system, point", [("gen-pv", "0"), ("gen-piv", "0"),
                                           ("gen-piii", "inf")])
def test_cli_resolve_json_matches_golden(capsys, system, point):
    code, out, err = _run(capsys, "resolve", "--system", system, "--point", point,
                          "--format", "json")
    golden = (GOLDEN_CLI / f"resolve_{system}_{point}.json").read_text()
    assert (code, out, err) == (0, golden, "")


@pytest.mark.parametrize("system, point", [("gen-pv", "0"), ("gen-piv", "0"),
                                           ("gen-piii", "inf")])
def test_cli_resolve_pretty_matches_golden(capsys, system, point):
    golden = (GOLDEN_CLI / f"resolve_{system}_{point}.txt").read_text()
    assert _run(capsys, "resolve", "--system", system, "--point", point) == (0, golden, "")


_SHIPPED_MAPS = [("gen-piii", "s"), ("gen-piii", "pi"), ("gen-piv", "s"), ("gen-pv", "s"),
                 ("gen-pv", "pi"), ("gen-pvi", "s"), ("gen-pvi", "pi1"), ("gen-pvi", "pi2"),
                 ("gen-pvi", "pi3")]


@pytest.mark.parametrize("system, bmap", _SHIPPED_MAPS + [("gen-pvi", "pi3-verbatim")])
def test_cli_symmetry_probe_json_matches_golden(capsys, system, bmap):
    """pi3-verbatim pins the failing draw, the note and the residual text."""
    code, out, err = _run(capsys, "symmetry", "--system", system, "--map", bmap,
                          "--format", "json")
    golden = (GOLDEN_CLI / f"symmetry_{system}_{bmap}.json").read_text()
    assert (code, out, err) == (3 if bmap == "pi3-verbatim" else 0, golden, "")


@pytest.mark.parametrize("system, bmap", _SHIPPED_MAPS + [("gen-pvi", "pi3-verbatim")])
def test_cli_symmetry_symbolic_json_matches_golden(capsys, system, bmap):
    """pi3-verbatim pins the full symbolic residual; its exact check runs one
    gcd of two 500-term operands in 11 symbols that returns 1."""
    code, out, err = _run(capsys, "symmetry", "--system", system, "--map", bmap,
                          "--symbolic", "--format", "json")
    golden = (GOLDEN_CLI / f"symmetry_{system}_{bmap}_symbolic.json").read_text()
    assert (code, out, err) == (3 if bmap == "pi3-verbatim" else 0, golden, "")


@pytest.mark.parametrize("scheme", scheme_names())
def test_cli_recover_json_matches_golden(capsys, scheme):
    """The JSON trace pins the order in which the solver picks its pivots."""
    code, out, err = _run(capsys, "recover", "--scheme", scheme, "--format", "json")
    golden = (GOLDEN_CLI / f"recover_{scheme}.json").read_text()
    assert (code, out, err) == (0, golden, "")


@pytest.mark.parametrize("scheme", ["gen-pvi", "gen-pv", "gen-piv", "gen-piii"])
def test_cli_relation_json_matches_golden(capsys, scheme):
    code, out, err = _run(capsys, "relation", "--scheme", scheme, "--format", "json")
    golden = (GOLDEN_CLI / f"relation_{scheme}.json").read_text()
    assert (code, out, err) == (0, golden, "")


@pytest.mark.parametrize("n, points, ratios", [("2", "0,1", "2,2,2,2"),
                                               ("3", "0,1,2", "1,2,2,2,2")])
def test_cli_construct_json_matches_golden(capsys, n, points, ratios):
    code, out, err = _run(capsys, "construct", "--n", n, "--points", points,
                          "--ratios", ratios, "--format", "json")
    golden = (GOLDEN_CLI / f"construct_n{n}.json").read_text()
    assert (code, out, err) == (0, golden, "")


@pytest.mark.parametrize("system, message", [
    ("nope", "unknown builtin system 'nope'; available: "),
    ("piv", "no builtin maps for 'piv'; available: "),
])
def test_cli_symmetry_key_error_prints_the_bare_message(capsys, system, message):
    code, out, err = _run(capsys, "symmetry", "--system", system, "--map", "s")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}[") and err.endswith("]\n")
    assert err.count("\n") == 1


def test_cli_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recover"])
    assert exc.value.code == 1


def test_cli_unknown_system_exits_one(capsys):
    code, out, err = _run(capsys, "show", "--system", "does-not-exist")
    assert code == 1
    assert "neither a builtin" in err


def test_cli_malformed_scheme_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = main(["recover", "--scheme", str(bad)])
    err = capsys.readouterr().err
    assert code == 1


@pytest.mark.parametrize("document, message", [
    ({"chart": "U0"}, "vector field JSON has no field 'dxdt'"),
    ({"chart": "U0", "dxdt": "x", "dydt": "y"}, "vector field JSON has no field 'model'"),
    ({"dxdt": "x", "dydt": "y", "model": {"n": 2, "twist": ["alpha2"]}},
     "vector field JSON has no field 'chart'"),
    ({"chart": "U0", "dxdt": "x", "dydt": "y", "model": {"twist": ["alpha2"]}},
     "vector field JSON model has no field 'n'"),
    ({"chart": "U0", "dxdt": "x", "dydt": "y", "model": {"n": 2, "twist": ["alpha2"]},
      "symbols": [{"name": "x"}]}, "vector field JSON symbols[0] has no field 'kind'"),
    (["x", "y"], "vector field JSON is not a JSON object"),
    ({"chart": "U0", "dxdt": 5, "dydt": "y", "model": {"n": 2, "twist": ["alpha2"]}},
     "vector field JSON field 'dxdt' is not a string"),
    ({"chart": "U0", "dxdt": "x", "dydt": "y", "model": {"n": 2, "twist": 5}},
     "vector field JSON model field 'twist' is not a list of strings"),
    ({"chart": "U0", "dxdt": "x", "dydt": "y", "model": {"n": "abc", "twist": ["alpha2"]}},
     "vector field JSON model field 'n' is not an integer"),
    ({"chart": "U0", "dxdt": "(" * 5000 + "x" + ")" * 5000, "dydt": "y",
      "model": {"n": 2, "twist": ["alpha2"]}}, "parentheses nested deeper than 100"),
])
def test_cli_vector_field_file_names_the_missing_field(tmp_path, capsys, document, message):
    path = tmp_path / "vf.json"
    path.write_text(gio.dumps(document))
    assert _run(capsys, "show", "--system", str(path)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("power", ["2^99999999", "(x+y)^99999999"])
def test_cli_exponent_above_the_budget_exits_one(tmp_path, capsys, power):
    path = tmp_path / "vf.json"
    path.write_text(gio.dumps({"chart": "U0", "dxdt": power, "dydt": "y",
                               "model": {"n": 2, "twist": ["alpha2"]}}))
    assert _run(capsys, "show", "--system", str(path)) == (
        1, "", f"error: power above MAX_EXPONENT = 64 in {power!r}\n")


def test_cli_unknown_chart_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "vf.json"
    path.write_text(gio.dumps({"chart": "U9", "dxdt": "x", "dydt": "y",
                               "model": {"n": 2, "twist": ["alpha2"]}}))
    assert _run(capsys, "show", "--system", str(path)) == (1, "", "error: unknown chart U9\n")


def test_cli_closed_stdout_exits_quietly():
    """A reader that stops early (``grs ... | head``) leaves no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "grs.cli", "show", "--system", "pvi",
                               "--format", "json"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


_MODEL = {"n": 2, "twist": ["alpha2"]}
_SPEC = {"location": "0", "multiplicity": 1, "matrix": [["1", "0"], ["0", "2"]]}


@pytest.mark.parametrize("document, message", [
    ({"specs": [_SPEC]}, "scheme JSON has no field 'model'"),
    ({"model": _MODEL}, "scheme JSON has no field 'specs'"),
    ({"model": {"n": 2}, "specs": [_SPEC]}, "scheme JSON model has no field 'twist'"),
    ({"model": _MODEL, "specs": [_SPEC, {"location": "1", "multiplicity": 1}]},
     "scheme JSON specs[1] has no field 'matrix'"),
    ({"model": _MODEL, "specs": [{"location": "0", "matrix": [["1", "0"], ["0", "2"]]}]},
     "scheme JSON specs[0] has no field 'multiplicity'"),
    ({"model": _MODEL, "specs": [dict(_SPEC, resolved={"map": ["x", "x^2*y"]})]},
     "scheme JSON specs[0] resolved has no field 'point'"),
    ({"model": _MODEL, "specs": ["0"]}, "scheme JSON specs[0] is not a JSON object"),
    ({"model": _MODEL, "specs": 5}, "scheme JSON field 'specs' is not a list"),
    ({"model": {"n": 2, "twist": 5}, "specs": [_SPEC]},
     "scheme JSON model field 'twist' is not a list of strings"),
    ({"model": {"n": "abc", "twist": ["alpha2"]}, "specs": [_SPEC]},
     "scheme JSON model field 'n' is not an integer"),
    ({"model": _MODEL, "specs": [dict(_SPEC, matrix=[[1, 0], [0, 2]])]},
     "scheme JSON specs[0] field 'matrix' is not a list of lists of strings"),
    ({"model": _MODEL, "specs": [dict(_SPEC, multiplicity=True)]},
     "scheme JSON specs[0] field 'multiplicity' is not an integer"),
])
def test_cli_scheme_file_names_the_missing_field(tmp_path, capsys, document, message):
    path = tmp_path / "scheme.json"
    path.write_text(gio.dumps(document))
    assert _run(capsys, "relation", "--scheme", str(path)) == (1, "", f"error: {message}\n")


def test_cli_solver_failure_exits_two(tmp_path, capsys):
    """A scheme unsatisfiable for every eigenvalue assignment (ratio 3 at all
    four simple points violates the reciprocal-sum constraint) exits 2."""
    from grs.algebra import Mat2
    from grs.recovery import GRScheme, SingularSpec
    entry = get_scheme("pvi")
    scheme = entry.scheme
    ctx = scheme.specs[0].matrix[0, 0].ctx
    specs = tuple(SingularSpec(s.location, s.multiplicity,
                               Mat2([[ctx.rat(3), s.matrix[0, 1]],
                                     [ctx.rat(0), ctx.rat(1)]]))
                  for s in scheme.specs)
    bad = GRScheme(scheme.model, specs, scheme.params, (), "bad")
    path = tmp_path / "bad.json"
    path.write_text(gio.dumps(gio.scheme_to_json(bad)))
    code = main(["recover", "--scheme", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "solver failure" in err


def test_cli_scheme_file_round_trip(tmp_path, capsys):
    scheme = get_scheme("gen-piii").scheme
    path = tmp_path / "scheme.json"
    path.write_text(gio.dumps(gio.scheme_to_json(scheme)))
    code, out, _ = _run(capsys, "relation", "--scheme", str(path))
    assert code == 0
    assert "n1*n2 - 4 = 0" in out


def test_scheme_json_without_symbols_block(tmp_path, capsys):
    """The documented minimal format (model, specs, params) is accepted;
    the symbol table is inferred from the identifiers that occur."""
    minimal = {
        "model": {"n": 2, "twist": ["alpha2"]},
        "params": ["alpha0", "alpha1", "alpha2", "n1", "n2"],
        "eigenvalues": ["n1", "n2"],
        "specs": [
            {"location": "0", "multiplicity": 2,
             "matrix": [["1", "0"], ["2*alpha0", "n1"]],
             "resolved": {"map": ["x", "x^2*y"], "point": ["0", "-t"]}},
            {"location": "inf", "multiplicity": 2,
             "matrix": [["1", "0"], ["2*alpha1", "n2"]],
             "resolved": {"map": ["1/x", "-(x*y + alpha2)/x"],
                          "point": ["0", "-1"]}},
        ],
    }
    path = tmp_path / "minimal.json"
    path.write_text(gio.dumps(minimal))
    code, out, _ = _run(capsys, "relation", "--scheme", str(path))
    assert code == 0
    assert "n1*n2 - 4 = 0" in out


def test_cli_show_hvi(capsys):
    code, out, _ = _run(capsys, "show", "--system", "hvi")
    assert code == 0
    assert "alpha0 + alpha1 + 2*alpha2 + alpha3 + alpha4 = 1" in out


def test_cli_show_hvi_json_is_one_json_object(capsys):
    code, out, _ = _run(capsys, "show", "--system", "hvi", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"hamiltonian": HVI_TEXT}
    assert _run(capsys, "show", "--system", "hvi") == (0, HVI_TEXT + "\n", "")


def test_cli_truncated_expression_names_the_end_of_input(tmp_path, capsys):
    path = tmp_path / "vf.json"
    path.write_text(gio.dumps({"chart": "U0", "dxdt": "x+", "dydt": "y",
                               "model": {"n": 2, "twist": ["alpha2"]}}))
    assert _run(capsys, "show", "--system", str(path)) == (
        1, "", "error: unexpected end of input in 'x+'\n")


def test_cli_message_quoting_a_line_break_stays_one_line(tmp_path, capsys):
    path = tmp_path / "vf.json"
    path.write_text(gio.dumps({"chart": "U9\nU0", "dxdt": "x", "dydt": "y",
                               "model": {"n": 2, "twist": ["alpha2"]}}))
    assert _run(capsys, "show", "--system", str(path)) == (
        1, "", "error: unknown chart U9\\nU0\n")
