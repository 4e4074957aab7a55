"""CLI and serialization tests: determinism, exit codes, round trips."""

import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grs import cli, io as gio
from grs.catalog import (HVI_TEXT, MATCH_PAIRS, get_maps, get_scheme, get_system, match_pair,
                         scheme_names, system_names)
from grs.cli import _fractions, main
from grs.diophantine import RelationError
from grs.symmetry import SymmetryError

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
    vf = family.subs_params({k: ctx.rat(v) for k, v in values.items()})
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


@pytest.mark.parametrize("points, ratios, value", [("0,1", "1e999999999,2,2,2", "1e999999999"),
                                                  ("0,1", "2,2,2,1E-4301", "1E-4301"),
                                                  ("0,1e4_301", "2,2,2,2", "1e4_301")])
def test_cli_construct_exponent_above_the_bound_exits_one(points, ratios, value):
    """Fraction computes 10**e before anything checks e, so a huge exponent
    would run for ever; it is refused at once, in a process of its own."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "grs.cli", "construct", "--n", "2",
                           "--points", points, "--ratios", ratios],
                          capture_output=True, text=True, env=env, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: exponent above MAX_DECIMAL_EXPONENT = 4300 in {value!r}\n")


def test_cli_construct_reciprocal_sum_off_n_exits_one(capsys):
    assert _run(capsys, "construct", "--n", "2", "--points", "0,1", "--ratios", "3,2,2,2") == (
        1, "", "error: sum of reciprocal ratios is 11/6, expected 2\n")


def _decimal_text(q: Fraction) -> str:
    """q as num/den text, its digits taken from Decimal, which converts
    integers of any length to text."""
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


@pytest.mark.parametrize("ratios, total", [("1e4300,2,2,2", Fraction(3, 2) + Fraction(1, 10**4300)),
                                           ("1e-4300,2,2,2", Fraction(3, 2) + 10**4300)],
                         ids=["1e4300,2,2,2", "1e-4300,2,2,2"])
def test_cli_construct_long_reciprocal_sum_prints_exactly(capsys, ratios, total):
    """A sum of more digits than the interpreter converts to text at once
    (4301 and 8601 here) is printed exactly."""
    assert _run(capsys, "construct", "--n", "2", "--points", "0,1", "--ratios", ratios) == (
        1, "", f"error: sum of reciprocal ratios is {_decimal_text(total)}, expected 2\n")


def test_cli_numbers_up_to_the_exponent_bound_parse_as_fractions():
    assert _fractions("1e4300, -3/4,1.5E-2,2_0,0e-0004300") == [
        Fraction(10) ** 4300, Fraction(-3, 4), Fraction(3, 200), Fraction(20), Fraction(0)]


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789_./eE+-", max_size=12).map(lambda t: f" {t} "))
def test_cli_numbers_read_as_fraction_reads_them(text):
    """Below any digit limit, an option's number is the Fraction of its text,
    and a text Fraction refuses is refused; an exponent above the bound is
    refused on its own."""
    try:
        expected = [Fraction(text)]
    except (ValueError, ZeroDivisionError):
        expected = None
    try:
        got = _fractions(text)
    except ValueError as exc:
        if "MAX_DECIMAL_EXPONENT" in str(exc):
            return
        got = None
    assert got == expected


@pytest.mark.parametrize("text", ["7" * 4400, "-" + "7" * 4400 + "/3" + "0" * 4400,
                                  "0." + "12" * 2200 + "e-5", "+" + "9_9" * 1500 + ".5"])
def test_cli_numbers_of_any_length_parse_exactly(text):
    """Numbers of more digits than the interpreter converts at once are read
    exactly; Decimal, which reads text of any length, is the reference."""
    num, _, den = text.replace("_", "").partition("/")
    expected = Fraction(Decimal(num)) / Fraction(Decimal(den or "1"))
    assert _fractions(text) == [expected]


@pytest.mark.parametrize("fmt, golden", [("pretty", "construct_n2_1e4300.txt"),
                                         ("json", "construct_n2_1e4300.json")])
def test_cli_construct_at_a_point_of_4301_digits_matches_its_goldens(capsys, fmt, golden):
    """The system at the point 10^4300 is the one at a symbolic point p with
    p replaced by 10^4300, and prints its goldens byte for byte."""
    assert _run(capsys, "construct", "--n", "2", "--points", "0,1e4300", "--ratios", "2,2,2,2",
                "--format", fmt) == (0, (GOLDEN_CLI / golden).read_text(), "")
    if fmt == "json":
        from grs.algebra import Context
        from grs.recovery import construct_existence_system
        ctx = Context.make(parameters=["p"])
        vf = construct_existence_system(2, [0, ctx.var("p")], [2, 2, 2, 2]).vf
        vf = vf.subs_params({"p": vf.ctx.rat(10**4300)})
        data = json.loads((GOLDEN_CLI / golden).read_text())
        assert (data["dxdt"], data["dydt"]) == (str(vf.dxdt), str(vf.dydt))


def test_cli_construct_at_a_point_of_4400_digits_prints_it(capsys):
    point = "7" * 4400
    code, out, err = _run(capsys, "construct", "--n", "2", "--points", f"0,{point}",
                          "--ratios", "2,2,2,2")
    assert (code, err) == (0, "")
    assert f"accessible points: 0, t, {point}, inf\n" in out


def test_cli_json_integer_over_the_digit_limit_exits_one(tmp_path, capsys):
    """A JSON integer literal longer than MAX_JSON_DIGITS is refused with one
    line that names the limit, not the interpreter's own."""
    data = gio.scheme_to_json(get_scheme("gen-pv").scheme)
    data["specs"][0]["multiplicity"] = 7
    path = tmp_path / "long.json"
    path.write_text(gio.dumps(data).replace('"multiplicity": 7', '"multiplicity": ' + "7" * 4400))
    assert _run(capsys, "recover", "--scheme", str(path)) == (
        1, "", "error: JSON integer of 4400 digits, above MAX_JSON_DIGITS = 640\n")
    longest = "7" * gio.MAX_JSON_DIGITS
    assert gio.loads(f"[-{longest}, {longest}]") == [-int(longest), int(longest)]


@pytest.mark.parametrize("command, flag", [("show", "--system"), ("recover", "--scheme")])
def test_cli_directory_reference_exits_one(tmp_path, capsys, command, flag):
    code, out, err = _run(capsys, command, flag, str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(tmp_path) in err and err.count("\n") == 1


def test_cli_input_file_over_the_size_limit_exits_one(tmp_path, capsys, monkeypatch):
    """A file is read up to the limit and refused, with one line, when it is
    longer; a file of exactly the limit, or standard input, is read as usual."""
    path = tmp_path / "pvi.json"
    path.write_text(gio.dumps(gio.vf_to_json(get_system("pvi").vf)))
    size = len(path.read_text())
    monkeypatch.setattr(cli, "MAX_INPUT_CHARS", size - 1)
    assert _run(capsys, "show", "--system", str(path)) == (
        1, "", f"error: {str(path)!r} is longer than {size - 1} characters\n")
    monkeypatch.setattr(cli, "MAX_INPUT_CHARS", size)
    code, out, err = _run(capsys, "show", "--system", str(path), "--format", "json")
    assert (code, err) == (0, "")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "grs.cli", "show", "--system", "/dev/stdin",
                           "--format", "json"], input=path.read_text(),
                          capture_output=True, text=True, env=env, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


@pytest.mark.parametrize("multiplicity", [0, -3])
def test_cli_scheme_multiplicity_below_one_exits_one(tmp_path, capsys, multiplicity):
    data = gio.scheme_to_json(get_scheme("pvi").scheme)
    data["specs"][0]["multiplicity"] = multiplicity
    path = tmp_path / "multiplicity.json"
    path.write_text(gio.dumps(data))
    assert _run(capsys, "recover", "--scheme", str(path)) == (
        1, "", f"error: scheme column X=0: multiplicity {multiplicity} is below 1\n")


@pytest.mark.parametrize("multiplicity", [4, 200, 10 ** 639])
@pytest.mark.parametrize("command", ["recover", "relation"])
def test_cli_scheme_multiplicity_above_three_exits_one(tmp_path, capsys, command, multiplicity):
    """A double-point column of gen-pv with any multiplicity above 3, up to
    the 640 digits a JSON integer may have, is refused at once by the rule
    resolve applies to accessible points."""
    data = gio.scheme_to_json(get_scheme("gen-pv").scheme)
    data["specs"][0]["multiplicity"] = multiplicity
    path = tmp_path / "multiplicity.json"
    path.write_text(gio.dumps(data))
    assert _run(capsys, command, "--scheme", str(path)) == (
        1, "", f"error: X=0 has multiplicity {multiplicity}; resolution is implemented "
               "for multiplicities 2 and 3\n")


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


def test_cli_recover_point_at_a_hostile_location(capsys):
    """gen-pvi with point 0 at 123456789123456789/987654321987654321*t^7 +
    alpha0^9*n1^9: 18-digit coefficients and degree 18 in the parameters."""
    scheme = Path(__file__).parent / "fixtures" / "gen-pvi_point0_hostile.json"
    golden = (GOLDEN_CLI / "recover_gen-pvi_point0_hostile.json").read_text()
    assert _run(capsys, "recover", "--scheme", str(scheme), "--format", "json") == (0, golden, "")


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


def test_cli_singular_on_a_twisted_u3_field_ends_with_its_pole_error(capsys):
    """A U3 field with twist (1/(t + 1), p - 1/2): rewriting it by
    substitution did not end within 30 s; the moves end at once, at the
    divisor error."""
    code, out, err = _run(capsys, "singular", "--system", str(FIXTURES / "u3_twisted_field.json"))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("error: x-component has a pole of order > 1 along the divisor")


@pytest.mark.parametrize("fmt, ext", [("pretty", "txt"), ("json", "json")])
def test_cli_singular_lists_a_quadruple_point_that_scheme_of_refuses(capsys, fmt, ext):
    """singular lists each accessible point and resolves none, so it prints a
    point of multiplicity 4; scheme_of resolves every multiple point and
    refuses this field, so singular does not derive its rows from it."""
    from grs.blowup import ResolutionError
    from grs.recovery import scheme_of
    path = FIXTURES / "quadruple_point.json"
    golden = (GOLDEN_CLI / f"singular_quadruple_point.{ext}").read_text()
    assert _run(capsys, "singular", "--system", str(path), "--format", fmt) == (0, golden, "")
    with pytest.raises(ResolutionError, match="^X=0 has multiplicity 4; resolution is "
                                              "implemented for multiplicities 2 and 3$"):
        scheme_of(gio.vf_from_json(gio.loads(path.read_text())), ())


@pytest.mark.parametrize("command, name, error", [
    (["symmetry", "--system", "gen-pvi", "--map", "pi2"], "verify_symmetry", SymmetryError),
    (["classify", "--relation", "genIII"], "enumerate_natural", RelationError),
])
def test_cli_symmetry_and_relation_errors_exit_one(capsys, monkeypatch, command, name, error):
    """No command-line input raises these today; one that did would end with
    exit 1 and its message on one line, like every other module's error."""
    def fail(*args, **kwargs):
        raise error("the message")
    monkeypatch.setattr(cli, name, fail)
    assert _run(capsys, *command) == (1, "", "error: the message\n")


def test_cli_construct_scheme_recovers_the_constructed_system(capsys, monkeypatch):
    """construct_n2_scheme.json is scheme_of of construct --n 2 --points 3,-1/2
    --ratios 1,3,3,3, written by scheme_to_json.  No candidate roots come from
    the environment, so verification finds the points 3 and -1/2 only because
    it tries the scheme's own locations."""
    monkeypatch.delenv("GRS_CANDIDATE_ROOTS", raising=False)
    code, out, _ = _run(capsys, "construct", "--n", "2", "--points", "3,-1/2",
                        "--ratios", "1,3,3,3", "--format", "json")
    assert code == 0
    built = json.loads(out)
    code, out, err = _run(capsys, "recover", "--scheme",
                          str(FIXTURES / "construct_n2_scheme.json"), "--format", "json")
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert (rec["dxdt"], rec["dydt"]) == (built["dxdt"], built["dydt"])
    assert (rec["free"], rec["relations"]) == ([], [])


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


@pytest.mark.parametrize("pair", MATCH_PAIRS)
def test_cli_match_pretty_matches_golden(capsys, pair):
    code, out, err = _run(capsys, "match", "--pair", pair)
    golden = (GOLDEN_CLI / f"match_{pair.replace(':', '_')}.txt").read_text()
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


@pytest.mark.parametrize("system", ["pvi", "gen-pvi"])
@pytest.mark.parametrize("point", ["0", "1", "t", "inf"])
def test_cli_alpha_test_pretty_matches_golden(capsys, system, point):
    golden = (GOLDEN_CLI / f"alpha-test_{system}_{point}.txt").read_text()
    assert _run(capsys, "alpha-test", "--system", system, "--point", point) == (0, golden, "")


@pytest.mark.parametrize("fmt, ext", [("pretty", "txt"), ("json", "json")])
@pytest.mark.parametrize("kind, flags", [("natural", ()),
                                         ("integers6", ("--integers", "--bound", "6"))])
@pytest.mark.parametrize("rel", ["genVI", "genV", "genIV", "genIII"])
def test_cli_classify_matches_golden(capsys, rel, kind, flags, fmt, ext):
    golden = (GOLDEN_CLI / f"classify_{rel}_{kind}.{ext}").read_text()
    assert _run(capsys, "classify", "--relation", rel, *flags, "--format", fmt) == (0, golden, "")


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


@pytest.mark.parametrize("fmt, ext", [("pretty", "txt"), ("json", "json")])
@pytest.mark.parametrize("point", ["1", "t"])
def test_cli_resolve_off_the_origin_matches_golden(capsys, point, fmt, ext):
    """gen-pv's field with its double point moved to X = 1 and to X = t: the
    resolution translates the point to the origin first, with the chain-rule
    term -1 in the moving case."""
    system = FIXTURES / f"gen-pv_point0_{point}.json"
    golden = (GOLDEN_CLI / f"resolve_gen-pv_point0_{point}.{ext}").read_text()
    assert _run(capsys, "resolve", "--system", str(system), "--point", point,
                "--format", fmt) == (0, golden, "")


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
def test_cli_symmetry_probe_pretty_matches_golden(capsys, system, bmap):
    """The pretty probe report: verdict line, map note and residual lines."""
    code, out, err = _run(capsys, "symmetry", "--system", system, "--map", bmap)
    golden = (GOLDEN_CLI / f"symmetry_{system}_{bmap}.txt").read_text()
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


@pytest.mark.parametrize("scheme", scheme_names())
def test_cli_recover_trace_pretty_matches_golden(capsys, scheme):
    """The pretty output pins the notes, the relation lines and the solver
    trace block with its source tags."""
    golden = (GOLDEN_CLI / f"recover_{scheme}.txt").read_text()
    assert _run(capsys, "recover", "--scheme", scheme, "--trace") == (0, golden, "")


@pytest.mark.parametrize("scheme", ["gen-pvi", "gen-pv", "gen-piv", "gen-piii"])
def test_cli_relation_json_matches_golden(capsys, scheme):
    code, out, err = _run(capsys, "relation", "--scheme", scheme, "--format", "json")
    golden = (GOLDEN_CLI / f"relation_{scheme}.json").read_text()
    assert (code, out, err) == (0, golden, "")


@pytest.mark.parametrize("scheme", ["gen-pvi", "gen-pv", "gen-piv", "gen-piii"])
def test_cli_relation_pretty_matches_golden(capsys, scheme):
    golden = (GOLDEN_CLI / f"relation_{scheme}.txt").read_text()
    assert _run(capsys, "relation", "--scheme", scheme) == (0, golden, "")


def test_cli_relation_of_pvi_is_a_solver_failure(capsys):
    """The two-point scheme forces no relation: exit 2 with one stderr line."""
    assert _run(capsys, "relation", "--scheme", "pvi") == (
        2, "", "solver failure: scheme pvi is consistent for all eigenvalues\n")


@pytest.mark.parametrize("n, points, ratios", [("2", "0,1", "2,2,2,2"),
                                               ("3", "0,1,2", "1,2,2,2,2")])
def test_cli_construct_json_matches_golden(capsys, n, points, ratios):
    code, out, err = _run(capsys, "construct", "--n", n, "--points", points,
                          "--ratios", ratios, "--format", "json")
    golden = (GOLDEN_CLI / f"construct_n{n}.json").read_text()
    assert (code, out, err) == (0, golden, "")


def _golden_survey_commands():
    """(argv, golden file) for every golden-backed survey command."""
    runs = []
    for system in system_names():
        runs.append((["singular", "--system", system], f"singular_{system}.txt"))
        runs.append((["singular", "--system", system, "--format", "json"],
                     f"singular_{system}.json"))
    for system, point in [("gen-pv", "0"), ("gen-piv", "0"), ("gen-piii", "inf")]:
        argv = ["resolve", "--system", system, "--point", point]
        runs.append((argv, f"resolve_{system}_{point}.txt"))
        runs.append((argv + ["--format", "json"], f"resolve_{system}_{point}.json"))
    for system in ("pvi", "gen-pvi"):
        for point in ("0", "1", "t", "inf"):
            argv = ["alpha-test", "--system", system, "--point", point]
            runs.append((argv, f"alpha-test_{system}_{point}.txt"))
            runs.append((argv + ["--format", "json"], f"alpha-test_{system}_{point}.json"))
    for rel in ("genVI", "genV", "genIV", "genIII"):
        for kind, flags in [("natural", []), ("integers6", ["--integers", "--bound", "6"])]:
            argv = ["classify", "--relation", rel, *flags]
            runs.append((argv, f"classify_{rel}_{kind}.txt"))
            runs.append((argv + ["--format", "json"], f"classify_{rel}_{kind}.json"))
    for n, points, ratios in [("2", "0,1", "2,2,2,2"), ("3", "0,1,2", "1,2,2,2,2")]:
        runs.append((["construct", "--n", n, "--points", points, "--ratios", ratios,
                      "--format", "json"], f"construct_n{n}.json"))
    return runs


def test_cli_commands_repeated_in_one_process_match_their_goldens(capsys):
    """The shared parser and catalog entries change no output: every
    golden-backed survey command, run twice with the others in between."""
    runs = _golden_survey_commands()
    for argv, golden in runs + runs[::-1]:
        assert _run(capsys, *argv) == (0, (GOLDEN_CLI / golden).read_text(), ""), argv


def test_cli_match_repeated_in_one_process_matches_its_goldens(capsys):
    """The shared match pairs change no output: each pair's JSON and pretty
    golden, run twice with the other pairs in between."""
    runs = []
    for pair in MATCH_PAIRS:
        golden = f"match_{pair.replace(':', '_')}"
        runs.append((["match", "--pair", pair, "--format", "json"], f"{golden}.json"))
        runs.append((["match", "--pair", pair], f"{golden}.txt"))
    for argv, golden in runs * 2:
        assert _run(capsys, *argv) == (0, (GOLDEN_CLI / golden).read_text(), ""), argv


def test_cli_options_do_not_leak_into_the_next_call(capsys):
    golden = (GOLDEN_CLI / "recover_pvi.txt").read_text()
    assert _run(capsys, "recover", "--scheme", "pvi", "--trace") == (0, golden, "")
    assert _run(capsys, "recover", "--scheme", "pvi") == (
        0, golden[:golden.index("# solver trace:\n")], "")


def test_cli_usage_error_repeats_byte_for_byte(capsys):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["symmetry"])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == ""
        errors.append(out.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: grs symmetry") and "error: " in errors[0]


def test_catalog_entries_are_built_once_and_read_only():
    assert get_system("pvi") is get_system("pvi")
    messages = []
    for _ in range(2):
        with pytest.raises(KeyError) as exc:
            get_system("nope")
        messages.append(exc.value.args)
    assert messages[0] == messages[1]
    assert messages[0][0].startswith("unknown builtin system 'nope'; available: ")
    with pytest.raises(TypeError):
        get_system("pvi").normalization["alpha0"] = get_system("pvi").vf.ctx.rat(0)
    maps = get_maps("gen-pvi")
    assert isinstance(maps, tuple) and maps is get_maps("gen-pvi")
    for bmap in maps:
        with pytest.raises(TypeError):
            bmap.param_map["alpha2"] = bmap.ctx.rat(0)
    assert dict(maps[0].param_map)["alpha2"] == -maps[0].ctx.var("alpha2")


@pytest.mark.parametrize("pair", MATCH_PAIRS)
def test_match_pairs_are_built_once_and_read_only(pair):
    prepared = match_pair(pair)
    assert prepared is match_pair(pair)
    assert isinstance(prepared[2], tuple) and isinstance(prepared[3], str)


def test_unknown_match_pair_raises_the_same_key_error_each_time():
    messages = []
    for _ in range(2):
        with pytest.raises(KeyError) as exc:
            match_pair("nope")
        messages.append(exc.value.args)
    assert messages[0] == messages[1] == (
        f"unknown match pair 'nope'; available: {MATCH_PAIRS}",)


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
