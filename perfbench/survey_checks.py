"""Checks of the survey workload's CLI output against the known answers.

Both output formats are read back: JSON through ``json``, pretty text
through the line shapes the CLI prints.  Every value is compared with the
paper's answer (``answers``), with SymPy for expressions, and with the
benchmark's own ``Fraction`` arithmetic for the relation properties.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import sympy

import answers
import oracle


def _options(argv: list[str]) -> dict[str, str | bool]:
    opts: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[argv[i]] = argv[i + 1]
            i += 2
        else:
            opts[argv[i]] = True
            i += 1
    return opts


def _relation_fix(system: str) -> dict:
    return oracle.eliminate_relation(system) if system in answers.PAPER_RELATIONS else {}


def _split_pair(text: str) -> tuple[str, str]:
    """'(a, b)' -> ('a', 'b'), splitting at the top-level comma."""
    inner = text.strip()[1:-1]
    depth = 0
    for i, ch in enumerate(inner):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "," and depth == 0:
            return inner[:i].strip(), inner[i + 1:].strip()
    raise ValueError(f"not a pair: {text!r}")


def check(argv: list[str], code, out: str, err: str) -> str | None:
    command, opts = argv[0], _options(argv)
    if command == "relation":
        # the PVI scheme has no eigenvalue relation: a solver failure, exit 2
        if code == 2 and not out and err.startswith("solver failure"):
            return None
        return f"exit {code}, expected 2 with a solver failure"
    if code != 0:
        return f"exit {code}: {err.strip()}"
    as_json = opts["--format"] == "json"
    handler = {"singular": _singular, "resolve": _resolve, "alpha-test": _alpha_test,
               "classify": _classify, "construct": _construct}[command]
    return handler(opts, json.loads(out) if as_json else None, out)


def _singular(opts, data, text):
    system = opts["--system"]
    want = answers.POINTS[system]
    if data is not None:
        got = {r["point"]: (r["multiplicity"], r["ratio"]) for r in data}
        for r in data:
            m = r["matrix"]
            if r["multiplicity"] == 1:
                if not oracle.same(m[1][0], 0):
                    return f"X={r['point']}: matrix is not triangular"
                if not oracle.same(r["ratio"], f"({m[0][0]})/({m[1][1]})"):
                    return f"X={r['point']}: ratio is not the eigenvalue quotient"
            elif not (oracle.same(m[0][0], 0) and oracle.same(m[1][1], 0)):
                return f"X={r['point']}: multiple point with a nondegenerate matrix"
    else:
        got = {label: (int(mult), ratio) for label, mult, ratio in re.findall(
            r"^X=(\S+) \(multiplicity (\d+), chart U\d\)\n.*\n.*  ratio (.*)$", text, re.M)}
    if set(got) != set(want):
        return f"points {sorted(got)}, expected {sorted(want)}"
    fix = _relation_fix(system)
    for label, (mult, ratio) in want.items():
        got_mult, got_ratio = got[label]
        if got_mult != mult:
            return f"X={label}: multiplicity {got_mult}, expected {mult}"
        if ratio is not None and not oracle.same(got_ratio, ratio, fix):
            return f"X={label}: ratio {got_ratio}, expected {ratio}"
    return None


def _resolve(opts, data, text):
    blowups, patch, point = answers.RESOLUTIONS[(opts["--system"], opts["--point"])]
    if data is not None:
        steps, got_patch, got_point = data["steps"], data["patching_map"], data["resolved_point"]
    else:
        steps = [line for line in text.splitlines() if line.startswith("  ")]
        got_patch = _split_pair(re.search(r"^patching map: (.*)$", text, re.M).group(1))
        got_point = _split_pair(re.search(r"^resolved point: (.*)$", text, re.M).group(1))
    if sum("blow-up" in s for s in steps) != blowups:
        return f"{len(steps)} steps, expected {blowups} blow-ups"
    if not all(oracle.same(a, b) for a, b in zip(got_patch, patch)):
        return f"patching map {got_patch}, expected {patch}"
    if not all(oracle.same(a, b) for a, b in zip(got_point, point)):
        return f"resolved point {got_point}, expected {point}"
    return None


def _alpha_test(opts, data, text):
    system, label = opts["--system"], opts["--point"]
    if data is not None:
        ratio, single_valued = data["ratio"], data["single_valued"]
        reduced = data["reduced"]
        if not oracle.same(reduced[1][0], 0):
            return "reduced matrix is not triangular"
        if not oracle.same(ratio, f"({reduced[0][0]})/({reduced[1][1]})"):
            return "ratio is not the eigenvalue quotient of the reduced matrix"
    else:
        match = re.search(r"^single-valued: (True|False) \(\S+\), ratio (.*)$", text, re.M)
        single_valued, ratio = match.group(1) == "True", match.group(2)
    want = answers.POINTS[system][label][1]
    if not oracle.same(ratio, want, _relation_fix(system)):
        return f"ratio {ratio}, expected {want}"
    # single-valued exactly when the local-index ratio is an integer
    if single_valued != bool(oracle.sym(ratio).is_Integer):
        return f"single_valued={single_valued} with ratio {ratio}"
    return None


def _classify(opts, data, text):
    rel = opts["--relation"]
    if data is not None:
        tuples = [tuple(t) for t in data["tuples"]]
    else:
        tuples = [tuple(int(v) for v in row.split(", "))
                  for row in re.findall(r"^  \((.*)\)$", text, re.M)]
    test = answers.FRACTION_RELATIONS[rel]
    bad = [t for t in tuples if not test([Fraction(v) for v in t])]
    if bad:
        return f"tuples off the relation: {bad}"
    if opts.get("--integers"):
        want = answers.integer_tuples(rel, int(opts["--bound"]))
    else:
        want = answers.NATURAL_TUPLES[rel]
    return None if tuples == want else f"tuples {tuples}, expected {want}"


def _construct(opts, data, text):
    n = int(opts["--n"])
    labels = [str(Fraction(p)) for p in opts["--points"].split(",")] + ["t", "inf"]
    want = dict(zip(labels, (Fraction(r) for r in opts["--ratios"].split(","))))
    if data is not None:
        points, ratios, dxdt = data["points"], data["ratios"], data["dxdt"]
    else:
        dxdt = re.search(r"^dx/dt = (.*)$", text, re.M).group(1)
        points = re.search(r"^accessible points: (.*)$", text, re.M).group(1).split(", ")
        ratios = dict(item.split(": ") for item in
                      re.search(r"^ratios: (.*)$", text, re.M).group(1)
                      .replace("X=", "").split(", "))
    if sorted(points) != sorted(labels):
        return f"points {points}, expected {labels}"
    got = {k: Fraction(v) for k, v in ratios.items()}
    if got != want:
        return f"ratios {ratios}, expected {want}"
    # a property of the requested input, which grs also refuses to break
    if answers.reciprocal_sum(got.values()) != n:
        return f"reciprocal ratios do not sum to n={n}"
    return _construct_field(dxdt, opts["--points"].split(","))


def _construct_field(dxdt: str, finite_points: list[str]) -> str | None:
    """dx/dt must be linear in y, with a y-coefficient that vanishes exactly
    at the requested points and t, each once (checked in SymPy)."""
    x, y, t = sympy.symbols("x y t")
    field = sympy.Poly(oracle.sym(dxdt), y)
    if field.degree() != 1:
        return f"dx/dt has degree {field.degree()} in y, expected 1"
    vanishing = (x - t) * sympy.prod([x - sympy.Rational(p) for p in finite_points])
    quotient = sympy.cancel(field.coeff_monomial(y) / vanishing)
    if quotient == 0 or quotient.has(x):
        return "the y-coefficient of dx/dt does not vanish exactly at the requested points and t"
    return None
