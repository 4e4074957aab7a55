"""Blow-up and resolution tests: step data for the double and triple
points, and the double- and triple-point criteria stated against
resolve_family, linearization_matrix and accessible_points."""

import pytest

from grs.algebra import Context
from grs.blowup import (LocalChart, NotResolvable, ResolutionError, blow_up_chart,
                        resolve_family, resolve_multiplicity)
from grs.catalog import get_system
from grs.recovery import relation_substitution
from grs.singularities import accessible_points, divisor_chart_local, linearization_matrix
from grs.surface import SIGMA2_UNKNOWNS, generic_family, sigma2_model


@pytest.fixture(scope="module")
def family():
    ctx = Context.make(parameters=["alpha2"], unknowns=list(SIGMA2_UNKNOWNS))
    return generic_family(sigma2_model(ctx), ctx)


def _specialized(name):
    entry = get_system(name)
    relsub = relation_substitution([entry.relation], entry.eigenvalue_syms)
    return entry.vf.subs_params(relsub)


def test_blow_up_exposes_a10_condition(family):
    """With a5 = a7 = 0, the blown-up origin is accessible iff a10 = 0."""
    ctx = family.vf.ctx
    zeroed = family.vf.subs_params({"a5": ctx.rat(0), "a7": ctx.rat(0)})
    res = resolve_family(zeroed, ctx.rat(0), 2, -ctx.var("t"), family.unknowns, "U2")
    tags = [tag for tag, _ in res.conditions]
    polys = [str(p) for _, p in res.conditions]
    assert any("blow-up step 1" in t for t in tags)
    assert "a10" in polys


@pytest.mark.parametrize("a7, condition", [
    ("a5^2", "a5^2"),              # linear in no unknown
    ("a5*a10 + a5", "a5*a10 + a5"),  # linear only with coefficients in unknowns
])
def test_resolve_family_rejects_a_condition_it_cannot_solve(family, a7, condition):
    ctx = family.vf.ctx
    vf = family.vf.subs_params({"a7": ctx.parse(a7)})
    with pytest.raises(ResolutionError) as exc:
        resolve_family(vf, ctx.rat(0), 2, -ctx.var("t"), family.unknowns, "U2")
    assert str(exc.value) == f"cannot impose condition {condition} = 0 on the family"


def test_radial_field_blow_up_kills_fiber_component():
    ctx = Context.make(parameters=[])
    x, y = ctx.var("x"), ctx.var("y")
    chart = LocalChart(x, y, x, y)
    up = blow_up_chart(chart)
    assert up.fx == x
    assert up.fy.is_zero()


def test_triple_point_conditions_in_paper_order(family):
    """Resolving the triple point collects a7, a5, a2, then a10, then a9."""
    ctx = family.vf.ctx
    half = ctx.rat(1) / ctx.rat(2)
    res = resolve_family(family.vf, ctx.rat(0), 3, -half, family.unknowns, "U2")
    polys = [str(p) for _, p in res.conditions]
    assert polys[:5] == ["a7", "a5", "a2", "a10", "a9"]


@pytest.mark.parametrize("name, label, patch, point", [
    ("gen-pv", "0", ("x", "x^2*y"), "-t"),
    ("gen-piv", "0", ("x", "x^3*y"), "-1/2"),
    ("gen-piii", "0", ("x", "x^2*y"), "-t"),
    ("gen-piii", "inf", ("(1)/(x)", "(-x*y - alpha2)/(x)"), "-1"),
])
def test_resolution_traces_match_scheme_displays(name, label, patch, point):
    vf = _specialized(name)
    pts = {p.label: p for p in accessible_points(vf)}
    trace = resolve_multiplicity(vf, pts[label])
    assert tuple(str(m) for m in trace.final_chart_map) == patch
    assert str(trace.final_location) == point
    index = trace.index
    assert index.divisor == "x"


def test_resolution_map_round_trip():
    """The patching map (x, x^2*y) inverts to (X, Y/X^2) exactly."""
    vf = _specialized("gen-pv")
    pts = {p.label: p for p in accessible_points(vf)}
    trace = resolve_multiplicity(vf, pts["0"])
    u, v = trace.final_chart_map
    ctx = u.ctx
    x, y = ctx.var("x"), ctx.var("y")
    inv_y = y / (x * x)
    assert u.subs({"x": u, "y": inv_y}) == u  # trivially x
    assert v.subs({"x": x, "y": inv_y}) == y


def test_resolution_rejects_wrong_multiplicity():
    vf = _specialized("gen-pv")
    pts = {p.label: p for p in accessible_points(vf)}
    simple = pts["1"]
    with pytest.raises(Exception):
        resolve_multiplicity(vf, simple)


def test_blow_up_fails_when_a10_nonzero(family):
    """a10 != 0 obstructs the resolution: the exceptional origin is not accessible."""
    ctx = family.vf.ctx
    values = {"a5": ctx.rat(0), "a7": ctx.rat(0), "a10": ctx.rat(3),
              "a1": ctx.rat(1), "a2": ctx.rat(1), "a3": ctx.rat(0), "a4": ctx.rat(0),
              "a6": ctx.rat(0), "a8": ctx.rat(0), "a9": ctx.rat(0)}
    vf = family.vf.subs_params(values)
    pts = {p.label: p for p in accessible_points(vf)}
    assert pts["0"].multiplicity == 2  # numerator order is 2, but ...
    with pytest.raises(NotResolvable):
        resolve_multiplicity(vf, pts["0"])


def test_degenerate_matrix_criterion(family):
    """At X=0 of the generic family three routes give one condition set:
    the double point's resolution conditions, the accessibility value and
    diagonal of the linearization matrix, and a5 = a7 = a10 = 0.  Under them
    the matrix is nilpotent."""
    ctx = family.vf.ctx
    zero = ctx.rat(0)
    res = resolve_family(family.vf, zero, 2, -ctx.var("t"), family.unknowns, "U2")
    assert {str(p) for _, p in res.conditions[:3]} == {"a5", "a7", "a10"}
    matrix, access = linearization_matrix(divisor_chart_local(family.vf, "U2"), zero)
    entries = (access, matrix[0, 0], matrix[1, 1])
    assert {str(r.num.primitive()) for r in entries} == {"a5", "a7", "a10"}
    shaped = matrix.map(lambda r: r.subs({"a5": zero, "a7": zero, "a10": zero}))
    assert str(shaped) == "[[0, a8], [0, 0]]"


def test_triple_point_criterion(family):
    """Under a2 = a5 = a7 = a9 = a10 = 0, X=0 is a triple point; under the
    double-point conditions a5 = a7 = a10 = 0 alone it is double."""
    zero = family.vf.ctx.rat(0)
    for names, label in ((("a5", "a7", "a10"), "X=0 (2)"),
                         (("a2", "a5", "a7", "a9", "a10"), "X=0 (3)")):
        vf = family.vf.subs_params({u: zero for u in names})
        assert label in [str(p) for p in accessible_points(vf)]
