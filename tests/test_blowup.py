"""Blow-up and resolution tests: step data for the double and triple
points, the degenerate-matrix equivalence, and the graded expansion."""

import pytest

from grs.algebra import Context
from grs.blowup import (LocalChart, NotResolvable, ResolutionError, blow_up_chart,
                        degenerate_matrix_criterion, expansion_eigenvalues,
                        resolve_family, resolve_multiplicity)
from grs.catalog import get_system
from grs.recovery import relation_substitution
from grs.singularities import accessible_points
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
    res = resolve_family(zeroed, ctx.rat(0), 2, -ctx.var("t"), family.unknowns)
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
        resolve_family(vf, ctx.rat(0), 2, -ctx.var("t"), family.unknowns)
    assert str(exc.value) == f"cannot impose condition {condition} = 0 on the family"


def test_radial_field_blow_up_kills_fiber_component():
    ctx = Context.make()
    x, y = ctx.var("x"), ctx.var("y")
    chart = LocalChart(x, y, x, y)
    up = blow_up_chart(chart)
    assert up.fx == x
    assert up.fy.is_zero()


def test_triple_point_conditions_in_paper_order(family):
    """Resolving the triple point collects a7, a5, a2, then a10, then a9."""
    ctx = family.vf.ctx
    half = ctx.rat(1) / ctx.rat(2)
    res = resolve_family(family.vf, ctx.rat(0), 3, -half, family.unknowns)
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
    index = trace.final_index()
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
    rep = degenerate_matrix_criterion(family)
    assert rep.equivalent
    assert rep.condition_sets["resolution"] == ("a10", "a5", "a7")
    assert rep.condition_sets["degenerate-matrix"] == ("a10", "a5", "a7")
    assert rep.condition_sets["coefficients"] == ("a10", "a5", "a7")
    assert rep.matrix_shape == "[[0, a8], [0, 0]]"
    assert all(not r for r in rep.residuals.values())


def test_expansion_eigenvalues(family):
    ctx = family.vf.ctx
    zero = ctx.rat(0)
    # triple-point conditions annihilate all four expansion eigenvalues
    conds = {"a2": zero, "a5": zero, "a7": zero, "a9": zero, "a10": zero}
    vals = expansion_eigenvalues(family.vf.subs_params(conds))
    assert all(v.is_zero() for v in vals)
    # the sixth Painleve system has a nonzero linear block
    from grs.catalog import pvi_system
    pvi = pvi_system(normalized=True).vf
    a2, a5, a9, a10 = expansion_eigenvalues(pvi)
    assert str(a5) == "(2)/(t - 1)"
    assert not a10.is_zero()
    # zero field trivially expands to zero
    zero_vf = family.vf.subs_params({k: zero for k in SIGMA2_UNKNOWNS})
    assert all(v.is_zero() for v in expansion_eigenvalues(zero_vf))
