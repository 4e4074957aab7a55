"""Blow-up and resolution tests: step data for the double and triple
points, and the double- and triple-point criteria stated against
resolve_family, linearization_matrix and accessible_points, and the
closed-form patching map against its step-by-step composition."""

from pathlib import Path

import pytest

from grs import io as gio
from grs.algebra import Context
from grs.blowup import (NotResolvable, ResolutionError, blow_up, resolve_family,
                        resolve_multiplicity)
from grs.catalog import get_system
from grs.recovery import relation_substitution
from grs.singularities import (AccessiblePoint, accessible_points, divisor_chart_local,
                               linearization_matrix)
from grs.surface import SIGMA2_UNKNOWNS, chart_from_u0, generic_family, sigma2_model

FIXTURES = Path(__file__).parent / "fixtures"


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
    ctx = family.ctx
    zeroed = family.subs_params({"a5": ctx.rat(0), "a7": ctx.rat(0)})
    _, conditions = resolve_family(zeroed, AccessiblePoint("U2", ctx.rat(0), 2), -ctx.var("t"),
                                   SIGMA2_UNKNOWNS)
    tags = [tag for tag, _ in conditions]
    polys = [str(p) for _, p in conditions]
    assert any("blow-up step 1" in t for t in tags)
    assert "a10" in polys


@pytest.mark.parametrize("a7, condition", [
    ("a5^2", "a5^2"),              # linear in no unknown
    ("a5*a10 + a5", "a5*a10 + a5"),  # linear only with coefficients in unknowns
])
def test_resolve_family_rejects_a_condition_it_cannot_solve(family, a7, condition):
    ctx = family.ctx
    vf = family.subs_params({"a7": ctx.parse(a7)})
    with pytest.raises(ResolutionError) as exc:
        resolve_family(vf, AccessiblePoint("U2", ctx.rat(0), 2), -ctx.var("t"), SIGMA2_UNKNOWNS)
    assert str(exc.value) == f"cannot impose condition {condition} = 0 on the family"


def test_radial_field_blow_up_kills_fiber_component():
    ctx = Context.make(parameters=[])
    x, y = ctx.var("x"), ctx.var("y")
    fx, fy = blow_up((x, y))
    assert fx == x
    assert fy.is_zero()


def test_triple_point_conditions_in_paper_order(family):
    """Resolving the triple point collects a7, a5, a2, then a10, then a9."""
    ctx = family.ctx
    half = ctx.rat(1) / ctx.rat(2)
    _, conditions = resolve_family(family, AccessiblePoint("U2", ctx.rat(0), 3), -half,
                                   SIGMA2_UNKNOWNS)
    polys = [str(p) for _, p in conditions]
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
    with pytest.raises(ResolutionError, match="^X=1 has multiplicity 1; resolution is "
                                              "implemented for multiplicities 2 and 3$"):
        resolve_multiplicity(vf, simple)


def test_blow_up_fails_when_a10_nonzero(family):
    """a10 != 0 obstructs the resolution: the exceptional origin is not accessible."""
    ctx = family.ctx
    values = {"a5": ctx.rat(0), "a7": ctx.rat(0), "a10": ctx.rat(3),
              "a1": ctx.rat(1), "a2": ctx.rat(1), "a3": ctx.rat(0), "a4": ctx.rat(0),
              "a6": ctx.rat(0), "a8": ctx.rat(0), "a9": ctx.rat(0)}
    vf = family.subs_params(values)
    pts = {p.label: p for p in accessible_points(vf)}
    assert pts["0"].multiplicity == 2  # numerator order is 2, but ...
    with pytest.raises(NotResolvable):
        resolve_multiplicity(vf, pts["0"])


def test_degenerate_matrix_criterion(family):
    """At X=0 of the generic family three routes give one condition set:
    the double point's resolution conditions, the accessibility value and
    diagonal of the linearization matrix, and a5 = a7 = a10 = 0.  Under them
    the matrix is nilpotent."""
    ctx = family.ctx
    zero = ctx.rat(0)
    _, conditions = resolve_family(family, AccessiblePoint("U2", zero, 2), -ctx.var("t"),
                                   SIGMA2_UNKNOWNS)
    assert {str(p) for _, p in conditions[:3]} == {"a5", "a7", "a10"}
    matrix, access = linearization_matrix(divisor_chart_local(family, "U2"), zero)
    entries = (access, matrix[0, 0], matrix[1, 1])
    assert {str(r.num.primitive()) for r in entries} == {"a5", "a7", "a10"}
    shaped = matrix.map(lambda r: r.subs({"a5": zero, "a7": zero, "a10": zero}))
    assert str(shaped) == "[[0, a8], [0, 0]]"


def test_triple_point_criterion(family):
    """Under a2 = a5 = a7 = a9 = a10 = 0, X=0 is a triple point; under the
    double-point conditions a5 = a7 = a10 = 0 alone it is double."""
    zero = family.ctx.rat(0)
    for names, label in ((("a5", "a7", "a10"), "X=0 (2)"),
                         (("a2", "a5", "a7", "a9", "a10"), "X=0 (3)")):
        vf = family.subs_params({u: zero for u in names})
        assert label in [str(p) for p in accessible_points(vf)]


def test_resolve_family_refuses_a_multiplicity_above_three_before_any_work(family):
    """The family resolution checks the 2-or-3 rule of resolve_multiplicity
    first, so a scheme column of any multiplicity ends at once."""
    ctx = family.ctx
    for k in (4, 10 ** 639):
        with pytest.raises(ResolutionError, match=f"^X=0 has multiplicity {k}; resolution is "
                                                  "implemented for multiplicities 2 and 3$"):
            resolve_family(family, AccessiblePoint("U2", ctx.rat(0), k), -ctx.var("t"),
                           SIGMA2_UNKNOWNS)


def _stepwise_map(vf, point):
    """The patching map composed one step at a time: the translation u - L,
    then v/u at each of the k blow-ups, then 1/v at the fiber inversion."""
    u, v = chart_from_u0(vf.ctx, vf.model, point.chart)
    u = u - point.location
    for _ in range(point.multiplicity):
        v = v / u
    return u, v.inverse()


def _field(source):
    """A builtin system with its relation substituted, or a fixture file."""
    if source.endswith(".json"):
        return gio.vf_from_json(gio.loads((FIXTURES / source).read_text()))
    return _specialized(source)


@pytest.mark.parametrize("source, label", [
    ("gen-pv", "0"), ("gen-piv", "0"), ("gen-piii", "0"), ("gen-piii", "inf"),
    ("gen-pv_point0_1.json", "1"), ("gen-pv_point0_t.json", "t"),
])
def test_closed_form_patching_map_equals_the_stepwise_composition(source, label):
    """Charts U2 and U3, k = 2 and 3, and the double point moved off X = 0,
    through both resolutions; on these fields the family resolution imposes
    no condition."""
    vf = _field(source)
    point = {p.label: p for p in accessible_points(vf)}[label]
    want = _stepwise_map(vf, point)
    trace = resolve_multiplicity(vf, point)
    assert trace.final_chart_map == want
    family_trace, conditions = resolve_family(vf, point, trace.final_location, ())
    assert family_trace.final_chart_map == want
    assert conditions == []
    assert family_trace.final_field == trace.final_field
