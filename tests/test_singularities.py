"""Accessible points, local indices, alpha test: checked against the
transcribed displays for the sixth Painleve system."""

import os
from fractions import Fraction

import pytest

from grs.algebra import Context, DivisionByZero, Mat2
from grs.blowup import resolve_family, resolve_multiplicity
from grs.catalog import get_system, pvi_system, system_names
from grs.recovery import relation_substitution
from grs.singularities import (LocalField, UnresolvedFactor, accessible_points, alpha_test,
                               branch_point_screen, is_accessible, linearization,
                               linearization_matrix, screen_vector_field,
                               divisor_chart_local)
from grs.surface import (PlaneVectorField, SIGMA2_UNKNOWNS, generic_family,
                         sigma2_model)


@pytest.fixture(scope="module")
def pvi():
    return pvi_system(normalized=True).vf


def test_pvi_accessible_points(pvi):
    points = accessible_points(pvi)
    assert [p.label for p in points] == ["0", "1", "t", "inf"]
    assert all(p.multiplicity == 1 for p in points)


def _expect(ctx, scale, upper):
    s = ctx.parse(scale)
    return Mat2([[ctx.rat(2) * s, ctx.parse(upper) * s],
                 [ctx.rat(0), s]])


def test_pvi_matrices_match_displays(pvi):
    """All four matrices with scales 1/(t-1), -1/t, 1, 1/(t(t-1)).

    Comparison is modulo the parameter normalization (already substituted
    into the field), so the displayed alpha0 appears as its normalized form.
    """
    ctx = pvi.ctx
    norm_alpha0 = "1 - alpha1 - 2*alpha2 - alpha3 - alpha4"
    displays = {
        "0": ("1/(t - 1)", "-alpha4"),
        "1": ("-1/t", "-alpha3"),
        "t": ("1", f"-({norm_alpha0})"),
        "inf": ("1/(t*(t - 1))", "-alpha1"),
    }
    for p in accessible_points(pvi):
        li = linearization(pvi, p)
        scale, upper = displays[p.label]
        assert li.matrix == _expect(ctx, scale, upper), p.label
        assert str(li.ratio) == "2"


def test_pvi_finite_matrices_verbatim_on_raw_transcription():
    """On the raw five-parameter transcription the three finite points give
    the displayed matrices verbatim, alpha0 included; only the infinity
    chart needs the normalization."""
    raw = pvi_system(normalized=False).vf
    ctx = raw.ctx
    displays = {"0": ("1/(t - 1)", "-alpha4"), "1": ("-1/t", "-alpha3"),
                "t": ("1", "-alpha0")}
    points = {p.label: p for p in accessible_points(raw)}
    assert set(points) >= set(displays)
    for label, (scale, upper) in displays.items():
        li = linearization(raw, points[label])
        assert li.matrix == _expect(ctx, scale, upper), label
        assert str(li.ratio) == "2"


def test_trivial_linear_system_reads_off_matrix():
    # dX/dt = (2X - a*Y)/Y, dY/dt = 1 corresponds to dx/dt = 2xy - a, dy/dt = -y^2
    ctx = Context.make(parameters=["alpha"])
    x, y, a = ctx.var("x"), ctx.var("y"), ctx.var("alpha")
    vf = PlaneVectorField(ctx.rat(2) * x * y - a, -y * y, "U0", sigma2_model(ctx, "alpha"))
    pts = accessible_points(vf)
    assert pts[0].label == "0"
    li = linearization(vf, pts[0])
    assert li.matrix == Mat2([[ctx.rat(2), -a], [ctx.rat(0), ctx.rat(1)]])
    assert str(li.ratio) == "2"


def test_symbolic_family_origin_not_accessible_when_a7_nonzero():
    ctx = Context.make(parameters=["alpha2"], unknowns=list(SIGMA2_UNKNOWNS))
    fam = generic_family(sigma2_model(ctx), ctx)
    # the divisor numerator at X=0 is a7, nonzero as a symbol
    assert not is_accessible(fam.vf, ctx.rat(0))
    a7_zero = fam.vf.subs_params({"a7": ctx.rat(0)})
    assert is_accessible(a7_zero, ctx.rat(0))


def test_gen_pv_multiplicities():
    entry = get_system("gen-pv")
    points = {p.label: p.multiplicity for p in accessible_points(entry.vf)}
    assert points == {"0": 2, "1": 1, "inf": 1}


def test_unresolved_factor():
    ctx = Context.make(parameters=["alpha2"])
    x, y = ctx.var("x"), ctx.var("y")
    vf = PlaneVectorField((x * x + ctx.rat(1)) * y, ctx.rat(0), "U0", sigma2_model(ctx))
    with pytest.raises(UnresolvedFactor):
        accessible_points(vf)


def test_candidate_roots_environment_extension(monkeypatch):
    ctx = Context.make(parameters=["alpha2"])
    x, y = ctx.var("x"), ctx.var("y")
    five, seven = ctx.rat(5), ctx.rat(7)
    vf = PlaneVectorField((x - five) * (x - seven) * (x - ctx.var("t")) * y,
                          ctx.rat(0), "U0", sigma2_model(ctx))
    monkeypatch.setenv("GRS_CANDIDATE_ROOTS", "5, 7")
    labels = [p.label for p in accessible_points(vf)]
    assert "5" in labels and "7" in labels


def test_alpha_test_pvi_origin_matches_display(pvi):
    """Reduced system and closed form at X=0: W linear with slope 1/(t0-1),
    Z with exponent 2 and coupling coefficient alpha4."""
    point = accessible_points(pvi)[0]
    res = alpha_test(pvi, point)
    ctx = res.reduced[0, 0].ctx
    s = ctx.parse("1/(t0 - 1)")
    assert res.reduced == Mat2([[ctx.rat(2) * s, ctx.parse("-alpha4") * s],
                                [ctx.rat(0), s]])
    assert res.single_valued and res.reason == "integer-ratio"
    assert str(res.ratio) == "2"
    assert "W(T) = ((1)/(t0 - 1))*T + C1" in res.closed_form
    assert "^(2)" in res.closed_form
    assert "(alpha4)*" in res.closed_form


def test_alpha_test_resonant_requires_zero():
    # local matrix [[1, 5], [0, 1]]: resonant with nonzero coupling
    ctx = Context.make()
    x, y = ctx.var("x"), ctx.var("y")
    vf = PlaneVectorField(x * y + ctx.rat(5), -y * y, "U0",
                          sigma2_model(Context.make(parameters=["alpha2"])))
    ctx2 = Context.make(parameters=["alpha2"])
    x, y = ctx2.var("x"), ctx2.var("y")
    vf = PlaneVectorField(x * y + ctx2.rat(5), -y * y, "U0", sigma2_model(ctx2))
    res = alpha_test(vf, accessible_points(vf)[0])
    assert not res.single_valued
    assert res.reason == "resonant-requires-zero"
    assert "Log" in res.closed_form
    # with zero coupling the resonant case is single valued
    vf0 = PlaneVectorField(x * y, -y * y, "U0", sigma2_model(ctx2))
    assert alpha_test(vf0, accessible_points(vf0)[0]).single_valued


def test_alpha_test_half_ratio_branches():
    ctx = Context.make(parameters=["alpha2"])
    x, y = ctx.var("x"), ctx.var("y")
    vf = PlaneVectorField(x * y, -ctx.rat(2) * y * y, "U0", sigma2_model(ctx))
    res = alpha_test(vf, accessible_points(vf)[0])
    assert not res.single_valued and res.reason == "branching"
    assert str(res.ratio) == "1/2"


def test_alpha_test_reduced_equals_scaling_truncation(pvi):
    """The reduced system is the lowest order of the field under the scaling
    x = k*Z, y = k*W, t = t0 + k*T: the k-derivative at k=0 of the scaled
    pole numerator equals the reduced matrix row applied to (Z, W)."""
    from grs.algebra import Sym
    point = accessible_points(pvi)[0]
    res = alpha_test(pvi, point)
    local = divisor_chart_local(pvi, "U2")
    ctx = local.fx.ctx.extend((Sym("t0", "parameter"), Sym("kappa", "parameter"),
                               Sym("T", "parameter")))
    k = ctx.var("kappa")
    scale = {"x": k * ctx.var("x"), "y": k * ctx.var("y"),
             "t": ctx.var("t0") + k * ctx.var("T")}
    from grs.algebra import MRat
    zero_k = {"kappa": ctx.rat(0)}
    for comp, row in [(local.fx * local.fx.ctx.var("y"), 0),
                      (local.fy * local.fx.ctx.var("y"), 1)]:
        g = comp.lift(ctx).subs(scale)
        # derivative at kappa = 0 without normalizing the big quotient:
        # g'(0) = (N'(0) D(0) - N(0) D'(0)) / D(0)^2
        n0 = g.num.subs(zero_k)
        d0 = g.den.subs(zero_k)
        assert n0.is_zero()
        n1 = MRat.from_poly(g.num.derivative("kappa")).subs(zero_k)
        linear = n1 / d0
        m = res.reduced
        expected = (m[row, 0].lift(ctx) * ctx.var("x")
                    + m[row, 1].lift(ctx) * ctx.var("y"))
        assert linear == expected


def test_alpha_test_single_valued_at_all_four_pvi_points(pvi):
    """Every point passes, including X=t where the reduced matrix carries the
    moving-location chain-rule term."""
    for p in accessible_points(pvi):
        res = alpha_test(pvi, p)
        assert res.single_valued and str(res.ratio) == "2", p.label


def test_four_point_family_ratios_equal_the_eigenvalues():
    """At relation-consistent rational eigenvalues the local-index ratios of
    the four-point family are exactly (n1, n2, n3, n4)."""
    from grs.catalog import get_system
    entry = get_system("gen-pvi")
    ctx = entry.vf.ctx
    values = {"n1": ctx.rat(1), "n2": ctx.rat(3), "n3": ctx.rat(4),
              "n4": ctx.rat(Fraction(12, 5)),  # 1 + 1/3 + 1/4 + 5/12 = 2
              "alpha0": ctx.rat(2), "alpha1": ctx.rat(3), "alpha2": ctx.rat(5),
              "alpha3": ctx.rat(7), "alpha4": ctx.rat(11)}
    vf = entry.vf.subs_params(values)
    expected = {"0": "1", "1": "3", "t": "4", "inf": "12/5"}
    for p in accessible_points(vf):
        assert str(linearization(vf, p).ratio) == expected[p.label]


def test_branch_point_screen():
    ctx = Context.make()
    ints = [ctx.rat(2), ctx.rat(2), ctx.rat(2), ctx.rat(2)]
    assert branch_point_screen(ints).passes
    mixed = [ctx.rat(2), ctx.rat(Fraction(3, 2))]
    rep = branch_point_screen(mixed)
    assert not rep.passes and str(rep.non_integer[0]) == "3/2"
    assert branch_point_screen([ctx.rat(2), ctx.rat(1), ctx.rat(6)]).passes


def test_screen_vector_field_on_pvi(pvi):
    assert screen_vector_field(pvi).passes


# ---------------------------------------------------------------------------
# linearization_matrix against the quotient-rule reference
# ---------------------------------------------------------------------------


def _quotient_rule_matrix(local, location, time="t"):
    """The matrix as the derivatives define it: each partial of d * component
    built and normalized as a rational function, then substituted."""
    ctx = local.ctx
    d_name, s_name = local.divisor, local.along
    point = {s_name: location, d_name: ctx.rat(0)}
    order = ("x", "y")
    rows = {name: local.component(name) * ctx.var(d_name) for name in order}
    access = rows[s_name].subs(point)
    entries = [[rows[r].derivative(c).subs(point) for c in order] for r in order]
    moving = location.derivative(time) if time in ctx else ctx.rat(0)
    i, j = order.index(s_name), order.index(d_name)
    entries[i][j] = entries[i][j] - moving
    return Mat2(entries), access


def _assert_same_linearization(local, location):
    matrix, access = linearization_matrix(local, location)
    want_matrix, want_access = _quotient_rule_matrix(local, location)
    assert matrix == want_matrix and access == want_access
    assert str(matrix) == str(want_matrix) and str(access) == str(want_access)


def _cli_system(name):
    entry = get_system(name)
    vf = entry.vf
    return vf.subs_params(entry.normalization) if entry.normalization else vf


@pytest.mark.parametrize("name", system_names())
def test_linearization_matches_quotient_rule_at_builtin_points(name):
    vf = _cli_system(name)
    for p in accessible_points(vf):
        local = divisor_chart_local(vf, p.chart)
        if (name, p.label) == ("piv", "inf"):
            # the field has a pole at this triple point: both paths refuse it
            with pytest.raises(DivisionByZero):
                linearization_matrix(local, p.location)
            with pytest.raises(DivisionByZero):
                _quotient_rule_matrix(local, p.location)
            continue
        _assert_same_linearization(local, p.location)


@pytest.mark.parametrize("name, label", [("gen-pv", "0"), ("gen-piv", "0"),
                                         ("gen-piii", "inf")])
def test_linearization_matches_quotient_rule_at_resolved_points(name, label):
    entry = get_system(name)
    vf = entry.vf.subs_params(relation_substitution([entry.relation],
                                                    entry.eigenvalue_syms))
    point = {p.label: p for p in accessible_points(vf)}[label]
    trace = resolve_multiplicity(vf, point)
    _assert_same_linearization(trace.final_local_field(), trace.final_location)


def test_linearization_matches_quotient_rule_on_generic_family():
    """The unknown-coefficient family the constraint generator linearizes:
    at 0, 1 and t in U2, at infinity in U3, and at the resolved double point."""
    ctx = Context.make(parameters=["alpha2"], unknowns=list(SIGMA2_UNKNOWNS))
    fam = generic_family(sigma2_model(ctx), ctx)
    for chart, location in [("U2", ctx.rat(0)), ("U2", ctx.rat(1)),
                            ("U2", ctx.var("t")), ("U3", ctx.rat(0))]:
        _assert_same_linearization(divisor_chart_local(fam.vf, chart), location)
    res = resolve_family(fam.vf, ctx.rat(0), 2, -ctx.var("t"), fam.unknowns)
    _assert_same_linearization(res.trace.final_local_field(), res.trace.final_location)


@pytest.mark.parametrize("divisor", ["x", "y"])
def test_linearization_matches_quotient_rule_where_denominators_involve_the_chart(divisor):
    """Rows N/D whose D involves the chart coordinates, regular at the point
    (the quotient rule at p) or vanishing there (both paths refuse it with
    the same message)."""
    ctx = Context.make(parameters=["a"])
    x, y, t, a = (ctx.var(n) for n in ("x", "y", "t", "a"))
    one, three = ctx.rat(1), ctx.rat(3)
    d, s = (x, y) if divisor == "x" else (y, x)
    along = (s * s * d + a * s + t * d * d - s) / (d * (one + s + t * d))
    across = (s * d - a * d * d) / (ctx.rat(2) - s * d + a * s * s)

    def local_field(along, across):
        comps = {divisor: across, "y" if divisor == "x" else "x": along}
        return LocalField(comps["x"], comps["y"], divisor)

    for location in (ctx.rat(0), one, t, a, t / (t - one)):
        _assert_same_linearization(local_field(along, across), location)
    pole = one / (s - three)
    for local in (local_field(along * pole, across), local_field(along, across * pole)):
        with pytest.raises(DivisionByZero) as got:
            linearization_matrix(local, three)
        with pytest.raises(DivisionByZero) as want:
            _quotient_rule_matrix(local, three)
        assert str(got.value) == str(want.value)
