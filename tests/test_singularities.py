"""Accessible points, local indices, alpha test: checked against the
transcribed displays for the sixth Painleve system."""

import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from grs.algebra import Context, DivisionByZero, MRat, Mat2
from grs.blowup import resolve_family, resolve_multiplicity
from grs.catalog import get_system, pvi_system, system_names
from grs.recovery import relation_substitution
from grs.singularities import (AccessiblePoint, LocalField, NotAccessible, UnresolvedFactor,
                               accessible_points, alpha_test, default_candidates, deflate,
                               divisor_chart_local, find_divisor_roots, linearization,
                               linearization_matrix, restricted_numerator, root_multiplicity)
from grs.surface import (PlaneVectorField, SIGMA2_UNKNOWNS, SurfaceModel, generic_family,
                         sigma2_model)


@pytest.fixture(scope="module")
def pvi():
    return pvi_system().admissible


def _accessible(vf, location):
    """Whether the divisor point X=location (None for infinity) is accessible."""
    local = divisor_chart_local(vf, "U3" if location is None else "U2")
    at = vf.ctx.rat(0) if location is None else location
    return deflate(restricted_numerator(local), local.along, at) is not None


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
        li = linearization(divisor_chart_local(pvi, p.chart), p.location)
        scale, upper = displays[p.label]
        assert li.matrix == _expect(ctx, scale, upper), p.label
        assert str(li.ratio) == "2"


def test_pvi_finite_matrices_verbatim_on_raw_transcription():
    """On the raw five-parameter transcription the three finite points give
    the displayed matrices verbatim, alpha0 included; only the infinity
    chart needs the normalization."""
    raw = pvi_system().vf
    ctx = raw.ctx
    displays = {"0": ("1/(t - 1)", "-alpha4"), "1": ("-1/t", "-alpha3"),
                "t": ("1", "-alpha0")}
    points = {p.label: p for p in accessible_points(raw)}
    assert set(points) >= set(displays)
    for label, (scale, upper) in displays.items():
        li = linearization(divisor_chart_local(raw, points[label].chart),
                           points[label].location)
        assert li.matrix == _expect(ctx, scale, upper), label
        assert str(li.ratio) == "2"


def test_trivial_linear_system_reads_off_matrix():
    # dX/dt = (2X - a*Y)/Y, dY/dt = 1 corresponds to dx/dt = 2xy - a, dy/dt = -y^2
    ctx = Context.make(parameters=["alpha"])
    x, y, a = ctx.var("x"), ctx.var("y"), ctx.var("alpha")
    vf = PlaneVectorField(ctx.rat(2) * x * y - a, -y * y, "U0", SurfaceModel(2, (a,)))
    pts = accessible_points(vf)
    assert pts[0].label == "0"
    li = linearization(divisor_chart_local(vf, pts[0].chart), pts[0].location)
    assert li.matrix == Mat2([[ctx.rat(2), -a], [ctx.rat(0), ctx.rat(1)]])
    assert str(li.ratio) == "2"


def test_point_at_infinity_is_the_point_of_chart_u3():
    """A point is at infinity exactly when it lives in chart U3, so its label
    cannot disagree with its chart."""
    zero = Context.make(parameters=[]).rat(0)
    u2, u3 = AccessiblePoint("U2", zero, 1), AccessiblePoint("U3", zero, 1)
    assert (u2.at_infinity, u2.label) == (False, "0")
    assert (u3.at_infinity, u3.label) == (True, "inf")


def test_symbolic_family_origin_not_accessible_when_a7_nonzero():
    ctx = Context.make(parameters=["alpha2"], unknowns=list(SIGMA2_UNKNOWNS))
    fam = generic_family(sigma2_model(ctx), ctx)
    # the divisor numerator at X=0 is a7, nonzero as a symbol
    assert not _accessible(fam.vf, ctx.rat(0))
    a7_zero = fam.vf.subs_params({"a7": ctx.rat(0)})
    assert _accessible(a7_zero, ctx.rat(0))


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
    ctx = Context.make(parameters=[])
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
        local = divisor_chart_local(vf, p.chart)
        assert str(linearization(local, p.location).ratio) == expected[p.label]


def _simple_point_ratios(vf):
    """The local index ratio at every simple accessible point, by label."""
    return {p.label: linearization(divisor_chart_local(vf, p.chart), p.location).ratio
            for p in accessible_points(vf) if p.multiplicity == 1}


def test_branch_point_screen():
    """The screen flags exactly the non-integer ratios: the four-point family
    at eigenvalues (2, 2, 2, 2) passes, at (1, 3, 4, 12/5) only X=inf fails."""
    entry = get_system("gen-pvi")
    ctx = entry.vf.ctx
    alphas = {"alpha0": ctx.rat(2), "alpha1": ctx.rat(3), "alpha2": ctx.rat(5),
              "alpha3": ctx.rat(7), "alpha4": ctx.rat(11)}
    for eigen, flagged in (((2, 2, 2, 2), []), ((1, 3, 4, Fraction(12, 5)), ["inf"])):
        values = dict(alphas, **{f"n{i}": ctx.rat(n) for i, n in enumerate(eigen, 1)})
        ratios = _simple_point_ratios(entry.vf.subs_params(values))
        assert len(ratios) == 4
        assert [label for label, r in ratios.items() if not r.is_integer()] == flagged


def test_screen_vector_field_on_pvi(pvi):
    """The necessary single-valuedness condition holds on pvi: the local
    index ratio of every simple accessible point is an integer."""
    ratios = _simple_point_ratios(pvi)
    assert ratios and all(r.is_integer() for r in ratios.values())


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
    res = resolve_family(fam.vf, ctx.rat(0), 2, -ctx.var("t"), fam.unknowns, "U2")
    _assert_same_linearization(res.trace.final_local_field(), res.trace.final_location)


def test_linearization_refuses_a_divisor_point_that_is_not_accessible():
    vf = pvi_system().vf
    with pytest.raises(NotAccessible) as exc:
        linearization(divisor_chart_local(vf, "U2"), vf.ctx.rat(5))
    assert "x = 5 on y = 0" in str(exc.value)


def test_linearization_refuses_a_resolved_chart_point_off_the_resolved_point():
    """The resolved point of gen-pv's double point is Y = -t; Y = t is not."""
    entry = get_system("gen-pv")
    vf = entry.vf.subs_params(relation_substitution([entry.relation],
                                                    entry.eigenvalue_syms))
    trace = resolve_multiplicity(vf, {p.label: p for p in accessible_points(vf)}["0"])
    local = trace.final_local_field()
    assert linearization(local, trace.final_location) == trace.index
    with pytest.raises(NotAccessible) as exc:
        linearization(local, vf.ctx.var("t"))
    assert "y = t on x = 0" in str(exc.value)


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


# ---------------------------------------------------------------------------
# The one deflation step against the coefficient-list reference
# ---------------------------------------------------------------------------


def _ref_restricted_numerator(local):
    """F1(s, 0) as a list of per-coefficient MRats, lowest degree first."""
    ctx = local.ctx
    cleared = local.component(local.along) * ctx.var(local.divisor)
    den = MRat.from_poly(cleared.den)
    univ = cleared.num.coefficient(local.divisor, 0).as_univariate(local.along)
    return [MRat.from_poly(univ.get(k, ctx.poly(0))) / den for k in range(max(univ) + 1)]


def _ref_coefficients(f, s):
    """The coefficient list of an MRat whose denominator is free of s."""
    ctx = f.ctx
    den = MRat.from_poly(f.den)
    univ = f.num.as_univariate(s)
    return _ref_trim([MRat.from_poly(univ.get(k, ctx.poly(0))) / den
                      for k in range(max(univ, default=0) + 1)])


def _ref_eval(coeffs, value):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * value + c
    return acc


def _ref_deflate(coeffs, root):
    """Synthetic division by (s - root); the division must be exact."""
    out = [None] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        out[k] = carry
        carry = coeffs[k] + carry * root
    assert carry.is_zero()
    return out


def _ref_trim(coeffs):
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs = coeffs[:-1]
    return coeffs


def _ref_root_multiplicity(coeffs, root):
    coeffs = _ref_trim(list(coeffs))
    mult = 0
    while len(coeffs) > 1 and _ref_eval(coeffs, root).is_zero():
        coeffs = _ref_trim(_ref_deflate(coeffs, root))
        mult += 1
    return mult, coeffs


def _ref_find_divisor_roots(coeffs, candidates):
    coeffs = _ref_trim(list(coeffs))
    if len(coeffs) == 1:
        return []
    roots = []
    for cand in candidates:
        mult, coeffs = _ref_root_multiplicity(coeffs, cand)
        if mult:
            roots.append((cand, mult))
    while len(coeffs) == 2:
        root = -(coeffs[0] / coeffs[1])
        coeffs = [coeffs[1]]
        for i, (r, m) in enumerate(roots):
            if r == root:
                roots[i] = (r, m + 1)
                break
        else:
            roots.append((root, 1))
    if len(coeffs) > 2:
        residual = " + ".join(f"({c})*X^{k}" for k, c in enumerate(coeffs) if not c.is_zero())
        raise UnresolvedFactor(residual)
    return roots


def _outcome(find, *args):
    """(roots as text with multiplicities, None) or (None, UnresolvedFactor text)."""
    try:
        return [(str(r), m) for r, m in find(*args)], None
    except UnresolvedFactor as exc:
        return None, str(exc)


PLANT = Context.make(parameters=["a"])
# values that are never roots: they involve x or y, which F1's coefficients do not
FIBER_VALUES = ["x", "x + 1", "t*y"]

_small = st.integers(-2, 2)
# c0 + c1*t + c2*a, of degree at most 1 in t and in a
_linear = st.tuples(_small, _small, _small)


def _planted_poly(cs):
    c0, c1, c2 = (PLANT.rat(c) for c in cs)
    return c0 + c1 * PLANT.var("t") + c2 * PLANT.var("a")


@st.composite
def _planted(draw):
    """F1 = g * prod (d_i*s - n_i)^m_i / D, and a candidate list holding the
    roots n_i/d_i that ``draw`` marks as candidates."""
    s = PLANT.var("x")
    factors = []
    count = draw(st.integers(1, 3))
    for _ in range(count):
        d = _planted_poly(draw(_linear))
        assume(not d.is_zero())
        n = _planted_poly(draw(_linear))
        # at most six linear factors in all, so that SymPy factors quickly
        factors.append((d, n, draw(st.integers(1, 3 if count == 1 else 2)),
                        draw(st.booleans())))
    # the cofactor: a constant, a polynomial in t and a, or an irreducible quadratic
    g = draw(st.sampled_from(["3", "t + a", "-1/2*t", "x^2 + t", "x^2 + a^2 + 1"]))
    den = _planted_poly(draw(_linear))
    assume(not den.is_zero())
    f = PLANT.parse(g) / den
    candidates = [PLANT.parse(v) for v in FIBER_VALUES]
    for d, n, m, known in factors:
        f = f * (d * s - n) ** m
        if known:
            candidates.append(n / d)
    return f, candidates


def _assert_deflation_matches_reference(f, candidates):
    coeffs = _ref_coefficients(f, "x")
    for cand in candidates + default_candidates(PLANT):
        mult, quotient = root_multiplicity(f, "x", cand)
        want_mult, want_quotient = _ref_root_multiplicity(coeffs, cand)
        assert mult == want_mult
        got_quotient = _ref_coefficients(quotient, "x")
        assert got_quotient == want_quotient
        assert [str(c) for c in got_quotient] == [str(c) for c in want_quotient]
        assert (deflate(f, "x", cand) is not None) == _ref_eval(coeffs, cand).is_zero()
        # the value at a candidate is f.subs, the same canonical MRat
        assert f.subs({"x": cand}) == _ref_eval(coeffs, cand)
    outcome = _outcome(find_divisor_roots, f, "x", candidates)
    assert outcome == _outcome(_ref_find_divisor_roots, coeffs, candidates)
    return outcome


@settings(max_examples=60, deadline=None)
@given(_planted())
def test_deflation_matches_the_coefficient_list_reference(planted):
    """Roots, multiplicities, deflated values and the UnresolvedFactor text of
    a planted F1 equal those of the coefficient-list loop."""
    _assert_deflation_matches_reference(*planted)


@pytest.mark.parametrize("f, candidates, want", [
    # a repeated root and a simple one, both candidates
    ("(2*x - t)^2*(x - a)/(t + 1)", ["t/2", "a"], ([("1/2*t", 2), ("a", 1)], None)),
    # a root left as the linear residual
    ("(x - a)*(x*t - 1)*3", ["a"], ([("a", 1), ("(1)/(t)", 1)], None)),
    # a repeated root that is no candidate, and an irreducible quadratic:
    # residuals of degree 2
    ("(x*t - 1)^2*(x - 1)/a", ["1"],
     (None, "unresolved factor: ((1)/(a))*X^0 + ((-2*t)/(a))*X^1 + ((t^2)/(a))*X^2")),
    ("(x^2 + t)*(x - 1)", ["1"], (None, "unresolved factor: (t)*X^0 + (1)*X^2")),
])
def test_deflation_cases_match_reference(f, candidates, want):
    cands = [PLANT.parse(c) for c in candidates + FIBER_VALUES]
    assert _assert_deflation_matches_reference(PLANT.parse(f), cands) == want


@settings(max_examples=20, deadline=None)
@given(_planted())
def test_deflation_multiplicities_match_sympy(planted):
    """The multiplicity of every root found equals the exponent that
    sympy.factor_list gives the linear factors with that root."""
    sp = pytest.importorskip("sympy")
    f, candidates = planted
    x, t, a = sp.symbols("x t a")
    num = sp.sympify(str(f.num).replace("^", "**"), locals={"x": x, "t": t, "a": a})
    exponents = {}
    for factor, power in sp.factor_list(num, x, t, a)[1]:
        if sp.degree(factor, x) == 1:
            root = sp.cancel(-factor.coeff(x, 0) / factor.coeff(x, 1))
            exponents[root] = exponents.get(root, 0) + power
    try:
        roots = find_divisor_roots(f, "x", candidates)
    except UnresolvedFactor:
        roots = [(c, m) for c in candidates if (m := root_multiplicity(f, "x", c)[0])]
    for root, mult in roots:
        key = sp.cancel(sp.sympify(str(root).replace("^", "**"),
                                   locals={"x": x, "t": t, "a": a}))
        assert exponents.get(key, 0) == mult, (str(root), exponents)


def test_values_involving_x_or_y_are_never_roots():
    """x, x + 1 and t*y are refused without dividing, so neither a factor
    x^2 + 1 (which x + 1 would formally deflate for ever) nor a root at 0
    (which x would divide by zero) is touched."""
    for f in (PLANT.parse("x^2 + 1"), PLANT.parse("x^2 + 1") * PLANT.parse("x*t - 1"),
              PLANT.parse("x^3 - x")):
        for text in FIBER_VALUES:
            value = PLANT.parse(text)
            assert deflate(f, "x", value) is None
            assert root_multiplicity(f, "x", value) == (0, f)
    ctx = Context.make(parameters=["alpha2"])
    x, y = ctx.var("x"), ctx.var("y")
    vf = PlaneVectorField((x * x + ctx.rat(1)) * y, ctx.rat(0), "U0", sigma2_model(ctx))
    for text in FIBER_VALUES:
        assert not _accessible(vf, ctx.parse(text))
        with pytest.raises(UnresolvedFactor) as exc:
            accessible_points(vf, [ctx.parse(text)])
        assert str(exc.value) == "unresolved factor: (1)*X^0 + (1)*X^2"


@pytest.mark.parametrize("name", system_names())
def test_accessible_points_match_the_coefficient_list_reference(name):
    """Every builtin system: the U2 roots, the multiplicity at infinity and
    _accessible, at None and at every root, agree with the reference."""
    vf = _cli_system(name)
    ctx = vf.ctx
    u2, u3 = divisor_chart_local(vf, "U2"), divisor_chart_local(vf, "U3")
    candidates = default_candidates(ctx)
    want = _ref_find_divisor_roots(_ref_restricted_numerator(u2), candidates)
    got = find_divisor_roots(restricted_numerator(u2), u2.along, candidates)
    assert [(str(r), m) for r, m in got] == [(str(r), m) for r, m in want]
    coeffs3 = _ref_restricted_numerator(u3)
    at_inf = _ref_root_multiplicity(coeffs3, ctx.rat(0))[0]
    assert root_multiplicity(restricted_numerator(u3), u3.along, ctx.rat(0))[0] == at_inf
    assert _accessible(vf, None) == _ref_eval(coeffs3, ctx.rat(0)).is_zero() == bool(at_inf)
    for root, _ in want:
        assert _accessible(vf, root)
    for text in FIBER_VALUES + ["2", "-t"]:
        value = ctx.parse(text)
        assert _accessible(vf, value) == _ref_eval(_ref_restricted_numerator(u2),
                                                   value).is_zero()
