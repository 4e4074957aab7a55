"""Chart calculus tests: transitions, rewrites, log condition, families."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from grs.algebra import Context, MPoly, MRat
from grs.surface import (CHARTS, PlaneVectorField, SIGMA2_UNKNOWNS, SurfaceError,
                         SurfaceModel, _walk, chart_from_u0, chart_transform,
                         check_log_condition, generic_family, sigma2_model)

GOLDEN = Path(__file__).parent / "golden"


def roundtrip_is_identity(ctx: Context, model: SurfaceModel, chart: str) -> bool:
    """Exact check that chart -> U0 -> chart composes to the identity."""
    u0 = _walk(ctx, model, chart, "U0")
    back = chart_from_u0(ctx, model, chart)
    comp1 = back[0].subs({"x": u0[0], "y": u0[1]})
    comp2 = back[1].subs({"x": u0[0], "y": u0[1]})
    return comp1 == ctx.var("x") and comp2 == ctx.var("y")


@pytest.fixture
def ctx():
    return Context.make(parameters=["alpha2"], unknowns=list(SIGMA2_UNKNOWNS))


@pytest.fixture
def family(ctx):
    return generic_family(sigma2_model(ctx), ctx)


def test_chart_round_trips(ctx):
    model = sigma2_model(ctx)
    assert all(roundtrip_is_identity(ctx, model, c) for c in ("U1", "U2", "U3"))
    ctx3 = Context.make(parameters=["g1", "g2"])
    model3 = SurfaceModel(3, (ctx3.var("g1"), ctx3.var("g2")))
    assert all(roundtrip_is_identity(ctx3, model3, c) for c in ("U1", "U2", "U3"))
    ctx1 = Context.make(parameters=[])
    model1 = SurfaceModel(1, ())
    assert all(roundtrip_is_identity(ctx1, model1, c) for c in ("U1", "U2", "U3"))


def test_field_round_trip_through_u1(family):
    u1 = chart_transform(family, "U1")
    back = chart_transform(u1, "U0")
    assert back.dxdt == family.dxdt and back.dydt == family.dydt


def test_zero_field_transforms_to_zero(ctx):
    zero = ctx.rat(0)
    vf = PlaneVectorField(zero, zero, "U0", sigma2_model(ctx))
    u1 = chart_transform(vf, "U1")
    assert u1.dxdt.is_zero() and u1.dydt.is_zero()


def test_hand_chain_rule_oracle(ctx):
    # (dx/dt, dy/dt) = (x, -y) under w1 = -(x*y + alpha2)*x:
    # dz1/dt = -z1^2 * x = -z1;  dw1/dt = -(2xy + alpha2)x + x^2 y = w1.
    x, y = ctx.var("x"), ctx.var("y")
    vf = PlaneVectorField(x, -y, "U0", sigma2_model(ctx))
    u1 = chart_transform(vf, "U1")
    assert u1.dxdt == -x
    assert u1.dydt == y


def _fresh(vf):
    return PlaneVectorField(vf.dxdt, vf.dydt, vf.chart, vf.model)


def test_chart_transform_is_computed_once_per_field_and_chart(family):
    vf = family
    for chart in ("U1", "U2", "U3"):
        first = chart_transform(vf, chart)
        assert chart_transform(vf, chart) is first
        # the held rewrite is the one a field without any held rewrite gives
        fresh = chart_transform(_fresh(vf), chart)
        assert first is not fresh and first == fresh and first.chart == chart
    assert chart_transform(vf, "U0") is vf


def test_held_rewrites_do_not_change_equality_hash_or_text(family):
    warm = family
    chart_transform(warm, "U2")
    cold = _fresh(warm)
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold) and str(warm) == str(cold)
    assert {warm: 1}[cold] == 1


def test_subs_params_field_holds_no_stale_rewrite(ctx, family):
    vf = family
    before = chart_transform(vf, "U1")
    special = vf.subs_params({"alpha2": ctx.rat(3)})
    after = chart_transform(special, "U1")
    assert after != before
    assert after == chart_transform(_fresh(special), "U1")
    assert after.model == special.model


def _u1_transcription(ctx):
    """The rewrite of the generic family in (x1, y1), transcribed by hand."""
    x, y = ctx.var("x"), ctx.var("y")
    al = ctx.var("alpha2")
    a = {i: ctx.var(f"a{i}") for i in range(1, 11)}
    half = ctx.rat(Fraction(1, 2))
    two, three = ctx.rat(2), ctx.rat(3)
    dx1 = (a[7] * x ** 4 * y + a[5] * x ** 3 * y + a[2] * x ** 2 * y + a[1] * x * y
           + al * a[7] * x ** 3 + (al * a[5] - a[8]) * x ** 2 + (a[6] - al * a[9]) * x
           - half * al * (a[1] + two * a[3]) + a[4] / two)
    dy1 = (-two * a[7] * x ** 3 * y ** 2 - (two * a[5] + a[10]) * x ** 2 * y ** 2
           - three * al * a[7] * x ** 2 * y - (two * a[2] + a[9]) * x * y ** 2
           - (two * a[1] + a[3]) * y ** 2 - (al * (three * a[5] + two * a[10]) - two * a[8]) * x * y
           - al ** 2 * a[7] * x - (al * a[2] + a[6]) * y - al * (al * (a[5] + a[10]) - a[8]))
    return dx1, dy1


def _u2_transcription(ctx):
    """The divisor-chart rewrite of the generic family, transcribed by hand."""
    x, y = ctx.var("x"), ctx.var("y")
    al = ctx.var("alpha2")
    a = {i: ctx.var(f"a{i}") for i in range(1, 11)}
    half = ctx.rat(Fraction(1, 2))
    two, three = ctx.rat(2), ctx.rat(3)
    dX = ((a[1] * x ** 3 + a[2] * x ** 2 + a[5] * x + a[7]) / y
          + half * ((three * a[1] + two * a[3]) * al - a[4]) * x ** 2
          + ((a[2] + a[9]) * al - a[6]) * x + a[8])
    dY = (-a[10] - a[9] * x - a[3] * x ** 2 - a[4] * x * y - a[6] * y
          - half * (a[1] * al + a[4]) * al * y ** 2)
    return dX, dY


def test_family_u1_rewrite_matches_transcription(ctx, family):
    u1 = chart_transform(family, "U1")
    dx1, dy1 = _u1_transcription(ctx)
    assert u1.dxdt == dx1
    assert u1.dydt == dy1


def test_family_u2_rewrite_matches_transcription_and_golden_file(ctx, family):
    u2 = chart_transform(family, "U2")
    dX, dY = _u2_transcription(ctx)
    assert u2.dxdt == dX
    assert u2.dydt == dY
    golden = (GOLDEN / "family_u2.txt").read_text().splitlines()
    assert str(u2.dxdt) == golden[0]
    assert str(u2.dydt) == golden[1]


def test_log_condition_reports(ctx, family):
    # the generic family satisfies the condition identically in the unknowns
    assert check_log_condition(family)
    # a quadratic y-term violates condition 2
    y = ctx.var("y")
    bad = PlaneVectorField(y * y, ctx.rat(0), "U0", sigma2_model(ctx))
    assert not check_log_condition(bad)


def test_log_condition_on_pvi():
    from grs.catalog import pvi_system
    assert check_log_condition(pvi_system().admissible)
    # the raw five-parameter transcription holds only on the normalized slice
    assert not check_log_condition(pvi_system().vf)


def test_generic_family_sigma2_is_ten_dimensional(family):
    involved = set(family.dxdt.num.variables() + family.dydt.num.variables())
    assert involved & set(family.ctx.names[3:]) == {"alpha2", *SIGMA2_UNKNOWNS}
    # x^2 coefficient of dx/dt carries the holomorphy-forced combination
    coeff = family.dxdt.num.coefficient("x", 2).coefficient("y", 0)
    assert "3/2" in str(coeff) or "alpha2" in str(coeff)


def test_generic_family_general_path_agrees_on_sigma2(ctx, family):
    # generate the n=2 family from the degree caps instead of the closed
    # form: it must have the same dimension, and the explicit family must
    # satisfy all pole conditions identically.  The caps are those holomorphy
    # forces on S_2, (3, 4, 1, 2, 3), with deg b5 lowered to 2: that excludes
    # the one extra admissible line (a field proportional to the top b5
    # coefficient) that the ten-coefficient family does not contain
    from grs.surface import _u1_pole_conditions
    from grs.algebra import solve_triangular
    caps = (3, 4, 1, 2, 2)
    names = [f"b{b}_{k}" for b, cap in enumerate(caps, start=1) for k in range(cap + 1)]
    gctx = Context.make(parameters=["alpha2"], unknowns=names)
    model = sigma2_model(gctx)
    x, y = gctx.var("x"), gctx.var("y")

    def block(b, cap):
        acc = gctx.rat(0)
        for k in range(cap + 1):
            acc = acc + gctx.var(f"b{b}_{k}") * x ** k
        return acc

    b1, b2, b3, b4, b5 = (block(i + 1, caps[i]) for i in range(5))
    ansatz = PlaneVectorField(b1 + b2 * y, b3 + b4 * y + b5 * y * y, "U0", model)
    sol = solve_triangular(_u1_pole_conditions(ansatz), names)
    assert len(sol.free) == 10  # the ten-coefficient family
    # the explicit family is identically polynomial in U1
    assert _u1_pole_conditions(family) == []


def test_sigma_model_twist_arity():
    ctx = Context.make(parameters=["g1"])
    with pytest.raises(SurfaceError, match="S_3 needs 2 twist coefficients, got 1"):
        SurfaceModel(3, (ctx.var("g1"),))


small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=25, deadline=None)
@given(small, small, small, small, small, small)
def test_chart_round_trip_on_random_polynomial_fields(c1, c2, c3, c4, c5, c6):
    """U0 -> U1 -> U0 and U0 -> U2 -> U0 are exact on polynomial fields."""
    ctx = Context.make(parameters=["alpha2"])
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    f1 = ctx.rat(c1) * x * x * y + ctx.rat(c2) * x * t + ctx.rat(c3)
    f2 = ctx.rat(c4) * y * y + ctx.rat(c5) * x * y + ctx.rat(c6) * t
    vf = PlaneVectorField(f1, f2, "U0", sigma2_model(ctx))
    for mid in ("U1", "U2", "U3"):
        back = chart_transform(chart_transform(vf, mid), "U0")
        assert back.dxdt == f1 and back.dydt == f2


# -- the closed-form rewrite out of U0 against general substitution ---------


def _substituted_rewrite(vf, target):
    """The rewrite by general substitution: the chain rule on the transition
    map from vf's chart to the target, then the inverse map substituted."""
    ctx, model = vf.ctx, vf.model
    tx, ty = chart_from_u0(ctx, model, target)
    cx, cy = _walk(ctx, model, vf.chart, "U0")
    phi = (tx.subs({"x": cx, "y": cy}), ty.subs({"x": cx, "y": cy}))
    d1, d2 = (p.derivative("x") * vf.dxdt + p.derivative("y") * vf.dydt for p in phi)
    bx, by = chart_from_u0(ctx, model, vf.chart)
    ux, uy = _walk(ctx, model, target, "U0")
    inv = {"x": bx.subs({"x": ux, "y": uy}), "y": by.subs({"x": ux, "y": uy})}
    return d1.subs(inv), d2.subs(inv)


LAURENT_CTX = Context.make(parameters=["p", "q"])

# twist entries: rational constants, a parameter, parameter denominators, t
_twist_entry = st.sampled_from(["3/2", "-1", "0", "p", "1/q", "p - 1/2", "2/(p + 1)", "t",
                                "1/(t + 1)"])
# denominators in t, in the parameters, and in x and y
_denominator = st.sampled_from(["1", "t", "t*(t - 1)", "2*p", "q + 1", "x*y", "x - t",
                                "y + p", "x^2 + t*y", "3*x*y^2 - q"])
_term = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1),
                  st.integers(0, 1), st.integers(-3, 3).filter(bool))


def _polynomial(terms):
    acc = {}
    for i, j, k, l, c in terms:
        acc[(i, j, k, l, 0)] = acc.get((i, j, k, l, 0), 0) + Fraction(c, 2)
    return MRat.from_poly(MPoly(LAURENT_CTX, acc))


_component = st.builds(lambda terms, den: _polynomial(terms) / LAURENT_CTX.parse(den),
                       st.lists(_term, max_size=4), _denominator)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(_twist_entry, min_size=n - 1, max_size=n - 1))),
       _component, _component)
# on this field one gcd of the closed form's uncancelled U3 images took 10 s
# on a 2.1 GHz vCPU; the gcd of their contents in x and y takes milliseconds
@example((2, ["2/(p + 1)"]), LAURENT_CTX.parse("-x^2*y*t - x^3 - 3/2*y^2 + 3/2*t"),
         LAURENT_CTX.parse("-y/(x^2 + y*t)"))
def test_closed_form_rewrite_equals_general_substitution(model_data, f1, f2):
    """Every rewrite out of U0 equals the general substitution exactly."""
    n, twist = model_data
    model = SurfaceModel(n, tuple(LAURENT_CTX.parse(g) for g in twist))
    for vf in (PlaneVectorField(f1, f2, "U0", model),
               PlaneVectorField(LAURENT_CTX.rat(0), LAURENT_CTX.rat(0), "U0", model)):
        for target in ("U1", "U2", "U3"):
            got = chart_transform(vf, target)
            assert (got.dxdt, got.dydt) == _substituted_rewrite(vf, target)
            assert got.chart == target and got.model == model


@pytest.mark.parametrize("twist", ["1/q", "p - 1/2", "2/(p + 1)"])
def test_no_rewrite_substitutes(monkeypatch, twist):
    """Every ordered rewrite is a chain of closed-form moves: none of them
    substitutes, whatever the twist's denominator."""
    from grs import algebra
    calls = []
    original = algebra._poly_subs
    monkeypatch.setattr(algebra, "_poly_subs",
                        lambda p, values: calls.append(1) or original(p, values))
    model = SurfaceModel(2, (LAURENT_CTX.parse(twist),))
    vf = PlaneVectorField(LAURENT_CTX.parse("x*y + t"), LAURENT_CTX.parse("y^2/x"), "U0", model)
    for source in CHARTS:
        field = _fresh(chart_transform(vf, source))
        for target in CHARTS:
            chart_transform(_fresh(field), target)
    assert calls == []


U3_TWISTED = json.loads((Path(__file__).parent / "fixtures" / "u3_twisted_field.json").read_text())


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(CHARTS), st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(_twist_entry, min_size=n - 1, max_size=n - 1))),
       _component, _component)
# the fixture field comes back from U3 -> U0 -> U3 unchanged
@example(U3_TWISTED["chart"], (U3_TWISTED["model"]["n"], U3_TWISTED["model"]["twist"]),
         LAURENT_CTX.parse(U3_TWISTED["dxdt"]), LAURENT_CTX.parse(U3_TWISTED["dydt"]))
def test_rewrites_are_path_independent(chart, model_data, f1, f2):
    """Rewriting through any chart A and then into B equals rewriting into B:
    so every source's rewrites agree with the ones out of U0, which the test
    above checks against substitution."""
    n, twist = model_data
    model = SurfaceModel(n, tuple(LAURENT_CTX.parse(g) for g in twist))
    vf = PlaneVectorField(f1, f2, chart, model)
    for a in CHARTS:
        through = _fresh(chart_transform(_fresh(vf), a))
        for b in CHARTS:
            assert chart_transform(_fresh(through), b) == chart_transform(_fresh(vf), b)


@pytest.mark.parametrize("twist", ["t", "1/(t + 1)"])
def test_a_twist_in_t_rewrites_without_the_time_term(twist):
    """Every move leaves d(phi)/dt off, so with a twist in t every chart
    still takes a U0 field back to itself."""
    model = SurfaceModel(2, (LAURENT_CTX.parse(twist),))
    f1, f2 = LAURENT_CTX.parse("x*y + t"), LAURENT_CTX.parse("y^2 + x")
    for mid in ("U1", "U2", "U3"):
        back = chart_transform(chart_transform(PlaneVectorField(f1, f2, "U0", model), mid), "U0")
        assert (back.dxdt, back.dydt) == (f1, f2)


def test_builtin_rewrites_run_few_gcds(monkeypatch):
    """The rewrites of the six builtin systems into U1, U2 and U3 run 46
    gcds (473 by general substitution); a polynomial field's U2 rewrite runs
    at most one.  The catalog's fields are shared and keep their rewrites, so
    the count is taken on copies that start with none."""
    from grs import algebra
    from grs.catalog import get_system, system_names
    fields = [_fresh(get_system(name).vf) for name in system_names()]
    family_ctx = Context.make(parameters=["p"], unknowns=list(SIGMA2_UNKNOWNS))
    polynomial = generic_family(SurfaceModel(2, (family_ctx.var("p"),)), family_ctx)
    calls = []
    cofactors = algebra.gcd_cofactors
    monkeypatch.setattr(algebra, "gcd_cofactors",
                        lambda a, b: calls.append(1) or cofactors(a, b))
    for vf in fields:
        for target in ("U1", "U2", "U3"):
            chart_transform(vf, target)
    assert len(calls) <= 100
    calls.clear()
    chart_transform(polynomial, "U2")
    assert len(calls) <= 1


def _hand_rewrite(sp, syms, vf, target):
    """SymPy's cancel of the chain rule by hand: the target coordinates in
    U0's differentiated along the field, then U0's in the target's put in."""
    x, y = syms["x"], syms["y"]
    u, v = sp.symbols("u v")
    to_sp = lambda r: sp.sympify(str(r).replace("^", "**"), locals=syms)
    f1, f2 = map(to_sp, vf.components())
    n, g = vf.model.n, [to_sp(gi) for gi in vf.model.twist]
    w1 = -x ** n * y - sum(gi * x ** i for i, gi in enumerate(g, start=1))
    if target == "U2":
        new, old = (x, 1 / y), {x: u, y: 1 / v}
    else:
        w = v if target == "U1" else 1 / v
        y_of = -(w + sum(gi * u ** -i for i, gi in enumerate(g, start=1))) * u ** n
        new, old = (1 / x, w1 if target == "U1" else 1 / w1), {x: 1 / u, y: y_of}
    d = [sp.diff(c, x) * f1 + sp.diff(c, y) * f2 for c in new]
    return [sp.cancel(di.subs(old, simultaneous=True).subs({u: x, v: y}, simultaneous=True))
            for di in d]


@pytest.mark.parametrize("system", ["pvi", "gen-pvi", "gen-piii"])
def test_rewrites_match_sympy(system):
    sp = pytest.importorskip("sympy")
    from grs.catalog import get_system
    vf = get_system(system).vf
    syms = {name: sp.Symbol(name) for name in vf.ctx.names}
    for target in ("U1", "U2", "U3"):
        got = chart_transform(vf, target)
        want = _hand_rewrite(sp, syms, vf, target)
        for ours, theirs in zip(got.components(), want):
            ours = sp.sympify(str(ours).replace("^", "**"), locals=syms)
            assert sp.cancel(ours - theirs) == 0
