"""Chart calculus tests: transitions, rewrites, log condition, families."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grs.algebra import Context
from grs.surface import (InvalidN, PlaneVectorField, SIGMA2_UNKNOWNS,
                         SurfaceModel, chart_from_u0, chart_to_u0, chart_transform,
                         check_log_condition, degree_bounds, generic_family,
                         sigma2_model, sigma_n_model)

GOLDEN = Path(__file__).parent / "golden"


def roundtrip_is_identity(ctx: Context, model: SurfaceModel, chart: str) -> bool:
    """Exact check that chart -> U0 -> chart composes to the identity."""
    u0 = chart_to_u0(ctx, model, chart)
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
    model3 = sigma_n_model(ctx3, 3, ["g1", "g2"])
    assert all(roundtrip_is_identity(ctx3, model3, c) for c in ("U1", "U2", "U3"))


def test_field_round_trip_through_u1(family):
    u1 = chart_transform(family.vf, "U1")
    back = chart_transform(u1, "U0")
    assert back.dxdt == family.vf.dxdt and back.dydt == family.vf.dydt


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
    vf = family.vf
    for chart in ("U1", "U2", "U3"):
        first = chart_transform(vf, chart)
        assert chart_transform(vf, chart) is first
        # the held rewrite is the one a field without any held rewrite gives
        fresh = chart_transform(_fresh(vf), chart)
        assert first is not fresh and first == fresh and first.chart == chart
    assert chart_transform(vf, "U0") is vf


def test_held_rewrites_do_not_change_equality_hash_or_text(family):
    warm = family.vf
    chart_transform(warm, "U2")
    cold = _fresh(warm)
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold) and str(warm) == str(cold)
    assert {warm: 1}[cold] == 1


def test_subs_params_field_holds_no_stale_rewrite(ctx, family):
    vf = family.vf
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
    u1 = chart_transform(family.vf, "U1")
    dx1, dy1 = _u1_transcription(ctx)
    assert u1.dxdt == dx1
    assert u1.dydt == dy1


def test_family_u2_rewrite_matches_transcription_and_golden_file(ctx, family):
    u2 = chart_transform(family.vf, "U2")
    dX, dY = _u2_transcription(ctx)
    assert u2.dxdt == dX
    assert u2.dydt == dY
    golden = (GOLDEN / "family_u2.txt").read_text().splitlines()
    assert str(u2.dxdt) == golden[0]
    assert str(u2.dydt) == golden[1]


def test_log_condition_reports(ctx, family):
    # the generic family satisfies the condition identically in the unknowns
    assert check_log_condition(family.vf).holds
    # a quadratic y-term violates condition 2
    y = ctx.var("y")
    bad = PlaneVectorField(y * y, ctx.rat(0), "U0", sigma2_model(ctx))
    rep = check_log_condition(bad)
    assert not rep.holds
    assert any("Y*dX/dt" in w for w in rep.witnesses)


def test_log_condition_on_pvi():
    from grs.catalog import pvi_system
    assert check_log_condition(pvi_system(normalized=True).vf).holds
    # the raw five-parameter transcription holds only on the normalized slice
    assert not check_log_condition(pvi_system(normalized=False).vf).holds


@pytest.mark.parametrize("n, expected", [
    (2, (3, 4, 1, 2, 3)),
    (1, (2, 3, 0, 1, 2)),
    (5, (6, 7, 4, 5, 6)),
])
def test_degree_bounds(n, expected):
    assert degree_bounds(n) == expected


def test_degree_bounds_invalid():
    with pytest.raises(InvalidN):
        degree_bounds(0)


def test_generic_family_sigma2_is_ten_dimensional(family):
    assert family.unknowns == SIGMA2_UNKNOWNS
    # x^2 coefficient of dx/dt carries the holomorphy-forced combination
    coeff = family.vf.dxdt.num.coefficient("x", 2).coefficient("y", 0)
    assert "3/2" in str(coeff) or "alpha2" in str(coeff)


def test_generic_family_general_path_agrees_on_sigma2(ctx, family):
    # generate the n=2 family from the degree caps instead of the closed
    # form: it must have the same dimension, and the explicit family must
    # satisfy all pole conditions identically
    from grs.surface import (_ansatz_unknown_names, _family_caps, _u1_pole_conditions,
                             PlaneVectorField)
    from grs.algebra import solve_triangular
    names = _ansatz_unknown_names(2)
    gctx = Context.make(parameters=["alpha2"], unknowns=names)
    model = sigma_n_model(gctx, 2, ["alpha2"])
    x, y = gctx.var("x"), gctx.var("y")

    def block(b, cap):
        acc = gctx.rat(0)
        for k in range(cap + 1):
            acc = acc + gctx.var(f"b{b}_{k}") * x ** k
        return acc

    caps = _family_caps(2)
    b1, b2, b3, b4, b5 = (block(i + 1, caps[i]) for i in range(5))
    ansatz = PlaneVectorField(b1 + b2 * y, b3 + b4 * y + b5 * y * y, "U0", model)
    sol = solve_triangular(_u1_pole_conditions(ansatz), names)
    assert len(sol.free) == 10  # the ten-coefficient family
    # the explicit family is identically polynomial in U1
    assert _u1_pole_conditions(family.vf) == []


def test_generic_family_sigma3():
    ctx3 = Context.make(parameters=["g1", "g2"])
    model = sigma_n_model(ctx3, 3, ["g1", "g2"])
    fam = generic_family(model)
    assert check_log_condition(fam.vf).holds
    # the divisor numerator (accessible locus) has degree n + 2 = 5 in X with
    # the leading y-block of degree n + 1 = 4 once the leading cap is forced
    from grs.singularities import divisor_chart_local, restricted_numerator
    local = divisor_chart_local(fam.vf, "U2")
    assert restricted_numerator(local).num.degree_in("x") == 4


def test_sigma_model_twist_arity():
    ctx = Context.make(parameters=["g1"])
    with pytest.raises(Exception):
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
