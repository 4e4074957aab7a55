"""Scheme recovery tests: constraint generation, the five golden recoveries,
eigenvalue relations, the existence construction, and correspondences."""

import gc
from dataclasses import replace
from fractions import Fraction

import pytest

from grs import blowup, recovery, singularities
from grs.algebra import (Context, Elimination, InconsistentSystem, MRat, Mat2, StuckSystem,
                         solve_triangular, union_context)
from grs.catalog import (MATCH_PAIRS, get_scheme, get_system, match_pair, pvi_system,
                         scheme_gen_pv, scheme_pvi)
from grs.recovery import (DegeneratePoints, GRScheme, NoRelation, RelationViolated,
                          ResolvedData, SchemeError, SingularSpec,
                          construct_existence_system, eigenvalue_relation,
                          generate_constraints, lift_scheme, match_specialization, recover,
                          relation_substitution, specialize_scheme, verify_recovered)
from grs.surface import SIGMA2_UNKNOWNS, family_context, generic_family


def _prepared(scheme):
    ctx = family_context(scheme.model, scheme.params, SIGMA2_UNKNOWNS)
    lifted = lift_scheme(scheme, ctx)
    return generic_family(lifted.model, ctx), lifted


def _same_equation(poly, ctx, text):
    """Equality of constraint polynomials up to a unit."""
    return poly.primitive() == ctx.parse(text).num.primitive()


def test_generate_constraints_pvi_origin_column():
    family, scheme = _prepared(scheme_pvi().scheme)
    origin_only = GRScheme(scheme.model, scheme.specs[:1], scheme.params,
                           scheme.eigenvalue_syms, "origin")
    cons = generate_constraints(family, origin_only)
    ctx = family.vf.ctx
    expected = ["a7", "a5 + 2*a10", "a8 - alpha4*a10"]
    assert len(cons.equations) == 3
    for poly, text in zip(cons.equations, expected):
        assert _same_equation(poly, ctx, text)


def test_generate_constraints_gen_pv_double_point_column():
    from grs.algebra import solve_triangular
    family, scheme = _prepared(scheme_gen_pv().scheme)
    double_only = GRScheme(scheme.model, scheme.specs[:1], scheme.params,
                           scheme.eigenvalue_syms, "double")
    cons = generate_constraints(family, double_only)
    ctx = family.vf.ctx
    for poly, text in zip(cons.equations[:4],
                          ["a7", "a5", "a10", "t*(a8 - 1/2*t*(2*a2 + a9))"]):
        assert _same_equation(poly, ctx, text)
    # solving the column reproduces the stated conditions: a5 = a7 = a10 = 0,
    # a8 = t(2 a2 + a9)/2 and a2 = -(n3 + 2) a9 / 4
    sol = solve_triangular(cons.equations, family.unknowns,
                           nonzero_forms=cons.nonzero_forms)
    for text in ["a7", "a5", "a10", "a8 - 1/2*t*(2*a2 + a9)",
                 "a2 + 1/4*(n3 + 2)*a9"]:
        residual = ctx.parse(text).subs(sol.assignments)
        assert residual.is_zero(), text


def test_generate_constraints_empty_scheme():
    entry = scheme_pvi()
    family, scheme = _prepared(entry.scheme)
    empty = GRScheme(scheme.model, (), scheme.params, (), "empty")
    assert generate_constraints(family, empty).equations == []


def test_recover_pvi_exact_with_trace():
    rec = recover(scheme_pvi().scheme)
    steps = {s.unknown: str(s.value) for s in rec.solution.trace}
    assert steps["a7"] == "0"
    assert steps["a5"] == "-2*a10"
    assert steps["a8"] == "alpha4*a10"
    assert rec.free == () and rec.relations == ()
    entry = pvi_system()
    lhs = rec.vf.subs_params(entry.normalization)
    rhs = entry.vf.subs_params(entry.normalization)
    assert str(lhs.dxdt) == str(rhs.dxdt)
    assert str(lhs.dydt) == str(rhs.dydt)


def _gauge_compare(rec, entry, scale_param="a"):
    """Recovered system against the printed transcription: substitute the
    eigenvalue relation (as the printed forms do) and fix the free-scale gauge by
    the leading x^3*y coefficient."""
    relsub = relation_substitution(rec.relations, rec.scheme.eigenvalue_syms)
    vf = rec.vf.subs_params(relsub)
    gvf = entry.vf
    big = union_context(vf.ctx, gvf.ctx)
    if scale_param in gvf.ctx:
        coeff = vf.dxdt.num.coefficient("x", 3).coefficient("y", 1)
        aval = (MRat.from_poly(coeff) / MRat.from_poly(vf.dxdt.den)).lift(big)
        gdx = gvf.dxdt.lift(big).subs({scale_param: aval})
        gdy = gvf.dydt.lift(big).subs({scale_param: aval})
    else:
        gdx, gdy = gvf.dxdt.lift(big), gvf.dydt.lift(big)
    return vf.dxdt.lift(big) == gdx and vf.dydt.lift(big) == gdy


@pytest.mark.parametrize("name, expected_free, expected_relation", [
    ("gen-pvi", 0, "2*n1*n2*n3*n4 - n1*n2*n3 - n1*n2*n4 - n1*n3*n4 - n2*n3*n4"),
    ("gen-pv", 0, "2*n1*n2*n3 - n1*n3 - n2*n3 - 2*n1 - 2*n2"),
    ("gen-piv", 1, "2*n1*n2 - 3*n1 - n2 - 3"),
    ("gen-piii", 0, "n1*n2 - 4"),
])
def test_generalized_recoveries_match_transcriptions(name, expected_free, expected_relation):
    entry = get_scheme(name)
    rec = recover(entry.scheme)
    assert len(rec.free) == expected_free
    assert [str(r) for r in rec.relations] == [expected_relation]
    assert _gauge_compare(rec, get_system(name))


def test_delta_expressions_in_recovered_denominators():
    """The printed delta normalizations appear verbatim as denominators."""
    # two double points: delta * t = (4 alpha0 + 2 n1 alpha1 - (n1+2) alpha2) t
    rec = recover(get_scheme("gen-piii").scheme)
    assert str(rec.vf.dxdt.den) == "2*t*alpha1*n1 - t*alpha2*n1 + 4*t*alpha0 - 2*t*alpha2"
    # one double point (after eliminating the bound eigenvalue n3):
    # delta = t {2 n2 a0 + 2 n1 a1 - 2(n1+n2) a2 + 2(2 n1 n2 - n1 - n2) a3
    #            - (n1 - n2) t}
    rec = recover(get_scheme("gen-pv").scheme)
    relsub = relation_substitution(rec.relations, rec.scheme.eigenvalue_syms)
    vf = rec.vf.subs_params(relsub)
    ctx = vf.ctx
    delta = ctx.parse("t*(2*n2*alpha0 + 2*n1*alpha1 - 2*(n1 + n2)*alpha2"
                      " + 2*(2*n1*n2 - n1 - n2)*alpha3 - (n1 - n2)*t)")
    assert vf.dxdt.den == delta.num.primitive()
    # four simple points: delta * t * (t - 1)
    rec = recover(get_scheme("gen-pvi").scheme)
    ctx = rec.vf.ctx
    delta = ctx.parse(
        "(n1*n2*alpha0 + (2*n1*n2*n3 - n1*n2 - n1*n3 - n2*n3)*alpha1"
        " - n1*n2*n3*alpha2 + n1*n3*alpha3 + n2*n3*alpha4) * t * (t - 1)")
    assert rec.vf.dxdt.den == delta.num.primitive()


def test_recovery_at_nonstandard_location():
    """The machinery is generic in the singular locations: moving the X=1
    column to X=5 recovers a system with points {0, 5, t, inf}."""
    from grs.singularities import accessible_points, linearization
    entry = scheme_pvi()
    scheme = entry.scheme
    ctx = scheme.specs[0].matrix[0, 0].ctx
    specs = tuple(SingularSpec(ctx.rat(5), s.multiplicity, s.matrix)
                  if s.label == "1" else s for s in scheme.specs)
    moved = GRScheme(scheme.model, specs, scheme.params, (), "pvi-at-5")
    rec = recover(moved)
    labels = sorted(p.label for p in accessible_points(
        rec.vf, extra_candidates=[rec.vf.ctx.rat(5)]))
    assert labels == ["0", "5", "inf", "t"]


def test_recoveries_against_golden_files():
    """Frozen canonical renderings of the transcribed systems."""
    from pathlib import Path
    golden_dir = Path(__file__).parent / "golden"

    rec = recover(scheme_pvi().scheme)
    norm = pvi_system().normalization
    vf = rec.vf.subs_params(norm)
    assert (golden_dir / "pvi_normalized.txt").read_text().splitlines() == [
        str(vf.dxdt), str(vf.dydt)]

    for name in ("gen-pvi", "gen-pv", "gen-piii"):
        rec = recover(get_scheme(name).scheme)
        relsub = relation_substitution(rec.relations, rec.scheme.eigenvalue_syms)
        vf = rec.vf.subs_params(relsub)
        golden = (golden_dir / f"{name.replace('-', '_')}.txt").read_text().splitlines()
        big = union_context(vf.ctx, get_system(name).vf.ctx)
        assert str(vf.dxdt.lift(big)) == golden[0], name
        assert str(vf.dydt.lift(big)) == golden[1], name


@pytest.mark.parametrize("name, expected", [
    ("gen-pvi", "n1*n2*n3 + n1*n2*n4 + n1*n3*n4 + n2*n3*n4 - 2*n1*n2*n3*n4"),
    ("gen-pv", "2*n1*n2*n3 - (n1 + n2)*n3 - 2*(n1 + n2)"),
    ("gen-piv", "2*n1*n2 - 3*n1 - n2 - 3"),
    ("gen-piii", "n1*n2 - 4"),
])
def test_eigenvalue_relations_up_to_unit(name, expected):
    entry = get_scheme(name)
    rel = eigenvalue_relation(entry.scheme)
    ctx = rel.ctx
    expected_poly = ctx.parse(expected).num
    # equality up to a unit (nonzero rational)
    le, lg = expected_poly.leading()[1], rel.leading()[1]
    assert rel.scale(le / lg) == expected_poly


def test_eigenvalue_relation_absent_for_pvi():
    with pytest.raises(NoRelation):
        eigenvalue_relation(scheme_pvi().scheme)


def test_underdetermined_when_column_deleted():
    """Deleting the X=1 column leaves free coefficients, reported as such."""
    entry = scheme_pvi()
    scheme = entry.scheme
    reduced = GRScheme(scheme.model,
                       tuple(s for s in scheme.specs if s.label != "1"),
                       scheme.params, scheme.eigenvalue_syms, "pvi-minus-one")
    rec = recover(reduced, verify=False)
    assert len(rec.free) >= 1


def test_specialize_scheme_commutes_with_recovery():
    """Specializing eigenvalues before or after recovery agrees (gen-piii)."""
    entry = get_scheme("gen-piii")
    ctx = entry.scheme.specs[0].matrix[0, 0].ctx
    vals = {"n1": ctx.rat(2), "n2": ctx.rat(2)}
    direct = recover(specialize_scheme(entry.scheme, vals))
    sym = recover(entry.scheme)
    relsub = relation_substitution(sym.relations, sym.scheme.eigenvalue_syms)
    specialized = sym.vf.subs_params(relsub).subs_params(
        {"n1": sym.vf.ctx.rat(2)})
    big = union_context(direct.vf.ctx, specialized.ctx)
    assert direct.vf.dxdt.lift(big) == specialized.dxdt.lift(big)
    assert direct.vf.dydt.lift(big) == specialized.dydt.lift(big)


def test_resolved_point_off_the_exceptional_line_is_refused():
    """The resolved point lies on the last exceptional line X = 0; a scheme
    that puts it elsewhere is refused instead of read at its Y alone."""
    spec = scheme_gen_pv().scheme.specs[0]
    assert spec.multiplicity == 2
    five = spec.location.ctx.rat(5)
    off_line = ResolvedData(spec.resolved.patch_map, (five, spec.resolved.point[1]))
    with pytest.raises(SchemeError) as exc:
        replace(spec, resolved=off_line)
    assert str(exc.value) == ("scheme column X=0: the resolved point (5, -t) is off "
                              "the exceptional line")


def test_verify_recovered_linearizes_each_resolved_point_once(monkeypatch):
    """verify_recovered reads the resolved point's matrix from the index that
    resolve_multiplicity keeps on its trace, and does not compute it again."""
    rec = recover(get_scheme("gen-pv").scheme, verify=False)
    real = singularities.linearization_matrix
    divisors = []

    def spy(local, location):
        divisors.append(local.divisor)
        return real(local, location)

    for module in (singularities, blowup, recovery):
        monkeypatch.setattr(module, "linearization_matrix", spy)
    verify_recovered(rec)
    # the resolved chart of the double point at 0 has divisor x; the divisor
    # charts of the simple points 1 and inf have divisor y
    assert sorted(divisors) == ["x", "y", "y"]


def _with_column(scheme, index, **changes):
    """The scheme with its column ``index`` replaced field by field."""
    specs = list(scheme.specs)
    specs[index] = replace(specs[index], **changes)
    return replace(scheme, specs=tuple(specs))


def _verify_message(rec, **changes):
    """Class and message of verify_recovered on rec with its column 0 changed."""
    with pytest.raises(SchemeError) as exc:
        verify_recovered(replace(rec, scheme=_with_column(rec.scheme, 0, **changes)))
    return type(exc.value).__name__, str(exc.value)


def _matrix(ctx, rows):
    return Mat2([[ctx.parse(e) for e in row] for row in rows])


def test_verify_recovered_refuses_a_matrix_that_is_not_proportional():
    rec = recover(get_scheme("pvi").scheme)
    ctx = rec.scheme.specs[0].matrix[0, 0].ctx
    assert _verify_message(rec, matrix=_matrix(ctx, [["3", "-alpha4"], ["0", "1"]])) == (
        "VerificationMismatch",
        "X=0: matrix entry (0,0) mismatch: (-1)/(t*alpha0 + t*alpha1 + 2*t*alpha2 "
        "+ t*alpha3 + t*alpha4 - alpha0 - alpha1 - 2*alpha2 - alpha3 - alpha4)")


def test_verify_recovered_refuses_a_zero_matrix_scale():
    rec = recover(get_scheme("pvi").scheme)
    ctx = rec.scheme.specs[0].matrix[0, 0].ctx
    assert _verify_message(rec, matrix=_matrix(ctx, [["2", "-alpha4"], ["1", "5"]])) == (
        "VerificationMismatch", "X=0: zero matrix scale")


def test_verify_recovered_refuses_another_patching_map():
    rec = recover(get_scheme("gen-pv").scheme)
    spec = rec.scheme.specs[0]
    x, y = spec.location.ctx.var("x"), spec.location.ctx.var("y")
    resolved = ResolvedData((x, x ** 3 * y), spec.resolved.point)
    assert _verify_message(rec, resolved=resolved) == (
        "VerificationMismatch", "X=0: patching map (x, x^2*y)")


def test_verify_recovered_refuses_another_resolved_point():
    rec = recover(get_scheme("gen-pv").scheme)
    spec = rec.scheme.specs[0]
    ctx = spec.location.ctx
    resolved = ResolvedData(spec.resolved.patch_map, (ctx.rat(0), ctx.var("t")))
    assert _verify_message(rec, resolved=resolved) == (
        "VerificationMismatch", "X=0: resolved point -t")


def test_recover_refuses_a_patching_map_the_resolution_does_not_give():
    scheme = get_scheme("gen-pv").scheme
    spec = scheme.specs[0]
    x = spec.location.ctx.var("x")
    bad = _with_column(scheme, 0, resolved=ResolvedData((x, x), spec.resolved.point))
    with pytest.raises(SchemeError) as exc:
        recover(bad)
    assert (type(exc.value).__name__, str(exc.value)) == (
        "SchemeError", "X=0: computed patching map (x, x^2*y) != scheme map (x, x)")


# ---------------------------------------------------------------------------
# Existence construction
# ---------------------------------------------------------------------------


def test_existence_n2_all_ratios_two():
    sys2 = construct_existence_system(2, [0, 1], [2, 2, 2, 2])
    assert {p.label for p in sys2.points} == {"0", "1", "t", "inf"}
    assert all(p.multiplicity == 1 for p in sys2.points)
    assert all(str(r) == "2" for r in sys2.ratios.values())


def test_existence_n3_mixed_ratios():
    sys3 = construct_existence_system(3, [0, 1, 2], [1, 2, 2, 2, 2])
    assert {k: str(v) for k, v in sys3.ratios.items()} == {
        "0": "1", "1": "2", "2": "2", "t": "2", "inf": "2"}
    # the reciprocal-ratio relation: 1/1 + 4 * 1/2 = 3 = n
    total = sum(Fraction(1) / Fraction(str(m)) for m in ("1", "2", "2", "2", "2"))
    assert total == 3


def test_existence_n1_smallest_surface():
    s = construct_existence_system(1, [0], [3, 3, 3])
    assert {k: str(v) for k, v in s.ratios.items()} == {"0": "3", "t": "3", "inf": "3"}
    s2 = construct_existence_system(1, [0], [2, 3, 6])
    assert {k: str(v) for k, v in s2.ratios.items()} == {"0": "2", "t": "3", "inf": "6"}


def test_existence_symbolic_ratios_reproduce_relation():
    """With symbolic m1..m_{n+1} and the bound ratio defined through the
    relation, the construction verifies the infinity ratio symbolically."""
    from grs.algebra import Context
    n = 2
    ctx = Context.make(parameters=["alpha", "a1t", "m1", "m2", "m3"],
                       unknowns=[f"u1_{k}" for k in range(n + 2)]
                       + [f"u2_{k}" for k in range(n + 1)]
                       + [f"u3_{k}" for k in range(n)])
    m1, m2, m3 = (ctx.var(f"m{i}") for i in (1, 2, 3))
    m4 = (ctx.rat(n) - m1.inverse() - m2.inverse() - m3.inverse()).inverse()
    sys_sym = construct_existence_system(2, [0, 1], [m1, m2, m3, m4], ctx=ctx)
    assert sys_sym.ratios["inf"] == m4


def test_existence_violations():
    with pytest.raises(RelationViolated):
        construct_existence_system(2, [0, 1], [2, 2, 2, 3])
    with pytest.raises(DegeneratePoints):
        construct_existence_system(2, [1, 1], [2, 2, 2, 2])
    with pytest.raises(RelationViolated):
        construct_existence_system(2, [0, 1], [2, 2, 0, 2])


# ---------------------------------------------------------------------------
# Specialization correspondences
# ---------------------------------------------------------------------------


def test_match_identity_on_itself():
    # eigenvalues stay shared symbols; the alphas are matched affinely
    entry = get_system("gen-piii")
    rep = match_specialization(entry.vf, entry.vf, ["alpha0", "alpha1", "alpha2"])
    assert rep.found
    for name, image in rep.param_map.items():
        assert str(image) == name


@pytest.mark.parametrize("pair", ["gen-piv:piv", "gen-pvi:pvi", "gen-pv:pv",
                                  "gen-piii:piii"])
def test_builtin_pairs_give_definitive_verdicts(pair):
    general, reference, ref_params, note = match_pair(pair)
    rep = match_specialization(general, reference, ref_params)
    assert rep.found, rep.residual


def test_match_names_an_unsubstituted_reference_parameter():
    general, reference, _, _ = match_pair("gen-piv:piv")
    with pytest.raises(SchemeError, match="unsubstituted reference symbol beta2"):
        match_specialization(general, reference, ["beta1"])


def test_piv_pair_is_the_identity_correspondence():
    general, reference, ref_params, _ = match_pair("gen-piv:piv")
    rep = match_specialization(general, reference, ref_params)
    assert {k: str(v) for k, v in rep.param_map.items()} == {
        "beta1": "alpha1", "beta2": "alpha2"}


def test_piv_reference_reduces_to_the_classical_scalar_equation():
    """Independent certification of the classical reference: eliminating the
    momentum from the matched Hamiltonian system yields exactly

        q'' = q'^2/(2q) + (3/2) q^3 + 4t q^2 + 2(t^2 - a) q + b/q

    with a = alpha1 + 1 - 2*alpha2 and b = -2*alpha1^2."""
    from grs.algebra import Sym
    general, _, _, _ = match_pair("gen-piv:piv")
    f1, f2 = general.components()
    ctx = f1.ctx.extend((Sym("qp", "parameter"),))
    f1, f2 = f1.lift(ctx), f2.lift(ctx)
    x, qp, t = ctx.var("x"), ctx.var("qp"), ctx.var("t")
    a1, a2 = ctx.var("alpha1"), ctx.var("alpha2")
    # second derivative along the flow, then eliminate y through f1 = qp
    xpp = (f1.derivative("x") * f1 + f1.derivative("y") * f2 + f1.derivative("t"))
    y_of = (qp + x ** 2 + ctx.rat(2) * t * x - ctx.rat(2) * a1) / (ctx.rat(4) * x)
    lhs = xpp.subs({"y": y_of})
    two, three, four = ctx.rat(2), ctx.rat(3), ctx.rat(4)
    a_const = a1 + ctx.rat(1) - two * a2
    b_const = -two * a1 * a1
    rhs = (qp * qp / (two * x) + three / two * x ** 3 + four * t * x ** 2
           + two * (t * t - a_const) * x + b_const / x)
    assert lhs == rhs


def test_pvi_pair_finds_the_sign_flip():
    general, reference, ref_params, _ = match_pair("gen-pvi:pvi")
    rep = match_specialization(general, reference, ref_params)
    m = {k: str(v) for k, v in rep.param_map.items()}
    assert m["alpha1"] == "-alpha1"
    assert m["alpha2"] == "alpha2"
    assert m["alpha3"] == "-alpha3"
    assert m["alpha4"] == "-alpha4"
    assert m["alpha0"] == "alpha1 + 2*alpha2 + alpha3 + alpha4 - 1"


def test_no_correspondence_is_reported():
    """Mismatched systems terminate with a definitive negative verdict."""
    a = get_system("gen-piii")
    b = get_system("piv")
    rep = match_specialization(a.vf, b.vf, list(b.params))
    assert not rep.found
    assert rep.residual


# -- square-root branches resume the stuck elimination ----------------------


def _reference_square_fallback(equations, unknowns, depth=6):
    """The square fallback as a recursion that solves every equation again
    for each root."""
    import math

    def rational_sqrt(q: Fraction) -> Fraction | None:
        if q < 0:
            return None
        rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
        if rn * rn == q.numerator and rd * rd == q.denominator:
            return Fraction(rn, rd)
        return None

    eqs = list(equations)
    try:
        return solve_triangular(eqs, unknowns)
    except StuckSystem as exc:
        if depth <= 0:
            raise
        for p in exc.remaining:
            live = [u for u in unknowns if p.involves([u])]
            if len(live) != 1 or p.degree_in(live[0]) != 2:
                continue
            u = live[0]
            a, b, c = (p.coefficient(u, k) for k in (2, 1, 0))
            if any(q.involves(unknowns) for q in (a, b, c)):
                continue
            disc = b * b - p.ctx.poly(4) * a * c
            if not disc.is_constant():
                continue
            root_disc = rational_sqrt(disc.constant_value())
            if root_disc is None or not (a.is_constant() and b.is_constant()):
                continue
            roots = sorted({(-b.constant_value() + s * root_disc) / (2 * a.constant_value())
                            for s in (1, -1)})
            last_exc = exc
            for r in roots:
                branch = eqs + [p.ctx.poly_var(u) - p.ctx.poly(r)]
                try:
                    return _reference_square_fallback(branch, unknowns, depth - 1)
                except (StuckSystem, InconsistentSystem) as branch_exc:
                    last_exc = branch_exc
            raise last_exc
        raise


def _as_strings(sol):
    return ({k: str(v) for k, v in sol.assignments.items()},
            [str(r) for r in sol.relations], sol.free, [str(step) for step in sol.trace])


def _match_equations(monkeypatch, pair):
    """The equations and unknowns match_specialization solves for a pair."""
    seen = []
    solve = recovery._solve_with_square_fallback

    def spy(equations, unknowns):
        seen.append((list(equations), list(unknowns)))
        return solve(equations, unknowns)

    monkeypatch.setattr(recovery, "_solve_with_square_fallback", spy)
    match_specialization(*match_pair(pair)[:3])
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("pair", MATCH_PAIRS)
def test_resumed_branches_match_the_reference_re_solve(monkeypatch, pair):
    equations, unknowns = _match_equations(monkeypatch, pair)
    assert _as_strings(recovery._solve_with_square_fallback(equations, unknowns)) \
        == _as_strings(_reference_square_fallback(equations, unknowns))


def _square_system(texts):
    ctx = Context.make(fiber=(), time=None, parameters=["a"], unknowns=["x", "y", "z"])
    return [ctx.parse(text).num for text in texts], ["x", "y", "z"]


# each system is stuck at first, and x^2 - 1 is its first remaining
# quadratic, so the branch x = -1 runs before x = 1
FIRST_ROOT_FAILS = {
    # x = -1 gives y = -1 and then -2 = 0
    "inconsistent": ["x^2 - 1", "x*y - 1", "x*y^2 - 1", "z - a"],
    # x = -1 gives y = -1, the relation a + 1 and then z^2 - 2, which has
    # no rational root
    "stuck": ["x^2 - 1", "x*y - 1", "x*y^2 - 1 + (x - 1)*a",
              "(1 - x)*(z^2 - 2) + (1 + x)*(z - a)"],
}
EVERY_ROOT_FAILS = {
    # 1 = 0 at x = -1, then -1 = 0 at x = 1
    "inconsistent": ["x^2 - 1", "x*y - 1", "x*y^2 - 2*x", "z - a"],
    # inconsistent at x = -1, then stuck at z^2 - 2 at x = 1
    "stuck": ["x^2 - 1", "x*y - 1", "x*y^2 - 1 + (x + 1)*a", "(1 - x)*(z - a) + (1 + x)*(z^2 - 2)"],
}


def _stuck(equations, unknowns):
    with pytest.raises(StuckSystem) as err:
        solve_triangular(equations, unknowns)
    return err.value


def _snapshot(stuck):
    """Everything a StuckSystem and its elimination state hold, as strings."""
    state = stuck.state
    return ([str(p) for p in stuck.remaining], list(stuck.sources), str(stuck),
            [(eq.tag, eq.version, str(eq.reduced), list(eq.unsolved)) for eq in state.pending],
            {k: str(v) for k, v in state.assignments.items()},
            [str(r) for r in state.relations], [str(step) for step in state.trace],
            sorted(state.solved), state.version)


@pytest.mark.parametrize("case", sorted(FIRST_ROOT_FAILS))
def test_second_root_resumes_without_the_first_branchs_reductions(case):
    equations, unknowns = _square_system(FIRST_ROOT_FAILS[case])
    expected = _as_strings(_reference_square_fallback(equations, unknowns))
    assert _as_strings(recovery._solve_with_square_fallback(equations, unknowns)) == expected
    assert expected[0] == {"x": "1", "y": "1", "z": "a"}
    # the same two branches by hand: the first one fails and must leave the
    # reductions it cached out of the state the second one starts from
    stuck = _stuck(equations, unknowns)
    before = _snapshot(stuck)
    ctx = equations[0].ctx
    with pytest.raises((StuckSystem, InconsistentSystem)):
        stuck.state.branch(f"eq{len(equations)}", ctx.parse("x + 1").num)
    assert _snapshot(stuck) == before
    assert _as_strings(stuck.state.branch(f"eq{len(equations)}", ctx.parse("x - 1").num)) \
        == expected
    assert _snapshot(stuck) == before


@pytest.mark.parametrize("case", sorted(FIRST_ROOT_FAILS))
def test_a_solved_branch_leaves_no_elimination_state_to_the_cycle_collector(case):
    """The branches catch StuckSystem, which carries its elimination state;
    once the solve returns, reference counting alone must free every state."""
    equations, unknowns = _square_system(FIRST_ROOT_FAILS[case])
    gc.collect()
    gc.disable()
    try:
        before = {id(o) for o in gc.get_objects() if isinstance(o, Elimination)}
        recovery._solve_with_square_fallback(equations, unknowns)
        left = [o for o in gc.get_objects() if isinstance(o, Elimination) and id(o) not in before]
    finally:
        gc.enable()
    assert left == []


@pytest.mark.parametrize("case", sorted(EVERY_ROOT_FAILS))
def test_every_root_failing_raises_the_reference_exception(case):
    equations, unknowns = _square_system(EVERY_ROOT_FAILS[case])
    with pytest.raises((StuckSystem, InconsistentSystem)) as expected:
        _reference_square_fallback(equations, unknowns)
    with pytest.raises(expected.type) as got:
        recovery._solve_with_square_fallback(equations, unknowns)
    assert str(got.value) == str(expected.value)
    assert expected.type is (StuckSystem if case == "stuck" else InconsistentSystem)


def test_branching_twice_from_one_stuck_state_leaves_it_unchanged():
    equations, unknowns = _square_system(FIRST_ROOT_FAILS["inconsistent"])
    stuck = _stuck(equations, unknowns)
    before = _snapshot(stuck)
    root = equations[0].ctx.parse("x - 1").num
    first = _as_strings(stuck.state.branch("eq4", root))
    assert _as_strings(stuck.state.branch("eq4", root)) == first
    assert _snapshot(stuck) == before
    assert "x -> 1   [eq4]" in first[3]
