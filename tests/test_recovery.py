"""Scheme recovery tests: constraint generation, the five golden recoveries,
eigenvalue relations, the existence construction, and correspondences."""

import gc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from grs import algebra, io as gio, recovery, singularities
from grs.algebra import (Context, InconsistentSystem, MPoly, MRat, Mat2, StuckSystem, Sym,
                         TraceStep, TriangularSolution, assign, distinct_up_to_scale, exact_divide,
                         solve_linear, solve_triangular, split_content, union_context,
                         _active, _relation_normal_form)
from grs.catalog import (MATCH_PAIRS, get_scheme, get_system, match_pair, pvi_system,
                         scheme_gen_pv, scheme_pvi)
from grs.recovery import (GRScheme, NoRelation, ResolvedData, SchemeError, SingularSpec,
                          construct_existence_system, eigenvalue_relation,
                          generate_constraints, lift_scheme, match_specialization, recover,
                          relation_substitution, scheme_of, specialize_scheme, verify_recovered)
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
    ctx = family.ctx
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
    ctx = family.ctx
    for poly, text in zip(cons.equations[:4],
                          ["a7", "a5", "a10", "t*(a8 - 1/2*t*(2*a2 + a9))"]):
        assert _same_equation(poly, ctx, text)
    # solving the column reproduces the stated conditions: a5 = a7 = a10 = 0,
    # a8 = t(2 a2 + a9)/2 and a2 = -(n3 + 2) a9 / 4
    sol = solve_triangular(cons.equations, SIGMA2_UNKNOWNS,
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
    assert rel.primitive() == expected_poly.primitive()


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
    # the solve alone: verification rejects the field by design, since with
    # fewer constraints it finds an extra accessible point
    _, _, sol, _, _ = recovery._solve_scheme(reduced)
    assert len(sol.free) >= 1


def test_specialize_scheme_commutes_with_recovery():
    """Specializing eigenvalues before or after recovery agrees (gen-piii)."""
    entry = get_scheme("gen-piii")
    ctx = entry.scheme.specs[0].matrix[0, 0].ctx
    vals = {"n1": ctx.rat(2), "n2": ctx.rat(2)}
    direct = recover(specialize_scheme(entry.scheme, vals, "piii"))
    sym = recover(entry.scheme)
    relsub = relation_substitution(sym.relations, sym.scheme.eigenvalue_syms)
    specialized = sym.vf.subs_params(relsub).subs_params(
        {"n1": sym.vf.ctx.rat(2)})
    big = union_context(direct.vf.ctx, specialized.ctx)
    assert direct.vf.dxdt.lift(big) == specialized.dxdt.lift(big)
    assert direct.vf.dydt.lift(big) == specialized.dydt.lift(big)


@pytest.mark.parametrize("value", [1, 0, -3])
def test_specialize_scheme_substitutes_into_the_twist(value):
    """A value for pvi's twist symbol alpha2 reaches the surface model as well,
    so recovery commutes with the specialization and alpha2 is gone."""
    scheme = scheme_pvi().scheme
    ctx = scheme.specs[0].matrix[0, 0].ctx
    direct = recover(specialize_scheme(scheme, {"alpha2": ctx.rat(value)}, "pvi")).vf
    assert "alpha2" not in direct.ctx
    general = recover(scheme).vf
    general = general.subs_params({"alpha2": general.ctx.rat(value)})
    big = union_context(direct.ctx, general.ctx)
    assert direct.dxdt.lift(big) == general.dxdt.lift(big)
    assert direct.dydt.lift(big) == general.dydt.lift(big)


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


@pytest.mark.parametrize("multiplicity", [0, -3])
def test_multiplicity_below_one_is_refused(multiplicity):
    spec = scheme_pvi().scheme.specs[3]
    with pytest.raises(SchemeError) as exc:
        replace(spec, multiplicity=multiplicity)
    assert str(exc.value) == f"scheme column X=inf: multiplicity {multiplicity} is below 1"


def test_verify_recovered_linearizes_each_resolved_point_once(monkeypatch):
    """verify_recovered reads the resolved point's matrix from the index that
    resolve_multiplicity keeps on its trace, and does not compute it again."""
    rec = recover(get_scheme("gen-pv").scheme)
    real = singularities.linearization_matrix
    divisors = []

    def spy(local, location):
        divisors.append(local.divisor)
        return real(local, location)

    for module in (singularities, recovery):
        monkeypatch.setattr(module, "linearization_matrix", spy)
    verify_recovered(rec)
    # the resolved chart of the double point at 0 has divisor x; the divisor
    # charts of the simple points 1 and inf have divisor y
    assert sorted(divisors) == ["x", "y", "y"]


# MPoly.subs calls solve_triangular makes while recover solves each builtin
# scheme; an eliminator that re-reduced the equations and the nonzero forms at
# every change of the assignments would make 52/52/34/11/14, and on every scan
# 52/59/39/14/14 (the equations' cache alone is pinned in test_algebra.py).
# One that refreshed each stale form before testing whether it can divide the
# equation would make 33/33/20/11/7: a stale form is refreshed only when its
# bound on the unsolved unknowns holds all of the equation's
SOLVE_SUBS = {"pvi": 25, "gen-pvi": 25, "gen-pv": 17, "gen-piv": 6, "gen-piii": 7}


@pytest.mark.parametrize("name", sorted(SOLVE_SUBS))
def test_solve_triangular_reduces_each_equation_once_per_assignment(monkeypatch, name):
    """The nonzero forms, like each pending equation, are reduced again only
    once a pivot solves an unknown they involve, never once per scan, and a
    stale form only when it may involve all of an equation's unknowns."""
    calls, solving = [0], [False]
    real_subs, real_solve = MPoly.subs, recovery.solve_triangular

    def subs(self, values):
        calls[0] += solving[0]
        return real_subs(self, values)

    def solve(*args, **kwargs):
        solving[0] = True
        try:
            return real_solve(*args, **kwargs)
        finally:
            solving[0] = False

    monkeypatch.setattr(MPoly, "subs", subs)
    monkeypatch.setattr(recovery, "solve_triangular", solve)
    recover(get_scheme(name).scheme)
    assert calls[0] == SOLVE_SUBS[name]


def _refresh_everything_solve(equations, unknowns, nonzero_forms=(), sources=None):
    """Reference for solve_triangular: the same pivots, but every equation and
    every form is reduced again from its raw polynomial at each change of the
    assignments, and every live form is tried as a divisor."""
    unknown_set = set(unknowns)
    tags = sources or [f"eq{k}" for k in range(len(equations))]
    pending = [[tag, p, -1, p] for tag, p in zip(tags, equations) if not p.is_zero()]
    forms = [split_content(f, _active(f, unknowns))[1] for f in nonzero_forms if not f.is_zero()]
    assignments, relations, trace = {}, [], []
    version, forms_version, live_forms = 0, -1, []

    def reduce(p):
        return p.subs(assignments).num if p.involves(assignments) else p

    while pending:
        for pos, eq in enumerate(pending):
            if eq[2] != version:
                eq[2], eq[3] = version, reduce(eq[1])
            p = eq[3]
            if p.is_zero():
                break
            q = p
            unsolved = _active(p, unknowns)
            if unsolved:
                if forms_version != version:
                    forms_version, live_forms = version, []
                    for f in map(reduce, forms):
                        live = _active(f, unknowns)
                        if live:
                            live_forms.append(split_content(f, live)[1])
                q = next((q for q in (exact_divide(p, f) for f in live_forms)
                          if q is not None and not q.involves(unknown_set)), None)
            if q is not None:
                if q.is_constant():
                    raise InconsistentSystem(p)
                relations.append(_relation_normal_form(q))
                break
            pivot = solve_linear(p, unsolved, unknown_set - assignments.keys())
            if pivot is not None:
                assign(assignments, *pivot)
                trace.append(TraceStep(*pivot, eq[0]))
                version += 1
                break
        else:
            raise StuckSystem([eq[3] for eq in pending], [eq[0] for eq in pending])
        del pending[pos]
    return TriangularSolution(assignments, relations,
                              [u for u in unknowns if u not in assignments], trace)


def _solve_calls(monkeypatch, run):
    """The arguments of each solve_triangular call recovery makes while run()."""
    calls = []

    def spy(equations, unknowns, **kwargs):
        calls.append((list(equations), list(unknowns), kwargs))
        return solve_triangular(equations, unknowns, **kwargs)

    monkeypatch.setattr(recovery, "solve_triangular", spy)
    run()
    monkeypatch.undo()
    return calls


def _both_solves(equations, unknowns, **kwargs):
    new = solve_triangular(equations, unknowns, **kwargs)
    assert _as_strings(new) == _as_strings(_refresh_everything_solve(equations, unknowns,
                                                                     **kwargs))
    return new


# match_pair caches its pairs per process; its unwrapped builder recovers the
# reference again, so the spy sees those solves whichever test ran first
@pytest.mark.parametrize("run", [
    *[pytest.param(lambda name=name: recover(get_scheme(name).scheme), id=name)
      for name in ["pvi", "gen-pvi", "gen-pv", "gen-piv", "gen-piii"]],
    *[pytest.param(lambda pair=pair: match_pair.__wrapped__(pair), id=pair)
      for pair in ["gen-pv:pv", "gen-piii:piii"]]])
def test_solve_triangular_matches_the_refresh_everything_solve(monkeypatch, run):
    """Refreshing only the reductions the last pivot touched, and dividing only
    by forms with the equation's unknowns, gives the same assignments,
    relations, free unknowns and trace as refreshing everything; on the five
    builtin constraint systems and the schemes match_pair specializes.  These
    act on each equation at its first reading, so only their forms are ever
    reduced again; the synthetic cases below and test_algebra.py's re-read
    test cover equations a pivot touches."""
    calls = _solve_calls(monkeypatch, run)
    assert calls
    for equations, unknowns, kwargs in calls:
        _both_solves(equations, unknowns, **kwargs)


def _synthetic_context():
    return Context.make(parameters=["n1", "n2"], unknowns=["a1", "a2", "a3", "a4"])


def test_a_form_no_pivot_touches_still_yields_its_relation():
    ctx = _synthetic_context()
    # the form a4^2 + 1 is reduced while e0 has no pivot, then a1, a2 and a3
    # are solved without touching it, and e0 reduces to (n1 - 2) times it
    a1, a2, a3, a4 = (ctx.poly_var(n) for n in ("a1", "a2", "a3", "a4"))
    n1, one, two = ctx.poly_var("n1"), ctx.poly(1), ctx.poly(2)
    form = a4 * a4 + one
    equations = [(n1 - two) * (a4 * a4 * a1 + a2 * a2), a1 - one, a2 - a3, a3 - one]
    sol = _both_solves(equations, ["a1", "a2", "a3", "a4"], nonzero_forms=[form])
    assert [str(r) for r in sol.relations] == ["n1 - 2"]
    assert [step.unknown for step in sol.trace] == ["a1", "a2", "a3"]
    assert sol.free == ["a4"]


def test_a_form_dividing_an_equation_with_another_unknown_gives_no_relation(monkeypatch):
    ctx = _synthetic_context()
    # e0 = (a1 + n1) * (a4^2 + n2) is divisible by the form, but the quotient
    # involves a1: the division is not tried, and a1 -> -n1 then clears e0
    a1, a4 = ctx.poly_var("a1"), ctx.poly_var("a4")
    n1, n2 = ctx.poly_var("n1"), ctx.poly_var("n2")
    form = a4 * a4 + n2
    equations = [(a1 + n1) * form, a1 + n1]
    divisions = []
    real = algebra.exact_divide

    def spy(a, b):
        divisions.append((str(a), str(b)))
        return real(a, b)

    expected = _as_strings(_refresh_everything_solve(equations, ["a1", "a4"],
                                                     nonzero_forms=[form]))
    monkeypatch.setattr(algebra, "exact_divide", spy)
    sol = solve_triangular(equations, ["a1", "a4"], nonzero_forms=[form])
    assert _as_strings(sol) == expected
    assert (sol.relations, sol.free, [str(step) for step in sol.trace]) == \
        ([], ["a4"], ["a1 -> -n1   [eq1]"])
    assert divisions == []


def test_eigenvalue_relation_builds_no_field(monkeypatch):
    """eigenvalue_relation stops at the solve: it gives the JSON goldens'
    relations, and pvi's NoRelation, with PlaneVectorField out of reach."""
    expected = {name: recover(get_scheme(name).scheme).relations[0]
                for name in ["gen-pvi", "gen-pv", "gen-piv", "gen-piii"]}

    def no_field(*args, **kwargs):
        raise AssertionError("eigenvalue_relation built a field")

    monkeypatch.setattr(recovery, "PlaneVectorField", no_field)
    golden_dir = Path(__file__).parent / "golden_cli"
    for name, rel in expected.items():
        golden = gio.loads((golden_dir / f"relation_{name}.json").read_text())
        assert eigenvalue_relation(get_scheme(name).scheme) == rel
        assert str(rel) == golden["relation"]
    with pytest.raises(NoRelation, match="^scheme pvi is consistent for all eigenvalues$"):
        eigenvalue_relation(scheme_pvi().scheme)


@pytest.mark.parametrize("name", ["pvi", "gen-pvi", "gen-pv", "gen-piv", "gen-piii"])
def test_scheme_of_a_builtin_recovery_gives_back_its_columns(name):
    """scheme_of inverts recover: the derived scheme has the builtin scheme's
    points, multiplicities, patching maps and resolved points, and survives
    the JSON round trip."""
    rec = recover(get_scheme(name).scheme)
    builtin = lift_scheme(rec.scheme, rec.vf.ctx)
    derived = GRScheme(rec.vf.model, scheme_of(rec.vf, ()), builtin.params, (), name)

    def columns(scheme):
        return {s.label: (s.multiplicity, s.resolved) for s in scheme.specs}

    assert columns(derived) == columns(builtin)
    assert gio.scheme_from_json(gio.loads(gio.dumps(gio.scheme_to_json(derived)))) == derived


@pytest.mark.parametrize("point", ["1", "t"])
def test_scheme_of_a_field_with_its_double_point_moved_recovers_it(point):
    """gen-pv's field, relation substituted, with its double point moved to
    X = 1 or X = t: its scheme, patching map (x - L, (x - L)^2*y) included,
    recovers it exactly, with no free factor and no relation."""
    path = Path(__file__).parent / "fixtures" / f"gen-pv_point0_{point}.json"
    vf = gio.vf_from_json(gio.loads(path.read_text()))
    params = tuple(s.name for s in vf.ctx.syms if s.kind == "parameter")
    specs = scheme_of(vf, ())
    assert [s.label for s in specs if s.multiplicity == 2] == [point]
    rec = recover(GRScheme(vf.model, specs, params, (), ""))
    big = union_context(rec.vf.ctx, vf.ctx)
    assert rec.vf.dxdt.lift(big) == vf.dxdt.lift(big)
    assert rec.vf.dydt.lift(big) == vf.dydt.lift(big)
    assert (rec.free, rec.relations) == ((), ())


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
    sys_sym = construct_existence_system(2, [0, 1], [m1, m2, m3, m4])
    assert sys_sym.vf.ctx == ctx
    assert sys_sym.ratios["inf"] == m4


def test_existence_violations():
    with pytest.raises(SchemeError, match="^sum of reciprocal ratios is 11/6, expected 2$"):
        construct_existence_system(2, [0, 1], [2, 2, 2, 3])
    with pytest.raises(SchemeError, match="^coincident singular locations 1 = 1$"):
        construct_existence_system(2, [1, 1], [2, 2, 2, 2])
    with pytest.raises(SchemeError, match="^all ratios must be nonzero$"):
        construct_existence_system(2, [0, 1], [2, 2, 0, 2])


_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
_nonzero = _fractions.filter(bool)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(_fractions, min_size=2, max_size=2, unique=True),
       ratios=st.lists(_nonzero, min_size=3, max_size=3),
       at=st.integers(0, 3),
       scales=st.lists(st.tuples(_nonzero, st.booleans()), min_size=4, max_size=4))
def test_existence_system_round_trips_through_its_scheme(points, ratios, at, scales):
    """The existence theorem as a round trip: two points and four ratios with
    reciprocals summing to 2 give a system; its scheme, each matrix rescaled
    by c or c*t (a scheme matrix is fixed only up to scale), recovers the
    same field with no freedom and no relation."""
    rest = 2 - sum(1 / m for m in ratios)
    assume(rest != 0)
    ratios.insert(at, 1 / rest)
    vf = construct_existence_system(2, points, ratios).vf
    ctx = vf.ctx
    specs = scheme_of(vf, [ctx.rat(c) for c in points])
    assert len(specs) == 4
    scaled = []
    for spec, (c, by_t) in zip(specs, scales):
        scale = ctx.rat(c) * (ctx.var("t") if by_t else ctx.rat(1))
        scaled.append(replace(spec, matrix=spec.matrix.map(lambda e: e * scale)))
    rec = recover(GRScheme(vf.model, tuple(scaled), ("alpha", "a1t"), (), ""))
    big = union_context(rec.vf.ctx, ctx)
    assert rec.vf.dxdt.lift(big) == vf.dxdt.lift(big)
    assert rec.vf.dydt.lift(big) == vf.dydt.lift(big)
    assert (rec.free, rec.relations) == ((), ())


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


def test_failing_verification_reports_the_residual_in_lowest_terms(monkeypatch):
    """A correspondence that fails the final check reports each nonzero
    general - reference difference, cross-multiplied on the pair in lowest
    terms; a map that makes the reference's denominator vanish raises."""
    from grs.algebra import DivisionByZero, TriangularSolution
    general, reference, ref_params, _ = match_pair("gen-piii:piii")

    def solve_all_to(value):
        return lambda eqs, unknowns: TriangularSolution(
            {u: eqs[0].ctx.rat(value) for u in unknowns}, [], [])

    monkeypatch.setattr(recovery, "_solve_matched", solve_all_to(1))
    rep = match_specialization(general, reference, ref_params)
    assert not rep.found
    assert {k: str(v) for k, v in rep.param_map.items()} == {
        name: "alpha0 + alpha1 + alpha2 + 1" for name in ("alpha0", "alpha1", "alpha2")}
    assert rep.residual == (
        "-2*x^2*y*t*alpha2 - x^2*y*t + x^2*t*alpha2 + x*t*alpha0*alpha1 - x*t*alpha0*alpha2"
        " + x*t*alpha1^2 - x*t*alpha2^2 + 1/2*x^2*t + x*t*alpha1 - x*t*alpha2"
        " - t^2*alpha2 - 1/2*t^2",
        "2*x*y^2*t*alpha2 + x*y^2*t - 2*x*y*t*alpha2 - y*t*alpha0*alpha1 + y*t*alpha0*alpha2"
        " - y*t*alpha1^2 + y*t*alpha2^2 - x*y*t - y*t*alpha1 + y*t*alpha2 + 1/2*t*alpha0^2"
        " + t*alpha0*alpha1 - 1/2*t*alpha0*alpha2 + 1/2*t*alpha1^2 - 1/2*t*alpha1*alpha2"
        " - t*alpha2^2 + 1/2*t*alpha0 + 1/2*t*alpha1 - t*alpha2")
    monkeypatch.setattr(recovery, "_solve_matched", solve_all_to(0))
    with pytest.raises(DivisionByZero, match=r"denominator of \(-x\^2\*y .* vanish"):
        match_specialization(general, reference, ref_params)


def test_no_correspondence_is_reported():
    """Mismatched systems terminate with a definitive negative verdict."""
    a = get_system("gen-piii")
    b = get_system("piv")
    rep = match_specialization(a.vf, b.vf, ["beta1", "beta2"])
    assert not rep.found
    assert rep.residual


# -- square-root branches recurse on the quadratic remainder ---------------


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


def _first_calls(monkeypatch, pair, *names):
    """The arguments of the first call to each named recovery function while
    match_specialization runs on a pair."""
    seen = {}
    # match_pair may recover a scheme, which calls solve_triangular too
    matched = match_pair(pair)[:3]

    def spy(name, solve):
        def wrapped(equations, unknowns, *rest):
            seen.setdefault(name, (list(equations), list(unknowns)))
            return solve(equations, unknowns, *rest)
        return wrapped

    for name in names:
        monkeypatch.setattr(recovery, name, spy(name, getattr(recovery, name)))
    match_specialization(*matched)
    monkeypatch.undo()
    return [seen.get(name) for name in names]


@pytest.mark.parametrize("pair", MATCH_PAIRS)
def test_matched_solve_matches_the_reference_re_solve(monkeypatch, pair):
    """The matcher's solve (repeats dropped, the linear block as one matrix,
    square branches on the remainder) against a triangular re-solve of the
    full equation list for each root; it keeps no trace to compare."""
    [(equations, unknowns)] = _first_calls(monkeypatch, pair, "_solve_matched")
    assert _as_strings(recovery._solve_matched(equations, unknowns))[:3] \
        == _as_strings(_reference_square_fallback(equations, unknowns))[:3]


# equations matched, distinct up to scale, and the quadratic remainder the
# first triangular solve gets once the linear block is substituted
MATCH_SIZES = {"gen-pvi:pvi": (320, 67, 21), "gen-pv:pv": (125, 60, 31),
               "gen-piii:piii": (47, 20, 0), "gen-piv:piv": (14, 14, 0)}


@pytest.mark.parametrize("pair", MATCH_PAIRS)
def test_the_matcher_solves_each_distinct_equation_once(monkeypatch, pair):
    matched, branched = _first_calls(monkeypatch, pair, "_solve_matched", "solve_triangular")
    distinct = distinct_up_to_scale(matched[0])
    assert (len(matched[0]), len(distinct), len(branched[0])) == MATCH_SIZES[pair]
    assert len(distinct_up_to_scale(branched[0])) == len(branched[0])


def _square_system(texts):
    ctx = Context([Sym(n, "unknown") for n in ("x", "y", "z")])
    return [ctx.parse(text).num for text in texts], ["x", "y", "z"]


# each system is stuck at first, and x^2 - 1 is its first remaining
# quadratic, so the branch x = -1 runs before x = 1
FIRST_ROOT_FAILS = {
    # x = -1 gives y = -1 and then -2 = 0
    "inconsistent": ["x^2 - 1", "x*y - 1", "x*y^2 - 1", "z - 2"],
    # x = -1 gives y = -1 and then 2*z^2 - 4, which has no rational root
    "stuck": ["x^2 - 1", "x*y - 1", "(1 - x)*(z^2 - 2) + (1 + x)*(z - 3)"],
}
EVERY_ROOT_FAILS = {
    # 1 = 0 at x = -1, then -1 = 0 at x = 1
    "inconsistent": ["x^2 - 1", "x*y - 1", "x*y^2 - 2*x", "z - 2"],
    # -2 = 0 at x = -1, then stuck at 2*z^2 - 4 at x = 1
    "stuck": ["x^2 - 1", "x*y - 1", "x*y^2 - 1", "(1 - x)*(z - 3) + (1 + x)*(z^2 - 2)"],
}


@pytest.mark.parametrize("case", sorted(FIRST_ROOT_FAILS))
def test_second_root_resumes_without_the_first_branchs_reductions(case):
    """A failed first branch leaves nothing to the second: each branch
    solves the remainder with its root appended, as the reference does."""
    equations, unknowns = _square_system(FIRST_ROOT_FAILS[case])
    expected = _as_strings(_reference_square_fallback(equations, unknowns))
    assert _as_strings(recovery._solve_matched(equations, unknowns))[:3] == expected[:3]
    assert expected[0] == {"x": "1", "y": "1", "z": "2" if case == "inconsistent" else "3"}


@pytest.mark.parametrize("case", sorted(FIRST_ROOT_FAILS))
def test_a_solved_branch_leaves_no_caught_failure_to_the_cycle_collector(case):
    """The branches catch the failures of the branches before them, whose
    tracebacks hold the frames that raised them; once the solve returns,
    reference counting alone must free every caught failure."""
    equations, unknowns = _square_system(FIRST_ROOT_FAILS[case])
    failures = (StuckSystem, InconsistentSystem)
    gc.collect()
    gc.disable()
    try:
        before = {id(o) for o in gc.get_objects() if isinstance(o, failures)}
        recovery._solve_matched(equations, unknowns)
        left = [o for o in gc.get_objects() if isinstance(o, failures) and id(o) not in before]
    finally:
        gc.enable()
    assert left == []


@pytest.mark.parametrize("case", sorted(EVERY_ROOT_FAILS))
def test_every_root_failing_raises_the_reference_exception(case):
    equations, unknowns = _square_system(EVERY_ROOT_FAILS[case])
    with pytest.raises((StuckSystem, InconsistentSystem)) as expected:
        _reference_square_fallback(equations, unknowns)
    with pytest.raises(expected.type) as got:
        recovery._solve_matched(equations, unknowns)
    assert str(got.value) == str(expected.value)
    assert expected.type is (StuckSystem if case == "stuck" else InconsistentSystem)
