"""Acceptance suite: one test per criterion, every check exact (tolerance 0).

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  The two stated runtime budgets are asserted.
"""

import time
from fractions import Fraction

import pytest

from grs.algebra import MRat, Mat2, union_context
from grs.blowup import resolve_family, resolve_multiplicity
from grs.catalog import (get_maps, get_scheme, get_system, match_pair, pvi_system,
                         scheme_pvi)
from grs.diophantine import brute_force_box, enumerate_natural
from grs.recovery import (construct_existence_system, eigenvalue_relation,
                          match_specialization, recover, relation_substitution)
from grs.singularities import (AccessiblePoint, accessible_points, alpha_test,
                               divisor_chart_local, linearization, linearization_matrix)
from grs.surface import SIGMA2_UNKNOWNS, generic_family, sigma2_model
from grs.symmetry import verify_involution, verify_symmetry


def report(num: int, text: str):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_acceptance_1_pvi_recovery():
    t0 = time.monotonic()
    rec = recover(scheme_pvi().scheme)
    elapsed = time.monotonic() - t0
    steps = {s.unknown: str(s.value) for s in rec.solution.trace}
    assert steps["a7"] == "0"
    assert steps["a5"] == "-2*a10"
    assert steps["a8"] == "alpha4*a10"
    entry = pvi_system()
    lhs = rec.vf.subs_params(entry.normalization)
    rhs = entry.vf.subs_params(entry.normalization)
    assert str(lhs.dxdt) == str(rhs.dxdt) and str(lhs.dydt) == str(rhs.dydt)
    assert elapsed < 5.0
    report(1, f"recovered system string-equals the sixth Painleve system "
              f"(normalization applied to both sides); trace shows a7=0, "
              f"a5=-2*a10, a8=alpha4*a10; runtime {elapsed:.2f}s < 5s")


def test_acceptance_2_pvi_points_and_matrices():
    vf = pvi_system().admissible
    ctx = vf.ctx
    points = accessible_points(vf)
    assert [p.label for p in points] == ["0", "1", "t", "inf"]
    assert all(p.multiplicity == 1 for p in points)
    norm_alpha0 = "1 - alpha1 - 2*alpha2 - alpha3 - alpha4"
    displays = {"0": ("1/(t - 1)", "-alpha4"), "1": ("-1/t", "-alpha3"),
                "t": ("1", f"-({norm_alpha0})"), "inf": ("1/(t*(t - 1))", "-alpha1")}
    for p in points:
        scale, upper = displays[p.label]
        s = ctx.parse(scale)
        expected = Mat2([[ctx.rat(2) * s, ctx.parse(upper) * s], [ctx.rat(0), s]])
        assert linearization(divisor_chart_local(vf, p.chart), p.location).matrix == expected
    report(2, "accessible points {0, 1, t, inf}, all simple; four matrices "
              "match the displays exactly, scales 1/(t-1), -1/t, 1, 1/(t(t-1)) "
              "(equality modulo the parameter normalization)")


def test_acceptance_3_generalized_recoveries():
    checked = []
    for name in ("gen-pvi", "gen-pv", "gen-piv", "gen-piii"):
        rec = recover(get_scheme(name).scheme)
        entry = get_system(name)
        relsub = relation_substitution(rec.relations, rec.scheme.eigenvalue_syms)
        vf = rec.vf.subs_params(relsub)
        gvf = entry.vf
        big = union_context(vf.ctx, gvf.ctx)
        if "a" in gvf.ctx:  # gauge-fix the free overall factor of the 3-point family
            coeff = vf.dxdt.num.coefficient("x", 3).coefficient("y", 1)
            aval = (MRat.from_poly(coeff) / MRat.from_poly(vf.dxdt.den)).lift(big)
            gdx = gvf.dxdt.lift(big).subs({"a": aval})
            gdy = gvf.dydt.lift(big).subs({"a": aval})
        else:
            gdx, gdy = gvf.dxdt.lift(big), gvf.dydt.lift(big)
        assert vf.dxdt.lift(big) == gdx and vf.dydt.lift(big) == gdy
        checked.append(name)
    report(3, "schemes recover the four generalized systems term for term, "
              "delta normalizations included: " + ", ".join(checked))


def test_acceptance_4_eigenvalue_relations():
    expected = {
        "gen-pvi": "n1*n2*n3 + n1*n2*n4 + n1*n3*n4 + n2*n3*n4 - 2*n1*n2*n3*n4",
        "gen-pv": "2*n1*n2*n3 - (n1 + n2)*n3 - 2*(n1 + n2)",
        "gen-piv": "2*n1*n2 - 3*n1 - n2 - 3",
        "gen-piii": "n1*n2 - 4",
    }
    for name, text in expected.items():
        rel = eigenvalue_relation(get_scheme(name).scheme)
        want = rel.ctx.parse(text).num
        assert rel.primitive() == want.primitive(), name
    report(4, "the four eigenvalue relations drop out of the constraint "
              "systems symbolically (equality up to a unit)")


def test_acceptance_5_classifications():
    t0 = time.monotonic()
    assert enumerate_natural("genVI", "paper") == [(1, 2, 3, 6), (1, 2, 4, 4),
                                                   (1, 3, 3, 3), (2, 2, 2, 2)]
    assert enumerate_natural("genV", "paper") == [(2, 1, 6), (2, 2, 2), (3, 1, 4),
                                                  (3, 3, 1), (5, 1, 3), (6, 2, 1)]
    assert enumerate_natural("genIV", "paper") == [(1, 6), (2, 3), (5, 2)]
    assert enumerate_natural("genIII", "paper") == [(2, 2), (4, 1)]
    for rel in ("genVI", "genV", "genIV", "genIII"):
        assert brute_force_box(rel, 100, "paper") == enumerate_natural(rel, "paper")
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(5, f"four/six/three/two solution tuples reproduced and confirmed "
              f"complete by the [1,100]^k box oracle; runtime {elapsed:.2f}s < 10s")


def test_acceptance_6_symmetries():
    cases = {"gen-pvi": ("s", "pi1", "pi2", "pi3"), "gen-pv": ("s", "pi"),
             "gen-piv": ("s",), "gen-piii": ("s", "pi")}
    for sys_name, map_names in cases.items():
        entry = get_system(sys_name)
        catalog = {m.name: m for m in get_maps(sys_name)}
        for map_name in map_names:
            bmap = catalog[map_name]
            rep = verify_symmetry(entry.vf, bmap, "numeric-probe",
                                  relation=entry.relation,
                                  eigenvalue_syms=entry.eigenvalue_syms, draws=20)
            assert rep.invariant and rep.draws >= 20, (sys_name, map_name, rep.note)
            assert verify_involution(bmap, entry.relation, entry.eigenvalue_syms)
    # the alpha0 image of the three-point family's s is reported, not asserted
    s_piv = {m.name: m for m in get_maps("gen-piv")}["s"]
    assert "alpha0" in s_piv.note and "alpha0" not in s_piv.param_map
    # discrepancy finding: the printed alpha images of the x -> 1/x map fail
    entry = get_system("gen-pvi")
    verbatim = {m.name: m for m in get_maps("gen-pvi")}["pi3-verbatim"]
    bad = verify_symmetry(entry.vf, verbatim, "numeric-probe",
                          relation=entry.relation,
                          eigenvalue_syms=entry.eigenvalue_syms, draws=3)
    assert not bad.invariant
    report(6, "all nine transformations pass 20 exact rational probes and the "
              "involution check; the alpha0-image gap of the three-point s is "
              "reported, not asserted; FINDING: the printed alpha1/alpha4 "
              "images of the x->1/x map fail exact invariance (the derived "
              "plain swap is shipped as pi3, the transcription as pi3-verbatim)")


def test_acceptance_7_resolutions():
    expectations = [("gen-pv", "0", ("x", "x^2*y"), "-t"),
                    ("gen-piv", "0", ("x", "x^3*y"), "-1/2"),
                    ("gen-piii", "inf", ("(1)/(x)", "(-x*y - alpha2)/(x)"), "-1")]
    for name, label, patch, point in expectations:
        entry = get_system(name)
        relsub = relation_substitution([entry.relation], entry.eigenvalue_syms)
        vf = entry.vf.subs_params(relsub)
        pts = {p.label: p for p in accessible_points(vf)}
        trace = resolve_multiplicity(vf, pts[label])
        assert tuple(str(m) for m in trace.final_chart_map) == patch
        assert str(trace.final_location) == point
    # the double point at X=0 of the generic family: resolution conditions,
    # degenerate matrix and a5 = a7 = a10 = 0 are one condition set
    from grs.algebra import Context
    ctx = Context.make(parameters=["alpha2"], unknowns=list(SIGMA2_UNKNOWNS))
    family = generic_family(sigma2_model(ctx), ctx)
    zero = ctx.rat(0)
    _, collected = resolve_family(family, AccessiblePoint("U2", zero, 2), -ctx.var("t"),
                                  SIGMA2_UNKNOWNS)
    matrix, access = linearization_matrix(divisor_chart_local(family, "U2"), zero)
    conditions = {"a5", "a7", "a10"}
    assert {str(p) for _, p in collected[:3]} == conditions
    assert {str(r.num.primitive()) for r in (access, matrix[0, 0], matrix[1, 1])} == conditions
    shaped = matrix.map(lambda r: r.subs({name: zero for name in conditions}))
    assert str(shaped) == "[[0, a8], [0, 0]]"
    report(7, "resolutions yield patching data (x, x^2*y), (x, x^3*y) and "
              "resolved points (0,-t), (0,-1/2), (0,-1); the double-point "
              "three-way equivalence verifies symbolically on the family")


def test_acceptance_8_existence_theorem():
    for n, c, m in [(2, [0, 1], [2, 2, 2, 2]), (3, [0, 1, 2], [1, 2, 2, 2, 2])]:
        sys_ = construct_existence_system(n, c, m)
        labels = {p.label for p in sys_.points}
        assert labels == {str(Fraction(v)) for v in c} | {"t", "inf"}   # (A1)
        assert all(p.multiplicity == 1 for p in sys_.points)            # (A1)
        order = {str(Fraction(v)): i for i, v in enumerate(c)}
        order.update({"t": n, "inf": n + 1})
        for label, ratio in sys_.ratios.items():                        # (A2)
            assert ratio.constant_value() == m[order[label]]
        total = sum(Fraction(1) / Fraction(v) for v in m)               # (A3)
        assert total == n
    report(8, "existence construction passes (A1),(A2),(A3) for n=2, "
              "m=(2,2,2,2) and n=3, m=(1,2,2,2,2); the infinity ratio and "
              "the reciprocal-sum relation check exactly")


def test_acceptance_9_alpha_test():
    vf = pvi_system().admissible
    point = accessible_points(vf)[0]
    res = alpha_test(vf, point)
    ctx = res.reduced[0, 0].ctx
    s = ctx.parse("1/(t0 - 1)")
    assert res.reduced == Mat2([[ctx.rat(2) * s, ctx.parse("-alpha4") * s],
                                [ctx.rat(0), s]])
    assert res.single_valued
    assert "W(T) = ((1)/(t0 - 1))*T + C1" in res.closed_form  # W linear in T
    assert "^(2)" in res.closed_form                          # Z exponent 2
    # the four-point family at n1 = 3/2 has a non-integer local index ratio
    entry = get_system("gen-pvi")
    gctx = entry.vf.ctx
    inst = entry.vf.subs_params({
        "n1": gctx.rat(Fraction(3, 2)), "n2": gctx.rat(2), "n3": gctx.rat(2),
        "alpha0": gctx.rat(1), "alpha1": gctx.rat(2), "alpha2": gctx.rat(3),
        "alpha3": gctx.rat(5), "alpha4": gctx.rat(7)})
    ratios = [linearization(divisor_chart_local(inst, p.chart), p.location).ratio
              for p in accessible_points(inst) if p.multiplicity == 1]
    assert [str(r) for r in ratios if not r.is_integer()] == ["3/2"]
    report(9, "reduced system and closed form at X=0 match the display "
              "(W linear, Z with exponent 2), single-valued; at n1 = 3/2 the "
              "screen reports branching")


def test_acceptance_10_specialization_correspondences():
    verdicts = []
    for pair in ("gen-piv:piv", "gen-pvi:pvi", "gen-pv:pv", "gen-piii:piii"):
        general, reference, ref_params, _ = match_pair(pair)
        rep = match_specialization(general, reference, ref_params)
        assert rep.found or rep.residual  # definitive either way
        verdicts.append(f"{pair}: {'found' if rep.found else 'residual reported'}")
        if pair == "gen-piv:piv":
            assert rep.found
            assert {k: str(v) for k, v in rep.param_map.items()} == {
                "beta1": "alpha1", "beta2": "alpha2"}
    assert all("found" in v for v in verdicts)
    report(10, "; ".join(verdicts) + " (the three-point/PIV pair is the "
               "identity correspondence on the classical Hamiltonian form)")
