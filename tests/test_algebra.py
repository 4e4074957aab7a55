"""Exact arithmetic kernel tests: canonical forms, gcd, triangular solve."""

import gc
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis import assume

from grs.algebra import (MAX_EXPONENT, MAX_NESTING, Context, DivisionByZero, InconsistentSystem, MPoly,
                         MRat, Mat2, ParseError, StuckSystem, gcd_cofactors, parse_rat, poly_gcd,
                         distinct_up_to_scale, solve_rational_linear, solve_triangular,
                         split_content, exact_divide)
from grs import algebra


def _context(*syms):
    """The context of the (name, kind) pairs, in order."""
    return Context([algebra.Sym(n, k) for n, k in syms])


@pytest.fixture
def ctx():
    return Context.make(parameters=["alpha4", "n1"], unknowns=["a5", "a7", "a8", "a10"])


def test_inverse_pair(ctx):
    t = ctx.var("t")
    one = ctx.rat(1)
    assert (t / (t - one)) * ((t - one) / t) == one


def test_additive_inverse_after_normalization(ctx):
    t = ctx.var("t")
    one = ctx.rat(1)
    r = one / (t * (t - one)) + one / (t * (one - t))
    assert r.is_zero()


def test_gcd_cancellation_with_cross_multiplication_oracle(ctx):
    t = ctx.var("t")
    one = ctx.rat(1)
    r = (t * t - one) / (t - one)
    expected = t + one
    assert str(r) == "t + 1"
    # oracle: equality decided by cross multiplication, independent of gcd
    assert r.num * expected.den == expected.num * r.den


def test_division_by_zero(ctx):
    with pytest.raises(DivisionByZero):
        ctx.rat(1) / ctx.rat(0)


def test_canonical_denominator_is_primitive_positive(ctx):
    t = ctx.var("t")
    r = ctx.rat(1) / (ctx.rat(-2) * t + ctx.rat(2))
    # denominator has coprime integer coefficients and positive leading coeff
    assert str(r) == "(-1/2)/(t - 1)"


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _random_mrat(ctx, coeffs):
    t = ctx.var("t")
    a = ctx.var("alpha4")
    c0, c1, c2, c3 = (ctx.rat(c) for c in coeffs)
    num = c0 + c1 * t + c2 * a * t
    den = ctx.rat(1) + c3 * t
    if den.is_zero():
        den = ctx.rat(1)
    return num / den


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[small_rationals] * 4), st.tuples(*[small_rationals] * 4),
       st.tuples(*[small_rationals] * 4))
def test_field_axioms(ca, cb, cc):
    ctx = Context.make(parameters=["alpha4"])
    a, b, c = (_random_mrat(ctx, cs) for cs in (ca, cb, cc))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[small_rationals] * 4), st.tuples(*[small_rationals] * 4))
def test_canonicalization_idempotent(ca, cb):
    ctx = Context.make(parameters=["alpha4"])
    a = _random_mrat(ctx, ca)
    b = _random_mrat(ctx, cb)
    if b.is_zero():
        b = ctx.rat(1)
    r = a / b
    again = MRat(r.num, r.den)
    assert again.num == r.num and again.den == r.den


@settings(max_examples=30, deadline=None)
@given(st.tuples(*[small_rationals] * 4), st.tuples(*[small_rationals] * 4),
       st.tuples(*[small_rationals] * 4))
def test_gcd_divides_and_cancels(ca, cb, cg):
    ctx = Context.make(parameters=["alpha4"])
    a = _random_mrat(ctx, ca).num
    b = _random_mrat(ctx, cb).num
    g = _random_mrat(ctx, cg).num
    if a.is_zero() or b.is_zero() or g.is_zero():
        return
    gcd = poly_gcd(a * g, b * g)
    # g divides the gcd of the common-multiple pair
    assert exact_divide(gcd, poly_gcd(g, gcd)) is not None
    assert exact_divide(a * g, gcd) is not None
    assert exact_divide(b * g, gcd) is not None


def test_solve_triangular_contract_example(ctx):
    a5, a7, a8, a10 = (ctx.poly_var(n) for n in ("a5", "a7", "a8", "a10"))
    alpha4 = ctx.poly_var("alpha4")
    eqs = [a7, a8 - alpha4 * a10, a5 + ctx.poly(2) * a10]
    sol = solve_triangular(eqs, ["a5", "a7", "a8"])
    assert str(sol.assignments["a7"]) == "0"
    assert str(sol.assignments["a8"]) == "alpha4*a10"
    assert str(sol.assignments["a5"]) == "-2*a10"
    # substituted back, every equation vanishes identically
    for eq in eqs:
        assert eq.subs(sol.assignments).is_zero()


def test_solve_triangular_empty():
    sol = solve_triangular([], [])
    assert sol.assignments == {} and sol.relations == [] and sol.free == []


def test_solve_triangular_inconsistent(ctx):
    a5 = ctx.poly_var("a5")
    one = ctx.poly(1)
    with pytest.raises(InconsistentSystem):
        solve_triangular([a5 - one, a5 + one], ["a5"])


def test_solve_triangular_stuck_reports_remaining(ctx):
    a5, a7 = ctx.poly_var("a5"), ctx.poly_var("a7")
    with pytest.raises(StuckSystem) as err:
        solve_triangular([a5 * a7 - ctx.poly(1)], ["a5", "a7"])
    assert err.value.remaining


def test_solve_triangular_stuck_reports_sources(ctx):
    a5, a7, a8 = ctx.poly_var("a5"), ctx.poly_var("a7"), ctx.poly_var("a8")
    alpha4, one = ctx.poly_var("alpha4"), ctx.poly(1)
    eqs = [a5 * a7 - one, a8 - alpha4, a7 * a7 - a8]
    with pytest.raises(StuckSystem) as err:
        solve_triangular(eqs, ["a5", "a7", "a8"], sources=["first", "second", "third"])
    assert [str(p) for p in err.value.remaining] == ["a5*a7 - 1", "a7^2 - alpha4"]
    assert err.value.sources == ["first", "third"]
    assert str(err.value) == ("no equation is linear in a single unsolved unknown; "
                              "remaining: a5*a7 - 1; a7^2 - alpha4")


def test_solve_triangular_rereads_equations_and_forms_after_a_pivot(ctx):
    # before a8 is solved, e1 has no pivot and the form does not divide it;
    # a8 -> a5 turns both into multiples of a10^2 + a5^2*a7, so e1 must be
    # re-reduced and the form re-read to yield the relation n1 - 2
    a5, a7, a8, a10 = (ctx.poly_var(n) for n in ("a5", "a7", "a8", "a10"))
    n1, two = ctx.poly_var("n1"), ctx.poly(2)
    e1 = (n1 - two) * (a10 * a10 + a8 * a5 * a7)
    form = a10 * a10 + a8 * a8 * a7
    sol = solve_triangular([e1, a8 - a5], ["a8", "a5", "a7", "a10"], nonzero_forms=[form])
    assert {k: str(v) for k, v in sol.assignments.items()} == {"a8": "a5"}
    assert [str(r) for r in sol.relations] == ["n1 - 2"]
    assert sol.free == ["a5", "a7", "a10"]


def test_solve_triangular_keeps_a_reduction_until_the_assignments_change(ctx, monkeypatch):
    # a5 -> 1 leaves e1 = a7^2*a8 + 1 without a pivot; dropping a5^2 - 1 as
    # zero rescans e1 under the same assignments, which must not reduce it
    # again, and a7 -> 2 then does
    a5, a7, a8 = (ctx.poly_var(n) for n in ("a5", "a7", "a8"))
    one, two = ctx.poly(1), ctx.poly(2)
    calls = []
    real_subs = MPoly.subs

    def subs(self, values):
        calls.append(str(self))
        return real_subs(self, values)

    monkeypatch.setattr(MPoly, "subs", subs)
    sol = solve_triangular([a5 - one, a7 * a7 * a8 + a5, a5 * a5 - one, a7 - two],
                           ["a5", "a7", "a8"])
    assert {k: str(v) for k, v in sol.assignments.items()} == \
        {"a5": "1", "a7": "2", "a8": "-1/4"}
    assert calls == ["a7^2*a8 + a5", "a5^2 - 1", "a7^2*a8 + a5"]


LINEAR_UNKNOWNS = [f"u{j}" for j in range(6)]
_small_rationals = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def _rational_linear_systems(draw):
    """Up to eight rows in six unknowns: random rows, and rows combined from
    earlier ones (a repeat, a multiple, a sum) with the constant kept or
    shifted, so dependent and inconsistent systems come up often."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(_small_rationals), draw(_small_rationals)
            row = [ca * x + cb * y for x, y in zip(a, b)]
            row[-1] += draw(st.sampled_from([0, 0, 1]))
        else:
            row = [draw(_small_rationals) for _ in range(len(LINEAR_UNKNOWNS) + 1)]
        rows.append(row)
    return rows


def _solved(solve, equations):
    try:
        sol = solve(equations, LINEAR_UNKNOWNS)
    except InconsistentSystem as exc:
        return "inconsistent", str(exc)
    return sol.assignments, sol.relations, sol.free


@settings(max_examples=300, deadline=None)
@given(_rational_linear_systems())
def test_rational_linear_solve_matches_the_triangular_solver(rows):
    ctx = _context(*((u, "unknown") for u in LINEAR_UNKNOWNS))
    equations = [sum((ctx.poly_var(u).scale(c) for u, c in zip(LINEAR_UNKNOWNS, row)),
                     ctx.poly(row[-1])) for row in rows]
    assert _solved(solve_rational_linear, equations) == _solved(solve_triangular, equations)


def test_distinct_up_to_scale_keeps_the_first_copy(ctx):
    eqs = [ctx.parse(text).num for text in
           ["2*a5 - 2", "1 - a5", "a5/2 - 1/2", "0", "a5 + 1", "a5^2 - 1", "-3*a5^2 + 3"]]
    assert [str(p) for p in distinct_up_to_scale(eqs)] == ["2*a5 - 2", "a5 + 1", "a5^2 - 1"]
    assert [p.total_degree() for p in eqs] == [1, 1, 1, 0, 1, 2, 2]


def test_rational_linear_solve_refuses_a_quadratic(ctx):
    a5 = ctx.poly_var("a5")
    with pytest.raises(ValueError, match="not linear"):
        solve_rational_linear([a5 * a5 - ctx.poly(1)], ["a5"])


def test_relation_extraction_via_nonzero_form(ctx):
    # c(params) * a10 = 0 with a10 designated nonzero records the relation c=0
    a10, n1 = ctx.poly_var("a10"), ctx.poly_var("n1")
    t = ctx.poly_var("t")
    eq = (n1 * n1 - ctx.poly(4)) * t * a10
    sol = solve_triangular([eq], ["a10"], nonzero_forms=[t * a10])
    assert sol.assignments == {}
    assert [str(r) for r in sol.relations] == ["n1^2 - 4"]


def test_split_content(ctx):
    t, n1, a10 = ctx.poly_var("t"), ctx.poly_var("n1"), ctx.poly_var("a10")
    p = t * n1 * a10 + t * t * n1 * a10 * a10
    content, primitive = split_content(p, ["a10"])
    assert str(content) == "t*n1"
    assert content * primitive == p


def test_parser_round_trip(ctx):
    for text in ["(t^2 - 1)/(t - 1)", "2*alpha4 - 3/4", "-(t + 1)^2", "1/2*t"]:
        r = parse_rat(ctx, text)
        assert parse_rat(ctx, str(r)) == r


def test_parser_rejects_unknown_symbol(ctx):
    with pytest.raises(ParseError):
        parse_rat(ctx, "zeta + 1")


@pytest.mark.parametrize("text, message", [
    ("((", "unexpected end of input in '(('"),
    ("1+", "unexpected end of input in '1+'"),
    ("x^", "unexpected end of input in 'x^'"),
    ("", "unexpected end of input in ''"),
    ("t^-", "unexpected end of input in 't^-'"),
    ("x+)", "unexpected ')' in 'x+)'"),
    (")", "unexpected ')' in ')'"),
    ("x*/t", "unexpected '/' in 'x*/t'"),
    ("(x t", "expected ')', found 't' in '(x t'"),
])
def test_parser_names_the_end_of_input_and_a_stray_token(ctx, text, message):
    with pytest.raises(ParseError) as info:
        parse_rat(ctx, text)
    assert str(info.value) == message


def test_parser_nesting_budget(ctx):
    """The deepest accepted nesting parses; one level more, or thousands
    (which would exhaust the recursion limit), is a ParseError."""
    nested = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
    assert parse_rat(ctx, nested) == ctx.var("t")
    for depth in (MAX_NESTING + 1, 5000):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}"):
            parse_rat(ctx, "(" * depth + "t" + ")" * depth)


def test_parser_exponent_budget(ctx):
    """A power up to MAX_EXPONENT parses, nested powers counting as their
    product; a larger one is refused before any of it is computed."""
    x = ctx.var("x")
    assert parse_rat(ctx, f"x^{MAX_EXPONENT}") == x ** MAX_EXPONENT
    assert parse_rat(ctx, "(x^8)^8") == x ** 64
    assert parse_rat(ctx, f"t^-{MAX_EXPONENT}") == ctx.var("t") ** -MAX_EXPONENT
    for text in (f"x^{MAX_EXPONENT + 1}", "2^99999999", "(x+t)^99999999", "(x^8)^9",
                 "((2^4)^4)^5", "(t*(x^2)^17)^2", "x^" + "9" * 5000):
        with pytest.raises(ParseError, match=f"power above MAX_EXPONENT = {MAX_EXPONENT}"):
            parse_rat(ctx, text)


def test_parser_leaves_nothing_for_the_cycle_collector(ctx):
    """Reference counting frees every parse, and every caught ParseError:
    with the collector off, nothing is left for gc.collect() to find."""
    texts = ["x*(y+alpha4)^2 - t/3", "x*(y+", "(t", "t^x", "zeta", "t t"]
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            for text in texts:
                try:
                    parse_rat(ctx, text)
                except ParseError:
                    pass
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


def test_grlex_rendering_deterministic():
    ctx = Context.make(parameters=["alpha"])
    x, y, t, a = (ctx.var(n) for n in ("x", "y", "t", "alpha"))
    p = y * x + x * x + t * a + x + ctx.rat(Fraction(1, 2))
    assert str(p) == "x^2 + x*y + t*alpha + x + 1/2"


def test_rename_and_lift(ctx):
    t = ctx.var("t")
    a = ctx.var("alpha4")
    r = (t + a) / t
    bigger = ctx.extend(tuple())
    assert r.lift(bigger) == r


# ---------------------------------------------------------------------------
# Differential tests against SymPy (a test-only dependency): the kernel's gcd,
# exact division and canonical MRat forms must match an independent oracle.
# ---------------------------------------------------------------------------

ORACLE_CTX = _context(("x", "fiber"), ("t", "time"), ("a", "parameter"))


def _polys(min_terms=0, max_terms=3, constant=True, degree=2):
    """Small polynomials in x, t, a: up to three terms of bounded degree per symbol."""
    monomials = st.tuples(*[st.integers(0, degree)] * 3)
    if not constant:
        monomials = monomials.filter(any)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)
    return st.dictionaries(monomials, coeffs, min_size=min_terms, max_size=max_terms).map(
        lambda terms: MPoly(ORACLE_CTX, terms))


_nonzero = _polys(min_terms=1)
_nonconstant = _polys(min_terms=1, constant=False)
# factors of the pairs built from products: degree <= 1 per symbol keeps every
# product within degree 2, where the kernel's gcd stays fast
_factor = _polys(min_terms=1, constant=False, degree=1)
_cofactor = _polys(min_terms=1, degree=1)


def _sympy(ctx=ORACLE_CTX):
    sp = pytest.importorskip("sympy")
    return sp, sp.symbols(ctx.names)


def _to_sympy(p):
    sp, syms = _sympy(p.ctx)
    return sp.Add(*[sp.Rational(c.numerator, c.denominator)
                    * sp.Mul(*[s ** k for s, k in zip(syms, e)])
                    for e, c in p.terms.items()])


def _from_sympy(expr, ctx=ORACLE_CTX):
    sp, syms = _sympy(ctx)
    terms = {}
    for e, c in sp.Poly(expr, *syms, domain="QQ").terms():
        c = sp.Rational(c)
        if c:
            terms[e] = Fraction(int(c.p), int(c.q))
    return terms


def _unit_free(terms, other=None):
    """Divide both term dicts by the unit making ``terms`` integer-primitive
    with a positive graded-lex leading coefficient (written here from scratch,
    not with the kernel's helpers)."""
    other = {} if other is None else other
    if not terms:
        return terms, other
    content = Fraction(math.gcd(*(c.numerator for c in terms.values())),
                       math.lcm(*(c.denominator for c in terms.values())))
    lead = terms[max(terms, key=lambda e: (sum(e), e))]
    unit = content if lead > 0 else -content
    return ({e: c / unit for e, c in terms.items()},
            {e: c / unit for e, c in other.items()})


def _assert_canonical_as_sympy(result, expr):
    """result is exactly the canonical form of the SymPy expression expr."""
    sp, _ = _sympy()
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    want_den, want_num = _unit_free(_from_sympy(den, result.ctx), _from_sympy(num, result.ctx))
    assert (result.num.terms, result.den.terms) == (want_num, want_den)


@settings(max_examples=30, deadline=None)
@given(_polys(), _polys(), _polys())
def test_poly_gcd_matches_sympy(a, b, g):
    sp, _ = _sympy()
    a, b = a * g, b * g
    ours = poly_gcd(a, b)
    theirs = _from_sympy(sp.gcd(_to_sympy(a), _to_sympy(b)))
    assert ours.terms == _unit_free(theirs)[0]


@settings(max_examples=30, deadline=None)
@given(_polys(), _nonzero)
def test_exact_divide_recovers_the_quotient(a, b):
    assert exact_divide(a * b, b) == a


def _sympy_divides(d, a):
    sp, _ = _sympy()
    return sp.fraction(sp.cancel(_to_sympy(a) / _to_sympy(d)))[1].is_number


@settings(max_examples=20, deadline=None)
@given(_nonconstant, _nonconstant)
def test_exact_divide_rejects_a_non_divisor(p, q):
    one = ORACLE_CTX.poly(1)
    b, q = p + one, q + one  # p and q have no constant term
    # early: b*q has a higher degree than b in some symbol, and b*x a higher
    # low degree in x, so the degree bounds reject before any division step
    for d in (b * q, b * ORACLE_CTX.poly_var("x")):
        assert exact_divide(b, d) is None
        assert not _sympy_divides(d, b)
    # mid-loop: b*q + 1 has every degree and low degree of b*q (its constant
    # term is 2), so only the division steps can find the remainder
    a = b * q + one
    for name in ORACLE_CTX.names:
        i = ORACLE_CTX.index(name)
        assert b.degree_in(name) <= a.degree_in(name)
        assert min(e[i] for e in a.terms) == min(e[i] for e in b.terms) == 0
    assert exact_divide(a, b) is None
    assert not _sympy_divides(b, a)


def _sympy_quotient(a, d):
    """a/d as a term dict when d divides a, by sympy.cancel; else None."""
    sp, _ = _sympy()
    num, den = sp.fraction(sp.cancel(_to_sympy(a) / _to_sympy(d)))
    return _from_sympy(num / den) if den.is_number else None


def _assert_divides_as_sympy(a, d):
    ours = exact_divide(a, d)
    assert (None if ours is None else ours.terms) == _sympy_quotient(a, d)


def test_exact_divide_with_a_non_unit_leading_coefficient_matches_sympy():
    ctx = ORACLE_CTX
    x, q = ctx.poly_var("x"), ctx.parse("t*x - 2*a + 1").num
    # 2x + 3 into x^2 + x: the first quotient coefficient 1/2 is not an integer
    _assert_divides_as_sympy(x * x + x, x.scale(2) + ctx.poly(3))
    # 2x + 3 into 3x^2 + 3x: the degree bounds pass, the division by 2 fails
    _assert_divides_as_sympy((x * x + x).scale(3), x.scale(2) + ctx.poly(3))
    d = x.scale(Fraction(1, 2)) + ctx.poly(Fraction(1, 3))  # 3x + 2 over 6
    _assert_divides_as_sympy(d * q, d)
    _assert_divides_as_sympy(d * q + ctx.poly(1), d)
    assert exact_divide(d * q, d) == q and exact_divide(d * q + ctx.poly(1), d) is None


@settings(max_examples=30, deadline=None)
@given(_factor, _cofactor, _cofactor, st.sampled_from([2, 3, Fraction(2, 3), Fraction(3, 4)]))
def test_exact_divide_by_rational_divisors_matches_sympy(f, q, r, lead):
    """Divisors whose integer-primitive part has a leading coefficient other
    than 1: the integer division must neither miss a quotient nor pass a
    non-divisor."""
    big = ORACLE_CTX.parse("x^2*t^2*a^2").num
    d = big.scale(lead) + f
    assume(abs(max(d.primitive().packed.items())[1]) != 1)
    _assert_divides_as_sympy(d * q, d)
    _assert_divides_as_sympy(d * q + r, d)
    # the same support as d * q, so that only the division steps can reject
    _assert_divides_as_sympy((big.scale(lead) + f.scale(Fraction(3, 2))) * q, d)
    _assert_divides_as_sympy((d * q).scale(Fraction(5, 7)), d.scale(Fraction(-3, 2)))


def _assert_canonical_storage(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.packed.values())
    assert math.gcd(p.den, *p.packed.values()) == 1


@settings(max_examples=40, deadline=None)
@given(_polys(), _polys(), _nonzero, st.fractions(-3, 3, max_denominator=4),
       st.integers(0, 3), st.fractions(-3, 3, max_denominator=3))
def test_storage_stays_canonical(a, b, c, k, n, value):
    """Numerators with no zero among them over a positive denominator with
    no factor common to all: structural equality depends on it."""
    one = ORACLE_CTX.poly(1)
    results = [a + b, a - b, a * b, -a, a.scale(k), a ** n, a.primitive(),
               a.shift_down(a.monomial_gcd()), a.lift(PLANT_CTX), exact_divide(a * c, c),
               *split_content(c, ["x"]), *split_content(c * (b * b + one), ["t", "a"]),
               a.subs({"t": ORACLE_CTX.rat(value)}).num,
               a.subs({"x": ORACLE_CTX.rat(value), "a": ORACLE_CTX.rat(k)}).num]
    for name in ORACLE_CTX.names:
        results.append(a.derivative(name))
        results += a.as_univariate(name).values()
        results += algebra.coefficients_in(a, [name])
    for p in results:
        _assert_canonical_storage(p)


@settings(max_examples=60, deadline=None)
@given(_polys(max_terms=6, degree=3), st.sampled_from(ORACLE_CTX.names))
def test_coefficient_is_the_univariate_coefficient(p, name):
    """coefficient(v, d) reads one field: it is as_univariate(v)'s entry for
    d, and zero for a power the polynomial does not have."""
    view = p.as_univariate(name)
    for d in range(p.degree_in(name) + 2):
        c = p.coefficient(name, d)
        assert c == view.get(d, ORACLE_CTX.poly(0))
        _assert_canonical_storage(c)


@settings(max_examples=40, deadline=None)
@given(_polys(), st.integers(-5, 5))
def test_int_on_the_left_adds_and_scales(p, k):
    assert 2 * p == p.scale(2) and k * p == p.scale(k)
    assert 1 + p == p + ORACLE_CTX.poly(1) and k + p == p + ORACLE_CTX.poly(k)
    # only ints: other left operands still raise
    for other in ("a", 0.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            other + p
        with pytest.raises(TypeError):
            other * p


_monomials = st.tuples(*[st.integers(0, 2)] * 3)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(_monomials, st.fractions(-3, 3, max_denominator=4) | st.integers(-3, 3),
                       max_size=6),
       st.sampled_from([["x"], ["t"], ["x", "a"], ["t", "a"]]))
def test_terms_view_contract(raw, names):
    p = MPoly(ORACLE_CTX, raw)
    view = p.terms
    # reduced Fractions, in the order the constructor was given them
    assert list(view.items()) == [(e, Fraction(c)) for e, c in raw.items() if c]
    assert all(type(c) is Fraction for c in view.values())
    # coefficients_in groups in order of first occurrence, each in term order
    idx = [ORACLE_CTX.index(n) for n in names]
    groups = {}
    for e, c in view.items():
        key = tuple(k if i in idx else 0 for i, k in enumerate(e))
        rest = tuple(0 if i in idx else k for i, k in enumerate(e))
        groups.setdefault(key, []).append((rest, c))
    got = [list(g.terms.items()) for g in algebra.coefficients_in(p, names)]
    assert got == list(groups.values())
    # the view is a copy
    view.clear()
    view[(0,) * len(ORACLE_CTX)] = Fraction(7)
    assert list(p.terms.items()) == [(e, Fraction(c)) for e, c in raw.items() if c]
    rebuilt = MPoly(ORACLE_CTX, p.terms)
    assert rebuilt == p and hash(rebuilt) == hash(p)


def test_constructor_drops_zeros_and_accepts_ints():
    e, f = (1, 0, 0), (0, 1, 0)
    p = MPoly(ORACLE_CTX, {e: 0, f: 3})
    assert p.terms == {f: Fraction(3)} and (list(p.packed.values()), p.den) == ([3], 1)
    q = MPoly(ORACLE_CTX, {e: Fraction(1, 2), f: Fraction(-2, 3)})
    assert q.terms == {e: Fraction(1, 2), f: Fraction(-2, 3)}
    assert (sorted(q.packed.values()), q.den) == ([-4, 3], 6)
    assert q == MPoly(ORACLE_CTX, {f: Fraction(-4, 6), e: Fraction(3, 6)})
    assert MPoly(ORACLE_CTX, {e: 0}) == ORACLE_CTX.poly(0)


# pairs (a, b) that drive each branch of the MRat operators
MRAT_PAIRS = {
    "constant_den": st.tuples(_polys(), st.fractions(1, 3, max_denominator=3), _polys(),
                              _nonconstant).map(
        lambda v: (MRat(v[0], ORACLE_CTX.poly(v[1])), MRat(v[2], v[3]))),
    "coprime_dens": st.tuples(_nonzero, _nonconstant, _nonzero, _nonconstant).map(
        lambda v: (MRat(v[0], v[1]), MRat(v[2], v[3]))),
    "shared_factor": st.tuples(_cofactor, _factor, _cofactor, _factor, _factor).map(
        lambda v: (MRat(v[0], v[4] * v[1]), MRat(v[2], v[4] * v[3]))),
    # n/(f1*f2) + (f2*m - n)/(f1*f2) = m/f1: the sum's numerator shares f2
    # with the common denominator
    "second_gcd": st.tuples(_cofactor, _cofactor, _factor, _factor).map(
        lambda v: (MRat(v[0], v[2] * v[3]), MRat(v[3] * v[1] - v[0], v[2] * v[3]))),
    # (f*u)/(g*w) * (g*v)/(f*z): both cross gcds of a product are nontrivial
    "cross_factors": st.tuples(_factor, _factor, _cofactor, _cofactor, _factor, _factor).map(
        lambda v: (MRat(v[0] * v[2], v[1] * v[4]), MRat(v[1] * v[3], v[0] * v[5]))),
    "zero_sum": st.tuples(_nonzero, _nonconstant).map(
        lambda v: (MRat(v[0], v[1]), -MRat(v[0], v[1]))),
}


@pytest.mark.parametrize("kind", sorted(MRAT_PAIRS))
@settings(max_examples=8, deadline=None)
@given(data=st.data(), power=st.integers(-2, 3))
def test_mrat_operators_match_sympy_cancel(kind, data, power):
    a, b = data.draw(MRAT_PAIRS[kind])
    ea = _to_sympy(a.num) / _to_sympy(a.den)
    eb = _to_sympy(b.num) / _to_sympy(b.den)
    _assert_canonical_as_sympy(a + b, ea + eb)
    _assert_canonical_as_sympy(a - b, ea - eb)
    _assert_canonical_as_sympy(a * b, ea * eb)
    _assert_canonical_as_sympy((a + b) * a, (ea + eb) * ea)
    if not b.is_zero():
        _assert_canonical_as_sympy(a / b, ea / eb)
        _assert_canonical_as_sympy(b.inverse(), 1 / eb)
        _assert_canonical_as_sympy(b ** power, eb ** power)
    if kind == "zero_sum":
        assert (a + b).is_zero() and (a + b).den == ORACLE_CTX.poly(1)


# values of each kind that MPoly.subs and MRat.subs take; like the factors
# above, the rational values and targets stay small, so that every gcd the
# substitution runs stays fast
SUBS_VALUES = {
    "constant": st.fractions(-3, 3, max_denominator=3).map(ORACLE_CTX.rat),
    "polynomial": _cofactor.map(MRat.from_poly),
    "rational": st.tuples(_cofactor, _polys(min_terms=1, max_terms=2, constant=False,
                                            degree=1)).map(lambda v: MRat(v[0], v[1])),
}
SUBS_VALUES["mixed"] = st.one_of(*SUBS_VALUES.values())


@pytest.mark.parametrize("kind", sorted(SUBS_VALUES))
@settings(max_examples=10, deadline=None)
@given(data=st.data(), p=_polys(), q=_cofactor, d=_factor)
def test_subs_matches_sympy_cancel(kind, data, p, q, d):
    sp, syms = _sympy()
    names = data.draw(st.lists(st.sampled_from(ORACLE_CTX.names), min_size=1, max_size=2,
                               unique=True))
    values = {n: data.draw(SUBS_VALUES[kind]) for n in names}
    theirs = {syms[ORACLE_CTX.index(n)]: _to_sympy(v.num) / _to_sympy(v.den)
              for n, v in values.items()}

    def subs(expr):
        return sp.cancel(expr.subs(theirs, simultaneous=True))

    _assert_canonical_as_sympy(p.subs(values), subs(_to_sympy(p)))
    r = MRat(q, d)
    den = subs(_to_sympy(r.den))
    if den == 0:
        with pytest.raises(DivisionByZero):
            r.subs(values)
    else:
        _assert_canonical_as_sympy(r.subs(values), subs(_to_sympy(r.num)) / den)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=_polys(max_terms=6), q=_cofactor, d=_factor)
def test_constants_substituted_in_one_pass_match_horner(data, p, q, d):
    """Substitution puts constant values in with one pass over the terms;
    the Horner scheme over MRat with every value, constants included, is
    the reference."""
    names = data.draw(st.lists(st.sampled_from(ORACLE_CTX.names), min_size=1, max_size=3,
                               unique=True))
    values = {n: data.draw(SUBS_VALUES["constant" if i == 0 else "mixed"])
              for i, n in enumerate(names)}

    def horner(poly):
        return algebra._horner(poly, values, MRat.from_poly)

    assert p.subs(values) == horner(p)
    r = MRat(q, d)
    den = horner(r.den)
    if den.is_zero():
        with pytest.raises(DivisionByZero):
            r.subs(values)
    else:
        assert r.subs(values) == horner(r.num) / den


def test_subs_errors():
    x, t = ORACLE_CTX.poly_var("x"), ORACLE_CTX.var("t")
    other = _context(("x", "fiber"), ("t", "time"))
    for value in (other.rat(2), other.var("t"), other.var("t") / (other.var("t") + other.rat(1))):
        with pytest.raises(ValueError, match="context mismatch"):
            x.subs({"x": value})
    with pytest.raises(KeyError):
        x.subs({"z": t})  # undeclared, even though x is free of it
    one = ORACLE_CTX.rat(1)
    with pytest.raises(DivisionByZero):  # rational value: x*t - t - 1 -> 0
        (one / (MRat.from_poly(x) * t - t - one)).subs({"x": one + one / t})
    with pytest.raises(DivisionByZero):  # polynomial value: x - 1 -> 0
        (one / (MRat.from_poly(x) - one)).subs({"x": one})


def test_mrat_subs_of_uninvolved_symbols_returns_the_operand():
    t, a, one = ORACLE_CTX.var("t"), ORACLE_CTX.var("a"), ORACLE_CTX.rat(1)
    r = (t * t + a) / (t - one)
    assert r.subs({"x": t + a}) is r
    assert r.subs({}) is r
    assert r.subs({"x": t, "a": one + one}) == (t * t + one + one) / (t - one)


def test_mrat_subs_of_an_undeclared_symbol_raises():
    t = ORACLE_CTX.var("t")
    r = t / (t + ORACLE_CTX.rat(1))
    for values in ({"z": t}, {"t": t, "z": t}, {"x": t, "z": t}):
        with pytest.raises(KeyError, match="'z' not declared"):
            r.subs(values)


# -- substitution one denominator at a time ----------------------------------

GROUP_CTX = _context(("x", "fiber"), ("t", "time"), ("a", "parameter"),
                     *((f"u{i}", "unknown") for i in range(1, 5)))


def _in_group_ctx(polys):
    return polys.map(lambda p: p.lift(GROUP_CTX))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p0=_in_group_ctx(_cofactor), base=_in_group_ctx(_factor),
       zero_group=st.booleans())
def test_linear_substitution_by_denominator_groups_matches_horner(data, p0, base, zero_group):
    """p = p0 + sum c_u * u, linear in 2 to 4 names with rational values,
    goes in one denominator at a time: values whose denominators are equal,
    one a multiple of another, or coprime; with zero_group, the first two
    names form a group whose numerator cancels to 0.  A polynomial value for
    x and a constant one for a may come along.  The Horner scheme over MRat
    and SymPy's cancel are the references."""
    names = ["u1", "u2", "u3", "u4"][:data.draw(st.integers(2, 4))]
    kinds = ["multiple", "coprime"] if zero_group else ["equal", "multiple", "coprime"]
    values = {}
    for n in names:
        kind = "equal" if zero_group and n in ("u1", "u2") else data.draw(st.sampled_from(kinds))
        den = {"equal": lambda: base,
               "multiple": lambda: base * data.draw(_in_group_ctx(_factor)),
               "coprime": lambda: data.draw(_in_group_ctx(_factor))}[kind]()
        values[n] = MRat(data.draw(_in_group_ctx(_nonzero)), den)
    coeffs = [data.draw(_in_group_ctx(_cofactor)) for _ in names]
    if zero_group:
        v1, v2 = values["u1"], values["u2"]
        assume(v1.den == v2.den)
        k = data.draw(_in_group_ctx(_nonzero))
        coeffs[:2] = k * v2.num, -(k * v1.num)
    if data.draw(st.booleans()):
        values["x"] = MRat.from_poly(data.draw(_in_group_ctx(_cofactor)))
    if data.draw(st.booleans()):
        values["a"] = GROUP_CTX.rat(data.draw(st.fractions(-3, 3, max_denominator=3)))
    p = p0
    for n, c in zip(names, coeffs):
        p = p + c * GROUP_CTX.poly_var(n)
    rational = [n for n in algebra._active(p, names) if not algebra._is_one(values[n].den)]
    assert algebra._linear_parts(p, rational) is not None
    result = p.subs(values)
    assert result == algebra._horner(p, values, MRat.from_poly)
    sp, syms = _sympy(GROUP_CTX)
    theirs = {syms[GROUP_CTX.index(n)]: _to_sympy(v.num) / _to_sympy(v.den)
              for n, v in values.items()}
    _assert_canonical_as_sympy(result, sp.cancel(_to_sympy(p).subs(theirs, simultaneous=True)))


# gcd_cofactors calls while recover substitutes the solved unknowns into dx/dt
# and dy/dt of the generic family, for each builtin scheme; the Horner scheme
# over MRat made 21/16, 21/16, 18/13, 10/10 and 12/7
FAMILY_FIELD_GCDS = {"pvi": [4, 4], "gen-pvi": [4, 4], "gen-pv": [3, 1], "gen-piv": [1, 1],
                     "gen-piii": [3, 1]}


@pytest.mark.parametrize("name", sorted(FAMILY_FIELD_GCDS))
def test_family_field_substitution_runs_one_gcd_per_denominator(monkeypatch, name):
    from grs.catalog import get_scheme
    from grs.recovery import _solve_scheme

    _, family, sol, _, _ = _solve_scheme(get_scheme(name).scheme)
    real, calls = algebra.gcd_cofactors, []

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(algebra, "gcd_cofactors", counting)
    counts = []
    for component in family.vf.components():
        calls.clear()
        component.subs(sol.assignments)
        counts.append(len(calls))
    assert counts == FAMILY_FIELD_GCDS[name]


def test_symmetry_residual_keeps_the_horner_scheme(monkeypatch):
    """pi3 of gen-pvi sends x to 1/x and t to 1/t, whose powers the field
    holds: no substitution of its residual is linear in the rational values."""
    from grs.catalog import get_maps, get_system
    from grs.symmetry import invariance_residual

    real, shapes = algebra._linear_parts, []

    def spy(p, names):
        parts = real(p, names)
        shapes.append(parts is not None)
        return parts

    monkeypatch.setattr(algebra, "_linear_parts", spy)
    pi3 = next(m for m in get_maps("gen-pvi") if m.name == "pi3")
    invariance_residual(get_system("gen-pvi").vf, pi3)
    assert shapes and not any(shapes)


# -- the coprimality certificate in front of the exact gcd -------------------


def _shared(a, b):
    return set(a.variables()) & set(b.variables())


@settings(max_examples=60, deadline=None)
@given(_nonzero, _nonzero, _factor)
def test_certificate_never_passes_a_planted_common_factor(a, b, g):
    a, b = a * g, b * g
    assert not algebra._coprime_certified(a, b, _shared(a, b))


def test_certificate_falls_through_when_a_leading_coefficient_vanishes():
    """g = x*t - r_x*t - r_t*x is constant at t = r_t as a polynomial in x,
    and at x = r_x as one in t, so both images of g*(x+1) and g*(x+2) are
    coprime; only the degree check stands between them and a wrong answer."""
    residues, _ = algebra._residues(len(ORACLE_CTX))
    x, t = ORACLE_CTX.poly_var("x"), ORACLE_CTX.poly_var("t")
    rx, rt = residues[ORACLE_CTX.index("x")], residues[ORACLE_CTX.index("t")]
    g = x * t - t.scale(rx) - x.scale(rt)
    one = ORACLE_CTX.poly(1)
    a, b = g * (x + one), g * (x + one + one)
    assert not algebra._coprime_certified(a, b, _shared(a, b))
    assert poly_gcd(a, b) == g.primitive()


def test_certificate_falls_through_when_the_prime_divides_a_denominator():
    x, t = ORACLE_CTX.poly_var("x"), ORACLE_CTX.poly_var("t")
    a = x * t + ORACLE_CTX.poly(Fraction(1, algebra._PRIME))
    b = x + t
    assert not algebra._coprime_certified(a, b, _shared(a, b))
    assert algebra._coprime_certified(x * t + ORACLE_CTX.poly(1), b, _shared(a, b))
    assert poly_gcd(a, b) == ORACLE_CTX.poly(1)


def _image_mod_p(p, point):
    """p at ``point`` mod the certificate's prime, one Fraction term at a time."""
    prime = algebra._PRIME
    return sum(c.numerator * pow(c.denominator, -1, prime)
               * math.prod(pow(point[i], k, prime) for i, k in enumerate(e))
               for e, c in p.terms.items()) % prime


@settings(max_examples=60, deadline=None)
@given(_polys(), _nonzero, st.integers(0, algebra._PRIME - 1))
def test_rat_image_is_the_value_and_partials_mod_p(num, den, a):
    """x and t at their fixed residues, a anywhere: the image and the partials
    in x and t are those of the exact quotient and its derivatives."""
    point = algebra._residues(len(ORACLE_CTX))[0][:len(ORACLE_CTX)]
    point[ORACLE_CTX.index("a")] = a
    r = MRat(num, den)
    tables = algebra._power_tables(point)
    if not _image_mod_p(r.den, point):
        with pytest.raises(DivisionByZero):
            algebra._rat_image(r, tables)
        return
    want = [r] + [r.derivative(n) for n in ("x", "t")]
    assert algebra._rat_image(r, tables, [ORACLE_CTX.index(n) for n in ("x", "t")]) == [
        _image_mod_p(q.num, point) * pow(_image_mod_p(q.den, point), -1, algebra._PRIME)
        % algebra._PRIME for q in want]


def test_rat_image_refuses_a_denominator_the_prime_divides():
    tables = algebra._power_tables(algebra._residues(len(ORACLE_CTX))[0][:len(ORACLE_CTX)])
    with pytest.raises(DivisionByZero):
        algebra._rat_image(ORACLE_CTX.rat(Fraction(1, 2 * algebra._PRIME)), tables)
    assert algebra._rat_image(ORACLE_CTX.rat(Fraction(algebra._PRIME, 2)), tables) == [0]


_dense_factor = _polys(min_terms=3, max_terms=3, constant=False, degree=2)


@settings(max_examples=15, deadline=None)
@given(_dense_factor, _dense_factor, _dense_factor, _dense_factor)
def test_poly_gcd_of_dense_coprime_products_matches_sympy(f1, f2, f3, f4):
    """Products of two 3-term factors of degree <= 2 in x, t, a; the exact
    path alone spends up to minutes on such a pair."""
    sp, _ = _sympy()
    a, b = f1 * f2, f3 * f4
    theirs = _from_sympy(sp.gcd(_to_sympy(a), _to_sympy(b)))
    assume(not any(any(e) for e in theirs))
    assert poly_gcd(a, b).terms == _unit_free(theirs)[0]


KERNEL_CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "kernel.jsonl"


def _corpus_gcd_pairs():
    """The gcd operands of the frozen kernel corpus (format: perfbench/corpus.py)."""
    if not KERNEL_CORPUS.exists():
        pytest.skip("kernel corpus not present")
    with open(KERNEL_CORPUS) as fh:
        header = json.loads(fh.readline())
        contexts = [Context([algebra.Sym(n, k) for n, k in c]) for c in header["contexts"]]
        ops = [json.loads(line) for line in fh]

    def decode(ctx, data):
        terms = {}
        for coeff, sparse in data:
            e = [0] * len(ctx)
            for i, k in sparse:
                e[i] = k
            terms[tuple(e)] = Fraction(coeff)
        return MPoly(ctx, terms)

    return [(decode(contexts[op["ctx"]], op["args"][0]), decode(contexts[op["ctx"]], op["args"][1]))
            for op in ops if op["kind"] == "gcd"]


def test_corpus_gcds_are_unchanged_by_the_certificate(monkeypatch):
    """Every gcd of the kernel corpus equals the exact path's, and every pair
    the certificate passes, at any depth of the recursion, has a constant gcd."""
    pairs = _corpus_gcd_pairs()
    assert pairs
    certify = algebra._coprime_certified
    passed = []

    def recording(a, b, shared):
        ok = certify(a, b, shared)
        if ok:
            passed.append((a, b))
        return ok

    monkeypatch.setattr(algebra, "_coprime_certified", recording)
    with_certificate = [poly_gcd(a, b) for a, b in pairs]
    assert passed
    monkeypatch.setattr(algebra, "_coprime_certified", lambda a, b, shared: False)
    assert [poly_gcd(a, b) for a, b in pairs] == with_certificate
    assert all(poly_gcd(a, b).is_constant() for a, b in passed)


def _sympy_gcd(a, b):
    """sympy.gcd of a and b as a unit-free term dict in the kernel's exponents.

    SymPy gets only the symbols of a's context that a or b involves, so the
    pair needs no fixed oracle context and SymPy no unused generators."""
    sp = pytest.importorskip("sympy")
    idx = [i for i, n in enumerate(a.ctx.names) if n in set(a.variables()) | set(b.variables())]
    gens = [sp.Symbol(a.ctx.names[i]) for i in idx] or [sp.Symbol("_")]

    def to_sympy(p):
        return sp.Poly.from_dict({tuple(e[i] for i in idx) or (0,): sp.Rational(c.numerator, c.denominator)
                                  for e, c in p.terms.items()}, *gens, domain="QQ")

    terms = {}
    for mono, c in to_sympy(a).gcd(to_sympy(b)).terms():
        c = sp.Rational(c)
        if c:
            e = [0] * len(a.ctx)
            for i, k in zip(idx, mono):
                e[i] = k
            terms[tuple(e)] = Fraction(int(c.p), int(c.q))
    return _unit_free(terms)[0]


def test_corpus_gcds_match_sympy():
    """Every gcd of the kernel corpus, in the symbols of its own context."""
    pairs = _corpus_gcd_pairs()
    assert pairs
    for a, b in pairs:
        assert poly_gcd(a, b).terms == _sympy_gcd(a, b)


ONE_SIDED_CTX = Context([algebra.Sym(n, k) for n, k in (
    ("t", "time"), ("n1", "unknown"), ("n2", "unknown"), ("a9", "parameter"), ("a10", "parameter"))])


def _captured_pair():
    """A pair from the gen-pvi scheme with point 0 at t^5: a9 and a10 occur
    in the first operand only, and the gcd is t - 1."""
    a = ONE_SIDED_CTX.parse(
        "-t^14*n1*n2*a9 - t^14*n1*n2*a10 + t^10*n1*n2*a9 + t^10*n1*n2*a10 + t^9*n1*n2*a9"
        " - t^5*n1*n2*a9 + t^4*n1*n2*a10 - n1*n2*a10").num
    b = ONE_SIDED_CTX.parse("t^10*n1 - t^9*n1 - t^4*n2 + n2").num
    return a, b


def test_gcd_takes_the_content_in_one_sided_symbols_first(monkeypatch):
    """The first operand's content in a9, a10 (n1*n2*(t - 1)) stands in for
    it; a PRS in t on the whole pair made 59,999 nested gcd calls."""
    a, b = _captured_pair()
    core = algebra._gcd_core
    calls = []

    def counting(p, q):
        calls.append(1)
        return core(p, q)

    monkeypatch.setattr(algebra, "_gcd_core", counting)
    assert poly_gcd(a, b) == ONE_SIDED_CTX.parse("t - 1").num
    assert len(calls) <= 8


def test_captured_one_sided_pair_matches_sympy():
    a, b = _captured_pair()
    assert poly_gcd(a, b).terms == _sympy_gcd(a, b)


U3_CTX = Context.make(parameters=["p"])  # symbols x, y, t, p


def _u3_rewrite_pair():
    """dy/dt of the U0 field dx/dt = -x^2*y*t - x^3 - 3/2*y^2 + 3/2*t,
    dy/dt = -y/(x^2 + y*t) on S_2 with twist 2/(p + 1), rewritten into U3,
    and its numerator and denominator times x^3*y^3*(p + 1)^2."""
    from grs.surface import PlaneVectorField, SurfaceModel, chart_transform

    model = SurfaceModel(2, (U3_CTX.parse("2/(p + 1)"),))
    vf = PlaneVectorField(U3_CTX.parse("-x^2*y*t - x^3 - 3/2*y^2 + 3/2*t"),
                          U3_CTX.parse("-y/(x^2 + y*t)"), "U0", model)
    c = chart_transform(vf, "U3").dydt
    g = U3_CTX.parse("x^3*y^3*(p + 1)^2").num
    return c, c.num * g, c.den * g


def test_prs_gcd_of_a_u3_rewrite_pair_stays_small(monkeypatch):
    """The gcd x^3*y^3*(p + 1)^2 runs nested PRSs in y, p, x and t; on dicts
    of coefficients they took 7-11 s and about 265,000 products, on MPoly 757."""
    c, a, b = _u3_rewrite_pair()
    assert (len(a.packed), len(b.packed)) == (151, 20)
    prs, products = [], []
    real_prs, real_mul = algebra._prs_gcd, MPoly.__mul__
    monkeypatch.setattr(algebra, "_prs_gcd", lambda *args: prs.append(1) or real_prs(*args))
    monkeypatch.setattr(MPoly, "__mul__", lambda p, q: products.append(1) or real_mul(p, q))
    g, qa, qb = gcd_cofactors(a, b)
    assert g == U3_CTX.parse("x^3*y^3*p^2 + 2*x^3*y^3*p + x^3*y^3").num
    unit = (Fraction(max(qa.packed.items())[1], qa.den)
            / Fraction(max(c.num.packed.items())[1], c.num.den))
    assert (qa, qb) == (c.num.scale(unit), c.den.scale(unit))
    assert prs and len(products) <= 5000


def test_u3_rewrite_pair_gcd_matches_sympy():
    _, a, b = _u3_rewrite_pair()
    assert poly_gcd(a, b).terms == _sympy_gcd(a, b)


def _prem_polys(names):
    """Nonzero polynomials of degree <= 3 per symbol in the named symbols of ORACLE_CTX."""
    monomials = st.tuples(*[st.integers(0, 3) if n in names else st.just(0) for n in ORACLE_CTX.names])
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)
    return st.dictionaries(monomials, coeffs, min_size=1, max_size=4).map(
        lambda terms: MPoly(ORACLE_CTX, terms))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("x", "t"), ("x", "t", "a")]).flatmap(
    lambda names: st.tuples(_prem_polys(names), _prem_polys(names), st.sampled_from(names))))
def test_pseudo_rem_matches_sympy_prem(operands):
    """SymPy's prem multiplies a by lc_v(b)^(deg_v(a) - deg_v(b) + 1); the
    kernel's pseudo-remainder may use a lower power of lc_v(b)."""
    a, b, v = operands
    assume(b.degree_in(v) > 0)
    sp, syms = _sympy()
    sv = syms[ORACLE_CTX.index(v)]
    ours = algebra._pseudo_rem(a, b, v)
    assert ours.is_zero() or ours.degree_in(v) < b.degree_in(v)
    theirs = sp.prem(_to_sympy(a), _to_sympy(b), sv)
    lead = sp.Poly(_to_sympy(b), sv).LC()
    powers = range(max(a.degree_in(v) - b.degree_in(v) + 1, 0) + 1)
    assert any(sp.expand(theirs - lead ** j * _to_sympy(ours)) == 0 for j in powers)


PLANT_CTX = _context(("x", "fiber"), ("t", "time"), ("a", "parameter"), ("b", "parameter"))


def _plant_polys(names):
    """Nonzero polynomials of degree <= 1 per symbol in the named symbols of PLANT_CTX."""
    monomials = st.tuples(*[st.integers(0, 1) if n in names else st.just(0) for n in PLANT_CTX.names])
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)
    return st.dictionaries(monomials, coeffs, min_size=1, max_size=4).map(
        lambda terms: MPoly(PLANT_CTX, terms))


@settings(max_examples=40, deadline=None)
@given(_plant_polys(["x", "t"]), _plant_polys(["x", "t", "a"]), _plant_polys(["x", "t", "b"]))
def test_planted_gcd_with_one_sided_symbols_matches_sympy(g, f1, f2):
    """g*f1 and g*f2 where a occurs only in the first operand and b only in
    the second: each operand's content in its own extra symbol must keep g."""
    assume(not g.is_constant() and f1.involves(["a"]) and f2.involves(["b"]))
    a, b = g * f1, g * f2
    ours = poly_gcd(a, b)
    assert ours.terms == _sympy_gcd(a, b)
    assert exact_divide(ours, g.primitive()) is not None


# -- the gcd with its cofactors ------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(_polys(), _polys())
def test_gcd_cofactors_match_sympy(a, b):
    sp, syms = _sympy()
    assume(not (a.is_zero() and b.is_zero()))
    g, ca, cb = gcd_cofactors(a, b)
    h, cfa, cfb = (f.as_expr() for f in sp.Poly(_to_sympy(a), *syms, domain="QQ").cofactors(
        sp.Poly(_to_sympy(b), *syms, domain="QQ")))
    assert g.terms == _unit_free(_from_sympy(h))[0]
    # h = unit * g, so a/g = unit * cfa
    unit = sp.cancel(h / _to_sympy(g))
    assert unit.is_number
    assert (ca.terms, cb.terms) == (_from_sympy(sp.expand(unit * cfa)),
                                    _from_sympy(sp.expand(unit * cfb)))


_monomial = st.tuples(*[st.integers(0, 2)] * 3).map(lambda e: MPoly(ORACLE_CTX, {e: 1}))
_scaling = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@settings(max_examples=60, deadline=None)
@given(_factor, _cofactor, _cofactor, _monomial, _monomial, _scaling, _scaling)
def test_gcd_cofactors_multiply_back(g, p, q, ma, mb, ra, rb):
    """a = g*p*ma*ra and b = g*q*mb*rb: a constant p or q sends the pair
    down the divisibility shortcut, the monomials give it a monomial content,
    and the scalings a unit between the core gcd and its primitive form."""
    a, b = (g * p * ma).scale(ra), (g * q * mb).scale(rb)
    gcd, ca, cb = gcd_cofactors(a, b)
    assert gcd == poly_gcd(a, b) == gcd.primitive()
    assert gcd * ca == a and gcd * cb == b
    assert exact_divide(gcd, g.primitive()) is not None


def test_gcd_cofactors_of_zero_operands():
    x, one = ORACLE_CTX.poly_var("x"), ORACLE_CTX.poly(1)
    zero = ORACLE_CTX.poly(0)
    b = (x + one).scale(Fraction(-3, 2))
    assert gcd_cofactors(zero, b) == (x + one, zero, ORACLE_CTX.poly(Fraction(-3, 2)))
    assert gcd_cofactors(b, zero) == (x + one, ORACLE_CTX.poly(Fraction(-3, 2)), zero)
    assert gcd_cofactors(zero, zero) == (zero, zero, zero)


def test_gcd_across_contexts_raises():
    """x*t in (x, t) and x in (t, x) share the factor x by name, and x + 1
    and t + 1 live in two contexts; neither has a gcd to return."""
    xt = Context([algebra.Sym("x", "fiber"), algebra.Sym("t", "time")])
    tx = Context([algebra.Sym("t", "time"), algebra.Sym("x", "fiber")])
    one = ORACLE_CTX.poly(1)
    pairs = [(xt.poly_var("x") * xt.poly_var("t"), tx.poly_var("x")),
             (xt.poly_var("x") + xt.poly(1), ORACLE_CTX.poly_var("t") + one),
             (xt.poly(0), tx.poly_var("x")), (xt.poly(2), tx.poly_var("x"))]
    for a, b in pairs:
        for fn in (poly_gcd, gcd_cofactors):
            with pytest.raises(ValueError, match="context mismatch"):
                fn(a, b)


def _dividing_pair():
    """(f, f*h) with f and h sharing symbols, coprime images and no monomial content."""
    x, t, a = (ORACLE_CTX.poly_var(n) for n in ("x", "t", "a"))
    one = ORACLE_CTX.poly(1)
    f = x * t + a + one
    return f, f * (t * a - x + one)


def test_a_dividing_pair_never_reaches_the_certificate(monkeypatch):
    f, fh = _dividing_pair()
    monkeypatch.setattr(algebra, "_coprime_certified", lambda a, b, shared: pytest.fail(
        "the certificate ran on a pair where one operand divides the other"))
    for a, b in ((f, fh), (fh, f), (f.scale(Fraction(-2, 3)), fh.scale(5))):
        g, ca, cb = gcd_cofactors(a, b)
        assert g == f and g * ca == a and g * cb == b


def test_cancel_of_a_dividing_pair_divides_once(monkeypatch):
    f, fh = _dividing_pair()
    divide = algebra.exact_divide
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return divide(a, b)

    monkeypatch.setattr(algebra, "exact_divide", counting)
    assert algebra._cancel(f, fh) == (ORACLE_CTX.poly(1), divide(fh, f))
    assert calls == [(fh, f)]


# -- packed exponent keys against a tuple-keyed reference ---------------------
#
# The reference keeps a polynomial as {exponent tuple: Fraction}, as the
# kernel once stored it, and computes every operation from the tuples.

WIDE_CTX = Context.make(parameters=[f"p{i}" for i in range(20)],
                        unknowns=[f"u{i}" for i in range(20)])  # 43 symbols
# small exponents, and some at and around 2^7 and 2^8
_EXPONENTS = st.integers(1, 3) | st.sampled_from([127, 128, 255, 256, 257])


def _ref_polys(ctx, max_terms=4):
    """Pairs (MPoly, reference dict) with up to three symbols per term."""
    n = len(ctx)
    monomial = st.dictionaries(st.integers(0, n - 1), _EXPONENTS, max_size=3).map(
        lambda sparse: tuple(sparse.get(i, 0) for i in range(n)))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    return st.dictionaries(monomial, coeffs, max_size=max_terms).map(
        lambda terms: (MPoly(ctx, terms), dict(terms)))


def _grlex(e):
    return (sum(e), e)


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_divide(a, b, budget=200):
    """a/b by leading terms in graded-lex order, or None if b does not divide
    a; ``...`` if that takes more than ``budget`` steps."""
    rem, quotient = dict(a), {}
    lead = max(b, key=_grlex)
    while rem:
        if len(quotient) == budget:
            return ...
        e = max(rem, key=_grlex)
        q = tuple(i - j for i, j in zip(e, lead))
        if min(q) < 0:
            return None
        quotient[q] = rem[e] / b[lead]
        rem = _ref_add(rem, _ref_mul({q: -quotient[q]}, b))
    return quotient


def _ref_render(ctx, a):
    if not a:
        return "0"
    text = ""
    for e in sorted(a, key=_grlex, reverse=True):
        c = a[e]
        factors = [name if k == 1 else f"{name}^{k}" for name, k in zip(ctx.names, e) if k]
        size = str(abs(c))
        body = "*".join(factors) if factors and abs(c) == 1 else "*".join([size] + factors)
        text += ("-" if c < 0 else "") if not text else (" - " if c < 0 else " + ")
        text += body
    return text


def _ref_variables(ctx, a):
    return tuple(n for i, n in enumerate(ctx.names) if any(e[i] for e in a))


@pytest.mark.parametrize("ctx", [ORACLE_CTX, WIDE_CTX], ids=["3 symbols", "43 symbols"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_keys_match_the_tuple_reference(ctx, data):
    (a, ra), (b, rb), (c, rc) = (data.draw(_ref_polys(ctx)) for _ in range(3))
    names = data.draw(st.lists(st.sampled_from(ctx.names), min_size=1, max_size=3, unique=True))
    idx = [ctx.index(n) for n in names]
    n = len(ctx)
    assert (a * b).terms == _ref_mul(ra, rb)
    assert (a + b).terms == _ref_add(ra, rb)
    assert str(a) == _ref_render(ctx, ra) and str(a * b) == _ref_render(ctx, _ref_mul(ra, rb))
    # exact division: a divisor, a likely non-divisor and an arbitrary pair;
    # the kernel takes the reference's steps or fewer, so a pair on which the
    # reference runs long (a chain of monomials of high degree) is left out
    if c.is_zero():
        with pytest.raises(DivisionByZero):
            exact_divide(a, c)
    else:
        for num in (_ref_mul(ra, rc), _ref_add(_ref_mul(ra, rc), rb), ra):
            want = _ref_divide(num, rc)
            if want is not ...:
                got = exact_divide(MPoly(ctx, num), c)
                assert (None if got is None else got.terms) == want
    # the monomial content, taken out and put back
    mono = tuple(map(min, zip(*ra))) if ra else (0,) * n
    assert MPoly(ctx, {mono: 1}).terms == {mono: 1} == _canonical_mono(ctx, a.monomial_gcd())
    assert a.shift_down(a.monomial_gcd()).terms == {
        tuple(i - j for i, j in zip(e, mono)): c for e, c in ra.items()}
    assert a.is_constant() == (len(ra) <= 1 and not any(map(any, ra)))
    assert a.variables() == _ref_variables(ctx, ra)
    assert algebra._active(a, names) == [m for m in names if m in _ref_variables(ctx, ra)]
    assert a.involves(names) == any(e[i] for e in ra for i in idx)
    i = idx[0]
    univariate = {}
    for e, coeff in ra.items():
        univariate.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = coeff
    assert {d: p.terms for d, p in a.as_univariate(names[0]).items()} == dict(
        sorted(univariate.items()))
    assert a.derivative(names[0]).terms == {
        e[:i] + (e[i] - 1,) + e[i + 1:]: coeff * e[i] for e, coeff in ra.items() if e[i]}
    groups = {}
    for e, coeff in ra.items():
        key = tuple(k if j in idx else 0 for j, k in enumerate(e))
        groups.setdefault(key, {})[tuple(0 if j in idx else k for j, k in enumerate(e))] = coeff
    assert [g.terms for g in algebra.coefficients_in(a, names)] == list(groups.values())
    # constants put in by _subs_constants
    values = dict(zip(names, data.draw(st.lists(
        st.fractions(-2, 2, max_denominator=3), min_size=len(names), max_size=len(names)))))
    substituted = {}
    for e, coeff in ra.items():
        weight = math.prod(values[ctx.names[j]] ** e[j] for j in idx)
        key = tuple(0 if j in idx else k for j, k in enumerate(e))
        substituted[key] = substituted.get(key, 0) + coeff * weight
    if not ra:
        return
    assert algebra._subs_constants(a, values).terms == {e: v for e, v in substituted.items() if v}
    # images modulo the prime at the fixed residues, in storage order
    residues = algebra._residues(n)[0]
    p = algebra._PRIME
    assert [m for _, m in algebra._term_images(a)] == [
        coeff.numerator * pow(coeff.denominator, -1, p)
        * math.prod(pow(r, k, p) for r, k in zip(residues, e)) % p for e, coeff in ra.items()]


def _canonical_mono(ctx, key):
    return algebra._canonical(ctx, {key: 1}, 1).terms


def test_degree_limit_of_packed_keys():
    """A product at the largest degree is formed; one past it raises, with a
    one-line message, and is never wrapped into another monomial."""
    ctx = ORACLE_CTX
    top = MPoly(ctx, {(algebra.MAX_DEGREE - 1, 0, 0): 1})
    t = ctx.poly_var("t")
    at_limit = top * t
    assert at_limit.terms == {(algebra.MAX_DEGREE - 1, 1, 0): 1}
    assert exact_divide(at_limit, t) == top
    assert at_limit.shift_down(at_limit.monomial_gcd()) == ctx.poly(1)
    for past in (lambda: at_limit * t, lambda: top * top,
                 lambda: MPoly(ctx, {(algebra.MAX_DEGREE, 0, 1): 1})):
        with pytest.raises(algebra.DegreeOverflow) as exc:
            past()
        assert isinstance(exc.value, algebra.AlgebraError)
        assert "\n" not in str(exc.value) and str(algebra.MAX_DEGREE) in str(exc.value)
    with pytest.raises(ValueError):
        MPoly(ctx, {(1, -1, 0): 1})
