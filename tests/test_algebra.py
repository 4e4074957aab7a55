"""Exact arithmetic kernel tests: canonical forms, gcd, triangular solve."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grs.algebra import (MAX_NESTING, Context, DivisionByZero, InconsistentSystem, MPoly,
                         MRat, Mat2, ParseError, StuckSystem, parse_rat, poly_gcd,
                         solve_triangular, split_content, exact_divide)


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
    ctx = Context.make()
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


def test_parser_nesting_budget(ctx):
    """The deepest accepted nesting parses; one level more, or thousands
    (which would exhaust the recursion limit), is a ParseError."""
    nested = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
    assert parse_rat(ctx, nested) == ctx.var("t")
    for depth in (MAX_NESTING + 1, 5000):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}"):
            parse_rat(ctx, "(" * depth + "t" + ")" * depth)


def test_grlex_rendering_deterministic():
    ctx = Context.make(parameters=["alpha"])
    x, y, t, a = (ctx.var(n) for n in ("x", "y", "t", "alpha"))
    p = y * x + x * x + t * a + x + ctx.rat(Fraction(1, 2))
    assert str(p) == "x^2 + x*y + t*alpha + x + 1/2"


def test_mat2_triangular_assertion(ctx):
    one, zero = ctx.rat(1), ctx.rat(0)
    with pytest.raises(ValueError):
        Mat2([[one, one], [one, one]], triangular="upper")
    m = Mat2([[one, one], [zero, one]], triangular="upper")
    assert m.eigenvalues() == (one, one)


def test_rename_and_lift(ctx):
    t = ctx.var("t")
    a = ctx.var("alpha4")
    r = (t + a) / t
    renamed = r.rename({"alpha4": "beta"})
    assert "beta" in renamed.ctx
    bigger = ctx.extend(tuple())
    assert r.lift(bigger) == r


# ---------------------------------------------------------------------------
# Differential tests against SymPy (a test-only dependency): the kernel's gcd,
# exact division and canonical MRat forms must match an independent oracle.
# ---------------------------------------------------------------------------

ORACLE_CTX = Context.make(fiber=("x",), parameters=["a"])  # symbols x, t, a


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


def _sympy():
    sp = pytest.importorskip("sympy")
    return sp, sp.symbols(ORACLE_CTX.names)


def _to_sympy(p):
    sp, syms = _sympy()
    return sp.Add(*[sp.Rational(c.numerator, c.denominator)
                    * sp.Mul(*[s ** k for s, k in zip(syms, e)])
                    for e, c in p.terms.items()])


def _from_sympy(expr):
    sp, syms = _sympy()
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
    want_den, want_num = _unit_free(_from_sympy(den), _from_sympy(num))
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


def test_subs_errors():
    x, t = ORACLE_CTX.poly_var("x"), ORACLE_CTX.var("t")
    other = Context.make(fiber=("x",))
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
