"""Eigenvalue relation classifications: paper lists, box oracles, conventions."""

from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from grs.algebra import Context, Sym, solve_linear
from grs.catalog import FAMILIES, get_system
from grs.diophantine import (RELATIONS, _SOLVED, RelationError, _last_entry, arity,
                             bounded_integer_search, brute_force_box, check_relation,
                             enumerate_natural, relation_polynomial)


def test_genVI_four_types():
    assert enumerate_natural("genVI", "paper") == [
        (1, 2, 3, 6), (1, 2, 4, 4), (1, 3, 3, 3), (2, 2, 2, 2)]


def test_genV_six_types():
    assert enumerate_natural("genV", "paper") == [
        (2, 1, 6), (2, 2, 2), (3, 1, 4), (3, 3, 1), (5, 1, 3), (6, 2, 1)]


def test_genIV_three_types():
    assert enumerate_natural("genIV", "paper") == [(1, 6), (2, 3), (5, 2)]


def test_genIII_both_conventions():
    assert enumerate_natural("genIII", "paper") == [(2, 2), (4, 1)]
    assert enumerate_natural("genIII", "all") == [(1, 4), (2, 2), (4, 1)]


@pytest.mark.parametrize("rel", ["genVI", "genV", "genIV", "genIII"])
def test_box_oracle_confirms_completeness(rel):
    assert brute_force_box(rel, 100, "paper") == enumerate_natural(rel, "paper")
    assert brute_force_box(rel, 100, "all") == enumerate_natural(rel, "all")


@pytest.mark.parametrize("rel", ["genVI", "genV", "genIV", "genIII"])
def test_every_enumerated_tuple_satisfies_relation(rel):
    for tup in enumerate_natural(rel, "all"):
        assert check_relation(rel, tup)


def test_check_relation_examples():
    assert check_relation("genVI", (2, 2, 2, 2))
    assert not check_relation("genVI", (3, 3, 3, 3))
    assert check_relation("genV", (2, 2, 2))  # 16 - 8 - 8 = 0


def test_check_relation_errors():
    with pytest.raises(RelationError, match="^reciprocals need nonzero entries$"):
        check_relation("genVI", (0, 2, 2, 2))
    with pytest.raises(RelationError, match="^genVI takes 4 entries, got 3$"):
        check_relation("genVI", (2, 2, 2))


def test_an_unknown_relation_is_refused_by_every_search():
    for search in (lambda: enumerate_natural("genII", "paper"),
                   lambda: brute_force_box("genII", 6, "paper"),
                   lambda: bounded_integer_search("genII", 6)):
        with pytest.raises(RelationError) as caught:
            search()
        assert type(caught.value) is RelationError
        assert str(caught.value) == "unknown relation 'genII'"


def test_an_unknown_convention_is_refused_by_both_natural_searches():
    for search in (lambda: enumerate_natural("genIII", "bogus"),
                   lambda: brute_force_box("genIII", 6, "bogus")):
        with pytest.raises(RelationError) as caught:
            search()
        assert str(caught.value) == "unknown convention 'bogus'"


def test_bounded_integer_search():
    found = bounded_integer_search("genIII", 10)
    for expected in [(-2, -2), (-1, -4), (-4, -1), (1, 4), (4, 1), (2, 2)]:
        assert expected in found
    assert bounded_integer_search("genIII", 0) == []
    # a signed genVI exploration stays exact
    tuples = bounded_integer_search("genVI", 2)
    assert (2, 2, 2, 2) in tuples
    assert all(check_relation("genVI", t) for t in tuples)
    # a box over the tuple budget is refused, naming the largest bound allowed
    with pytest.raises(ValueError, match=r"largest bound allowed is 28$"):
        bounded_integer_search("genVI", 29)
    with pytest.raises(ValueError, match=r"largest bound allowed is 107$"):
        bounded_integer_search("genV", 108)


def _full_box(rel, entries):
    """Reference scan: check_relation on every tuple of the box."""
    return sorted(t for t in product(entries, repeat=arity(rel)) if check_relation(rel, t))


# the declared paper conventions, stated independently of the module
PAPER_ORDER = {
    "genVI": lambda t: list(t) == sorted(t),
    "genV": lambda t: t[0] >= t[1],
    "genIV": lambda t: True,
    "genIII": lambda t: t[0] >= t[1],
}


@pytest.mark.parametrize("rel", RELATIONS)
def test_box_scans_equal_the_full_box(rel):
    for bound in range(-1, (4 if rel == "genVI" else 10) + 1):
        signed = [v for v in range(-bound, bound + 1) if v != 0]
        assert bounded_integer_search(rel, bound) == _full_box(rel, signed)
        naturals = _full_box(rel, range(1, bound + 1))
        assert brute_force_box(rel, bound, "all") == naturals
        assert brute_force_box(rel, bound, "paper") == [t for t in naturals if PAPER_ORDER[rel](t)]


def _symbols(rel):
    """A context of the relation's symbols n1, n2, ... alone."""
    return Context([Sym(f"n{i}", "parameter") for i in range(1, arity(rel) + 1)])


@pytest.mark.parametrize("rel", RELATIONS)
def test_last_entry_is_the_relation_polynomial_solved_for_it(rel):
    """On every nonzero head of a small signed box, _last_entry is the value
    solve_linear finds for the last symbol when that value is an integer,
    and None when it is not or does not exist."""
    poly = relation_polynomial(rel, _symbols(rel))
    k = arity(rel)
    name, value = solve_linear(poly, [f"n{k}"], [])
    assert name == f"n{k}"
    outcomes = set()
    for head in product([v for v in range(-4, 5) if v != 0], repeat=k - 1):
        point = {f"n{i + 1}": poly.ctx.rat(v) for i, v in enumerate(head)}
        den = value.den.subs(point).constant_value()
        if den == 0:
            expected, outcome = None, "no solution"
        else:
            q = value.num.subs(point).constant_value() / den
            expected = q.numerator if q.denominator == 1 else None
            outcome = "integer" if expected is not None else "not an integer"
        assert _last_entry(_SOLVED[rel], head) == expected, head
        outcomes.add(outcome)
    assert {"integer", "not an integer"} <= outcomes
    assert ("no solution" in outcomes) == (rel in ("genVI", "genV"))


_nonzero_rationals = st.fractions(-12, 12, max_denominator=5).filter(bool)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RELATIONS), st.lists(_nonzero_rationals, min_size=3, max_size=3))
def test_solved_last_entry_satisfies_the_check_and_the_polynomial(rel, entries):
    """On a nonzero rational head with den != 0, the table's num/den is a
    solution by check_relation and a zero of relation_polynomial, and the
    last entry plus one is not a solution."""
    head = tuple(entries[:arity(rel) - 1])
    num, den = _SOLVED[rel](*head)
    assume(den != 0)
    last = Fraction(num) / den
    assume(last != -1)  # last + 1 = 0 has no reciprocal in genVI
    assert check_relation(rel, head + (last,))
    poly = relation_polynomial(rel, _symbols(rel))
    point = {f"n{i + 1}": poly.ctx.rat(v) for i, v in enumerate(head + (last,))}
    assert poly.subs(point).is_zero()
    assert not check_relation(rel, head + (last + 1,))


RELATION_TEXT = {
    "gen-pvi": "-2*n1*n2*n3*n4 + n1*n2*n3 + n1*n2*n4 + n1*n3*n4 + n2*n3*n4",
    "gen-pv": "2*n1*n2*n3 - n1*n3 - n2*n3 - 2*n1 - 2*n2",
    "gen-piv": "2*n1*n2 - 3*n1 - n2 - 3",
    "gen-piii": "n1*n2 - 4",
}


@pytest.mark.parametrize("family", sorted(RELATION_TEXT))
def test_relation_polynomial_is_each_family_relation(family):
    assert str(get_system(family).relation) == RELATION_TEXT[family]
    rel = FAMILIES[family][2]
    # built in a caller's context that holds other symbols too
    ctx = Context.make(parameters=["beta", "n1", "n2", "n3", "n4", "gamma"])
    poly = relation_polynomial(rel, ctx)
    assert poly.ctx == ctx
    assert str(poly) == RELATION_TEXT[family]
    assert poly == relation_polynomial(rel, _symbols(rel)).lift(ctx)


# the entries each relation may permute; its convention lists them ordered
SYMMETRIC = {"genVI": {0, 1, 2, 3}, "genV": {0, 1}, "genIV": set(), "genIII": {0, 1}}


def test_symmetry_groups_match_declared_conventions():
    """The natural solutions are closed under swapping two entries exactly
    when the convention orders both, and permuting those entries of the
    convention's list gives every natural solution."""
    for rel in RELATIONS:
        solutions = set(enumerate_natural(rel, "all"))
        for i, j in combinations(range(arity(rel)), 2):
            swapped = {t[:i] + (t[j],) + t[i + 1:j] + (t[i],) + t[j + 1:] for t in solutions}
            assert (swapped == solutions) == ({i, j} <= SYMMETRIC[rel]), (rel, i, j)
        block = sorted(SYMMETRIC[rel])
        orbits = set()
        for t in enumerate_natural(rel, "paper"):
            for perm in permutations(block):
                u = list(t)
                for src, dst in zip(block, perm):
                    u[dst] = t[src]
                orbits.add(tuple(u))
        assert orbits == solutions, rel
