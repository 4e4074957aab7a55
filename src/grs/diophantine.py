"""Natural-number solutions of the eigenvalue relations, with exact search.

Each relation is linear in its last entry and is stated once, in the table
``_SOLVED``, as that entry solved: last = num/den.  The expressions run on
ints, Fractions and polynomials alike; the arity, the exact check
(den*last == num), the box scan's integer last entry and the cleared
polynomial -num + den*n_k all read that table.  One box scan finds the
solutions among given entries: it scans the leading entries, solves the
last one exactly and re-checks the tuple.  The natural list is that scan at
NATURAL_BOUND, a bound proved below per relation, and the test of record
is the same scan at bound 100, so no case analysis is trusted blindly.  A
bounded search over signed integers is the scan over the nonzero integers
of [-bound, bound], an exploratory tool; classifying all integer solutions
is open.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from .algebra import Context, MPoly

# The last entry of each relation as num/den of the leading ones; genVI is
# 1/n1 + ... + 1/n4 = 2.  den = 0 leaves no solution on a nonzero head.
_SOLVED = {
    "genVI": lambda a, b, c: (-a * b * c, (a + b) * c + a * b - 2 * a * b * c),
    "genV": lambda n1, n2: (2 * (n1 + n2), 2 * n1 * n2 - n1 - n2),
    "genIV": lambda n1: (3 * (1 + n1), -1 + 2 * n1),
    "genIII": lambda n1: (4, n1),
}
RELATIONS = tuple(_SOLVED)

# bounded_integer_search refuses a box of more tuples than this
MAX_SEARCH = 10**7


class RelationError(Exception):
    pass


def arity(rel: str) -> int:
    if rel not in _SOLVED:
        raise RelationError(f"unknown relation {rel!r}")
    return _SOLVED[rel].__code__.co_argcount + 1


def check_relation(rel: str, values: Sequence[Fraction | int]) -> bool:
    """Exact evaluation of the relation on a rational tuple."""
    vals = [Fraction(v) for v in values]
    if len(vals) != arity(rel):
        raise RelationError(f"{rel} takes {arity(rel)} entries, got {len(vals)}")
    if rel == "genVI" and 0 in vals:
        raise RelationError("reciprocals need nonzero entries")
    num, den = _SOLVED[rel](*vals[:-1])
    return den * vals[-1] == num


def _satisfies_convention(rel: str, tup: tuple[int, ...], convention: str) -> bool:
    if convention == "all":
        return True
    if rel == "genVI":
        return all(a <= b for a, b in zip(tup, tup[1:]))
    if rel in ("genV", "genIII"):
        return tup[0] >= tup[1]
    return True


# No entry of a natural solution exceeds NATURAL_BOUND, so the box scan over
# [1, NATURAL_BOUND]^k lists them all:
# - genVI is symmetric; with a <= b <= c <= d, 4/a >= 2 gives a <= 2.  a = 2
#   leaves 1/b + 1/c + 1/d = 3/2, so 3/b >= 3/2 forces b = c = d = 2.  a = 1
#   leaves 1/b + 1/c + 1/d = 1, so b is 2 or 3, and 1/c + 1/d = 1/2 or 2/3
#   gives (c, d) = (3, 6), (4, 4) or (3, 3).
# - genV: n3 = 2(n1+n2)/(2 n1 n2 - n1 - n2); let m <= M be n1 and n2.  m = 1
#   gives n3 = 2 + 4/(M-1), so M - 1 divides 4: M <= 5 and n3 <= 6.  m >= 2
#   makes the denominator at least n1 + n2, so n3 <= 2, and n3 >= 1 needs
#   2mM <= 3(m+M), that is (2m-3)(2M-3) <= 9, so M <= 6.
# - genIV: 2 n2 = 3 + 9/(2 n1 - 1), so 2 n1 - 1 divides 9: n1 is 1, 2 or 5
#   and n2 is 6, 3 or 2.
# - genIII: n1 n2 = 4, so both entries divide 4.
NATURAL_BOUND = 6


def enumerate_natural(rel: str, convention: str) -> list[tuple[int, ...]]:
    """Complete list of natural solutions under the declared ordering convention.

    Conventions follow the classical statements: genVI is listed nondecreasing
    (the relation is fully symmetric), genV with n1 >= n2 (symmetric in the
    first two entries only), genIV needs none (the relation is asymmetric
    and has exactly three solutions), and genIII is listed with n1 >= n2 -
    the classical list has (2,2) and (4,1) but not (1,4); pass convention="all"
    for the unordered solution set.
    """
    return brute_force_box(rel, NATURAL_BOUND, convention)


def _last_entry(solved: Callable, head: tuple[int, ...]) -> int | None:
    """The integer last entry that completes the nonzero integers ``head``
    to a solution of the relation whose ``_SOLVED`` entry is ``solved``, or
    None if there is none."""
    num, den = solved(*head)
    return None if den == 0 or num % den else num // den


def _box(rel: str, entries: Sequence[int]) -> list[tuple[int, ...]]:
    """Every tuple of nonzero ``entries`` satisfying the relation, sorted.

    The leading entries are scanned and the last one is solved exactly, kept
    only when it is one of ``entries`` and re-checked by check_relation.
    """
    # arity refuses an unknown relation before _SOLVED is indexed
    heads = product(entries, repeat=arity(rel) - 1)
    members = set(entries)
    solved = _SOLVED[rel]
    out = []
    for head in heads:
        last = _last_entry(solved, head)
        if last in members and check_relation(rel, head + (last,)):
            out.append(head + (last,))
    return sorted(out)


def brute_force_box(rel: str, bound: int, convention: str) -> list[tuple[int, ...]]:
    """Every natural tuple in [1, bound]^k satisfying the relation, listed
    under the convention of enumerate_natural."""
    if convention not in ("paper", "all"):
        raise RelationError(f"unknown convention {convention!r}")
    return [t for t in _box(rel, range(1, bound + 1))
            if _satisfies_convention(rel, t, convention)]


def bounded_integer_search(rel: str, bound: int) -> list[tuple[int, ...]]:
    """All signed nonzero integer tuples with |entries| <= bound satisfying
    the relation.  Explicitly non-exhaustive: a bounded exploration, not a
    classification.  The box holds (2*bound)^k tuples; one of more than
    MAX_SEARCH raises ValueError.
    """
    if bound < 1:
        return []
    k = arity(rel)
    if (2 * bound) ** k > MAX_SEARCH:
        largest = 1
        while (2 * (largest + 1)) ** k <= MAX_SEARCH:
            largest += 1
        raise ValueError(f"{rel} search box of (2*{bound})^{k} = {(2 * bound) ** k} tuples "
                         f"exceeds the budget of {MAX_SEARCH}; the largest bound "
                         f"allowed is {largest}")
    return _box(rel, [v for v in range(-bound, bound + 1) if v != 0])


def relation_polynomial(rel: str, ctx: Context) -> MPoly:
    """The relation as the cleared polynomial -num + den*n_k in n1, n2, ...,
    built in ``ctx``, which must hold those symbols.  This is the one home of
    the relation polynomials; the builtin systems of ``catalog`` take theirs
    from here."""
    n = [ctx.poly_var(f"n{i}") for i in range(1, arity(rel) + 1)]
    num, den = _SOLVED[rel](*n[:-1])
    return -num + den * n[-1]
