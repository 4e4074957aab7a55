"""Natural-number solutions of the eigenvalue relations, with exact search.

Each relation is evaluated exactly on rational tuples.  The enumerations
use proof-backed bounds (re-derived below per relation, asserted next to the
code) and the test of record is brute force over a box, so no case analysis
is trusted blindly.  A separate bounded search over signed integers is
provided as an exploratory tool; classifying all integer solutions is open.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

RELATIONS = ("genVI", "genV", "genIV", "genIII")

# bounded_integer_search refuses a box of more tuples than this
MAX_SEARCH = 10**7


class RelationError(Exception):
    pass


class ZeroEntry(RelationError):
    pass


class ShapeMismatch(RelationError):
    pass


def arity(rel: str, n: int | None = None) -> int:
    if rel == "genVI":
        return 4
    if rel == "genV":
        return 3
    if rel in ("genIV", "genIII"):
        return 2
    if rel == "existence":
        if n is None:
            raise RelationError("existence relation needs the surface index n")
        return n + 2
    raise RelationError(f"unknown relation {rel!r}")


def check_relation(rel: str, values: Sequence[Fraction | int], n: int | None = None) -> bool:
    """Exact evaluation of the relation on a rational tuple."""
    vals = [Fraction(v) for v in values]
    if len(vals) != arity(rel, n):
        raise ShapeMismatch(f"{rel} takes {arity(rel, n)} entries, got {len(vals)}")
    if rel == "genVI":
        if any(v == 0 for v in vals):
            raise ZeroEntry("reciprocals need nonzero entries")
        return sum(1 / v for v in vals) == 2
    if rel == "genV":
        n1, n2, n3 = vals
        return 2 * n1 * n2 * n3 - (n1 + n2) * n3 - 2 * (n1 + n2) == 0
    if rel == "genIV":
        n1, n2 = vals
        return 2 * n1 * n2 - 3 * n1 - n2 - 3 == 0
    if rel == "genIII":
        n1, n2 = vals
        return n1 * n2 == 4
    if rel == "existence":
        if any(v == 0 for v in vals):
            raise ZeroEntry("reciprocals need nonzero entries")
        return sum(1 / v for v in vals) == n
    raise RelationError(f"unknown relation {rel!r}")


def _satisfies_convention(rel: str, tup: tuple[int, ...], convention: str) -> bool:
    if convention == "all":
        return True
    if rel == "genVI":
        return all(a <= b for a, b in zip(tup, tup[1:]))
    if rel == "genV":
        return tup[0] >= tup[1]
    if rel == "genIII":
        return tup[0] >= tup[1]
    return True


def enumerate_natural(rel: str, convention: str = "paper") -> list[tuple[int, ...]]:
    """Complete list of natural solutions under the declared ordering convention.

    Conventions follow the classical statements: genVI is listed nondecreasing
    (the relation is fully symmetric), genV with n1 >= n2 (symmetric in the
    first two entries only), genIV needs none (the relation is asymmetric
    and has exactly three solutions), and genIII is listed with n1 >= n2 -
    the classical list has (2,2) and (4,1) but not (1,4); pass convention="all"
    for the unordered solution set.
    """
    if convention not in ("paper", "all"):
        raise RelationError(f"unknown convention {convention!r}")
    out: list[tuple[int, ...]] = []
    if rel == "genVI":
        # nondecreasing unit-fraction enumeration: at each slot k entries
        # remain, so target <= k/n forces n <= k/target, and 1/n <= target
        # forces n >= ceil(1/target); the box is finite and complete.
        out = sorted(_unit_sum_tuples(4, Fraction(2), 1))
    elif rel == "genV":
        # n3 = 2(n1+n2)/(2 n1 n2 - n1 - n2); positivity and n3 >= 1 force
        # 2 n1 n2 <= 3(n1+n2), so min(n1,n2) <= 3 and max(n1,n2) <= 6.
        for n1 in range(1, 13):
            for n2 in range(1, 13):
                den = 2 * n1 * n2 - n1 - n2
                if den <= 0:
                    continue
                num = 2 * (n1 + n2)
                if num % den == 0:
                    out.append((n1, n2, num // den))
        out = sorted(set(out))
    elif rel == "genIV":
        # n2 = 3(n1+1)/(2 n1 - 1): 2 n1 - 1 must divide 9, so n1 in {1,2,5}.
        for n1 in range(1, 6):
            den = 2 * n1 - 1
            num = 3 * (n1 + 1)
            if den > 0 and num % den == 0:
                out.append((n1, num // den))
        out = sorted(set(out))
    elif rel == "genIII":
        out = sorted((d, 4 // d) for d in (1, 2, 4))
    else:
        raise RelationError(f"unknown relation {rel!r}")
    if convention == "all":
        # close up under the (symbolically verified) symmetry group
        group = relation_symmetry_group(rel)
        out = sorted({tuple(t[i] for i in perm) for t in out for perm in group})
    return [t for t in out if _satisfies_convention(rel, t, convention)]


def _unit_sum_tuples(k: int, target: Fraction, minimum: int) -> list[tuple[int, ...]]:
    """Nondecreasing k-tuples of naturals whose reciprocals sum to target."""
    if target <= 0:
        return []
    if k == 1:
        if target.numerator == 1 and target.denominator >= minimum:
            return [(target.denominator,)]
        return []
    lo = max(minimum, -((-target.denominator) // target.numerator))  # ceil(1/target)
    hi = (k * target.denominator) // target.numerator  # floor(k/target)
    out = []
    for n in range(lo, hi + 1):
        for rest in _unit_sum_tuples(k - 1, target - Fraction(1, n), n):
            out.append((n,) + rest)
    return out


def brute_force_box(rel: str, bound: int, convention: str = "paper") -> list[tuple[int, ...]]:
    """Oracle: every natural tuple in [1, bound]^k satisfying the relation.

    Equivalent to the full box scan: all coordinates but the last are
    scanned exhaustively and the last is solved exactly (each relation
    determines it uniquely, being strictly monotone / linear in it), then
    re-checked against the relation.
    """
    out = []
    if rel == "genVI":
        rng = range(1, bound + 1)
        for a in rng:
            for b in rng:
                ab = a * b
                sab = a + b
                for c in rng:
                    den = ab * c
                    num = 2 * den - (sab * c + ab)  # 2 - 1/a - 1/b - 1/c
                    if num > 0 and den % num == 0 and den // num <= bound:
                        out.append((a, b, c, den // num))
    elif rel == "genV":
        for head in product(range(1, bound + 1), repeat=2):
            n1, n2 = head
            den = 2 * n1 * n2 - n1 - n2
            num = 2 * (n1 + n2)
            if den > 0 and num % den == 0 and 1 <= num // den <= bound:
                out.append((n1, n2, num // den))
    elif rel in ("genIV", "genIII"):
        for n1 in range(1, bound + 1):
            if rel == "genIV":
                den, num = 2 * n1 - 1, 3 * (n1 + 1)
            else:
                den, num = n1, 4
            if den > 0 and num % den == 0 and 1 <= num // den <= bound:
                out.append((n1, num // den))
    else:
        raise RelationError(f"unknown relation {rel!r}")
    out = [t for t in out if check_relation(rel, t)
           and _satisfies_convention(rel, t, convention)]
    return sorted(out)


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
    values = [v for v in range(-bound, bound + 1) if v != 0]
    out = []
    for tup in product(values, repeat=k):
        if check_relation(rel, tup):
            out.append(tup)
    return sorted(out)


def relation_polynomial(rel: str, ctx=None):
    """The relation as a cleared polynomial in symbols n1, n2, ...

    Built in ``ctx`` when given (it must hold those symbols), otherwise in a
    context of the symbols alone.  This is the one home of the relation
    polynomials; the builtin systems of ``catalog`` take theirs from here.
    """
    from .algebra import Context
    k = arity(rel)
    if ctx is None:
        ctx = Context.make(fiber=(), time=None,
                           parameters=[f"n{i}" for i in range(1, k + 1)])
    n = [ctx.poly_var(f"n{i}") for i in range(1, k + 1)]
    two = ctx.poly(2)
    if rel == "genVI":
        n1, n2, n3, n4 = n
        return (n2 * n3 * n4 + n1 * n3 * n4 + n1 * n2 * n4 + n1 * n2 * n3
                - two * n1 * n2 * n3 * n4)
    if rel == "genV":
        return two * n[0] * n[1] * n[2] - (n[0] + n[1]) * n[2] - two * (n[0] + n[1])
    if rel == "genIV":
        return two * n[0] * n[1] - ctx.poly(3) * n[0] - n[1] - ctx.poly(3)
    if rel == "genIII":
        return n[0] * n[1] - ctx.poly(4)
    raise RelationError(f"unknown relation {rel!r}")


def relation_symmetry_group(rel: str) -> list[tuple[int, ...]]:
    """Index permutations leaving the relation polynomial invariant (symbolic)."""
    from itertools import permutations
    k = arity(rel)
    poly = relation_polynomial(rel)
    ctx = poly.ctx
    group = []
    for perm in permutations(range(k)):
        mapping = {f"n{i + 1}": ctx.var(f"n{perm[i] + 1}") for i in range(k)}
        if poly.subs(mapping).num == poly:
            group.append(perm)
    return group


def fuchs_relation(exponents: Sequence[Sequence], m: int, n: int) -> bool:
    """Exact check of the linear exponent-sum constraint for (m+1) regular
    singular points of an order-n equation: sum of all exponents equals
    (m-1) n (n-1) / 2.

    Entries may be Fractions or exact rational functions; the comparison is
    exact either way.
    """
    rows = [list(r) for r in exponents]
    if len(rows) != m + 1 or any(len(r) != n for r in rows):
        raise ShapeMismatch(f"need an (m+1) x n = {m + 1} x {n} exponent matrix")
    first = rows[0][0]
    if hasattr(first, "ctx"):
        ctx = first.ctx
        total = ctx.rat(0)
        for row in rows:
            for v in row:
                total = total + v
        return total == ctx.rat(Fraction((m - 1) * n * (n - 1), 2))
    total = sum(Fraction(v) for row in rows for v in row)
    return total == Fraction((m - 1) * n * (n - 1), 2)
