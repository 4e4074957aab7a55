"""Exact arithmetic kernel: rationals, sparse multivariate polynomials and
rational functions over Q in a declared symbol set, 2x2 matrices, and the
triangular eliminator used by scheme recovery.

Representation
--------------
A polynomial lives in a :class:`Context`, an ordered tuple of named symbols.
It is stored sparsely as integer numerators over one positive denominator:
a dict ``nums`` mapping exponent tuples (one entry per context symbol) to
nonzero ints, and an int ``den`` with gcd(den, *nums) = 1.  That pair is
unique, so equality is structural.  Products, sums, exact division and
modular images then run on ints, and each result is reduced once, by one
gcd of its denominator and numerators; ``terms`` shows the coefficients as
reduced ``Fraction``s.  The canonical term order is graded lexicographic on
the exponent tuple, which fixes printing, leading terms and golden-file
output once and for all.

Rational functions (:class:`MRat`) keep a numerator/denominator pair in
canonical form: gcd(num, den) = 1, denominator with coprime integer
coefficients and positive leading coefficient.  Every operation is pure and
no floating point is used anywhere.

GCDs are computed by content/primitive-part recursion on a chosen main
variable with a primitive pseudo-remainder sequence.  They dominate the cost
of every pipeline, so the field operations run as few and as small gcds as
the canonical form allows.  The operators rely on canonical operands and
cancel crosswise (Henrici; Knuth, TAOCP vol. 2, 4.5.1): a sum gcds only the
two denominators, and then the new numerator against their common factor; a
product gcds each numerator against the other denominator; inverses and
powers need no gcd at all.  A gcd is skipped outright when one side is
constant.  :func:`exact_divide` runs one pass over a remainder kept in a
dict and a heap of its exponents in graded-lex order (Monagan & Pearce,
J. Symb. Comp. 2011), and it rejects a non-divisor early from per-variable
degree bounds, which also makes the divisibility shortcuts in the gcd cheap
when they fail.  It divides integer numerators by the integer-primitive part
of the divisor; by Gauss's lemma that divides them over Z exactly when the
divisor divides over Q, so a coefficient division that leaves a remainder
rejects as well.  Most gcds the pipeline asks for are constant, and a
coprimality certificate settles those before any division or PRS step, at
every level of the recursion (Brown, J. ACM 1971): every symbol but one is
set to a fixed residue modulo the prime 2^61 - 1, and Euclid runs on the two
univariate images in each symbol both operands involve.  By Gauss's lemma
lc_v(gcd) divides lc_v(a), so while both leading coefficients survive the
evaluation no image gcd has a lower degree in v than the true gcd; images
coprime in every shared symbol therefore prove the gcd constant.  Any other
outcome (a vanished leading coefficient, the prime in a denominator, an image
gcd of positive degree) falls through to the exact path, the only one that
computes a nontrivial gcd.  There the divisibility shortcuts come first:
when a small operand divides a large one they return it at once, where the
content below would cost one gcd per coefficient.  Then the path takes out
the symbols that occur in one operand only (Geddes, Czapor & Labahn 1992,
ch. 7): if a involves symbols that b lacks, gcd(a, b) involves none of them,
so it divides the content of a in them (the gcd of a's coefficients as a
polynomial in those symbols), and gcd(a, b) = gcd(content, b).  A PRS in a
shared symbol would otherwise carry the one-sided symbols through every
pseudo-remainder, whose coefficients then grow with each step.  The result
is the same: a gcd made primitive with a positive leading coefficient is
unique.  Because the operators trust their operands, every
``MRat(num, den, _normalized=True)`` must receive a pair that is already
canonical; ``MRat(num, den)`` normalizes an arbitrary pair.

Substitution finds the symbols a polynomial involves in one pass over its
terms, and puts the constant values (numeric draws, parameter values) in with
one more: each distinct monomial in those symbols is weighed once, as an
integer over the common denominator of all their values, the numerators are
summed as ints, and the result is reduced once.  A Horner scheme in one
substituted symbol at a time then takes the values left.  When each of them
has denominator 1 (polynomial assignments), the scheme runs on MPoly and
wraps the result once: on such operands the MRat operators run no gcd and
form the same products and sums, so the result is the same polynomial.
:func:`solve_triangular` reduces each pending equation and each nonzero form
once per change of its assignments, never once per scan.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, itemgetter, le, mul, neg, sub
from typing import Callable, Iterable, Mapping, Sequence

Exponent = tuple[int, ...]

SYM_KINDS = ("fiber", "time", "parameter", "unknown")


class AlgebraError(Exception):
    """Base class for kernel errors."""


class DivisionByZero(AlgebraError):
    """Division of an MRat by zero."""


class StuckSystem(AlgebraError):
    """Triangular elimination found no equation linear in a single unknown.

    Carries the unsolved equations so the caller can report them, and in
    ``sources`` the source tag of each.  When solve_triangular raises it,
    ``state`` is the :class:`Elimination` at the stuck point: the pending
    equations with their reductions under the current assignments, the
    assignments, relations and trace so far, the solved unknowns and the
    version of the assignments.  ``state.branch(tag, equation)`` resumes a
    copy of it with one more equation and leaves the state itself as it is.
    """

    def __init__(self, remaining, sources, state=None):
        self.remaining = list(remaining)
        self.sources = list(sources)
        self.state = state
        super().__init__(
            "no equation is linear in a single unsolved unknown; remaining: "
            + "; ".join(str(e) for e in self.remaining)
        )


class InconsistentSystem(AlgebraError):
    """A nonzero constant equation remained after substitution."""

    def __init__(self, equation):
        self.equation = equation
        super().__init__(f"inconsistent equation: {equation} = 0")


@dataclass(frozen=True)
class Sym:
    """A named symbol with a fixed kind (fiber, time, parameter, unknown)."""

    name: str
    kind: str = "parameter"

    def __post_init__(self):
        if self.kind not in SYM_KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self.name):
            raise ValueError(f"bad symbol name {self.name!r}")


class Context:
    """Ordered symbol table shared by all polynomials of one computation.

    Symbol order is the canonical variable order: fiber variables first,
    then time, then parameters, then unknowns (the constructor does not
    enforce this; builders below do).
    """

    __slots__ = ("syms", "names", "_index", "_zero")

    def __init__(self, syms: Sequence[Sym]):
        names = [s.name for s in syms]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names in context")
        self.syms = tuple(syms)
        self.names = tuple(names)
        self._index = {n: i for i, n in enumerate(names)}
        self._zero = (0,) * len(names)

    @staticmethod
    def make(fiber: Sequence[str] = ("x", "y"), time: str | None = "t",
             parameters: Sequence[str] = (), unknowns: Sequence[str] = ()) -> "Context":
        syms = [Sym(n, "fiber") for n in fiber]
        if time is not None:
            syms.append(Sym(time, "time"))
        syms += [Sym(n, "parameter") for n in parameters]
        syms += [Sym(n, "unknown") for n in unknowns]
        return Context(syms)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"symbol {name!r} not declared in context {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.syms)

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, Context) and self.syms == other.syms

    def __hash__(self):
        return hash(self.syms)

    def __repr__(self):
        return f"Context({', '.join(self.names)})"

    def extend(self, extra: Sequence[Sym]) -> "Context":
        return Context(self.syms + tuple(extra))

    # -- element builders ---------------------------------------------------

    def zero_exp(self) -> Exponent:
        return self._zero

    def poly(self, value: int | Fraction) -> "MPoly":
        if not value:
            return _canonical(self, {}, 1)
        return _canonical(self, {self._zero: value.numerator}, value.denominator)

    def poly_var(self, name: str) -> "MPoly":
        e = [0] * len(self.syms)
        e[self.index(name)] = 1
        return _canonical(self, {tuple(e): 1}, 1)

    def rat(self, value: int | Fraction) -> "MRat":
        return MRat.from_poly(self.poly(value))

    def var(self, name: str) -> "MRat":
        return MRat.from_poly(self.poly_var(name))

    def parse(self, text: str) -> "MRat":
        return parse_rat(self, text)


def split_content(p: MPoly, names: Sequence[str]) -> tuple[MPoly, MPoly]:
    """Write p as content * primitive w.r.t. the monomials in ``names``.

    The content is the gcd of the coefficient polynomials of p viewed as a
    polynomial in the named symbols; the primitive part carries the actual
    dependence on them.
    """
    content = _list_gcd(coefficients_in(p, names))
    if content.is_constant():
        return p.ctx.poly(1), p
    return content, exact_divide(p, content)


def coefficients_in(p: MPoly, names: Sequence[str]) -> list[MPoly]:
    """Coefficients of p viewed as a polynomial in the named symbols.

    Each coefficient is a polynomial in the other symbols; they come in the
    order in which their monomials in ``names`` first occur among p's terms.
    """
    idx = [p.ctx.index(n) for n in names]
    groups: dict[Exponent, dict[Exponent, int]] = {}
    for e, c in p.nums.items():
        key = tuple(e[i] if i in idx else 0 for i in range(len(e)))
        rest = tuple(0 if i in idx else e[i] for i in range(len(e)))
        groups.setdefault(key, {})[rest] = c
    return [_make(p.ctx, nums, p.den) for nums in groups.values()]


def union_context(a: Context, b: Context) -> Context:
    """Union of two contexts: a's symbols first, then b's new ones."""
    extra = tuple(s for s in b.syms if s.name not in a)
    return a.extend(extra)


def _grlex_key(e: Exponent):
    return (sum(e), e)


class MPoly:
    """Sparse multivariate polynomial over Q in a fixed context.

    Stored as integer numerators over one denominator: the coefficient of
    the exponent tuple e is ``nums[e] / den``.  ``nums`` holds no zeros,
    ``den`` is positive and gcd(den, *nums) = 1, so the pair is unique and
    equality is structural.  ``nums`` is never mutated once the polynomial
    exists; ``terms`` gives the coefficients as a fresh dict of Fractions.
    """

    __slots__ = ("ctx", "nums", "den")

    def __init__(self, ctx: Context, terms: Mapping[Exponent, Fraction | int]):
        ratios = [(e, c.as_integer_ratio()) for e, c in terms.items()]
        # over the lcm of the reduced denominators no common factor is left
        den = math.lcm(*(d for _, (_, d) in ratios))
        self.ctx = ctx
        self.nums = {e: n * (den // d) for e, (n, d) in ratios if n}
        self.den = den

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The coefficients as reduced Fractions, in storage order (a copy)."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return len(self.nums) <= 1 and all(sum(e) == 0 for e in self.nums)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(next(iter(self.nums.values())), self.den)

    def degree_in(self, name: str) -> int:
        i = self.ctx.index(name)
        return max((e[i] for e in self.nums), default=0)

    def variables(self) -> tuple[str, ...]:
        return tuple(n for n, powers in zip(self.ctx.names, zip(*self.nums)) if any(powers))

    def involves(self, names: Iterable[str]) -> bool:
        idx = [self.ctx.index(n) for n in names]
        return any(any(e[i] for i in idx) for e in self.nums)

    def leading(self) -> tuple[Exponent, Fraction]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e = max(self.nums, key=_grlex_key)
        return e, Fraction(self.nums[e], self.den)

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        if not other.nums:
            return self
        if not self.nums:
            return other
        da, db = self.den, other.den
        den = da if da == db else math.lcm(da, db)
        fa, fb = den // da, den // db
        out = dict(self.nums) if fa == 1 else {e: c * fa for e, c in self.nums.items()}
        for e, c in other.nums.items():
            s = out.get(e, 0) + c * fb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _make(self.ctx, out, den)

    def __neg__(self) -> "MPoly":
        return _canonical(self.ctx, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        if not self.nums or not other.nums:
            return _canonical(self.ctx, {}, 1)
        out: dict[Exponent, int] = {}
        get = out.get
        right = other.nums.items()
        for ea, ca in self.nums.items():
            for eb, cb in right:
                e = tuple(map(add, ea, eb))
                out[e] = get(e, 0) + ca * cb
        # drop the terms that cancelled
        return _make(self.ctx, {e: c for e, c in out.items() if c}, self.den * other.den)

    def scale(self, c: Fraction | int) -> "MPoly":
        if not c:
            return _canonical(self.ctx, {}, 1)
        n = c.numerator
        return _make(self.ctx, {e: k * n for e, k in self.nums.items()}, self.den * c.denominator)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ctx.poly(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (isinstance(other, MPoly) and self.den == other.den and self.nums == other.nums
                and self.ctx == other.ctx)

    def __hash__(self):
        return hash((self.ctx, self.den, frozenset(self.nums.items())))

    # -- calculus and substitution -------------------------------------------

    def derivative(self, name: str) -> "MPoly":
        i = self.ctx.index(name)
        out: dict[Exponent, int] = {}
        for e, c in self.nums.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return _make(self.ctx, out, self.den)

    def as_univariate(self, name: str) -> dict[int, "MPoly"]:
        """View as a polynomial in ``name`` with MPoly coefficients."""
        i = self.ctx.index(name)
        out: dict[int, dict[Exponent, int]] = {}
        for e, c in self.nums.items():
            out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
        return {d: _make(self.ctx, nums, self.den) for d, nums in sorted(out.items())}

    def coefficient(self, name: str, power: int) -> "MPoly":
        return self.as_univariate(name).get(power, self.ctx.poly(0))

    def subs(self, values: Mapping[str, "MRat"]) -> "MRat":
        """Simultaneously substitute symbols by rational functions (exact)."""
        return _poly_subs(self, values)

    def lift(self, ctx: Context) -> "MPoly":
        """Re-express in another context containing all symbols actually used."""
        used = self.variables()
        missing = [n for n in used if n not in ctx]
        if missing:
            raise KeyError(f"target context lacks symbols {missing}")
        mapping = {i: ctx.index(n) for i, n in enumerate(self.ctx.names) if n in ctx}
        out: dict[Exponent, int] = {}
        for e, c in self.nums.items():
            ne = [0] * len(ctx)
            for src, p in enumerate(e):
                if p:
                    ne[mapping[src]] = p
            out[tuple(ne)] = c
        return _canonical(ctx, out, self.den)

    def rename(self, names: Mapping[str, str]) -> "MPoly":
        """Rename symbols (kinds preserved), producing a parallel context."""
        syms = tuple(Sym(names.get(s.name, s.name), s.kind) for s in self.ctx.syms)
        return _canonical(Context(syms), self.nums, self.den)

    # -- normal forms ---------------------------------------------------------

    def sign(self) -> int:
        if self.is_zero():
            return 0
        return 1 if self.nums[max(self.nums, key=_grlex_key)] > 0 else -1

    def primitive(self) -> "MPoly":
        """Integer-primitive representative with positive leading coefficient."""
        if self.is_zero():
            return self
        unit = math.gcd(*self.nums.values()) * self.sign()
        if unit == 1 and self.den == 1:
            return self
        return _canonical(self.ctx, {e: c // unit for e, c in self.nums.items()}, 1)

    def monomial_gcd(self) -> Exponent:
        if self.is_zero():
            return self.ctx.zero_exp()
        return tuple(map(min, zip(*self.nums)))

    def shift_down(self, mono: Exponent) -> "MPoly":
        """Divide by the monomial ``mono`` (must divide every term)."""
        if not any(mono):
            return self
        return _canonical(self.ctx, {tuple(map(sub, e, mono)): c for e, c in self.nums.items()},
                          self.den)

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    __repr__ = __str__


_new_poly = object.__new__


def _canonical(ctx: Context, nums: dict[Exponent, int], den: int) -> MPoly:
    """The MPoly nums/den of a pair already in canonical form (see MPoly)."""
    p = _new_poly(MPoly)
    p.ctx, p.nums, p.den = ctx, nums, den
    return p


def _make(ctx: Context, nums: dict[Exponent, int], den: int) -> MPoly:
    """The MPoly nums/den for nonzero numerators and a positive denominator,
    reduced by their common factor."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
    return _canonical(ctx, nums, den)


def render_poly(p: MPoly) -> str:
    """Canonical text form: graded-lex sorted terms, explicit ``*`` and ``^``."""
    if p.is_zero():
        return "0"
    terms = p.terms
    pieces = []
    for e in sorted(terms, key=_grlex_key, reverse=True):
        c = terms[e]
        factors = []
        for name, power in zip(p.ctx.names, e):
            if power == 1:
                factors.append(name)
            elif power > 1:
                factors.append(f"{name}^{power}")
        if not factors:
            body = _frac_str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = _frac_str(abs(c)) + "*" + "*".join(factors)
        sign = "-" if c < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Polynomial gcd (content / primitive-part recursion, primitive PRS)
# ---------------------------------------------------------------------------


def exact_divide(a: MPoly, b: MPoly) -> MPoly | None:
    """Return a/b when b divides a exactly, else None.

    The division runs on integers: a's numerators A are divided by B, the
    primitive integer part of b's numerators.  B is primitive, so by Gauss's
    lemma B divides A over Q exactly when it divides it over Z: a quotient
    A/B in Q[x] is its content times a primitive Q', and A = cont * B * Q'
    with B * Q' primitive makes cont the content of A, an integer.  Each
    quotient coefficient the loop computes is then an integer, and a nonzero
    remainder of any coefficient division proves that b does not divide a.
    The quotient a/b is A/B scaled by b.den / (a.den * content(b.nums)).

    Exponents are handled as keys ``(-deg e, -e_1, ..., -e_n)``: keys add
    like exponents, and the smallest key is the graded-lex largest exponent,
    so the remainder's heap of keys pops its leading term.  A key whose term
    has cancelled stays in the heap and is skipped when it comes up; the
    leading exponent only decreases, so a cancelled key never returns.  If b
    divides a, the quotient's degree and low degree in every variable (and
    in total) are those of a less those of b, which bounds every quotient
    key before and during the loop.
    """
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if a.is_zero():
        return a
    if b.is_constant():
        return a.scale(1 / b.constant_value())
    a._check(b)
    rem = {_div_key(e): c for e, c in a.nums.items()}
    content = math.gcd(*b.nums.values())
    divisor = sorted((_div_key(e), c // content) for e, c in b.nums.items())
    lo_a, hi_a = _key_bounds(rem)
    lo_b, hi_b = _key_bounds([k for k, _ in divisor])
    lo = tuple(map(sub, lo_a, lo_b))
    hi = tuple(map(sub, hi_a, hi_b))
    if any(h > 0 for h in hi) or not all(map(le, lo, hi)):
        return None
    (lead, lead_c), rest = divisor[0], divisor[1:]
    heap = list(rem)
    heapify(heap)
    quotient: dict[Exponent, int] = {}
    while heap:
        k = heappop(heap)
        c = rem.pop(k, None)
        if c is None:
            continue
        kq = tuple(map(sub, k, lead))
        if not (all(map(le, lo, kq)) and all(map(le, kq, hi))):
            return None
        qc, r = divmod(c, lead_c)
        if r:
            return None
        quotient[kq] = qc
        for kb, cb in rest:
            kr = tuple(map(add, kq, kb))
            old = rem.get(kr)
            if old is None:
                rem[kr] = -qc * cb
                heappush(heap, kr)
            else:
                s = old - qc * cb
                if s:
                    rem[kr] = s
                else:
                    del rem[kr]
    return _make(a.ctx, {tuple(map(neg, kq[1:])): c * b.den for kq, c in quotient.items()},
                 a.den * content)


def _div_key(e: Exponent) -> tuple[int, ...]:
    return (-sum(e), *map(neg, e))


def _key_bounds(keys) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cols = list(zip(*keys))
    return tuple(map(min, cols)), tuple(map(max, cols))


def poly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """gcd over Q, normalized integer-primitive with positive leading coeff."""
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    ma, mb = a.monomial_gcd(), b.monomial_gcd()
    mono = tuple(min(i, j) for i, j in zip(ma, mb))
    a0 = a.shift_down(ma)
    b0 = b.shift_down(mb)
    core = _gcd_core(a0, b0)
    if any(mono):
        core = core * _canonical(a.ctx, {mono: 1}, 1)
    return core.primitive()


def _gcd_core(a: MPoly, b: MPoly) -> MPoly:
    if a.is_constant() or b.is_constant():
        return a.ctx.poly(1)
    shared = set(a.variables()) & set(b.variables())
    if not shared:
        return a.ctx.poly(1)
    if _coprime_certified(a, b, shared):
        return a.ctx.poly(1)
    # quick divisibility shortcuts
    if exact_divide(b, a) is not None:
        return a
    if exact_divide(a, b) is not None:
        return b
    # symbols in one operand only: the gcd divides that operand's content in them
    for p, q in ((a, b), (b, a)):
        only = [n for n in p.variables() if n not in shared]
        if only:
            return poly_gcd(_list_gcd(coefficients_in(p, only)), q)
    # main variable: smallest combined degree keeps the PRS short
    v = min(shared, key=lambda n: (a.degree_in(n) + b.degree_in(n), a.ctx.index(n)))
    ua = a.as_univariate(v)
    ub = b.as_univariate(v)
    cont_a = _list_gcd(list(ua.values()))
    cont_b = _list_gcd(list(ub.values()))
    cont = poly_gcd(cont_a, cont_b)
    pa = _divide_coeffs(ua, cont_a)
    pb = _divide_coeffs(ub, cont_b)
    prim = _prs_gcd(pa, pb, a.ctx, v)
    return cont * prim


_PRIME = (1 << 61) - 1
_RESIDUES: list[int] = []
_INVERSES: list[int] = []


def _residues(n: int) -> tuple[list[int], list[int]]:
    """Fixed nonzero residues mod _PRIME for context indices 0..n-1, and their inverses."""
    while len(_RESIDUES) < n:
        r = random.Random(len(_RESIDUES)).randrange(2, _PRIME)
        _RESIDUES.append(r)
        _INVERSES.append(pow(r, -1, _PRIME))
    return _RESIDUES, _INVERSES


def _term_images(p: MPoly, residues: list[int]) -> list[tuple[Exponent, int]] | None:
    """Each term's value mod _PRIME at the fixed residues; None if _PRIME divides p.den."""
    if p.den % _PRIME == 0:
        return None
    inverse = pow(p.den, -1, _PRIME)
    images = []
    for e, c in p.nums.items():
        m = c * inverse % _PRIME
        for r, k in zip(residues, e):
            if k:
                m = m * pow(r, k, _PRIME) % _PRIME
        images.append((e, m))
    return images


def _image_in(images: list[tuple[Exponent, int]], i: int, inverse: int) -> list[int] | None:
    """Univariate image in symbol i (coefficients from degree 0 up), every other
    symbol at its residue; None if the leading coefficient vanishes."""
    coeffs = [0] * (max(e[i] for e, _ in images) + 1)
    powers = [1]
    for _ in range(len(coeffs) - 1):
        powers.append(powers[-1] * inverse % _PRIME)
    for e, m in images:
        k = e[i]
        coeffs[k] += m * powers[k]
    coeffs = [c % _PRIME for c in coeffs]
    return coeffs if coeffs[-1] else None


def _coprime_mod_p(f: list[int], g: list[int]) -> bool:
    """Whether two univariate images of positive degree are coprime over
    GF(_PRIME); Euclid reduces the two lists in place."""
    if len(f) < len(g):
        f, g = g, f
    while True:
        lead = pow(g[-1], -1, _PRIME)
        n = len(g) - 1
        while len(f) > n:
            q = f.pop() * lead % _PRIME
            shift = len(f) - n
            for j in range(n):
                f[shift + j] = (f[shift + j] - q * g[j]) % _PRIME
            while f and not f[-1]:
                f.pop()
        if not f:
            return False
        if len(f) == 1:
            return True
        f, g = g, f


def _coprime_certified(a: MPoly, b: MPoly, shared: Iterable[str]) -> bool:
    """True only if gcd(a, b) is constant, proved by modular images (module docstring)."""
    residues, inverses = _residues(len(a.ctx))
    images = (_term_images(a, residues), _term_images(b, residues))
    if None in images:
        return False
    for i in sorted(map(a.ctx.index, shared)):
        fa, fb = (_image_in(terms, i, inverses[i]) for terms in images)
        if fa is None or fb is None or not _coprime_mod_p(fa, fb):
            return False
    return True


def _list_gcd(polys: list[MPoly]) -> MPoly:
    g = polys[0]
    for p in polys[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, p)
    return g.primitive()


def _divide_coeffs(u: dict[int, MPoly], cont: MPoly) -> dict[int, MPoly]:
    if _is_one(cont):
        return u
    return {d: exact_divide(c, cont) for d, c in u.items()}


def _univ_degree(u: dict[int, MPoly]) -> int:
    return max(d for d, c in u.items() if not c.is_zero())


def _univ_to_poly(u: dict[int, MPoly], ctx: Context, v: str) -> MPoly:
    acc = ctx.poly(0)
    xv = ctx.poly_var(v)
    for d, c in u.items():
        acc = acc + c * xv ** d
    return acc


def _pseudo_rem(ua: dict[int, MPoly], ub: dict[int, MPoly], ctx: Context, v: str) -> dict[int, MPoly]:
    """Pseudo-remainder of a by b as univariate polys in v over MPoly coefficients."""
    da, db = _univ_degree(ua), _univ_degree(ub)
    lb = ub[db]
    r = dict(ua)
    dr = da
    while r and dr >= db:
        lr = r.get(dr)
        if lr is None or lr.is_zero():
            r.pop(dr, None)
            dr = max((d for d, c in r.items() if not c.is_zero()), default=-1)
            continue
        shift = dr - db
        new: dict[int, MPoly] = {}
        for d, c in r.items():
            new[d] = c * lb
        for d, c in ub.items():
            prev = new.get(d + shift, ctx.poly(0))
            new[d + shift] = prev - c * lr
        r = {d: c for d, c in new.items() if not c.is_zero()}
        dr = max((d for d, c in r.items() if not c.is_zero()), default=-1)
    return r


def _drop_rational_content(u: dict[int, MPoly]) -> dict[int, MPoly]:
    """Divide out the rational content of all coefficients together.

    A rational number is a unit over Q, so this leaves the gcd unchanged; the
    polynomial content alone would let the integers of the sequence grow
    exponentially (univariate coefficients have polynomial content 1).
    """
    unit = Fraction(math.gcd(*(c for p in u.values() for c in p.nums.values())),
                    math.lcm(*(p.den for p in u.values())))
    if unit == 1:
        return u
    return {d: p.scale(1 / unit) for d, p in u.items()}


def _prs_gcd(ua: dict[int, MPoly], ub: dict[int, MPoly], ctx: Context, v: str) -> MPoly:
    a, b = ua, ub
    if _univ_degree(a) < _univ_degree(b):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b, ctx, v)
        if not r:
            break
        if _univ_degree(r) == 0:
            return ctx.poly(1)
        cont = _list_gcd(list(r.values()))
        a, b = b, _drop_rational_content(_divide_coeffs(r, cont))
    g = _univ_to_poly(b, ctx, v)
    cont = _list_gcd(list(b.values()))
    g = exact_divide(g, cont)
    return g


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class MRat:
    """Rational function num/den in canonical form (see module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly, *, _normalized: bool = False):
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if not _normalized:
            num, den = _normalize_pair(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p: MPoly) -> "MRat":
        # put the rational content of the numerator on display unchanged;
        # the denominator 1 is already canonical
        return MRat(p, p.ctx.poly(1), _normalized=True)

    @property
    def ctx(self) -> Context:
        return self.num.ctx

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial_in(self, names: Iterable[str]) -> bool:
        """Polynomial in the given variables (denominator free of them)."""
        return not self.den.involves(list(names))

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def is_integer(self) -> bool:
        return self.is_constant() and self.constant_value().denominator == 1

    def involves(self, names: Iterable[str]) -> bool:
        names = list(names)
        return self.num.involves(names) or self.den.involves(names)

    # -- field operations ---------------------------------------------------

    def __add__(self, other: "MRat") -> "MRat":
        an, ad, bn, bd = self.num, self.den, other.num, other.den
        # a constant denominator is 1, and n/d + m is already in lowest terms
        if ad.is_constant():
            return MRat(an * bd + bn, bd, _normalized=True)
        if bd.is_constant():
            return MRat(an + bn * ad, ad, _normalized=True)
        g = poly_gcd(ad, bd)
        if g.is_constant():
            return MRat(an * bd + bn * ad, ad * bd, _normalized=True)
        ad, bd = exact_divide(ad, g), exact_divide(bd, g)
        num = an * bd + bn * ad
        if num.is_zero():
            return MRat.from_poly(num)
        # num is coprime to ad and bd, so only the common factor g can cancel
        num, g = _cancel(num, g)
        den = ad * bd if g.is_constant() else ad * bd * g
        return MRat(*_unit_normalize(num, den), _normalized=True)

    def __sub__(self, other: "MRat") -> "MRat":
        return self + (-other)

    def __neg__(self) -> "MRat":
        return MRat(-self.num, self.den, _normalized=True)

    def __mul__(self, other: "MRat") -> "MRat":
        an, bd = _cancel(self.num, other.den)
        bn, ad = _cancel(other.num, self.den)
        num = an * bn
        if num.is_zero():
            return MRat.from_poly(num)
        return MRat(*_unit_normalize(num, ad * bd), _normalized=True)

    def __truediv__(self, other: "MRat") -> "MRat":
        if other.is_zero():
            raise DivisionByZero(f"division of {self} by zero")
        return self * other.inverse()

    def inverse(self) -> "MRat":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return MRat(*_unit_normalize(self.den, self.num), _normalized=True)

    def __pow__(self, n: int) -> "MRat":
        if n < 0:
            return self.inverse() ** (-n)
        # powers of coprime polynomials stay coprime (and, by Gauss's lemma,
        # powers of primitive ones primitive)
        return MRat(*_unit_normalize(self.num ** n, self.den ** n), _normalized=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MRat):
            return NotImplemented
        # canonical form makes structural equality == cross-multiplied equality
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus and substitution -------------------------------------------

    def derivative(self, name: str) -> "MRat":
        return MRat(self.num.derivative(name) * self.den - self.num * self.den.derivative(name),
                    self.den * self.den)

    def subs(self, values: Mapping[str, "MRat"]) -> "MRat":
        """Simultaneously substitute symbols by rational functions (exact)."""
        num = _poly_subs(self.num, values)
        den = _poly_subs(self.den, values)
        if den.is_zero():
            raise DivisionByZero(f"substitution makes denominator of {self} vanish")
        return num / den

    def lift(self, ctx: Context) -> "MRat":
        return MRat(self.num.lift(ctx), self.den.lift(ctx), _normalized=True)

    def rename(self, names: Mapping[str, str]) -> "MRat":
        return MRat(self.num.rename(names), self.den.rename(names), _normalized=True)

    def __str__(self) -> str:
        if _is_one(self.den):
            return render_poly(self.num)
        return f"({render_poly(self.num)})/({render_poly(self.den)})"

    __repr__ = __str__


def _poly_subs(p: MPoly, values: Mapping[str, "MRat"]) -> MRat:
    """Simultaneous substitution: substituted values are never re-substituted.

    Only the keys p involves take part.  Constant values go in first, in one
    pass over the terms.  When each value left has denominator 1, the Horner
    scheme runs on their numerators as MPoly and the result is wrapped once:
    the MRat operators on such operands run no gcd and compute the same
    products and sums, so the result is the same polynomial.
    """
    active = _active(p, values)
    constants = {}
    for n in active:
        v = values[n]
        if _is_one(v.den) and v.num.is_constant():
            p._check(v.num)
            constants[n] = v.num.constant_value()
    if constants:
        p = _subs_constants(p, constants)
        active = [n for n in active if n not in constants]
    if not active:
        return MRat.from_poly(p)
    if all(_is_one(values[n].den) for n in active):
        return MRat.from_poly(_horner(p, {n: values[n].num for n in active}, lambda q: q))
    return _horner(p, {n: values[n] for n in active}, MRat.from_poly)


def _subs_constants(p: MPoly, values: Mapping[str, Fraction]) -> MPoly:
    """p with the named symbols set to constants, in one pass over its terms.

    The sums run over integers, on the common denominator p.den * prod d^top
    of the values n/d, where top is the highest power of the symbol in p: a
    monomial of powers k weighs prod n^k * d^(top - k) over it.  Each
    distinct monomial in the symbols is weighed once, and the result is
    reduced once.
    """
    at = [p.ctx.index(n) for n in values]
    pick = itemgetter(*at)
    vals = list(values.values())
    tops = [max(e[i] for e in p.nums) for i in at]
    keep = tuple(int(i not in at) for i in range(len(p.ctx)))
    weights: dict = {}
    sums: dict[Exponent, int] = {}
    for e, c in p.nums.items():
        powers = pick(e)
        w = weights.get(powers)
        if w is None:
            ks = powers if len(at) > 1 else (powers,)
            w = weights[powers] = math.prod(v.numerator ** k * v.denominator ** (top - k)
                                            for v, k, top in zip(vals, ks, tops))
        if w:
            e = tuple(map(mul, e, keep))
            sums[e] = sums.get(e, 0) + c * w
    den = p.den * math.prod(v.denominator ** top for v, top in zip(vals, tops))
    # drop the coefficients that cancelled
    return _make(p.ctx, {e: c for e, c in sums.items() if c}, den)


def _active(p: MPoly, names: Iterable[str]) -> list[str]:
    """The names that p involves, in order, from one pass over its terms.

    Every name is looked up, so an undeclared one raises KeyError even when
    p is free of it.
    """
    index = [(n, p.ctx.index(n)) for n in names]
    if not p.nums:
        return []
    support = [any(col) for col in zip(*p.nums)]
    return [n for n, i in index if support[i]]


def _horner(p: MPoly, values: Mapping[str, MPoly | MRat], wrap: Callable[[MPoly], MPoly | MRat]):
    """Substitute ``values`` (all MPoly or all MRat) into p.

    ``wrap`` turns a polynomial free of the substituted names into the same type.
    """
    active = _active(p, values)
    if not active:
        return wrap(p)
    name = active[0]
    val = values[name]
    univ = p.as_univariate(name)
    top = max(univ)
    # Horner in the substituted value; coefficients (free of ``name``) are
    # substituted recursively, so the whole map applies simultaneously.
    acc = _horner(univ[top], values, wrap)
    for d in range(top - 1, -1, -1):
        coeff = univ.get(d)
        acc = acc * val
        if coeff is not None:
            acc = acc + _horner(coeff, values, wrap)
    return acc


def _is_one(p: MPoly) -> bool:
    return p.den == 1 and len(p.nums) == 1 and p.nums.get(p.ctx.zero_exp()) == 1


def _normalize_pair(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    if num.is_zero():
        return num, num.ctx.poly(1)
    return _unit_normalize(*_cancel(num, den))


def _cancel(p: MPoly, q: MPoly) -> tuple[MPoly, MPoly]:
    """(p/g, q/g) for g = gcd(p, q); no gcd is run when p or q is constant."""
    if p.is_constant() or q.is_constant():
        return p, q
    g = poly_gcd(p, q)
    if g.is_constant():
        return p, q
    return exact_divide(p, g), exact_divide(q, g)


def _unit_normalize(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """Scale both so den has coprime integer coefficients, leading one positive."""
    unit = math.gcd(*den.nums.values()) * den.sign()
    if unit == 1 and den.den == 1:
        return num, den
    return num.scale(Fraction(den.den, unit)), den.primitive()


# ---------------------------------------------------------------------------
# 2x2 matrices
# ---------------------------------------------------------------------------


class Mat2:
    """2x2 matrix of rational functions.

    For a triangular matrix the eigenvalues are the diagonal entries; the
    constructor checks that claim when triangularity is asserted.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[MRat]], *, triangular: str | None = None):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("Mat2 requires a 2x2 array")
        if triangular == "upper" and not rows[1][0].is_zero():
            raise ValueError("matrix claimed upper-triangular but entry (1,0) is nonzero")
        if triangular == "lower" and not rows[0][1].is_zero():
            raise ValueError("matrix claimed lower-triangular but entry (0,1) is nonzero")
        self.entries = rows

    def __getitem__(self, ij: tuple[int, int]) -> MRat:
        i, j = ij
        return self.entries[i][j]

    def triangular_kind(self) -> str | None:
        upper = self.entries[1][0].is_zero()
        lower = self.entries[0][1].is_zero()
        if upper and lower:
            return "diagonal"
        if upper:
            return "upper"
        if lower:
            return "lower"
        return None

    def diagonal(self) -> tuple[MRat, MRat]:
        return self.entries[0][0], self.entries[1][1]

    def eigenvalues(self) -> tuple[MRat, MRat]:
        if self.triangular_kind() is None:
            raise ValueError("eigenvalues only read off triangular matrices here")
        return self.diagonal()

    def map(self, fn: Callable[[MRat], MRat]) -> "Mat2":
        """The matrix with fn applied to every entry."""
        return Mat2([[fn(e) for e in row] for row in self.entries])

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2([[self.entries[i][j] - other.entries[i][j] for j in range(2)]
                     for i in range(2)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat2) and self.entries == other.entries

    def __str__(self) -> str:
        return "[[%s, %s], [%s, %s]]" % (self.entries[0][0], self.entries[0][1],
                                         self.entries[1][0], self.entries[1][1])

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Triangular elimination
# ---------------------------------------------------------------------------


@dataclass
class TraceStep:
    unknown: str
    value: MRat
    source: str

    def __str__(self):
        return f"{self.unknown} -> {self.value}   [{self.source}]"


@dataclass
class TriangularSolution:
    """Result of solve_triangular.

    assignments map solved unknowns to expressions in parameters and any
    still-free unknowns; relations are parameter-only consistency conditions
    forced by the system (integer-primitive, positive leading coefficient).
    """

    assignments: dict[str, MRat]
    relations: list[MPoly]
    free: list[str]
    trace: list[TraceStep] = field(default_factory=list)


def _relation_normal_form(p: MPoly, live: Sequence[str] | None = None) -> MPoly:
    """Parameter relation with invertible coefficient-field content removed.

    The time symbol belongs to the coefficient field Q(t), so a factor like
    t in front of an eigenvalue relation is a unit and is stripped.  When
    ``live`` names symbols (the eigenvalues of a scheme), the content in
    every other symbol is stripped as well.
    """
    if live is None:
        live = [n for n in p.variables()
                if p.ctx.syms[p.ctx.index(n)].kind not in ("time", "fiber")]
    else:
        live = _active(p, live)
    if not live:
        return p.primitive()
    return split_content(p, live)[1].primitive()


def solve_linear(p: MPoly, candidates: Iterable[str],
                 blocked: Iterable[str]) -> tuple[str, MRat] | None:
    """The first candidate u in which p is linear with a coefficient free of
    ``blocked``, and the value -rest/coeff solving p = 0 for it; else None."""
    for u in candidates:
        if p.degree_in(u) != 1:
            continue
        coeff = p.coefficient(u, 1)
        if coeff.involves(blocked):
            continue
        return u, MRat(-(p - coeff * p.ctx.poly_var(u)), coeff)
    return None


def assign(assignments: dict[str, MRat], u: str, value: MRat) -> None:
    """Record u -> value and substitute it into the earlier assignments."""
    for k in list(assignments):
        assignments[k] = assignments[k].subs({u: value})
    assignments[u] = value


class _Pending:
    """An equation solve_triangular has not used yet.

    ``reduced`` is the equation under the assignments of ``version``, and
    ``unsolved`` lists the unsolved unknowns it involves then.
    """

    __slots__ = ("tag", "raw", "version", "reduced", "unsolved")

    def __init__(self, tag: str, raw: MPoly):
        self.tag = tag
        self.raw = raw
        self.version = -1
        self.reduced = raw
        self.unsolved: list[str] = []

    def copy(self) -> _Pending:
        twin = _Pending(self.tag, self.raw)
        twin.version, twin.reduced, twin.unsolved = self.version, self.reduced, self.unsolved
        return twin


class Elimination:
    """The state of one run of solve_triangular.

    ``pending`` holds the equations not yet used, in list order, each with
    its cached reduction; ``assignments``, ``relations``, ``trace`` and
    ``solved`` hold what the run has found so far.  ``version`` counts the
    changes of the assignments, and everything derived from them (the
    reductions of ``pending`` and ``reduced_forms``) is cached under it.
    """

    __slots__ = ("pending", "unknowns", "unknown_set", "forms", "assignments",
                 "relations", "trace", "solved", "version", "reduced_forms")

    def __init__(self, pending: list[_Pending], unknowns: list[str], forms: list[MPoly]):
        self.pending = pending
        self.unknowns = unknowns
        self.unknown_set = set(unknowns)
        self.forms = forms
        self.assignments: dict[str, MRat] = {}
        self.relations: list[MPoly] = []
        self.trace: list[TraceStep] = []
        self.solved: set[str] = set()
        self.version = 0
        self.reduced_forms: tuple[int, list[MPoly]] = (-1, [])

    def branch(self, tag: str, equation: MPoly) -> TriangularSolution:
        """Run a copy of this state with ``equation`` appended as ``tag``;
        this state is left as it was."""
        twin = Elimination([eq.copy() for eq in self.pending] + [_Pending(tag, equation)],
                           self.unknowns, self.forms)
        twin.assignments, twin.relations, twin.trace, twin.solved = (
            dict(self.assignments), list(self.relations), list(self.trace), set(self.solved))
        twin.version, twin.reduced_forms = self.version, self.reduced_forms
        return twin.run()

    def apply_current(self, p: MPoly) -> MPoly:
        if not self.assignments or not p.involves(self.assignments.keys()):
            return p
        return p.subs(self.assignments).num

    def reduce(self, eq: _Pending) -> MPoly:
        if eq.version != self.version:
            eq.version, eq.reduced = self.version, self.apply_current(eq.raw)
            eq.unsolved = [u for u in _active(eq.reduced, self.unknowns)
                           if u not in self.solved]
        return eq.reduced

    def current_forms(self) -> list[MPoly]:
        if self.reduced_forms[0] != self.version:
            now = []
            for form in self.forms:
                f = self.apply_current(form)
                if f.is_zero() or f.is_constant():
                    continue
                live = _active(f, self.unknowns)
                if live:
                    now.append(split_content(f, live)[1])
            self.reduced_forms = (self.version, now)
        return self.reduced_forms[1]

    def step(self) -> bool:
        """Act on the first pending equation that allows it; False if none does."""
        for pos, eq in enumerate(self.pending):
            p = self.reduce(eq)
            if p.is_zero():
                del self.pending[pos]
                return True
            if not eq.unsolved:
                if p.is_constant():
                    raise InconsistentSystem(p)
                self.relations.append(_relation_normal_form(p))
                del self.pending[pos]
                return True
            # relation extraction: c(params) * L with L a designated nonzero form
            for f in self.current_forms():
                q = exact_divide(p, f)
                if q is not None and not q.involves(self.unknown_set):
                    if q.is_constant():
                        # p = (nonzero constant) * (designated nonzero form)
                        raise InconsistentSystem(p)
                    self.relations.append(_relation_normal_form(q))
                    del self.pending[pos]
                    return True
            pivot = solve_linear(p, eq.unsolved, self.unknown_set - self.solved)
            if pivot is None:
                continue
            u, value = pivot
            assign(self.assignments, u, value)
            self.solved.add(u)
            self.version += 1
            self.trace.append(TraceStep(u, value, eq.tag))
            del self.pending[pos]
            return True
        return False

    def run(self) -> TriangularSolution:
        while self.pending and self.step():
            pass
        if self.pending:
            # the last scan reduced every equation left and found none zero
            raise StuckSystem([eq.reduced for eq in self.pending],
                              [eq.tag for eq in self.pending], self)
        free = [u for u in self.unknowns if u not in self.solved]
        return TriangularSolution(self.assignments, self.relations, free, self.trace)


def solve_triangular(equations: Sequence[MPoly | MRat],
                     unknowns: Sequence[str],
                     *,
                     nonzero_forms: Sequence[MPoly] = (),
                     sources: Sequence[str] | None = None) -> TriangularSolution:
    """Solve a structured polynomial system one unknown at a time.

    Strategy: repeatedly pick an equation that is linear in some unsolved
    unknown whose coefficient does not involve any unsolved unknown, solve,
    substitute everywhere, iterate.  Dividing by such a coefficient assumes
    it is generically nonzero, which mirrors the genericity assumptions of
    the underlying constructions.

    Equations that reduce to an expression free of unknowns are recorded as
    parameter relations (a nonzero rational constant raises
    InconsistentSystem).  An equation of the form c(params) * L with L a
    registered nonzero form is also turned into the relation c = 0 rather
    than forcing L = 0.

    Pivot order: every step acts on the first equation, in list order, that
    it can act on (drop it as zero, record it as a relation, or solve it for
    an unknown), and then scans again from the front.  So a run with one
    more equation appended last takes the same steps as the run without it
    for as long as the latter can act at all, and reaches the new equation
    only where the latter got stuck.  Resuming the stuck run's state (the
    ``Elimination`` a StuckSystem carries) with the equation appended is
    therefore exact: it gives the same assignments, relations, free
    unknowns, trace and source tags as solving everything again.
    """
    unknowns = list(unknowns)
    pending: list[_Pending] = []
    for k, eq in enumerate(equations):
        tag = sources[k] if sources else f"eq{k}"
        p = eq.num if isinstance(eq, MRat) else eq
        if not p.is_zero():
            pending.append(_Pending(tag, p))
    # a nonzero form is only used through its unknown-primitive part; its
    # parameter content is generically nonzero anyway
    forms = [split_content(f, _active(f, unknowns))[1]
             for f in nonzero_forms if not f.is_zero()]
    return Elimination(pending, unknowns, forms).run()


# ---------------------------------------------------------------------------
# Expression parser for the canonical text forms
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\*\*|[()+\-*/^]))")


class ParseError(AlgebraError):
    pass


# deepest parenthesis nesting parse_rat accepts; each level takes four
# frames of its recursive descent, well inside Python's recursion limit
MAX_NESTING = 100

# largest power parse_rat computes: a written exponent, times the exponents
# of the powers it sits inside, so that (x^8)^8 is accepted but (x^8)^9 and
# 2^99999999 are not; the builtin systems need at most 3
MAX_EXPONENT = 64


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad token at {text[pos:]!r}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


def parse_rat(ctx: Context, text: str) -> MRat:
    """Parse +,-,*,/,^ expressions over declared symbols and integers."""
    parser = _Parser(ctx, text)
    node = parser.parse_expr()
    if parser.pos != len(parser.tokens):
        raise ParseError(f"trailing input in {text!r}")
    return node


class _Parser:
    """The recursive descent of parse_rat over the tokens of one text.

    The state lives on an object so that reference counting frees each parse
    when parse_rat returns; nested closures that call one another would form
    a reference cycle that only the cycle collector frees.
    """

    __slots__ = ("ctx", "text", "tokens", "pos", "depth", "powers")

    def __init__(self, ctx: Context, text: str):
        self.ctx, self.text, self.tokens = ctx, text, _tokenize(text)
        self.pos = self.depth = 0
        # the largest power inside each open parenthesis, outermost first
        self.powers = [1]

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.text!r}")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r} in {self.text!r}")
        self.pos += 1
        return tok

    def parse_expr(self) -> MRat:
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self) -> MRat:
        node = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_factor(self) -> MRat:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        node, inner = self.parse_atom()
        if self.peek() in ("^", "**"):
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            exp_tok = self.take()
            if not exp_tok.isdigit():
                raise ParseError(f"expected integer exponent in {self.text!r}")
            if len(exp_tok) > len(str(MAX_EXPONENT)) or int(exp_tok) * inner > MAX_EXPONENT:
                raise ParseError(f"power above MAX_EXPONENT = {MAX_EXPONENT} in {self.text!r}")
            e = int(exp_tok)
            self.powers[-1] = max(self.powers[-1], e * inner)
            node = node ** (-e if neg else e)
        if sign < 0:
            node = -node
        return node

    def parse_atom(self) -> tuple[MRat, int]:
        """The atom, and the largest power computed inside it."""
        tok, ctx = self.take(), self.ctx
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
            self.powers.append(1)
            node = self.parse_expr()
            self.take(")")
            self.depth -= 1
            return node, self.powers.pop()
        if tok.isdigit():
            return ctx.rat(int(tok)), 1
        if tok in ctx:
            return ctx.var(tok), 1
        if not tok.isidentifier():
            raise ParseError(f"unexpected {tok!r} in {self.text!r}")
        raise ParseError(f"unknown symbol {tok!r} (context: {ctx.names})")
