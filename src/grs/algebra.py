"""Exact arithmetic kernel: rationals, sparse multivariate polynomials and
rational functions over Q in a declared symbol set, 2x2 matrices, and the
triangular eliminator used by scheme recovery.

Representation
--------------
A polynomial lives in a :class:`Context`, an ordered tuple of named symbols.
It is stored sparsely as integer numerators over one positive denominator:
a dict ``packed`` mapping the packed key of each exponent to a nonzero int,
and an int ``den`` with gcd(den, *numerators) = 1.  That pair is unique, so
equality is structural.  Products, sums, exact division and modular images
run on ints, and each result is reduced once, by one gcd of its denominator
and numerators; the view ``terms`` shows the reduced ``Fraction``
coefficients by exponent tuple.

A packed key is one int (Monagan & Pearce, CASC 2007).  In a context of n
symbols it has n + 1 fields of ``FIELD_BITS`` = 32 bits: the total degree in
the top field, and below it the exponent of symbol i in field n - 1 - i.
Integer order of the keys is therefore graded lexicographic order of the
exponents, the canonical term order, which fixes printing, leading terms and
golden-file output once and for all.  The product of two monomials is the
sum of their keys.  The top bit of every field is a guard bit, clear in
every key, so no exponent or total degree exceeds ``MAX_DEGREE`` = 2^31 - 1.
For keys k and m, the difference k - m is the key of k/m when its guard
bits are clear; when m does not divide k, the lowest field in which m
exceeds k borrows and sets its guard bit (the degree field's, if the
difference is negative).  Every field of a key is at most its total degree,
so a product whose total degree would pass ``MAX_DEGREE`` is refused with
:class:`DegreeOverflow` before it is formed: no key ever wraps into another.
Operations that lower or clear a field (derivative, coefficient views,
substitution of constants) lower the degree field with it.

Rational functions (:class:`MRat`) keep a numerator/denominator pair in
canonical form: gcd(num, den) = 1, denominator with coprime integer
coefficients and positive leading coefficient.  Every operation is pure and
no floating point is used anywhere.

GCDs are computed by content/primitive-part recursion on a chosen main
variable with a primitive pseudo-remainder sequence.  They dominate the cost
of every pipeline, so the field operations run as few and as small gcds as the
canonical form allows.  The operators rely on canonical operands and cancel
crosswise (Henrici; Knuth, TAOCP vol. 2, 4.5.1): a sum gcds only the two
denominators, and then the new numerator against their common factor; a
product gcds each numerator against the other denominator; inverses and powers
need no gcd at all.  A gcd is skipped outright when one side is constant, and
the others come with their cofactors: :func:`gcd_cofactors` returns (g, a/g,
b/g) for g the result of :func:`poly_gcd`, so no operator divides by g again.
The monomial content comes off first: a = x^ma * a0 and b = x^mb * b0, the
core gcd of a0 and b0 has cofactors (a0 = core * q), and x^mono * core =
u * g for the monomial gcd x^mono and a rational unit u, so a/g = u *
x^(ma - mono) * q, a key shift and a scale.  The core tries, in order: a
constant operand or no shared symbol (gcd 1); divisibility, b by a and then a
by b, where the quotient :func:`exact_divide` finds is the other cofactor; a
coprimality certificate; the content in one-sided symbols; the PRS.  Only the
last two compute a nontrivial gcd from scratch, and only after them are
cofactors found by division.  :func:`exact_divide` runs one pass over a
remainder kept in a dict and a heap of its negated packed keys (Monagan &
Pearce, J. Symb. Comp. 2011).  It rejects a non-divisor early, by the guard
bits of each quotient key and from bounds on the quotient's total degree and,
once the division has run as many steps as the dividend has terms, on its
exponent of each symbol, so a failed divisibility test is cheap.  It divides
integer numerators by the integer-primitive part of the divisor; by Gauss's
lemma that divides them over Z exactly when the divisor divides over Q, so a
coefficient division that leaves a remainder rejects as well.  Most gcds are
constant, and the certificate settles those without a PRS step, at every
level of the recursion (Brown, J. ACM 1971): every symbol but one is set to a
fixed residue modulo the prime 2^61 - 1, and Euclid runs on the two
univariate images in each symbol both operands involve.  The images of the
terms are read from one table of powers per residue, extended up to the
largest degree seen.  By Gauss's lemma lc_v(gcd) divides lc_v(a), so while
both leading coefficients survive the evaluation no image gcd has a lower
degree in v than the true gcd; images coprime in every shared symbol therefore
prove the gcd constant.  Any other outcome (a vanished leading coefficient,
the prime in a denominator, an image gcd of positive degree) falls through.
The same term images, at any point, give a rational function's value and
partials mod the prime (``_rat_image``), which screen symmetry probes; a
point's tables of powers (``_power_tables``) serve every image taken there.
The one-sided step takes out the symbols that occur in one operand only
(Geddes, Czapor & Labahn 1992, ch. 7): if a involves symbols that b lacks,
gcd(a, b) involves none of them, so it divides the content of a in them (the
gcd of a's coefficients as a polynomial in those symbols), and gcd(a, b) is
the gcd of b and those coefficients.  A PRS in a shared symbol would otherwise
carry the one-sided symbols through every pseudo-remainder, whose coefficients
then grow with each step.  The PRS runs on MPoly in the shared symbol v of
least combined degree: the operands' contents in v come off and have their own
gcd, and each pseudo-remainder loses its content in v and its rational content
before it divides the next.  The gcd of a list (a content, the one-sided step)
folds from the member with the fewest terms and stops at the first constant
gcd.  The result is the same on every path: a gcd made primitive
with a positive leading coefficient is unique.  Because the operators trust
their operands, every ``MRat(num, den, _normalized=True)`` must receive a pair
that is already canonical; ``MRat(num, den)`` normalizes an arbitrary pair.

Substitution finds the symbols a polynomial involves from the bitwise or of
its keys, and puts the constant values (numeric draws, parameter values) in
with one pass over its terms: each distinct monomial in those symbols is
weighed once, as an integer over the common denominator of all their values,
the numerators are summed as ints, and the result is reduced once.  Values
with denominator 1 (polynomial assignments) go in by a Horner scheme on MPoly,
which forms the products and sums the MRat operators would, without a gcd.
Values a_u/b_u with other denominators (solved unknowns, rational in t and the
parameters) go in one denominator at a time when p has degree at most 1 in
each of them and no term holds two: p = p0 + sum c_u * u, and the symbols
whose values share a denominator b form one group with numerator sum c_u *
a_u.  A canonical value has a_u and b coprime, so gcd(c * a_u, b) = gcd(c, b):
a group of one symbol cancels by gcd(c_u, b), and only a larger group takes
the gcd of its numerator with b.  p0 and the groups are summed as MRat; no
product of value denominators is formed.  Any other shape (powers or products
of rational values: the symmetry residuals, the blow-up inversions) takes the
Horner scheme over MRat.  The canonical form is unique, so every path gives
the same result.  :func:`solve_triangular` caches the reduction of each
pending equation and nonzero form, and reduces it again only once a pivot
solves an unknown it involves; it divides by a form only when both involve the
same unknowns, and a stale form keeps a bound on its unknowns, so that it is
reduced again only when it may divide.
Equations linear in the unknowns with rational coefficients need no
substitution at all: :func:`solve_rational_linear` solves them as sparse rows
of Fractions, with the same pivots as :func:`solve_triangular`.
"""

from __future__ import annotations

import math
import random
import re
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import gt, or_
from typing import Callable, Iterable, Mapping, Sequence

Exponent = tuple[int, ...]

SYM_KINDS = ("fiber", "time", "parameter", "unknown")

# bits per field of a packed exponent key (module docstring); the top bit of
# every field is a guard bit, so an exponent or total degree is at most
# MAX_DEGREE
FIELD_BITS = 32
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1


class AlgebraError(Exception):
    """Base class for kernel errors."""


class DivisionByZero(AlgebraError):
    """Division of an MRat by zero."""


class DegreeOverflow(AlgebraError):
    """A monomial whose total degree a packed exponent key cannot hold."""

    def __init__(self, degree: int):
        super().__init__(f"total degree {degree} exceeds the largest degree {MAX_DEGREE} "
                         "a polynomial may have")


class StuckSystem(AlgebraError):
    """Triangular elimination found no equation linear in a single unknown.

    Carries the unsolved equations, reduced under the assignments so far,
    so the caller can report them, and in ``sources`` the source tag of each.
    """

    def __init__(self, remaining, sources):
        self.remaining = list(remaining)
        self.sources = list(sources)
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
    kind: str

    def __post_init__(self):
        if self.kind not in SYM_KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self.name):
            raise ValueError(f"bad symbol name {self.name!r}")


class Context:
    """Ordered symbol table shared by all polynomials of one computation.

    Symbol order is the canonical variable order: fiber variables first,
    then time, then parameters, then unknowns (the constructor does not
    enforce this; ``make`` does).  The context also fixes the layout of
    the packed exponent keys of its polynomials (module docstring).
    """

    __slots__ = ("syms", "names", "_layout", "_index", "_shifts", "_top", "_guards", "_units",
                 "_packer", "_unpacker", "_nbytes")

    def __init__(self, syms: Sequence[Sym]):
        names = [s.name for s in syms]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names in context")
        self.syms = tuple(syms)
        self.names = tuple(names)
        # equal contexts are often different objects: compare (and hash)
        # plain tuples, not one Sym at a time
        self._layout = (self.names, tuple(s.kind for s in syms))
        self._index = {n: i for i, n in enumerate(names)}
        n = len(names)
        # symbol i in field n - 1 - i, so that symbol 0 is the most
        # significant field below the total degree
        self._shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self._top = FIELD_BITS * n
        self._guards = sum(1 << (FIELD_BITS * j + FIELD_BITS - 1) for j in range(n + 1))
        self._units = tuple((1 << s) | (1 << self._top) for s in self._shifts)
        # the exponent fields as bytes, without and with the degree field
        self._packer = struct.Struct(f">{n}I")
        self._unpacker = struct.Struct(f">{FIELD_BITS // 8}x{n}I")
        self._nbytes = self._unpacker.size

    @staticmethod
    def make(parameters: Sequence[str], unknowns: Sequence[str] = ()) -> "Context":
        """The context of fiber x, y, time t, then the parameters and unknowns."""
        return Context([Sym("x", "fiber"), Sym("y", "fiber"), Sym("t", "time"),
                        *(Sym(n, "parameter") for n in parameters),
                        *(Sym(n, "unknown") for n in unknowns)])

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
        return self is other or isinstance(other, Context) and self._layout == other._layout

    def __hash__(self):
        return hash(self._layout)

    def __repr__(self):
        return f"Context({', '.join(self.names)})"

    def extend(self, extra: Sequence[Sym]) -> "Context":
        return Context(self.syms + tuple(extra))

    # -- packed exponent keys ---------------------------------------------

    def _unpack(self, key: int) -> Exponent:
        """The exponent tuple of a packed key."""
        return self._unpacker.unpack(key.to_bytes(self._nbytes, "big"))

    def _key(self, fields: int) -> int:
        """The packed key of the exponent fields ``fields`` (degree field clear)."""
        return fields | sum(self._unpack(fields)) << self._top

    def _mask(self, indices: Iterable[int]) -> int:
        """The bits of the fields of the given symbols."""
        return sum(_FIELD << self._shifts[i] for i in indices)

    # -- element builders ---------------------------------------------------

    def poly(self, value: int | Fraction) -> "MPoly":
        if not value:
            return _canonical(self, {}, 1)
        return _canonical(self, {0: value.numerator}, value.denominator)

    def poly_var(self, name: str) -> "MPoly":
        return _canonical(self, {self._units[self.index(name)]: 1}, 1)

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
    ctx = p.ctx
    mask = ctx._mask({ctx.index(n) for n in names})
    drops: dict[int, int] = {}
    groups: dict[int, dict[int, int]] = {}
    for k, c in p.packed.items():
        part = k & mask
        drop = drops.get(part)
        if drop is None:
            drop = drops[part] = ctx._key(part)
        groups.setdefault(part, {})[k - drop] = c
    return [_make(ctx, packed, p.den) for packed in groups.values()]


def union_context(a: Context, b: Context) -> Context:
    """Union of two contexts: a's symbols first, then b's new ones."""
    extra = tuple(s for s in b.syms if s.name not in a)
    return a.extend(extra)


class MPoly:
    """Sparse multivariate polynomial over Q in a fixed context.

    Stored as integer numerators over one denominator: ``packed`` maps the
    packed key of each exponent (module docstring) to an int, and the
    coefficient of that exponent is ``packed[key] / den``.  ``packed`` holds
    no zeros, ``den`` is positive and gcd(den, *numerators) = 1, so the pair
    is unique and equality is structural.  ``packed`` is never mutated once
    the polynomial exists.  The view ``terms`` keys the coefficients, as
    reduced Fractions, by exponent tuples, in storage order, as a fresh
    dict; code outside this module reads only that.
    """

    __slots__ = ("ctx", "packed", "den")

    def __init__(self, ctx: Context, terms: Mapping[Exponent, Fraction | int]):
        ratios = [(e, c.as_integer_ratio()) for e, c in terms.items()]
        # over the lcm of the reduced denominators no common factor is left
        den = math.lcm(*(d for _, (_, d) in ratios))
        pack, top = ctx._packer.pack, ctx._top
        try:
            packed = {int.from_bytes(pack(*e), "big") | sum(e) << top: n * (den // d)
                      for e, (n, d) in ratios if n}
        except struct.error:
            raise ValueError(f"an exponent is not a tuple of {len(ctx)} nonnegative ints "
                             f"below 2^{FIELD_BITS}") from None
        # the largest key has the largest degree
        if packed and max(packed) >> top > MAX_DEGREE:
            raise DegreeOverflow(max(packed) >> top)
        self.ctx = ctx
        self.packed = packed
        self.den = den

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The coefficients as reduced Fractions, in storage order (a copy)."""
        unpack, den = self.ctx._unpack, self.den
        return {unpack(k): Fraction(c, den) for k, c in self.packed.items()}

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def is_constant(self) -> bool:
        return len(self.packed) <= 1 and not any(self.packed)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self.packed[0], self.den)

    def degree_in(self, name: str) -> int:
        s = self.ctx._shifts[self.ctx.index(name)]
        return max((k >> s & _FIELD for k in self.packed), default=0)

    def variables(self) -> tuple[str, ...]:
        support = reduce(or_, self.packed, 0)
        return tuple(n for n, s in zip(self.ctx.names, self.ctx._shifts) if support >> s & _FIELD)

    def involves(self, names: Iterable[str]) -> bool:
        mask = self.ctx._mask({self.ctx.index(n) for n in names})
        return bool(reduce(or_, self.packed, 0) & mask)

    def total_degree(self) -> int:
        # the largest key has the largest degree
        return max(self.packed, default=0) >> self.ctx._top

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        if not other.packed:
            return self
        if not self.packed:
            return other
        da, db = self.den, other.den
        den = da if da == db else math.lcm(da, db)
        fa, fb = den // da, den // db
        out = dict(self.packed) if fa == 1 else {k: c * fa for k, c in self.packed.items()}
        for k, c in other.packed.items():
            s = out.get(k, 0) + c * fb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _make(self.ctx, out, den)

    def __radd__(self, other: int) -> "MPoly":
        return self.ctx.poly(other) + self if isinstance(other, int) else NotImplemented

    def __neg__(self) -> "MPoly":
        return _canonical(self.ctx, {k: -c for k, c in self.packed.items()}, self.den)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        if not self.packed or not other.packed:
            return _canonical(self.ctx, {}, 1)
        top = self.ctx._top
        # every field of a product key is at most its total degree
        degree = (max(self.packed) >> top) + (max(other.packed) >> top)
        if degree > MAX_DEGREE:
            raise DegreeOverflow(degree)
        out: dict[int, int] = {}
        get = out.get
        right = other.packed.items()
        for ka, ca in self.packed.items():
            for kb, cb in right:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        # drop the terms that cancelled
        return _make(self.ctx, {k: c for k, c in out.items() if c}, self.den * other.den)

    def __rmul__(self, other: int) -> "MPoly":
        return self.scale(other) if isinstance(other, int) else NotImplemented

    def scale(self, c: Fraction | int) -> "MPoly":
        if not c:
            return _canonical(self.ctx, {}, 1)
        n = c.numerator
        return _make(self.ctx, {k: v * n for k, v in self.packed.items()},
                     self.den * c.denominator)

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
        return (isinstance(other, MPoly) and self.den == other.den
                and self.packed == other.packed and self.ctx == other.ctx)

    def __hash__(self):
        return hash((self.ctx, self.den, frozenset(self.packed.items())))

    # -- calculus and substitution -------------------------------------------

    def derivative(self, name: str) -> "MPoly":
        i = self.ctx.index(name)
        s, unit = self.ctx._shifts[i], self.ctx._units[i]
        out: dict[int, int] = {}
        for k, c in self.packed.items():
            d = k >> s & _FIELD
            if d:
                out[k - unit] = c * d
        return _make(self.ctx, out, self.den)

    def as_univariate(self, name: str) -> dict[int, "MPoly"]:
        """View as a polynomial in ``name`` with MPoly coefficients."""
        i = self.ctx.index(name)
        s, unit = self.ctx._shifts[i], self.ctx._units[i]
        out: dict[int, dict[int, int]] = {}
        for k, c in self.packed.items():
            d = k >> s & _FIELD
            out.setdefault(d, {})[k - d * unit] = c
        return {d: _make(self.ctx, packed, self.den) for d, packed in sorted(out.items())}

    def coefficient(self, name: str, power: int) -> "MPoly":
        """The coefficient of name^power, read from that one field."""
        i = self.ctx.index(name)
        s, shift = self.ctx._shifts[i], power * self.ctx._units[i]
        return _make(self.ctx, {k - shift: c for k, c in self.packed.items()
                                if k >> s & _FIELD == power}, self.den)

    def subs(self, values: Mapping[str, "MRat"]) -> "MRat":
        """Simultaneously substitute symbols by rational functions (exact)."""
        return _poly_subs(self, values)

    def reflect(self, name: str, top: int) -> "MPoly":
        """name^top * p(1/name) for top >= deg_name(p), by packed-key shifts."""
        i = self.ctx.index(name)
        s, unit = self.ctx._shifts[i], self.ctx._units[i]
        if self.total_degree() + top > MAX_DEGREE:
            raise DegreeOverflow(self.total_degree() + top)
        return _canonical(self.ctx, {k + (top - 2 * (k >> s & _FIELD)) * unit: c
                                     for k, c in self.packed.items()}, self.den)

    def lift(self, ctx: Context) -> "MPoly":
        """Re-express in another context containing all symbols actually used."""
        used = self.variables()
        missing = [n for n in used if n not in ctx]
        if missing:
            raise KeyError(f"target context lacks symbols {missing}")
        moves = [(self.ctx._shifts[self.ctx.index(n)], ctx._shifts[ctx.index(n)]) for n in used]
        src, dst = self.ctx._top, ctx._top
        out: dict[int, int] = {}
        for k, c in self.packed.items():
            key = k >> src << dst
            for s, t in moves:
                key |= (k >> s & _FIELD) << t
            out[key] = c
        return _canonical(ctx, out, self.den)

    # -- normal forms ---------------------------------------------------------

    def sign(self) -> int:
        if self.is_zero():
            return 0
        return 1 if self.packed[max(self.packed)] > 0 else -1

    def primitive(self) -> "MPoly":
        """Integer-primitive representative with positive leading coefficient."""
        if self.is_zero():
            return self
        unit = math.gcd(*self.packed.values()) * self.sign()
        if unit == 1 and self.den == 1:
            return self
        return _canonical(self.ctx, {k: c // unit for k, c in self.packed.items()}, 1)

    def monomial_gcd(self) -> int:
        """The packed key of the largest monomial dividing every term."""
        if len(self.packed) == 1:
            return next(iter(self.packed))
        if 0 in self.packed or not self.packed:
            return 0
        return _key_gcd(self.ctx, self.packed)

    def shift_down(self, mono: int) -> "MPoly":
        """Divide by the monomial of packed key ``mono`` (must divide every term)."""
        if not mono:
            return self
        return _canonical(self.ctx, {k - mono: c for k, c in self.packed.items()}, self.den)

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    __repr__ = __str__


_new_poly = object.__new__


def _canonical(ctx: Context, packed: dict[int, int], den: int) -> MPoly:
    """The MPoly packed/den of a pair already in canonical form (see MPoly)."""
    p = _new_poly(MPoly)
    p.ctx, p.packed, p.den = ctx, packed, den
    return p


def _make(ctx: Context, packed: dict[int, int], den: int) -> MPoly:
    """The MPoly packed/den for nonzero numerators and a positive denominator,
    reduced by their common factor."""
    if den != 1:
        g = math.gcd(den, *packed.values())
        if g != 1:
            packed = {k: c // g for k, c in packed.items()}
            den //= g
    return _canonical(ctx, packed, den)


def _key_gcd(ctx: Context, keys: Iterable[int]) -> int:
    """The packed key of the gcd of the monomials of some packed keys: the
    fieldwise minimum, with its total degree."""
    guards, top = ctx._guards, ctx._top
    fields = (1 << top) - 1
    keys = iter(keys)
    mono = next(keys) & fields
    for k in keys:
        # a guard bit survives where mono's field is at least k's, and no
        # field borrows from the next; take k's value in those fields
        ge = ((mono | guards) - k) & guards
        take = ge - (ge >> (FIELD_BITS - 1))
        mono = (mono & ~take | k & take) & fields
        if not mono:
            return 0
    return ctx._key(mono)


def render_poly(p: MPoly) -> str:
    """Canonical text form: graded-lex sorted terms, explicit ``*`` and ``^``."""
    if p.is_zero():
        return "0"
    unpack = p.ctx._unpack
    pieces = []
    for k in sorted(p.packed, reverse=True):
        c = Fraction(p.packed[k], p.den)
        factors = []
        for name, power in zip(p.ctx.names, unpack(k)):
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
    The quotient a/b is A/B scaled by b.den / (a.den * content(b.packed)).

    The loop runs on packed keys, whose integer order is graded-lex order,
    so the remainder's heap of negated keys pops its leading term.  A key
    whose term has cancelled stays in the heap and is skipped when it comes
    up; the leading key only decreases, so a cancelled key never returns.
    The quotient key of a leading term k is k - lead(b): a guard bit set in
    it means some exponent of lead(b) exceeds k's, so b does not divide a.
    If b divides a, the quotient's highest and lowest total degree, and its
    highest and lowest exponent of each symbol, are those of a less those
    of b.  The degree bounds are checked first.  Every quotient key must lie
    fieldwise between two packed bounds: their exponent fields are at first
    0 and the highest degree, and once the quotient has as many terms as a,
    the exponent bounds of each symbol.  Those take one pass over the terms
    of a and b, which a division that ends sooner never pays for.
    """
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if a.is_zero():
        return a
    if b.is_constant():
        return a.scale(1 / b.constant_value())
    a._check(b)
    top, guards = a.ctx._top, a.ctx._guards
    content = math.gcd(*b.packed.values())
    divisor = sorted(((k, c // content) for k, c in b.packed.items()), reverse=True)
    (lead, lead_c), rest = divisor[0], divisor[1:]
    low = (min(a.packed) >> top) - (min(b.packed) >> top)
    high = (max(a.packed) >> top) - (lead >> top)
    if not 0 <= low <= high:
        return None
    low_key, high_key = low << top, high * (guards >> (FIELD_BITS - 1))
    rem = dict(a.packed)
    heap = [-k for k in rem]
    heapify(heap)
    quotient: dict[int, int] = {}
    while heap:
        k = -heappop(heap)
        c = rem.pop(k, None)
        if c is None:
            continue
        kq = k - lead
        if len(quotient) == len(a.packed):
            bounds = _quotient_bounds(a, b, low, high)
            if bounds is None:
                return None
            low_key, high_key = bounds
        # kq is a key, and no field of kq - low_key or high_key - kq borrows
        if (kq | (kq - low_key) | (high_key - kq)) & guards:
            return None
        qc, r = divmod(c, lead_c)
        if r:
            return None
        quotient[kq] = qc
        for kb, cb in rest:
            kr = kq + kb
            old = rem.get(kr)
            if old is None:
                rem[kr] = -qc * cb
                heappush(heap, -kr)
            else:
                s = old - qc * cb
                if s:
                    rem[kr] = s
                else:
                    del rem[kr]
    return _make(a.ctx, {kq: c * b.den for kq, c in quotient.items()}, a.den * content)


def _quotient_bounds(a: MPoly, b: MPoly, low: int, high: int) -> tuple[int, int] | None:
    """Packed keys that bound a/b fieldwise: the lowest and the highest
    exponent of each symbol in a less those in b, and the degrees low and
    high; None if some lower bound is negative or above its upper bound."""
    ctx = a.ctx
    ea, eb = (list(zip(*map(ctx._unpack, p.packed))) for p in (a, b))
    lows = [min(x) - min(y) for x, y in zip(ea, eb)]
    highs = [max(x) - max(y) for x, y in zip(ea, eb)]
    if min(lows) < 0 or any(map(gt, lows, highs)):
        return None
    pack = ctx._packer.pack
    return (int.from_bytes(pack(*lows), "big") | low << ctx._top,
            int.from_bytes(pack(*highs), "big") | high << ctx._top)


def poly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """gcd over Q, normalized integer-primitive with positive leading coeff."""
    return _gcd(a, b, False)[0]


def gcd_cofactors(a: MPoly, b: MPoly) -> tuple[MPoly, MPoly, MPoly]:
    """(g, a/g, b/g) for g = poly_gcd(a, b); (0, 0, 0) when a and b are zero."""
    return _gcd(a, b, True)


def _gcd(a: MPoly, b: MPoly, cofactors: bool) -> tuple[MPoly, MPoly | None, MPoly | None]:
    """poly_gcd(a, b) with a/g and b/g; a cofactor that is not free (the
    exact path's) is None unless ``cofactors`` is set."""
    a._check(b)
    qa = None
    if a.is_zero() or b.is_zero():
        g = (b if a.is_zero() else a).primitive()
    else:
        ma, mb = a.monomial_gcd(), b.monomial_gcd()
        mono = _key_gcd(a.ctx, (ma, mb)) if ma and mb else 0
        core, qa, qb = _gcd_core(a.shift_down(ma), b.shift_down(mb))
        core = _shift_scale(core, mono, 1)
        g = core.primitive()
    if g.is_constant():
        return g, a, b
    if qa is None:
        return (g, exact_divide(a, g), exact_divide(b, g)) if cofactors else (g, None, None)
    # x^mono * core = u * g, so a = x^ma * core * qa = g * u * x^(ma - mono) * qa
    k = max(g.packed)
    u = Fraction(core.packed[k], core.den * g.packed[k])
    return g, _shift_scale(qa, ma - mono, u), _shift_scale(qb, mb - mono, u)


def _shift_scale(p: MPoly, shift: int, u: Fraction | int) -> MPoly:
    """u * p times the monomial of packed key ``shift``."""
    if not shift and u == 1:
        return p
    n = u.numerator
    return _make(p.ctx, {k + shift: c * n for k, c in p.packed.items()}, p.den * u.denominator)


def _gcd_core(a: MPoly, b: MPoly) -> tuple[MPoly, MPoly | None, MPoly | None]:
    """gcd(a, b) up to a unit, and a/gcd and b/gcd where they come free (else None)."""
    one = a.ctx.poly(1)
    if a.is_constant() or b.is_constant():
        return one, a, b
    shared = set(a.variables()) & set(b.variables())
    if not shared:
        return one, a, b
    # divisibility: the quotient the shortcut finds is the other cofactor
    q = exact_divide(b, a)
    if q is not None:
        return a, one, q
    q = exact_divide(a, b)
    if q is not None:
        return b, q, one
    if _coprime_certified(a, b, shared):
        return one, a, b
    # symbols in one operand only: the gcd divides that operand's content in
    # them, so it is the gcd of the other operand and those coefficients
    for p, q in ((a, b), (b, a)):
        only = [n for n in p.variables() if n not in shared]
        if only:
            return _list_gcd([q] + coefficients_in(p, only)), None, None
    # main variable: smallest combined degree keeps the PRS short
    v = min(shared, key=lambda n: (a.degree_in(n) + b.degree_in(n), a.ctx.index(n)))
    (ca, pa), (cb, pb) = split_content(a, [v]), split_content(b, [v])
    return poly_gcd(ca, cb) * _prs_gcd(pa, pb, v), None, None


_PRIME = (1 << 61) - 1
_RESIDUES: list[int] = []
_INVERSES: list[int] = []
# _POWERS[i][k] = _RESIDUES[i]^k mod _PRIME, for k up to the largest degree seen
_POWERS: list[list[int]] = []


def _residues(n: int) -> tuple[list[int], list[int]]:
    """Fixed nonzero residues mod _PRIME for context indices 0..n-1, and their inverses."""
    while len(_RESIDUES) < n:
        r = random.Random(len(_RESIDUES)).randrange(2, _PRIME)
        _RESIDUES.append(r)
        _INVERSES.append(pow(r, -1, _PRIME))
        _POWERS.append([1, r])
    return _RESIDUES, _INVERSES


def _power_tables(point: Sequence[int]) -> list[list[int]]:
    """A table of powers per residue of ``point`` (table[1] is the residue),
    for _term_images to extend; a fixed residue shares its kept table."""
    fixed = _residues(len(point))[0]
    return [_POWERS[i] if r == fixed[i] else [1, r] for i, r in enumerate(point)]


def _powers(table: list[int], degree: int) -> list[int]:
    """``table`` extended up to ``degree``."""
    while len(table) <= degree:
        table.append(table[-1] * table[1] % _PRIME)
    return table


def _term_images(p: MPoly, tables: Sequence[list[int]] = _POWERS
                 ) -> list[tuple[int, int]] | None:
    """Each term's value mod _PRIME at the point of ``tables`` (made by
    _power_tables; by default the fixed residues, set up by _residues), by
    packed key; None if _PRIME divides p.den."""
    if p.den % _PRIME == 0:
        return None
    inverse = pow(p.den, -1, _PRIME)
    ctx = p.ctx
    support = reduce(or_, p.packed, 0)
    degree = max(p.packed, default=0) >> ctx._top
    fields = [(s, _powers(tables[i], degree)) for i, s in enumerate(ctx._shifts)
              if support >> s & _FIELD]
    images = []
    for k, c in p.packed.items():
        m = c * inverse % _PRIME
        for s, table in fields:
            m = m * table[k >> s & _FIELD] % _PRIME
        images.append((k, m))
    return images


def _rat_image(r: "MRat", tables: Sequence[list[int]] = _POWERS,
               along: Sequence[int] = ()) -> list[int]:
    """r, then its partials in the symbols of indices ``along`` (each at its
    fixed residue), mod _PRIME at the point of ``tables`` (as for
    _term_images); raises DivisionByZero where _PRIME divides a coefficient
    denominator or r.den vanishes there."""
    parts = []
    for images in (_term_images(r.num, tables), _term_images(r.den, tables)):
        if images is None:
            raise DivisionByZero(f"{_PRIME} divides a coefficient denominator")
        parts.append([sum(m for _, m in images)] + [
            sum((k >> r.ctx._shifts[i] & _FIELD) * m for k, m in images) * _INVERSES[i]
            for i in along])
    (num, *dnum), (den, *dden) = parts
    if not den % _PRIME:
        raise DivisionByZero(f"the denominator vanishes mod {_PRIME}")
    inverse = pow(den, -1, _PRIME)
    value = num * inverse % _PRIME
    # (n/d)' = (n' - (n/d) d')/d
    return [value] + [(a - value * b) * inverse % _PRIME for a, b in zip(dnum, dden)]


def _image_in(images: list[tuple[int, int]], shift: int, inverse: int) -> list[int] | None:
    """Univariate image in the symbol of the field at ``shift`` (coefficients
    from degree 0 up), every other symbol at its residue; None if the leading
    coefficient vanishes."""
    exponents = [k >> shift & _FIELD for k, _ in images]
    coeffs = [0] * (max(exponents) + 1)
    powers = [1]
    for _ in range(len(coeffs) - 1):
        powers.append(powers[-1] * inverse % _PRIME)
    for k, (_, m) in zip(exponents, images):
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
    inverses = _residues(len(a.ctx))[1]
    images = (_term_images(a), _term_images(b))
    if None in images:
        return False
    for i in sorted(map(a.ctx.index, shared)):
        fa, fb = (_image_in(terms, a.ctx._shifts[i], inverses[i]) for terms in images)
        if fa is None or fb is None or not _coprime_mod_p(fa, fb):
            return False
    return True


def _list_gcd(polys: list[MPoly]) -> MPoly:
    """gcd of a nonempty list of nonzero polynomials, made primitive: the fold
    starts from the member with the fewest terms and stops at the first
    constant gcd, so a small member bounds every gcd it takes."""
    polys = sorted(polys, key=lambda f: len(f.packed))
    g = polys[0]
    for p in polys[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, p)
    return g.primitive()


def _pseudo_rem(a: MPoly, b: MPoly, v: str) -> MPoly:
    """A pseudo-remainder of a by b in v, for b of positive degree in v: a
    times a power of lc_v(b), less a multiple of b, of degree below deg_v(b)."""
    db = b.degree_in(v)
    lb = b.coefficient(v, db)
    r = a
    while not r.is_zero() and (dr := r.degree_in(v)) >= db:
        r = r * lb - b * r.coefficient(v, dr) * a.ctx.poly_var(v) ** (dr - db)
    return r


def _prs_gcd(a: MPoly, b: MPoly, v: str) -> MPoly:
    """gcd of a and b up to a unit, for a and b primitive in v (content 1 as
    polynomials in v) and of positive degree in v.

    A primitive PRS (Brown, J. ACM 1971): each pseudo-remainder loses its
    content in v and its rational content before it divides the next.  The
    gcd is 1 once a remainder is free of v, else the last nonzero remainder.
    """
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while not (r := _pseudo_rem(a, b, v)).is_zero():
        if not r.involves([v]):
            return a.ctx.poly(1)
        a, b = b, split_content(r, [v])[1].primitive()
    return b


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
        g, ad, bd = gcd_cofactors(ad, bd)
        num = an * bd + bn * ad
        if g.is_constant():
            return MRat(num, ad * bd, _normalized=True)
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
        # a value free of every key is its own (canonical) result
        if not (_active(self.num, values) or _active(self.den, values)):
            return self
        num = _poly_subs(self.num, values)
        den = _poly_subs(self.den, values)
        if den.is_zero():
            raise DivisionByZero(f"substitution makes denominator of {self} vanish")
        return num / den

    def lift(self, ctx: Context) -> "MRat":
        return MRat(self.num.lift(ctx), self.den.lift(ctx), _normalized=True)

    def __str__(self) -> str:
        if _is_one(self.den):
            return render_poly(self.num)
        return f"({render_poly(self.num)})/({render_poly(self.den)})"

    __repr__ = __str__


def _poly_subs(p: MPoly, values: Mapping[str, "MRat"]) -> MRat:
    """Simultaneous substitution: substituted values are never re-substituted.

    Only the keys p involves take part.  Constant values go in first, in one
    pass over the terms, and values of denominator 1 by the Horner scheme on
    MPoly (the MRat operators would run no gcd on them).  When p is linear in
    the other values u -> a_u/b_u, no term holding two of them, p = p0 + sum
    c_u * u goes in one denominator b at a time: the group's numerator sum
    c_u * a_u is summed as MPoly and cancelled by one gcd with b, which for a
    group of one symbol is gcd(c_u, b) = gcd(c_u * a_u, b), as a_u and b are
    coprime.  Any other shape takes the Horner scheme over MRat.
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
    rational = [n for n in active if not _is_one(values[n].den)]
    polys = {n: values[n].num for n in active if n not in rational}
    if not rational:
        return MRat.from_poly(_horner(p, polys, lambda q: q))
    parts = _linear_parts(p, rational)
    if parts is None:
        return _horner(p, {n: values[n] for n in active}, MRat.from_poly)
    # p = p0 + sum c_u * u; the values a_u/b_u go in one denominator at a time
    p0, coeffs = parts
    groups: dict[MPoly, list[tuple[MPoly, MPoly]]] = {}
    for n, c in coeffs.items():
        groups.setdefault(values[n].den, []).append((_horner(c, polys, lambda q: q),
                                                     values[n].num))
    result = MRat.from_poly(_horner(p0, polys, lambda q: q))
    for b, pairs in groups.items():
        if len(pairs) == 1:
            # a and b are coprime, so gcd(c * a, b) = gcd(c, b)
            (c, a), = pairs
            c, b = _cancel(c, b)
            num = c * a
        else:
            num, b = _cancel(reduce(MPoly.__add__, (c * a for c, a in pairs)), b)
        if not num.is_zero():
            result = result + MRat(*_unit_normalize(num, b), _normalized=True)
    return result


def _linear_parts(p: MPoly, names: Sequence[str]) -> tuple[MPoly, dict[str, MPoly]] | None:
    """p = p0 + sum c_u * u over the named u, with p0 and every c_u free of
    them, as (p0, {u: c_u}); None when some term of p has degree 2 or more
    in the named symbols together."""
    ctx = p.ctx
    units = {1 << ctx._shifts[ctx.index(n)]: n for n in names}
    mask = ctx._mask(map(ctx.index, names))
    split: dict[int, dict[int, int]] = {0: {}}
    for k, c in p.packed.items():
        split.setdefault(k & mask, {})[k] = c
    if not split.keys() - {0} <= units.keys():
        return None
    degree = 1 << ctx._top
    p0 = _make(ctx, split.pop(0), p.den)
    return p0, {units[part]: _make(ctx, {k - (part | degree): c for k, c in terms.items()}, p.den)
                for part, terms in split.items()}


def _subs_constants(p: MPoly, values: Mapping[str, Fraction]) -> MPoly:
    """p with the named symbols set to constants, in one pass over its terms.

    The sums run over integers, on the common denominator p.den * prod d^top
    of the values n/d, where top is the highest power of the symbol in p: a
    monomial of powers k weighs prod n^k * d^(top - k) over it.  Each
    distinct monomial in the symbols is weighed once, and the result is
    reduced once.
    """
    ctx = p.ctx
    at = [ctx.index(n) for n in values]
    mask = ctx._mask(at)
    # the powers of the distinct monomials in the symbols, by their bits of the key
    powers = {}
    for part in {k & mask for k in p.packed}:
        e = ctx._unpack(part)
        powers[part] = [e[i] for i in at]
    tops = list(map(max, zip(*powers.values())))
    weights: dict[int, tuple[int, int]] = {}
    for part, ks in powers.items():
        w = math.prod(v.numerator ** k * v.denominator ** (top - k)
                      for v, k, top in zip(values.values(), ks, tops))
        # the monomial's key comes off each term it divides
        weights[part] = w, ctx._key(part)
    sums: dict[int, int] = {}
    for k, c in p.packed.items():
        w, drop = weights[k & mask]
        if w:
            k -= drop
            sums[k] = sums.get(k, 0) + c * w
    den = p.den * math.prod(v.denominator ** top for v, top in zip(values.values(), tops))
    # drop the coefficients that cancelled
    return _make(ctx, {k: c for k, c in sums.items() if c}, den)


def _active(p: MPoly, names: Iterable[str]) -> list[str]:
    """The names that p involves, in order, from one pass over its terms.

    Every name is looked up, so an undeclared one raises KeyError even when
    p is free of it.
    """
    shifts = p.ctx._shifts
    index = [(n, shifts[p.ctx.index(n)]) for n in names]
    support = reduce(or_, p.packed, 0)
    return [n for n, s in index if support >> s & _FIELD]


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
    return p.den == 1 and len(p.packed) == 1 and p.packed.get(0) == 1


def _normalize_pair(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    if num.is_zero():
        return num, num.ctx.poly(1)
    return _unit_normalize(*_cancel(num, den))


def _cancel(p: MPoly, q: MPoly) -> tuple[MPoly, MPoly]:
    """(p/g, q/g) for g = gcd(p, q); no gcd is run when p or q is constant."""
    if p.is_constant() or q.is_constant():
        return p, q
    return gcd_cofactors(p, q)[1:]


def _unit_normalize(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """Scale both so den has coprime integer coefficients, leading one positive."""
    unit = math.gcd(*den.packed.values()) * den.sign()
    if unit == 1 and den.den == 1:
        return num, den
    return num.scale(Fraction(den.den, unit)), den.primitive()


# ---------------------------------------------------------------------------
# 2x2 matrices
# ---------------------------------------------------------------------------


class Mat2:
    """2x2 matrix of rational functions."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[MRat]]):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("Mat2 requires a 2x2 array")
        self.entries = rows

    def __getitem__(self, ij: tuple[int, int]) -> MRat:
        i, j = ij
        return self.entries[i][j]

    def is_triangular(self) -> bool:
        return self.entries[1][0].is_zero() or self.entries[0][1].is_zero()

    def map(self, fn: Callable[[MRat], MRat]) -> "Mat2":
        """The matrix with fn applied to every entry."""
        return Mat2([[fn(e) for e in row] for row in self.entries])

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
    """Result of solve_triangular (solve_rational_linear keeps no trace).

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


@dataclass(slots=True)
class _Pending:
    """An equation or nonzero form of solve_triangular: ``reduced`` is the
    numerator of ``raw`` under the assignments (a form's, made primitive in
    its unknowns), None until an equation's first read and once a pivot
    solves one of the unknowns it involves, ``unsolved``.  While stale,
    ``unsolved`` bounds the unknowns a refresh would find: those of the last
    refresh, each solved one replaced by the unknowns of its value."""

    tag: str
    raw: MPoly
    form: bool = False
    reduced: MPoly | None = None
    unsolved: list[str] = field(default_factory=list)

    def refresh(self, assignments: Mapping[str, MRat], unknowns: Sequence[str]) -> list[str]:
        """Bring ``reduced`` up to date; the unsolved unknowns it involves."""
        if self.reduced is None:
            p = self.raw.subs(assignments).num if self.raw.involves(assignments) else self.raw
            self.unsolved = _active(p, unknowns)
            self.reduced = split_content(p, self.unsolved)[1] if self.form and self.unsolved else p
        return self.unsolved


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
    than forcing L = 0.  A product involves exactly the unknowns of its
    factors, so a form is tried as L (one exact division) only when it
    involves the same unsolved unknowns as the equation.

    Pivot order: every step acts on the first equation, in list order, that
    it can act on (drop it as zero, record it as a relation, or solve it for
    an unknown), and then scans again from the front.

    Each pending equation and each nonzero form caches its reduction under
    the assignments and the unsolved unknowns it involves, and is reduced
    again, from its raw polynomial, only once a pivot solves one of those
    unknowns.  That is exact.  Every coefficient a pivot divides by is free
    of unknowns, so every assignment, and hence every reduction, has a
    denominator free of unknowns; and a pivot u -> v turns the reduction N/D
    under the assignments into N/D with u replaced by v, which is N/D again
    when N lacks u.  So the reduction of a stale entry involves at most its
    old unknowns, less u, and the unknowns of v; a stale form whose bound
    lacks one of the equation's unknowns cannot divide it, and is left
    stale.  A stuck run reports the reductions of its last scan, which
    reached every equation left.
    """
    unknowns = list(unknowns)
    unknown_set = set(unknowns)
    polys = [eq.num if isinstance(eq, MRat) else eq for eq in equations]
    tags = sources or [f"eq{k}" for k in range(len(polys))]
    pending = [_Pending(tag, p) for tag, p in zip(tags, polys, strict=True) if not p.is_zero()]
    # a nonzero form is only used through its unknown-primitive part; its
    # parameter content is generically nonzero anyway
    forms = []
    for f in nonzero_forms:
        if not f.is_zero():
            live = _active(f, unknowns)
            f = split_content(f, live)[1]
            forms.append(_Pending("", f, form=True, reduced=f, unsolved=live))
    assignments: dict[str, MRat] = {}
    relations: list[MPoly] = []
    trace: list[TraceStep] = []
    while pending:
        for pos, eq in enumerate(pending):
            unsolved = eq.refresh(assignments, unknowns)
            p = eq.reduced
            if p.is_zero():
                break
            q = p
            if unsolved:
                # relation extraction: c(params) * L with L a designated nonzero form;
                # a stale form whose bound misses one of p's unknowns stays stale
                quotients = (exact_divide(p, f.reduced) for f in forms
                             if set(unsolved) <= set(f.unsolved)
                             and f.refresh(assignments, unknowns) == unsolved)
                q = next((q for q in quotients
                          if q is not None and not q.involves(unknown_set)), None)
            if q is not None:
                if q.is_constant():
                    # p is a nonzero constant, or one times a designated nonzero form
                    raise InconsistentSystem(p)
                relations.append(_relation_normal_form(q))
                break
            pivot = solve_linear(p, unsolved, unknown_set - assignments.keys())
            if pivot is not None:
                u, value = pivot
                assign(assignments, u, value)
                trace.append(TraceStep(u, value, eq.tag))
                gained = _active(value.num, unknowns)
                for entry in pending + forms:
                    if u in entry.unsolved:
                        entry.reduced = None
                        entry.unsolved = [w for w in entry.unsolved if w != u] + [
                            w for w in gained if w not in entry.unsolved]
                break
        else:
            raise StuckSystem([eq.reduced for eq in pending], [eq.tag for eq in pending])
        del pending[pos]
    free = [u for u in unknowns if u not in assignments]
    return TriangularSolution(assignments, relations, free, trace)


def distinct_up_to_scale(equations: Iterable[MPoly]) -> list[MPoly]:
    """The nonzero equations, each at its first copy up to a rational factor
    (primitive() is the same for p and every c*p); all share one context."""
    first: dict[frozenset, MPoly] = {}
    for p in equations:
        if not p.is_zero():
            first.setdefault(frozenset(p.primitive().packed.items()), p)
    return list(first.values())


def _subtract_multiple(row: dict[int, Fraction], f: Fraction, pivot: dict[int, Fraction]) -> None:
    """row -= f * pivot in place, dropping the entries that cancel."""
    for col, v in pivot.items():
        s = row.get(col, 0) - f * v
        if s:
            row[col] = s
        else:
            del row[col]


def solve_rational_linear(equations: Sequence[MPoly],
                          unknowns: Sequence[str]) -> TriangularSolution:
    """Solve equations of total degree at most 1 in ``unknowns``, with
    rational coefficients, as one sparse reduced echelon form over Q.

    Rows are added in list order.  Each is reduced by the pivot rows so far,
    which are monic and free of each other's pivots.  A row left without an
    unknown is dropped if it is zero and raises InconsistentSystem if not;
    any other row pivots on its lowest column in ``unknowns`` order and is
    cleared from the earlier pivot rows.  That is the elimination
    solve_triangular runs on such equations: it takes each one in list
    order, substitutes the assignments so far and solves for the first
    unsolved unknown left.  So the assignments (in the free unknowns), the
    free unknowns and a raised equation are the same as solve_triangular's;
    there are no relations, and no trace is kept.
    """
    unknowns = list(unknowns)
    if not equations:
        return TriangularSolution({}, [], unknowns)
    ctx = equations[0].ctx
    units = [ctx._units[ctx.index(u)] for u in unknowns]
    column = {key: j for j, key in enumerate(units)}
    const = len(unknowns)
    column[0] = const
    pivots: dict[int, dict[int, Fraction]] = {}
    for p in equations:
        try:
            row = {column[k]: Fraction(c, p.den) for k, c in p.packed.items()}
        except KeyError:
            raise ValueError(f"{p} is not linear in {unknowns} with rational coefficients") \
                from None
        for j in [j for j in row if j in pivots]:
            _subtract_multiple(row, row[j], pivots[j])
        lead = min((j for j in row if j != const), default=None)
        if lead is None:
            if row:
                raise InconsistentSystem(ctx.poly(row[const]))
            continue
        inv = 1 / row[lead]
        row = {col: v * inv for col, v in row.items()}
        for other in pivots.values():
            if lead in other:
                _subtract_multiple(other, other[lead], row)
        pivots[lead] = row
    keys = units + [0]
    assignments = {}
    for lead, row in pivots.items():
        rest = {col: -v for col, v in row.items() if col != lead}
        den = math.lcm(*(v.denominator for v in rest.values()))
        packed = {keys[col]: v.numerator * (den // v.denominator) for col, v in rest.items()}
        assignments[unknowns[lead]] = MRat.from_poly(_make(ctx, packed, den))
    free = [u for j, u in enumerate(unknowns) if j not in pivots]
    return TriangularSolution(assignments, [], free)


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
