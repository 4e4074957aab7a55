"""Exact arithmetic kernel: rationals, sparse multivariate polynomials and
rational functions over Q in a declared symbol set, 2x2 matrices, and the
triangular eliminator used by scheme recovery.

Representation
--------------
A polynomial lives in a :class:`Context`, an ordered tuple of named symbols.
It is stored sparsely as a dict mapping exponent tuples (one entry per
context symbol) to ``Fraction`` coefficients; zero coefficients are never
stored.  The canonical term order is graded lexicographic on the exponent
tuple, which fixes printing, leading terms and golden-file output once and
for all.

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
when they fail.  Because the operators trust their operands, every
``MRat(num, den, _normalized=True)`` must receive a pair that is already
canonical; ``MRat(num, den)`` normalizes an arbitrary pair.

Substitution runs a Horner scheme in one substituted symbol at a time and
finds the symbols a polynomial involves in one pass over its terms.  When
every value it meets has denominator 1 (numeric draws, constants, polynomial
assignments), the scheme runs on MPoly and wraps the result once: on such
operands the MRat operators run no gcd and form the same products and sums,
so the result is the same polynomial.  :func:`solve_triangular` reduces
each pending equation and each nonzero form once per change of its
assignments, never once per scan.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub
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
    ``sources`` the source tag of each.
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

    __slots__ = ("syms", "names", "_index")

    def __init__(self, syms: Sequence[Sym]):
        names = [s.name for s in syms]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names in context")
        self.syms = tuple(syms)
        self.names = tuple(names)
        self._index = {n: i for i, n in enumerate(names)}

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
        return isinstance(other, Context) and self.syms == other.syms

    def __hash__(self):
        return hash(self.syms)

    def __repr__(self):
        return f"Context({', '.join(self.names)})"

    def extend(self, extra: Sequence[Sym]) -> "Context":
        return Context(self.syms + tuple(extra))

    # -- element builders ---------------------------------------------------

    def zero_exp(self) -> Exponent:
        return (0,) * len(self.syms)

    def poly(self, value: int | Fraction) -> "MPoly":
        c = Fraction(value)
        return MPoly(self, {} if c == 0 else {self.zero_exp(): c})

    def poly_var(self, name: str) -> "MPoly":
        e = [0] * len(self.syms)
        e[self.index(name)] = 1
        return MPoly(self, {tuple(e): Fraction(1)})

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
    coeffs = coefficients_in(p, names)
    content = coeffs[0]
    for c in coeffs[1:]:
        if content.is_constant():
            break
        content = poly_gcd(content, c)
    content = content.primitive()
    if content.is_constant():
        return p.ctx.poly(1), p
    return content, exact_divide(p, content)


def coefficients_in(p: MPoly, names: Sequence[str]) -> list[MPoly]:
    """Coefficients of p viewed as a polynomial in the named symbols.

    Each coefficient is a polynomial in the other symbols; they come in the
    order in which their monomials in ``names`` first occur among p's terms.
    """
    idx = [p.ctx.index(n) for n in names]
    groups: dict[Exponent, dict[Exponent, Fraction]] = {}
    for e, c in p.terms.items():
        key = tuple(e[i] if i in idx else 0 for i in range(len(e)))
        rest = tuple(0 if i in idx else e[i] for i in range(len(e)))
        groups.setdefault(key, {})[rest] = c
    return [MPoly(p.ctx, terms) for terms in groups.values()]


def union_context(a: Context, b: Context) -> Context:
    """Union of two contexts: a's symbols first, then b's new ones."""
    extra = tuple(s for s in b.syms if s.name not in a)
    return a.extend(extra)


def _grlex_key(e: Exponent):
    return (sum(e), e)


class MPoly:
    """Sparse multivariate polynomial over Q in a fixed context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[Exponent, Fraction]):
        self.ctx = ctx
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def degree_in(self, name: str) -> int:
        i = self.ctx.index(name)
        return max((e[i] for e in self.terms), default=0)

    def variables(self) -> tuple[str, ...]:
        return tuple(n for n, powers in zip(self.ctx.names, zip(*self.terms)) if any(powers))

    def involves(self, names: Iterable[str]) -> bool:
        idx = [self.ctx.index(n) for n in names]
        return any(any(e[i] for i in idx) for e in self.terms)

    def leading(self) -> tuple[Exponent, Fraction]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(self.ctx, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        if not self.terms or not other.terms:
            return MPoly(self.ctx, {})
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                old = out.get(e)
                out[e] = ca * cb if old is None else old + ca * cb
        return MPoly(self.ctx, out)  # drops the terms that cancelled

    def scale(self, c: Fraction | int) -> "MPoly":
        c = Fraction(c)
        return MPoly(self.ctx, {e: k * c for e, k in self.terms.items()})

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
        return isinstance(other, MPoly) and self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- calculus and substitution -------------------------------------------

    def derivative(self, name: str) -> "MPoly":
        i = self.ctx.index(name)
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            ne = tuple(ne)
            out[ne] = out.get(ne, Fraction(0)) + c * e[i]
        return MPoly(self.ctx, out)

    def as_univariate(self, name: str) -> dict[int, "MPoly"]:
        """View as a polynomial in ``name`` with MPoly coefficients."""
        i = self.ctx.index(name)
        out: dict[int, dict[Exponent, Fraction]] = {}
        for e, c in self.terms.items():
            d = e[i]
            ne = list(e)
            ne[i] = 0
            out.setdefault(d, {})[tuple(ne)] = c
        return {d: MPoly(self.ctx, t) for d, t in sorted(out.items())}

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
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            ne = [0] * len(ctx)
            for src, p in enumerate(e):
                if p:
                    ne[mapping[src]] = p
            out[tuple(ne)] = c
        return MPoly(ctx, out)

    def rename(self, names: Mapping[str, str]) -> "MPoly":
        """Rename symbols (kinds preserved), producing a parallel context."""
        syms = tuple(Sym(names.get(s.name, s.name), s.kind) for s in self.ctx.syms)
        return MPoly(Context(syms), dict(self.terms))

    # -- normal forms ---------------------------------------------------------

    def fraction_content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        return _rational_content(self.terms.values())

    def sign(self) -> int:
        if self.is_zero():
            return 0
        return 1 if self.leading()[1] > 0 else -1

    def primitive(self) -> "MPoly":
        """Integer-primitive representative with positive leading coefficient."""
        if self.is_zero():
            return self
        unit = self.fraction_content() * self.sign()
        return self.scale(1 / unit)

    def monomial_gcd(self) -> Exponent:
        if self.is_zero():
            return self.ctx.zero_exp()
        return tuple(map(min, zip(*self.terms)))

    def shift_down(self, mono: Exponent) -> "MPoly":
        """Divide by the monomial ``mono`` (must divide every term)."""
        if not any(mono):
            return self
        return MPoly(self.ctx, {tuple(map(sub, e, mono)): c for e, c in self.terms.items()})

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    __repr__ = __str__


def _rational_content(coeffs: Iterable[Fraction]) -> Fraction:
    """Positive rational c such that the coeffs over c are coprime integers (1 if none)."""
    coeffs = list(coeffs)
    if not coeffs:
        return Fraction(1)
    return Fraction(math.gcd(*(c.numerator for c in coeffs)),
                    math.lcm(*(c.denominator for c in coeffs)))


def render_poly(p: MPoly) -> str:
    """Canonical text form: graded-lex sorted terms, explicit ``*`` and ``^``."""
    if p.is_zero():
        return "0"
    pieces = []
    for e in sorted(p.terms, key=_grlex_key, reverse=True):
        c = p.terms[e]
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
    rem = {_div_key(e): c for e, c in a.terms.items()}
    divisor = sorted((_div_key(e), c) for e, c in b.terms.items())
    lo_a, hi_a = _key_bounds(rem)
    lo_b, hi_b = _key_bounds([k for k, _ in divisor])
    lo = tuple(map(sub, lo_a, lo_b))
    hi = tuple(map(sub, hi_a, hi_b))
    if any(h > 0 for h in hi) or not all(map(le, lo, hi)):
        return None
    (lead, lead_c), rest = divisor[0], divisor[1:]
    heap = list(rem)
    heapify(heap)
    quotient: dict[Exponent, Fraction] = {}
    while heap:
        k = heappop(heap)
        c = rem.pop(k, None)
        if c is None:
            continue
        kq = tuple(map(sub, k, lead))
        if not (all(map(le, lo, kq)) and all(map(le, kq, hi))):
            return None
        qc = c / lead_c
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
    return MPoly(a.ctx, {tuple(map(neg, kq[1:])): c for kq, c in quotient.items()})


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
        core = core * MPoly(a.ctx, {mono: Fraction(1)})
    return core.primitive()


def _gcd_core(a: MPoly, b: MPoly) -> MPoly:
    if a.is_constant() or b.is_constant():
        return a.ctx.poly(1)
    shared = set(a.variables()) & set(b.variables())
    if not shared:
        return a.ctx.poly(1)
    # quick divisibility shortcuts
    if exact_divide(b, a) is not None:
        return a
    if exact_divide(a, b) is not None:
        return b
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
    unit = _rational_content(c for p in u.values() for c in p.terms.values())
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

    Only the keys p involves take part.  When each of their values has
    denominator 1, the Horner scheme runs on their numerators as MPoly and
    the result is wrapped once: the MRat operators on such operands run no
    gcd and compute the same products and sums, so the result is the same
    polynomial.
    """
    active = _active(p, values)
    if not active:
        return MRat.from_poly(p)
    if all(_is_one(values[n].den) for n in active):
        return MRat.from_poly(_horner(p, {n: values[n].num for n in active}, lambda q: q))
    return _horner(p, {n: values[n] for n in active}, MRat.from_poly)


def _active(p: MPoly, names: Iterable[str]) -> list[str]:
    """The names that p involves, in order, from one pass over its terms.

    Every name is looked up, so an undeclared one raises KeyError even when
    p is free of it.
    """
    index = [(n, p.ctx.index(n)) for n in names]
    if not p.terms:
        return []
    support = [any(col) for col in zip(*p.terms)]
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
    return len(p.terms) == 1 and p.terms.get(p.ctx.zero_exp()) == 1


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
    unit = den.fraction_content() * den.sign()
    if unit != 1:
        num = num.scale(1 / unit)
        den = den.scale(1 / unit)
    return num, den


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
    """
    unknowns = list(unknowns)
    unknown_set = set(unknowns)
    eqs: list[_Pending] = []
    for k, eq in enumerate(equations):
        tag = sources[k] if sources else f"eq{k}"
        p = eq.num if isinstance(eq, MRat) else eq
        if not p.is_zero():
            eqs.append(_Pending(tag, p))
    # a nonzero form is only used through its unknown-primitive part; its
    # parameter content is generically nonzero anyway
    forms = [split_content(f, _active(f, unknowns))[1]
             for f in nonzero_forms if not f.is_zero()]
    assignments: dict[str, MRat] = {}
    relations: list[MPoly] = []
    trace: list[TraceStep] = []
    solved: set[str] = set()
    # apply_current(p) depends only on p and the assignments, so everything
    # derived from it is cached under this counter, which goes up whenever
    # the assignments (and with them ``solved``) change
    version = 0
    reduced_forms: tuple[int, list[MPoly]] = (-1, [])

    def apply_current(p: MPoly) -> MPoly:
        if not assignments or not p.involves(assignments.keys()):
            return p
        return p.subs(assignments).num

    def reduce(eq: _Pending) -> MPoly:
        if eq.version != version:
            eq.version, eq.reduced = version, apply_current(eq.raw)
            eq.unsolved = [u for u in _active(eq.reduced, unknowns) if u not in solved]
        return eq.reduced

    def current_forms() -> list[MPoly]:
        nonlocal reduced_forms
        if reduced_forms[0] != version:
            now = []
            for form in forms:
                f = apply_current(form)
                if f.is_zero() or f.is_constant():
                    continue
                live = _active(f, unknowns)
                if live:
                    now.append(split_content(f, live)[1])
            reduced_forms = (version, now)
        return reduced_forms[1]

    progress = True
    while progress and eqs:
        progress = False
        for pos, eq in enumerate(eqs):
            p = reduce(eq)
            if p.is_zero():
                del eqs[pos]
                progress = True
                break
            if not eq.unsolved:
                if p.is_constant():
                    raise InconsistentSystem(p)
                relations.append(_relation_normal_form(p))
                del eqs[pos]
                progress = True
                break
            # relation extraction: c(params) * L with L a designated nonzero form
            handled = False
            for f in current_forms():
                q = exact_divide(p, f)
                if q is not None and not q.involves(unknown_set):
                    if q.is_constant():
                        # p = (nonzero constant) * (designated nonzero form)
                        raise InconsistentSystem(p)
                    relations.append(_relation_normal_form(q))
                    del eqs[pos]
                    handled = True
                    break
            if handled:
                progress = True
                break
            pivot = solve_linear(p, eq.unsolved, unknown_set - solved)
            if pivot is None:
                continue
            u, value = pivot
            assign(assignments, u, value)
            solved.add(u)
            version += 1
            trace.append(TraceStep(u, value, eq.tag))
            del eqs[pos]
            progress = True
            break

    if eqs:
        # the last scan reduced every equation left and found none zero
        raise StuckSystem([eq.reduced for eq in eqs], [eq.tag for eq in eqs])
    free = [u for u in unknowns if u not in solved]
    return TriangularSolution(assignments, relations, free, trace)


# ---------------------------------------------------------------------------
# Expression parser for the canonical text forms
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\*\*|[()+\-*/^]))")


class ParseError(AlgebraError):
    pass


# deepest parenthesis nesting parse_rat accepts; each level takes four
# frames of its recursive descent, well inside Python's recursion limit
MAX_NESTING = 100


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
    tokens = _tokenize(text)
    pos = 0
    depth = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ParseError(f"expected {expected!r}, found {tok!r} in {text!r}")
        pos += 1
        return tok

    def parse_expr() -> MRat:
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> MRat:
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_factor() -> MRat:
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        node = parse_atom()
        if peek() in ("^", "**"):
            take()
            neg = False
            if peek() == "-":
                take()
                neg = True
            exp_tok = take()
            if not exp_tok.isdigit():
                raise ParseError(f"expected integer exponent in {text!r}")
            e = int(exp_tok)
            node = node ** (-e if neg else e)
        if sign < 0:
            node = -node
        return node

    def parse_atom() -> MRat:
        nonlocal depth
        tok = take()
        if tok == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
            node = parse_expr()
            take(")")
            depth -= 1
            return node
        if tok.isdigit():
            return ctx.rat(int(tok))
        if tok in ctx:
            return ctx.var(tok)
        raise ParseError(f"unknown symbol {tok!r} (context: {ctx.names})")

    node = parse_expr()
    if pos != len(tokens):
        raise ParseError(f"trailing input in {text!r}")
    return node
