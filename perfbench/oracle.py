"""SymPy side of the checks: expressions, relations and kernel results.

The benchmark checks grs against answers that do not come from grs:

* the paper's displays, transcribed in ``answers.py``, compared here with
  SymPy (``cancel`` of differences, relations up to a unit);
* SymPy's polynomial rings over QQ, which recompute every kernel result of
  the frozen corpus.

Every check returns None when the answer is right and a one-line reason
when it is wrong.
"""

from __future__ import annotations

import math
import random
import re

import sympy
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

import answers

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# ---------------------------------------------------------------------------
# SymPy expressions
# ---------------------------------------------------------------------------


def sym(value) -> sympy.Expr:
    """SymPy expression of grs canonical text (or of any str()-able grs value)."""
    if isinstance(value, sympy.Basic):
        return value
    text = str(value)
    names = {n: sympy.Symbol(n) for n in _IDENT.findall(text)}
    return sympy.parse_expr(text.replace("^", "**"), local_dict=names)


def substitution(mapping) -> dict:
    return {sympy.Symbol(k): sym(v) for k, v in mapping.items()}


def same(a, b, fix: dict | None = None) -> bool:
    """a == b as rational functions, after the simultaneous substitution fix."""
    a, b = sym(a), sym(b)
    if fix:
        a, b = a.xreplace(fix), b.xreplace(fix)
    return sympy.cancel(a - b) == 0


def eliminate_relation(system: str) -> dict:
    """The paper's relation of a system, solved for its last eigenvalue."""
    text, names = answers.PAPER_RELATIONS[system]
    last = sympy.Symbol(names[-1])
    (value,) = sympy.solve(sym(text), last)
    return {last: value}


def unit_multiple(ours, paper_text: str) -> bool:
    """True when ours is the paper's relation times a nonzero rational."""
    ratio = sympy.cancel(sym(ours) / sym(paper_text))
    return ratio.is_Rational and ratio != 0


# ---------------------------------------------------------------------------
# Kernel results recomputed in SymPy rings
# ---------------------------------------------------------------------------


class RingOracle:
    """Converts grs polynomials into SymPy ring elements over QQ, per context."""

    def __init__(self):
        self._rings = {}

    def ring(self, ctx) -> PolyRing:
        key = ctx.names
        if key not in self._rings:
            self._rings[key] = PolyRing(key, QQ, lex)
        return self._rings[key]

    def poly(self, p):
        R = self.ring(p.ctx)
        return R.from_dict({e: QQ(c.numerator, c.denominator) for e, c in p.terms.items()})

    def check_gcd(self, a, b, g) -> str | None:
        ga = self.poly(a).gcd(self.poly(b))
        ours = self.poly(g)
        if ga.is_zero or ours.is_zero:
            return None if ga.is_zero and ours.is_zero else "gcd differs from SymPy's"
        if ga.monic() != ours.monic():
            return f"gcd differs from SymPy's by more than a unit: {g}"
        return None

    def check_normalize(self, num, den, r) -> str | None:
        n, d = self.poly(num), self.poly(den)
        rn, rd = self.poly(r.num), self.poly(r.den)
        if rn * d != n * rd:
            return "normalized pair is a different rational function"
        if not rn.is_zero and rn.gcd(rd).monic() != rn.ring.one:
            return "normalized pair is not reduced"
        return _canonical_denominator(r.den)

    def check_mul(self, a, b, c) -> str | None:
        return None if self.poly(a) * self.poly(b) == self.poly(c) else "product differs"

    def check_subs(self, target, values, result) -> str | None:
        """result == target(values) as rational functions.

        Both sides are evaluated exactly in SymPy's QQ at random rational
        points (Schwartz-Zippel): two points off the poles must agree.
        Expanding the composition symbolically instead takes minutes on the
        largest captured substitutions.
        """
        names = result.ctx.names
        rng = random.Random(len(names))
        agreed = 0
        for _ in range(20):
            point = [QQ(rng.randint(-999, 999), rng.randint(1, 999)) for _ in names]
            try:
                at = dict(zip(target.ctx.names, point))
                at.update({k: self._value(v, point) for k, v in values.items()})
                lhs = self._value(target, [at[n] for n in target.ctx.names])
                rhs = self._value(result, point)
            except ZeroDivisionError:
                continue
            if lhs != rhs:
                return "substitution differs at a random point"
            agreed += 1
            if agreed == 2:
                return None
        return "no evaluation point off the poles"

    def _value(self, p, point):
        """Exact value in SymPy's QQ of an MPoly or MRat at a point (one per symbol)."""
        if hasattr(p, "num"):
            return self._value(p.num, point) / self._value(p.den, point)
        total = QQ(0)
        for exp, c in p.terms.items():
            term = QQ(c.numerator, c.denominator)
            for i, k in enumerate(exp):
                if k:
                    term *= point[i] ** k
            total += term
        return total


def _canonical_denominator(den) -> str | None:
    """Denominator with coprime integer coefficients and positive grlex leader."""
    coeffs = list(den.terms.values())
    if any(c.denominator != 1 for c in coeffs):
        return "denominator has non-integer coefficients"
    if math.gcd(*(c.numerator for c in coeffs)) != 1:
        return "denominator coefficients are not coprime"
    lead = max(den.terms, key=lambda e: (sum(e), e))
    if den.terms[lead] < 0:
        return "denominator leading coefficient is negative"
    return None

