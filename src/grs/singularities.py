"""Accessible singular points, local indices and the alpha-test.

An accessible singular point sits on the boundary divisor (the locus where
the extended field has its order-one pole).  In a divisor chart the field
takes the shape

    ds/dt = F1(s, d) / d,      dd/dt = F2(s, d)

with d the local divisor equation.  A point (s0, 0) is accessible when
F1(s0, 0) = 0; its multiplicity is the vanishing order of F1(s, 0) at s0.
The linear-approximation matrix is the Jacobian of (d * ds/dt, d * dd/dt)
at the point, with the chain-rule correction -s0'(t) entering the entry
(along-divisor row, divisor column) whenever the location moves with t.
That correction is what pins the overall normalization of recovered
systems with a singular point at X = t.  :func:`linearization` is the one
path from that matrix to a local index, for divisor points (charts U2/U3)
and resolved points (the last chart of a blow-up sequence) alike.

The matrix is computed at the point, never as a rational function.  For
each row N/D = d * component, the partials N_c and D_c are polynomial
derivatives, and N, D, N_c, D_c are evaluated at p = (s0, 0); the entry is
(N_c(p) D(p) - N(p) D_c(p)) / D(p)^2, or N_c(p) / D(p) when D_c = 0, and
the accessibility value is N(p) / D(p).  This is exact: substitution is a
ring homomorphism, and the reduced derivative's denominator divides D^2, so
when D(p) != 0 the canonical value equals that of the reduced derivative
substituted at p.  A row with D(p) = 0 (a field not regular at the point)
takes the derivative path, substituting the reduced derivative, which
raises DivisionByZero unless the pole cancels in it.

Roots and their multiplicities come from exact division.  F1(s, 0) is one
rational function whose denominator is free of s.  For r = n/d in lowest
terms over Q(t, params), d*s - n is primitive in s, so by Gauss's lemma
(Geddes, Czapor & Labahn 1992, ch. 2) s - r divides F1 over Q(t, params)
exactly when d*s - n divides F1's numerator over Q: :func:`deflate` makes
that one division, and the vanishing order counts the divisions that
succeed.  A value that involves x or y is never a root: the roots of F1 are
algebraic over Q(t, params), and no rational function involving x or y is.
Candidates that involve them are refused without dividing, and scheme
locations may not involve them (``recovery.SingularSpec``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import Context, MRat, Mat2, Sym, exact_divide
from .surface import PlaneVectorField, chart_transform


class SingularityError(Exception):
    pass


class NotAccessible(SingularityError):
    pass


class UnresolvedFactor(SingularityError):
    """A numerator factor of degree >= 2 has no root in the candidate set."""

    def __init__(self, factor):
        self.factor = factor
        super().__init__(f"unresolved factor: {factor}")


class ZeroLeadingEigenvalue(SingularityError):
    pass


# ---------------------------------------------------------------------------
# Local fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalField:
    """A field in local coordinates with divisor = {d-symbol = 0}.

    ``divisor`` names which of the two context symbols ("x" or "y") cuts out
    the divisor; the other symbol runs along it.
    """

    fx: MRat
    fy: MRat
    divisor: str

    @property
    def ctx(self) -> Context:
        return self.fx.ctx

    @property
    def along(self) -> str:
        return "y" if self.divisor == "x" else "x"

    def component(self, name: str) -> MRat:
        return self.fx if name == "x" else self.fy


def divisor_chart_local(vf: PlaneVectorField, chart: str) -> LocalField:
    """The field in a divisor chart (U2 or U3), divisor = second coordinate."""
    if chart not in ("U2", "U3"):
        raise SingularityError("divisor charts are U2 and U3")
    w = chart_transform(vf, chart)
    return LocalField(w.dxdt, w.dydt, divisor="y")


def restricted_numerator(local: LocalField) -> MRat:
    """F1(s, 0), the pole numerator restricted to the divisor.

    A rational function of the along-divisor variable s over Q(t, params);
    its denominator is free of s.
    """
    cleared = local.component(local.along) * local.ctx.var(local.divisor)
    if not cleared.is_polynomial_in(("x", "y")):
        raise SingularityError(
            f"{local.along}-component has a pole of order > 1 along the divisor: {cleared}")
    return MRat(cleared.num.coefficient(local.divisor, 0), cleared.den)


# ---------------------------------------------------------------------------
# Root finding over Q(t, params) by candidate trial and exact division
# ---------------------------------------------------------------------------


def deflate(f: MRat, s: str, root: MRat) -> MRat | None:
    """f / (s - root) when s - root divides f, else None (see the module
    docstring); f's denominator is free of s."""
    if root.involves(("x", "y")):
        return None
    quotient = exact_divide(f.num, root.den * f.ctx.poly_var(s) - root.num)
    return None if quotient is None else MRat(quotient * root.den, f.den)


def root_multiplicity(f: MRat, s: str, root: MRat) -> tuple[int, MRat]:
    """Vanishing order of f at s = root, and f / (s - root)^order."""
    mult = 0
    while f.num.degree_in(s) and (quotient := deflate(f, s, root)) is not None:
        f, mult = quotient, mult + 1
    return mult, f


def find_divisor_roots(f: MRat, s: str,
                       candidates: Sequence[MRat]) -> list[tuple[MRat, int]]:
    """All roots in s of f over Q(t, params), with multiplicity.

    Tries the candidate set, deflating each root found; a linear residual
    factor is solved directly, a residual of degree >= 2 raises
    UnresolvedFactor.
    """
    if f.is_zero():
        raise SingularityError("numerator vanishes identically on the divisor")
    roots: list[tuple[MRat, int]] = []
    for cand in candidates:
        mult, f = root_multiplicity(f, s, cand)
        if mult:
            roots.append((cand, mult))
    coeffs = f.num.as_univariate(s)
    top = max(coeffs)
    if top == 1:
        roots.append((MRat(-coeffs.get(0, f.ctx.poly(0)), coeffs[1]), 1))
    elif top > 1:
        raise UnresolvedFactor(" + ".join(f"({MRat(c, f.den)})*X^{k}"
                                          for k, c in coeffs.items()))
    return roots


def default_candidates(ctx: Context) -> list[MRat]:
    cands = [ctx.rat(0), ctx.rat(1)]
    if "t" in ctx:
        cands.append(ctx.var("t"))
    env = os.environ.get("GRS_CANDIDATE_ROOTS", "")
    for chunk in env.split(","):
        chunk = chunk.strip()
        if chunk:
            cands.append(ctx.parse(chunk))
    return cands


# ---------------------------------------------------------------------------
# Accessible points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessiblePoint:
    """A divisor point (location, 0) where solutions may enter the interior."""

    chart: str
    location: MRat
    multiplicity: int

    @property
    def at_infinity(self) -> bool:
        return self.chart == "U3"

    @property
    def label(self) -> str:
        return "inf" if self.at_infinity else str(self.location)

    def __str__(self):
        mult = f" ({self.multiplicity})" if self.multiplicity > 1 else ""
        return f"X={self.label}{mult}"


def accessible_points(vf: PlaneVectorField,
                      extra_candidates: Sequence[MRat] = ()) -> list[AccessiblePoint]:
    """All accessible singular points on the boundary divisor.

    Finite locations are found in chart U2, the point at infinity in U3
    (always by moving to the chart, never by projective limits).
    """
    ctx = vf.ctx
    candidates = default_candidates(ctx) + list(extra_candidates)
    u2 = divisor_chart_local(vf, "U2")
    points = [AccessiblePoint("U2", root, mult)
              for root, mult in find_divisor_roots(restricted_numerator(u2), u2.along,
                                                   candidates)]
    zero = ctx.rat(0)
    u3 = divisor_chart_local(vf, "U3")
    mult, _ = root_multiplicity(restricted_numerator(u3), u3.along, zero)
    if mult:
        points.append(AccessiblePoint("U3", zero, mult))
    return points


# ---------------------------------------------------------------------------
# Linearization / local index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalIndex:
    """Linear approximation data at an accessible point.

    The matrix is stored exactly as extracted, rows and columns in the local
    chart's (x, y) order.  ``eigenvalues`` is the ordered pair (divisor
    eigenvalue, along-divisor eigenvalue); ``ratio`` is along/divisor, the
    quantity that must be an integer for the Painleve property.
    """

    matrix: Mat2
    divisor: str
    eigenvalues: tuple[MRat, MRat]
    ratio: MRat


def linearization_matrix(local: LocalField, along_location: MRat) -> tuple[Mat2, MRat]:
    """Matrix of linear approximation and the accessibility value F1(p).

    No accessibility check is performed here; callers either verify the
    returned value is zero or emit it as a constraint equation.
    """
    ctx = local.ctx
    d_name, s_name = local.divisor, local.along
    d = ctx.var(d_name)
    point = {s_name: along_location, d_name: ctx.rat(0)}
    order = ("x", "y")
    rows = {name: local.component(name) * d for name in order}
    # (N(p), D(p)) of each row N/D
    values = {name: (row.num.subs(point), row.den.subs(point)) for name, row in rows.items()}
    num_s, den_s = values[s_name]
    # where D(p) = 0, subs raises the DivisionByZero that names the row
    access_value = rows[s_name].subs(point) if den_s.is_zero() else num_s / den_s
    moving = along_location.derivative("t") if "t" in ctx else ctx.rat(0)
    entries = [[None, None], [None, None]]
    for i, row_name in enumerate(order):
        for j, col_name in enumerate(order):
            entries[i][j] = _partial_at(rows[row_name], col_name, point, *values[row_name])
    if not moving.is_zero():
        i = order.index(s_name)
        j = order.index(d_name)
        entries[i][j] = entries[i][j] - moving
    return Mat2(entries), access_value


def _partial_at(row: MRat, name: str, point: Mapping[str, MRat],
                num_p: MRat, den_p: MRat) -> MRat:
    """d(row)/d(name) at p, for row = N/D with N(p), D(p) given.

    Where D(p) != 0 the quotient rule is evaluated at p, with no derivative
    built and normalized; otherwise the reduced derivative is substituted.
    """
    if den_p.is_zero():
        return row.derivative(name).subs(point)
    num_c = row.num.derivative(name).subs(point)
    den_c = row.den.derivative(name)
    if den_c.is_zero():
        return num_c / den_p
    return (num_c * den_p - num_p * den_c.subs(point)) / (den_p * den_p)


def linearization(local: LocalField, location: MRat) -> LocalIndex:
    """Local index at the accessible point (location, 0) of a local field.

    The one path from a linearization matrix to a LocalIndex, for divisor
    charts (``divisor_chart_local``) and resolved charts alike.
    """
    matrix, access = linearization_matrix(local, location)
    if not access.is_zero():
        raise NotAccessible(f"numerator {access} does not vanish at "
                            f"{local.along} = {location} on {local.divisor} = 0")
    if not matrix.is_triangular():
        raise SingularityError(f"linearization matrix is not triangular: {matrix}")
    di = ("x", "y").index(local.divisor)
    a11, a22 = matrix[di, di], matrix[1 - di, 1 - di]
    if a11.is_zero():
        raise ZeroLeadingEigenvalue(f"divisor eigenvalue vanishes in {matrix}")
    return LocalIndex(matrix, local.divisor, (a11, a22), a22 / a11)


# ---------------------------------------------------------------------------
# Alpha test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaTestResult:
    """Outcome of the scaling test at a simple accessible point.

    reduced is the constant-coefficient matrix at t = t0 (the limit system
    d(S,D)/dT = (1/D) * reduced * (S,D) in the scaled variables); the closed
    form follows the two explicit solution shapes, a power law with exponent
    ratio for distinct eigenvalues or a logarithm multiplied by the coupling
    entry in the resonant case.
    """

    reduced: Mat2
    divisor: str
    closed_form: str
    single_valued: bool
    reason: str
    ratio: MRat


def alpha_test(vf: PlaneVectorField, point: AccessiblePoint) -> AlphaTestResult:
    if point.multiplicity != 1:
        raise SingularityError("alpha test applies to simple points")
    index = linearization(divisor_chart_local(vf, point.chart), point.location)
    ctx = index.matrix[0, 0].ctx
    if "t0" not in ctx:
        ctx = ctx.extend([Sym("t0", "parameter")])
    fix = {"t": ctx.var("t0")}

    def at_t0(r: MRat) -> MRat:
        return r.lift(ctx).subs(fix)

    reduced = index.matrix.map(at_t0)
    order = ("x", "y")
    di = order.index(index.divisor)
    si = 1 - di
    a11 = reduced[di, di]
    a22 = reduced[si, si]
    # the along-divisor equation couples to the divisor variable through the
    # single off-diagonal entry of the triangular matrix
    coupling = reduced[si, di]
    if a11.is_zero():
        raise ZeroLeadingEigenvalue("a11(t0) = 0: ratio undefined")
    dname = "W" if index.divisor == "y" else "U"
    sname = "Z" if index.divisor == "y" else "V"
    first = f"{dname}(T) = ({a11})*T + C1"
    if a11 == a22:
        log_coeff = coupling / a11
        closed = (f"{first}; {sname}(T) = C2*(({a11})*T + C1) + "
                  f"({log_coeff})*(({a11})*T + C1)*Log(({a11})*T + C1)")
        if coupling.is_zero():
            return AlphaTestResult(reduced, index.divisor, closed, True,
                                   "integer-ratio", ctx.rat(1))
        return AlphaTestResult(reduced, index.divisor, closed, False,
                               "resonant-requires-zero", ctx.rat(1))
    ratio = a22 / a11
    tail = coupling / (a11 - a22)
    closed = (f"{first}; {sname}(T) = C2*(({a11})*T + C1)^({ratio}) + "
              f"({tail})*(({a11})*T + C1)")
    if ratio.is_integer():
        return AlphaTestResult(reduced, index.divisor, closed, True, "integer-ratio", ratio)
    return AlphaTestResult(reduced, index.divisor, closed, False, "branching", ratio)
