"""Hirzebruch surface chart calculus.

The surface S_n is glued from four affine planes U0..U3.  Within a vector
field the two chart coordinates are always denoted by the context symbols
``x`` and ``y``; the chart id records which geometric chart they mean:

  U0: (x, y)            the affine plane carrying polynomial systems
  U1: (1/x, -x^n*y - g_{n-1}*x^(n-1) - ... - g_1*x)
  U2: (x, 1/y)          first divisor chart (divisor = second coord = 0)
  U3: (U1 x-coord, 1/U1 y-coord)   second divisor chart

Transforms are exact rational substitutions followed by canonicalization;
"polynomial" always means denominator 1 after canonicalization.  A field's
rewrite into a chart is computed once and held on the field, for as long as
the field lives; the held rewrites take no part in its equality, hash or
text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import Context, MPoly, MRat, solve_triangular

CHARTS = ("U0", "U1", "U2", "U3")


class SurfaceError(Exception):
    pass


class InvalidN(SurfaceError):
    pass


@dataclass(frozen=True)
class SurfaceModel:
    """Hirzebruch surface S_n with explicit gluing twist (g_1, ..., g_{n-1}).

    The boundary divisor has self-intersection n.  For the n = 2 model used
    by the Painleve systems the twist is the single entry (alpha2).
    """

    n: int
    twist: tuple[MRat, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidN(f"surface index must be >= 1, got {self.n}")
        if len(self.twist) != self.n - 1:
            raise SurfaceError(
                f"S_{self.n} needs {self.n - 1} twist coefficients, got {len(self.twist)}")

    def twist_in(self, ctx: Context) -> tuple[MRat, ...]:
        return tuple(g.lift(ctx) if g.ctx != ctx else g for g in self.twist)


def sigma2_model(ctx: Context, twist_name: str = "alpha2") -> SurfaceModel:
    """The S_2 model with symbolic twist coefficient (default alpha2)."""
    return SurfaceModel(2, (ctx.var(twist_name),))


def sigma_n_model(ctx: Context, n: int, twist: Sequence[MRat | str | int]) -> SurfaceModel:
    entries = []
    for g in twist:
        if isinstance(g, MRat):
            entries.append(g)
        elif isinstance(g, str):
            entries.append(ctx.var(g))
        else:
            entries.append(ctx.rat(g))
    return SurfaceModel(n, tuple(entries))


@dataclass(frozen=True)
class PlaneVectorField:
    """Pair (dx/dt, dy/dt) of rational functions plus the chart it lives in."""

    dxdt: MRat
    dydt: MRat
    chart: str
    model: SurfaceModel
    # chart_transform's results by target chart; not part of the field's value
    _rewrites: dict[str, PlaneVectorField] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.chart not in CHARTS:
            raise SurfaceError(f"unknown chart {self.chart}")

    @property
    def ctx(self) -> Context:
        return self.dxdt.ctx

    def components(self) -> tuple[MRat, MRat]:
        return self.dxdt, self.dydt

    def subs_params(self, values: Mapping[str, MRat]) -> "PlaneVectorField":
        vals = {k: (v if v.ctx == self.ctx else v.lift(self.ctx))
                for k, v in values.items()}
        model = SurfaceModel(self.model.n,
                             tuple(g.subs(vals) for g in self.model.twist_in(self.ctx)))
        return PlaneVectorField(self.dxdt.subs(vals), self.dydt.subs(vals),
                                self.chart, model)

    def __str__(self):
        return f"[{self.chart}] dx/dt = {self.dxdt}\n[{self.chart}] dy/dt = {self.dydt}"


# ---------------------------------------------------------------------------
# Chart transitions
# ---------------------------------------------------------------------------


def _u1_w(ctx: Context, model: SurfaceModel, xv: MRat, yv: MRat) -> MRat:
    """w1 = -x^n*y - g_{n-1}x^{n-1} - ... - g_1*x evaluated at (xv, yv)."""
    acc = -(xv ** model.n) * yv
    for i, g in enumerate(model.twist_in(ctx), start=1):
        acc = acc - g * xv ** i
    return acc


def chart_to_u0(ctx: Context, model: SurfaceModel, chart: str) -> tuple[MRat, MRat]:
    """U0 coordinates (x, y) expressed in the given chart's coordinates."""
    u, v = ctx.var("x"), ctx.var("y")
    if chart == "U0":
        return u, v
    if chart == "U2":
        return u, v.inverse()
    # U1 / U3: x = 1/u and y = -w1*u^n - sum g_i u^{n-i} with w1 = v (U1) or 1/v (U3)
    w1 = v if chart == "U1" else v.inverse()
    y = -w1 * u ** model.n
    for i, g in enumerate(model.twist_in(ctx), start=1):
        y = y - g * u ** (model.n - i)
    return u.inverse(), y


def chart_from_u0(ctx: Context, model: SurfaceModel, chart: str) -> tuple[MRat, MRat]:
    """The given chart's coordinates expressed in U0 coordinates (x, y)."""
    x, y = ctx.var("x"), ctx.var("y")
    if chart == "U0":
        return x, y
    if chart == "U2":
        return x, y.inverse()
    w1 = _u1_w(ctx, model, x, y)
    if chart == "U1":
        return x.inverse(), w1
    return x.inverse(), w1.inverse()


def chart_transform(vf: PlaneVectorField, target: str) -> PlaneVectorField:
    """Exact push-forward of a vector field to another chart.

    Chain rule on the rational transition maps; the time direction is
    untouched because all gluing maps are t-independent.  The result can be
    non-polynomial, which is informative rather than an error.  Each rewrite
    is computed once and held on ``vf``.
    """
    if target == vf.chart:
        return vf
    if target not in vf._rewrites:
        vf._rewrites[target] = _push_forward(vf, target)
    return vf._rewrites[target]


def chain_rule(phi: tuple[MRat, MRat], f: tuple[MRat, MRat],
               time: bool = False) -> tuple[MRat, MRat]:
    """J_phi . F, plus d(phi)/dt when ``time`` is set (birational maps; the
    chart gluing maps are t-independent, so chart rewrites leave it off)."""
    d = [p.derivative("x") * f[0] + p.derivative("y") * f[1] for p in phi]
    if time:
        d = [di + p.derivative("t") for di, p in zip(d, phi)]
    return d[0], d[1]


def _push_forward(vf: PlaneVectorField, target: str) -> PlaneVectorField:
    ctx = vf.ctx
    model = vf.model
    x, y = ctx.var("x"), ctx.var("y")
    # target coordinates as functions of the current chart's coordinates
    tx, ty = chart_from_u0(ctx, model, target)
    cx, cy = chart_to_u0(ctx, model, vf.chart)
    phi = (tx.subs({"x": cx, "y": cy}), ty.subs({"x": cx, "y": cy}))
    d1, d2 = chain_rule(phi, vf.components())
    # express in the target coordinates: current coords as functions of target's
    bx, by = chart_from_u0(ctx, model, vf.chart)
    ux, uy = chart_to_u0(ctx, model, target)
    inv1 = bx.subs({"x": ux, "y": uy})
    inv2 = by.subs({"x": ux, "y": uy})
    g1 = d1.subs({"x": inv1, "y": inv2})
    g2 = d2.subs({"x": inv1, "y": inv2})
    return PlaneVectorField(g1, g2, target, model)


# ---------------------------------------------------------------------------
# Logarithmic pole condition
# ---------------------------------------------------------------------------


@dataclass
class LogConditionReport:
    holds: bool
    witnesses: list[str]

    def __bool__(self):
        return self.holds


def check_log_condition(vf: PlaneVectorField) -> LogConditionReport:
    """Check membership in the admissible (log-pole along the divisor) class.

    Requires a polynomial field in U0.  Holds iff (1) the U1 rewrite is
    polynomial and (2) the U2 rewrite has the shape dX/dt = F1/Y,
    dY/dt = F2 with F1, F2 polynomial.  Witnesses name the failures.
    """
    if vf.chart != "U0":
        raise SurfaceError("log condition is checked on U0 fields")
    fiber = ("x", "y")
    witnesses: list[str] = []
    if not (vf.dxdt.is_polynomial_in(fiber) and vf.dydt.is_polynomial_in(fiber)):
        witnesses.append("field is not polynomial in U0")
        return LogConditionReport(False, witnesses)
    u1 = chart_transform(vf, "U1")
    if not u1.dxdt.is_polynomial_in(fiber):
        witnesses.append(f"U1 component dx1/dt has denominator {u1.dxdt.den}")
    if not u1.dydt.is_polynomial_in(fiber):
        witnesses.append(f"U1 component dy1/dt has denominator {u1.dydt.den}")
    u2 = chart_transform(vf, "U2")
    yv = vf.ctx.var("y")
    if not (u2.dxdt * yv).is_polynomial_in(fiber):
        witnesses.append(f"U2 component Y*dX/dt has denominator {(u2.dxdt * yv).den}")
    if not u2.dydt.is_polynomial_in(fiber):
        witnesses.append(f"U2 component dY/dt has denominator {u2.dydt.den}")
    return LogConditionReport(not witnesses, witnesses)


# ---------------------------------------------------------------------------
# Generic coefficient family
# ---------------------------------------------------------------------------


def degree_bounds(n: int) -> tuple[int, int, int, int, int]:
    """Degree caps (deg b1, ..., deg b5) forced by holomorphy on S_n."""
    if n < 1:
        raise InvalidN(f"degree bounds need n >= 1, got {n}")
    return (n + 1, n + 2, n - 1, n, n + 1)


@dataclass(frozen=True)
class CoefficientFamily:
    """A vector field whose coefficients still contain unknown symbols."""

    vf: PlaneVectorField
    unknowns: tuple[str, ...]


SIGMA2_UNKNOWNS = tuple(f"a{i}" for i in range(1, 11))


def sigma2_family(ctx: Context, model: SurfaceModel) -> CoefficientFamily:
    """The 10-coefficient family on S_2 (the most general admissible field)."""
    x, y = ctx.var("x"), ctx.var("y")
    a = {i: ctx.var(f"a{i}") for i in range(1, 11)}
    al = model.twist_in(ctx)[0]
    half = ctx.rat(Fraction(1, 2))
    two, three = ctx.rat(2), ctx.rat(3)
    dxdt = (a[1] * x ** 3 * y + a[2] * x ** 2 * y
            + half * ((three * a[1] + two * a[3]) * al - a[4]) * x ** 2
            + a[5] * x * y + ((a[2] + a[9]) * al - a[6]) * x + a[7] * y + a[8])
    dydt = (a[3] * x ** 2 * y ** 2 + a[9] * x * y ** 2 + a[10] * y ** 2
            + a[4] * x * y + a[6] * y + half * (a[1] * al + a[4]) * al)
    return CoefficientFamily(PlaneVectorField(dxdt, dydt, "U0", model), SIGMA2_UNKNOWNS)


def family_context(model: SurfaceModel, parameters: Sequence[str],
                   unknowns: Sequence[str]) -> Context:
    """Context of the given parameters, the twist's symbols and the unknowns."""
    twist_syms = []
    for g in model.twist:
        for name in g.num.variables() + g.den.variables():
            if name not in twist_syms:
                twist_syms.append(name)
    params = list(dict.fromkeys(list(parameters) + twist_syms))
    return Context.make(parameters=params, unknowns=unknowns)


def _family_caps(n: int) -> tuple[int, int, int, int, int]:
    """Effective ansatz degrees for the generic family.

    The a priori caps are degree_bounds(n); lowering deg(b5) to n excludes
    the one extra admissible line (a field proportional to the top b5
    coefficient, with tied b1/b2/b3/b4 tops) that the ten-coefficient n=2
    family does not contain, so the generated family matches it exactly.
    """
    caps = list(degree_bounds(n))
    caps[4] = n
    return tuple(caps)


def _ansatz_unknown_names(n: int) -> list[str]:
    names = []
    for b, cap in zip(range(1, 6), _family_caps(n)):
        names += [f"b{b}_{k}" for k in range(cap + 1)]
    return names


def poly_block(ctx: Context, prefix: str, degree: int) -> MRat:
    """The polynomial sum of prefix_k * x^k for k = 0..degree."""
    x = ctx.var("x")
    acc = ctx.rat(0)
    for k in range(degree + 1):
        acc = acc + ctx.var(f"{prefix}_{k}") * x ** k
    return acc


def generic_family(model: SurfaceModel, ctx: Context | None = None) -> CoefficientFamily:
    """Most general family satisfying the log condition on S_n.

    For n = 2 this is the explicit 10-coefficient family above; for other n
    the family is generated from the degree caps by imposing polynomiality
    of the U1 rewrite and eliminating the forced coefficients.
    """
    names = SIGMA2_UNKNOWNS if model.n == 2 else _ansatz_unknown_names(model.n)
    if ctx is None:
        ctx = family_context(model, [], names)
    model = SurfaceModel(model.n, tuple(g.lift(ctx) for g in model.twist))
    if model.n == 2:
        return sigma2_family(ctx, model)
    y = ctx.var("y")
    b1, b2, b3, b4, b5 = (poly_block(ctx, f"b{b}", cap)
                          for b, cap in enumerate(_family_caps(model.n), start=1))
    vf = PlaneVectorField(b1 + b2 * y, b3 + b4 * y + b5 * y * y, "U0", model)
    conditions = _u1_pole_conditions(vf)
    sol = solve_triangular(conditions, names)
    if sol.relations:
        raise SurfaceError("holomorphy conditions produced parameter relations")
    dxdt = vf.dxdt.subs(sol.assignments)
    dydt = vf.dydt.subs(sol.assignments)
    out = PlaneVectorField(dxdt, dydt, "U0", model)
    return CoefficientFamily(out, tuple(sol.free))


def _u1_pole_conditions(vf: PlaneVectorField) -> list[MPoly]:
    """Vanishing conditions making the U1 rewrite polynomial.

    The U1 components have denominators x^k; the conditions are the
    coefficients of x^j (j < k) of the numerators, collected in y.
    """
    u1 = chart_transform(vf, "U1")
    conditions: list[MPoly] = []
    for comp in (u1.dxdt, u1.dydt):
        den = comp.den
        den_x = den.degree_in("x")
        # fiber part of the denominator must be a pure power of x
        if den.degree_in("y"):
            raise SurfaceError(f"unexpected U1 denominator {den}")
        mono = den.monomial_gcd()
        rest = den.shift_down(mono)
        if rest.involves(["x", "y"]):
            raise SurfaceError(f"unexpected U1 denominator {den}")
        num = comp.num
        for j in range(den_x):
            coeff_xj = num.coefficient("x", j)
            for part in coeff_xj.as_univariate("y").values():
                if not part.is_zero():
                    conditions.append(part)
    return conditions
