"""Hirzebruch surface chart calculus.

The surface S_n is glued from four affine planes U0..U3.  Within a vector
field the two chart coordinates are always denoted by the context symbols
``x`` and ``y``; the chart id records which geometric chart they mean:

  U0: (x, y)            the affine plane carrying polynomial systems
  U1: (1/x, w1)         w1 = -x^n*y - g_1*x - ... - g_{n-1}*x^(n-1)
  U2: (x, 1/y)          first divisor chart (divisor = second coord = 0)
  U3: (1/x, 1/w1)       second divisor chart

Transforms are exact; "polynomial" means denominator 1.  A rewrite is a
walk of moves: U0 -> any chart, U1 <-> U3, U1 -> U0, U2 -> U0, U3 -> U1;
others go toward U0 first, U3 through U1.  A move maps (a, b) to
(a^e, h^f): e = -1 and h = w1(a, b) between {U0, U2} and {U1, U3}, with g
reversed out of U1 (the inverse of (1/x, w1) is (1/u, w1 with g reversed));
else e = 1, h = b.  f = -1 where U2 or U3 takes part.  With psi the walk
back, a move gives f1 o psi (times -x^2 if e = -1) and dh/dt o psi (times
-y^2 if f = -1); p o psi is summed over p's groups of equal y-degree, x
exponents reversed by a key shift if e = -1, with powers of psi's y
numerator and denominator shared by the move.  psi is an isomorphism of
Laurent rings over R = Q[t, parameters]: R[x^+-1, y] (U0, U1), R[x, y^+-1]
(U0, U2), R[x^+-1, y^+-1] (U3, and U1 or U0 localized at y or w1).  Coprime
polynomials stay coprime under localization and isomorphism, so images
share only units, monomials: only monomial content is cancelled, by no gcd.
A twist denominator D other than a monomial makes psi an isomorphism over
R[1/D], whose other units divide a power of D and are free of x and y, so a
move with w1 also cancels the gcd of the images' contents in x and y.
Moves omit the chart map's t-derivative (t is a parameter of the field), so
they compose and all paths agree.  A rewrite is computed once and held on
the field, outside its equality, hash and text.

The generic family, the most general field satisfying the log condition, is
the ten-coefficient family on S_2: the paper's schemes live on S_2, and
recovery refuses any other surface.  The chart calculus itself works on
every S_n (the existence construction uses it on S_n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import (Context, MPoly, MRat, _key_gcd, _unit_normalize, exact_divide, poly_gcd,
                      split_content)

CHARTS = ("U0", "U1", "U2", "U3")


class SurfaceError(Exception):
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
            raise SurfaceError(f"surface index must be >= 1, got {self.n}")
        if len(self.twist) != self.n - 1:
            raise SurfaceError(
                f"S_{self.n} needs {self.n - 1} twist coefficients, got {len(self.twist)}")

    def lift(self, ctx: Context) -> "SurfaceModel":
        """The model with each twist entry lifted into ctx."""
        return SurfaceModel(self.n, tuple(g.lift(ctx) for g in self.twist))


def sigma2_model(ctx: Context) -> SurfaceModel:
    """The S_2 model with symbolic twist coefficient alpha2."""
    return SurfaceModel(2, (ctx.var("alpha2"),))


@dataclass(frozen=True)
class PlaneVectorField:
    """Pair (dx/dt, dy/dt) of rational functions plus the chart it lives in;
    the model's twist entries live in the field's context, as the components
    do (``SurfaceModel.lift`` moves a model into a new context)."""

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
        model = SurfaceModel(self.model.n, tuple(g.subs(vals) for g in self.model.twist))
        return PlaneVectorField(self.dxdt.subs(vals), self.dydt.subs(vals),
                                self.chart, model)

    def __str__(self):
        return f"[{self.chart}] dx/dt = {self.dxdt}\n[{self.chart}] dy/dt = {self.dydt}"


# ---------------------------------------------------------------------------
# Chart transitions
# ---------------------------------------------------------------------------


# (source, target) -> (e, f) of each move (module docstring)
_MOVES = {("U0", "U1"): (-1, 1), ("U0", "U2"): (1, -1), ("U0", "U3"): (-1, -1),
          ("U1", "U0"): (-1, 1), ("U1", "U3"): (1, -1), ("U2", "U0"): (1, -1),
          ("U3", "U1"): (1, -1)}


def _hop(source: str, target: str) -> str:
    """The next chart on the walk from source to target (module docstring)."""
    return target if (source, target) in _MOVES else "U1" if source == "U3" else "U0"


def _walk(ctx: Context, model: SurfaceModel, source: str, target: str) -> tuple[MRat, MRat]:
    """The target's coordinates in the source's: the walk's moves on (x, y)."""
    a, b = ctx.var("x"), ctx.var("y")
    while source != target:
        hop = _hop(source, target)
        e, f = _MOVES[source, hop]
        if e == -1:
            w1 = -(a ** model.n) * b
            for i, g in enumerate(model.twist[::-1] if source == "U1" else model.twist, 1):
                w1 = w1 - g * a ** i
            a, b = a.inverse(), w1
        if f == -1:
            b = b.inverse()
        source = hop
    return a, b


def chart_from_u0(ctx: Context, model: SurfaceModel, chart: str) -> tuple[MRat, MRat]:
    """The given chart's coordinates expressed in U0 coordinates (x, y)."""
    return _walk(ctx, model, "U0", chart)


def chart_transform(vf: PlaneVectorField, target: str) -> PlaneVectorField:
    """Exact push-forward of a vector field to another chart (module
    docstring), held on ``vf``.  The result can be non-polynomial, which is
    informative rather than an error."""
    if target == vf.chart:
        return vf
    if target not in vf._rewrites:
        hop = _hop(vf.chart, target)
        vf._rewrites[target] = (_move(vf, target) if hop == target
                                else chart_transform(chart_transform(vf, hop), target))
    return vf._rewrites[target]


def chain_rule(phi: tuple[MRat, MRat], f: tuple[MRat, MRat]) -> tuple[MRat, MRat]:
    """J_phi . F + d(phi)/dt, for birational maps that may involve t."""
    return tuple(p.derivative("x") * f[0] + p.derivative("y") * f[1] + p.derivative("t")
                 for p in phi)


def _move(vf: PlaneVectorField, target: str) -> PlaneVectorField:
    """The rewrite of vf by its one move to target (module docstring)."""
    ctx, model, source = vf.ctx, vf.model, vf.chart
    e, f = _MOVES[source, target]
    f1, f2 = vf.components()
    one, dh = ctx.poly(1), f2
    if e == -1:
        # h = w1, the second coordinate of the move between U0 and U1
        w1 = _walk(ctx, model, source, "U1" if source == "U0" else "U0")[1]
        dh = w1.derivative("x") * f1 + w1.derivative("y") * f2
    pushed = ((f1, -ctx.poly_var("x") ** 2 if e == -1 else one),
              (dh, -ctx.poly_var("y") ** 2 if f == -1 else one))
    # psi = (x^e, y_num/y_den), the walk back to the source
    y_image = _walk(ctx, model, target, source)[1]
    nums, dens = [one], [one]
    for _ in range(max(p.degree_in("y") for r, _ in pushed for p in (r.num, r.den))):
        nums.append(nums[-1] * y_image.num)
        dens.append(dens[-1] * y_image.den)
    content = e == -1 and any(len(g.den.packed) > 1 for g in model.twist)

    def image(p: MPoly) -> tuple[MPoly, MPoly]:
        """(P, Q) with p o psi = P/Q, Q = x^top * y_den^b_top."""
        top = p.degree_in("x") if e == -1 else 0
        groups = p.as_univariate("y")
        b_top = max(groups, default=0)
        acc = ctx.poly(0)
        for b, q in groups.items():
            acc = acc + (q.reflect("x", top) if top else q) * dens[b_top - b] * nums[b]
        return acc, ctx.poly_var("x") ** top * dens[b_top]

    def push(r: MRat, factor: MPoly) -> MRat:
        """factor * (r o psi) in canonical form."""
        (pn, qn), (pd, qd) = image(r.num), image(r.den)
        num, den = pn * qd * factor, pd * qn
        mono = _key_gcd(ctx, (num.monomial_gcd(), den.monomial_gcd()))
        num, den = num.shift_down(mono), den.shift_down(mono)
        if content and not num.is_zero():
            g = poly_gcd(split_content(num, ("x", "y"))[0], split_content(den, ("x", "y"))[0])
            num, den = exact_divide(num, g), exact_divide(den, g)
        return MRat(*_unit_normalize(num, den), _normalized=True)

    return PlaneVectorField(*(push(r, factor) for r, factor in pushed), target, model)


# ---------------------------------------------------------------------------
# Logarithmic pole condition
# ---------------------------------------------------------------------------


def check_log_condition(vf: PlaneVectorField) -> bool:
    """Whether the field is in the admissible (log-pole along the divisor) class.

    Requires a polynomial field in U0.  Holds iff (1) the U1 rewrite is
    polynomial and (2) the U2 rewrite has the shape dX/dt = F1/Y,
    dY/dt = F2 with F1, F2 polynomial.
    """
    if vf.chart != "U0":
        raise SurfaceError("log condition is checked on U0 fields")
    fiber = ("x", "y")
    if not (vf.dxdt.is_polynomial_in(fiber) and vf.dydt.is_polynomial_in(fiber)):
        return False
    u1 = chart_transform(vf, "U1")
    if not (u1.dxdt.is_polynomial_in(fiber) and u1.dydt.is_polynomial_in(fiber)):
        return False
    u2 = chart_transform(vf, "U2")
    return ((u2.dxdt * vf.ctx.var("y")).is_polynomial_in(fiber)
            and u2.dydt.is_polynomial_in(fiber))


# ---------------------------------------------------------------------------
# Generic coefficient family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientFamily:
    """A vector field whose coefficients still contain unknown symbols."""

    vf: PlaneVectorField
    unknowns: tuple[str, ...]


SIGMA2_UNKNOWNS = tuple(f"a{i}" for i in range(1, 11))


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


def poly_block(ctx: Context, prefix: str, degree: int) -> MRat:
    """The polynomial sum of prefix_k * x^k for k = 0..degree."""
    x = ctx.var("x")
    acc = ctx.rat(0)
    for k in range(degree + 1):
        acc = acc + ctx.var(f"{prefix}_{k}") * x ** k
    return acc


def generic_family(model: SurfaceModel, ctx: Context) -> CoefficientFamily:
    """The ten-coefficient family on S_2, the most general field satisfying
    the log condition, in ctx (which holds the model's twist and a1..a10)."""
    x, y = ctx.var("x"), ctx.var("y")
    a = {i: ctx.var(f"a{i}") for i in range(1, 11)}
    al = model.twist[0]
    half = ctx.rat(Fraction(1, 2))
    two, three = ctx.rat(2), ctx.rat(3)
    dxdt = (a[1] * x ** 3 * y + a[2] * x ** 2 * y
            + half * ((three * a[1] + two * a[3]) * al - a[4]) * x ** 2
            + a[5] * x * y + ((a[2] + a[9]) * al - a[6]) * x + a[7] * y + a[8])
    dydt = (a[3] * x ** 2 * y ** 2 + a[9] * x * y ** 2 + a[10] * y ** 2
            + a[4] * x * y + a[6] * y + half * (a[1] * al + a[4]) * al)
    return CoefficientFamily(PlaneVectorField(dxdt, dydt, "U0", model), SIGMA2_UNKNOWNS)


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
