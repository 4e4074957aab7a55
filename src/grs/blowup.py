"""Blow-ups, fiber inversions and the multiplicity-2/3 resolution procedures.

A multiple accessible point on the divisor is resolved by blowing up at the
origin of its divisor chart k times (k = multiplicity) in the chart
Y_new = Y/X, requiring an accessible point on each intermediate exceptional
line, and finally inverting the fiber coordinate.  The composite patching
map back to the affine (x, y) plane is tracked exactly; for the double and
triple points treated here it comes out as (x, x^2*y) and (x, x^3*y).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .algebra import MPoly, MRat, assign, solve_linear
from .singularities import (AccessiblePoint, LocalField, divisor_chart_local,
                            find_divisor_roots, linearization_matrix,
                            local_index_from_matrix, restricted_numerator,
                            root_multiplicity, _eval_coeffs, _trim, _deflate,
                            default_candidates)
from .surface import PlaneVectorField, CoefficientFamily, chart_from_u0


class ResolutionError(Exception):
    pass


class NotResolvable(ResolutionError):
    """An intermediate point fails to be accessible (coefficient conditions unmet)."""


class MalformedExpansion(ResolutionError):
    pass


# ---------------------------------------------------------------------------
# Elementary coordinate changes on a local field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalChart:
    """A local field together with its coordinates as functions on U0."""

    fx: MRat
    fy: MRat
    u_expr: MRat  # this chart's first coordinate in terms of (x, y) on U0
    v_expr: MRat  # this chart's second coordinate in terms of (x, y) on U0

    @property
    def ctx(self):
        return self.fx.ctx


def translate_chart(c: LocalChart, u0: MRat, time: str = "t") -> LocalChart:
    """Shift the first coordinate by u0(t); the chain rule subtracts u0'."""
    ctx = c.ctx
    shift = {"x": ctx.var("x") + u0}
    du0 = u0.derivative(time) if time in ctx else ctx.rat(0)
    return LocalChart(c.fx.subs(shift) - du0, c.fy.subs(shift), c.u_expr - u0, c.v_expr)


def blow_up_chart(c: LocalChart) -> LocalChart:
    """Blow up at the chart origin in the direction chart (X, Y/X)."""
    ctx = c.ctx
    x, y = ctx.var("x"), ctx.var("y")
    sub = {"y": x * y}
    fx = c.fx.subs(sub)
    fy = (c.fy.subs(sub) - y * fx) / x
    return LocalChart(fx, fy, c.u_expr, c.v_expr / c.u_expr)


def invert_fiber_chart(c: LocalChart) -> LocalChart:
    """Replace the second coordinate by its reciprocal."""
    ctx = c.ctx
    y = ctx.var("y")
    sub = {"y": y.inverse()}
    fx = c.fx.subs(sub)
    fy = -(y * y) * c.fy.subs(sub)
    return LocalChart(fx, fy, c.u_expr, c.v_expr.inverse())


# ---------------------------------------------------------------------------
# Accessibility of a local chart point (both components may carry poles)
# ---------------------------------------------------------------------------


def _origin_pole_values(c: LocalChart) -> list[tuple[str, MPoly]]:
    """For each component with vanishing denominator at the origin, the numerator there."""
    ctx = c.ctx
    at0 = {"x": ctx.rat(0), "y": ctx.rat(0)}
    out = []
    for name, comp in (("x", c.fx), ("y", c.fy)):
        den0 = comp.den.subs(at0)
        if den0.is_zero():
            num0 = comp.num.subs(at0)
            out.append((name, num0.num))
    return out


# ---------------------------------------------------------------------------
# Resolution of multiplicity 2 and 3
# ---------------------------------------------------------------------------


@dataclass
class ResolutionTrace:
    """Record of the coordinate changes resolving a multiple point."""

    steps: list[str]
    final_chart: LocalChart
    final_location: MRat      # along-divisor coordinate of the resolved point
    final_point: AccessiblePoint
    conditions: list[tuple[str, MPoly]] = field(default_factory=list)

    @property
    def final_chart_map(self) -> tuple[MRat, MRat]:
        return self.final_chart.u_expr, self.final_chart.v_expr

    def final_local_field(self) -> LocalField:
        return LocalField(self.final_chart.fx, self.final_chart.fy, divisor="x")

    def final_index(self):
        matrix, access = linearization_matrix(self.final_local_field(), self.final_location)
        if not access.is_zero():
            raise NotResolvable(f"resolved point not accessible: {access} != 0")
        return local_index_from_matrix(matrix, "x")


def _with(c: LocalChart, assignments: Mapping[str, MRat] | None) -> LocalChart:
    """The chart with the assignments substituted into its field."""
    if not assignments:
        return c
    return LocalChart(c.fx.subs(assignments), c.fy.subs(assignments), c.u_expr, c.v_expr)


def _blow_up_sequence(vf: PlaneVectorField, chart: str, location: MRat, k: int,
                      on_pole: Callable[[int, str, MPoly], None],
                      assignments: Mapping[str, MRat] | None = None
                      ) -> tuple[LocalChart, list[str]]:
    """Translate the point to the origin, blow up k times, invert the fiber.

    ``on_pole(j, component, value)`` sees the numerator value at the origin
    of each component with a pole there, after every blow-up j < k.  The
    assignments, which ``on_pole`` may extend, are substituted into the
    field before each step.  Returns the final chart and the step text.
    """
    local = divisor_chart_local(vf, chart)
    c = LocalChart(local.fx, local.fy, *chart_from_u0(vf.ctx, vf.model, chart))
    steps = [f"start in divisor chart {chart}"]
    if not location.is_zero():
        c = translate_chart(c, location)
        steps.append(f"translate X -> X - ({location})")
    for j in range(1, k + 1):
        c = blow_up_chart(_with(c, assignments))
        steps.append(f"blow-up {j}: (X, Y) -> (X, Y/X)")
        if j < k:
            for name, value in _origin_pole_values(_with(c, assignments)):
                on_pole(j, name, value)
    c = invert_fiber_chart(_with(c, assignments))
    steps.append("fiber inversion: (X, Y) -> (X, 1/Y)")
    return c, steps


def resolve_multiplicity(vf: PlaneVectorField, point: AccessiblePoint,
                         expected_location: MRat | None = None) -> ResolutionTrace:
    """Resolve a multiplicity-2 or 3 accessible point into a simple one.

    Blows up at the origin multiplicity-many times (each intermediate origin
    must stay accessible), inverts the fiber coordinate, and locates the
    simple accessible point on the last exceptional line.
    """
    k = point.multiplicity
    if k not in (2, 3):
        raise ResolutionError(f"X={point.label} has multiplicity {k}; resolution is "
                              "implemented for multiplicities 2 and 3")
    order, _ = root_multiplicity(restricted_numerator(divisor_chart_local(vf, point.chart)),
                                 point.location)
    if order != k:
        raise NotResolvable(
            f"numerator vanishes to order {order} at {point.label}, expected {k}")

    def inaccessible(j: int, name: str, value: MPoly) -> None:
        if not value.is_zero():
            raise NotResolvable(f"after blow-up {j} the origin is not accessible "
                                f"({name}-component numerator = {value})")

    chart, steps = _blow_up_sequence(vf, point.chart, point.location, k, inaccessible)
    final = LocalField(chart.fx, chart.fy, divisor="x")
    coeffs = restricted_numerator(final)
    candidates = []
    if expected_location is not None:
        candidates.append(expected_location)
    candidates += default_candidates(vf.ctx)
    candidates += [-c for c in default_candidates(vf.ctx)]
    roots = [(r, m) for r, m in find_divisor_roots(coeffs, candidates)
             if not r.is_zero()]
    if len(roots) != 1:
        raise NotResolvable(f"expected one accessible point off the corner, found {roots}")
    location, mult = roots[0]
    if mult != 1:
        raise NotResolvable(f"resolved point at {location} is not simple (order {mult})")
    fpoint = AccessiblePoint("exceptional", location, 1)
    trace = ResolutionTrace(steps, chart, location, fpoint)
    trace.final_index()  # validates accessibility of the resolved point
    return trace


# ---------------------------------------------------------------------------
# Family-mode resolution: collect coefficient conditions instead of failing
# ---------------------------------------------------------------------------


@dataclass
class FamilyResolution:
    """Resolution of a symbolic family, conditions collected along the way."""

    trace: ResolutionTrace
    conditions: list[tuple[str, MPoly]]
    assignments: dict[str, MRat]


def resolve_family(vf: PlaneVectorField, location: MRat, multiplicity: int,
                   resolved_location: MRat, unknowns: Sequence[str],
                   chart: str = "U2") -> FamilyResolution:
    """Resolve a multiple point of a coefficient family symbolically.

    Every accessibility requirement that fails to hold identically is
    emitted as a polynomial condition on the unknowns; conditions that are
    linear in a single unknown are also substituted into the working field
    so the next step can proceed, exactly like the hand computation.
    """
    conditions: list[tuple[str, MPoly]] = []
    assignments: dict[str, MRat] = {}

    def emit(tag: str, value: MPoly):
        sub = value.subs(assignments).num if assignments else value
        if sub.is_zero():
            return
        conditions.append((tag, sub.primitive()))
        # keep the working field consistent with the emitted condition
        solved = solve_linear(sub, [u for u in unknowns if u not in assignments], unknowns)
        if solved is None:
            raise ResolutionError(f"cannot impose condition {sub} = 0 on the family")
        assign(assignments, *solved)

    local = divisor_chart_local(vf, chart)
    coeffs = restricted_numerator(local)
    # vanishing of the divisor numerator to the requested order
    work = list(coeffs)
    for j in range(multiplicity):
        value = _eval_coeffs([c.subs(assignments) for c in work], location)
        emit(f"X={location} multiplicity order {j}", value.num)
        work = _trim(_deflate([c.subs(assignments) for c in work], location))
    chart_obj, steps = _blow_up_sequence(
        vf, chart, location, multiplicity,
        lambda j, name, value: emit(f"blow-up step {j}: exceptional origin accessibility",
                                    value),
        assignments)
    final = LocalField(chart_obj.fx, chart_obj.fy, divisor="x")
    access = _eval_coeffs(restricted_numerator(final),
                          resolved_location.subs(assignments) if assignments else resolved_location)
    emit("resolved-point accessibility", access.num)
    chart_obj = _with(chart_obj, assignments)
    fpoint = AccessiblePoint("exceptional", resolved_location, 1)
    trace = ResolutionTrace(steps, chart_obj, resolved_location, fpoint, conditions)
    return FamilyResolution(trace, conditions, assignments)


# ---------------------------------------------------------------------------
# Degenerate-matrix equivalence for the double point (generic family)
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    condition_sets: dict[str, tuple[str, ...]]
    matrix_shape: str
    residuals: dict[str, tuple[str, ...]]
    equivalent: bool


def degenerate_matrix_criterion(family: CoefficientFamily) -> EquivalenceReport:
    """Three-way equivalence at X=0 on the generic family:

    (a) the point is a double point in the resolution sense,
    (b) the point is accessible with degenerate (nilpotent-diagonal)
        linear-approximation matrix,
    (c) the explicit coefficient conditions.

    Each route is reduced to a set of primitive coefficient polynomials and
    the sets are compared; the report also shows the matrix shape under the
    conditions.
    """
    vf = family.vf
    ctx = vf.ctx
    zero = ctx.rat(0)
    res = resolve_family(vf, zero, 2, -ctx.var("t"), family.unknowns)
    set_a = [p for _, p in res.conditions[:3]]
    local = divisor_chart_local(vf, "U2")
    matrix, access = linearization_matrix(local, zero)
    set_b = [access.num, matrix[0, 0].num, matrix[1, 1].num]
    set_c = [ctx.poly_var("a5"), ctx.poly_var("a7"), ctx.poly_var("a10")]

    def norm(ps):
        return tuple(sorted(str(p.primitive()) for p in ps if not p.is_zero()))

    sets = {"resolution": norm(set_a), "degenerate-matrix": norm(set_b),
            "coefficients": norm(set_c)}
    names = list(sets)
    residuals = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            diff = tuple(sorted(set(sets[a]) ^ set(sets[b])))
            residuals[f"{a} vs {b}"] = diff
    conds = {"a5": zero, "a7": zero, "a10": zero}
    shaped = matrix.map(lambda r: r.subs(conds))
    equivalent = all(not r for r in residuals.values())
    return EquivalenceReport(sets, str(shaped), residuals, equivalent)


# ---------------------------------------------------------------------------
# Graded expansion eigenvalues (triple-point criterion)
# ---------------------------------------------------------------------------


def expansion_eigenvalues(vf: PlaneVectorField) -> tuple[MRat, MRat, MRat, MRat]:
    """Diagonal entries (a2, a5, a9, a10) of the graded expansion in U2.

    These are the linear and quadratic block eigenvalues of the system
    written with its order-one pole; the triple point condition is that all
    four vanish.
    """
    local = divisor_chart_local(vf, "U2")
    ctx = vf.ctx
    y = ctx.var("y")
    f1 = local.fx * y
    f2 = local.fy
    fiber = ("x", "y")
    if not (f1.is_polynomial_in(fiber) and f2.is_polynomial_in(fiber)):
        raise MalformedExpansion("system is not in logarithmic U2 form")

    def coeff(r: MRat, i: int, j: int) -> MRat:
        num_part = r.num.coefficient("x", i).coefficient("y", j)
        return MRat.from_poly(num_part) / MRat.from_poly(r.den)

    if not coeff(f1, 0, 0).is_zero():
        raise MalformedExpansion("origin is not a singular point of the expansion")
    a5 = coeff(f1, 1, 0)
    a2 = coeff(f1, 2, 0)
    a10 = -coeff(f2, 0, 0)
    a9 = -coeff(f2, 1, 0)
    return a2, a5, a9, a10
