"""Blow-ups, fiber inversions and the multiplicity-2/3 resolution procedures.

A multiple accessible point on the divisor is resolved by blowing up at the
origin of its divisor chart k times (k = multiplicity) in the chart
Y_new = Y/X, requiring an accessible point on each intermediate exceptional
line, and finally inverting the fiber coordinate.  The composite patching
map back to the affine (x, y) plane is tracked exactly; for the double and
triple points treated here it comes out as (x, x^2*y) and (x, x^3*y).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .algebra import MPoly, MRat, assign, solve_linear
from .singularities import (AccessiblePoint, LocalField, LocalIndex, SingularityError,
                            default_candidates, deflate, divisor_chart_local,
                            find_divisor_roots, linearization, restricted_numerator,
                            root_multiplicity)
from .surface import PlaneVectorField, chart_from_u0


class ResolutionError(Exception):
    pass


class NotResolvable(ResolutionError):
    """An intermediate point fails to be accessible (coefficient conditions unmet)."""


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


def translate_chart(c: LocalChart, u0: MRat) -> LocalChart:
    """Shift the first coordinate by u0(t); the chain rule subtracts u0'."""
    ctx = c.ctx
    shift = {"x": ctx.var("x") + u0}
    du0 = u0.derivative("t") if "t" in ctx else ctx.rat(0)
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
    """Record of the coordinate changes resolving a multiple point.

    ``index`` is the local index at the resolved point; ``resolve_family``,
    whose point is accessible only under its conditions, leaves it None."""

    steps: list[str]
    final_chart: LocalChart
    final_location: MRat      # along-divisor coordinate of the resolved point
    index: LocalIndex | None = None

    @property
    def final_chart_map(self) -> tuple[MRat, MRat]:
        return self.final_chart.u_expr, self.final_chart.v_expr

    def final_local_field(self) -> LocalField:
        return LocalField(self.final_chart.fx, self.final_chart.fy, divisor="x")


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
                         candidates: Sequence[MRat] = ()) -> ResolutionTrace:
    """Resolve a multiplicity-2 or 3 accessible point into a simple one.

    Blows up at the origin k = multiplicity times (each intermediate origin must
    stay accessible), inverts the fiber, and finds the simple point on the last
    exceptional line, trying ``candidates`` before the defaults and their negatives.
    """
    k = point.multiplicity
    if k not in (2, 3):
        raise ResolutionError(f"X={point.label} has multiplicity {k}; resolution is "
                              "implemented for multiplicities 2 and 3")
    local = divisor_chart_local(vf, point.chart)
    order, _ = root_multiplicity(restricted_numerator(local), local.along, point.location)
    if order != k:
        raise NotResolvable(
            f"numerator vanishes to order {order} at {point.label}, expected {k}")

    def inaccessible(j: int, name: str, value: MPoly) -> None:
        if not value.is_zero():
            raise NotResolvable(f"after blow-up {j} the origin is not accessible "
                                f"({name}-component numerator = {value})")

    chart, steps = _blow_up_sequence(vf, point.chart, point.location, k, inaccessible)
    final = LocalField(chart.fx, chart.fy, divisor="x")
    defaults = default_candidates(vf.ctx)
    candidates = [*candidates, *defaults, *(-c for c in defaults)]
    roots = [(r, m) for r, m in find_divisor_roots(restricted_numerator(final), final.along,
                                                   candidates)
             if not r.is_zero()]
    if len(roots) != 1:
        raise NotResolvable(f"expected one accessible point off the corner, found {roots}")
    location, mult = roots[0]
    if mult != 1:
        raise NotResolvable(f"resolved point at {location} is not simple (order {mult})")
    return ResolutionTrace(steps, chart, location, linearization(final, location))


# ---------------------------------------------------------------------------
# Family-mode resolution: collect coefficient conditions instead of failing
# ---------------------------------------------------------------------------


@dataclass
class FamilyResolution:
    """Resolution of a symbolic family, conditions collected along the way."""

    trace: ResolutionTrace
    conditions: list[tuple[str, MPoly]]


def resolve_family(vf: PlaneVectorField, location: MRat, multiplicity: int,
                   resolved_location: MRat, unknowns: Sequence[str],
                   chart: str) -> FamilyResolution:
    """Resolve a multiple point of a coefficient family symbolically.

    Every accessibility requirement that fails to hold identically is
    emitted as a polynomial condition on the unknowns; conditions that are
    linear in a single unknown are also substituted into the working field
    so the next step can proceed, exactly like the hand computation.
    """
    conditions: list[tuple[str, MPoly]] = []
    assignments: dict[str, MRat] = {}

    def emit(tag: str, value: MPoly) -> bool:
        """Impose value = 0 unless it holds already; whether it was imposed."""
        sub = value.subs(assignments).num if assignments else value
        if sub.is_zero():
            return False
        conditions.append((tag, sub.primitive()))
        # keep the working field consistent with the emitted condition
        solved = solve_linear(sub, [u for u in unknowns if u not in assignments], unknowns)
        if solved is None:
            raise ResolutionError(f"cannot impose condition {sub} = 0 on the family")
        assign(assignments, *solved)
        return True

    local = divisor_chart_local(vf, chart)
    along = local.along
    f = restricted_numerator(local)
    # vanishing of the divisor numerator to the requested order
    for j in range(multiplicity):
        if j:
            f = deflate(f, along, location)
            if f is None:
                raise SingularityError("deflation by a non-root")
        if emit(f"X={location} multiplicity order {j}", f.subs({along: location}).num):
            f = f.subs(assignments)
    chart_obj, steps = _blow_up_sequence(
        vf, chart, location, multiplicity,
        lambda j, name, value: emit(f"blow-up step {j}: exceptional origin accessibility",
                                    value),
        assignments)
    final = LocalField(chart_obj.fx, chart_obj.fy, divisor="x")
    at = resolved_location.subs(assignments) if assignments else resolved_location
    emit("resolved-point accessibility", restricted_numerator(final).subs({final.along: at}).num)
    chart_obj = _with(chart_obj, assignments)
    return FamilyResolution(ResolutionTrace(steps, chart_obj, resolved_location), conditions)
