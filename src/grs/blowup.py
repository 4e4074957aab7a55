"""Blow-ups, fiber inversions and the multiplicity-2/3 resolution procedures.

A multiple accessible point on the divisor is resolved by blowing up at the
origin of its divisor chart k times (k = multiplicity) in the chart
Y_new = Y/X, requiring an accessible point on each intermediate exceptional
line, and finally inverting the fiber coordinate.  With (u, v) the divisor
chart's coordinates on U0 and L the point's location, the translation gives
u - L, each blow-up divides v by it and the inversion takes the reciprocal,
so the patching map back to the affine (x, y) plane is the closed form
(u - L, (u - L)^k / v); for the double and triple points at X = 0 in chart
U2 it is (x, x^2*y) and (x, x^3*y).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .algebra import MPoly, MRat, assign, solve_linear
from .singularities import (AccessiblePoint, LocalField, LocalIndex, SingularityError,
                            default_candidates, deflate, divisor_chart_local,
                            find_divisor_roots, linearization, restricted_numerator)
from .surface import PlaneVectorField, chart_from_u0


class ResolutionError(Exception):
    pass


class NotResolvable(ResolutionError):
    """An intermediate point fails to be accessible (coefficient conditions unmet)."""


# ---------------------------------------------------------------------------
# Elementary coordinate changes on a field's pair of components
# ---------------------------------------------------------------------------


Pair = tuple[MRat, MRat]


def translate(f: Pair, u0: MRat) -> Pair:
    """Shift the first coordinate by u0(t); the chain rule subtracts u0'."""
    ctx = f[0].ctx
    shift = {"x": ctx.var("x") + u0}
    du0 = u0.derivative("t") if "t" in ctx else ctx.rat(0)
    return f[0].subs(shift) - du0, f[1].subs(shift)


def blow_up(f: Pair) -> Pair:
    """Blow up at the origin in the direction chart (X, Y/X)."""
    ctx = f[0].ctx
    x, y = ctx.var("x"), ctx.var("y")
    sub = {"y": x * y}
    fx = f[0].subs(sub)
    return fx, (f[1].subs(sub) - y * fx) / x


def invert_fiber(f: Pair) -> Pair:
    """Replace the second coordinate by its reciprocal."""
    y = f[0].ctx.var("y")
    sub = {"y": y.inverse()}
    return f[0].subs(sub), -(y * y) * f[1].subs(sub)


def _origin_pole_values(f: Pair) -> list[tuple[str, MPoly]]:
    """For each component with vanishing denominator at the origin, the numerator there."""
    ctx = f[0].ctx
    at0 = {"x": ctx.rat(0), "y": ctx.rat(0)}
    return [(name, comp.num.subs(at0).num) for name, comp in zip("xy", f)
            if comp.den.subs(at0).is_zero()]


# ---------------------------------------------------------------------------
# Resolution of multiplicity 2 and 3
# ---------------------------------------------------------------------------


@dataclass
class ResolutionTrace:
    """Record of the coordinate changes resolving a multiple point: the field
    in the last chart (divisor x) and that chart's coordinates on U0.

    ``index`` is the local index at the resolved point; ``resolve_family``,
    whose point is accessible only under its conditions, leaves it None."""

    steps: list[str]
    final_field: LocalField
    final_chart_map: tuple[MRat, MRat]
    final_location: MRat      # along-divisor coordinate of the resolved point
    index: LocalIndex | None = None


def _resolvable(point: AccessiblePoint) -> int:
    """The point's multiplicity, refused unless it is 2 or 3."""
    if point.multiplicity not in (2, 3):
        raise ResolutionError(f"X={point.label} has multiplicity {point.multiplicity}; "
                              "resolution is implemented for multiplicities 2 and 3")
    return point.multiplicity


def _with(f: Pair, assignments: Mapping[str, MRat] | None) -> Pair:
    """The pair with the assignments substituted."""
    return (f[0].subs(assignments), f[1].subs(assignments)) if assignments else f


def _blow_up_sequence(vf: PlaneVectorField, point: AccessiblePoint,
                      on_pole: Callable[[int, str, MPoly], None],
                      assignments: Mapping[str, MRat] | None = None
                      ) -> tuple[Pair, tuple[MRat, MRat], list[str]]:
    """Translate the point to the origin, blow up k times, invert the fiber.

    ``on_pole(j, component, value)`` sees the numerator value at the origin
    of each component with a pole there, after every blow-up j < k.  The
    assignments, which ``on_pole`` may extend, are substituted into the
    field before each step.  Returns the final field's components, the
    patching map and the step text.
    """
    k, location = point.multiplicity, point.location
    local = divisor_chart_local(vf, point.chart)
    f = local.fx, local.fy
    steps = [f"start in divisor chart {point.chart}"]
    if not location.is_zero():
        f = translate(f, location)
        steps.append(f"translate X -> X - ({location})")
    for j in range(1, k + 1):
        f = blow_up(_with(f, assignments))
        steps.append(f"blow-up {j}: (X, Y) -> (X, Y/X)")
        if j < k:
            for name, value in _origin_pole_values(_with(f, assignments)):
                on_pole(j, name, value)
    f = invert_fiber(_with(f, assignments))
    steps.append("fiber inversion: (X, Y) -> (X, 1/Y)")
    u, v = chart_from_u0(vf.ctx, vf.model, point.chart)
    u = u - location
    return f, (u, u ** k / v), steps


def resolve_multiplicity(vf: PlaneVectorField, point: AccessiblePoint,
                         candidates: Sequence[MRat] = ()) -> ResolutionTrace:
    """Resolve a multiplicity-2 or 3 accessible point into a simple one.

    The point comes from ``accessible_points``, which measured its
    multiplicity.  Blows up at the origin k = multiplicity times (each
    intermediate origin must stay accessible), inverts the fiber, and finds the
    simple point on the last exceptional line, trying ``candidates`` before the
    defaults and their negatives.
    """
    _resolvable(point)

    def inaccessible(j: int, name: str, value: MPoly) -> None:
        if not value.is_zero():
            raise NotResolvable(f"after blow-up {j} the origin is not accessible "
                                f"({name}-component numerator = {value})")

    f, chart_map, steps = _blow_up_sequence(vf, point, inaccessible)
    final = LocalField(*f, divisor="x")
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
    return ResolutionTrace(steps, final, chart_map, location, linearization(final, location))


# ---------------------------------------------------------------------------
# Family-mode resolution: collect coefficient conditions instead of failing
# ---------------------------------------------------------------------------


def resolve_family(vf: PlaneVectorField, point: AccessiblePoint, resolved_location: MRat,
                   unknowns: Sequence[str]) -> tuple[ResolutionTrace, list[tuple[str, MPoly]]]:
    """Resolve a multiple point of a coefficient family symbolically: the
    trace, and the (source tag, condition) pairs collected along the way.

    Every accessibility requirement that fails to hold identically is
    emitted as a polynomial condition on the unknowns; conditions that are
    linear in a single unknown are also substituted into the working field
    so the next step can proceed, exactly like the hand computation.
    """
    k = _resolvable(point)
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

    local = divisor_chart_local(vf, point.chart)
    along, location = local.along, point.location
    f = restricted_numerator(local)
    # vanishing of the divisor numerator to the requested order
    for j in range(k):
        if j:
            f = deflate(f, along, location)
            if f is None:
                raise SingularityError("deflation by a non-root")
        if emit(f"X={location} multiplicity order {j}", f.subs({along: location}).num):
            f = f.subs(assignments)
    pair, chart_map, steps = _blow_up_sequence(
        vf, point,
        lambda j, name, value: emit(f"blow-up step {j}: exceptional origin accessibility",
                                    value),
        assignments)
    final = LocalField(*pair, divisor="x")
    at = resolved_location.subs(assignments) if assignments else resolved_location
    emit("resolved-point accessibility", restricted_numerator(final).subs({final.along: at}).num)
    final = LocalField(*_with(pair, assignments), divisor="x")
    return ResolutionTrace(steps, final, chart_map, resolved_location), conditions
