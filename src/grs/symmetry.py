"""Birational transformations of the recovered systems and their verification.

A transformation acts on (x, y, t) by rational substitution and on the
parameters (including eigenvalues) by a rational parameter map.  Invariance
of a system F means the chain-rule identity

    J_phi(x,y,t) . F(x,y,t; theta) + d(phi)/dt  =  tau'(t) . F(phi, tau(t); pi(theta))

holds identically; the time reparameterization Jacobian tau' folds the
dt-rescaling into the comparison.  Verification is exact either per random
rational parameter draw (the default acceptance path) or fully symbolically
with reduction modulo the eigenvalue relation where one is required.  Both
modes take the difference of the two sides from one helper, ``_residual``,
whose left side is ``surface.chain_rule``; a probe substitutes its draw
before it differentiates, and one function, ``_vanishes``, decides whether a
residual vanishes outright or modulo the relation.

A probe run checks draws until one passes.  A draw is a random-point
identity test (Schwartz, J. ACM 1980; Zippel, EUROSAM 1979), so a map that
is not a symmetry almost always fails at once, with the same draw, note and
residual text as a run of per-draw checks.  When more draws were asked for,
each draw up to the first pass is screened (``_screen``): its residual is
evaluated mod the prime 2^61 - 1 at fixed residues of x, y and t, from
values and partials there, with no substitution or derivative on the
fields.  Unless the prime divides a draw's denominator or an evaluated
denominator vanishes (always so for a draw that leaves the residual
undefined), that evaluation is a ring homomorphism, so a nonzero image
proves the exact residual nonzero, and the draw is computed exactly and
reported.  A zero image has the exact residual reduced once (``_proved``).
Where it vanishes, outright or modulo the relation, the map is invariant,
and the run ends there and reports all the draws asked for: the screened
draw would pass, and a later draw would only check the image of that
identity under setting the parameters to the draw, a ring homomorphism that
commutes with d/dx, d/dy and d/dt and respects the relation the draw
satisfies.  This is the one way a probe run differs from a loop that checks
every draw in full: such a loop can still raise on a later draw, where too
many draws hit excluded loci or no consistent parameters are found, and a
proved run returns the proven verdict instead.  Where the proof fails (the
residual does not vanish, or its reduction divides by zero), the screened
draw is computed exactly and every draw after it is probed in full.  Where
the screen cannot decide, the draw is computed exactly, or skipped where it
is undefined, and the first passing draw is proved as above.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .algebra import (_PRIME, Context, DivisionByZero, MPoly, MRat, _power_tables,
                      _rat_image, _residues, _subs_constants)
from .recovery import relation_substitution, zero_modulo
from .surface import PlaneVectorField, chain_rule


# a probe run that is not proved is linear in its draws (a proved one ends at
# its proof); more than this many is refused
MAX_DRAWS = 1000


class SymmetryError(Exception):
    pass


@dataclass(frozen=True)
class BirationalMap:
    """Rational substitution for (x, y, t) plus a parameter map, which is
    kept as a read-only copy."""

    name: str
    x_image: MRat
    y_image: MRat
    t_image: MRat
    param_map: Mapping[str, MRat]
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "param_map", MappingProxyType(dict(self.param_map)))

    @property
    def ctx(self) -> Context:
        return self.x_image.ctx

    def full_subs(self) -> dict[str, MRat]:
        subs = {"x": self.x_image, "y": self.y_image, "t": self.t_image}
        subs.update(self.param_map)
        return subs

    def __str__(self):
        params = ", ".join(f"{k} -> {v}" for k, v in self.param_map.items())
        return (f"{self.name}: x -> {self.x_image}, y -> {self.y_image}, "
                f"t -> {self.t_image}; {params}")


# ---------------------------------------------------------------------------
# The invariance residual
# ---------------------------------------------------------------------------


def _residual(f: tuple[MRat, MRat], images: tuple[MRat, MRat, MRat],
              f_at_image: tuple[MRat, MRat]) -> tuple[MRat, MRat]:
    """J_phi . F + d(phi)/dt - tau' . F(phi, tau), given F and F(phi, tau)."""
    lhs1, lhs2 = chain_rule(images[:2], f)
    tprime = images[2].derivative("t")
    return lhs1 - tprime * f_at_image[0], lhs2 - tprime * f_at_image[1]


def invariance_residual(vf: PlaneVectorField, bmap: BirationalMap) -> tuple[MRat, MRat]:
    """Chain-rule residual; identically zero iff the system is invariant."""
    image = bmap.full_subs()
    return _residual(vf.components(), (bmap.x_image, bmap.y_image, bmap.t_image),
                     (vf.dxdt.subs(image), vf.dydt.subs(image)))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class SymmetryReport:
    invariant: bool
    mode: str
    draws: int = 0
    relation_required: bool = False
    residual: tuple[str, ...] = ()
    note: str = ""


# the numerators of a random draw
_NUMERATORS = [n for n in range(-9, 10) if n != 0]


def _random_fraction(rng: random.Random) -> Fraction:
    num = rng.choice(_NUMERATORS)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def draw_parameters(ctx: Context, rng: random.Random,
                    relsub: dict[str, MRat]) -> dict[str, MRat]:
    """One exact rational parameter draw consistent with the eigenvalue
    relation, given as its solved substitution ``relsub`` (whose values
    involve only the parameters it does not solve for)."""
    params = [s.name for s in ctx.syms if s.kind == "parameter"]
    for _ in range(200):
        values = {p: _random_fraction(rng) for p in params if p not in relsub}
        full = dict(values)
        for sym, expr in relsub.items():
            den = _subs_constants(expr.den, values).constant_value()
            if not den:
                break
            full[sym] = _subs_constants(expr.num, values).constant_value() / den
        else:
            if all(full.values()):
                return {p: ctx.rat(v) for p, v in full.items()}
    raise SymmetryError("could not draw consistent parameters")


def _vanishes(residual: tuple[MRat, MRat], relsub: dict[str, MRat]) -> bool:
    """Whether both components vanish, outright or modulo the relation."""
    return all(zero_modulo(r, relsub) for r in residual)


def _probe_residual(f: tuple[MRat, MRat], bmap: BirationalMap, values: dict[str, MRat],
                    params: Sequence[str]) -> tuple[MRat, MRat]:
    """The residual at one parameter draw, substituted before it differentiates.

    Raises DivisionByZero where the draw leaves F, an image, a mapped parameter
    or F at the mapped parameters and the images undefined.
    """
    ctx = bmap.ctx
    fv = (f[0].subs(values), f[1].subs(values))
    images = tuple(img.subs(values) for img in (bmap.x_image, bmap.y_image, bmap.t_image))
    mapped = {p: bmap.param_map.get(p, ctx.var(p)).subs(values) for p in params}
    image = dict(zip(("x", "y", "t"), images))
    return _residual(fv, images, (f[0].subs(mapped).subs(image),
                                  f[1].subs(mapped).subs(image)))


def _screen(f: tuple[MRat, MRat], bmap: BirationalMap, values: dict[str, MRat],
            params: Sequence[str]) -> tuple[int, int] | None:
    """``_probe_residual(f, bmap, values, params)`` mod _PRIME at x, y and t
    at their fixed residues, from values and partials at one point; None
    where _PRIME divides a draw's denominator or an evaluated denominator."""
    ctx = bmap.ctx
    xyt = [ctx.index(n) for n in ("x", "y", "t")]
    point = _residues(len(ctx))[0][:len(ctx)]
    try:
        # the draw is constant, so its images need no point
        for p in params:
            point[ctx.index(p)] = _rat_image(values[p])[0]
        tables = _power_tables(point)
        images = [_rat_image(img, tables, xyt)
                  for img in (bmap.x_image, bmap.y_image, bmap.t_image)]
        fv = [_rat_image(c, tables)[0] for c in f]
        # F at the images, with the mapped parameters at the images too
        at = list(point)
        for i, image in zip(xyt, images):
            at[i] = image[0]
        tables = _power_tables(at)
        mapped = {p: _rat_image(img, tables)[0]
                  for p, img in bmap.param_map.items() if p in params}
        for p, value in mapped.items():
            at[ctx.index(p)] = value
        tables = _power_tables(at)
        f_at_image = [_rat_image(c, tables)[0] for c in f]
    except DivisionByZero:
        return None
    return tuple((dx * fv[0] + dy * fv[1] + dt - images[2][3] * g) % _PRIME
                 for (_, dx, dy, dt), g in zip(images, f_at_image))


def verify_symmetry(vf: PlaneVectorField, bmap: BirationalMap, mode: str = "numeric-probe",
                    relation: MPoly | None = None, eigenvalue_syms: Sequence[str] = (),
                    draws: int = 20, seed: int = 20200828) -> SymmetryReport:
    """Invariance check, exact per draw or fully symbolic.

    In numeric-probe mode all parameters and eigenvalues are instantiated at
    random rationals consistent with the eigenvalue relation and the
    residual is compared with zero exactly, draw by draw; ``draws`` must be
    at least 1 and at most MAX_DRAWS.  When ``draws`` is more than 1, each
    draw up to the first pass is screened mod a prime first; a zero screen,
    or else the first passing draw, has the exact residual reduced once, and
    where it vanishes the run ends with an invariant report of ``draws``
    draws, even where a per-draw loop would go on to raise (see the module
    docstring).
    In symbolic mode ``draws`` is ignored and the residual is reduced modulo
    the relation; a residual that vanishes only modulo the relation is
    reported, not failed.
    """
    if mode == "symbolic":
        residual = invariance_residual(vf, bmap)
        if _vanishes(residual, {}):
            return SymmetryReport(True, mode)
        if relation is not None:
            if _vanishes(residual, relation_substitution([relation], eigenvalue_syms)):
                return SymmetryReport(True, mode, relation_required=True,
                                      note="residual vanishes modulo the eigenvalue relation")
        return SymmetryReport(False, mode, residual=tuple(map(str, residual)))
    if mode != "numeric-probe":
        raise SymmetryError(f"unknown mode {mode!r}")
    if draws < 1:
        raise ValueError(f"numeric-probe mode needs draws >= 1, got {draws}")
    if draws > MAX_DRAWS:
        raise ValueError(f"numeric-probe mode takes at most {MAX_DRAWS} draws, got {draws}")
    ctx = vf.ctx
    params = [s.name for s in ctx.syms if s.kind == "parameter"]
    f = vf.components()
    rng = random.Random(seed)
    relsub = {} if relation is None else relation_substitution([relation], eigenvalue_syms)
    prove = draws > 1
    done = 0
    attempts = 0
    while done < draws:
        attempts += 1
        if attempts > 50 * draws:
            raise SymmetryError("parameter draws kept hitting excluded loci")
        values = draw_parameters(ctx, rng, relsub)
        if prove and not done and _screen(f, bmap, values, params) == (0, 0):
            if _proved(vf, bmap, params, relsub):
                return SymmetryReport(True, mode, draws=draws)
            prove = False
        try:
            r1, r2 = _probe_residual(f, bmap, values, params)
        except DivisionByZero:
            continue
        if not r1.is_zero() or not r2.is_zero():
            return SymmetryReport(False, mode, draws=done + 1, residual=(str(r1), str(r2)),
                                  note=f"failed at draw {done + 1} with "
                                       + ", ".join(f"{k}={v}" for k, v in values.items()))
        done += 1
        if done == 1 and prove and _proved(vf, bmap, params, relsub):
            return SymmetryReport(True, mode, draws=draws)
    return SymmetryReport(True, mode, draws=done)


def _proved(vf: PlaneVectorField, bmap: BirationalMap, params: Sequence[str],
            relsub: dict[str, MRat]) -> bool:
    """Whether the exact residual vanishes, outright or modulo the relation.

    False, so that every draw is probed, when the reduction divides by zero
    or the map sends a symbol other than a parameter in its parameter map.
    """
    if not set(bmap.param_map) <= set(params):
        return False
    try:
        return _vanishes(invariance_residual(vf, bmap), relsub)
    except DivisionByZero:
        return False


def verify_involution(bmap: BirationalMap, relation: MPoly | None = None,
                      eigenvalue_syms: Sequence[str] = ()) -> bool:
    """Exact check that the map composed with itself is the identity."""
    relsub = relation_substitution([relation], eigenvalue_syms) if relation is not None else {}
    full = bmap.full_subs()
    cases = [("x", bmap.x_image, full), ("y", bmap.y_image, full),
             ("t", bmap.t_image, {"t": bmap.t_image})]
    cases += [(p, image, bmap.param_map) for p, image in bmap.param_map.items()]
    return all(zero_modulo(image.subs(subs) - bmap.ctx.var(sym), relsub)
               for sym, image, subs in cases)
