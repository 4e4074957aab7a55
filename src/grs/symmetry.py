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

A probe run draws and checks in full until one draw passes.  That draw is a
random-point identity test (Schwartz, J. ACM 1980; Zippel, EUROSAM 1979),
so a map that is not a symmetry almost always fails at once, with the same
draw, note and residual text as a run of per-draw checks.  After it, the
exact residual is reduced once.  Where it vanishes, every later draw is only
tested for admissibility, because then the probe of an admissible draw
passes.  The argument: let v be the draw and R_v the rational functions in
the parameters, x, y and t whose reduced denominator does not vanish
identically in x, y, t when the parameters are set to v.  Setting the
parameters to v is a ring homomorphism from R_v onto the rational functions
in x, y, t, and it commutes with d/dx, d/dy and d/dt.  The probe's
conditions put F, the images and the mapped parameters in R_v.  Where also
den(F) at the mapped parameters and the images specializes to a nonzero
function, F at the mapped parameters and the images lies in R_v, so the
residual does, and the probe's residual is its image under the
homomorphism.  The draw satisfies the relation, so that image is also the
image of the residual after the relation substitution; a residual that
vanishes there gives zero.  ``_admissible`` certifies those denominators
nonzero by their images modulo the prime 2^61 - 1, with x, y and t at one
fixed point.  Reduction modulo a prime p is a ring homomorphism on the
rationals whose denominators are prime to p, so a nonzero image is the image
of a nonzero value, and a function with a nonzero value is not the zero
function.  A zero image, or a denominator that the prime divides, proves
nothing: the draw is then probed in full, so the excluded draws, and the
error after too many of them, are the same as when every draw is probed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (Context, DivisionByZero, MPoly, MRat, _subs_constants, residue, residue_poly,
                      residue_ratio, residue_value)
from .recovery import relation_substitution, zero_modulo
from .surface import PlaneVectorField, chain_rule


# a probe run is linear in its draws; more than this many is refused
MAX_DRAWS = 1000


class SymmetryError(Exception):
    pass


@dataclass(frozen=True)
class BirationalMap:
    """Rational substitution for (x, y, t) plus a parameter map."""

    name: str
    x_image: MRat
    y_image: MRat
    t_image: MRat
    param_map: dict[str, MRat]
    note: str = ""

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
    lhs1, lhs2 = chain_rule(images[:2], f, time=True)
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


# the point at which ``_admissible`` evaluates x, y and t; any point will do,
# since a zero there only sends the draw to the full probe
_POINT = {"x": Fraction(101, 103), "y": Fraction(107, 109), "t": Fraction(113, 127)}


@dataclass(frozen=True)
class _Reduced:
    """What ``_admissible`` evaluates at a draw, modulo the prime 2^61 - 1.

    ``at_point`` are the denominators of F with x, y and t at ``_POINT``, and
    ``full`` the same denominators in every symbol.  ``maps`` holds, for x,
    y, t and each mapped parameter, its context index and the numerator and
    denominator of its image with x, y and t at ``_POINT``.  A parameter
    image free of x, y and t, as every builtin one is, does not change; one
    that involves them is then tested at ``_POINT`` as well.
    """

    ctx: Context
    at_point: list
    full: list
    maps: list


def _reduced(dens: Sequence[MPoly], bmap: BirationalMap) -> _Reduced | None:
    """The data ``_admissible`` evaluates, reduced once per probe run; None
    where the prime divides the denominator of a coefficient."""
    ctx = bmap.ctx
    point = {n: residue(v) for n, v in _POINT.items()}
    at_point = [residue_poly(d, point) for d in dens]
    full = [residue_poly(d, {}) for d in dens]
    images = [("x", bmap.x_image), ("y", bmap.y_image), ("t", bmap.t_image)]
    maps = [(ctx.index(n), residue_poly(img.num, point), residue_poly(img.den, point))
            for n, img in images + list(bmap.param_map.items())]
    if None in at_point or None in full or any(None in m for m in maps):
        return None
    return _Reduced(ctx, at_point, full, maps)


def _admissible(reduced: _Reduced | None, values: dict[str, MRat]) -> bool:
    """Cheap sufficient test that ``_probe_residual`` is defined at a draw.

    True where, mod the prime, the denominators of F are nonzero at the draw
    and ``_POINT``, the images have nonzero denominators there, the mapped
    parameters have nonzero denominators at the draw and ``_POINT``, and the
    denominators of F at the mapped parameters and those image values are
    nonzero.  A nonzero image is the image of a nonzero value, and each
    value then certifies that a denominator the probe divides by is a
    nonzero function.  False where this test cannot tell, including where
    the prime divides the denominator of a drawn value; never raises.
    """
    if reduced is None:
        return False
    drawn = [None] * len(reduced.ctx)
    for p, v in values.items():
        r = residue(v)
        if r is None:
            return False
        drawn[reduced.ctx.index(p)] = r
    if not all(residue_value(d, drawn) for d in reduced.at_point):
        return False
    # the parameters the map leaves alone keep their draws
    at = list(drawn)
    for i, num, den in reduced.maps:
        at[i] = residue_ratio(num, den, drawn)
        if at[i] is None:
            return False
    return all(residue_value(d, at) for d in reduced.full)


def verify_symmetry(vf: PlaneVectorField, bmap: BirationalMap, mode: str = "numeric-probe",
                    relation: MPoly | None = None, eigenvalue_syms: Sequence[str] = (),
                    draws: int = 20, seed: int = 20200828) -> SymmetryReport:
    """Invariance check, exact per draw or fully symbolic.

    In numeric-probe mode all parameters and eigenvalues are instantiated at
    random rationals consistent with the eigenvalue relation and the
    residual is compared with zero exactly, draw by draw; ``draws`` must be
    at least 1 and at most MAX_DRAWS.  After the first passing draw the
    exact residual is reduced once; where it vanishes, the later draws are
    only tested for admissibility (see the module docstring).  In symbolic
    mode ``draws`` is ignored and the residual is reduced modulo the
    relation; a residual that vanishes only modulo the relation is reported,
    not failed.
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
    dens = {c.den for c in f}
    rng = random.Random(seed)
    relsub = {} if relation is None else relation_substitution([relation], eigenvalue_syms)
    proved = None  # whether the exact residual vanishes, decided after one passing draw
    reduced = None  # what _admissible evaluates, set up once the residual is proved zero
    done = 0
    attempts = 0
    while done < draws:
        attempts += 1
        if attempts > 50 * draws:
            raise SymmetryError("parameter draws kept hitting excluded loci")
        values = draw_parameters(ctx, rng, relsub)
        if proved and _admissible(reduced, values):
            done += 1
            continue
        try:
            r1, r2 = _probe_residual(f, bmap, values, params)
        except DivisionByZero:
            continue
        if not r1.is_zero() or not r2.is_zero():
            return SymmetryReport(False, mode, draws=done + 1, residual=(str(r1), str(r2)),
                                  note=f"failed at draw {done + 1} with "
                                       + ", ".join(f"{k}={v}" for k, v in values.items()))
        done += 1
        if proved is None and done < draws:
            proved = _proved(vf, bmap, params, relsub)
            if proved:
                reduced = _reduced(dens, bmap)
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
    ctx = bmap.ctx
    relsub = relation_substitution([relation], eigenvalue_syms) if relation is not None else {}
    full = bmap.full_subs()
    if not zero_modulo(bmap.x_image.subs(full) - ctx.var("x"), relsub):
        return False
    if not zero_modulo(bmap.y_image.subs(full) - ctx.var("y"), relsub):
        return False
    if not zero_modulo(bmap.t_image.subs({"t": bmap.t_image}) - ctx.var("t"), relsub):
        return False
    for p, image in bmap.param_map.items():
        if not zero_modulo(image.subs(bmap.param_map) - ctx.var(p), relsub):
            return False
    return True
