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
before it differentiates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import Context, DivisionByZero, MPoly, MRat
from .recovery import relation_substitution, zero_modulo
from .surface import PlaneVectorField, chain_rule


class SymmetryError(Exception):
    pass


class SingularJacobian(SymmetryError):
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


def identity_map(ctx: Context, name: str = "id") -> BirationalMap:
    return BirationalMap(name, ctx.var("x"), ctx.var("y"), ctx.var("t"), {})


# ---------------------------------------------------------------------------
# Push-forward and the invariance residual
# ---------------------------------------------------------------------------


def push_forward(vf: PlaneVectorField, bmap: BirationalMap,
                 inverse: BirationalMap | None = None) -> PlaneVectorField:
    """Exact transformed field, written in the image variables.

    The inverse map defaults to the map itself with parameters replaced by
    their images, which is the correct inverse for the involutions used
    throughout; pass an explicit inverse otherwise.
    """
    xi, yi = bmap.x_image, bmap.y_image
    det = xi.derivative("x") * yi.derivative("y") - xi.derivative("y") * yi.derivative("x")
    if det.is_zero():
        raise SingularJacobian(f"{bmap.name}: Jacobian in (x, y) is singular")
    tprime = bmap.t_image.derivative("t")
    if tprime.is_zero():
        raise SymmetryError(f"{bmap.name}: time image does not depend on t")
    d1, d2 = chain_rule((xi, yi), vf.components(), time=True)
    if inverse is None:
        inv_subs = {"x": xi.subs(bmap.param_map), "y": yi.subs(bmap.param_map),
                    "t": bmap.t_image}
    else:
        inv_subs = {"x": inverse.x_image, "y": inverse.y_image, "t": inverse.t_image}
    return PlaneVectorField((d1 / tprime).subs(inv_subs), (d2 / tprime).subs(inv_subs),
                            vf.chart, vf.model)


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


def _random_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-9, 10) if n != 0])
    den = rng.randint(1, 4)
    return Fraction(num, den)


def draw_parameters(ctx: Context, rng: random.Random,
                    relation: MPoly | None = None,
                    eigenvalue_syms: Sequence[str] = ()) -> dict[str, MRat]:
    """One exact rational parameter draw consistent with the relation."""
    params = [s.name for s in ctx.syms if s.kind == "parameter"]
    relsub = {}
    if relation is not None:
        relsub = relation_substitution([relation], eigenvalue_syms)
    for _ in range(200):
        values = {p: ctx.rat(_random_fraction(rng)) for p in params if p not in relsub}
        try:
            full = dict(values)
            for sym, expr in relsub.items():
                full[sym] = expr.subs(values)
            if any(v.is_zero() for v in full.values()):
                continue
            return full
        except DivisionByZero:
            continue
    raise SymmetryError("could not draw consistent parameters")


def verify_symmetry(vf: PlaneVectorField, bmap: BirationalMap, mode: str = "numeric-probe",
                    relation: MPoly | None = None, eigenvalue_syms: Sequence[str] = (),
                    draws: int = 20, seed: int = 20200828) -> SymmetryReport:
    """Invariance check, exact per draw or fully symbolic.

    In numeric-probe mode all parameters and eigenvalues are instantiated at
    random rationals consistent with the eigenvalue relation and the
    residual is compared with zero exactly, draw by draw; ``draws`` must be
    at least 1.  In symbolic mode the residual is reduced modulo the
    relation; a residual that vanishes only modulo the relation is reported,
    not failed.
    """
    if mode == "symbolic":
        r1, r2 = invariance_residual(vf, bmap)
        if r1.is_zero() and r2.is_zero():
            return SymmetryReport(True, mode)
        if relation is not None:
            relsub = relation_substitution([relation], eigenvalue_syms)
            if r1.subs(relsub).is_zero() and r2.subs(relsub).is_zero():
                return SymmetryReport(True, mode, relation_required=True,
                                      note="residual vanishes modulo the eigenvalue relation")
        return SymmetryReport(False, mode, residual=(str(r1), str(r2)))
    if mode != "numeric-probe":
        raise SymmetryError(f"unknown mode {mode!r}")
    if draws < 1:
        raise ValueError(f"numeric-probe mode needs draws >= 1, got {draws}")
    ctx = vf.ctx
    params = [s.name for s in ctx.syms if s.kind == "parameter"]
    f1, f2 = vf.components()
    rng = random.Random(seed)
    done = 0
    attempts = 0
    while done < draws:
        attempts += 1
        if attempts > 50 * draws:
            raise SymmetryError("parameter draws kept hitting excluded loci")
        values = draw_parameters(ctx, rng, relation, eigenvalue_syms)
        try:
            fv = (f1.subs(values), f2.subs(values))
            images = tuple(img.subs(values)
                           for img in (bmap.x_image, bmap.y_image, bmap.t_image))
            mapped = {p: bmap.param_map.get(p, ctx.var(p)).subs(values) for p in params}
            image = dict(zip(("x", "y", "t"), images))
            r1, r2 = _residual(fv, images, (f1.subs(mapped).subs(image),
                                            f2.subs(mapped).subs(image)))
        except DivisionByZero:
            continue
        if not r1.is_zero() or not r2.is_zero():
            return SymmetryReport(False, mode, draws=done + 1, residual=(str(r1), str(r2)),
                                  note=f"failed at draw {done + 1} with "
                                       + ", ".join(f"{k}={v}" for k, v in values.items()))
        done += 1
    return SymmetryReport(True, mode, draws=done)


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
