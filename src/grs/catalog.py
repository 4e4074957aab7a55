"""Built-in catalog: reference systems, schemes, and birational maps.

Everything here is a verbatim transcription of the published displays for the
sixth Painleve system, its eigenvalue generalizations (the four-, three-,
two- and two-double-point families), the corresponding geometric Riemann
schemes, and the transformation groups.  The delta denominators are kept in
cleared form exactly as printed; recovered systems are compared against
these transcriptions term for term.

``get_system``, ``get_scheme`` and ``get_maps`` build each builtin entry once
per process and hand every caller the same object, so a field keeps its memo
of chart rewrites from one command to the next.  The shared entries are
read-only: the dataclasses are frozen, a normalization and a map's parameter
images are read-only mappings, and the maps of a system come as a tuple.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .algebra import Context, MPoly, MRat, Mat2
from .diophantine import relation_polynomial
from .recovery import GRScheme, ResolvedData, SingularSpec
from .surface import PlaneVectorField, SurfaceModel, sigma2_model
from .symmetry import BirationalMap


@dataclass(frozen=True)
class SystemEntry:
    name: str
    vf: PlaneVectorField
    params: tuple[str, ...]
    eigenvalue_syms: tuple[str, ...]
    relation: MPoly | None
    normalization: Mapping[str, MRat] | None


@dataclass(frozen=True)
class SchemeEntry:
    name: str
    scheme: GRScheme
    golden_system: str


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

ALPHAS = tuple(f"alpha{i}" for i in range(5))

# Each builtin family once: its parameters in context order, its eigenvalue
# symbols, and the name of its eigenvalue relation in diophantine.RELATIONS.
FAMILIES: dict[str, tuple[tuple[str, ...], tuple[str, ...], str | None]] = {
    "pvi": (ALPHAS, (), None),
    "gen-pvi": (ALPHAS + ("n1", "n2", "n3", "n4"), ("n1", "n2", "n3", "n4"), "genVI"),
    "gen-pv": (ALPHAS[:4] + ("n1", "n2", "n3"), ("n1", "n2", "n3"), "genV"),
    "gen-piv": (ALPHAS[:3] + ("n1", "n2", "a"), ("n1", "n2"), "genIV"),
    "gen-piii": (ALPHAS[:3] + ("n1", "n2"), ("n1", "n2"), "genIII"),
}


def _ctx(name: str) -> Context:
    return Context.make(parameters=FAMILIES[name][0])


def _system(name: str, vf: PlaneVectorField) -> SystemEntry:
    params, syms, rel = FAMILIES[name]
    return SystemEntry(name, vf, params, syms, relation_polynomial(rel, vf.ctx), None)


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

HVI_TEXT = ("H_VI(x, y, t; alpha0..alpha4) = (1/(t*(t-1))) * ["
            "y^2*(x-t)*(x-1)*x"
            " - {(alpha0-1)*(x-1)*x + alpha3*(x-t)*x + alpha4*(x-t)*(x-1)}*y"
            " + alpha2*(alpha1+alpha2)*x]"
            "   with alpha0 + alpha1 + 2*alpha2 + alpha3 + alpha4 = 1")


def pvi_system(normalized: bool = False) -> SystemEntry:
    """The sixth Painleve system (polynomial Hamiltonian form).

    The parameters satisfy alpha0 + alpha1 + 2*alpha2 + alpha3 + alpha4 = 1;
    with normalized=True that relation is substituted (alpha0 eliminated),
    which is what makes the field admissible on the surface.
    """
    ctx = _ctx("pvi")
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    a0, a1, a2, a3, a4 = (ctx.var(n) for n in ALPHAS)
    one, two = ctx.rat(1), ctx.rat(2)
    pref = (t * (t - one)).inverse()
    dxdt = pref * (two * y * (x - t) * (x - one) * x
                   - (a0 - one) * (x - one) * x
                   - a3 * (x - t) * x
                   - a4 * (x - t) * (x - one))
    dydt = pref * (-((x - t) * (x - one) + (x - t) * x + (x - one) * x) * y ** 2
                   + ((a0 - one) * (two * x - one) + a3 * (two * x - t)
                      + a4 * (two * x - t - one)) * y
                   - a2 * (a1 + a2))
    vf = PlaneVectorField(dxdt, dydt, "U0", sigma2_model(ctx))
    normalization = MappingProxyType({"alpha0": one - a1 - two * a2 - a3 - a4})
    if normalized:
        vf = vf.subs_params(normalization)
    return SystemEntry("pvi", vf, *FAMILIES["pvi"][:2], None, normalization)


def gen_pvi_system() -> SystemEntry:
    """Four simple points with eigenvalues (n_i, 1); reduces to PVI at n=2."""
    ctx = _ctx("gen-pvi")
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    a0, a1, a2, a3, a4 = (ctx.var(n) for n in ALPHAS)
    n1, n2, n3 = ctx.var("n1"), ctx.var("n2"), ctx.var("n3")
    one, two = ctx.rat(1), ctx.rat(2)
    p3 = n1 * n2 * n3
    s2 = n1 * n2 + n1 * n3 + n2 * n3
    q = two * p3 - s2
    delta = (n1 * n2 * a0 + q * a1 - p3 * a2 + n1 * n3 * a3 + n2 * n3 * a4)
    pref = (delta * t * (t - one)).inverse()
    dxdt = pref * (p3 * x * (x - one) * (t - x) * y
                   + (q * a1 - p3 * a2) * x ** 2
                   + (-q * a1 + p3 * a2 + n1 * n3 * a3 * (t - one) + n2 * n3 * a4 * t) * x
                   - n2 * n3 * a4 * t)
    dydt = pref * ((s2 * x ** 2 - (n1 * n2 + n2 * n3 + (n1 + n2) * n3 * t) * x
                    + n2 * n3 * t) * y ** 2
                   + (-(two * q * a1 + (p3 - two * s2) * a2) * x
                      + q * a1
                      + ((n1 * n2 - n1 - n2) * n3 * t - n1 * n2 - n2 * n3) * a2
                      - n1 * n3 * a3 * (t - one) - n2 * n3 * a4 * t) * y
                   - a2 * (q * a1 + (p3 - s2) * a2))
    vf = PlaneVectorField(dxdt, dydt, "U0", sigma2_model(ctx))
    return _system("gen-pvi", vf)


def gen_pv_system() -> SystemEntry:
    """Double point at X=0 plus two simple points; reduces to PV at n=2."""
    ctx = _ctx("gen-pv")
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    a0, a1, a2, a3 = (ctx.var(f"alpha{i}") for i in range(4))
    n1, n2 = ctx.var("n1"), ctx.var("n2")
    one, two, three = ctx.rat(1), ctx.rat(2), ctx.rat(3)
    w = two * n1 * n2 - n1 - n2
    delta = t * (two * n2 * a0 + two * n1 * a1 - two * (n1 + n2) * a2
                 + two * w * a3 - (n1 - n2) * t)
    pref = delta.inverse()
    dxdt = pref * (two * n1 * n2 * x ** 3 * y - two * n1 * n2 * x ** 2 * y
                   - two * n1 * (a1 - n2 * a2) * x ** 2
                   + (two * n2 * a0 + two * n1 * a1 - two * n1 * n2 * a2
                      + (n1 + n2) * t) * x
                   - (n1 + n2) * t)
    dydt = pref * (-two * n1 * (two * n2 - one) * x ** 2 * y ** 2
                   + two * w * x * y ** 2
                   + two * n1 * (two * a1 - (three * n2 - two) * a2) * x * y
                   - (two * n2 * a0 + two * n1 * a1 - two * w * a2
                      + (n1 + n2) * t) * y
                   + two * n1 * a2 * (a1 + a2 - n2 * a2))
    vf = PlaneVectorField(dxdt, dydt, "U0", sigma2_model(ctx))
    return _system("gen-pv", vf)


def gen_piv_system() -> SystemEntry:
    """Triple point at X=0 plus a simple point; overall scale a(t) stays free."""
    ctx = _ctx("gen-piv")
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    a1, a2 = ctx.var("alpha1"), ctx.var("alpha2")
    n1 = ctx.var("n1")
    a = ctx.var("a")
    one, two, three, six = ctx.rat(1), ctx.rat(2), ctx.rat(3), ctx.rat(6)
    dxdt = a * (x ** 3 * y + (n1 * a2 - a1) / n1 * x ** 2
                + (two * n1 - one) * t / (three * n1) * x
                + (n1 + one) / (six * n1))
    dydt = a * (-(two * n1 - one) / n1 * x ** 2 * y ** 2
                + (two * a1 - (three * n1 - two) * a2) / n1 * x * y
                - (two * n1 - one) * t / (three * n1) * y
                + a2 * (a1 - (n1 - one) * a2) / n1)
    vf = PlaneVectorField(dxdt, dydt, "U0", sigma2_model(ctx))
    return _system("gen-piv", vf)


def gen_piii_system() -> SystemEntry:
    """Two double points (X=0 and X=inf); reduces to PIII at n=(2,2)."""
    ctx = _ctx("gen-piii")
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    a0, a1, a2 = (ctx.var(f"alpha{i}") for i in range(3))
    n1 = ctx.var("n1")
    two, four, six = ctx.rat(2), ctx.rat(4), ctx.rat(6)
    delta = four * a0 + two * n1 * a1 - (n1 + two) * a2
    pref = (delta * t).inverse()
    dxdt = pref * (-(n1 + two) * x ** 2 * y + two * x ** 2
                   + two * (n1 * a1 - two * a2) * x - n1 * t)
    dydt = pref * (four * x * y ** 2 - four * x * y
                   - (two * n1 * a1 + (n1 - six) * a2) * y - two * a2)
    vf = PlaneVectorField(dxdt, dydt, "U0", sigma2_model(ctx))
    return _system("gen-piii", vf)


def piv_reference() -> SystemEntry:
    """Classical PIV in polynomial Hamiltonian form (Okamoto).

    dq/dt = 4qp - q^2 - 2tq + 2*beta1, dp/dt = -2p^2 + 2qp + 2tp + beta2;
    eliminating p gives q'' = q'^2/(2q) + (3/2)q^3 + 4tq^2 + 2(t^2 - a)q + b/q.
    """
    ctx = Context.make(parameters=["beta1", "beta2"])
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    b1, b2 = ctx.var("beta1"), ctx.var("beta2")
    two, four = ctx.rat(2), ctx.rat(4)
    dxdt = four * x * y - x ** 2 - two * t * x + two * b1
    dydt = -two * y ** 2 + two * x * y + two * t * y + b2
    vf = PlaneVectorField(dxdt, dydt, "U0", SurfaceModel(2, (ctx.rat(0),)))
    return SystemEntry("piv", vf, ("beta1", "beta2"), (), None, None)


# ---------------------------------------------------------------------------
# Schemes
# ---------------------------------------------------------------------------


def _mat(ctx: Context, rows) -> Mat2:
    return Mat2([[ctx.parse(e) if isinstance(e, str) else ctx.rat(e) for e in row]
                 for row in rows])


def scheme_pvi() -> SchemeEntry:
    ctx = _ctx("pvi")
    t = ctx.var("t")
    specs = (
        SingularSpec(ctx.rat(0), 1, _mat(ctx, [["2", "-alpha4"], ["0", "1"]])),
        SingularSpec(ctx.rat(1), 1, _mat(ctx, [["2", "-alpha3"], ["0", "1"]])),
        SingularSpec(t, 1, _mat(ctx, [["2", "-alpha0"], ["0", "1"]])),
        SingularSpec(None, 1, _mat(ctx, [["2", "-alpha1"], ["0", "1"]])),
    )
    scheme = GRScheme(sigma2_model(ctx), specs, *FAMILIES["pvi"][:2], "pvi")
    return SchemeEntry("pvi", scheme, "pvi")


def scheme_gen_pvi() -> SchemeEntry:
    ctx = _ctx("gen-pvi")
    t = ctx.var("t")
    specs = (
        SingularSpec(ctx.rat(0), 1, _mat(ctx, [["n1", "alpha4"], ["0", "1"]])),
        SingularSpec(ctx.rat(1), 1, _mat(ctx, [["n2", "alpha3"], ["0", "1"]])),
        SingularSpec(t, 1, _mat(ctx, [["n3", "alpha0"], ["0", "1"]])),
        SingularSpec(None, 1, _mat(ctx, [["n4", "alpha1"], ["0", "1"]])),
    )
    scheme = GRScheme(sigma2_model(ctx), specs, *FAMILIES["gen-pvi"][:2], "gen-pvi")
    return SchemeEntry("gen-pvi", scheme, "gen-pvi")


def scheme_gen_pv() -> SchemeEntry:
    ctx = _ctx("gen-pv")
    t = ctx.var("t")
    x, y = ctx.var("x"), ctx.var("y")
    resolved = ResolvedData((x, x ** 2 * y), (ctx.rat(0), -t))
    specs = (
        SingularSpec(ctx.rat(0), 2, _mat(ctx, [["1", "0"], ["2*alpha3", "n3"]]),
                     resolved),
        SingularSpec(ctx.rat(1), 1, _mat(ctx, [["n1", "alpha0"], ["0", "1"]])),
        SingularSpec(None, 1, _mat(ctx, [["n2", "alpha1"], ["0", "1"]])),
    )
    scheme = GRScheme(sigma2_model(ctx), specs, *FAMILIES["gen-pv"][:2], "gen-pv")
    return SchemeEntry("gen-pv", scheme, "gen-pv")


def scheme_gen_piv() -> SchemeEntry:
    ctx = _ctx("gen-piv")
    x, y = ctx.var("x"), ctx.var("y")
    resolved = ResolvedData((x, x ** 3 * y), (ctx.rat(0), ctx.rat(Fraction(-1, 2))))
    specs = (
        SingularSpec(ctx.rat(0), 3, _mat(ctx, [["1", "0"], ["2*t", "n2"]]), resolved),
        SingularSpec(None, 1, _mat(ctx, [["n1", "alpha1"], ["0", "1"]])),
    )
    params, syms, _ = FAMILIES["gen-piv"]
    # the scheme leaves the overall scale a(t) free: it is not a scheme parameter
    scheme = GRScheme(sigma2_model(ctx), specs, tuple(p for p in params if p != "a"),
                      syms, "gen-piv")
    return SchemeEntry("gen-piv", scheme, "gen-piv")


def scheme_gen_piii() -> SchemeEntry:
    ctx = _ctx("gen-piii")
    t = ctx.var("t")
    x, y = ctx.var("x"), ctx.var("y")
    a2 = ctx.var("alpha2")
    resolved0 = ResolvedData((x, x ** 2 * y), (ctx.rat(0), -t))
    resolved_inf = ResolvedData((x.inverse(), -(x * y + a2) / x),
                                (ctx.rat(0), ctx.rat(-1)))
    specs = (
        SingularSpec(ctx.rat(0), 2, _mat(ctx, [["1", "0"], ["2*alpha0", "n1"]]),
                     resolved0),
        SingularSpec(None, 2, _mat(ctx, [["1", "0"], ["2*alpha1", "n2"]]),
                     resolved_inf),
    )
    scheme = GRScheme(sigma2_model(ctx), specs, *FAMILIES["gen-piii"][:2], "gen-piii")
    return SchemeEntry("gen-piii", scheme, "gen-piii")


# ---------------------------------------------------------------------------
# Birational maps
# ---------------------------------------------------------------------------


def maps_gen_pvi() -> tuple[BirationalMap, ...]:
    ctx = _ctx("gen-pvi")
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    a0, a1, a2, a3, a4 = (ctx.var(n) for n in ALPHAS)
    n1, n2, n3, n4 = (ctx.var(n) for n in ("n1", "n2", "n3", "n4"))
    one = ctx.rat(1)
    p3 = n1 * n2 * n3
    s2 = n1 * n2 + n1 * n3 + n2 * n3
    q = ctx.rat(2) * p3 - s2
    s = BirationalMap(
        "s", x + a2 / y, y, t,
        {"alpha0": a0 + a2 - n3 * a2,
         "alpha1": (q * a1 + (p3 - s2) * a2) / q,
         "alpha2": -a2,
         "alpha3": a3 + a2 - n2 * a2,
         "alpha4": a4 + a2 - n1 * a2})
    pi1 = BirationalMap(
        "pi1", one - x, -y, one - t,
        {"n1": n2, "n2": n1, "alpha3": a4, "alpha4": a3})
    pi2 = BirationalMap(
        "pi2", (t - x) / (t - one), -(t - one) * y, t / (t - one),
        {"n1": n3, "n3": n1, "alpha0": a4, "alpha4": a0})
    # The printed alpha images of pi3 (alpha1 -> alpha4*n2*n3*n4/(n1*q),
    # alpha4 -> alpha1*q/(n1*n2*n3), q = 2*n1*n2*n3 - n1*n2 - n1*n3 - n2*n3)
    # do not yield an invariance, not even modulo the eigenvalue relation;
    # the images forced by the transformed scheme are the plain swap below.
    # The verbatim transcription is kept alongside as a recorded finding.
    pi3 = BirationalMap(
        "pi3", x.inverse(), -(y * x + a2) * x, t.inverse(),
        {"n1": n4, "n4": n1, "alpha1": a4, "alpha4": a1},
        note=("derived parameter images (plain alpha1 <-> alpha4 swap); the "
              "printed nested-fraction images fail the exact invariance check "
              "- see pi3-verbatim"))
    pi3_verbatim = BirationalMap(
        "pi3-verbatim", x.inverse(), -(y * x + a2) * x, t.inverse(),
        {"n1": n4, "n4": n1,
         "alpha1": a4 * n2 * n3 * n4 / (n1 * q),
         "alpha4": a1 * q / p3},
        note=("verbatim transcription of the printed alpha1/alpha4 images; "
              "fails verify_symmetry and verify_involution (discrepancy "
              "finding, reported rather than silently patched)"))
    return s, pi1, pi2, pi3, pi3_verbatim


def maps_gen_pv() -> tuple[BirationalMap, ...]:
    ctx = _ctx("gen-pv")
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    a0, a1, a2, a3 = (ctx.var(f"alpha{i}") for i in range(4))
    n1, n2 = ctx.var("n1"), ctx.var("n2")
    one, two, three = ctx.rat(1), ctx.rat(2), ctx.rat(3)
    w = two * n1 * n2 - n1 - n2
    s = BirationalMap(
        "s", x + a2 / y, y, t,
        {"alpha0": a0 + a2 - n1 * a2,
         "alpha1": a1 + a2 - n2 * a2,
         "alpha2": -a2,
         "alpha3": (two * (a2 + a3) * n1 * n2 - (three * a2 + a3) * n1
                    - (three * a2 + a3) * n2) / w})
    pi = BirationalMap(
        "pi", x / (x - one), -(x - one) * ((x - one) * y + a2), -t,
        {"n1": n2, "n2": n1, "alpha0": a1, "alpha1": a0})
    return s, pi


def maps_gen_piv() -> tuple[BirationalMap, ...]:
    ctx = _ctx("gen-piv")
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    a1, a2 = ctx.var("alpha1"), ctx.var("alpha2")
    n1 = ctx.var("n1")
    s = BirationalMap(
        "s", x + a2 / y, y, t,
        {"alpha1": a1 + a2 - n1 * a2, "alpha2": -a2},
        note=("the published list gives images for (alpha1, alpha2) only; alpha0 does "
              "not occur in the system, so invariance is independent of any "
              "completion of the alpha0 image"))
    return (s,)


def maps_gen_piii() -> tuple[BirationalMap, ...]:
    ctx = _ctx("gen-piii")
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    a0, a1, a2 = (ctx.var(f"alpha{i}") for i in range(3))
    n1, n2 = ctx.var("n1"), ctx.var("n2")
    s = BirationalMap(
        "s", x + a2 / y, y, t,
        {"alpha0": a0 + a2 - n1 * a2,
         "alpha1": a1 + a2 - n2 * a2,
         "alpha2": -a2})
    pi = BirationalMap(
        "pi", t / x, -x * (x * y + a2) / t, t,
        {"n1": n2, "n2": n1, "alpha0": a1, "alpha1": a0})
    return s, pi


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_SYSTEMS = {
    "pvi": pvi_system,
    "gen-pvi": gen_pvi_system,
    "gen-pv": gen_pv_system,
    "gen-piv": gen_piv_system,
    "gen-piii": gen_piii_system,
    "piv": piv_reference,
}

_SCHEMES = {
    "pvi": scheme_pvi,
    "gen-pvi": scheme_gen_pvi,
    "gen-pv": scheme_gen_pv,
    "gen-piv": scheme_gen_piv,
    "gen-piii": scheme_gen_piii,
}

_MAPS = {
    "gen-pvi": maps_gen_pvi,
    "gen-pv": maps_gen_pv,
    "gen-piv": maps_gen_piv,
    "gen-piii": maps_gen_piii,
}


def system_names() -> list[str]:
    return sorted(_SYSTEMS)


def scheme_names() -> list[str]:
    return sorted(_SCHEMES)


@functools.cache
def get_system(name: str) -> SystemEntry:
    try:
        return _SYSTEMS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin system {name!r}; available: {system_names()}")


@functools.cache
def get_scheme(name: str) -> SchemeEntry:
    try:
        return _SCHEMES[name]()
    except KeyError:
        raise KeyError(f"unknown builtin scheme {name!r}; available: {scheme_names()}")


@functools.cache
def get_maps(system: str) -> tuple[BirationalMap, ...]:
    try:
        return _MAPS[system]()
    except KeyError:
        raise KeyError(f"no builtin maps for {system!r}; available: {sorted(_MAPS)}")


# ---------------------------------------------------------------------------
# Specialization correspondence recipes
# ---------------------------------------------------------------------------

MATCH_PAIRS = ("gen-piv:piv", "gen-pvi:pvi", "gen-pv:pv", "gen-piii:piii")


def match_pair(name: str):
    """Prepared (general, reference, reference_params, note) for a builtin pair.

    Both fields are arranged in the same coordinate conventions; the note
    records the arrangement (chart moves, eigenvalue values, scale presets,
    and which side's parameters are solved for).
    """
    from .recovery import recover, specialize_scheme
    from .surface import chart_transform

    if name == "gen-piv:piv":
        entry = gen_piv_system()
        ctx = entry.vf.ctx
        spec = entry.vf.subs_params({"n1": ctx.rat(2), "a": ctx.rat(4)})
        general = chart_transform(spec, "U1")
        ref = piv_reference()
        note = ("three-point family at (n1,n2)=(2,3), a(t)=4, moved to the U1 "
                "chart, against the classical PIV Hamiltonian system")
        return general, ref.vf, list(ref.params), note
    if name == "gen-pvi:pvi":
        entry = gen_pvi_system()
        two = entry.vf.ctx.rat(2)
        g = entry.vf.subs_params({"n1": two, "n2": two, "n3": two, "n4": two})
        ref = pvi_system(normalized=True)
        note = ("four-point family at n=(2,2,2,2) against the Painleve VI "
                "system on its normalized parameter slice; the general "
                "system's parameters are solved as affine functions of the "
                "reference's")
        return ref.vf, g, list(ALPHAS), note
    if name == "gen-pv:pv":
        sch = scheme_gen_pv().scheme
        ctx = sch.specs[0].matrix[0, 0].ctx
        vals = {"n1": ctx.rat(2), "n2": ctx.rat(2), "n3": ctx.rat(2)}
        cls = recover(specialize_scheme(sch, vals, "pv"))
        entry = gen_pv_system()
        g = entry.vf.subs_params({"n1": entry.vf.ctx.rat(2), "n2": entry.vf.ctx.rat(2)})
        note = ("double-point family at (n1,n2,n3)=(2,2,2) against the system "
                "recovered from the scheme at those eigenvalues (the classical "
                "fifth Painleve case)")
        return cls.vf, g, ["alpha0", "alpha1", "alpha2", "alpha3"], note
    if name == "gen-piii:piii":
        sch = scheme_gen_piii().scheme
        ctx = sch.specs[0].matrix[0, 0].ctx
        vals = {"n1": ctx.rat(2), "n2": ctx.rat(2)}
        cls = recover(specialize_scheme(sch, vals, "piii"))
        entry = gen_piii_system()
        g = entry.vf.subs_params({"n1": entry.vf.ctx.rat(2), "n2": entry.vf.ctx.rat(2)})
        note = ("two-double-point family at (n1,n2)=(2,2) against the system "
                "recovered from the scheme at those eigenvalues (the classical "
                "third Painleve case)")
        return cls.vf, g, ["alpha0", "alpha1", "alpha2"], note
    raise KeyError(f"unknown match pair {name!r}; available: {MATCH_PAIRS}")
