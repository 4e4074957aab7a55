"""Recovery of differential systems from geometric Riemann scheme data.

A geometric Riemann scheme pairs each accessible singular point on the
boundary divisor (with multiplicity and, for multiple points, the resolved
point data) with a scale times a 2x2 matrix of linear approximation.  Feeding
the scheme to the generic coefficient family produces a polynomial
constraint system in the unknown coefficients; triangular elimination then
reproduces the target system.

Two structural facts drive the solver:

* each matrix match contributes one unknown scale, eliminated by taking the
  entry with matrix value 1 as reference and cross-multiplying;
* a singular point whose location moves with t (X = t, or a resolved point
  at Y = -t) contributes an inhomogeneous chain-rule term, which pins the
  overall normalization of the recovered system; schemes without such a
  point stay underdetermined by exactly one overall function of t.

Redundant equations that reduce to (parameter expression) * (nonzero scale)
yield the eigenvalue relation of the scheme instead of a solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .algebra import (Context, InconsistentSystem, MPoly, MRat, Mat2, StuckSystem, Sym,
                      TriangularSolution, coefficients_in, distinct_up_to_scale, solve_linear,
                      solve_rational_linear, solve_triangular, union_context,
                      _relation_normal_form)
from .blowup import resolve_family, resolve_multiplicity
from .singularities import (AccessiblePoint, accessible_points, divisor_chart_local,
                            linearization, linearization_matrix)
from .surface import (CoefficientFamily, PlaneVectorField, SurfaceModel,
                      SIGMA2_UNKNOWNS, check_log_condition, family_context,
                      generic_family, poly_block, _u1_pole_conditions)


class SchemeError(Exception):
    pass


class VerificationMismatch(SchemeError):
    """The recovered system does not reproduce its scheme."""


class NoRelation(SchemeError):
    pass


class RelationViolated(SchemeError):
    pass


class DegeneratePoints(SchemeError):
    pass


# ---------------------------------------------------------------------------
# Scheme data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedData:
    """Patching map (in U0 coordinates) and resolved-point coordinates."""

    patch_map: tuple[MRat, MRat]
    point: tuple[MRat, MRat]


@dataclass(frozen=True)
class SingularSpec:
    """One column of a geometric Riemann scheme.

    location None means the point at infinity (handled in chart U3).  The
    matrix is the target linear approximation up to one free scale.
    """

    location: MRat | None
    multiplicity: int
    matrix: Mat2
    resolved: ResolvedData | None = None

    def __post_init__(self):
        if self.multiplicity < 1:
            raise SchemeError(f"scheme column X={self.label}: multiplicity "
                              f"{self.multiplicity} is below 1")
        if self.multiplicity >= 2 and self.resolved is None:
            raise SchemeError("multiple points require resolved-point data")
        if self.multiplicity == 1 and self.resolved is not None:
            raise SchemeError("simple points carry no resolved-point data")
        # divisor points are functions of t and the parameters; the patching
        # map, a map of the fiber, does involve x and y
        resolved = () if self.resolved is None else self.resolved.point
        for what, values in (("location", [self.location]), ("resolved point", resolved)):
            if any(v is not None and {"x", "y"} & {*v.num.variables(), *v.den.variables()}
                   for v in values):
                raise SchemeError(f"scheme column X={self.label}: the {what} may not "
                                  "involve x or y")
        if resolved and not resolved[0].is_zero():
            raise SchemeError(f"scheme column X={self.label}: the resolved point "
                              f"({resolved[0]}, {resolved[1]}) is off the exceptional line")

    @property
    def label(self) -> str:
        return "inf" if self.location is None else str(self.location)


@dataclass(frozen=True)
class GRScheme:
    model: SurfaceModel
    specs: tuple[SingularSpec, ...]
    params: tuple[str, ...]
    eigenvalue_syms: tuple[str, ...]
    name: str

    def __post_init__(self):
        labels = [s.label for s in self.specs]
        if len(set(labels)) != len(labels):
            raise SchemeError("scheme locations must be pairwise distinct")


@dataclass
class RecoveredSystem:
    """A solved scheme: the vector field, residual freedom, and provenance."""

    vf: PlaneVectorField
    free: tuple[str, ...]
    relations: tuple[MPoly, ...]
    solution: TriangularSolution
    scheme: GRScheme


# ---------------------------------------------------------------------------
# Constraint generation
# ---------------------------------------------------------------------------


@dataclass
class ConstraintSet:
    equations: list[MPoly]
    sources: list[str]
    nonzero_forms: list[MPoly]


def _matrix_reference(target: Mat2) -> tuple[int, int]:
    one = None
    for i in range(2):
        for j in range(2):
            entry = target[i, j]
            if entry.is_constant() and entry.constant_value() == 1:
                return (i, j)
            if one is None and not entry.is_zero():
                one = (i, j)
    if one is None:
        raise SchemeError("scheme matrix is identically zero")
    return one


def matrix_residuals(computed: Mat2,
                     target: Mat2) -> tuple[tuple[int, int], list[tuple[int, int, MRat]]]:
    """The reference entry ref of target (value 1 where present) and, for each
    other entry, (i, j, computed[i,j]*target[ref] - target[i,j]*computed[ref]):
    computed is a multiple of target exactly when every residual vanishes."""
    ref = _matrix_reference(target)
    return ref, [(i, j, computed[i, j] * target[ref] - target[i, j] * computed[ref])
                 for i in range(2) for j in range(2) if (i, j) != ref]


def generate_constraints(family: CoefficientFamily, scheme: GRScheme) -> ConstraintSet:
    """All polynomial constraints the scheme imposes on the family unknowns.

    The scheme must already live in the family's context (``lift_scheme``).
    Both diagonal entries of each computed matrix are registered as nonzero
    forms, since scheme eigenvalues never vanish.
    """
    vf = family.vf
    out = ConstraintSet([], [], [])

    def emit(tag: str, poly: MPoly):
        if not poly.is_zero():
            out.equations.append(poly)
            out.sources.append(tag)

    for spec in scheme.specs:
        chart = "U3" if spec.location is None else "U2"
        loc = vf.ctx.rat(0) if spec.location is None else spec.location
        label = f"X={spec.label}"
        if spec.multiplicity == 1:
            local = divisor_chart_local(vf, chart)
            matrix, access = linearization_matrix(local, loc)
            emit(f"{label} accessibility", access.num)
        else:
            fam = resolve_family(vf, loc, spec.multiplicity, spec.resolved.point[1],
                                 family.unknowns, chart=chart)
            for tag, poly in fam.conditions:
                emit(f"{label} {tag}", poly)
            got, expect = fam.trace.final_chart_map, spec.resolved.patch_map
            if got != expect:
                raise SchemeError(
                    f"{label}: computed patching map {got} != scheme map {expect}")
            # accessibility at the resolved point was already emitted
            matrix, _ = linearization_matrix(fam.trace.final_local_field(),
                                             fam.trace.final_location)
        _, residuals = matrix_residuals(matrix, spec.matrix)
        for i, j, residual in residuals:
            emit(f"{label} matrix entry ({i},{j})", residual.num)
        out.nonzero_forms.extend(f for f in (matrix[0, 0].num, matrix[1, 1].num)
                                 if not f.is_zero())
    return out


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def _solve_scheme(scheme: GRScheme):
    """Lift the scheme into the S_2 family's context and solve its constraints:
    the lifted scheme, the family, the solution, the tidy context (the
    parameters, and the free unknowns as parameters) and the relations in it."""
    if scheme.model.n != 2:
        raise SchemeError("recovery is implemented over the S_2 model")
    ctx = family_context(scheme.model, scheme.params, SIGMA2_UNKNOWNS)
    scheme = lift_scheme(scheme, ctx)
    family = generic_family(scheme.model, ctx)
    cons = generate_constraints(family, scheme)
    sol = solve_triangular(cons.equations, family.unknowns,
                           nonzero_forms=cons.nonzero_forms, sources=cons.sources)
    tidy = family_context(scheme.model, scheme.params, []).extend(
        tuple(Sym(u, "parameter") for u in sol.free))
    relations = tuple(_relation_normal_form(r, scheme.eigenvalue_syms).lift(tidy)
                      for r in sol.relations)
    return scheme, family, sol, tidy, relations


def recover(scheme: GRScheme) -> RecoveredSystem:
    """Solve the scheme's constraint system on the generic family.

    Residual scale freedom is reported through ``free`` (for example the
    overall function of t in the two-point scheme); parameter relations
    forced by the scheme are collected, and the output is re-verified
    against the scheme point by point.
    """
    scheme, family, sol, tidy, relations = _solve_scheme(scheme)
    # the solved unknowns projected out, the free ones kept as parameters
    dxdt, dydt = (c.subs(sol.assignments).lift(tidy) for c in family.vf.components())
    vf = PlaneVectorField(dxdt, dydt, "U0", scheme.model.lift(tidy))
    rec = RecoveredSystem(vf, tuple(sol.free), relations, sol, scheme)
    verify_recovered(rec)
    return rec


def map_scheme(scheme: GRScheme, fn: Callable[[MRat], MRat], **changes) -> GRScheme:
    """The scheme with fn applied to every entry: the surface twist and each
    column's location, matrix and resolved-point data.  This is the one way to
    map a scheme; ``changes`` replace other GRScheme fields."""
    specs = []
    for s in scheme.specs:
        resolved = None
        if s.resolved is not None:
            resolved = ResolvedData(tuple(map(fn, s.resolved.patch_map)),
                                    tuple(map(fn, s.resolved.point)))
        loc = None if s.location is None else fn(s.location)
        specs.append(SingularSpec(loc, s.multiplicity, s.matrix.map(fn), resolved))
    model = replace(scheme.model, twist=tuple(map(fn, scheme.model.twist)))
    return replace(scheme, model=model, specs=tuple(specs), **changes)


def lift_scheme(scheme: GRScheme, ctx: Context) -> GRScheme:
    """The scheme with its surface twist and every column entry lifted into ctx."""
    return map_scheme(scheme, lambda r: r.lift(ctx))


def specialize_scheme(scheme: GRScheme, values: Mapping[str, MRat], name: str) -> GRScheme:
    """The scheme, renamed, with parameter values substituted (e.g. numeric
    eigenvalues)."""
    return map_scheme(scheme, lambda r: r.subs(values),
                      params=tuple(p for p in scheme.params if p not in values),
                      eigenvalue_syms=tuple(e for e in scheme.eigenvalue_syms if e not in values),
                      name=name)


def relation_substitution(relations: Sequence[MPoly],
                          eigenvalue_syms: Sequence[str]) -> dict[str, MRat]:
    """Solve each relation for the latest eigenvalue symbol appearing linearly."""
    subs: dict[str, MRat] = {}
    for rel in relations:
        solved = solve_linear(rel, [s for s in reversed(eigenvalue_syms) if s not in subs],
                              subs.keys())
        if solved is not None:
            subs[solved[0]] = solved[1]
    return subs


def zero_modulo(value: MRat, relsub: Mapping[str, MRat]) -> bool:
    """Whether value vanishes, outright or after the relation substitution."""
    return value.is_zero() or (bool(relsub) and value.subs(relsub).is_zero())


def scheme_of(vf: PlaneVectorField, candidates: Sequence[MRat]) -> tuple[SingularSpec, ...]:
    """The geometric Riemann scheme of vf, the inverse of ``recover``: one column
    per accessible point, in ``accessible_points`` order, infinity as location
    None.  A simple point's column holds its divisor chart's matrix; a multiple
    point's, the matrix, patching map and point (0, Y) of its resolution, which
    raises ResolutionError unless the multiplicity is 2 or 3.  The candidates are
    tried as divisor points after the defaults, as resolved points before them."""
    specs = []
    for point in accessible_points(vf, extra_candidates=candidates):
        location = None if point.at_infinity else point.location
        if point.multiplicity == 1:
            matrix, _ = linearization_matrix(divisor_chart_local(vf, point.chart), point.location)
            specs.append(SingularSpec(location, 1, matrix))
        else:
            trace = resolve_multiplicity(vf, point, candidates)
            resolved = ResolvedData(trace.final_chart_map, (vf.ctx.rat(0), trace.final_location))
            specs.append(SingularSpec(location, point.multiplicity, trace.index.matrix, resolved))
    return tuple(specs)


def verify_recovered(rec: RecoveredSystem) -> None:
    """Check the recovered field reproduces its scheme exactly.  The scheme is
    lifted into the field's context once and compared with ``scheme_of``, given
    the scheme's locations and resolved points as candidates: labels,
    multiplicities, patching maps and resolved points must agree verbatim, and
    each matrix must pass ``matrix_residuals`` with a nonzero scale, modulo the
    scheme's eigenvalue relations."""
    scheme = lift_scheme(rec.scheme, rec.vf.ctx)
    relsub = relation_substitution(rec.relations, scheme.eigenvalue_syms)
    wanted = {s.label: s for s in scheme.specs}
    candidates = [s.location for s in scheme.specs if s.location is not None]
    candidates += [s.resolved.point[1] for s in scheme.specs if s.resolved is not None]
    got = {s.label: s for s in scheme_of(rec.vf, candidates)}
    if set(got) != set(wanted):
        raise VerificationMismatch(
            f"accessible points {sorted(got)} != scheme locations {sorted(wanted)}")
    for label, spec in wanted.items():
        derived = got[label]
        if derived.multiplicity != spec.multiplicity:
            raise VerificationMismatch(
                f"X={label}: multiplicity {derived.multiplicity} != {spec.multiplicity}")
        if spec.resolved is not None:
            if derived.resolved.patch_map != spec.resolved.patch_map:
                raise VerificationMismatch(f"X={label}: patching map {derived.resolved.patch_map}")
            if derived.resolved.point != spec.resolved.point:
                raise VerificationMismatch(f"X={label}: resolved point {derived.resolved.point[1]}")
        ref, residuals = matrix_residuals(derived.matrix, spec.matrix)
        if derived.matrix[ref].is_zero():
            raise VerificationMismatch(f"X={label}: zero matrix scale")
        for i, j, residual in residuals:
            diff = residual / spec.matrix[ref]
            if not zero_modulo(diff, relsub):
                raise VerificationMismatch(
                    f"X={label}: matrix entry ({i},{j}) mismatch: {diff}")


def eigenvalue_relation(scheme: GRScheme) -> MPoly:
    """The consistency condition the scheme forces on its eigenvalues: the
    relation ``recover`` reports, in its context, found by the same solve,
    which is where this stops; no field is built or verified."""
    *_, relations = _solve_scheme(scheme)
    if not relations:
        raise NoRelation(f"scheme {scheme.name or '?'} is consistent for all eigenvalues")
    if any(other != relations[0] for other in relations[1:]):
        raise SchemeError(f"multiple independent relations: {list(relations)}")
    return relations[0]


# ---------------------------------------------------------------------------
# Existence construction (simple points at c_1, ..., c_n, t, infinity)
# ---------------------------------------------------------------------------


@dataclass
class ExistenceSystem:
    vf: PlaneVectorField
    points: list[AccessiblePoint]
    ratios: dict[str, MRat]


def construct_existence_system(n: int, c: Sequence, m: Sequence) -> ExistenceSystem:
    """Build the system with n+2 simple accessible points c_1..c_n, t, inf
    and local-index ratios m_1..m_{n+2}, on the surface with twist alpha and
    overall scale a1t.  Its parameters are alpha, a1t and then the symbols of
    the points and ratios given as MRat, in name order.

    The y-blocks are fixed by the data; the remaining polynomial blocks are
    solved so the U1 rewrite is polynomial (free coefficients are set to
    zero).  The construction is verified: point set, every ratio, and the
    reciprocal-sum relation, all exactly.
    """
    if n < 1:
        raise SchemeError("need n >= 1")
    if len(m) != n + 2:
        raise SchemeError(f"need n+2 = {n + 2} ratios, got {len(m)}")
    if len(c) != n:
        raise SchemeError(f"need n = {n} finite points besides t, got {len(c)}")
    unknowns = ([f"u1_{k}" for k in range(n + 2)]
                + [f"u2_{k}" for k in range(n + 1)]
                + [f"u3_{k}" for k in range(n)])
    extra = sorted({name for v in list(c) + list(m) if isinstance(v, MRat)
                    for name in v.num.variables() + v.den.variables()})
    params = ["alpha", "a1t"] + [e for e in extra if e not in ("alpha", "a1t")]
    ctx = Context.make(parameters=params, unknowns=unknowns)

    def lift(v) -> MRat:
        if isinstance(v, MRat):
            return v.lift(ctx)
        return ctx.rat(Fraction(v))

    cs = [lift(v) for v in c]
    ms = [lift(v) for v in m]
    t = ctx.var("t")
    locations = cs + [t]
    for i, a in enumerate(locations):
        for b in locations[i + 1:]:
            if a == b:
                raise DegeneratePoints(f"coincident singular locations {a} = {b}")
    for mi in ms:
        if mi.is_zero():
            raise RelationViolated("all ratios must be nonzero")
    total = ctx.rat(0)
    for mi in ms:
        total = total + mi.inverse()
    if total != ctx.rat(n):
        try:
            shown = str(total)
        except ValueError:  # more digits than the interpreter converts to text
            shown = "a value too long to print"
        raise RelationViolated(f"sum of reciprocal ratios is {shown}, expected {n}")

    x, y = ctx.var("x"), ctx.var("y")
    a1 = ctx.var("a1t")
    lead = a1
    for cv in locations:
        lead = lead * (x - cv)
    # weighted symmetric sum: the j-th term omits the j-th factor and ratio
    weighted = ctx.rat(0)
    for j in range(n + 1):
        term = a1 / ms[j]
        for i, cv in enumerate(locations):
            if i != j:
                term = term * (x - cv)
        weighted = weighted + term
    b1 = poly_block(ctx, "u1", n + 1)
    b4 = poly_block(ctx, "u2", n)
    b3 = poly_block(ctx, "u3", n - 1)
    model = SurfaceModel(n, tuple([ctx.var("alpha")] + [ctx.rat(0)] * (n - 2))
                         if n >= 2 else ())
    vf = PlaneVectorField(lead * y + b1, -weighted * y * y + b4 * y + b3, "U0", model)
    conditions = _u1_pole_conditions(vf)
    sol = solve_triangular(conditions, unknowns)
    # substitute in two stages: solved values may reference free coefficients
    zero_free = {name: ctx.rat(0) for name in sol.free}
    final = PlaneVectorField(vf.dxdt.subs(sol.assignments).subs(zero_free),
                             vf.dydt.subs(sol.assignments).subs(zero_free),
                             "U0", model)
    if not check_log_condition(final):
        raise SchemeError("existence construction failed the log condition")
    points = accessible_points(final, extra_candidates=cs)
    labels = {p.label for p in points}
    expected_labels = {str(cv) for cv in cs} | {"t", "inf"}
    if labels != expected_labels or any(p.multiplicity != 1 for p in points):
        raise VerificationMismatch(
            f"existence system points {sorted(labels)} != {sorted(expected_labels)}")
    ratios: dict[str, MRat] = {}
    order = {str(cv): i for i, cv in enumerate(cs)}
    order["t"] = n
    order["inf"] = n + 1
    for p in points:
        index = linearization(divisor_chart_local(final, p.chart), p.location)
        ratios[p.label] = index.ratio
        expected = ms[order[p.label]]
        if index.ratio != expected:
            raise VerificationMismatch(
                f"ratio at X={p.label} is {index.ratio}, expected {expected}")
    return ExistenceSystem(final, points, ratios)


# ---------------------------------------------------------------------------
# Specialization correspondences
# ---------------------------------------------------------------------------


@dataclass
class CorrespondenceReport:
    found: bool
    param_map: dict[str, MRat]
    residual: tuple[str, ...]


def match_specialization(general: PlaneVectorField, reference: PlaneVectorField,
                         reference_params: Sequence[str]) -> CorrespondenceReport:
    """Search for an affine parameter correspondence making the fields equal.

    The reference parameters are written as affine combinations of the
    general system's parameters with unknown rational coefficients; matching
    like monomials of both components gives a polynomial system in those
    coefficients, with rational coefficients, which _solve_matched solves.
    The verdict is always definitive: either the verified correspondence or
    the exact residual.
    """
    gparams = [s.name for s in general.ctx.syms if s.kind == "parameter"]
    coeff_names = []
    for rp in reference_params:
        coeff_names += [f"C_{rp}_{gp}" for gp in gparams] + [f"C_{rp}_1"]
    big = Context.make(parameters=gparams, unknowns=coeff_names)
    ansatz: dict[str, MRat] = {}
    for rp in reference_params:
        acc = big.var(f"C_{rp}_1")
        for gp in gparams:
            acc = acc + big.var(f"C_{rp}_{gp}") * big.var(gp)
        ansatz[rp] = acc
    gparts = [(g.num.lift(big), g.den.lift(big)) for g in general.components()]

    def mismatch(values: Mapping[str, MRat]) -> list[MPoly]:
        """general - reference, cross-multiplied, per component at the values."""
        out = []
        for (gnum, gden), rcomp in zip(gparts, reference.components()):
            rref = _reference_in(big, rcomp, values)
            out.append(gnum * rref.den - rref.num * gden)
        return out

    symbols = [n for n in big.names if n not in coeff_names]
    equations = [c for eq in mismatch(ansatz) for c in coefficients_in(eq, symbols)]
    try:
        sol = _solve_matched(equations, coeff_names)
    except (StuckSystem, InconsistentSystem) as exc:
        return CorrespondenceReport(False, {}, (str(exc),))
    assignments = {**sol.assignments, **{name: big.rat(0) for name in sol.free}}
    param_map = {rp: ansatz[rp].subs(assignments) for rp in reference_params}
    # full verification; only a nonzero residual is put in lowest terms
    residual = ()
    if not all(_agrees(big, g, r, param_map) for g, r in zip(gparts, reference.components())):
        residual = tuple(str(d) for d in mismatch(param_map) if not d.is_zero())
    return CorrespondenceReport(not residual, param_map, residual)


def _solve_matched(equations: Sequence[MPoly], unknowns: Sequence[str],
                   depth: int = 6) -> TriangularSolution:
    """Solve polynomial equations in ``unknowns`` alone, with rational
    coefficients, solving each distinct equation once.

    Repeats up to a rational factor are dropped, the first copy kept: a
    later copy would only reduce to zero.  The equations of total degree at
    most 1 are solved as one reduced echelon form over Q, the result is
    substituted into the others, and what is left, once more without
    repeats, is solved triangularly in the unknowns still free.  An equation
    with no unknown left is a rational constant, so it is dropped or raises
    InconsistentSystem: the solution has no relations, and no nonzero forms
    are needed.  It has no trace either.

    Quadratic parameter terms of the matched systems can leave the
    triangular solve stuck at equations a*u^2 + b*u + c with rational
    coefficients.  The first one whose discriminant is a rational square is
    branched on, one root r at a time in increasing order: each branch
    solves what was left with u - r appended, ``depth`` bounding the
    nesting, and the first branch that completes wins.  If none does, the
    last failure is raised.
    """
    linear, rest = [], []
    for p in distinct_up_to_scale(equations):
        (linear if p.total_degree() <= 1 else rest).append(p)
    lin = solve_rational_linear(linear, unknowns)
    rest = distinct_up_to_scale([p.subs(lin.assignments).num for p in rest])
    try:
        sol = solve_triangular(rest, lin.free)
    except StuckSystem as stuck:
        if depth <= 0:
            raise
        roots = next(filter(None, (_root_equations(p, lin.free) for p in stuck.remaining)), [])
        failure = stuck
        try:
            for root in roots:
                try:
                    sol = _solve_matched(rest + [root], lin.free, depth - 1)
                    break
                except (StuckSystem, InconsistentSystem) as exc:
                    failure = exc
            else:
                raise failure
        finally:
            # this frame is in the traceback of the exception failure names;
            # the name would keep that cycle, and every frame below it with the
            # equations it holds, alive until a full garbage collection
            del failure
    assignments = {u: v.subs(sol.assignments) for u, v in lin.assignments.items()}
    assignments.update(sol.assignments)
    return TriangularSolution(assignments, [], sol.free)


def _root_equations(p: MPoly, unknowns: Sequence[str]) -> list[MPoly]:
    """u - r for each rational root r of p, in increasing order, when p is
    a*u^2 + b*u + c in a single unknown u with rational a, b and a rational
    square discriminant; else []."""
    live = [u for u in unknowns if p.involves([u])]
    if len(live) != 1 or p.degree_in(live[0]) != 2:
        return []
    u = live[0]
    a, b, c = (p.coefficient(u, k) for k in (2, 1, 0))
    if any(q.involves(unknowns) for q in (a, b, c)):
        return []
    disc = b * b - p.ctx.poly(4) * a * c
    if not disc.is_constant():
        return []
    root_disc = rational_sqrt(disc.constant_value())
    if root_disc is None or not (a.is_constant() and b.is_constant()):
        return []
    roots = {(-b.constant_value() + s * root_disc) / (2 * a.constant_value()) for s in (1, -1)}
    return [p.ctx.poly_var(u) - p.ctx.poly(r) for r in sorted(roots)]


def rational_sqrt(q: Fraction) -> Fraction | None:
    """The nonnegative rational square root of q, or None if q has none."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _agrees(big: Context, gpart: tuple[MPoly, MPoly], rcomp: MRat,
            param_values: Mapping[str, MRat]) -> bool:
    """Whether gnum/gden is the reference component at the parameter values,
    by its uncancelled images (no gcd); False where its denominator's vanishes."""
    target = union_context(big, rcomp.ctx)
    values = {k: v.lift(target) for k, v in param_values.items()}
    (a, b), (c, d) = ((q.num, q.den) for q in (p.lift(target).subs(values)
                                              for p in (rcomp.num, rcomp.den)))
    gnum, gden = (p.lift(target) for p in gpart)
    return not c.is_zero() and (gnum * b * c - a * d * gden).is_zero()


def _reference_in(big: Context, rcomp: MRat, param_values: Mapping[str, MRat]) -> MRat:
    """The reference component with parameters substituted, in lowest terms."""
    target = union_context(big, rcomp.ctx)
    combined = rcomp.lift(target).subs({k: v.lift(target) for k, v in param_values.items()})
    try:
        return combined.lift(big)
    except KeyError:
        name = next(n for n in combined.num.variables() + combined.den.variables()
                    if n not in big)
        raise SchemeError(f"unsubstituted reference symbol {name}") from None
