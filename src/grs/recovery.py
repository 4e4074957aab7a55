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

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .algebra import (Context, InconsistentSystem, MPoly, MRat, Mat2, StuckSystem, Sym,
                      TriangularSolution, coefficients_in, solve_linear, solve_triangular,
                      _relation_normal_form)
from .blowup import resolve_family, resolve_multiplicity
from .singularities import (AccessiblePoint, accessible_points, divisor_chart_local,
                            linearization_matrix, local_index_from_matrix)
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
        if self.multiplicity >= 2 and self.resolved is None:
            raise SchemeError("multiple points require resolved-point data")
        if self.multiplicity == 1 and self.resolved is not None:
            raise SchemeError("simple points carry no resolved-point data")

    @property
    def label(self) -> str:
        return "inf" if self.location is None else str(self.location)


@dataclass(frozen=True)
class GRScheme:
    model: SurfaceModel
    specs: tuple[SingularSpec, ...]
    params: tuple[str, ...]
    eigenvalue_syms: tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self):
        labels = [s.label for s in self.specs]
        if len(set(labels)) != len(labels):
            raise SchemeError("scheme locations must be pairwise distinct")


@dataclass
class RecoveredSystem:
    """A solved scheme: the vector field, residual freedom, and provenance."""

    vf: PlaneVectorField
    assignments: dict[str, MRat]
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


def matrix_match_equations(computed: Mat2, target: Mat2, label: str) -> tuple[list[MPoly], list[str], list[MPoly]]:
    """Entry-wise match of computed against scale * target, scale eliminated.

    The reference entry is the one whose target value is 1 (present in all
    schemes used here); both diagonal entries are registered as nonzero
    forms since scheme eigenvalues never vanish.
    """
    ri, rj = _matrix_reference(target)
    m_ref = computed[ri, rj]
    s_ref = target[ri, rj]
    eqs: list[MPoly] = []
    tags: list[str] = []
    for i in range(2):
        for j in range(2):
            if (i, j) == (ri, rj):
                continue
            eq = computed[i, j] * s_ref - target[i, j] * m_ref
            if eq.is_zero():
                continue
            eqs.append(eq.num)
            tags.append(f"{label} matrix entry ({i},{j})")
    forms = [computed[0, 0].num, computed[1, 1].num]
    return eqs, tags, forms


def generate_constraints(family: CoefficientFamily, scheme: GRScheme) -> ConstraintSet:
    """All polynomial constraints the scheme imposes on the family unknowns."""
    vf = family.vf
    ctx = vf.ctx
    out = ConstraintSet([], [], [])

    def emit(tag: str, poly: MPoly):
        if not poly.is_zero():
            out.equations.append(poly)
            out.sources.append(tag)

    for spec in scheme.specs:
        chart = "U3" if spec.location is None else "U2"
        loc = ctx.rat(0) if spec.location is None else spec.location.lift(ctx)
        label = f"X={spec.label}"
        target = spec.matrix.map(lambda r: r.lift(ctx))
        if spec.multiplicity == 1:
            local = divisor_chart_local(vf, chart)
            matrix, access = linearization_matrix(local, loc)
            emit(f"{label} accessibility", access.num)
            eqs, tags, forms = matrix_match_equations(matrix, target, label)
        else:
            resolved_y = spec.resolved.point[1].lift(ctx)
            fam = resolve_family(vf, loc, spec.multiplicity, resolved_y,
                                 family.unknowns, chart=chart)
            for tag, poly in fam.conditions:
                emit(f"{label} {tag}", poly)
            expect = tuple(m.lift(ctx) for m in spec.resolved.patch_map)
            got = fam.trace.final_chart_map
            if got[0] != expect[0] or got[1] != expect[1]:
                raise SchemeError(
                    f"{label}: computed patching map {got} != scheme map {expect}")
            matrix, access = linearization_matrix(fam.trace.final_local_field(),
                                                  fam.trace.final_location)
            # accessibility at the resolved point was already emitted
            eqs, tags, forms = matrix_match_equations(matrix, target, label)
        for eq, tag in zip(eqs, tags):
            emit(tag, eq)
        out.nonzero_forms.extend(f for f in forms if not f.is_zero())
    return out


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def recover(scheme: GRScheme, verify: bool = True) -> RecoveredSystem:
    """Solve the scheme's constraint system on the generic family.

    Residual scale freedom is reported through ``free`` (for example the
    overall function of t in the two-point scheme); parameter relations
    forced by the scheme are collected, and the output is re-verified
    against the scheme point by point.
    """
    if scheme.model.n != 2:
        raise SchemeError("recovery is implemented over the S_2 model")
    ctx = family_context(scheme.model, scheme.params, SIGMA2_UNKNOWNS)
    scheme = lift_scheme(scheme, ctx)
    model = scheme.model
    family = generic_family(model, ctx)
    cons = generate_constraints(family, scheme)
    sol = solve_triangular(cons.equations, family.unknowns,
                           nonzero_forms=cons.nonzero_forms, sources=cons.sources)
    dxdt = family.vf.dxdt.subs(sol.assignments)
    dydt = family.vf.dydt.subs(sol.assignments)
    # project out the solved unknowns; surviving free unknowns stay as
    # parameters (the residual scale freedom of the scheme)
    tidy = family_context(model, scheme.params, []).extend(
        tuple(Sym(u, "parameter") for u in sol.free))
    tidy_model = SurfaceModel(model.n, tuple(g.lift(tidy) for g in model.twist))
    vf = PlaneVectorField(dxdt.lift(tidy), dydt.lift(tidy), "U0", tidy_model)
    relations = tuple(_relation_normal_form(r, scheme.eigenvalue_syms).lift(tidy)
                      for r in sol.relations)
    rec = RecoveredSystem(vf, dict(sol.assignments), tuple(sol.free),
                          relations, sol, scheme)
    if verify:
        verify_recovered(rec)
    return rec


def map_scheme(scheme: GRScheme, fn: Callable[[MRat], MRat], **changes) -> GRScheme:
    """The scheme with fn applied to every entry of its columns (matrix,
    resolved-point data, location); ``changes`` replace other GRScheme fields."""
    specs = []
    for s in scheme.specs:
        resolved = None
        if s.resolved is not None:
            resolved = ResolvedData(tuple(map(fn, s.resolved.patch_map)),
                                    tuple(map(fn, s.resolved.point)))
        loc = None if s.location is None else fn(s.location)
        specs.append(SingularSpec(loc, s.multiplicity, s.matrix.map(fn), resolved))
    return replace(scheme, specs=tuple(specs), **changes)


def lift_scheme(scheme: GRScheme, ctx: Context) -> GRScheme:
    """The scheme with its surface twist and every column entry lifted into ctx."""
    model = SurfaceModel(scheme.model.n, tuple(g.lift(ctx) for g in scheme.model.twist))
    return map_scheme(scheme, lambda r: r.lift(ctx), model=model)


def specialize_scheme(scheme: GRScheme, values: Mapping[str, MRat],
                      name: str | None = None) -> GRScheme:
    """The scheme with parameter values substituted (e.g. numeric eigenvalues)."""
    return map_scheme(scheme, lambda r: r.subs(values),
                      params=tuple(p for p in scheme.params if p not in values),
                      eigenvalue_syms=tuple(e for e in scheme.eigenvalue_syms if e not in values),
                      name=name if name is not None else scheme.name + "-specialized")


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


def verify_recovered(rec: RecoveredSystem) -> None:
    """Check the recovered field reproduces its scheme exactly.

    Locations and multiplicities must come out verbatim from the singular
    point search; matrices must be proportional to the scheme matrices, with
    equality taken modulo the scheme's eigenvalue relations; resolved points
    are re-derived by running the actual resolution.
    """
    vf = rec.vf
    ctx = vf.ctx
    relsub = relation_substitution(rec.relations, rec.scheme.eigenvalue_syms)
    wanted = {s.label: s for s in rec.scheme.specs}
    extra = [s.location.lift(ctx) for s in rec.scheme.specs if s.location is not None]
    points = accessible_points(vf, extra_candidates=extra)
    got = {p.label: p for p in points}
    if set(got) != set(wanted):
        raise VerificationMismatch(
            f"accessible points {sorted(got)} != scheme locations {sorted(wanted)}")
    for label, spec in wanted.items():
        point = got[label]
        if point.multiplicity != spec.multiplicity:
            raise VerificationMismatch(
                f"X={label}: multiplicity {point.multiplicity} != {spec.multiplicity}")
        target = spec.matrix
        if spec.multiplicity == 1:
            local = divisor_chart_local(vf, point.chart)
            matrix, access = linearization_matrix(local, point.location)
            if not zero_modulo(access, relsub):
                raise VerificationMismatch(f"X={label} lost accessibility")
        else:
            trace = resolve_multiplicity(vf, point,
                                         expected_location=spec.resolved.point[1].lift(ctx))
            for a, b in zip(trace.final_chart_map, spec.resolved.patch_map):
                if a != b.lift(ctx):
                    raise VerificationMismatch(
                        f"X={label}: patching map {trace.final_chart_map}")
            if trace.final_location != spec.resolved.point[1].lift(ctx):
                raise VerificationMismatch(
                    f"X={label}: resolved point {trace.final_location}")
            matrix, _ = linearization_matrix(trace.final_local_field(),
                                             trace.final_location)
        ri, rj = _matrix_reference(target)
        f = matrix[ri, rj] / target[ri, rj].lift(ctx)
        if f.is_zero():
            raise VerificationMismatch(f"X={label}: zero matrix scale")
        for i in range(2):
            for j in range(2):
                diff = matrix[i, j] - target[i, j].lift(ctx) * f
                if not zero_modulo(diff, relsub):
                    raise VerificationMismatch(
                        f"X={label}: matrix entry ({i},{j}) mismatch: {diff}")


def eigenvalue_relation(scheme: GRScheme) -> MPoly:
    """The consistency condition the scheme forces on its eigenvalues."""
    rec = recover(scheme, verify=False)
    if not rec.relations:
        raise NoRelation(f"scheme {scheme.name or '?'} is consistent for all eigenvalues")
    rels = list(rec.relations)
    first = rels[0]
    for other in rels[1:]:
        if other != first:
            raise SchemeError(f"multiple independent relations: {rels}")
    return first


# ---------------------------------------------------------------------------
# Existence construction (simple points at c_1, ..., c_n, t, infinity)
# ---------------------------------------------------------------------------


@dataclass
class ExistenceSystem:
    vf: PlaneVectorField
    points: list[AccessiblePoint]
    ratios: dict[str, MRat]
    n: int
    c: tuple[MRat, ...]
    m: tuple[MRat, ...]


def construct_existence_system(n: int, c: Sequence, m: Sequence,
                               ctx: Context | None = None,
                               twist_name: str = "alpha",
                               scale_name: str = "a1t") -> ExistenceSystem:
    """Build the system with n+2 simple accessible points c_1..c_n, t, inf
    and local-index ratios m_1..m_{n+2}.

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
    if ctx is None:
        extra = sorted({name for v in list(c) + list(m) if isinstance(v, MRat)
                        for name in v.num.variables() + v.den.variables()})
        params = [twist_name, scale_name] + [e for e in extra if e not in (twist_name, scale_name)]
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
        raise RelationViolated(f"sum of reciprocal ratios is {total}, expected {n}")

    x, y = ctx.var("x"), ctx.var("y")
    a1 = ctx.var(scale_name)
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
    model = SurfaceModel(n, tuple([ctx.var(twist_name)] + [ctx.rat(0)] * (n - 2))
                         if n >= 2 else ())
    vf = PlaneVectorField(lead * y + b1, -weighted * y * y + b4 * y + b3, "U0", model)
    conditions = _u1_pole_conditions(vf)
    sol = solve_triangular(conditions, unknowns)
    # substitute in two stages: solved values may reference free coefficients
    zero_free = {name: ctx.rat(0) for name in sol.free}
    final = PlaneVectorField(vf.dxdt.subs(sol.assignments).subs(zero_free),
                             vf.dydt.subs(sol.assignments).subs(zero_free),
                             "U0", model)
    if not check_log_condition(final).holds:
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
        local = divisor_chart_local(final, p.chart)
        matrix, access = linearization_matrix(local, p.location)
        index = local_index_from_matrix(matrix, "y")
        ratios[p.label] = index.ratio
        expected = ms[order[p.label]]
        if index.ratio != expected:
            raise VerificationMismatch(
                f"ratio at X={p.label} is {index.ratio}, expected {expected}")
    return ExistenceSystem(final, points, ratios, n, tuple(cs), tuple(ms))


# ---------------------------------------------------------------------------
# Specialization correspondences
# ---------------------------------------------------------------------------


@dataclass
class CorrespondenceReport:
    found: bool
    param_map: dict[str, MRat]
    residual: tuple[str, ...]
    direction: str = "reference-params as affine functions of general-params"


def match_specialization(general: PlaneVectorField, reference: PlaneVectorField,
                         reference_params: Sequence[str],
                         reference_relation: Mapping[str, MRat] | None = None) -> CorrespondenceReport:
    """Search for an affine parameter correspondence making the fields equal.

    The reference parameters are written as affine combinations of the
    general system's parameters with unknown rational coefficients; matching
    like monomials of both components gives a polynomial system in those
    coefficients which the triangular eliminator solves.  The verdict is
    always definitive: either the verified correspondence or the exact
    residual.
    """
    gctx = general.ctx
    if reference_relation:
        reference = reference.subs_params(reference_relation)
        reference_params = [p for p in reference_params if p not in reference_relation]
    gparams = [s.name for s in gctx.syms if s.kind == "parameter"]
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
    equations: list[MPoly] = []
    for gcomp, rcomp in zip(general.components(), reference.components()):
        gnum, gden = gcomp.num.lift(big), gcomp.den.lift(big)
        rnum, rden = _reference_in(big, rcomp, ansatz)
        eq = gnum * rden - rnum * gden
        equations.extend(coefficients_in(eq, [n for n in big.names if n not in coeff_names]))
    try:
        sol = _solve_with_square_fallback(equations, coeff_names)
    except (StuckSystem, InconsistentSystem) as exc:
        return CorrespondenceReport(False, {}, (str(exc),))
    if sol.relations:
        return CorrespondenceReport(False, {},
                                    tuple(str(r) for r in sol.relations))
    assignments = dict(sol.assignments)
    for name in sol.free:
        assignments[name] = big.rat(0)
    param_map: dict[str, MRat] = {}
    for rp in reference_params:
        param_map[rp] = ansatz[rp].subs(assignments)
    # full verification of the found correspondence
    residual = []
    for gcomp, rcomp in zip(general.components(), reference.components()):
        rnum, rden = _reference_in(big, rcomp, param_map)
        diff = gcomp.num.lift(big) * rden - rnum * gcomp.den.lift(big)
        if not diff.is_zero():
            residual.append(str(diff))
    if residual:
        return CorrespondenceReport(False, param_map, tuple(residual))
    return CorrespondenceReport(True, param_map, ())


def _solve_with_square_fallback(equations: Sequence[MPoly], unknowns: Sequence[str],
                                depth: int = 6) -> TriangularSolution:
    """Triangular solve plus bounded branching over single-unknown quadratics.

    Quadratic parameter terms of the matched systems leave residual
    equations a*u^2 + b*u + c with rational coefficients; when the
    discriminant is a rational square the finitely many roots are tried in
    deterministic order and the first branch that completes wins.
    """
    import math

    def rational_sqrt(q: Fraction) -> Fraction | None:
        if q < 0:
            return None
        rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
        if rn * rn == q.numerator and rd * rd == q.denominator:
            return Fraction(rn, rd)
        return None

    eqs = list(equations)
    try:
        return solve_triangular(eqs, unknowns)
    except StuckSystem as exc:
        if depth <= 0:
            raise
        for p in exc.remaining:
            live = [u for u in unknowns if p.involves([u])]
            if len(live) != 1 or p.degree_in(live[0]) != 2:
                continue
            u = live[0]
            a, b, c = (p.coefficient(u, k) for k in (2, 1, 0))
            if any(q.involves(unknowns) for q in (a, b, c)):
                continue
            disc = b * b - p.ctx.poly(4) * a * c
            if not disc.is_constant():
                continue
            root_disc = rational_sqrt(disc.constant_value())
            if root_disc is None or not (a.is_constant() and b.is_constant()):
                continue
            roots = sorted({(-b.constant_value() + s * root_disc) / (2 * a.constant_value())
                            for s in (1, -1)})
            last_exc = exc
            for r in roots:
                branch = eqs + [p.ctx.poly_var(u) - p.ctx.poly(r)]
                try:
                    return _solve_with_square_fallback(branch, unknowns, depth - 1)
                except (StuckSystem, InconsistentSystem) as branch_exc:
                    last_exc = branch_exc
            raise last_exc
        raise


def _reference_in(big: Context, rcomp: MRat, param_values: Mapping[str, MRat]) -> tuple[MPoly, MPoly]:
    """Numerator/denominator of the reference component with parameters substituted."""
    src = rcomp.ctx
    target = big.extend(tuple(Sym(n, "parameter") for n in src.names if n not in big))
    num = rcomp.num.lift(target)
    den = rcomp.den.lift(target)
    values = {k: v.lift(target) for k, v in param_values.items()}
    num_r = num.subs(values)
    den_r = den.subs(values)
    combined = num_r / den_r
    try:
        return combined.num.lift(big), combined.den.lift(big)
    except KeyError:
        name = next(n for n in combined.num.variables() + combined.den.variables()
                    if n not in big)
        raise SchemeError(f"unsubstituted reference symbol {name}") from None
