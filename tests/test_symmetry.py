"""Birational symmetry tests: exact probes, involutions, push-forwards."""

import math
import random

import pytest

from grs import algebra, symmetry
from grs.algebra import Context, DivisionByZero
from grs.catalog import get_maps, get_system
from grs.recovery import relation_substitution
from grs.surface import PlaneVectorField, SurfaceModel, chain_rule
from grs.symmetry import (MAX_DRAWS, BirationalMap, SymmetryError, SymmetryReport, _residual,
                          verify_involution, verify_symmetry)


class SingularJacobian(SymmetryError):
    pass


def identity_map(ctx: Context, name: str = "id") -> BirationalMap:
    return BirationalMap(name, ctx.var("x"), ctx.var("y"), ctx.var("t"), {})


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
    d1, d2 = chain_rule((xi, yi), vf.components())
    if inverse is None:
        inv_subs = {"x": xi.subs(bmap.param_map), "y": yi.subs(bmap.param_map),
                    "t": bmap.t_image}
    else:
        inv_subs = {"x": inverse.x_image, "y": inverse.y_image, "t": inverse.t_image}
    return PlaneVectorField((d1 / tprime).subs(inv_subs), (d2 / tprime).subs(inv_subs),
                            vf.chart, vf.model)


CASES = [(sys_name, map_name)
         for sys_name, map_names in [("gen-pvi", ("s", "pi1", "pi2", "pi3")),
                                     ("gen-pv", ("s", "pi")),
                                     ("gen-piv", ("s",)),
                                     ("gen-piii", ("s", "pi"))]
         for map_name in map_names]


def _get(sys_name, map_name):
    entry = get_system(sys_name)
    bmap = {m.name: m for m in get_maps(sys_name)}[map_name]
    return entry, bmap


@pytest.mark.parametrize("sys_name, map_name", CASES)
def test_builtin_symmetries_pass_twenty_probes(sys_name, map_name):
    entry, bmap = _get(sys_name, map_name)
    rep = verify_symmetry(entry.vf, bmap, "numeric-probe", relation=entry.relation,
                          eigenvalue_syms=entry.eigenvalue_syms, draws=20)
    assert rep.invariant and rep.draws == 20, rep.note


@pytest.mark.parametrize("sys_name, map_name", CASES)
def test_builtin_symmetries_are_involutions(sys_name, map_name):
    entry, bmap = _get(sys_name, map_name)
    assert verify_involution(bmap, entry.relation, entry.eigenvalue_syms)


@pytest.mark.parametrize("sys_name, map_name", CASES)
def test_symbolic_mode_all_maps(sys_name, map_name):
    entry, bmap = _get(sys_name, map_name)
    rep = verify_symmetry(entry.vf, bmap, "symbolic", relation=entry.relation,
                          eigenvalue_syms=entry.eigenvalue_syms)
    assert rep.invariant
    # the x -> 1/x map of the four-point family needs the eigenvalue relation
    if (sys_name, map_name) == ("gen-pvi", "pi3"):
        assert rep.relation_required


def test_probe_mode_needs_a_draw():
    entry, bmap = _get("gen-piii", "s")
    with pytest.raises(ValueError):
        verify_symmetry(entry.vf, bmap, "numeric-probe", entry.relation, entry.eigenvalue_syms,
                        draws=0)


def test_pi3_verbatim_transcription_fails_and_is_reported():
    """The printed alpha images of the x -> 1/x map do not give an invariance
    (recorded discrepancy finding); the derived plain swap does."""
    entry, verbatim = _get("gen-pvi", "pi3-verbatim")
    rep = verify_symmetry(entry.vf, verbatim, "numeric-probe", relation=entry.relation,
                          eigenvalue_syms=entry.eigenvalue_syms, draws=3)
    assert not rep.invariant
    assert rep.residual
    assert not verify_involution(verbatim, entry.relation, entry.eigenvalue_syms)
    assert "finding" in verbatim.note


def test_gen_piv_alpha0_gap_is_reported_not_asserted():
    entry, s = _get("gen-piv", "s")
    assert "alpha0" in s.note
    assert "alpha0" not in s.param_map
    # alpha0 indeed does not occur in the system
    assert not entry.vf.dxdt.involves(["alpha0"])
    assert not entry.vf.dydt.involves(["alpha0"])


def test_identity_push_forward():
    entry = get_system("gen-piii")
    vf = entry.vf
    pushed = push_forward(vf, identity_map(vf.ctx))
    assert pushed.dxdt == vf.dxdt and pushed.dydt == vf.dydt


def test_pi_push_forward_equals_parameter_swap():
    """Pushing the two-double-point system through pi gives the same system
    with the parameters swapped (exact, symbolic modulo the relation)."""
    entry, bmap = _get("gen-piii", "pi")
    from grs.recovery import relation_substitution
    relsub = relation_substitution([entry.relation], entry.eigenvalue_syms)
    vf = entry.vf.subs_params(relsub)
    bmap_red = BirationalMap(bmap.name, bmap.x_image.subs(relsub),
                             bmap.y_image.subs(relsub), bmap.t_image,
                             {k: v.subs(relsub) for k, v in bmap.param_map.items()
                              if k not in relsub})
    pushed = push_forward(vf, bmap_red)
    swapped = vf.subs_params(bmap_red.param_map)
    assert pushed.dxdt == swapped.dxdt
    assert pushed.dydt == swapped.dydt


def test_wrong_alpha2_image_leaves_residual():
    entry, s = _get("gen-piii", "s")
    ctx = entry.vf.ctx
    broken = BirationalMap("s-broken", s.x_image, s.y_image, s.t_image,
                           {**s.param_map, "alpha2": ctx.var("alpha2")})
    rep = verify_symmetry(entry.vf, broken, "numeric-probe", relation=entry.relation,
                          eigenvalue_syms=entry.eigenvalue_syms, draws=3)
    assert not rep.invariant


def test_push_forward_functorial_on_involutions():
    """Pushing forward twice along an involution returns the original field.

    The second application acts on the image, whose parameters are the
    images of the first, so it uses the map with mapped parameters (for an
    involution that is exactly the inverse family).  Everything is reduced
    modulo the eigenvalue relation first."""
    from grs.recovery import relation_substitution
    for sys_name in ("gen-piii", "gen-piv"):
        entry = get_system(sys_name)
        bmap = {m.name: m for m in get_maps(sys_name)}["s"]
        relsub = relation_substitution([entry.relation], entry.eigenvalue_syms)
        vf = entry.vf.subs_params(relsub)
        bmap = BirationalMap(bmap.name, bmap.x_image.subs(relsub),
                             bmap.y_image.subs(relsub), bmap.t_image,
                             {k: v.subs(relsub) for k, v in bmap.param_map.items()
                              if k not in relsub})
        once = push_forward(vf, bmap)
        # invariance in the push-forward form: the once-pushed field is the
        # original with mapped parameters
        swapped = vf.subs_params(bmap.param_map)
        assert once.dxdt == swapped.dxdt and once.dydt == swapped.dydt
        second = BirationalMap(bmap.name, bmap.x_image.subs(bmap.param_map),
                               bmap.y_image.subs(bmap.param_map), bmap.t_image,
                               {p: img.subs(bmap.param_map)
                                for p, img in bmap.param_map.items()})
        # second is the inverse family of bmap, so its own inverse is bmap
        twice = push_forward(once, second, inverse=bmap)
        assert twice.dxdt == vf.dxdt and twice.dydt == vf.dydt


def test_non_involution_detected():
    ctx = Context.make(parameters=["alpha0"])
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    shift = BirationalMap("shift", x + ctx.rat(1), y, t, {})
    assert not verify_involution(shift, None, ())


def test_singular_jacobian_rejected():
    ctx = Context.make(parameters=["alpha0"])
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    entry = get_system("gen-piii")
    degenerate = BirationalMap("deg", x, x, t, {})
    with pytest.raises(SingularJacobian):
        push_forward(push_forward(entry.vf, identity_map(entry.vf.ctx)),
                     BirationalMap("deg", entry.vf.ctx.var("x"),
                                   entry.vf.ctx.var("x"), entry.vf.ctx.var("t"), {}))


# -- probe verdicts from the exact residual ----------------------------------


def _reference_probe(vf, bmap, relation=None, eigenvalue_syms=(), draws=20,
                     seed=20200828):
    """Numeric-probe mode as a loop that checks every draw in full."""
    ctx = vf.ctx
    params = [s.name for s in ctx.syms if s.kind == "parameter"]
    f1, f2 = vf.components()
    rng = random.Random(seed)
    relsub = {} if relation is None else relation_substitution([relation], eigenvalue_syms)
    done = 0
    attempts = 0
    while done < draws:
        attempts += 1
        if attempts > 50 * draws:
            raise SymmetryError("parameter draws kept hitting excluded loci")
        values = symmetry.draw_parameters(ctx, rng, relsub)
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
            return SymmetryReport(False, "numeric-probe", draws=done + 1,
                                  residual=(str(r1), str(r2)),
                                  note=f"failed at draw {done + 1} with "
                                       + ", ".join(f"{k}={v}" for k, v in values.items()))
        done += 1
    return SymmetryReport(True, "numeric-probe", draws=done)


@pytest.mark.parametrize("sys_name, map_name", CASES + [("gen-pvi", "pi3-verbatim")])
def test_probe_matches_the_per_draw_loop(sys_name, map_name):
    entry, bmap = _get(sys_name, map_name)
    for seed in (1, 2, 3, 5, 8):
        for draws in (1, 3, 20):
            args = (entry.vf, bmap, entry.relation, entry.eigenvalue_syms, draws, seed)
            assert verify_symmetry(entry.vf, bmap, "numeric-probe", *args[2:]) \
                == _reference_probe(*args), (seed, draws)


def _reference_draw(ctx, rng, relsub):
    """draw_parameters as an MRat per value and MRat.subs for the relation."""
    params = [s.name for s in ctx.syms if s.kind == "parameter"]
    for _ in range(200):
        values = {p: ctx.rat(symmetry._random_fraction(rng)) for p in params if p not in relsub}
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


@pytest.mark.parametrize("sys_name, map_name", CASES + [("gen-pvi", "pi3-verbatim")])
def test_draws_match_the_mrat_reference(sys_name, map_name):
    """The ten builtin probe runs draw the same values, and leave their
    generator in the same state, as a draw built from MRat substitutions."""
    entry, _ = _get(sys_name, map_name)
    ctx = entry.vf.ctx
    relsub = ({} if entry.relation is None
              else relation_substitution([entry.relation], entry.eigenvalue_syms))
    ours, theirs = random.Random(20200828), random.Random(20200828)
    for _ in range(100):
        assert symmetry.draw_parameters(ctx, ours, relsub) == _reference_draw(ctx, theirs, relsub)
    assert ours.getstate() == theirs.getstate()


def _scaling_case():
    """dx/dt = x^2/((103 x - 101 b)(a - 2)), dy/dt = y under x -> x/(a-1),
    b -> b/(a-1).

    Invariant, since F1(c x, c b) = c F1(x, b).  The draws with a = 1 (the
    x image undefined) or a = 2 (F undefined) are excluded."""
    ctx = Context.make(parameters=["a", "b"])
    x, y, t, a, b = (ctx.var(n) for n in ("x", "y", "t", "a", "b"))
    one, two = ctx.rat(1), ctx.rat(2)
    vf = PlaneVectorField(x * x / ((ctx.rat(103) * x - ctx.rat(101) * b) * (a - two)), y,
                          "U0", SurfaceModel(1, ()))
    bmap = BirationalMap("scale", x / (a - one), y, t, {"b": b / (a - one)})
    return vf, bmap


def _flip_case():
    """dx/dt = x/(103 x - 101 - 103 p), dy/dt = a y under y -> -y, where p is
    the prime 2^61 - 1: invariant, with a constant term that p divides."""
    ctx = Context.make(parameters=["a"])
    x, y, t, a = (ctx.var(n) for n in ("x", "y", "t", "a"))
    vf = PlaneVectorField(x / (ctx.rat(103) * x - ctx.rat(101 + 103 * ((1 << 61) - 1))), a * y,
                          "U0", SurfaceModel(1, ()))
    return vf, BirationalMap("flip", x, -y, t, {})


@pytest.mark.parametrize("case, seeds", [(_scaling_case, range(1, 9)), (_flip_case, (1, 2, 3))],
                         ids=["scaling", "flip"])
def test_probe_matches_the_per_draw_loop_on_invariant_fields(case, seeds):
    vf, bmap = case()
    assert verify_symmetry(vf, bmap, "symbolic", None, ()).invariant
    for seed in seeds:
        report = verify_symmetry(vf, bmap, "numeric-probe", None, (), draws=20, seed=seed)
        assert report == _reference_probe(vf, bmap, draws=20, seed=seed), seed


def _image_mod_p(r, point):
    """An MRat at ``point`` mod the screen's prime, one Fraction term at a time."""
    prime = algebra._PRIME
    num, den = (sum(c.numerator * pow(c.denominator, -1, prime)
                    * math.prod(pow(point[i], k, prime) for i, k in enumerate(e))
                    for e, c in p.terms.items()) for p in (r.num, r.den))
    return num * pow(den, -1, prime) % prime


@pytest.mark.parametrize("sys_name, map_name", CASES + [("gen-pvi", "pi3-verbatim")])
def test_screen_is_the_image_of_the_exact_residual(sys_name, map_name):
    """At the first draw of seeds 1 to 5 the screen is zero exactly when the
    exact residual is, and is that residual at the fixed residues mod p."""
    entry, bmap = _get(sys_name, map_name)
    ctx = entry.vf.ctx
    params = [s.name for s in ctx.syms if s.kind == "parameter"]
    relsub = relation_substitution([entry.relation], entry.eigenvalue_syms)
    point = algebra._residues(len(ctx))[0]
    for seed in range(1, 6):
        values = symmetry.draw_parameters(ctx, random.Random(seed), relsub)
        args = (entry.vf.components(), bmap, values, params)
        exact = symmetry._probe_residual(*args)
        screen = symmetry._screen(*args)
        assert (screen == (0, 0)) == all(r.is_zero() for r in exact), seed
        assert screen == tuple(_image_mod_p(r, point) for r in exact), seed


def _calls(monkeypatch, log, name):
    """Log (name, args) as each call starts."""
    original = getattr(symmetry, name)
    monkeypatch.setattr(symmetry, name, lambda *args: log.append((name, args)) or original(*args))


def _spy(monkeypatch, events, name, outcome):
    """Log (name, outcome of the result, or "excluded") for each call."""
    original = getattr(symmetry, name)

    def wrapper(*args):
        try:
            result = original(*args)
        except DivisionByZero:
            events.append((name, "excluded"))
            raise
        events.append((name, outcome(result)))
        return result
    monkeypatch.setattr(symmetry, name, wrapper)


@pytest.mark.parametrize("sys_name, map_name", CASES)
def test_a_proved_probe_run_ends_at_its_first_passing_draw(monkeypatch, sys_name, map_name):
    """An invariant map makes the draws the per-draw loop needs for its first
    pass, computes exactly only those that are excluded, proves the residual
    zero once, on the screen of the passing draw, and reports all its draws;
    a run of one draw proves nothing."""
    entry, bmap = _get(sys_name, map_name)
    vf, relation, syms = entry.vf, entry.relation, entry.eigenvalue_syms
    events = []
    _spy(monkeypatch, events, "draw_parameters", lambda r: "drawn")
    _reference_probe(vf, bmap, relation, syms, draws=1)
    first_pass = len(events)
    _spy(monkeypatch, events, "_probe_residual", lambda r: "passed")
    _spy(monkeypatch, events, "_proved", bool)
    for draws in (20, MAX_DRAWS):
        del events[:]
        report = verify_symmetry(vf, bmap, "numeric-probe", relation, syms, draws=draws)
        assert report == SymmetryReport(True, "numeric-probe", draws=draws)
        assert events.count(("draw_parameters", "drawn")) == first_pass
        assert events.count(("_probe_residual", "excluded")) == first_pass - 1
        assert sum(e[0] == "_probe_residual" for e in events) == first_pass - 1
        assert [e for e in events if e[0] == "_proved"] == [("_proved", True)]
        assert events[-1] == ("_proved", True)
    del events[:]
    assert verify_symmetry(vf, bmap, "numeric-probe", relation, syms, draws=1) \
        == SymmetryReport(True, "numeric-probe", draws=1)
    assert events.count(("draw_parameters", "drawn")) == first_pass
    assert not [e for e in events if e[0] == "_proved"]


def test_probe_continues_when_the_exact_residual_does_not_vanish(monkeypatch):
    """x -> x + (a - a0) t leaves the residual ((a - a0)(1 - t), 0) on
    dx/dt = x, dy/dt = y; a0 is the first draw of a, so that draw screens to
    zero, its proof fails once, it is computed exactly and passes, and a
    later one fails, with the same report as when every draw is probed."""
    ctx = Context.make(parameters=["a", "b"])
    x, y, t, a = (ctx.var(n) for n in ("x", "y", "t", "a"))
    vf = PlaneVectorField(x, y, "U0", SurfaceModel(1, ()))
    log = []
    _calls(monkeypatch, log, "_probe_residual")
    _spy(monkeypatch, log, "_screen", lambda r: r)
    _spy(monkeypatch, log, "_proved", bool)
    for seed in (1, 2, 3):
        a0 = symmetry.draw_parameters(ctx, random.Random(seed), {})["a"]
        bmap = BirationalMap("shear", x + (a - a0) * t, y, t, {})
        del log[:]
        report = verify_symmetry(vf, bmap, "numeric-probe", None, (), draws=20, seed=seed)
        assert not report.invariant and report.draws > 1
        assert report == _reference_probe(vf, bmap, draws=20, seed=seed)
        assert log[:2] == [("_screen", (0, 0)), ("_proved", False)]
        probes = [args for name, args in log[2:] if name == "_probe_residual"]
        assert len(probes) == len(log) - 2 == report.draws
        assert probes[0][2]["a"] == a0


def test_probe_raises_when_every_draw_is_excluded():
    """The x image has the relation n1*n2 - 4 as its denominator, which
    every draw consistent with the relation makes vanish."""
    ctx = Context.make(parameters=["n1", "n2"])
    x, y, t, n1, n2 = (ctx.var(n) for n in ("x", "y", "t", "n1", "n2"))
    relation = (n1 * n2 - ctx.rat(4)).num
    vf = PlaneVectorField(x, y, "U0", SurfaceModel(1, ()))
    bmap = BirationalMap("excluded", x / (n1 * n2 - ctx.rat(4)), y, t, {})
    kwargs = dict(relation=relation, eigenvalue_syms=("n1", "n2"), draws=3)
    with pytest.raises(SymmetryError, match="kept hitting excluded loci"):
        verify_symmetry(vf, bmap, "numeric-probe", **kwargs)
    with pytest.raises(SymmetryError, match="kept hitting excluded loci"):
        _reference_probe(vf, bmap, **kwargs)


def test_a_nonzero_screen_is_reported_without_a_proof(monkeypatch):
    """The verbatim map's first draw screens nonzero: that draw alone is
    computed exactly and reported, and the proof never runs."""
    entry, bmap = _get("gen-pvi", "pi3-verbatim")
    args = (entry.vf, bmap, entry.relation, entry.eigenvalue_syms)
    log = []
    for name in ("_screen", "_probe_residual", "_proved"):
        _calls(monkeypatch, log, name)
    for draws in (3, 20):
        del log[:]
        assert verify_symmetry(entry.vf, bmap, "numeric-probe", *args[2:], draws=draws) \
            == _reference_probe(*args, draws=draws)
        assert [name for name, _ in log] == ["_screen", "_probe_residual"]


@pytest.mark.parametrize("seed", [7, 9], ids=["a=1", "a=2"])
def test_an_undecided_screen_takes_the_exact_path(monkeypatch, seed):
    """The first scaling draw of seed 7 has a = 1 (the x image undefined), of
    seed 9 a = 2 (F undefined): the screen cannot decide, the exact draw is
    excluded, and the next draw screens to zero and is proved."""
    vf, bmap = _scaling_case()
    log = []
    _spy(monkeypatch, log, "_screen", lambda r: r)
    _spy(monkeypatch, log, "_probe_residual", lambda r: "passed")
    _spy(monkeypatch, log, "_proved", bool)
    assert verify_symmetry(vf, bmap, "numeric-probe", None, (), draws=20, seed=seed) \
        == _reference_probe(vf, bmap, draws=20, seed=seed)
    assert log == [("_screen", None), ("_probe_residual", "excluded"), ("_screen", (0, 0)),
                   ("_proved", True)]


def test_a_draw_value_the_prime_divides_takes_the_exact_path(monkeypatch):
    """The relation n1 - p n2, for p the prime 2^61 - 1, solves n2 = n1/p, a
    draw value the screen cannot reduce mod p: every draw takes the exact
    path, with the reports of the per-draw loop, on an invariant map and on
    one that fails."""
    ctx = Context.make(parameters=["n1", "n2"])
    x, y, t, n1, n2 = (ctx.var(n) for n in ("x", "y", "t", "n1", "n2"))
    relation = (n1 - ctx.rat((1 << 61) - 1) * n2).num
    vf = PlaneVectorField(n2 * x, y, "U0", SurfaceModel(1, ()))
    log = []
    _spy(monkeypatch, log, "_screen", lambda r: r)
    for bmap, invariant in ((BirationalMap("flip", x, -y, t, {}), True),
                            (BirationalMap("shift", x, y + ctx.rat(1), t, {}), False)):
        for seed in (1, 2, 3):
            kwargs = dict(relation=relation, eigenvalue_syms=("n1", "n2"), draws=20, seed=seed)
            report = verify_symmetry(vf, bmap, "numeric-probe", **kwargs)
            assert report.invariant == invariant
            assert report == _reference_probe(vf, bmap, **kwargs)
    assert log and all(screen is None for _, screen in log)
