"""Birational symmetry tests: exact probes, involutions, push-forwards."""

import pytest

from grs.algebra import Context
from grs.catalog import get_maps, get_system
from grs.symmetry import (BirationalMap, SingularJacobian, identity_map,
                          push_forward, verify_involution, verify_symmetry)

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
        verify_symmetry(entry.vf, bmap, draws=0)


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
    assert not verify_involution(shift)


def test_singular_jacobian_rejected():
    ctx = Context.make(parameters=["alpha0"])
    x, y, t = ctx.var("x"), ctx.var("y"), ctx.var("t")
    entry = get_system("gen-piii")
    degenerate = BirationalMap("deg", x, x, t, {})
    with pytest.raises(SingularJacobian):
        push_forward(push_forward(entry.vf, identity_map(entry.vf.ctx)),
                     BirationalMap("deg", entry.vf.ctx.var("x"),
                                   entry.vf.ctx.var("x"), entry.vf.ctx.var("t"), {}))
