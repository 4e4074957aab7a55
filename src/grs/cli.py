"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 solver failure (stuck or
inconsistent constraint system), 3 verification mismatch (a check that was
expected to hold exactly did not).  A run whose stdout is closed early (a
reader such as ``head`` that stops) ends quietly with exit code 1.  Output is
deterministic: canonical polynomial text or sorted JSON, no timestamps.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import io as gio
from .algebra import AlgebraError, DivisionByZero, InconsistentSystem, StuckSystem
from .blowup import NotResolvable, ResolutionError, resolve_multiplicity
from .catalog import (MATCH_PAIRS, get_maps, get_scheme, get_system, match_pair,
                      scheme_names, system_names, HVI_TEXT)
from .diophantine import (RELATIONS, bounded_integer_search, enumerate_natural)
from .recovery import (NoRelation, SchemeError, VerificationMismatch, eigenvalue_relation,
                       construct_existence_system, match_specialization, recover,
                       relation_substitution)
from .singularities import (SingularityError, UnresolvedFactor, accessible_points,
                            alpha_test, divisor_chart_local, linearization,
                            linearization_matrix)
from .surface import SurfaceError
from .symmetry import verify_involution, verify_symmetry

USAGE_ERROR, SOLVER_FAILURE, VERIFY_MISMATCH = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _load(ref: str, kind: str, names: list[str], get, from_json):
    """Resolve builtin:<name>, <name>, or a JSON file to (entry, None) or (None, object)."""
    name = ref.removeprefix("builtin:")
    if name in names:
        return get(name), None
    if os.path.exists(ref):
        with open(ref) as fh:
            return None, from_json(gio.loads(fh.read()))
    raise FileNotFoundError(
        f"{ref!r} is neither a builtin {kind} ({', '.join(names)}) nor a file")


def _load_system(ref: str, normalized: bool = True):
    """(vf, entry-or-None) for a system reference."""
    entry, vf = _load(ref, "system", system_names(), get_system, gio.vf_from_json)
    if entry is not None:
        vf = entry.vf
        if normalized and entry.normalization:
            vf = vf.subs_params(entry.normalization)
    return vf, entry


def _load_scheme(ref: str):
    """(scheme, entry-or-None) for a scheme reference."""
    entry, scheme = _load(ref, "scheme", scheme_names(), get_scheme, gio.scheme_from_json)
    return (scheme if entry is None else entry.scheme), entry


def _print_vf(vf, fmt: str):
    if fmt == "json":
        print(gio.dumps(gio.vf_to_json(vf)))
    else:
        print(f"chart {vf.chart} on S_{vf.model.n}")
        print(f"dx/dt = {vf.dxdt}")
        print(f"dy/dt = {vf.dydt}")


def cmd_show(args) -> int:
    if args.system.removeprefix("builtin:") == "hvi":
        print(gio.dumps({"hamiltonian": HVI_TEXT}) if args.format == "json" else HVI_TEXT)
        return 0
    vf, entry = _load_system(args.system, normalized=False)
    _print_vf(vf, args.format)
    if entry and entry.normalization and args.format == "pretty":
        sub = ", ".join(f"{k} = {v}" for k, v in entry.normalization.items())
        print(f"# parameters satisfy: {sub}")
    return 0


def cmd_recover(args) -> int:
    scheme, entry = _load_scheme(args.scheme)
    rec = recover(scheme)
    vf = rec.vf
    notes = []
    relsub = relation_substitution(rec.relations, scheme.eigenvalue_syms)
    if relsub and any(vf.dxdt.involves([s]) or vf.dydt.involves([s]) for s in relsub):
        vf = vf.subs_params(relsub)
        notes.append("bound eigenvalue(s) eliminated through the relation: "
                     + ", ".join(f"{k} -> {v}" for k, v in relsub.items()))
    if entry is not None and entry.golden_system:
        golden = get_system(entry.golden_system)
        if golden.normalization:
            vf = vf.subs_params(golden.normalization)
            notes.append("normalization " + ", ".join(f"{k} -> {v}" for k, v
                                                      in golden.normalization.items())
                         + " applied")
    note = "; ".join(notes)
    if args.format == "json":
        data = gio.vf_to_json(vf)
        data["free"] = list(rec.free)
        data["relations"] = [str(r) for r in rec.relations]
        data["trace"] = [str(s) for s in rec.solution.trace]
        print(gio.dumps(data))
    else:
        _print_vf(vf, "pretty")
        if note:
            print(f"# {note}")
        if rec.free:
            print(f"# underdetermined: free overall factor(s) {', '.join(rec.free)}")
        for r in rec.relations:
            print(f"# eigenvalue relation: {r} = 0")
        if args.trace:
            print("# solver trace:")
            for s in rec.solution.trace:
                print(f"#   {s}")
    return 0


def cmd_singular(args) -> int:
    vf, entry = _load_system(args.system)
    points = accessible_points(vf)
    rows = []
    for p in points:
        local = divisor_chart_local(vf, p.chart)
        row = {"point": p.label, "multiplicity": p.multiplicity,
               "chart": p.chart, "divisor": local.divisor}
        if p.multiplicity == 1:
            li = linearization(local, p.location)
            matrix = li.matrix
            row["eigenvalues"] = [str(e) for e in li.eigenvalues]
            row["ratio"] = str(li.ratio)
        else:
            try:
                matrix, _ = linearization_matrix(local, p.location)
            except DivisionByZero:
                # a pole of the field's derivatives at the point: a multiple
                # point's matrix is only informational, so report it undefined
                matrix = None
            row["eigenvalues"] = ["degenerate (multiple point)"] * 2
            row["ratio"] = "resolve the point first"
        row["matrix"] = None if matrix is None else [[str(e) for e in r] for r in matrix.entries]
        rows.append(row)
    if args.format == "json":
        print(gio.dumps(rows))
    else:
        for r in rows:
            print(f"X={r['point']} (multiplicity {r['multiplicity']}, chart {r['chart']})")
            if r["matrix"] is None:
                print(f"  matrix undefined (field not regular at X={r['point']} "
                      f"in chart {r['chart']})")
            else:
                print(f"  matrix [[{r['matrix'][0][0]}, {r['matrix'][0][1]}], "
                      f"[{r['matrix'][1][0]}, {r['matrix'][1][1]}]]")
            print(f"  local index {tuple(r['eigenvalues'])}  ratio {r['ratio']}")
    return 0


def _find_point(vf, label: str):
    points = accessible_points(vf)
    for p in points:
        if p.label == label:
            return p
    raise SingularityError(f"no accessible point X={label}; "
                           f"have {[p.label for p in points]}")


def cmd_resolve(args) -> int:
    vf, entry = _load_system(args.system)
    if entry is not None and entry.relation is not None:
        vf = vf.subs_params(relation_substitution([entry.relation],
                                                  entry.eigenvalue_syms))
    point = _find_point(vf, args.point)
    trace = resolve_multiplicity(vf, point)
    data = {"steps": trace.steps,
            "patching_map": [str(m) for m in trace.final_chart_map],
            "resolved_point": ["0", str(trace.final_location)]}
    if args.format == "json":
        print(gio.dumps(data))
    else:
        for s in trace.steps:
            print(f"  {s}")
        print(f"patching map: ({data['patching_map'][0]}, {data['patching_map'][1]})")
        print(f"resolved point: (0, {trace.final_location})")
    return 0


def cmd_alpha_test(args) -> int:
    vf, entry = _load_system(args.system)
    point = _find_point(vf, args.point)
    res = alpha_test(vf, point)
    data = {"reduced": [[str(res.reduced[i, j]) for j in range(2)] for i in range(2)],
            "divisor": res.divisor, "closed_form": res.closed_form,
            "single_valued": res.single_valued, "reason": res.reason,
            "ratio": str(res.ratio)}
    if args.format == "json":
        print(gio.dumps(data))
    else:
        print(f"reduced system at t0: [[{data['reduced'][0][0]}, {data['reduced'][0][1]}],"
              f" [{data['reduced'][1][0]}, {data['reduced'][1][1]}]]  (pole along {res.divisor})")
        print(f"closed form: {res.closed_form}")
        print(f"single-valued: {res.single_valued} ({res.reason}), ratio {res.ratio}")
    return 0


def cmd_relation(args) -> int:
    scheme, _ = _load_scheme(args.scheme)
    rel = eigenvalue_relation(scheme)
    if args.format == "json":
        print(gio.dumps({"relation": str(rel)}))
    else:
        print(f"{rel} = 0")
    return 0


def cmd_classify(args) -> int:
    if args.integers:
        if args.bound < 1:
            raise ValueError(f"--integers needs --bound >= 1, got {args.bound}")
        rows = bounded_integer_search(args.relation, args.bound)
        label = f"integer tuples with 0 < |entries| <= {args.bound} (non-exhaustive search)"
    else:
        rows = enumerate_natural(args.relation, args.convention)
        label = f"natural solutions ({args.convention} convention, complete)"
    if args.format == "json":
        print(gio.dumps({"relation": args.relation, "kind": label,
                         "tuples": [list(r) for r in rows]}))
    else:
        print(f"{args.relation}: {label}")
        for r in rows:
            print("  " + "(" + ", ".join(str(v) for v in r) + ")")
    return 0


def cmd_symmetry(args) -> int:
    entry = get_system(args.system)
    bmaps = {m.name: m for m in get_maps(args.system)}
    if args.map not in bmaps:
        raise SingularityError(f"unknown map {args.map!r}; have {sorted(bmaps)}")
    bmap = bmaps[args.map]
    mode = "symbolic" if args.symbolic else "numeric-probe"
    rep = verify_symmetry(entry.vf, bmap, mode, relation=entry.relation,
                          eigenvalue_syms=entry.eigenvalue_syms, draws=args.draws)
    inv = verify_involution(bmap, entry.relation, entry.eigenvalue_syms)
    if args.format == "json":
        print(gio.dumps({"system": args.system, "map": args.map, "mode": mode,
                         "invariant": rep.invariant, "draws": rep.draws,
                         "relation_required": rep.relation_required,
                         "involution": inv, "residual": list(rep.residual),
                         "note": rep.note or bmap.note}))
    else:
        print(f"{args.system} under {args.map}: invariant={rep.invariant} "
              f"({mode}, draws={rep.draws}) involution={inv}")
        if rep.relation_required:
            print("# holds modulo the eigenvalue relation")
        if bmap.note:
            print(f"# {bmap.note}")
        for r in rep.residual:
            print(f"# residual: {r}")
    return 0 if (rep.invariant and inv) else VERIFY_MISMATCH


def _fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(v) for v in text.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def cmd_construct(args) -> int:
    points = _fractions(args.points) if args.points else []
    ratios = _fractions(args.ratios)
    sys_ = construct_existence_system(args.n, points, ratios)
    if args.format == "json":
        data = gio.vf_to_json(sys_.vf)
        data["points"] = [p.label for p in sys_.points]
        data["ratios"] = {k: str(v) for k, v in sys_.ratios.items()}
        print(gio.dumps(data))
    else:
        _print_vf(sys_.vf, "pretty")
        print("accessible points: " + ", ".join(p.label for p in sys_.points))
        print("ratios: " + ", ".join(f"X={k}: {v}" for k, v in sorted(sys_.ratios.items())))
    return 0


def cmd_match(args) -> int:
    general, reference, ref_params, note = match_pair(args.pair)
    rep = match_specialization(general, reference, ref_params)
    if args.format == "json":
        print(gio.dumps({"pair": args.pair, "found": rep.found,
                         "map": {k: str(v) for k, v in rep.param_map.items()},
                         "residual": list(rep.residual), "note": note}))
    else:
        print(f"{args.pair}: correspondence {'found' if rep.found else 'NOT found'}")
        print(f"# {note}")
        for k, v in sorted(rep.param_map.items()):
            print(f"  {k} -> {v}")
        for r in rep.residual:
            print(f"# residual: {r}")
    return 0 if rep.found else VERIFY_MISMATCH


def build_parser() -> _Parser:
    parser = _Parser(prog="grs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("pretty", "json"), default="pretty")
        return p

    p = add("show", cmd_show, help="print a builtin system")
    p.add_argument("--system", required=True)
    p = add("recover", cmd_recover, help="recover a system from a scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--trace", action="store_true", help="print the solver trace")
    p = add("singular", cmd_singular, help="accessible points and matrices")
    p.add_argument("--system", required=True)
    p = add("resolve", cmd_resolve, help="resolve a multiple point")
    p.add_argument("--system", required=True)
    p.add_argument("--point", required=True)
    p = add("alpha-test", cmd_alpha_test, help="scaling test at a simple point")
    p.add_argument("--system", required=True)
    p.add_argument("--point", required=True)
    p = add("relation", cmd_relation, help="eigenvalue relation of a scheme")
    p.add_argument("--scheme", required=True)
    p = add("classify", cmd_classify, help="solution tuples of a relation")
    p.add_argument("--relation", choices=RELATIONS, required=True)
    p.add_argument("--bound", type=int, default=100)
    p.add_argument("--integers", action="store_true")
    p.add_argument("--convention", choices=("paper", "all"), default="paper")
    p = add("symmetry", cmd_symmetry, help="verify a birational symmetry")
    p.add_argument("--system", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--draws", type=int, default=20)
    p = add("construct", cmd_construct, help="existence construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", default="")
    p.add_argument("--ratios", required=True)
    p = add("match", cmd_match, help="specialization correspondence")
    p.add_argument("--pair", choices=MATCH_PAIRS, required=True)
    return parser


def _fail(kind: str, message, code: int) -> int:
    """Print a failure as one line on stderr and return its exit code."""
    # a message may quote user text (a chart name, a point label) that holds
    # line breaks; they are printed escaped
    print(f"{kind}: " + "\\n".join(str(message).splitlines()), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # interpreter exit cannot fail again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR
    except (StuckSystem, InconsistentSystem, NoRelation) as exc:
        return _fail("solver failure", exc, SOLVER_FAILURE)
    except (VerificationMismatch, NotResolvable) as exc:
        return _fail("verification mismatch", exc, VERIFY_MISMATCH)
    except (SchemeError, SingularityError, SurfaceError, UnresolvedFactor, AlgebraError,
            ResolutionError, FileNotFoundError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        return _fail("error", message, USAGE_ERROR)


if __name__ == "__main__":
    sys.exit(main())
