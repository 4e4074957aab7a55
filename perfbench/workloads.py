"""The four workloads of the benchmark.

Each workload is a fixed list of operations, grouped into timed phases; one
pass runs every operation once (``survey`` runs its commands in one output
format per pass, pretty and JSON in turn).  The seed only reorders the
operations within a phase (and, for ``check``, seeds the symmetry probes),
so every pass of every run does the same amount of work.

* ``recover``: the paper's main pipeline, ``recover()`` with verification
  on the five builtin schemes as ``grs recover`` runs it, then the four
  eigenvalue relations as ``grs relation`` derives them.
* ``check``: the nine shipped birational maps in numeric-probe mode (plus
  ``pi3-verbatim``, whose expected verdict is *not invariant*) with their
  involution checks, the nine maps in symbolic mode, and the four
  specialization correspondences.
* ``survey``: the short per-system CLI commands through ``grs.cli.main``,
  in pretty and JSON format.
* ``kernel``: replay of the frozen corpus of algebra operations.

Two known faults are left out of every workload (see README.md): the
symbolic check of ``pi3-verbatim``, which does not finish, and
``grs singular --system piv``, which exits 1.
"""

from __future__ import annotations

import contextlib
import io
import random
import time

from grs import algebra, catalog, cli, recovery, symmetry

import answers
import corpus

GENERALIZED = ("gen-pvi", "gen-pv", "gen-piv", "gen-piii")
PROBE_DRAWS = 20
INTEGER_BOUND = 6
FORMATS = ("pretty", "json")


class Workload:
    """Phases of operations plus the checks of their results.

    ``phases`` lists (phase name, [(label, fn, args), ...]); a pass calls
    every fn of ``pass_phases`` once, phase by phase, and times each phase.
    """

    name = ""

    def __init__(self):
        self.phases: list[tuple[str, list]] = []
        self.passes_run = 0

    def pass_phases(self, index: int) -> list[tuple[str, list]]:
        """The phases the pass with this index runs."""
        return self.phases

    def run_pass(self, clock) -> tuple[dict[str, float], list]:
        """Phase wall times and (label, result) pairs of one pass.

        The phase times leave out the time the ``hostclock.HostClock``
        spent sampling the host speed meanwhile.
        """
        times = {}
        outcomes = []
        index, self.passes_run = self.passes_run, self.passes_run + 1
        for phase, ops in self.pass_phases(index):
            spent = clock.spent
            start = time.perf_counter()
            for label, fn, args in ops:
                try:
                    result = fn(*args)
                except Exception as exc:  # a failed operation, reported by the run
                    result = exc
                outcomes.append((label, result))
            times[phase] = time.perf_counter() - start - (clock.spent - spent)
        return times, outcomes

    def digest(self, label: str, result):
        """A comparable summary, so later passes can be matched to the first."""
        return str(result)

    def check(self, outcomes: list) -> dict[str, str | None]:
        """label -> None when the result is right, else the reason it is wrong."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------


def _recover_as_cli(entry, golden):
    """recover() with verification, post-processed as ``grs recover`` prints it."""
    rec = recovery.recover(entry.scheme)
    vf = rec.vf
    relsub = recovery.relation_substitution(rec.relations, entry.scheme.eigenvalue_syms)
    if relsub and any(vf.dxdt.involves([s]) or vf.dydt.involves([s]) for s in relsub):
        vf = vf.subs_params(relsub)
    if golden.normalization:
        vf = vf.subs_params(golden.normalization)
    return rec, vf


def _relation(scheme):
    return recovery.eigenvalue_relation(scheme)


class Recover(Workload):
    name = "recover"

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        schemes = catalog.scheme_names()
        rng.shuffle(schemes)
        relations = list(GENERALIZED)
        rng.shuffle(relations)
        recover_ops = []
        for name in schemes:
            entry = catalog.get_scheme(name)
            recover_ops.append((f"recover {name}", _recover_as_cli,
                                (entry, catalog.get_system(entry.golden_system))))
        relation_ops = [(f"relation {name}", _relation, (catalog.get_scheme(name).scheme,))
                        for name in relations]
        self.phases = [("recover_s", recover_ops),
                       ("relation_s", relation_ops)]

    def digest(self, label, result):
        if isinstance(result, tuple):
            rec, vf = result
            return (str(vf.dxdt), str(vf.dydt), rec.free, tuple(map(str, rec.relations)))
        return str(result)

    def check(self, outcomes):
        import oracle
        verdicts = {}
        for label, result in outcomes:
            kind, name = label.split(" ", 1)
            if kind == "recover":
                verdicts[label] = _check_recovered(oracle, name, *result)
            elif oracle.unit_multiple(result, answers.PAPER_RELATIONS[name][0]):
                verdicts[label] = None
            else:
                verdicts[label] = f"relation {result} is not the paper's up to a unit"
        return verdicts


def _check_recovered(oracle, name, rec, vf):
    import sympy
    expected_free = 1 if name == "gen-piv" else 0
    if len(rec.free) != expected_free:
        return f"free factors {rec.free}, expected {expected_free}"
    if name in answers.PAPER_RELATIONS:
        paper = answers.PAPER_RELATIONS[name][0]
        if not rec.relations or not all(oracle.unit_multiple(r, paper) for r in rec.relations):
            return f"relations {[str(r) for r in rec.relations]} are not the paper's"
        fix = oracle.eliminate_relation(name)
    else:
        if rec.relations:
            return f"unexpected relations {[str(r) for r in rec.relations]}"
        fix = oracle.substitution(answers.PVI_NORMALIZATION)
    display = catalog.get_system(name).vf
    got = [oracle.sym(vf.dxdt), oracle.sym(vf.dydt)]
    want = [oracle.sym(display.dxdt), oracle.sym(display.dydt)]
    if name == "gen-piv":
        # the free overall factor a(t) is gauge-fixed by the x^3*y coefficient
        x, y = sympy.symbols("x y")
        num, den = sympy.fraction(sympy.cancel(got[0]))
        scale = sympy.Poly(num, x, y).coeff_monomial(x ** 3 * y) / den
        want = [w.xreplace({sympy.Symbol("a"): scale}) for w in want]
    for g, w, comp in zip(got, want, ("dx/dt", "dy/dt")):
        if not oracle.same(g, w, fix):
            return f"recovered {comp} differs from the paper's display"
    return None


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _probe(entry, bmap, seed):
    report = symmetry.verify_symmetry(entry.vf, bmap, "numeric-probe",
                                      relation=entry.relation,
                                      eigenvalue_syms=entry.eigenvalue_syms,
                                      draws=PROBE_DRAWS, seed=seed)
    involution = symmetry.verify_involution(bmap, entry.relation, entry.eigenvalue_syms)
    return report, involution


def _symbolic(entry, bmap):
    return symmetry.verify_symmetry(entry.vf, bmap, "symbolic", relation=entry.relation,
                                    eigenvalue_syms=entry.eigenvalue_syms)


def _match(pair):
    general, reference, params, _ = catalog.match_pair(pair)
    return general, reference, recovery.match_specialization(general, reference, params)


class Check(Workload):
    name = "check"

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        probe, symbolic = [], []
        for system in GENERALIZED:
            entry = catalog.get_system(system)
            for bmap in catalog.get_maps(system):
                # each map's draws depend on the run seed and the map only
                probe.append((f"probe {system} {bmap.name}", _probe,
                              (entry, bmap, seed * 1000 + len(probe))))
                if bmap.name != "pi3-verbatim":  # known fault: does not finish
                    symbolic.append((f"symbolic {system} {bmap.name}", _symbolic,
                                     (entry, bmap)))
        matches = [(f"match {pair}", _match, (pair,)) for pair in catalog.MATCH_PAIRS]
        for ops in (probe, symbolic, matches):
            rng.shuffle(ops)
        self.phases = [("symmetry_probe_s", probe),
                       ("symmetry_symbolic_s", symbolic),
                       ("match_s", matches)]

    def digest(self, label, result):
        kind = label.split(" ", 1)[0]
        if kind == "probe":
            report, involution = result
            return (report.invariant, report.draws, report.residual, involution)
        if kind == "symbolic":
            return (result.invariant, result.relation_required, result.residual)
        _, _, report = result
        return (report.found, sorted((k, str(v)) for k, v in report.param_map.items()))

    def check(self, outcomes):
        import oracle
        verdicts = {}
        for label, result in outcomes:
            kind, rest = label.split(" ", 1)
            if kind == "probe":
                report, involution = result
                want_inv, want_invol = answers.SYMMETRY_VERDICTS[tuple(rest.split(" "))]
                if report.invariant != want_inv or involution != want_invol:
                    verdicts[label] = (f"invariant={report.invariant} involution={involution}, "
                                       f"expected {want_inv}/{want_invol}")
                elif want_inv and report.draws != PROBE_DRAWS:
                    verdicts[label] = f"{report.draws} draws, expected {PROBE_DRAWS}"
                else:
                    verdicts[label] = None
            elif kind == "symbolic":
                verdicts[label] = None if result.invariant else "not invariant symbolically"
            else:
                verdicts[label] = _check_match(oracle, rest, *result)
        return verdicts


def _check_match(oracle, pair, general, reference, report):
    if not report.found:
        return "no correspondence found"
    mapping = {k: str(v) for k, v in report.param_map.items()}
    want = answers.PIV_CORRESPONDENCE
    if pair == "gen-piv:piv" and (set(mapping) != set(want) or not all(
            oracle.same(mapping[k], v) for k, v in want.items())):
        return f"map {mapping}, expected {want}"
    image = oracle.substitution(mapping)
    for g, r in zip(general.components(), reference.components()):
        if not oracle.same(g, oracle.sym(r).xreplace(image)):
            return "the reference with the found map substituted is not the general system"
    return None


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

CONSTRUCTIONS = {2: ("0,1", "2,2,2,2"), 3: ("0,1,2", "1,2,2,2,2")}


def _survey_commands() -> list[tuple[str, list[list[str]]]]:
    classify = []
    for rel in answers.NATURAL_TUPLES:
        classify.append(["classify", "--relation", rel])
        classify.append(["classify", "--relation", rel, "--integers",
                         "--bound", str(INTEGER_BOUND)])
    return [
        ("singular_s", [["singular", "--system", s] for s in answers.POINTS]),
        ("resolve", [["resolve", "--system", s, "--point", p] for s, p in answers.RESOLUTIONS]),
        ("alpha-test", [["alpha-test", "--system", s, "--point", p]
                        for s in ("pvi", "gen-pvi") for p in answers.POINTS[s]]),
        ("classify", classify),
        ("construct", [["construct", "--n", str(n), "--points", c, "--ratios", m]
                       for n, (c, m) in CONSTRUCTIONS.items()]),
        ("relation", [["relation", "--scheme", "pvi"]]),
    ]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Survey(Workload):
    name = "survey"

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        for phase, commands in _survey_commands():
            ops = [(" ".join(argv + ["--format", fmt]), _run_cli, (argv + ["--format", fmt],))
                   for argv in commands for fmt in FORMATS]
            rng.shuffle(ops)
            self.phases.append((phase, ops))

    def pass_phases(self, index):
        """Even passes print pretty, odd ones JSON: the same commands either way."""
        suffix = f"--format {FORMATS[index % len(FORMATS)]}"
        return [(phase, [op for op in ops if op[0].endswith(suffix)])
                for phase, ops in self.phases]

    def check(self, outcomes):
        import survey_checks
        return {label: survey_checks.check(label.split(" "), *result)
                for label, result in outcomes}


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def _gcd(a, b):
    return algebra.poly_gcd(a, b)


def _normalize(num, den):
    return algebra.MRat(num, den)


def _mul(a, b):
    return a * b


def _subs(target, values):
    return target.subs(values)


KERNEL_PHASES = (("gcd", "gcd_s", _gcd), ("normalize", "normalize_s", _normalize),
                 ("mul", "mul_s", _mul), ("subs", "subs_s", _subs))


class Kernel(Workload):
    name = "kernel"

    def __init__(self, seed: int):
        super().__init__()
        ops = corpus.load(corpus.PATH)
        rng = random.Random(seed)
        self.inputs = {}
        for kind, metric, fn in KERNEL_PHASES:
            entries = list(ops[kind])
            rng.shuffle(entries)
            labelled = [(f"{kind} {index}", fn, args) for index, args in entries]
            self.inputs.update({label: args for label, _, args in labelled})
            self.phases.append((metric, labelled))

    def digest(self, label, result):
        return result  # MPoly / MRat compare by value

    def check(self, outcomes):
        import oracle
        ring = oracle.RingOracle()
        verdicts = {}
        for label, result in outcomes:
            kind = label.split(" ", 1)[0]
            a, b = self.inputs[label]
            check = {"gcd": ring.check_gcd, "normalize": ring.check_normalize,
                     "mul": ring.check_mul, "subs": ring.check_subs}[kind]
            verdicts[label] = check(a, b, result)
        return verdicts


WORKLOADS = {w.name: w for w in (Recover, Check, Survey, Kernel)}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)

