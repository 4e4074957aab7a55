"""Benchmark of the grs exact pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a grs checkout; the package is imported from its
``src`` directory.  A run measures set-up in fresh interpreters, then runs
whole passes of the workload (recover, check, survey or kernel), at least
two and then more until the next pass would end after S seconds, checks
every result, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are reported at a fixed reference host speed: a reference loop runs
between operations and divides out the host's drift (``hostclock.py``).
With ``--trace 0`` the metrics are the end-to-end ones (set-up, pass time,
peak memory).  With ``--trace 1`` untraced and traced passes alternate,
and the metrics are the per-layer ones: self times and counts at each layer
boundary, the untraced time of each workload phase, the raw wall time of a
pass, and the tracing overhead (traced minus untraced pass time); the spans
are written to ``perfbench/out/``.  A traced run whose passes disagree on a
count is not correct.  ``--smoke`` runs two untraced and two traced passes
of every workload with every check on, and exits 1 if any check fails or
the traced counts do not repeat.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import checkout
from hostclock import HostClock

WORKLOADS = ("recover", "check", "survey", "kernel")
SETUP_SAMPLES = 9
SETUP_HOST_SAMPLES = 5  # host-speed samples before each set-up probe and after the last
MIN_PASSES = 2
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PHASES = ("recover_s", "relation_s", "symmetry_probe_s", "symmetry_symbolic_s", "match_s",
          "singular_s", "gcd_s", "normalize_s", "mul_s", "subs_s")


def per_layer_units() -> dict[str, str]:
    from tracer import metric_units
    units = metric_units()
    units.update({name: "s" for name in PHASES})
    units.update({"pass_wall_s": "s", "host.reference_loop_s": "s"})
    return units


def measure_setup(workload: str, clock: HostClock, samples: int = SETUP_SAMPLES) -> float:
    """Median time from a fresh interpreter's start to 'ready' (setup_probe.py),
    at the reference host speed."""
    times = []
    mark = clock.mark()
    for _ in range(samples):
        for _ in range(SETUP_HOST_SAMPLES):
            clock.sample()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(checkout.BENCH_DIR / "setup_probe.py"),
                               workload], stdout=subprocess.PIPE, text=True,
                              cwd=checkout.ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe for {workload} failed "
                             f"(exit {proc.returncode})")
        times.append(elapsed)
    for _ in range(SETUP_HOST_SAMPLES):
        clock.sample()
    return statistics.median(times) * clock.scale(mark)


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Ledger:
    """Results of every pass: each operation's first result is checked, and
    its later results must match it."""

    def __init__(self, workload):
        self.workload = workload
        self.passes = 0
        self.first = {}
        self.digests = {}
        self.runs: Counter = Counter()
        self.diverged: Counter = Counter()
        self.faults: list[str] = []

    def add(self, outcomes) -> None:
        self.passes += 1
        for label, result in outcomes:
            self.runs[label] += 1
            digest = (_failure(result) if isinstance(result, Exception)
                      else self.workload.digest(label, result))
            if label not in self.first:
                self.first[label], self.digests[label] = result, digest
            elif digest != self.digests[label]:
                self.diverged[label] += 1

    def fault(self, message: str) -> None:
        """A fault of the run as a whole; the run is then not correct."""
        self.faults.append(message)

    def verdict(self) -> tuple[bool, int, int, list[str]]:
        """(correct, attempted, failed, messages).

        An operation that raised counts as failed; one that returned a wrong
        answer, or a different answer in a later pass, counts as failed and
        makes the run incorrect.
        """
        errors = {label: _failure(r) for label, r in self.first.items()
                  if isinstance(r, Exception)}
        checked = self.workload.check([(label, r) for label, r in self.first.items()
                                       if label not in errors])
        wrong = {label: reason for label, reason in checked.items() if reason}
        bad = set(errors) | set(wrong)
        diverged = {label: n for label, n in self.diverged.items() if label not in bad}
        failed = sum(self.runs[label] for label in bad) + sum(diverged.values())
        messages = ([f"error {label}: {reason}" for label, reason in errors.items()]
                    + [f"wrong {label}: {reason}" for label, reason in wrong.items()]
                    + [f"diverged {label}: {n} later passes differ from the first"
                       for label, n in diverged.items()]
                    + self.faults)
        attempted = sum(self.runs.values())
        return not wrong and not diverged and not self.faults, attempted, failed, messages


def timed_pass(workload, ledger: Ledger, clock: HostClock) -> tuple[dict, float, float]:
    """One pass with the host sampled throughout.

    Returns the phase times and ``pass_s`` at the reference host speed, the
    pass's raw wall time, and the factor that turns a span time of the pass
    into a reference time: spans also hold the host samples taken inside
    them, in proportion to their length.
    """
    mark, spent = clock.mark(), clock.spent
    start = time.perf_counter()
    with clock.running():
        times, outcomes = workload.run_pass(clock)
    elapsed = time.perf_counter() - start
    sampling = clock.spent - spent
    clock.sample()  # at least one sample, however short the pass
    ledger.add(outcomes)
    wall = sum(times.values())
    scale = clock.scale(mark)
    scaled = {phase: t * scale for phase, t in times.items()}
    scaled["pass_s"] = wall * scale
    return scaled, wall, scale * (1 - sampling / elapsed)


def run_passes(workload, ledger: Ledger, seconds: float, clock: HostClock) -> list[float]:
    """At least MIN_PASSES whole passes, then more until the next one would
    end after ``seconds``; their ``pass_s``."""
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        times, wall, _ = timed_pass(workload, ledger, clock)
        passes.append(times["pass_s"])
        walls.append(wall)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + statistics.median(walls) > seconds):
            return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    clock = HostClock()
    setup_s = None if trace else measure_setup(name, clock)
    workload = workloads.build(name, seed)
    ledger = Ledger(workload)
    if not trace:
        passes = run_passes(workload, ledger, seconds, clock)
        values = {"pass_s": statistics.median(passes), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END
    else:
        values, units = trace_run(workload, ledger, seed, seconds, clock)
    correct, attempted, failed, messages = ledger.verdict()
    for line in messages[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def trace_run(workload, ledger, seed, seconds, clock):
    """Untraced and traced passes, alternating so that drift hits both alike;
    at least two of each, so that the traced counts can be compared."""
    from tracer import Tracer, median_summary
    tracer = Tracer()
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(timed_pass(workload, ledger, clock))
        tracer.install()
        try:
            first_span = tracer.begin_pass()
            times, wall, span_scale = timed_pass(workload, ledger, clock)
            self_s, counts = tracer.pass_summary(first_span)
        finally:
            tracer.uninstall()
        traced.append((times, wall, span_scale))
        summaries.append(({k: v * span_scale for k, v in self_s.items()}, counts))
        elapsed = time.perf_counter() - start
        if (len(traced) >= MIN_PASSES and elapsed + statistics.median(
                p[1] for p in plain) + statistics.median(p[1] for p in traced) > seconds):
            break
    checkout.OUT_DIR.mkdir(exist_ok=True)
    tracer.write(checkout.OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv")
    self_s, counts, repeat = median_summary(summaries)
    if not repeat:
        ledger.fault("counts differ between traced passes")

    def median(pairs, key):
        return statistics.median(times.get(key, 0.0) for times, _, _ in pairs)

    values = {**self_s, **counts,
              "trace.overhead_s": median(traced, "pass_s") - median(plain, "pass_s"),
              "pass_wall_s": statistics.median(wall for _, wall, _ in plain),
              "host.reference_loop_s": statistics.median(clock.samples)}
    for phase in PHASES:
        values[phase] = median(plain, phase)
    return values, per_layer_units()


def smoke() -> int:
    """Two untraced and two traced passes of every workload with every check
    on; 0 when all pass and the traced counts repeat."""
    import workloads
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    declared = ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]},
                [w["name"] for w in spec["workloads"]])
    ok = declared == (END_TO_END, per_layer_units(), list(WORKLOADS))
    if not ok:
        print("smoke: BENCHMARK.json does not list the metrics and workloads run.py reports")
    for name in WORKLOADS:
        clock = HostClock()
        setup_s = measure_setup(name, clock, samples=1)
        workload = workloads.build(name, 0)
        ledger = Ledger(workload)
        start = time.perf_counter()
        trace_run(workload, ledger, 0, 0, clock)
        elapsed = time.perf_counter() - start
        correct, attempted, failed, messages = ledger.verdict()
        ok = ok and correct and failed == 0
        print(f"smoke {name}: {attempted} operations, {failed} failed, "
              f"set-up {setup_s:.2f} s, passes {elapsed:.2f} s")
        for line in messages:
            print(f"  {line}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    checkout.import_grs()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
