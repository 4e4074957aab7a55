"""Capture the kernel corpus from the recover and check workloads.

    python3 perfbench/capture.py [--output PATH]

Runs one pass of the ``recover`` and ``check`` workloads (seed 0) with the
algebra entry points wrapped, and writes the operations they request as the
canonical corpus text described in ``corpus.py``:

* ``gcd``: top-level ``poly_gcd`` calls (not nested in another gcd);
* ``normalize``: ``MRat`` normalizations (``_normalize_pair`` calls);
* ``mul``: ``MPoly`` products made outside every other captured operation;
* ``subs``: top-level ``MRat.subs`` / ``MPoly.subs`` calls.

Of each kind it keeps every STRIDE-th call plus the LARGEST calls by
operand terms, then drops repeated operations.  Nothing depends on the
clock or on hash order, so two runs write byte-identical files.
"""

from __future__ import annotations

import argparse
import heapq
from collections import Counter
from pathlib import Path

import checkout
from hostclock import HostClock

CAPTURE_SEED = 0
STRIDE = {"gcd": 12, "normalize": 60, "mul": 20, "subs": 25}
LARGEST = 4


def _size(kind, args) -> int:
    first, second = args
    if kind == "subs":
        target = first
        terms = len(target.terms) if hasattr(target, "terms") else (
            len(target.num.terms) + len(target.den.terms))
        return terms + sum(len(v.num.terms) + len(v.den.terms) for v in second.values())
    return len(first.terms) + len(second.terms)


class Recorder:
    """Wraps the kernel entry points and samples the calls they receive."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.active: Counter = Counter()
        self.sampled = {kind: [] for kind in STRIDE}
        self.largest = {kind: [] for kind in STRIDE}
        self._undo = []

    def install(self):
        from grs import algebra
        from tracer import replace_everywhere
        for name, kind in (("poly_gcd", "gcd"), ("_normalize_pair", "normalize")):
            original = getattr(algebra, name)
            wrapper = self._wrap(original, kind)
            replace_everywhere(original, wrapper)
            self._undo.append(lambda o=original, w=wrapper: replace_everywhere(w, o))
        for owner, attr, kind in ((algebra.MPoly, "__mul__", "mul"),
                                  (algebra.MPoly, "subs", "subs"),
                                  (algebra.MRat, "subs", "subs")):
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, kind))
            self._undo.append(lambda c=owner, a=attr, o=original: setattr(c, a, o))

    def uninstall(self):
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def _wrap(self, fn, kind):
        active = self.active

        def wrapper(first, second):
            if active[kind] == 0 and (kind != "mul" or not any(active.values())):
                self._record(kind, (first, dict(second) if kind == "subs" else second))
            active[kind] += 1
            try:
                return fn(first, second)
            finally:
                active[kind] -= 1
        return wrapper

    def _record(self, kind, args):
        position = self.calls[kind]
        self.calls[kind] += 1
        if position % STRIDE[kind] == 0:
            self.sampled[kind].append((position, args))
        # keep the LARGEST biggest calls; on equal size the earliest wins
        item = (_size(kind, args), -position, args)
        heap = self.largest[kind]
        if len(heap) < LARGEST:
            heapq.heappush(heap, item)
        elif item[:2] > heap[0][:2]:
            heapq.heapreplace(heap, item)

    def corpus_text(self) -> str:
        from corpus import KINDS, dump_lines, encode_poly
        contexts: dict = {}
        ops, seen = [], set()
        for kind in KINDS:
            chosen = dict(self.sampled[kind])
            chosen.update({-neg: args for _, neg, args in self.largest[kind]})
            for position in sorted(chosen):
                first, second = chosen[position]
                ctx = first.ctx
                if kind == "subs":
                    if any(v.ctx != ctx for v in second.values()):
                        raise ValueError("subs values live in another context")
                    target = ([encode_poly(first.num), encode_poly(first.den)]
                              if hasattr(first, "num") else [encode_poly(first), None])
                    op = {"kind": kind, "args": target,
                          "values": {k: [encode_poly(v.num), encode_poly(v.den)]
                                     for k, v in second.items()}}
                else:
                    op = {"kind": kind, "args": [encode_poly(first), encode_poly(second)]}
                key = tuple((s.name, s.kind) for s in ctx.syms)
                op["ctx"] = contexts.setdefault(key, len(contexts))
                text = repr(sorted(op.items()))
                if text not in seen:
                    seen.add(text)
                    ops.append(op)
        return dump_lines(list(contexts), ops)


def capture(seed: int = CAPTURE_SEED) -> str:
    checkout.import_grs()
    import workloads
    recorder = Recorder()
    recorder.install()
    try:
        for workload in (workloads.Recover(seed), workloads.Check(seed)):
            workload.run_pass(HostClock())  # never started: no host samples
    finally:
        recorder.uninstall()
    return recorder.corpus_text()


def main(argv=None) -> int:
    from corpus import PATH
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=PATH)
    args = parser.parse_args(argv)
    text = capture()
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(text)
    lines = text.count("\n") - 1
    print(f"wrote {lines} operations ({len(text)} bytes) to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
