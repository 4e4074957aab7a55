"""The frozen kernel corpus: canonical text form of captured algebra operations.

The file is JSON lines.  The first line lists the symbol contexts, each as
``[[name, kind], ...]``.  Every further line is one operation::

    {"args": [P, P], "ctx": 0, "kind": "gcd"}          poly_gcd(a, b)
    {"args": [P, P], "ctx": 0, "kind": "normalize"}    MRat(num, den)
    {"args": [P, P], "ctx": 0, "kind": "mul"}          a * b on MPoly
    {"args": [P, P|null], "ctx": 0, "kind": "subs",
     "values": {"name": [P, P], ...}}                 (num/den).subs(values),
                                                      or num.subs(values)
                                                      when den is null

A polynomial P is a list of terms ``["<rational>", [[symbol index, exponent],
...]]`` in descending graded-lex order of the exponent vector, so equal
polynomials always have the same text.
"""

from __future__ import annotations

import json
from fractions import Fraction

from checkout import BENCH_DIR

KINDS = ("gcd", "normalize", "mul", "subs")
PATH = BENCH_DIR / "corpus" / "kernel.jsonl"


def _grlex_desc(item):
    exp = item[0]
    return (sum(exp), exp)


def encode_poly(p) -> list:
    terms = sorted(p.terms.items(), key=_grlex_desc, reverse=True)
    return [[str(c), [[i, e] for i, e in enumerate(exp) if e]] for exp, c in terms]


def decode_poly(ctx, data):
    from grs.algebra import MPoly
    width = len(ctx)
    terms = {}
    for coeff, sparse in data:
        exp = [0] * width
        for i, e in sparse:
            exp[i] = e
        terms[tuple(exp)] = Fraction(coeff)
    return MPoly(ctx, terms)


def dump_lines(contexts, ops) -> str:
    """Canonical corpus text for a list of context tuples and encoded ops."""
    dumps = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))  # noqa: E731
    lines = [dumps({"contexts": [list(map(list, c)) for c in contexts]})]
    lines += [dumps(op) for op in ops]
    return "\n".join(lines) + "\n"


def load(path):
    """Parse the corpus, grouped by kind: {kind: [(line index, args), ...]}.

    ``args`` are (a, b) for gcd, normalize and mul, and (target, values) for
    subs, where target is an MRat, or an MPoly when the captured call was
    MPoly.subs.
    """
    from grs.algebra import Context, MRat, Sym
    with open(path) as fh:
        header = json.loads(fh.readline())
        contexts = [Context(tuple(Sym(n, k) for n, k in c)) for c in header["contexts"]]
        ops = {kind: [] for kind in KINDS}
        for index, line in enumerate(fh):
            op = json.loads(line)
            ctx = contexts[op["ctx"]]
            kind = op["kind"]
            if kind not in ops:
                raise ValueError(f"{path}: line {index + 2}: unknown kind {kind!r}")
            a = decode_poly(ctx, op["args"][0])
            b = None if op["args"][1] is None else decode_poly(ctx, op["args"][1])
            if kind == "subs":
                values = {name: MRat(decode_poly(ctx, n), decode_poly(ctx, d), _normalized=True)
                          for name, (n, d) in op["values"].items()}
                target = a if b is None else MRat(a, b, _normalized=True)
                ops[kind].append((index, (target, values)))
            else:
                ops[kind].append((index, (a, b)))
    return ops
