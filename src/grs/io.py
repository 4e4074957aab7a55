"""JSON serialization for vector fields and schemes.

All numbers are strings of exact rationals ("3/2"); polynomials and
rational functions are canonical text (graded-lex order, explicit * and ^)
re-parseable by the expression parser, so every value round-trips exactly.

Writers emit an explicit ``symbols`` table; readers accept files without
one and infer the context from the identifiers that occur (x, y are the
fiber variables, t the time, everything else a parameter).
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterable

from .algebra import Context, Mat2, Sym
from .recovery import GRScheme, ResolvedData, SingularSpec
from .surface import PlaneVectorField, SurfaceModel

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _inferred_context(texts: Iterable[str], declared: Iterable[str]) -> Context:
    names: list[str] = list(declared)
    for text in texts:
        for name in _IDENT.findall(text):
            if name not in names:
                names.append(name)
    params = [n for n in names if n not in ("x", "y", "t", "inf")]
    return Context.make(parameters=params)


def context_to_json(ctx: Context) -> list[dict[str, str]]:
    return [{"name": s.name, "kind": s.kind} for s in ctx.syms]


def context_from_json(data: list[dict[str, str]]) -> Context:
    return Context(tuple(Sym(d["name"], d["kind"]) for d in data))


def vf_to_json(vf: PlaneVectorField) -> dict[str, Any]:
    return {
        "chart": vf.chart,
        "model": {"n": vf.model.n,
                  "twist": [str(g) for g in vf.model.twist_in(vf.ctx)]},
        "symbols": context_to_json(vf.ctx),
        "dxdt": str(vf.dxdt),
        "dydt": str(vf.dydt),
    }


def vf_from_json(data: dict[str, Any]) -> PlaneVectorField:
    if "symbols" in data:
        ctx = context_from_json(data["symbols"])
    else:
        texts = [data["dxdt"], data["dydt"], *data["model"]["twist"]]
        ctx = _inferred_context(texts, data.get("params", ()))
    model = SurfaceModel(int(data["model"]["n"]),
                         tuple(ctx.parse(g) for g in data["model"]["twist"]))
    return PlaneVectorField(ctx.parse(data["dxdt"]), ctx.parse(data["dydt"]),
                            data["chart"], model)


def scheme_to_json(scheme: GRScheme) -> dict[str, Any]:
    ctx = scheme.specs[0].matrix[0, 0].ctx
    specs = []
    for s in scheme.specs:
        entry: dict[str, Any] = {
            "location": "inf" if s.location is None else str(s.location),
            "multiplicity": s.multiplicity,
            "matrix": [[str(s.matrix[i, j]) for j in range(2)] for i in range(2)],
        }
        if s.resolved is not None:
            entry["resolved"] = {
                "map": [str(m) for m in s.resolved.patch_map],
                "point": [str(p) for p in s.resolved.point],
            }
        specs.append(entry)
    return {
        "model": {"n": scheme.model.n,
                  "twist": [str(g) for g in scheme.model.twist]},
        "symbols": context_to_json(ctx),
        "params": list(scheme.params),
        "eigenvalues": list(scheme.eigenvalue_syms),
        "name": scheme.name,
        "specs": specs,
    }


def scheme_from_json(data: dict[str, Any]) -> GRScheme:
    if "symbols" in data:
        ctx = context_from_json(data["symbols"])
    else:
        texts = list(data["model"]["twist"])
        for entry in data["specs"]:
            texts.append(entry["location"])
            texts += [e for row in entry["matrix"] for e in row]
            if entry.get("resolved"):
                texts += list(entry["resolved"]["map"]) + list(entry["resolved"]["point"])
        ctx = _inferred_context(texts, data.get("params", ()))
    model = SurfaceModel(int(data["model"]["n"]),
                         tuple(ctx.parse(g) for g in data["model"]["twist"]))
    specs = []
    for entry in data["specs"]:
        loc = None if entry["location"] == "inf" else ctx.parse(entry["location"])
        matrix = Mat2([[ctx.parse(e) for e in row] for row in entry["matrix"]])
        resolved = None
        if "resolved" in entry and entry["resolved"] is not None:
            resolved = ResolvedData(
                tuple(ctx.parse(m) for m in entry["resolved"]["map"]),
                tuple(ctx.parse(p) for p in entry["resolved"]["point"]))
        specs.append(SingularSpec(loc, int(entry["multiplicity"]), matrix, resolved))
    return GRScheme(model, tuple(specs), tuple(data.get("params", ())),
                    tuple(data.get("eigenvalues", ())), data.get("name", ""))


def dumps(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def loads(text: str) -> Any:
    return json.loads(text)
