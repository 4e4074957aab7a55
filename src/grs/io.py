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


def context_from_json(data: list[dict[str, str]], where: str = "symbols") -> Context:
    return Context(tuple(Sym(_get(d, "name", f"{where}[{i}]"), _get(d, "kind", f"{where}[{i}]"))
                         for i, d in enumerate(data)))


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
    doc = "vector field JSON"
    dxdt, dydt = _get(data, "dxdt", doc), _get(data, "dydt", doc)
    model_data = _get(data, "model", doc)
    twist = _get(model_data, "twist", f"{doc} model")
    if "symbols" in data:
        ctx = context_from_json(data["symbols"], f"{doc} symbols")
    else:
        ctx = _inferred_context([dxdt, dydt, *twist], data.get("params", ()))
    model = SurfaceModel(int(_get(model_data, "n", f"{doc} model")),
                         tuple(ctx.parse(g) for g in twist))
    return PlaneVectorField(ctx.parse(dxdt), ctx.parse(dydt), _get(data, "chart", doc), model)


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
    doc = "scheme JSON"
    model_data = _get(data, "model", doc)
    twist = _get(model_data, "twist", f"{doc} model")
    # (location, multiplicity, matrix, (map, point) or None) per spec
    fields = []
    for i, entry in enumerate(_get(data, "specs", doc)):
        where = f"{doc} specs[{i}]"
        spec = [_get(entry, name, where) for name in ("location", "multiplicity", "matrix")]
        resolved = entry.get("resolved")
        if resolved is not None:
            resolved = tuple(_get(resolved, name, f"{where} resolved")
                             for name in ("map", "point"))
        fields.append((*spec, resolved))
    if "symbols" in data:
        ctx = context_from_json(data["symbols"], f"{doc} symbols")
    else:
        texts = list(twist)
        for location, _, matrix, resolved in fields:
            texts.append(location)
            texts += [e for row in matrix for e in row]
            if resolved is not None:
                texts += list(resolved[0]) + list(resolved[1])
        ctx = _inferred_context(texts, data.get("params", ()))
    model = SurfaceModel(int(_get(model_data, "n", f"{doc} model")),
                         tuple(ctx.parse(g) for g in twist))
    specs = []
    for location, multiplicity, matrix, resolved in fields:
        loc = None if location == "inf" else ctx.parse(location)
        matrix = Mat2([[ctx.parse(e) for e in row] for row in matrix])
        if resolved is not None:
            resolved = ResolvedData(tuple(ctx.parse(m) for m in resolved[0]),
                                    tuple(ctx.parse(p) for p in resolved[1]))
        specs.append(SingularSpec(loc, int(multiplicity), matrix, resolved))
    return GRScheme(model, tuple(specs), tuple(data.get("params", ())),
                    tuple(data.get("eigenvalues", ())), data.get("name", ""))


def _get(obj: Any, name: str, where: str) -> Any:
    """Field ``name`` of a JSON object; a ValueError names a missing one and where."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    if name not in obj:
        raise ValueError(f"{where} has no field {name!r}")
    return obj[name]


def dumps(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def loads(text: str) -> Any:
    return json.loads(text)
