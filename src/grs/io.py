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


def context_from_json(data: list[dict[str, str]], where: str) -> Context:
    return Context(tuple(Sym(_get(d, "name", f"{where}[{i}]", str),
                             _get(d, "kind", f"{where}[{i}]", str))
                         for i, d in enumerate(data)))


def vf_to_json(vf: PlaneVectorField) -> dict[str, Any]:
    return {
        "chart": vf.chart,
        "model": {"n": vf.model.n,
                  "twist": [str(g) for g in vf.model.twist]},
        "symbols": context_to_json(vf.ctx),
        "dxdt": str(vf.dxdt),
        "dydt": str(vf.dydt),
    }


def vf_from_json(data: dict[str, Any]) -> PlaneVectorField:
    doc = "vector field JSON"
    dxdt, dydt = _get(data, "dxdt", doc, str), _get(data, "dydt", doc, str)
    model_data = _get(data, "model", doc, dict)
    twist = _get(model_data, "twist", f"{doc} model", [str])
    symbols = _get(data, "symbols", doc, list, None)
    if symbols is not None:
        ctx = context_from_json(symbols, f"{doc} symbols")
    else:
        ctx = _inferred_context([dxdt, dydt, *twist], _get(data, "params", doc, [str], ()))
    model = SurfaceModel(_get(model_data, "n", f"{doc} model", int),
                         tuple(ctx.parse(g) for g in twist))
    return PlaneVectorField(ctx.parse(dxdt), ctx.parse(dydt), _get(data, "chart", doc, str),
                            model)


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
    model_data = _get(data, "model", doc, dict)
    twist = _get(model_data, "twist", f"{doc} model", [str])
    params = _get(data, "params", doc, [str], ())
    eigenvalues = _get(data, "eigenvalues", doc, [str], ())
    # (location, multiplicity, matrix, (map, point) or None) per spec
    fields = []
    for i, entry in enumerate(_get(data, "specs", doc, list)):
        where = f"{doc} specs[{i}]"
        spec = [_get(entry, name, where, kind) for name, kind
                in (("location", str), ("multiplicity", int), ("matrix", [[str]]))]
        resolved = _get(entry, "resolved", where, dict, None)
        if resolved is not None:
            resolved = tuple(_get(resolved, name, f"{where} resolved", [str])
                             for name in ("map", "point"))
        fields.append((*spec, resolved))
    symbols = _get(data, "symbols", doc, list, None)
    if symbols is not None:
        ctx = context_from_json(symbols, f"{doc} symbols")
    else:
        texts = list(twist)
        for location, _, matrix, resolved in fields:
            texts.append(location)
            texts += [e for row in matrix for e in row]
            if resolved is not None:
                texts += list(resolved[0]) + list(resolved[1])
        ctx = _inferred_context(texts, params)
    model = SurfaceModel(_get(model_data, "n", f"{doc} model", int),
                         tuple(ctx.parse(g) for g in twist))
    specs = []
    for location, multiplicity, matrix, resolved in fields:
        loc = None if location == "inf" else ctx.parse(location)
        matrix = Mat2([[ctx.parse(e) for e in row] for row in matrix])
        if resolved is not None:
            resolved = ResolvedData(tuple(ctx.parse(m) for m in resolved[0]),
                                    tuple(ctx.parse(p) for p in resolved[1]))
        specs.append(SingularSpec(loc, multiplicity, matrix, resolved))
    return GRScheme(model, tuple(specs), tuple(params), tuple(eigenvalues),
                    _get(data, "name", doc, str, ""))


_REQUIRED = object()


def _get(obj: Any, name: str, where: str, kind: Any, default: Any = _REQUIRED) -> Any:
    """Field ``name`` of a JSON object, of the JSON type ``kind``.

    ``kind`` is str, int, list or dict, or [k] for a list whose every item
    is of kind k.  A field that is absent gives ``default``; without one, a
    ValueError names the missing field and where, as it does a field of
    another type.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    if name not in obj:
        if default is _REQUIRED:
            raise ValueError(f"{where} has no field {name!r}")
        return default
    if not _is_kind(obj[name], kind):
        raise ValueError(f"{where} field {name!r} is not {_kind_name(kind)}")
    return obj[name]


def _is_kind(value: Any, kind: Any) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_is_kind(v, kind[0]) for v in value)
    # JSON true and false are not integers
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _kind_name(kind: Any, plural: bool = False) -> str:
    if isinstance(kind, list):
        return ("lists" if plural else "a list") + " of " + _kind_name(kind[0], True)
    name = {str: "string", int: "integer", list: "list", dict: "JSON object"}[kind]
    return name + "s" if plural else ("an " if name[0] == "i" else "a ") + name


def dumps(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def loads(text: str) -> Any:
    return json.loads(text)
