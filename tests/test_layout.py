"""Layout rules over the package source."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grs"


def test_every_top_level_name_has_a_caller_outside_the_tests():
    """Each top-level function and class of the package is named somewhere
    in the package or the benchmark outside its own definition, so no code
    is kept alive by the tests alone."""
    package = sorted(PACKAGE.glob("*.py"))
    sources = {path: path.read_text().splitlines()
               for path in [*package, *sorted((ROOT / "perfbench").rglob("*.py"))]}
    unused = []
    for path in package:
        for node in ast.parse("\n".join(sources[path])).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line)
                       for other, lines in sources.items()
                       for number, line in enumerate(lines, 1)
                       if not (other == path and node.lineno <= number <= node.end_lineno)):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


def _calls(paths):
    """name -> the calls of that name (a plain or attribute call) in paths."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether the call gives the parameter a value: by position (None for a
    keyword-only parameter), by keyword, or through *args or **kwargs."""
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg in (None, name) for kw in call.keywords)
            or position is not None and len(call.args) > position)


def test_every_defaulted_parameter_is_set_outside_the_tests():
    """Each parameter with a default, of a top-level function of the package,
    is given a value at some call in the package or the benchmark, so no
    setting is kept alive by the tests alone."""
    package = sorted(PACKAGE.glob("*.py"))
    calls = _calls([*package, *sorted((ROOT / "perfbench").rglob("*.py"))])
    unset = []
    for path in package:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for position, name in defaulted:
                if not any(_sets(call, position, name) for call in calls.get(node.name, [])):
                    unset.append(f"{path.name}:{node.lineno} {node.name}({name})")
    assert unset == []
