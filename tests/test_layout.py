"""Layout rules over the package source.

Every rule counts the code in ``src/grs`` and ``perfbench`` only, so a name,
a setting or a member that only the tests reach fails it:

- each top-level function and class is named outside its own definition;
- each parameter with a default, of a top-level function or a method (its
  ``self`` or ``cls`` not counted, ``__init__`` matched by the class name),
  and each dataclass field with a default that the constructor takes, is
  set by some call and left to its default by some other;
- each method, property and dataclass field whose name is not a dunder is
  read outside its own definition, by attribute or by a string name.
"""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "grs").glob("*.py"))
CALLERS = [*PACKAGE, *sorted((ROOT / "perfbench").rglob("*.py"))]
TREES = {path: ast.parse(path.read_text()) for path in CALLERS}


def test_every_top_level_name_has_a_caller_outside_the_tests():
    """Each top-level function and class of the package is named somewhere
    in the package or the benchmark outside its own definition, so no code
    is kept alive by the tests alone."""
    sources = {path: path.read_text().splitlines() for path in CALLERS}
    unused = []
    for path in PACKAGE:
        for node in TREES[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line)
                       for other, lines in sources.items()
                       for number, line in enumerate(lines, 1)
                       if not (other == path and node.lineno <= number <= node.end_lineno)):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


def _calls():
    """name -> the calls of that name (a plain or attribute call)."""
    calls = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
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


def _decorators(node) -> set[str]:
    return {getattr(d, "id", getattr(d, "attr", None))
            for d in (getattr(d, "func", d) for d in node.decorator_list)}


def _fields(cls: ast.ClassDef) -> list[tuple[ast.AnnAssign, bool]]:
    """Each field of a dataclass, with whether its constructor takes it."""
    if "dataclass" not in _decorators(cls):
        return []
    fields = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            value = node.value
            init = not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                        and any(kw.arg == "init" and getattr(kw.value, "value", True) is False
                                for kw in value.keywords))
            fields.append((node, init))
    return fields


def _defaulted():
    """(where, callee name, [(position or None, parameter)]) for each
    function, method and dataclass of the package with a defaulted
    parameter or field; positions count what a caller passes."""
    found = []
    for path in PACKAGE:
        tree = TREES[path]
        owners = [(None, tree.body)] + [(node, node.body) for node in tree.body
                                        if isinstance(node, ast.ClassDef)]
        for cls, body in owners:
            if cls is not None:
                taken = [node for node, init in _fields(cls) if init]
                found.append((f"{path.name}:{cls.lineno} {cls.name}", cls.name,
                              [(i, node.target.id) for i, node in enumerate(taken)
                               if node.value is not None]))
            for node in body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                skip = cls is not None and "staticmethod" not in _decorators(node)
                first = len(positional) - len(args.defaults)
                defaulted = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
                defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                name = cls.name if cls is not None and node.name == "__init__" else node.name
                owner = f"{cls.name}." if cls is not None else ""
                found.append((f"{path.name}:{node.lineno} {owner}{node.name}", name, defaulted))
    return found


def test_every_defaulted_parameter_is_set_outside_the_tests():
    """Each parameter with a default, of a function or method of the
    package, and each dataclass field with a default, is given a value at
    some call in the package or the benchmark and left to its default at
    another.  A default no call overrides is a setting only tests make; a
    default every call overrides is a branch only tests reach."""
    calls = _calls()
    flagged = []
    for where, callee, defaulted in _defaulted():
        for position, name in defaulted:
            sets = [_sets(call, position, name) for call in calls.get(callee, [])]
            if not any(sets):
                flagged.append(f"{where}({name}): never set")
            elif all(sets):
                flagged.append(f"{where}({name}): always set")
    assert flagged == []


def test_every_member_is_read_outside_the_tests():
    """Each method, property and dataclass field of the package whose name
    is not a dunder is read in the package or the benchmark outside its
    own definition, by attribute access or by a string name."""
    reads = {}
    for path, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                reads.setdefault(node.attr, []).append((path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.setdefault(node.value, []).append((path, node.lineno))
    unread = []
    for path in PACKAGE:
        for cls in TREES[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            members = [(node.name, node) for node in cls.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            members += [(node.target.id, node) for node, _ in _fields(cls)]
            for name, node in members:
                if name.startswith("__") and name.endswith("__"):
                    continue
                if not any(other != path or not node.lineno <= line <= node.end_lineno
                           for other, line in reads.get(name, [])):
                    unread.append(f"{path.name}:{node.lineno} {cls.name}.{name}")
    assert unread == []


def test_the_benchmark_tracer_installs_and_uninstalls_in_process():
    """The benchmark's tracer rebinds package names by hand, so a name it
    wraps that is deleted or moved would fail only a benchmark run.  Here it
    installs, wraps, and gives every original back; and the two arguments
    it reads by position are still where it reads them."""
    import grs.cli  # noqa: F401 - the tracer looks up every module on the package
    from grs import algebra, surface, symmetry
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = (algebra.poly_gcd, symmetry.draw_parameters, algebra.MPoly.__mul__)
    run = tracer.Tracer()
    run.install()
    try:
        wrapped = (algebra.poly_gcd, symmetry.draw_parameters, algebra.MPoly.__mul__)
    finally:
        run.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert (algebra.poly_gcd, symmetry.draw_parameters, algebra.MPoly.__mul__) == originals
    assert list(inspect.signature(symmetry.verify_symmetry).parameters)[2] == "mode"
    assert list(inspect.signature(surface.chart_transform).parameters)[1] == "target"
