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
