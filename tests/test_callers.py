"""ROADMAP's north star: no public function or class that nothing calls."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fairpriv"
# The callers that count outside the package; the tests are not among them.
OUTSIDE = ("README.md", "perfbench/*.py", "bench/*.py", ".github/workflows/tests.yml")


def test_every_public_function_and_class_is_named_outside_its_definition():
    modules = {path: path.read_text().splitlines(keepends=True)
               for path in sorted(PACKAGE.rglob("*.py"))}
    outside = "".join(path.read_text() for pattern in OUTSIDE
                      for path in sorted(ROOT.glob(pattern)))
    uncalled = []
    for path, lines in modules.items():
        others = outside + "".join(line for p, ls in modules.items() if p != path for line in ls)
        for node in ast.parse("".join(lines)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                rest = "".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
                if not re.search(rf"\b{node.name}\b", others + rest):
                    uncalled.append(f"{path.relative_to(ROOT)}::{node.name}")
    assert uncalled == []
