"""Every public name under ``src/repro`` has a caller.

A public function, class, method or property that nothing references but
its own definition is dead weight: this test fails on one. References
are read from the syntax trees of the package, the tests, the examples,
the benchmarks and the scripts. A reference is a ``Name`` or an
``Attribute`` with the name, an import of it outside an ``__init__.py``,
or a ``"module:name"`` string (how a :class:`~repro.parallel.spec.Spec`
names the function it runs). An ``__all__`` entry or a re-export is not
a caller, nor is a docstring, a comment, or a definition of the same
name in another class. Names that merely collide with a referenced name
slip through; the test is a floor, not a proof.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "examples", "benchmarks", "scripts")
_SPEC = re.compile(r"^repro(?:\.\w+)+:(\w+)$")


def _public_defs(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.lineno


def _references(path: Path):
    """Every name ``path`` refers to, once per reference."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            spec = _SPEC.match(node.value)
            if spec:
                yield spec.group(1)


def test_every_public_name_has_a_caller():
    references = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            references.update(_references(path))
    uncalled = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, line in _public_defs(ast.parse(path.read_text()))
        if not references[name]
    ]
    assert not uncalled, "public names with no caller:\n" + "\n".join(uncalled)
