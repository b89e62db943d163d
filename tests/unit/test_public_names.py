"""Every public name under ``src/repro`` has a caller.

A public function, class, method or property that nothing references but
its own definition is dead weight: this test fails on one. A reference is
any occurrence of the name as a word in the package, the tests, the
examples, the benchmarks or the scripts, outside ``__all__`` lists (an
export is not a caller). Names that merely collide with a word used
elsewhere slip through; the test is a floor, not a proof.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "examples", "benchmarks", "scripts")
_ALL = re.compile(r"^__all__\s*=\s*\[.*?\]", re.S | re.M)
_WORD = re.compile(r"\w+")


def _public_defs(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.lineno


def test_every_public_name_has_a_caller():
    words = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(_WORD.findall(_ALL.sub("", path.read_text())))
    uncalled = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, line in _public_defs(ast.parse(path.read_text()))
        if words[name] < 2
    ]
    assert not uncalled, "public names with no caller:\n" + "\n".join(uncalled)
