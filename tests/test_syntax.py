"""Every Python file of the project parses as Python 3.10.

`pyproject.toml` declares `requires-python = ">=3.10"`. Parsing each file with
the 3.10 grammar makes syntax that needs a later version (an `except*`
clause, a `type` statement, generic parameters on a def) fail here, and not
first on a 3.10 interpreter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_every_tree_has_files():
    for d in ("src", "tests", "perfbench"):
        assert any(p.is_relative_to(ROOT / d) for p in FILES), d


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_with_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type Point = tuple[float, float]\n",
    "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",
])
def test_later_syntax_is_rejected(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
