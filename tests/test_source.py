"""Rules the package source itself must follow."""

import ast
from pathlib import Path

import pytest

import tgaug

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tgaug"


def test_public_names_resolve():
    # a name left in __all__ after its definition goes breaks `from tgaug import *`
    assert len(set(tgaug.__all__)) == len(tgaug.__all__)
    missing = [name for name in tgaug.__all__ if not hasattr(tgaug, name)]
    assert not missing, f"tgaug.__all__ names undefined attributes {missing}"
    exec("from tgaug import *", {})


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so a check written as one silently vanishes
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}; raise an exception instead"
