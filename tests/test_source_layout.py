"""Source layout checks on src/liecg, read with ast so nothing is run."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "liecg"


def top_level_names(path):
    """Names of the functions and classes a module defines at top level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def test_no_name_defined_in_two_modules():
    # a helper written out twice drifts apart; import one copy instead
    where = {}
    for path in sorted(SRC.glob("*.py")):
        for name in top_level_names(path):
            where.setdefault(name, []).append(path.name)
    assert len(where) > 100
    assert {name: mods for name, mods in where.items() if len(mods) > 1} == {}
