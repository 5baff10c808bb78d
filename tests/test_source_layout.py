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


# the descent, the search, prepare and the dumps run on integer states; the
# FieldElem façade (the views, product_lower, product_scp) converts at its
# own edges and never inside them
INTEGER_CORE = ("descend_irrep", "decompose", "prepare_with_states",
                "_state_terms", "render_states", "_render_chunks")
FACADE = {"FieldElem", "LabeledVector", "_split", "parse_field"}


def names_in(node):
    """Every name and attribute a piece of code reads or writes."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_integer_core_never_names_the_field_facade():
    path = SRC / "tensor.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    assert set(INTEGER_CORE) <= funcs.keys()
    assert {name: names_in(funcs[name]) & FACADE
            for name in INTEGER_CORE} == {name: set() for name in INTEGER_CORE}


def test_no_module_calls_json_dumps():
    # every JSON document is written by irrep._json_chunks, the one writer
    # that gives json.dumps(indent=1)'s text without the pure-Python encoder;
    # json.loads stays
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"):
                found.append((path.name, node.lineno))
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [(path.name, node.lineno) for alias in node.names
                          if alias.name in ("dump", "dumps")]
    assert found == []
