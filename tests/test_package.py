"""The package namespace: the names `from liecg import *` exports, and
the test dependencies CI installs."""

import re
from pathlib import Path

import pytest

import liecg

ROOT = Path(__file__).resolve().parents[1]

# the exported set when __all__ was still a hand-kept list, less
# UnsupportedIrrepError and scp_zero_weights, which left with the
# refusal of degenerate irreps and the hand-derived adjoint builder, and
# SqrtSum, which was folded into FieldElem
EXPORTED = {
    "ConsistencyError", "Decomposition", "DecompositionError", "FieldElem",
    "FieldSqrtError", "ImportedIrrepData", "InvalidImportError", "Irrep",
    "Ket", "LabeledVector", "LieAlgebra", "ONE", "ProductIrrep",
    "TensorNode", "WeightRecord", "ZERO",
    "adjoint_hw", "basis_product", "cartan", "chbasis", "chbasis_list",
    "check_dims", "comm", "complete_descent", "decompose", "descend_irrep",
    "e_lower", "expand", "field", "field_sqrt", "filter_factor",
    "freudenthal", "highest_root", "is_sym", "level_vector", "lower",
    "lowest_root_label", "new_generic_irrep", "new_imported_irrep", "number",
    "otimes", "parse_field", "positive_roots", "prepare",
    "prepare_with_states", "product_lower", "product_scp", "product_weight",
    "render_states", "result", "root_weights", "scalar_product",
    "scalar_products", "scale", "scp", "tensor_coeff",
    "tree_leaves", "tree_str", "untree", "weyl_dim", "wrap",
}


def test_exported_names_frozen():
    assert len(liecg.__all__) == len(set(liecg.__all__))
    assert set(liecg.__all__) == EXPORTED


def test_exported_names_resolve():
    ns = {}
    exec("from liecg import *", ns)
    assert EXPORTED <= set(ns)
    for name in EXPORTED:
        assert ns[name] is getattr(liecg, name)


def test_ci_installs_the_test_extra():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    installs = re.findall(r"pip install (.+)$", workflow, re.M)
    # the test extra for the suite, then the package itself (it has no
    # dependencies) for the smoke test of the installed `lie` script
    assert [set(line.split()) for line in installs] == [set(extra), {"."}]
