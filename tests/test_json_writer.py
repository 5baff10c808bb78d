"""irrep._json_text against the stdlib: every document liecg writes, and
random nested documents, must come out as json.dumps(doc, indent=1) does,
byte for byte; what the stdlib would write differently is refused."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecg import cli
from liecg.irrep import _json_text, new_generic_irrep
from liecg.liealg import LieAlgebra, weyl_dim
from liecg.tensor import Decomposition, decompose, prepare


def reference(doc):
    return json.dumps(doc, indent=1)


@pytest.fixture
def written(monkeypatch):
    """The documents cli writes, recorded as they pass the writer."""
    docs = []

    def spy(doc):
        docs.append(doc)
        return _json_text(doc)

    monkeypatch.setattr(cli, "_json_text", spy)
    return docs


# ------------------------------------------------------ liecg's documents

FAMILIES = [LieAlgebra(f, n) for f, n in
            [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("E6", 6), ("E7", 7),
             ("E8", 8), ("F4", 4), ("G2", 2)]]


def fundamentals(la):
    """The fundamental weights of la whose irrep has at most 30380 states
    (E7 and E8 have larger ones)."""
    units = [tuple(int(i == j) for j in range(la.rank)) for i in range(la.rank)]
    return [hw for hw in units if weyl_dim(la, hw) <= 30380]


# with the E8 fundamentals 3875 and 30380, the 27000 completes the
# benchmark's three E8 anchors
WEIGHT_CASES = [(la, hw) for la in FAMILIES for hw in fundamentals(la)] + [
    (LieAlgebra("E8", 8), (0, 0, 0, 0, 0, 0, 2, 0))]


@pytest.mark.parametrize("la, hw", WEIGHT_CASES,
                         ids=[f"{la.family}-{''.join(map(str, hw))}"
                              for la, hw in WEIGHT_CASES])
def test_weight_listings(written, la, hw):
    text = cli.weights_to_json(la, hw)
    (doc,) = written
    assert len(doc["weights"]) > 1
    assert text == reference(doc)


PRODUCTS = [
    (LieAlgebra("A", 2), (1, 1), (1, 1)),  # SU(3) 8 x 8
    (LieAlgebra("G2", 2), (1, 0), (1, 0)),  # G2 7 x 7
    (LieAlgebra("D", 5), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0)),  # SO(10) 16 x 16bar
]


@pytest.mark.parametrize("la, a, b", PRODUCTS,
                         ids=["su3-8x8", "g2-7x7", "so10-16x16bar"])
def test_dumps_of_every_irrep(written, la, a, b):
    l, r = new_generic_irrep(la, a), new_generic_irrep(la, b)
    d = Decomposition(l, r)
    decompose(d)
    assert len(d.found) > 2
    for p in d.found:
        data = prepare(p, l, r)
        assert data.to_json() == reference(data.to_json_dict())
        text = cli.states_to_json(p, l, r)
        assert text == reference(written[-1])
        assert written[-1]["irrep"]["dim"] == p.dim


@pytest.mark.parametrize("argv", [["-su", "3", "--decompose", "11x11"],
                                  ["-g2", "--decompose", "10x10"],
                                  ["-e6", "--decompose", "100000x000010"]])
def test_decompose_document(written, capsys, argv):
    assert cli.main(argv + ["--format", "json"]) == 0
    (doc,) = written
    assert len(doc["irreps"]) > 2
    assert capsys.readouterr().out == reference(doc) + "\n"


# ------------------------------------------------------ random documents

TRICKY = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80 é€ \U0001f600\ud800'
texts = st.text(st.sampled_from(TRICKY)
                | st.characters(blacklist_categories=()), max_size=12)
ints = st.integers() | st.integers(min_value=2**64, max_value=2**200) \
    | st.integers(min_value=-2**200, max_value=-1)
documents = st.recursive(
    st.none() | ints | texts,
    lambda inner: st.lists(inner, max_size=6)
    | st.lists(ints, max_size=6)
    | st.dictionaries(texts, inner, max_size=6),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_random_documents(doc):
    assert _json_text(doc) == reference(doc)


def test_empty_containers_and_scalars():
    for doc in [[], {}, [[]], {"": {}}, None, "", -0, 2**70, [None, -1]]:
        assert _json_text(doc) == reference(doc)


@pytest.mark.parametrize("doc", [True, False, [1, True], {"a": [True]},
                                 1.5, [1.5], {1: 2}, {"a": {None: 1}},
                                 (1, 2), [1, (2,)]],
                         ids=repr)
def test_refuses_what_json_dumps_writes_otherwise(doc):
    # json.dumps writes true, 1.5, "1" as a key and a tuple as a list; this
    # writer raises rather than guess
    with pytest.raises(TypeError):
        _json_text(doc)
