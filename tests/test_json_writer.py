"""irrep._json_chunks against the stdlib: every document liecg writes, and
random nested documents, must come out as json.dumps(doc, indent=1) does,
byte for byte, with each list given as a list or as an iterator; what the
stdlib would write differently is refused."""

import json
from collections.abc import Iterator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liecg import cli
from liecg.exactnum import FieldElem
from liecg.irrep import (
    ImportedIrrepData,
    _json_chunks,
    new_generic_irrep,
    new_imported_irrep,
)
from liecg.liealg import LieAlgebra, weyl_dim
from liecg.tensor import Decomposition, decompose, prepare


def reference(doc):
    return json.dumps(doc, indent=1)


def text(doc):
    return "".join(_json_chunks(doc))


def tap(x):
    """(x to write, x as written): in the first every iterator of x is
    replaced by one that also appends what it yields to a list, which takes
    its place in the second."""
    if type(x) is dict:
        pairs = {k: tap(v) for k, v in x.items()}
        return ({k: fed for k, (fed, _) in pairs.items()},
                {k: seen for k, (_, seen) in pairs.items()})
    if isinstance(x, Iterator):
        seen = []

        def fed():
            for v in x:
                seen.append(v)
                yield v

        return fed(), seen
    return x, x


def iterated(x):
    """x with every list outside any list given as an iterator."""
    if type(x) is dict:
        return {k: iterated(v) for k, v in x.items()}
    if type(x) is list:
        return iter(x)
    return x


@pytest.fixture
def written(monkeypatch):
    """The documents cli writes, recorded as they pass the writer, each
    with the lists its iterators yielded."""
    docs = []

    def spy(doc):
        fed, seen = tap(doc)
        docs.append(seen)
        return _json_chunks(fed)

    monkeypatch.setattr(cli, "_json_chunks", spy)
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
def test_weight_listings(la, hw):
    # the records are filled into one format each, past the writer: the
    # text is checked against the stdlib on the document it reads as
    text = cli.weights_to_json(la, hw)
    doc = json.loads(text)
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
        fed, seen = tap(data.json_doc())
        assert text(fed) == reference(seen) == data.to_json()
        assert len(seen["kets"]) == p.dim
        states = cli.states_to_json(p, l, r)
        assert states == reference(written[-1])
        assert len(written[-1]["states"]) == written[-1]["irrep"]["dim"] == p.dim


@pytest.mark.parametrize("argv", [["-su", "3", "--decompose", "11x11"],
                                  ["-g2", "--decompose", "10x10"],
                                  ["-e6", "--decompose", "100000x000010"]])
def test_decompose_document(written, capsys, argv):
    assert cli.main(argv + ["--format", "json"]) == 0
    (doc,) = written
    assert len(doc["irreps"]) > 2
    assert capsys.readouterr().out == reference(doc) + "\n"


@pytest.mark.parametrize("argv", [["-su", "3", "--decompose", "11x11"],
                                  ["-g2", "--decompose", "10x10"]],
                         ids=["su3-8x8", "g2-7x7"])
def test_dumped_documents(written, capsys, tmp_path, argv):
    # the result on stdout, then irrep_k.json and states_k.json of every
    # irrep in turn, then the singlet
    singlet = tmp_path / "singlet.json"
    assert cli.main(argv + ["--format", "json", "--dump", str(tmp_path),
                            "--dump-singlet", str(singlet)]) == 0
    doc, *dumps, last = written
    assert capsys.readouterr().out == reference(doc) + "\n"
    assert len(dumps) == 2 * len(doc["irreps"]) > 4
    for k, p in enumerate(doc["irreps"], 1):
        irrep, states = dumps[2 * k - 2:2 * k]
        assert len(irrep["kets"]) == len(states["states"]) == p["dim"]
        assert (tmp_path / f"irrep_{k}.json").read_text() == reference(irrep)
        assert (tmp_path / f"states_{k}.json").read_text() == (
            reference(states) + "\n")
    assert last["irrep"]["dim"] == 1
    assert singlet.read_text() == reference(last) + "\n"


def imported_27():
    """The SU(3) 27 read back from the text of its dump out of 8 x 8."""
    la = LieAlgebra("A", 2)
    oc = new_generic_irrep(la, (1, 1))
    d = Decomposition(oc, oc)
    decompose(d)
    text = prepare(d.found[0], oc, oc).to_json()
    return new_imported_irrep(la, ImportedIrrepData.from_json(text))


FORM_PRODUCTS = {
    "su3-8x8": lambda: [new_generic_irrep(LieAlgebra("A", 2), (1, 1))] * 2,
    "g2-7x7": lambda: [new_generic_irrep(LieAlgebra("G2", 2), (1, 0))] * 2,
    "e6-27x27bar": lambda: [
        new_generic_irrep(LieAlgebra("E6", 6), hw)
        for hw in [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)]],
    "su3-27x8": lambda: [imported_27(),
                         new_generic_irrep(LieAlgebra("A", 2), (1, 1))],
}


@pytest.mark.parametrize("case", list(FORM_PRODUCTS))
def test_dumps_from_the_form_match_the_tables(monkeypatch, case):
    # prepare's data is written from the rational form, with no FieldElem
    # made; the same tables built by hand as FieldElems, and the stdlib
    # encoder, write the same text.  The products but 27 x 8 hold a
    # singlet, whose lowering and scp lists are empty.
    l, r = FORM_PRODUCTS[case]()
    d = Decomposition(l, r)
    decompose(d)
    assert case == "su3-27x8" or any(p.dim == 1 for p in d.found)
    for p in d.found:
        with monkeypatch.context() as m:
            m.setattr(FieldElem, "__init__", None)
            data = prepare(p, l, r)
            text = data.to_json()
        by_hand = ImportedIrrepData(data.algebra, dict(data.kets),
                                    dict(data.lowering), dict(data.scp))
        assert text == by_hand.to_json() == data.to_json()
        assert text == json.dumps(json.loads(text), indent=1)
        doc = json.loads(text)
        assert len(doc["kets"]) == p.dim
        if p.dim == 1:
            assert doc["lowering"] == doc["scp"] == []


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
    assert text(doc) == reference(doc)
    assert text(iterated(doc)) == reference(doc)


# rows as the irrep files hold them: ints, strs that need escaping, and
# nested lists of them, some empty
rows = st.recursive(ints | texts, lambda inner: st.lists(inner, max_size=5),
                    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(st.lists(rows, max_size=4))
def test_random_rows(doc):
    for x in (doc, {"rows": doc}, {"r": {"rows": doc}}, [doc, {"a": doc}]):
        assert text(x) == reference(x)
        assert text(iterated(x)) == reference(x)


def refused(x):
    """Whether x holds a bool or a float, which the writer refuses."""
    if type(x) is list:
        return any(map(refused, x))
    return type(x) in (bool, float)


@settings(max_examples=200, deadline=None)
@given(st.recursive(ints | texts | st.sampled_from([True, False, 1.5, -0.0]),
                    lambda inner: st.lists(inner, max_size=5), max_leaves=20))
def test_rows_holding_a_bool_or_float_are_refused(row):
    assume(refused(row))
    for x in (row, [row], {"r": row}, {"r": iter([row])}):
        with pytest.raises(TypeError):
            text(x)


def test_empty_containers_and_scalars():
    for doc in [[], {}, [[]], {"": {}}, None, "", -0, 2**70, [None, -1]]:
        assert text(doc) == reference(doc)


def nested(doc, depth):
    """doc as the one value of depth nested dicts."""
    for _ in range(depth):
        doc = {"n": doc}
    return doc


RECORDS = [
    {"label": 1, "level": 0, "deg": 1, "dynkin": [1, -2, 0], "lowest_root": 3,
     "descent": [0, 0, 0]},
    {"a": 5},
    {"a": [7]},
    {"a": [], "b": 1},
    {"a": 1, "b": []},
    {"a": 2**200, "b": [-2**200, 2**200, -1], "c": -2**200},
    {'"%d%s%%"': 1, "\u00e9 %": [2, 3]},
]


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_int_records_at_every_depth(depth):
    # a dict of ints and int lists fills one cached format of its shape;
    # beside it the same keys with other list lengths, at other depths and
    # inside a list
    for doc in RECORDS:
        for x in (doc, [doc, doc], {"r": doc, "s": [doc]}):
            assert text(nested(x, depth)) == reference(nested(x, depth))
    assert text(nested(RECORDS[:2], depth)) == reference(nested(RECORDS[:2], depth))


ITERATED = [
    [],
    {"a": []},
    [7],
    {"a": ["x"]},
    {"a": [{"b": {"c": [1, 2], "d": []}, "e": None}]},
    {"a": {"b": [{"c": [[1], {}]}, 2]}, "f": [[]]},
]


@pytest.mark.parametrize("doc", ITERATED, ids=["empty", "empty-in-dict", "one",
                                               "one-in-dict", "nested-dicts",
                                               "deep"])
def test_iterator_lists(doc):
    # a list given as an iterator, empty, of one element or of nested
    # dicts, is written as the list itself
    assert text(iterated(doc)) == reference(doc)


def test_iterator_is_written_as_it_is_consumed():
    pulled = []

    def items():
        for k in range(3):
            pulled.append(k)
            yield {"k": k}

    chunks = _json_chunks({"a": items()})
    assert next(chunks) == '{\n "a": '
    assert pulled == []
    assert next(chunks) == '[\n  {\n   "k": 0\n  }'
    assert pulled == [0]


@pytest.mark.parametrize("doc", [True, False, [1, True], {"a": [True]},
                                 1.5, [1.5], {1: 2}, {"a": {None: 1}},
                                 (1, 2), [1, (2,)],
                                 {"a": True}, {"a": 1, "b": 1.5},
                                 {"a": [1, True], "b": 2}],
                         ids=repr)
def test_refuses_what_json_dumps_writes_otherwise(doc):
    # json.dumps writes true, 1.5, "1" as a key and a tuple as a list; this
    # writer raises rather than guess
    with pytest.raises(TypeError):
        text(doc)


@pytest.mark.parametrize("doc", [{"a": True}, {"a": 1, "b": 1.5},
                                 {"a": [1, True], "b": 2}, {"a": 1, 2: 3},
                                 {"a": 1, "b": (2,)}],
                         ids=repr)
def test_refuses_inside_records(doc):
    # inside a list or an iterator a dict of ints is written through one
    # %-format, where a %d would write True and 1.5 as 1
    with pytest.raises(TypeError):
        text([doc])
    with pytest.raises(TypeError):
        text({"r": iter([doc])})


def test_refuses_an_iterator_inside_a_list():
    # inside a list, elements are joined whole; an iterator there is as
    # foreign as a tuple
    with pytest.raises(TypeError):
        text({"a": iter([iter([1])])})
