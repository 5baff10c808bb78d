"""The reader of liecg-irrep-v1 files against the FieldElem path it
replaced.

`ImportedIrrepData.from_json` reads each coefficient text straight into
its class and fraction, and `new_imported_irrep` derives the rational form
from those.  The path it replaced parsed every text with `parse_field` and
derived the form from the FieldElems; it is kept here as `field_form`.  On
every irrep file of the export products both give the same form, the
tables formed when first read are the parsed FieldElems, and each spelling
of a coefficient that the fast path does not read goes through
`parse_field` and is accepted or refused as before.
"""

import json
import sys
from pathlib import Path

import pytest

from liecg.exactnum import FieldElem, _square_free, parse_field
from liecg.irrep import (
    ImportedIrrepData,
    InvalidImportError,
    _coefficient,
    new_imported_irrep,
)
from liecg.liealg import LieAlgebra

sys.path.insert(0, str(Path(__file__).resolve().parent))

from export_dumps import dump_export_products  # noqa: E402


def field_tables(doc):
    """The lowering and scp tables of a document, each text parsed."""
    lowering = {(root, state): tuple((parse_field(c), t) for c, t in terms)
                for state, root, terms in doc["lowering"]}
    scp = {(a, b): parse_field(v) for a, b, v in doc["scp"]}
    return lowering, scp


def field_form(rank, kets, lowering, scp):
    """(r, lower, gram rows as dicts) of FieldElem tables of a valid file,
    derived as the FieldElem path did: the classes propagate from state 1
    through the lowering rows, an entry q*sqrt(f) from a to t giving
    r_t = squarefree(f*r_a) and the rational entry q*sqrt(f*r_a/r_t)."""
    r = {1: 1}
    lower = {i: {} for i in range(1, rank + 1)}
    queue = [1]
    for a in queue:
        for i in range(1, rank + 1):
            terms = sorted(((t, c) for c, t in lowering.get((i, a), ())
                            if not c.is_zero()), key=lambda x: x[0])
            if not terms:
                continue
            row = []
            for t, c in terms:
                ((f, q),) = c.terms.items()
                s, cls = _square_free(f * r[a])
                assert r.setdefault(t, cls) == cls
                if t not in queue:
                    queue.append(t)
                row.append((t, q * s))
            lower[i][a] = tuple(row)
    assert sorted(r) == sorted(kets)
    gram = {a: {a: r[a]} for a in kets}
    for (a, b), v in scp.items():
        if a == b or v.is_zero():
            continue
        ((f, q),) = v.terms.items()
        s, cls = _square_free(f * r[a] * r[b])
        assert cls == 1
        gram[a][b] = gram[b][a] = q * s
    return r, lower, gram


def form_of(irrep):
    """An irrep's rational form with its Gram rows as dicts; every entry
    that is whole is an int."""
    rf = irrep.rational_form()
    entries = [q for rows in rf.lower.values() for row in rows.values()
               for _, q in row] + [g for row in rf.gram.values() for _, g in row]
    assert all(type(q) is int or q.denominator != 1 for q in entries)
    return rf.r, rf.lower, {a: dict(row) for a, row in rf.gram.items()}


@pytest.fixture(scope="module")
def export_files(tmp_path_factory):
    return dump_export_products(tmp_path_factory.mktemp("dumps"))


def test_every_export_file_reads_into_the_field_path_form(export_files,
                                                          monkeypatch):
    # no FieldElem is made on the way to the form: every dumped text is one
    # nonzero radical as _render_terms writes it.  Reading a table forms
    # the parsed FieldElems, and the import of that data gives the same form
    assert len(export_files) == 6 + 3 + 3 + 7 + 8
    dims = set()
    for name, la, path in export_files:
        text = path.read_text()
        doc = json.loads(text)
        lowering, scp = field_tables(doc)
        with monkeypatch.context() as m:
            m.setattr(FieldElem, "__init__", None)
            data = ImportedIrrepData.from_json(text)
            got = form_of(new_imported_irrep(la, data))
        want = field_form(la.rank, data.kets, lowering, scp)
        assert got == want, (name, path.name)
        assert data.lowering == lowering and data.scp == scp
        assert form_of(new_imported_irrep(la, data)) == want
        dims.add(len(data.kets))
    assert {650, 210, 27, 1} <= dims


SU2 = LieAlgebra("A", 1)


def triplet(lowering_1=None, diagonal=None):
    """The text of the SU(2) triplet's file, with the coefficient of state 1
    lowered to state 2 replaced by lowering_1 and an scp entry (1, 1) of
    diagonal added, when given."""
    s2 = "1*sqrt(2)"
    doc = {
        "format": "liecg-irrep-v1",
        "algebra": {"family": "A", "rank": 1},
        "kets": [[1, [2], 1], [2, [0], 1], [3, [-2], 1]],
        "lowering": [[1, 1, [[s2 if lowering_1 is None else lowering_1, 2]]],
                     [2, 1, [[s2, 3]]]],
        "scp": [] if diagonal is None else [[1, 1, diagonal]],
    }
    return json.dumps(doc)


HUGE = "9" * 20
SPELLINGS = [
    # (where, text, refusal or None): where the text stands, the lowering
    # of state 1 (sqrt(2) in the dump) or a diagonal scalar product (1)
    ("lowering", "sqrt(2)", None),
    ("lowering", "2/4*sqrt(8)", None),  # the fast path reduces it to sqrt(2)
    ("lowering", "1/1*sqrt(2)", None),
    ("lowering", "-1*sqrt(2)", None),
    ("lowering", " 1*sqrt(2)", None),
    ("lowering", "١*sqrt(2)", None),  # a digit parse_field reads
    ("lowering", "(2)/(sqrt(2))", None),
    ("lowering", "sqrt(8)-sqrt(2)", None),  # a sum that is one radical
    ("lowering", "+1", None),
    ("scp", "+1", None),
    ("scp", "(1)/(1)", None),
    ("scp", "(1)/(2)", "diagonal scalar product at 1 is not 1"),
    ("scp", "2/4*sqrt(8)", "diagonal scalar product at 1 is not 1"),
    ("scp", "0", "diagonal scalar product at 1 is not 1"),
    ("lowering", "0", "no rational form: state 2 is not reached by lowering "
                      "from state 1"),
    ("lowering", "0*sqrt(2)", "no rational form: state 2 is not reached by "
                              "lowering from state 1"),
    ("lowering", "1+sqrt(2)",
     "no rational form: lowering state 1 by root 1 gives state 2 the "
     "coefficient 1+1*sqrt(2), which is not a single radical"),
    ("lowering", f"sqrt({HUGE})",
     f"malformed irrep data: radicand {HUGE} exceeds 1000000000000000000"),
    ("lowering", f"1*sqrt({HUGE})",
     f"malformed irrep data: radicand {HUGE} exceeds 1000000000000000000"),
    ("lowering", "1/0", "coefficient '1/0' divides by zero"),
    ("lowering", "1/0*sqrt(2)", "coefficient '1/0*sqrt(2)' divides by zero"),
    ("lowering", 1, "coefficient 1 is not a string"),
    ("scp", 1.0, "coefficient 1.0 is not a string"),
]


@pytest.mark.parametrize("where, text, refusal", SPELLINGS,
                         ids=[f"{w}-{t!r}" for w, t, _ in SPELLINGS])
def test_coefficient_spellings(where, text, refusal):
    doc = triplet(**{"lowering_1" if where == "lowering" else "diagonal": text})
    if refusal is not None:
        with pytest.raises(InvalidImportError) as err:
            new_imported_irrep(SU2, ImportedIrrepData.from_json(doc))
        assert str(err.value) == refusal
        return
    data = ImportedIrrepData.from_json(doc)
    got = form_of(new_imported_irrep(SU2, data))
    lowering, scp = field_tables(json.loads(doc))
    assert got == field_form(1, data.kets, lowering, scp)
    assert data.lowering == lowering and data.scp == scp
    assert form_of(new_imported_irrep(SU2, data)) == got


@pytest.mark.parametrize("text", ["2/4*sqrt(8)", "-6/4", "3*sqrt(12)",
                                  "007/0014*sqrt(18)", "1*sqrt(1)", "5/1",
                                  "-1/3*sqrt(6)"])
def test_fast_path_gives_the_parsed_triple(text):
    # a text the fast path reads, square factors and common divisors left
    # in, comes out as parse_field's single term, reduced
    ((f, q),) = parse_field(text).terms.items()
    assert _coefficient(text, {}) == (f, q.numerator, q.denominator)
