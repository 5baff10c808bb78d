"""Irrep construction: su(2) ladder oracle, adjoint tables, degenerate
irreps, the lowering/raising sum rule, the defining relations, and import
round-trips."""

import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from liecg.exactnum import ONE, ZERO, _square_free, field, field_sqrt, number
from liecg.liealg import (
    ConsistencyError,
    LieAlgebra,
    adjoint_hw,
    freudenthal,
    weyl_dim,
)
from liecg.tensor import (
    Decomposition,
    decompose,
    prepare,
    prepare_with_states,
    result,
)
from liecg.irrep import (
    ImportedIrrepData,
    InvalidImportError,
    Ket,
    lower,
    new_generic_irrep,
    new_imported_irrep,
    scalar_product,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fraction_oracle import fraction_sum_rule  # noqa: E402

A1 = LieAlgebra("A", 1)
A2 = LieAlgebra("A", 2)
A3 = LieAlgebra("A", 3)
B2 = LieAlgebra("B", 2)
B3 = LieAlgebra("B", 3)
C3 = LieAlgebra("C", 3)
D4 = LieAlgebra("D", 4)
G2 = LieAlgebra("G2", 2)
F4 = LieAlgebra("F4", 4)
E6 = LieAlgebra("E6", 6)


# ---------------------------------------------------------------- su(2)

@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_su2_ladder_matches_textbook(m):
    # oracle: J-|j,mu/2> = sqrt(j(j+1) - (mu/2)(mu/2 - 1)) |j, mu/2 - 1>
    r = new_generic_irrep(A1, (m,))
    assert r.dim == m + 1
    j = Fraction(m, 2)
    for lab in range(1, m + 1):
        mu = Fraction(r.weight_of[lab][0], 2)
        c = r.lower(1, lab).get(lab + 1)
        assert c * c == field(j * (j + 1) - mu * (mu - 1))
        assert c.sign() == 1
    assert r.lower(1, m + 1).is_zero()


def test_su2_triplet_is_adjoint_with_sqrt2():
    r = new_generic_irrep(A1, (2,))
    s2 = field_sqrt(field(2))
    assert r.lower(1, 1).terms == [(s2, 2)]
    assert r.lower(1, 2).terms == [(s2, 3)]
    assert r.kets[2] == Ket((0,), 1)


# ---------------------------------------------------------------- su(3)

def test_su3_triplet_chain():
    r = new_generic_irrep(A2, (1, 0))
    assert [r.weight_of[l] for l in (1, 2, 3)] == [(1, 0), (-1, 1), (0, -1)]
    assert r.lower(1, 1).terms == [(ONE, 2)]
    assert r.lower(2, 1).is_zero()
    assert r.lower(2, 2).terms == [(ONE, 3)]
    assert r.lower(1, 2).is_zero()
    assert r.lower(1, 3).is_zero() and r.lower(2, 3).is_zero()


def test_su3_octet_full_table():
    r = new_generic_irrep(A2, (1, 1))
    assert r.dim == 8
    assert [(r.kets[l].dynkin, r.kets[l].deg_index) for l in range(1, 9)] == [
        ((1, 1), 1), ((2, -1), 1), ((-1, 2), 1), ((0, 0), 1),
        ((0, 0), 2), ((1, -2), 1), ((-2, 1), 1), ((-1, -1), 1),
    ]
    # label 2 is the root alpha^1, label 3 is alpha^2; labels 4, 5 are the
    # zero states |0_1>, |0_2|; 6, 7 their negatives; 8 the lowest root
    s2 = field_sqrt(field(2))
    inv_s2 = field_sqrt(field(Fraction(1, 2)))
    expect = {
        (1, 1): [(ONE, 3)], (2, 1): [(ONE, 2)],
        (1, 2): [(s2, 4)],
        (2, 3): [(s2, 5)],
        (1, 4): [(s2, 7)], (2, 4): [(inv_s2, 6)],
        (1, 5): [(inv_s2, 7)], (2, 5): [(s2, 6)],
        (1, 6): [(ONE, 8)],
        (2, 7): [(ONE, 8)],
    }
    for lab in range(1, 9):
        for i in (1, 2):
            assert r.lower(i, lab).terms == expect.get((i, lab), [])
    assert r.scalar_product(4, 5) == field((1, 2))
    assert r.scalar_product(5, 4) == field((1, 2))
    assert r.scalar_product(4, 4) == ONE
    assert r.scalar_product(3, 4) == ZERO  # different weights


# ------------------------------------------------- zero-weight products

def test_scp_zero_weights_values():
    # <0_a|0_b> of the adjoint zero states F_a|alpha_a>, read off the built
    # adjoint; these are sqrt(A_ab A_ba)/2
    cases = [
        (A2, 1, 2, field((1, 2))),
        (G2, 1, 2, number(1, 2, 3)),
        (B2, 1, 2, number(1, 2, 2)),
        (F4, 2, 3, number(1, 2, 2)),
        (F4, 1, 3, ZERO),
        (F4, 1, 1, ONE),
    ]
    for la, a, b, want in cases:
        r = new_generic_irrep(la, adjoint_hw(la))
        zero = (0,) * la.rank
        block = r.labels_by_weight[zero]
        za, zb = block[a - 1], block[b - 1]
        assert r.scalar_product(za, zb) == want, (la.name, a, b)


def test_g2_adjoint_scp_stored():
    r = new_generic_irrep(G2, (0, 1))
    z1, z2 = r.labels_by_weight[(0, 0)]
    assert r.scalar_product(z1, z2) == number(1, 2, 3)


# ------------------------------ the sum rule and the defining relations

CONSISTENCY_CASES = [
    (A1, (4,)),
    (A2, (1, 0)), (A2, (0, 1)), (A2, (1, 1)), (A2, (3, 0)), (A2, (0, 2)),
    (A3, (1, 0, 0)), (A3, (0, 1, 0)), (A3, (1, 0, 1)),
    (B2, (1, 0)), (B2, (0, 1)), (B2, (0, 2)),
    (B3, (1, 0, 0)), (B3, (0, 0, 1)), (B3, (0, 1, 0)),
    (C3, (1, 0, 0)), (C3, (2, 0, 0)),
    (D4, (1, 0, 0, 0)), (D4, (0, 0, 0, 1)), (D4, (0, 1, 0, 0)),
    (G2, (1, 0)), (G2, (0, 1)),
    (F4, (0, 0, 0, 1)),
    (E6, (1, 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("la,hw", CONSISTENCY_CASES)
def test_sum_rule_holds_everywhere(la, hw):
    fraction_sum_rule(new_generic_irrep(la, hw))


def test_f4_adjoint_dim():
    assert new_generic_irrep(F4, (0, 0, 0, 1)).dim == 52


@pytest.mark.parametrize("la,hw", CONSISTENCY_CASES)
def test_lowering_coefficients_positive(la, hw):
    # all phases are +1, so every lowering coefficient is positive
    r = new_generic_irrep(la, hw)
    for a in r.kets:
        for i in range(1, la.rank + 1):
            for c, _ in r.lower(i, a).terms:
                assert c.sign() == 1


def _corrupted(data, lowering=None, scp=None):
    """The irrep of data with entries of its tables replaced."""
    return new_imported_irrep(data.algebra, ImportedIrrepData(
        data.algebra, dict(data.kets),
        {**data.lowering, **(lowering or {})}, {**data.scp, **(scp or {})},
    ))


def test_sum_rule_detects_corruption():
    data = ImportedIrrepData.from_irrep(new_generic_irrep(A2, (1, 1)))
    terms = tuple((c * field(2), t) for c, t in data.lowering[(1, 4)])
    r = _corrupted(data, lowering={(1, 4): terms})
    with pytest.raises(ConsistencyError):
        fraction_sum_rule(r)
    with pytest.raises(ConsistencyError):
        r.check_consistency()


@pytest.mark.parametrize("la,hw", CONSISTENCY_CASES)
def test_generic_irreps_are_representations(la, hw):
    new_generic_irrep(la, hw).check_consistency()


def test_prepared_irreps_are_representations():
    # every irrep of the G2 adjoint squared and of the SU(3) octet squared:
    # sqrt(2), sqrt(3) classes, fractional entries, degenerate blocks
    for adj in (new_generic_irrep(G2, (0, 1)), new_generic_irrep(A2, (1, 1))):
        d = Decomposition(adj, adj)
        decompose(d)
        for p in d.found:
            prepare_with_states(p, adj, adj)[0].check_consistency()


def test_representation_check_refuses_a_scaled_entry():
    # SU(2) has no Serre relation: the commutator catches the doubled entry
    data = ImportedIrrepData.from_irrep(new_generic_irrep(A1, (2,)))
    terms = tuple((c * field(2), t) for c, t in data.lowering[(1, 2)])
    r = _corrupted(data, lowering={(1, 2): terms})
    with pytest.raises(ConsistencyError) as exc:
        r.check_consistency()
    assert str(exc.value) == (
        "SU(2) irrep (2,): E_i F_j - F_j E_i == delta_ij w_i fails at state 2 "
        "of weight (0,), roots i=1, j=1"
    )


def test_representation_check_refuses_what_the_sum_rule_passes():
    # the octet with one lowering sign flipped keeps every norm, so the
    # sum rule holds; the defining relations do not
    data = ImportedIrrepData.from_irrep(new_generic_irrep(A2, (1, 1)))
    terms = tuple((-c, t) for c, t in data.lowering[(1, 6)])
    r = _corrupted(data, lowering={(1, 6): terms})
    fraction_sum_rule(r)
    with pytest.raises(ConsistencyError, match="Serre relation fails"):
        r.check_consistency()


def test_consistency_error_names_the_singular_block():
    # the octet's zero-weight states claimed parallel: the sum rule fails
    # at state 4 first, and the check, which inverts every block one root
    # above a weight before it walks the relations, names the block
    data = ImportedIrrepData.from_irrep(new_generic_irrep(A2, (1, 1)))
    r = _corrupted(data, scp={(4, 5): ONE})
    with pytest.raises(ConsistencyError) as exc:
        fraction_sum_rule(r)
    assert str(exc.value) == (
        "SU(3) irrep (1, 1): string sum rule fails at state 4 of weight "
        "(0, 0), root 2: 1/2 != 2"
    )
    with pytest.raises(ConsistencyError) as exc:
        r.check_consistency()
    assert str(exc.value) == (
        "SU(3) irrep (1, 1): the Gram matrix of weight (0, 0) is singular"
    )


def test_gram_inverse_of_every_block_matches_fractions():
    # M.G == delta*I exactly, G the block's Gram rows in Fractions, on the
    # E6 650 and the imported SU(3) 27: one-state blocks, whose inverse is
    # read off the diagonal, and degenerate ones, inverted by elimination
    e27, e27b = (new_generic_irrep(E6, (1, 0, 0, 0, 0, 0)),
                 new_generic_irrep(E6, (0, 0, 0, 0, 1, 0)))
    d = Decomposition(e27, e27b)
    decompose(d)
    oc = new_generic_irrep(A2, (1, 1))
    d8 = Decomposition(oc, oc)
    decompose(d8)
    irreps = [
        prepare_with_states(d.found[0], e27, e27b)[0],  # the 650
        new_imported_irrep(A2, prepare(d8.found[0], oc, oc)),  # the 27
    ]
    assert [r.dim for r in irreps] == [650, 27]
    for r in irreps:
        rf = r.rational_form()
        sizes = set()
        for w, ups in r.labels_by_weight.items():
            got, m, delta = r._gram_inverse(rf, w)
            assert got == ups and delta > 0
            g = [[Fraction(dict(rf.gram[a]).get(b, 0)) for b in ups]
                 for a in ups]
            n = len(ups)
            assert [[sum(m[j][k] * g[k][c] for k in range(n))
                     for c in range(n)] for j in range(n)] == [
                [delta if j == c else 0 for c in range(n)] for j in range(n)]
            assert all(type(x) is int for row in m for x in row)
            sizes.add(min(n, 2))
        assert sizes == {1, 2}, r  # both kinds of block occur


def test_sweep_runs_without_field_arithmetic(monkeypatch):
    from liecg.exactnum import FieldElem

    l = new_generic_irrep(A2, (1, 1))
    d = Decomposition(l, l)
    decompose(d)
    irreps = [
        new_imported_irrep(A2, prepare(d.found[0], l, l)),  # the 27
        new_generic_irrep(F4, (1, 0, 0, 0)),
    ]

    def boom(self, other):
        raise AssertionError("FieldElem arithmetic inside the sweep")

    for op in ("__mul__", "__add__", "__sub__", "__truediv__"):
        monkeypatch.setattr(FieldElem, op, boom)
    for r in irreps:
        r.check_consistency()  # the rational form is derived here too
    monkeypatch.undo()
    assert [r.dim for r in irreps] == [27, 26]
    # the guard is live: a FieldElem sum in the sweep would have raised
    with pytest.raises(AssertionError):
        monkeypatch.setattr(FieldElem, "__add__", boom)
        ONE + ONE


# ------------------------------------------------------- gating errors

DEGENERATE_CASES = [
    (A2, (2, 2)),  # 27, zero weight thrice degenerate
    (A2, (2, 1)),  # 15
    (G2, (2, 0)),  # 27
    (F4, (1, 0, 0, 0)),  # 26, doubly degenerate zero weight
    (B3, (1, 0, 1)),  # SO(7) 48
]


@pytest.mark.parametrize(
    "la,hw", DEGENERATE_CASES, ids=[f"{la.name}-{hw}" for la, hw in DEGENERATE_CASES]
)
def test_degenerate_irrep_is_built(la, hw):
    r = new_generic_irrep(la, hw)
    assert r.dim == weyl_dim(la, hw)
    assert max(len(labs) for labs in r.labels_by_weight.values()) > 1
    r.check_consistency()
    r2 = roundtrip(r)
    r2.check_consistency()
    assert ImportedIrrepData.from_irrep(r2).to_json() == (
        ImportedIrrepData.from_irrep(r).to_json()
    )
    d = Decomposition(r, r)
    decompose(d)
    assert result(d).startswith("Dimensions match.\n")


def test_moved_multiplicity_is_caught(monkeypatch):
    # the kept count at each weight is the rank of the contravariant form,
    # an independent check of Freudenthal's multiplicities
    import liecg.irrep as irrep_mod

    def moved(la, hw):
        # one state of the 27 moved from weight (0, 0) to weight (1, 1):
        # same dimension, wrong multiplicities
        shift = {(0, 0): -1, (1, 1): 1}
        return [
            replace(rec, degeneracy=rec.degeneracy + shift.get(rec.dynkin, 0))
            for rec in freudenthal(la, hw)
        ]

    monkeypatch.setattr(irrep_mod, "freudenthal", moved)
    with pytest.raises(ConsistencyError) as exc:
        new_generic_irrep(A2, (2, 2))
    msg = str(exc.value)
    assert "SU(3) irrep (2, 2)" in msg and "weight (1, 1)" in msg


def test_wrapper_argument_checks():
    r = new_generic_irrep(A2, (1, 0))
    assert lower(r, 1, 1).terms == [(ONE, 2)]
    assert scalar_product(r, 2, 2) == ONE
    # the method itself reads a root outside 1..rank as a zero operator
    assert all(r.lower(i, 1).is_zero() for i in (-1, 0, 3))
    with pytest.raises(ValueError):
        lower(r, 0, 1)
    with pytest.raises(ValueError):
        lower(r, 3, 1)
    with pytest.raises(ValueError):
        lower(r, 1, 99)
    with pytest.raises(ValueError):
        scalar_product(r, 1, 4)


# ------------------------------------------------------- import cycle

def roundtrip(r):
    data = ImportedIrrepData.from_irrep(r)
    doc = data.to_json()
    back = ImportedIrrepData.from_json(doc)
    return new_imported_irrep(r.algebra, back)


@pytest.mark.parametrize("la,hw", [(A2, (1, 1)), (G2, (0, 1)), (B2, (1, 0))])
def test_import_roundtrip_preserves_tables(la, hw):
    r = new_generic_irrep(la, hw)
    r2 = roundtrip(r)
    assert r2.origin == "imported"
    assert r2.dim == r.dim
    assert r2.kets == r.kets
    for lab in r.kets:
        for i in range(1, la.rank + 1):
            assert r2.lower(i, lab) == r.lower(i, lab)
        for other in r.labels_by_weight[r.weight_of[lab]]:
            assert r2.scalar_product(lab, other) == r.scalar_product(lab, other)
    r2.check_consistency()


def test_import_rejects_wrong_algebra():
    data = ImportedIrrepData.from_irrep(new_generic_irrep(A2, (1, 1)))
    with pytest.raises(InvalidImportError):
        new_imported_irrep(B2, data)


def test_import_rejects_gapped_labels():
    data = ImportedIrrepData.from_irrep(new_generic_irrep(A2, (1, 0)))
    data.kets[5] = data.kets.pop(3)
    with pytest.raises(InvalidImportError):
        new_imported_irrep(A2, data)


def test_import_rejects_wrong_weight():
    data = ImportedIrrepData.from_irrep(new_generic_irrep(A2, (1, 0)))
    data.kets[3] = Ket((5, 5), 1)
    with pytest.raises(InvalidImportError):
        new_imported_irrep(A2, data)


def test_import_rejects_bad_lowering_target():
    data = ImportedIrrepData.from_irrep(new_generic_irrep(A2, (1, 0)))
    with pytest.raises(InvalidImportError):
        # weight drop does not match root 2
        _corrupted(data, lowering={(2, 1): ((ONE, 3),)})


def test_import_rejects_bad_scp():
    data = ImportedIrrepData.from_irrep(new_generic_irrep(A2, (1, 1)))
    with pytest.raises(InvalidImportError):
        _corrupted(data, scp={(4, 4): field(2)})
    with pytest.raises(InvalidImportError):
        # labels 3 and 4 sit at different weights
        _corrupted(data, scp={(3, 4): ONE})


@pytest.mark.parametrize("source", ["form", "json", "tables"])
def test_imported_data_views_are_read_only(source):
    # the coefficients have one source, fixed when the data is made: no
    # read sets an attribute, the views refuse writes, and the document is
    # the same before and after both views are read
    data = ImportedIrrepData.from_irrep(new_generic_irrep(A2, (1, 1)))
    if source == "json":
        data = ImportedIrrepData.from_json(data.to_json())
    elif source == "tables":
        data = ImportedIrrepData(data.algebra, dict(data.kets),
                                 data.lowering, data.scp)
    assert "__getattr__" not in vars(ImportedIrrepData)
    held = dict(vars(data))
    text = data.to_json()
    for table in (data.lowering, data.scp):
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = table[key]
        with pytest.raises(TypeError):
            del table[key]
    assert data.lowering == data.lowering
    assert data.scp == {(4, 5): field(Fraction(1, 2))}
    data._values()
    assert vars(data).keys() == held.keys()
    assert all(v is held[k] for k, v in vars(data).items())
    assert data.to_json() == text


def test_import_rejects_malformed_json():
    with pytest.raises(InvalidImportError):
        ImportedIrrepData.from_json("not json at all {")
    with pytest.raises(InvalidImportError):
        ImportedIrrepData.from_json('{"format": "something-else"}')
    with pytest.raises(InvalidImportError):
        ImportedIrrepData.from_json(
            '{"format": "liecg-irrep-v1", "algebra": {"family": "A"}}'
        )


@pytest.mark.parametrize("rank", [True, 2.0, "2"])
def test_import_refuses_a_rank_that_is_no_integer(rank):
    # refused, where true and 2.0 would otherwise read as rank 1 and 2
    doc = json.loads(ImportedIrrepData.from_irrep(
        new_generic_irrep(G2, (1, 0))).to_json())
    doc["algebra"]["rank"] = rank
    with pytest.raises(InvalidImportError) as err:
        ImportedIrrepData.from_json(json.dumps(doc))
    assert str(err.value) == (
        f"malformed irrep data: algebra rank {rank!r} is not an integer")


def test_import_accepts_manual_su2_triplet():
    # hand-written data for the su(2) adjoint
    s2 = "1/1*sqrt(2)"
    doc = {
        "format": "liecg-irrep-v1",
        "algebra": {"family": "A", "rank": 1},
        "kets": [[1, [2], 1], [2, [0], 1], [3, [-2], 1]],
        "lowering": [[1, 1, [[s2, 2]]], [2, 1, [[s2, 3]]]],
        "scp": [],
    }
    import json

    r = new_imported_irrep(A1, ImportedIrrepData.from_json(json.dumps(doc)))
    r.check_consistency()
    assert r.lower(1, 1) == new_generic_irrep(A1, (2,)).lower(1, 1)


# ----------------------------------------------------------- structure

def test_labels_follow_level_order():
    r = new_generic_irrep(E6, (1, 0, 0, 0, 0, 0))
    assert r.dim == 27
    levels = []
    from liecg.liealg import freudenthal

    rec_level = {}
    for rec in freudenthal(E6, (1, 0, 0, 0, 0, 0)):
        rec_level[rec.dynkin] = rec.level
    for lab in range(1, 28):
        levels.append(rec_level[r.weight_of[lab]])
    assert levels == sorted(levels)


def test_nondeg_gram_is_identity():
    r = new_generic_irrep(A2, (3, 0))
    for w, labs in r.labels_by_weight.items():
        assert len(labs) == 1
        assert [[r.scalar_product(a, b) for b in labs] for a in labs] == [[ONE]]


# -------------------------------------------------------- rational form

def _buildable_fundamentals_and_adjoints():
    # every fundamental that can be built from scratch, and the adjoint, of
    # dimension <= 4000; the adjoint is a fundamental in 8 of the algebras
    algebras = [
        LieAlgebra("A", 1), A2, LieAlgebra("A", 4), B2, B3, C3,
        LieAlgebra("C", 4), D4, LieAlgebra("D", 5), E6, LieAlgebra("E7", 7),
        LieAlgebra("E8", 8), F4, G2,
    ]
    cases = []
    for la in algebras:
        n = la.rank
        hws = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        if adjoint_hw(la) not in hws:
            hws.append(adjoint_hw(la))
        for hw in hws:
            if weyl_dim(la, hw) > 4000:
                continue
            if hw == adjoint_hw(la) or all(
                rec.degeneracy == 1 for rec in freudenthal(la, hw)
            ):
                cases.append((la, hw))
    return cases


GENERIC_CASES = _buildable_fundamentals_and_adjoints()


def _check_rational_form(r):
    """The form the irrep holds is over Q with square-free classes, and it
    equals the form new_imported_irrep derives from its dumped file: the
    same classes, the same lowering rows in the same order, the same Gram
    rows."""
    rf = r.rational_form()
    assert rf.r[1] == 1
    assert set(rf.r) == set(r.kets)
    for c in rf.r.values():
        assert c >= 1 and _square_free(c)[0] == 1
    for i in range(1, r.algebra.rank + 1):
        for row in rf.lower[i].values():
            assert all(isinstance(q, (int, Fraction)) and q for _, q in row)
    for row in rf.gram.values():
        assert all(isinstance(g, (int, Fraction)) and g for _, g in row)
    text = ImportedIrrepData.from_irrep(r).to_json()
    back = new_imported_irrep(r.algebra, ImportedIrrepData.from_json(text))
    want = back.rational_form()
    assert rf.r == want.r
    assert rf.lower == want.lower
    assert {a: dict(row) for a, row in rf.gram.items()} == {
        a: dict(row) for a, row in want.gram.items()
    }


def test_generic_case_count():
    assert len(GENERIC_CASES) == 38  # 32 fundamentals and 14 adjoints


@pytest.mark.parametrize(
    "la,hw", GENERIC_CASES, ids=[f"{la.name}-{hw}" for la, hw in GENERIC_CASES]
)
def test_generic_irreps_have_rational_form(la, hw):
    _check_rational_form(new_generic_irrep(la, hw))


PREPARED_PRODUCTS = [
    (G2, (0, 1), (0, 1)),  # 14 x 14
    (B2, (0, 2), (0, 2)),  # SO(5) 10 x 10
    (A3, (1, 0, 1), (1, 0, 1)),  # SU(4) 15 x 15
    (C3, (2, 0, 0), (1, 0, 0)),  # SP(6) 21 x 6
    (LieAlgebra("D", 5), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),  # 16 x 16bar
]


def test_prepared_irreps_have_rational_form():
    count = 0
    for la, left, right in PREPARED_PRODUCTS:
        l, r = new_generic_irrep(la, left), new_generic_irrep(la, right)
        d = Decomposition(l, r)
        decompose(d)
        for p in d.found:
            _check_rational_form(prepare_with_states(p, l, r)[0])
            count += 1
    assert count == 24


def test_imported_factor_products_have_rational_form():
    # SU(3) @27 x 8: the 27 enters from its file
    r8 = new_generic_irrep(A2, (1, 1))
    d = Decomposition(r8, r8)
    decompose(d)
    text = prepare(d.found[0], r8, r8).to_json()
    r27 = new_imported_irrep(A2, ImportedIrrepData.from_json(text))
    assert r27.hw == (2, 2)
    d = Decomposition(r27, r8)
    decompose(d)
    assert len(d.found) == 8
    for p in d.found:
        _check_rational_form(prepare_with_states(p, r27, r8)[0])


ROTATED = os.path.join(os.path.dirname(__file__), "data", "su3_octet_rotated.json")


def test_rotated_block_has_no_rational_form():
    # the octet with its zero-weight block rotated by an irrational angle:
    # valid tables (tests/test_consistency_oracle.py checks them with the
    # field sweep), but no basis of single radicals, so the import refuses
    # the file
    data = ImportedIrrepData.from_json(open(ROTATED).read())
    with pytest.raises(InvalidImportError, match="no rational form") as exc:
        new_imported_irrep(A2, data)
    assert "state 3 by root 2" in str(exc.value)
