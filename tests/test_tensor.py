"""Tensor products and Clebsch-Gordan decomposition, checked against
hand-worked SU(2)/SU(3) products and structural invariants."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from liecg import tensor
from liecg.exactnum import ONE, ZERO, field, field_sqrt
from liecg.liealg import (
    ConsistencyError,
    LieAlgebra,
    cartan,
    freudenthal,
    weyl_dim,
)
from liecg.linalg import LabeledVector, label_key
from liecg.irrep import new_generic_irrep, new_imported_irrep
from liecg.tensor import (
    Decomposition,
    DecompositionError,
    ProductIrrep,
    basis_product,
    check_dims,
    decompose,
    descend_irrep,
    prepare,
    prepare_with_states,
    product_lower,
    product_scp,
    product_weight,
    render_states,
    result,
)

A1 = LieAlgebra("A", 1)
A2 = LieAlgebra("A", 2)
B2 = LieAlgebra("B", 2)
D5 = LieAlgebra("D", 5)
G2 = LieAlgebra("G2", 2)


def unit(pair):
    return LabeledVector.unit(pair)


@pytest.fixture(scope="module")
def su3_pair():
    return new_generic_irrep(A2, (1, 0)), new_generic_irrep(A2, (0, 1))


# ------------------------------------------------------- elementary ops

def test_product_weight(su3_pair):
    l, r = su3_pair
    assert product_weight(unit((1, 1)), l, r) == (1, 1)
    assert product_weight(unit((2, 2)), l, r) == (0, 0)
    with pytest.raises(ConsistencyError):
        product_weight(LabeledVector(), l, r)
    mixed = LabeledVector([(ONE, (1, 1)), (ONE, (2, 1))])
    with pytest.raises(ConsistencyError):
        product_weight(mixed, l, r)


def test_product_lower_leibniz(su3_pair):
    l, r = su3_pair
    hw = unit((1, 1))
    s = product_lower(hw, 1, l, r)
    assert s.terms == [(ONE, (2, 1))]
    s2 = product_lower(s, 2, l, r)
    # E-2 hits both factors: |2>|1> -> |3>|1> + |2>|2>
    assert s2.terms == [(ONE, (2, 2)), (ONE, (3, 1))]
    assert product_scp(s2, s2, l, r) == field(2)
    bottom = unit((3, 3))
    assert product_lower(bottom, 1, l, r).is_zero()
    assert product_lower(bottom, 2, l, r).is_zero()


def test_product_lower_refuses_bad_root(su3_pair):
    l, r = su3_pair
    for root in (0, 3):
        with pytest.raises(ValueError, match="root index"):
            product_lower(unit((1, 1)), root, l, r)


def test_product_scp_cross_terms(su3_pair):
    l, r = su3_pair
    hw = unit((1, 1))
    z1 = product_lower(product_lower(hw, 1, l, r), 2, l, r)
    z2 = product_lower(product_lower(hw, 2, l, r), 1, l, r)
    # both sqrt(2)-normalized states share the single term |2>|2>
    assert product_scp(z1, z2, l, r) == ONE
    assert product_scp(hw, hw, l, r) == ONE
    assert product_scp(hw, z1, l, r) == ZERO


def test_basis_product_counts(su3_pair):
    l, r = su3_pair
    d = Decomposition(l, r)
    at_zero = basis_product(d, (0, 0))
    assert [b.terms[0][1] for b in at_zero] == [(1, 3), (2, 2), (3, 1)]
    assert len(basis_product(d, (1, 1))) == 1
    assert basis_product(d, (5, 5)) == []


def test_basis_product_matches_multiplicity_formula():
    oc = new_generic_irrep(A2, (1, 1))
    d = Decomposition(oc, oc)
    # mult of weight 0 in 8x8: 6 root pairs + 2*2 zero block
    assert len(basis_product(d, (0, 0))) == 10
    # generic formula at an arbitrary weight
    for w in [(1, 1), (2, -1), (0, 0), (3, 0)]:
        n = sum(
            len(la_) * len(oc.labels_by_weight.get(tuple(x - y for x, y in zip(w, wa)), ()))
            for wa, la_ in oc.labels_by_weight.items()
        )
        assert len(basis_product(d, w)) == n


# ----------------------------------------------------------- descending

def test_descend_octet(su3_pair):
    l, r = su3_pair
    p = descend_irrep(ProductIrrep(unit((1, 1))), l, r)
    assert p.dim == 8
    assert [len(lev) for lev in p.levels] == [1, 2, 2, 2, 1]
    assert sorted(len(v) for v in p.by_weight.values()) == [1] * 6 + [2]


def test_views_are_read_only(su3_pair):
    l, r = su3_pair
    p = descend_irrep(ProductIrrep(unit((1, 1))), l, r)
    with pytest.raises(AttributeError):
        p.levels.pop()
    with pytest.raises(AttributeError):
        p.by_weight.pop((0, 0))
    with pytest.raises(TypeError):
        p.by_weight[(0, 0)] = ()
    assert len(p.levels) == 5 and len(p.by_weight) == 7


def test_descend_rejects_non_highest_weight(su3_pair):
    l, r = su3_pair
    hw = unit((1, 1))
    z1 = product_lower(product_lower(hw, 1, l, r), 2, l, r)
    with pytest.raises(ConsistencyError):
        descend_irrep(ProductIrrep(z1), l, r)


def _field_rank(rows):
    """Rank of a list of FieldElem rows by plain Gaussian elimination, a
    test oracle sharing no code with liecg's eliminations."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next(
            (i for i in range(rank, len(rows)) if not rows[i][col].is_zero()),
            None,
        )
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            if not rows[i][col].is_zero():
                f = rows[i][col] / p[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def test_lowering_closure(su3_pair):
    # every lowered state stays inside the span of the next level
    l, r = su3_pair
    p = descend_irrep(ProductIrrep(unit((1, 1))), l, r)
    for k, (states, weights) in enumerate(zip(p.levels, p.weights)):
        for s, w in zip(states, weights):
            for i in (1, 2):
                low = product_lower(s, i, l, r)
                if low.is_zero():
                    continue
                nxt = p.levels[k + 1]
                pairs = sorted(
                    {pr for v in nxt for pr in v.labels()} | set(low.labels()),
                    key=label_key,
                )
                rows = [[v.get(pr) for pr in pairs] for v in nxt]
                low_row = [low.get(pr) for pr in pairs]
                assert _field_rank(rows + [low_row]) == _field_rank(rows)


# ---------------------------------------------------------- decompose

def test_su3_3_x_3bar(su3_pair):
    l, r = su3_pair
    d = Decomposition(l, r)
    decompose(d)
    assert [p.hw for p in d.found] == [(1, 1), (0, 0)]
    assert [p.dim for p in d.found] == [8, 1]
    assert check_dims(d)
    inv_s3 = field_sqrt(field(Fraction(1, 3)))
    singlet = d.found[1].hw_state
    assert singlet.terms == [
        (inv_s3, (1, 3)), (-inv_s3, (2, 2)), (inv_s3, (3, 1)),
    ]


def test_su3_3_x_3():
    l = new_generic_irrep(A2, (1, 0))
    d = Decomposition(l, l)
    decompose(d)
    assert [p.hw for p in d.found] == [(2, 0), (0, 1)]
    assert [p.dim for p in d.found] == [6, 3]
    assert check_dims(d)


def test_su2_1_x_1():
    l = new_generic_irrep(A1, (1,))
    d = Decomposition(l, l)
    decompose(d)
    assert [p.hw for p in d.found] == [(2,), (0,)]
    inv_s2 = field_sqrt(field(Fraction(1, 2)))
    assert d.found[1].hw_state.terms == [(inv_s2, (1, 2)), (-inv_s2, (2, 1))]


def test_su3_8_x_8_outer_multiplicity():
    oc = new_generic_irrep(A2, (1, 1))
    d = Decomposition(oc, oc)
    decompose(d)
    assert [p.hw for p in d.found] == [
        (2, 2), (3, 0), (0, 3), (1, 1), (1, 1), (0, 0),
    ]
    assert [p.dim for p in d.found] == [27, 10, 10, 8, 8, 1]
    assert check_dims(d)
    # the two octet highest-weight states are orthogonal by construction
    h1 = d.found[3].hw_state
    h2 = d.found[4].hw_state
    assert product_scp(h1, h2, oc, oc) == ZERO
    assert product_scp(h1, h1, oc, oc) == ONE


def test_g2_7_x_7():
    v7 = new_generic_irrep(G2, (1, 0))
    d = Decomposition(v7, v7)
    decompose(d)
    assert [(p.hw, p.dim) for p in d.found] == [
        ((2, 0), 27), ((0, 1), 14), ((1, 0), 7), ((0, 0), 1),
    ]
    assert check_dims(d)


def test_b2_spinor_squared():
    s = new_generic_irrep(B2, (0, 1))
    d = Decomposition(s, s)
    decompose(d)
    assert [(p.hw, p.dim) for p in d.found] == [
        ((0, 2), 10), ((1, 0), 5), ((0, 0), 1),
    ]
    assert check_dims(d)


def test_decompose_commutes(su3_pair):
    l, r = su3_pair
    d1 = Decomposition(l, r)
    d2 = Decomposition(r, l)
    decompose(d1)
    decompose(d2)
    assert Counter(p.hw for p in d1.found) == Counter(p.hw for p in d2.found)


def test_weight_multiset_is_partitioned(su3_pair):
    l, r = su3_pair
    d = Decomposition(l, r)
    decompose(d)
    got = {}
    for p in d.found:
        for w, states in p.by_weight.items():
            got[w] = got.get(w, 0) + len(states)
    want = {}
    for wa, la_ in l.labels_by_weight.items():
        for wb, rb_ in r.labels_by_weight.items():
            w = tuple(x + y for x, y in zip(wa, wb))
            want[w] = want.get(w, 0) + len(la_) * len(rb_)
    assert got == want


def test_check_dims_detects_truncation(su3_pair):
    l, r = su3_pair
    d = Decomposition(l, r)
    decompose(d)
    d.found.pop()
    assert not check_dims(d)


def test_mismatched_algebras_refused():
    with pytest.raises(ValueError):
        Decomposition(new_generic_irrep(A2, (1, 0)), new_generic_irrep(B2, (1, 0)))


# -------------------------------------------------------------- result

def test_result_strings(su3_pair):
    l, r = su3_pair
    d = Decomposition(l, r)
    assert result(d) == "SU(3): (1,0,)3 x (0,1,)3 = "
    decompose(d)
    assert result(d).splitlines() == [
        "Dimensions match.",
        "Clebsch-Gordan decomposition successfully done!",
        "SU(3): (1,0,)3 x (0,1,)3 = ",
        "(1,1,)8",
        "(0,0,)1",
    ]


# ------------------------------------------------------------- prepare

def test_prepare_triplet_matches_generic():
    f = new_generic_irrep(A1, (1,))
    d = Decomposition(f, f)
    decompose(d)
    data = prepare(d.found[0], f, f)
    imp = new_imported_irrep(A1, data)
    gen = new_generic_irrep(A1, (2,))
    assert imp.kets == gen.kets
    for lab in gen.kets:
        assert imp.lower(1, lab) == gen.lower(1, lab)
    imp.check_consistency()


def test_prepare_octet(su3_pair):
    l, r = su3_pair
    d = Decomposition(l, r)
    decompose(d)
    data = prepare(d.found[0], l, r)
    imp = new_imported_irrep(A2, data)
    gen = new_generic_irrep(A2, (1, 1))
    assert imp.kets == gen.kets
    # zero-block scalar product agrees with the adjoint formula
    assert imp.scalar_product(4, 5) == field(Fraction(1, 2))
    imp.check_consistency()
    # the prepared zero states are E-2 E-1|hw> and E-1 E-2|hw> normalized,
    # i.e. the generic |0_2>, |0_1> in that order; lowering strengths match
    s2 = field_sqrt(field(2))
    inv_s2 = field_sqrt(field(Fraction(1, 2)))
    assert imp.lower(1, 4).terms == [(inv_s2, 7)]
    assert imp.lower(2, 4).terms == [(s2, 6)]
    assert imp.lower(1, 5).terms == [(s2, 7)]
    assert imp.lower(2, 5).terms == [(inv_s2, 6)]


def test_prepare_singlet_trivial(su3_pair):
    l, r = su3_pair
    d = Decomposition(l, r)
    decompose(d)
    data = prepare(d.found[1], l, r)
    imp = new_imported_irrep(A2, data)
    assert imp.dim == 1
    assert imp.lower(1, 1).is_zero() and imp.lower(2, 1).is_zero()
    imp.check_consistency()


def test_prepare_requires_descended(su3_pair):
    l, r = su3_pair
    with pytest.raises(ConsistencyError):
        prepare(ProductIrrep(unit((1, 1))), l, r)


def normalized_state(p, irrep, a, l, r):
    """The unit product state of label a: the descended state of its weight
    and degeneracy index, normalized, with its leading coefficient
    positive."""
    ket = irrep.kets[a]
    s = p.by_weight[ket.dynkin][ket.deg_index - 1]
    sign = field(s.terms[0][0].sign())
    return s.scaled(sign / field_sqrt(product_scp(s, s, l, r)))


@pytest.mark.parametrize(
    "la, left, right",
    [
        (A2, (1, 1), (1, 1)),  # two octets, degenerate zero weight
        (G2, (1, 0), (1, 0)),
        (D5, (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),  # SO(10) 16 x 16bar
    ],
)
def test_prepared_lowering_reproduces_product_states(la, left, right):
    # E_-i applied to each normalized product state must equal the sum the
    # lowering table gives, term by term; a missing entry means zero
    l, r = new_generic_irrep(la, left), new_generic_irrep(la, right)
    d = Decomposition(l, r)
    decompose(d)
    for p in d.found:
        irrep, states = prepare_with_states(p, l, r)
        assert set(states) == set(irrep.kets)
        state_of = {a: normalized_state(p, irrep, a, l, r) for a in irrep.kets}
        for a, sa in state_of.items():
            for i in range(1, la.rank + 1):
                want = LabeledVector()
                for c, t in irrep.lower(i, a).terms:
                    want = want + state_of[t].scaled(c)
                assert product_lower(sa, i, l, r) == want, (p.hw, a, i)


def test_prepare_error_names_algebra_and_irrep(su3_pair):
    l, r = su3_pair
    p = descend_irrep(ProductIrrep(unit((1, 1))), l, r)
    # cut the last level off the descent itself: the views are read-only
    p._levels.pop()
    for w in p.weights.pop():
        p._by_weight.pop(w, None)
    with pytest.raises(ConsistencyError, match="lowering left the module") as exc:
        prepare(p, l, r)
    msg = str(exc.value)
    assert "SU(3)" in msg and "(1, 1)" in msg


def _octet_square_27():
    oc = new_generic_irrep(A2, (1, 1))
    d = Decomposition(oc, oc)
    decompose(d)
    return d.found[0], oc


def test_prepare_checks_a_lowering_into_a_one_state_weight():
    # a lowering the descent did not keep, into a weight holding one state,
    # is read as a multiple of that state only once it is shown to be one:
    # with that state corrupted, prepare must refuse it
    p, oc = _octet_square_27()
    tables = tensor._int_tables(oc.rational_form(), oc.rational_form())
    A = cartan(A2)
    reached = set()  # one-state weights that a kept-free pair lowers into
    for lev, origins in enumerate(p._origins):
        kept = {(j, i) for j, i, _ in origins}
        for j, ((v, _), w) in enumerate(zip(p._levels[lev], p.weights[lev])):
            for i, (_, low_l, low_r) in enumerate(tables, 1):
                w2 = tuple(x - y for x, y in zip(w, A[i - 1]))
                if ((j, i) not in kept and len(p._by_weight.get(w2, ())) == 1
                        and tensor._lower(v, low_l, low_r)):
                    reached.add(w2)
    w2 = min(w for w in reached if len(p._by_weight[w][0][0]) > 1)
    prepare(p, oc, oc)  # untouched, it passes
    (v, sigma), = p._by_weight[w2]
    k = max(v)
    p._by_weight[w2] = [({**v, k: 2 * v[k]}, sigma)]  # one entry doubled
    with pytest.raises(ConsistencyError, match="is outside the module") as exc:
        prepare(p, oc, oc)
    assert "SU(3) irrep (2, 2)" in str(exc.value)


def test_prepare_lowers_no_pair_the_descent_kept(monkeypatch):
    # the 27 has 26 states below its top, each kept from one (parent, root)
    # pair; prepare reads those and lowers only the other 27*2 - 26 pairs
    p, oc = _octet_square_27()
    calls = {"lower": 0}
    real = tensor._lower

    def counting(*args):
        calls["lower"] += 1
        return real(*args)

    monkeypatch.setattr(tensor, "_lower", counting)
    prepare(p, oc, oc)
    assert calls["lower"] == 27 * 2 - 26


def test_prepare_undescended_names_algebra(su3_pair):
    l, r = su3_pair
    with pytest.raises(ConsistencyError, match="needs a descended irrep") as exc:
        prepare(ProductIrrep(unit((1, 1))), l, r)
    assert "SU(3)" in str(exc.value)


def test_descent_multiplicity_error_names_algebra_and_irrep(su3_pair, monkeypatch):
    # move one state of the octet's zero weight to its highest weight: the
    # total still matches the Weyl dimension, two weights do not
    def shifted(la, hw):
        moved = {(1, 1): 2, (0, 0): 1}
        return [
            replace(rec, degeneracy=moved.get(rec.dynkin, rec.degeneracy))
            for rec in freudenthal(la, hw)
        ]

    monkeypatch.setattr(tensor, "freudenthal", shifted)
    l, r = su3_pair
    with pytest.raises(ConsistencyError, match="multiplicity is") as exc:
        descend_irrep(ProductIrrep(unit((1, 1))), l, r)
    msg = str(exc.value)
    assert "SU(3)" in msg and "(1, 1)" in msg


def test_descent_errors_name_the_product(su3_pair, monkeypatch):
    def shifted(la, hw):
        moved = {(1, 1): 2, (0, 0): 1}
        return [
            replace(rec, degeneracy=moved.get(rec.dynkin, rec.degeneracy))
            for rec in freudenthal(la, hw)
        ]

    monkeypatch.setattr(tensor, "freudenthal", shifted)
    l, r = su3_pair
    with pytest.raises(ConsistencyError) as exc:
        descend_irrep(ProductIrrep(unit((1, 1))), l, r)
    # the per-weight check runs first, over every weight, the highest too
    assert str(exc.value) == (
        "SU(3) (1,0) x (0,1): irrep (1, 1): weight (1, 1) holds 1 states, "
        "multiplicity is 2"
    )


def test_descent_reports_a_weight_it_never_reached(su3_pair, monkeypatch):
    # Freudenthal without the octet's zero weight: nothing lowers into
    # (0,0), so (1,-2) and (-2,1), reached only through it, stay empty
    def dropped(la, hw):
        return [rec for rec in freudenthal(la, hw) if rec.dynkin != (0, 0)]

    monkeypatch.setattr(tensor, "freudenthal", dropped)
    l, r = su3_pair
    with pytest.raises(ConsistencyError) as exc:
        descend_irrep(ProductIrrep(unit((1, 1))), l, r)
    assert str(exc.value) == (
        "SU(3) (1,0) x (0,1): irrep (1, 1): weight (1, -2) holds 0 states, "
        "multiplicity is 1"
    )


def test_descent_weyl_total_names_the_product(su3_pair, monkeypatch):
    # every weight holds its claimed multiplicity, one fewer than the true
    # one at (0,0): only the Weyl dimension, a formula of its own, catches it
    def short(la, hw):
        return [replace(rec, degeneracy=1) if rec.dynkin == (0, 0) else rec
                for rec in freudenthal(la, hw)]

    monkeypatch.setattr(tensor, "freudenthal", short)
    l, r = su3_pair
    with pytest.raises(ConsistencyError) as exc:
        descend_irrep(ProductIrrep(unit((1, 1))), l, r)
    assert str(exc.value) == (
        "SU(3) (1,0) x (0,1): descent of irrep (1, 1) produced 7 states, "
        "Weyl dimension is 8"
    )


def test_start_outside_the_raising_kernel_names_the_product(su3_pair):
    # the zero-weight state F_2 F_1 of the triplet pair: before the cap,
    # its descent overflowed; now the raising kernel refuses it up front
    l, r = su3_pair
    z1 = product_lower(product_lower(unit((1, 1)), 1, l, r), 2, l, r)
    with pytest.raises(ConsistencyError) as exc:
        descend_irrep(ProductIrrep(z1), l, r)
    assert str(exc.value) == (
        "SU(3) (1,0) x (0,1): the given state at weight (0, 0) is not a "
        "highest-weight vector: raising it by root 1 does not give zero"
    )
    # the singlet, a true highest-weight vector at the same weight, passes
    d = Decomposition(l, r)
    decompose(d)
    p = descend_irrep(ProductIrrep(d.found[1].hw_state), l, r)
    assert (p.hw, p.dim) == ((0, 0), 1)


def test_descent_skips_full_and_outside_weights(monkeypatch):
    # the 27 of SU(3) 8 x 8: the uncapped descent lowered each of its 27
    # states by both roots, 54 candidates; the capped one lowers a state
    # only into a weight with room, so one candidate per kept state below
    # the top plus the few found dependent before a degenerate weight fills
    calls = {"lower": 0}
    real = tensor._lower

    def counting(*args):
        calls["lower"] += 1
        return real(*args)

    oc = new_generic_irrep(A2, (1, 1))
    d = Decomposition(oc, oc)
    decompose(d)
    monkeypatch.setattr(tensor, "_lower", counting)
    p = descend_irrep(ProductIrrep._from_vector(d.found[0]._hw_vec, (1, 1)),
                      oc, oc)
    assert p.dim == 27
    assert 26 <= calls["lower"] < 54


def test_prepared_g2_adjoint_consistency():
    v7 = new_generic_irrep(G2, (1, 0))
    d = Decomposition(v7, v7)
    decompose(d)
    adj = next(p for p in d.found if p.hw == (0, 1))
    imp = new_imported_irrep(G2, prepare(adj, v7, v7))
    assert imp.dim == 14
    imp.check_consistency()


# ------------------------------------------------------------ rendering

def test_render_singlet(su3_pair):
    l, r = su3_pair
    d = Decomposition(l, r)
    decompose(d)
    s = render_states(d.found[1], l, r)
    assert s.startswith("[[[(")
    assert '("1/3*sqrt(3)", ("(1,0,)1", "(-1,0,)1"))' in s
    assert '("-1/3*sqrt(3)", ("(-1,1,)1", "(1,-1,)1"))' in s
    m = render_states(d.found[1], l, r, fmt="mathematica")
    assert "Sqrt[3]/3" in m
    t = render_states(d.found[1], l, r, fmt="tex")
    assert "\\sqrt{3}" in t


# --------------------------------------------- orthogonality, completeness

def _su3_27():
    oc = new_generic_irrep(A2, (1, 1))
    d = Decomposition(oc, oc)
    decompose(d)
    return new_imported_irrep(A2, prepare(d.found[0], oc, oc))


@pytest.mark.parametrize(
    "case", ["su3-27x27", "g2-7x7", "so10-16x16bar"],
)
def test_states_orthogonal_and_complete_per_weight(case):
    # through the public product_scp: states of different irreps are
    # orthogonal, and at every weight the found states span the product
    # weight space (Gram rank == number of basis pairs)
    if case == "su3-27x27":
        l = r = _su3_27()
    elif case == "g2-7x7":
        l = r = new_generic_irrep(G2, (1, 0))
    else:
        l = new_generic_irrep(D5, (0, 0, 0, 1, 0))
        r = new_generic_irrep(D5, (0, 0, 0, 0, 1))
    d = Decomposition(l, r)
    decompose(d)
    at = {}  # weight -> [(irrep index, state)]
    for k, p in enumerate(d.found):
        for w, states in p.by_weight.items():
            at.setdefault(w, []).extend((k, s) for s in states)
    assert sorted(at) == sorted(
        {tuple(x + y for x, y in zip(wa, wb))
         for wa in l.labels_by_weight for wb in r.labels_by_weight}
    )
    for w, entries in at.items():
        m = len(entries)
        gram = [[None] * m for _ in range(m)]
        for i, (k1, s1) in enumerate(entries):
            for j in range(i, m):
                k2, s2 = entries[j]
                v = product_scp(s1, s2, l, r)
                if k1 != k2:
                    assert v == ZERO, (w, k1, k2)
                gram[i][j] = gram[j][i] = v
        assert _field_rank(gram) == len(basis_product(d, w)) == len(entries), w


@pytest.mark.parametrize("case", ["e6-27x27bar", "su3-27x8"])
def test_decompose_runs_without_field_arithmetic(case, monkeypatch):
    from liecg.exactnum import FieldElem

    if case == "e6-27x27bar":
        E6 = LieAlgebra("E6", 6)
        l = new_generic_irrep(E6, (1, 0, 0, 0, 0, 0))
        r = new_generic_irrep(E6, (0, 0, 0, 0, 1, 0))
        want = [((1, 0, 0, 0, 1, 0), 650), ((0, 0, 0, 0, 0, 1), 78),
                ((0, 0, 0, 0, 0, 0), 1)]
    else:
        l, r = _su3_27(), new_generic_irrep(A2, (1, 1))
        want = [((3, 3), 64), ((4, 1), 35), ((1, 4), 35), ((2, 2), 27),
                ((2, 2), 27), ((3, 0), 10), ((0, 3), 10), ((1, 1), 8)]

    def boom(self, other):
        raise AssertionError("FieldElem arithmetic inside decompose")

    monkeypatch.setattr(FieldElem, "__mul__", boom)
    monkeypatch.setattr(FieldElem, "__add__", boom)
    d = Decomposition(l, r)
    decompose(d)
    monkeypatch.undo()
    assert [(p.hw, p.dim) for p in d.found] == want
    # the guard is live: a FieldElem sum outside decompose would have raised
    with pytest.raises(AssertionError):
        monkeypatch.setattr(FieldElem, "__add__", boom)
        ONE + ONE


# ----------------------------------------------- plan and single-irrep build

@pytest.fixture(scope="module")
def su3_27(tmp_path_factory):
    """The SU(3) 27 as the benchmark fixture makes it: irrep 1 of the dump
    of 8 x 8 (tests/data holds no 27)."""
    from liecg import cli

    out = tmp_path_factory.mktemp("su3_octets")
    assert cli.main(["-su", "3", "--decompose", "11x11", "--dump", str(out)]) == 0
    return cli._import_irrep(A2, str(out / "irrep_1.json"))


# (family, rank, left, right): all nine families; A2 8x8, A3 15x15,
# B2 16x16, D4 56x56 and G2 27x27 have outer multiplicity 2
PLAN_CASES = [
    ("A", 1, (3,), (2,)),
    ("A", 2, (1, 1), (1, 1)),
    ("A", 3, (1, 0, 1), (1, 0, 1)),
    ("B", 2, (1, 1), (1, 1)),
    ("B", 3, (0, 0, 1), (1, 0, 1)),
    ("C", 2, (1, 1), (0, 1)),
    ("C", 3, (0, 1, 0), (0, 1, 0)),
    ("D", 4, (1, 0, 1, 0), (1, 0, 0, 1)),
    ("D", 5, (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
    ("G2", 2, (2, 0), (2, 0)),
    ("F4", 4, (0, 0, 0, 1), (0, 0, 0, 1)),
    ("E6", 6, (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
    ("E7", 7, (0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1, 0)),
]


@pytest.mark.parametrize(
    "fam, rank, left, right", PLAN_CASES,
    ids=[f"{f if len(f) > 1 else f + str(n)}-"
         f"{''.join(map(str, a))}x{''.join(map(str, b))}"
         for f, n, a, b in PLAN_CASES],
)
def test_plan_is_the_discovery_order(fam, rank, left, right):
    la = LieAlgebra(fam, rank)
    l, r = new_generic_irrep(la, left), new_generic_irrep(la, right)
    d = Decomposition(l, r)
    decompose(d)
    assert tensor._plan(l, r) == [p.hw for p in d.found]


def test_plan_of_degenerate_su3_27_squared(su3_27):
    d = Decomposition(su3_27, su3_27)
    decompose(d)
    plan = tensor._plan(su3_27, su3_27)
    assert plan == [p.hw for p in d.found]
    assert len(plan) == 19 and max(Counter(plan).values()) >= 3


def test_plan_of_e8_adjoint_square():
    # the full decomposition is acceptance criterion 4; its irreps in
    # discovery order are 27000 + 30380 + 3875 + 248 + 1
    E8 = LieAlgebra("E8", 8)
    r248 = new_generic_irrep(E8, (0, 0, 0, 0, 0, 0, 1, 0))
    plan = tensor._plan(r248, r248)
    assert plan == [
        (0, 0, 0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 0, 1, 0, 0),
        (1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
    ]
    assert [weyl_dim(E8, w) for w in plan] == [27000, 30380, 3875, 248, 1]


def _otimes_irreps(l, r, monkeypatch):
    """The ProductIrrep that multitensor.otimes builds for every k."""
    import liecg.multitensor as mt

    built = []
    real = mt.prepare_with_states

    def capture(p, a, b):
        built.append(p)
        return real(p, a, b)

    monkeypatch.setattr(mt, "prepare_with_states", capture)
    k = 1
    while True:
        try:
            mt.otimes(mt.wrap(l), mt.wrap(r), k)
        except ValueError:
            return built
        k += 1


@pytest.mark.parametrize("case", ["su3-8x8", "b2-16x16", "g2-27x27", "su3-27x8"])
def test_otimes_builds_the_irrep_decompose_finds(case, su3_27, monkeypatch):
    if case == "su3-8x8":
        l = r = new_generic_irrep(A2, (1, 1))
    elif case == "b2-16x16":
        l = r = new_generic_irrep(B2, (1, 1))
    elif case == "g2-27x27":
        l = r = new_generic_irrep(G2, (2, 0))
    else:
        l, r = su3_27, new_generic_irrep(A2, (1, 1))
    d = Decomposition(l, r)
    decompose(d)
    built = _otimes_irreps(l, r, monkeypatch)
    assert len(built) == len(d.found)
    assert max(Counter(p.hw for p in d.found).values()) >= 2
    for p, q in zip(built, d.found):
        assert p._hw_vec == q._hw_vec
        assert p._scale == q._scale
        assert p._levels == q._levels


def test_otimes_out_of_range_counts_from_the_plan(monkeypatch):
    import liecg.multitensor as mt

    def no_descent(*args):
        raise AssertionError("otimes descended before checking k")

    monkeypatch.setattr(tensor, "descend_irrep", no_descent)
    oc = mt.wrap(new_generic_irrep(A2, (1, 1)))
    for k in (0, 7):
        with pytest.raises(ValueError) as exc:
            mt.otimes(oc, oc, k)
        assert str(exc.value) == (
            f"irrep index {k} out of range: the product has 6 irreps")


def test_plan_dimension_error_names_the_product(monkeypatch, capsys):
    # the octet claims a third zero-weight state, so 3 x 3bar plans no
    # singlet and the dimensions come out at 8 of 9
    from liecg import cli

    def greedy(la, hw):
        recs = freudenthal(la, hw)
        if hw != (1, 1):
            return recs
        return [replace(rec, degeneracy=3) if rec.dynkin == (0, 0) else rec
                for rec in recs]

    monkeypatch.setattr(tensor, "freudenthal", greedy)
    l, r = new_generic_irrep(A2, (1, 0)), new_generic_irrep(A2, (0, 1))
    want = "SU(3) (1,0) x (0,1): dimensions do not add up: 8 != 9"
    with pytest.raises(DecompositionError) as exc:
        decompose(Decomposition(l, r))
    assert str(exc.value) == want
    assert cli.main(["-su", "3", "--decompose", "10x01"]) == 2
    assert want in capsys.readouterr().err


def test_empty_kernel_error_names_the_product(monkeypatch, tmp_path, capsys):
    # the 27 claims two (0,3) states and no (3,0) state: the dimensions
    # still add up (27 + 10 + 10 + 8 + 8 + 1), but the plan's second 10 at
    # (3,0) has no highest-weight vector; otimes never descends the 27
    import liecg.multitensor as mt
    from liecg import cli

    def swapped(la, hw):
        recs = freudenthal(la, hw)
        if hw != (2, 2):
            return recs
        moved = {(3, 0): 0, (0, 3): 2}
        return [replace(rec, degeneracy=moved.get(rec.dynkin, rec.degeneracy))
                for rec in recs]

    monkeypatch.setattr(tensor, "freudenthal", swapped)
    oc = new_generic_irrep(A2, (1, 1))
    assert tensor._plan(oc, oc) == [
        (2, 2), (3, 0), (3, 0), (1, 1), (1, 1), (0, 0)]
    want = "SU(3) (1,1) x (1,1): no highest-weight vector at weight (3,0)"
    with pytest.raises(DecompositionError) as exc:
        mt.otimes(mt.wrap(oc), mt.wrap(oc), 3)
    assert str(exc.value) == want
    script = tmp_path / "s.lie"
    script.write_text(
        "algebra a 2\nirrep r8 11\nwrap t r8\notimes p t t 3\n")
    assert cli.main(["--script", str(script)]) == 2
    assert want in capsys.readouterr().err
