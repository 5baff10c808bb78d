"""Label-tree tensor products: wrap/otimes composition, filtering, basis
changes, symmetry tests, and the SU(4) four-fold pipeline."""

from fractions import Fraction
from functools import cache

import pytest

from liecg.exactnum import ONE, ZERO, field, field_sqrt, number
from liecg.linalg import LabeledVector, SingularMatrixError, gram_orthogonalize
from liecg.liealg import LieAlgebra
from liecg.irrep import new_generic_irrep
from liecg.multitensor import (
    chbasis,
    chbasis_list,
    comm,
    e_lower,
    expand,
    filter_factor,
    is_sym,
    otimes,
    scale,
    scalar_products,
    scp,
    tensor_coeff,
    tree_leaves,
    tree_str,
    untree,
    wrap,
)

A1 = LieAlgebra("A", 1)
A2 = LieAlgebra("A", 2)
A3 = LieAlgebra("A", 3)
G2 = LieAlgebra("G2", 2)


def unit(label):
    return LabeledVector.unit(label)


# ----------------------------------------------------------- wrap/trees

def test_wrap_is_identity():
    r = new_generic_irrep(A2, (1, 0))
    t = wrap(r)
    assert t.nfactors == 1
    for lab in (1, 2, 3):
        assert expand(t, lab) == unit(lab)
    assert untree(t)[0] == (1, '[("1", "1")]')
    with pytest.raises(ValueError):
        expand(t, 4)


def test_tree_helpers():
    tr = (((4, 3), 1), -1)
    assert tree_str(tr) == "(((4,3),1),-1)"
    assert tree_leaves(tr) == [4, 3, 1, -1]
    assert tree_str(5) == "5"


# --------------------------------------------------------------- otimes

def test_otimes_singlet_of_3_3bar():
    l = wrap(new_generic_irrep(A2, (1, 0)))
    r = wrap(new_generic_irrep(A2, (0, 1)))
    s = otimes(l, r, 2)
    assert s.irrep.hw == (0, 0) and s.irrep.dim == 1
    e = expand(s, 1)
    assert [tr for _, tr in e.terms] == [(1, 3), (2, 2), (3, 1)]
    with pytest.raises(ValueError):
        otimes(l, r, 3)
    with pytest.raises(ValueError):
        otimes(l, r, 0)


def expansion_gram(t):
    """<e_s|e_t> over all states of the node, from expand and the factors'
    own scalar products only: the factor bases need not be orthonormal
    (degenerate weight blocks), so every pair of leaves is weighed."""
    sps = [cache(lambda a, b, r=r: r.scalar_product(a, b)) for r in t.factors]
    exps = {s: [(tree_leaves(tr), c) for c, tr in expand(t, s).terms]
            for s in t.irrep.kets}
    gram = {}
    for s, es in exps.items():
        for s2, es2 in exps.items():
            acc = ZERO
            for la, ca in es:
                for lb, cb in es2:
                    x = ca * cb
                    for sp, a, b in zip(sps, la, lb):
                        x = x * sp(a, b)
                        if not x:
                            break
                    acc = acc + x
            gram[s, s2] = acc
    return gram


def su3_chain(k):
    # (3 x 8)_1 x 8: the 15 = (2,1) times the octet, three factors
    r3 = wrap(new_generic_irrep(A2, (1, 0)))
    r8 = wrap(new_generic_irrep(A2, (1, 1)))
    return otimes(otimes(r3, r8, 1), r8, k)


def test_otimes_expansions_are_unit_norm():
    # the expansion of every state of every irrep of a product is a unit
    # vector, orthogonal to the states of other weights; inside a
    # degenerate weight block it keeps the irrep's own scalar products
    r8 = wrap(new_generic_irrep(A2, (1, 1)))
    r7 = wrap(new_generic_irrep(G2, (1, 0)))
    nodes = [otimes(r8, r8, k) for k in range(1, 7)]
    nodes += [otimes(r7, r7, k) for k in range(1, 5)]
    nodes += [su3_chain(1), su3_chain(5)]
    assert sum(t.irrep.dim for t in nodes[:6]) == 64
    assert sum(t.irrep.dim for t in nodes[6:10]) == 49
    assert [t.nfactors for t in nodes[10:]] == [3, 3]
    overlaps = 0
    for t in nodes:
        for (s, s2), g in expansion_gram(t).items():
            assert g == t.irrep.scalar_product(s, s2), (t, s, s2)
            if s == s2:
                assert g == ONE
            elif t.irrep.weight_of[s] != t.irrep.weight_of[s2]:
                assert g == ZERO
            elif g:
                overlaps += 1
    assert overlaps > 0


def test_symmetry_of_two_factor_products():
    f = wrap(new_generic_irrep(A3, (1, 0, 0)))
    assert is_sym(otimes(f, f, 1), 1, 2) == 1  # the 10
    assert is_sym(otimes(f, f, 2), 1, 2) == -1  # the 6
    assert is_sym(otimes(f, f, 1), 2, 1) == 1


def test_is_sym_refuses_one_factor_named_twice():
    # a position swapped with itself is no exchange: refused, also on a
    # node whose states all vanish
    f = wrap(new_generic_irrep(A3, (1, 0, 0)))
    t = otimes(f, f, 1)
    for node in (t, scale(t, ZERO)):
        for i in (1, 2):
            with pytest.raises(ValueError, match=f"factor {i} is named twice"):
                is_sym(node, i, i)


def test_is_sym_rejects_distinct_irreps():
    l = wrap(new_generic_irrep(A2, (1, 0)))
    r = wrap(new_generic_irrep(A2, (0, 1)))
    s = otimes(l, r, 2)
    with pytest.raises(ValueError):
        is_sym(s, 1, 2)


def test_is_sym_refuses_a_basis_change_on_one_factor():
    # both octets of 8 x 8 filtered to the zero-weight block 4, 5; a chbasis
    # of position 2 alone leaves the two positions in different bases,
    # while the same chbasis on both keeps the verdict
    r8 = new_generic_irrep(A2, (1, 1))
    a = wrap(r8)
    t = filter_factor(filter_factor(otimes(a, a, 1), 1, [4, 5]), 2, [4, 5])
    v = unit(4) + unit(5)
    v = v.scaled(field_sqrt(scp(r8, v, v)).invert())
    rest = gram_orthogonalize(lambda x, y: scp(r8, x, y), [v], [unit(4)])
    trafo = chbasis_list([v] + rest, 3)
    one = chbasis(t, 2, trafo)
    with pytest.raises(ValueError,
                       match="factors 1 and 2 carry the irrep .* in different"):
        is_sym(one, 1, 2)
    with pytest.raises(ValueError, match="in different bases"):
        is_sym(one, 2, 1)
    both = chbasis(one, 1, trafo)
    assert is_sym(t, 1, 2) == is_sym(both, 1, 2) == is_sym(both, 2, 1) == 1
    # a different change on each position is refused too
    swapped = chbasis_list(rest + [v], 3)
    with pytest.raises(ValueError, match="in different bases"):
        is_sym(chbasis(chbasis(t, 1, trafo), 2, swapped), 1, 2)


# ----------------------------------------------------- filter / chbasis

@pytest.fixture(scope="module")
def octet_node():
    l = wrap(new_generic_irrep(A2, (1, 0)))
    r = wrap(new_generic_irrep(A2, (0, 1)))
    return otimes(l, r, 1)


def test_filter_identity_and_empty(octet_node):
    t = octet_node
    all_labels = list(range(1, 4))
    ident = filter_factor(t, 1, all_labels)
    for lab in t.irrep.kets:
        assert expand(ident, lab) == expand(t, lab)
    nothing = filter_factor(t, 2, [])
    assert all(expand(nothing, lab).is_zero() for lab in t.irrep.kets)
    with pytest.raises(ValueError):
        filter_factor(t, 3, [1])


def test_filter_composition_is_intersection(octet_node):
    t = octet_node
    a = filter_factor(filter_factor(t, 2, [1, 2]), 2, [2, 3])
    b = filter_factor(t, 2, [2])
    for lab in t.irrep.kets:
        assert expand(a, lab) == expand(b, lab)


def test_chbasis_identity_and_roundtrip(octet_node):
    t = octet_node
    ident = [(lab, unit(-lab)) for lab in (1, 2, 3)]
    back = [(-lab, unit(lab)) for lab in (1, 2, 3)]
    there = chbasis(t, 2, ident)
    again = chbasis(there, 2, back)
    for lab in t.irrep.kets:
        assert expand(again, lab) == expand(t, lab)


def test_chbasis_scaling_halves_coefficients(octet_node):
    t = octet_node
    # new basis vector -1 is twice the old label 1
    trafo = chbasis_list([unit(1).scaled(field(2))], 0)
    assert trafo == [(1, LabeledVector([(field(Fraction(1, 2)), -1)]))]
    kept = filter_factor(t, 2, [1])
    rotated = chbasis(kept, 2, trafo)
    for lab in t.irrep.kets:
        before = expand(kept, lab)
        after = expand(rotated, lab)
        for c, tr in before.terms:
            leaves = tree_leaves(tr)
            leaves[1] = -1
            assert after.get((leaves[0], -1)) == c * field(Fraction(1, 2))


def test_chbasis_missing_label_errors(octet_node):
    t = octet_node
    partial = [(1, unit(-1))]
    rot = chbasis(t, 2, partial)
    expand(rot, 1)  # hw pair only uses the mapped label
    with pytest.raises(ValueError):
        expand(rot, 2)  # reaches right-factor label 2, unmapped
    # after filtering to label 1 only, the partial trafo suffices
    ok = chbasis(filter_factor(t, 2, [1]), 2, partial)
    expand(ok, 1)


def test_chbasis_list_errors():
    with pytest.raises(ValueError):
        chbasis_list([unit(5)], 0)  # label outside 1..1
    with pytest.raises(SingularMatrixError):
        chbasis_list([unit(1) + unit(2), unit(1) + unit(2)], 0)
    assert chbasis_list([], 3) == []


# ------------------------------------------------------ operator helpers

def test_e_lower_and_comm():
    r = new_generic_irrep(A2, (1, 1))
    op1 = e_lower(r, 1)
    assert op1(unit(1)) == r.lower(1, 1)
    v = unit(1) + unit(4).scaled(field(3))
    assert op1(v) == r.lower(1, 1) + r.lower(1, 4).scaled(field(3))
    zero_op = comm(op1, op1)
    assert all(zero_op(unit(lab)).is_zero() for lab in r.kets)
    with pytest.raises(ValueError):
        e_lower(r, 3)


def test_scalar_products_gram():
    r15 = new_generic_irrep(A3, (1, 0, 1))
    g = scalar_products(r15, 7, 3)
    h = field(Fraction(1, 2))
    assert g == [[ONE, h, ZERO], [h, ONE, h], [ZERO, h, ONE]]
    with pytest.raises(ValueError):
        scalar_products(r15, 14, 3)


def test_expand_then_lower_equals_lower_then_expand(octet_node):
    # Leibniz action on leaves agrees with the imported irrep's lowering
    t = octet_node
    lf, rf = t.factors
    for lab in t.irrep.kets:
        for i in (1, 2):
            direct = LabeledVector()
            for c, (a, b) in expand(t, lab).terms:
                for c2, a2 in lf.lower(i, a).terms:
                    direct = direct + LabeledVector([(c * c2, (a2, b))])
                for c2, b2 in rf.lower(i, b).terms:
                    direct = direct + LabeledVector([(c * c2, (a, b2))])
            via_irrep = LabeledVector()
            for c, lab2 in t.irrep.lower(i, lab).terms:
                via_irrep = via_irrep + expand(t, lab2).scaled(c)
            assert direct == via_irrep


# ------------------------------------------------- singlet multiplicity

def count_singlets(factors, order):
    """Number of invariant states in a triple product, association
    given by order: 'left' = (a x b) x c, 'right' = a x (b x c)."""
    from liecg.tensor import Decomposition, decompose

    a, b, c = factors
    total = 0
    if order == "left":
        d = Decomposition(a.irrep, b.irrep)
    else:
        d = Decomposition(b.irrep, c.irrep)
    decompose(d)
    for k in range(1, len(d.found) + 1):
        if order == "left":
            dd = Decomposition(otimes(a, b, k).irrep, c.irrep)
        else:
            dd = Decomposition(a.irrep, otimes(b, c, k).irrep)
        decompose(dd)
        total += sum(1 for p in dd.found if p.dim == 1)
    return total


@pytest.mark.parametrize(
    "hws,expected",
    [
        ([(2,), (2,), (2,)], 1),  # three su(2) triplets: one singlet
        ([(1,), (1,), (2,)], 1),
        ([(1,), (1,), (1,)], 0),
    ],
)
def test_su2_triple_singlets_both_associations(hws, expected):
    nodes = [wrap(new_generic_irrep(A1, hw)) for hw in hws]
    assert count_singlets(nodes, "left") == expected
    assert count_singlets(nodes, "right") == expected


def test_su3_3cubed_singlet_both_associations():
    nodes = [wrap(new_generic_irrep(A2, (1, 0))) for _ in range(3)]
    assert count_singlets(nodes, "left") == 1
    assert count_singlets(nodes, "right") == 1


# ------------------------------------------------------- SU(4) pipeline

@pytest.fixture(scope="module")
def su4():
    r4 = new_generic_irrep(A3, (1, 0, 0))
    r6 = new_generic_irrep(A3, (0, 1, 0))
    r15 = new_generic_irrep(A3, (1, 0, 1))
    return r4, r6, r15


def su4_vev_trafo(r15):
    sing = LabeledVector(
        [(field(1), 7), (field(-2), 8), (field(3), 9)]
    ).scaled(number(1, 6, 6))
    bs = [unit(8), unit(9).scaled(number(1, 1, 3))]
    rest = gram_orthogonalize(lambda u, v: scp(r15, u, v), [sing], bs)
    return sing, chbasis_list([sing] + rest, 6)


def test_su4_singlet_direction(su4):
    _, _, r15 = su4
    sing, trafo = su4_vev_trafo(r15)
    assert scp(r15, sing, sing) == ONE
    assert e_lower(r15, 1)(sing).is_zero()
    assert e_lower(r15, 2)(sing).is_zero()
    assert not e_lower(r15, 3)(sing).is_zero()
    want = {
        7: [(-number(1, 1, 3), -3), (field(2), -2)],
        8: [(ONE, -2)],
        9: [(number(1, 3, 3), -3), (number(1, 3, 6), -1)],
    }
    assert {lab: vec.terms for lab, vec in trafo} == want


def test_su4_fourfold_singlets(su4):
    r4, r6, r15 = su4
    t4, t6, t15 = wrap(r4), wrap(r6), wrap(r15)
    sing, trafo = su4_vev_trafo(r15)
    tt1 = otimes(otimes(otimes(t4, t4, 1), t6, 2), t15, 7)
    tt2 = otimes(otimes(otimes(t4, t4, 2), t6, 2), t15, 7)
    assert tt1.irrep.dim == 1 and tt2.irrep.dim == 1
    assert is_sym(tt1, 1, 2) == 1
    assert is_sym(tt2, 1, 2) == -1

    def vev_terms(tt, c):
        node = scale(
            filter_factor(chbasis(filter_factor(tt, 4, [7, 8, 9]), 4, trafo),
                          4, [-1]),
            c,
        )
        return {tr: co for co, tr in expand(node, 1).terms}

    got1 = vev_terms(tt1, number(3, 1, 10))
    assert got1 == {
        (((4, 3), 1), -1): -ONE, (((3, 4), 1), -1): -ONE,
        (((4, 2), 2), -1): ONE, (((2, 4), 2), -1): ONE,
        (((4, 1), 4), -1): -ONE, (((1, 4), 4), -1): -ONE,
    }
    got2 = vev_terms(tt2, number(6, 1, 5))
    assert len(got2) == 12
    # antisymmetry pairs off the 12 terms with opposite signs
    for (((a, b), x), m), co in got2.items():
        assert got2[(((b, a), x), m)] == -co
    paper_terms = {
        (((1, 3), 5), -1), (((3, 1), 5), -1), (((1, 2), 6), -1),
        (((2, 1), 6), -1), (((3, 4), 1), -1), (((4, 3), 1), -1),
        (((2, 4), 2), -1), (((4, 2), 2), -1), (((1, 4), 4), -1),
        (((4, 1), 4), -1), (((2, 3), 3), -1), (((3, 2), 3), -1),
    }
    assert set(got2) == paper_terms
    assert all(co == ONE or co == -ONE for co in got2.values())


def test_tensor_coeff(su4):
    r4, _, _ = su4
    t = otimes(wrap(r4), wrap(r4), 2)
    e = expand(t, 1)
    c, tr = e.terms[0]
    assert tensor_coeff(t, 1, list(tr)) == c
    assert tensor_coeff(t, 1, [4, 4]) == ZERO
    with pytest.raises(ValueError):
        tensor_coeff(t, 1, [1, 2, 3])


def test_scale(octet_node):
    t = scale(octet_node, field(5))
    for lab in t.irrep.kets:
        assert expand(t, lab) == expand(octet_node, lab).scaled(field(5))
