"""Oracle for the multi-factor expansions: the FieldElem closures they
replaced.

`wrap`, `otimes`, `filter_factor`, `chbasis`, `scale`, `is_sym` and
`tensor_coeff` are kept here as they were, expanding every state over label
trees in FieldElem arithmetic and sharing no code with the rational
expansion of `liecg.multitensor`.  Both take the irrep of an `otimes` from
`prepare_with_states`; the oracle rebuilds each of its unit states from the
descended product states.  The same pipelines are built with both; every
state must expand to the same terms in the same order, with the same
rendering, and is_sym and tensor_coeff must agree.
"""

from types import SimpleNamespace

import pytest

import liecg.multitensor as mt
from liecg.exactnum import FieldElem, field, field_sqrt, number, parse_field
from liecg.irrep import Irrep, new_generic_irrep, new_imported_irrep
from liecg.linalg import LabeledVector, gram_orthogonalize
from liecg.liealg import LieAlgebra
from liecg.tensor import (
    Decomposition,
    decompose,
    prepare,
    prepare_with_states,
    product_scp,
)

A2 = LieAlgebra("A", 2)
A3 = LieAlgebra("A", 3)
G2 = LieAlgebra("G2", 2)


# ------------------------------------------- the FieldElem expansion, as it was

def tree_leaves(tree) -> list:
    """Leaf labels left to right."""
    if isinstance(tree, tuple):
        return tree_leaves(tree[0]) + tree_leaves(tree[1])
    return [tree]


def _graft(shape, it):
    """Rebuild a tree of the given shape taking leaves from the iterator."""
    if isinstance(shape, tuple):
        left = _graft(shape[0], it)
        return (left, _graft(shape[1], it))
    return next(it)


class TensorNode:
    """An irrep together with the expansion of its states over label trees."""

    def __init__(self, irrep: Irrep, fn, factors, shape):
        self.irrep = irrep
        self.factors = factors  # factor Irreps in leaf order
        self.shape = shape  # nested tuple, leaves are None placeholders
        self._fn = fn
        self._memo = {}

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    def expand(self, state: int) -> LabeledVector:
        if state not in self.irrep.kets:
            raise ValueError(f"no state labeled {state}")
        got = self._memo.get(state)
        if got is None:
            got = self._fn(state)
            self._memo[state] = got
        return got


def wrap(r: Irrep) -> TensorNode:
    """A single-factor node: each ket expands to its own leaf."""
    return TensorNode(r, LabeledVector.unit, [r], None)


def otimes(a: TensorNode, b: TensorNode, k: int) -> TensorNode:
    """Tensor two nodes and select the k-th irrep (1-based, construction
    order) of the decomposition of a.irrep x b.irrep."""
    d = Decomposition(a.irrep, b.irrep)
    decompose(d)
    if not 1 <= k <= len(d.found):
        raise ValueError(
            f"irrep index {k} out of range: the product has {len(d.found)} irreps"
        )
    p = d.found[k - 1]
    imp = prepare_with_states(p, a.irrep, b.irrep)[0]

    def fn(s):
        # the unit state of label s: the descended state of its weight and
        # degeneracy index, normalized, with its leading coefficient positive
        ket = imp.kets[s]
        v = p.by_weight[ket.dynkin][ket.deg_index - 1]
        sign = field(v.terms[0][0].sign())
        v = v.scaled(sign / field_sqrt(product_scp(v, v, a.irrep, b.irrep)))
        terms = []
        for c, (al, bl) in v.terms:
            for ca, ta in a.expand(al).terms:
                for cb, tb in b.expand(bl).terms:
                    terms.append((c * ca * cb, (ta, tb)))
        return LabeledVector(terms)

    return TensorNode(imp, fn, a.factors + b.factors, (a.shape, b.shape))


def _check_factor(t: TensorNode, factor: int):
    if not 1 <= factor <= t.nfactors:
        raise ValueError(
            f"factor {factor} out of range: the node has {t.nfactors} factors"
        )
    return factor - 1


def filter_factor(t: TensorNode, factor: int, keep) -> TensorNode:
    """Keep only terms whose leaf at the factor position is in keep.
    No renormalization is applied."""
    idx = _check_factor(t, factor)
    keep_set = set(keep)

    def fn(s):
        return LabeledVector(
            (c, tr) for c, tr in t.expand(s).terms
            if tree_leaves(tr)[idx] in keep_set
        )

    return TensorNode(t.irrep, fn, t.factors, t.shape)


def chbasis(t: TensorNode, factor: int, trafo) -> TensorNode:
    """Substitute leaf labels at the factor position through trafo, a list
    of (old label, LabeledVector over new labels).  Encountering a leaf
    missing from trafo is an error."""
    idx = _check_factor(t, factor)
    tmap = dict(trafo)

    def fn(s):
        terms = []
        for c, tr in t.expand(s).terms:
            leaves = tree_leaves(tr)
            sub = tmap.get(leaves[idx])
            if sub is None:
                raise ValueError(
                    f"label {leaves[idx]} at factor {factor} has no image "
                    "in the basis transformation"
                )
            for c2, new_lab in sub.terms:
                leaves2 = list(leaves)
                leaves2[idx] = new_lab
                terms.append((c * c2, _graft(tr, iter(leaves2))))
        return LabeledVector(terms)

    return TensorNode(t.irrep, fn, t.factors, t.shape)


def is_sym(t: TensorNode, f1: int, f2: int) -> int:
    """+1 / -1 if swapping the two factors fixes / negates every state's
    expansion, 0 for mixed or undecided symmetry."""
    i1 = _check_factor(t, f1)
    i2 = _check_factor(t, f2)
    fa, fb = t.factors[i1], t.factors[i2]
    if fa.algebra != fb.algebra or fa.hw != fb.hw:
        raise ValueError(
            f"factors {f1} and {f2} carry different irreps "
            f"({fa.hw} vs {fb.hw})"
        )
    verdict = 0
    for lab in t.irrep.kets:
        e = t.expand(lab)
        if e.is_zero():
            continue
        swapped = LabeledVector(
            (c, _graft(tr, iter(_swapped_leaves(tr, i1, i2))))
            for c, tr in e.terms
        )
        if swapped == e:
            v = 1
        elif swapped == -e:
            v = -1
        else:
            return 0
        if verdict == 0:
            verdict = v
        elif verdict != v:
            return 0
    return verdict


def _swapped_leaves(tr, i1, i2):
    leaves = tree_leaves(tr)
    leaves[i1], leaves[i2] = leaves[i2], leaves[i1]
    return leaves


def scale(t: TensorNode, c: FieldElem) -> TensorNode:
    return TensorNode(
        t.irrep, lambda s: t.expand(s).scaled(c), t.factors, t.shape
    )


def tensor_coeff(t: TensorNode, state: int, leaves) -> FieldElem:
    """Coefficient of the given leaf combination in a state's expansion."""
    if len(leaves) != t.nfactors:
        raise ValueError(
            f"expected {t.nfactors} leaf labels, got {len(leaves)}"
        )
    tr = _graft(t.shape, iter(leaves))
    return t.expand(state).get(tr)


OLD = SimpleNamespace(wrap=wrap, otimes=otimes, filter_factor=filter_factor,
                      chbasis=chbasis, scale=scale)


# -------------------------------------------------------------- comparison

def both(build):
    """The pipeline build(m) made with the rational and the oracle nodes."""
    return build(mt), build(OLD)


def assert_same(new, old):
    assert new.factors == old.factors and new.shape == old.shape
    assert new.irrep.dim == old.irrep.dim
    for s in sorted(old.irrep.kets):
        e_new, e_old = new.expand(s), old.expand(s)
        assert e_new.terms == e_old.terms, s
        assert repr(e_new) == repr(e_old), s
        # a leaf combination of each term, and one that is absent
        for c, tr in e_old.terms[:3]:
            leaves = tree_leaves(tr)
            assert mt.tensor_coeff(new, s, leaves) == c
        absent = [-99] * old.nfactors
        assert mt.tensor_coeff(new, s, absent) == tensor_coeff(old, s, absent)


def assert_same_symmetry(new, old):
    n = old.nfactors
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            fa, fb = old.factors[i - 1], old.factors[j - 1]
            if fa.hw == fb.hw:
                assert mt.is_sym(new, i, j) == is_sym(old, i, j), (i, j)


def irreps(la, *labels):
    return [new_generic_irrep(la, hw) for hw in labels]


def chain(factors, ks):
    """((f1 x f2)_k1 x f3)_k2 ... for both kinds of node, every node kept."""
    def build(m):
        nodes = [m.wrap(factors[0])]
        for f, k in zip(factors[1:], ks):
            nodes.append(m.otimes(nodes[-1], m.wrap(f), k))
        return nodes
    return build


# -------------------------------------------------------------- the cases

@pytest.mark.parametrize(
    "la, labels, ks",
    [
        (A2, [(2, 0), (1, 0), (1, 1), (0, 1)], [2, 1, 1]),
        (A2, [(1, 1), (1, 1), (1, 0), (1, 0)], [1, 2, 1]),
        (A3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)], [1, 2, 1]),
        (A3, [(0, 1, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0)], [1, 2, 2]),
        (G2, [(1, 0), (0, 1), (0, 1)], [3, 1]),  # sqrt(3) classes
        (G2, [(0, 1), (1, 0), (0, 1)], [3, 2]),
    ],
)
def test_chains(la, labels, ks):
    new, old = both(chain(irreps(la, *labels), ks))
    for n, o in zip(new, old):
        assert_same(n, o)
    assert_same_symmetry(new[-1], old[-1])


@pytest.mark.parametrize("ks", [(1, 1), (4, 4), (2, 3)])
def test_su3_octet_cubed(ks):
    r8 = new_generic_irrep(A2, (1, 1))
    new, old = both(chain([r8, r8, r8], ks))
    assert_same(new[-1], old[-1])
    assert_same_symmetry(new[-1], old[-1])


@pytest.mark.parametrize("ks", [(2, 3, 1), (3, 2, 2)])
def test_products_on_both_sides(ks):
    # (8 x 8) x (8 x 3): both children are products whose states carry a
    # radical class of their own
    r8, r3 = irreps(A2, (1, 1), (1, 0))

    def build(m):
        t8 = m.wrap(r8)
        left, right = m.otimes(t8, t8, ks[0]), m.otimes(t8, m.wrap(r3), ks[1])
        return [left, right, m.otimes(left, right, ks[2])]

    new, old = both(build)
    for n, o in zip(new, old):
        assert_same(n, o)


def test_chain_with_imported_27():
    r8, r3 = irreps(A2, (1, 1), (1, 0))
    d = Decomposition(r8, r8)
    decompose(d)
    r27 = new_imported_irrep(A2, prepare(d.found[0], r8, r8))
    assert r27.dim == 27 and max(r27.rational_form().r.values()) > 100
    new, old = both(chain([r27, r8, r3], [7, 1]))
    for n, o in zip(new, old):
        assert_same(n, o)


def su4_vev_trafo(r15):
    sing = LabeledVector(
        [(field(1), 7), (field(-2), 8), (field(3), 9)]
    ).scaled(number(1, 6, 6))
    bs = [LabeledVector.unit(8), LabeledVector.unit(9).scaled(number(1, 1, 3))]
    rest = gram_orthogonalize(lambda u, v: mt.scp(r15, u, v), [sing], bs)
    return mt.chbasis_list([sing] + rest, 6)


def test_readme_su4_script():
    r4, r6, r15 = irreps(A3, (1, 0, 0), (0, 1, 0), (1, 0, 1))
    trafo = su4_vev_trafo(r15)

    def build(m):
        t4, t6, t15 = m.wrap(r4), m.wrap(r6), m.wrap(r15)
        out = []
        for k, c in ((1, number(3, 1, 10)), (2, number(6, 1, 5))):
            tt = m.otimes(m.otimes(m.otimes(t4, t4, k), t6, 2), t15, 7)
            f = m.filter_factor(tt, 4, [7, 8, 9])
            v = m.filter_factor(m.chbasis(f, 4, trafo), 4, [-1])
            out += [tt, f, v, m.scale(v, c)]
        return out

    new, old = both(build)
    for n, o in zip(new, old):
        assert_same(n, o)
    assert_same_symmetry(new[0], old[0])
    assert_same_symmetry(new[4], old[4])
    assert [mt.is_sym(new[k], 1, 2) for k in (0, 4)] == [1, -1]


def octet_block_trafos():
    # bases of the SU(3) octet's zero-weight block (labels 4, 5): one with
    # single radicals, one whose inverse has two-term denominators, which
    # come out rationalized
    unit = LabeledVector.unit
    plain = mt.chbasis_list(
        [unit(4) + unit(5).scaled(number(1, 1, 2)),
         unit(5).scaled(number(1, 1, 3))], 3)
    two_term = mt.chbasis_list(
        [unit(4) + unit(5), unit(4).scaled(number(1, 1, 2)) + unit(5)], 3)
    return plain, two_term


def test_chbasis_to_negative_leaves_and_back():
    r8, r3 = irreps(A2, (1, 1), (1, 0))
    plain, _ = octet_block_trafos()
    back = [(-i, LabeledVector.unit(i)) for i in (1, 2)]

    def build(m):
        t = m.filter_factor(m.otimes(m.wrap(r3), m.wrap(r8), 1), 2, [4, 5])
        c = m.chbasis(t, 2, plain)
        return [t, c, m.filter_factor(c, 2, [-2]), m.chbasis(c, 2, back)]

    new, old = both(build)
    for n, o in zip(new, old):
        assert_same(n, o)


def test_chbasis_two_term_denominators():
    r8 = new_generic_irrep(A2, (1, 1))
    _, two_term = octet_block_trafos()
    # 1/(1 - sqrt(2)) = -1 - sqrt(2): a sum of radicals, no quotient
    assert any(len(c.num.terms) == 2
               for _, vec in two_term for c, _ in vec.terms)

    def build(m):
        t = m.filter_factor(m.otimes(m.wrap(r8), m.wrap(r8), 4), 1, [4, 5])
        return [m.chbasis(t, 1, two_term)]

    new, old = both(build)
    assert_same(new[0], old[0])


def test_scale_by_two_term_denominator():
    r8, r3 = irreps(A2, (1, 1), (1, 0))
    c = parse_field("(1)/(1+sqrt(2))")
    assert c == number(1, 1, 2) - field(1)  # read rationalized

    def build(m):
        return [m.scale(m.otimes(m.wrap(r8), m.wrap(r3), 2), c)]

    new, old = both(build)
    assert_same(new[0], old[0])


def test_otimes_over_chbasis_and_scale_children():
    r8, r3 = irreps(A2, (1, 1), (1, 0))
    plain, _ = octet_block_trafos()
    lit = number(2, 3, 6)

    def build(m):
        t8 = m.wrap(r8)
        rot = m.chbasis(m.filter_factor(t8, 1, [4, 5]), 1, plain)
        scaled = m.scale(m.otimes(t8, m.wrap(r3), 1), lit)
        return [
            m.otimes(rot, m.wrap(r3), 1),
            m.otimes(m.wrap(r3), rot, 1),
            m.otimes(scaled, t8, 2),
            m.otimes(m.wrap(r3), m.scale(t8, lit), 1),
            # radicals on both sides, so that their classes meet
            m.otimes(m.scale(t8, lit), rot, 1),
            m.otimes(scaled, m.scale(m.wrap(r3), number(1, 1, 2)), 1),
        ]

    new, old = both(build)
    for n, o in zip(new, old):
        assert_same(n, o)


def test_chbasis_missing_label_errors_alike():
    r8 = new_generic_irrep(A2, (1, 1))
    partial = [(4, LabeledVector.unit(-1))]
    new, old = both(lambda m: m.chbasis(m.wrap(r8), 1, partial))
    assert new.expand(4).terms == old.expand(4).terms
    with pytest.raises(ValueError) as e_new:
        new.expand(1)
    with pytest.raises(ValueError) as e_old:
        old.expand(1)
    assert str(e_new.value) == str(e_old.value)
