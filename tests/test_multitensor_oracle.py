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

A second oracle keeps the print path as it was before untree rendered
straight from integers: _field_parts walking every tree's leaves, expand
building FieldElem coefficients, and untree rendering a LabeledVector with
the recursive tree_str.  untree in all three formats, expand, tensor_coeff
and is_sym of liecg.multitensor must agree with it on the same nodes.
"""

import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

import liecg.multitensor as mt
from liecg.exactnum import (
    FieldElem,
    _sqrt,
    field,
    field_sqrt,
    number,
    parse_field,
)
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


@pytest.mark.parametrize("shape", ["(8x8)x(8x3)", "3x(8x8)"])
def test_factor_positions_off_the_left_spine(shape):
    # leaves right of a product child, or inside a right child: every
    # factor position filtered, rotated and swapped
    r8, r3 = irreps(A2, (1, 1), (1, 0))
    plain, _ = octet_block_trafos()
    unit = LabeledVector.unit
    three = mt.chbasis_list(
        [unit(2) + unit(3).scaled(number(1, 1, 2)), unit(3)], 1)
    block = {(1, 1): ([4, 5], plain), (1, 0): ([2, 3], three)}

    def build(m):
        t8, t3 = m.wrap(r8), m.wrap(r3)
        if shape == "3x(8x8)":
            return m.otimes(t3, m.otimes(t8, t8, 4), 1)
        return m.otimes(m.otimes(t8, t8, 2), m.otimes(t8, t3, 3), 1)

    new, old = both(build)
    assert_same(new, old)
    assert_same_symmetry(new, old)
    for pos, fac in enumerate(old.factors, 1):
        keep, trafo = block[fac.hw]
        f_new = mt.filter_factor(new, pos, keep)
        f_old = OLD.filter_factor(old, pos, keep)
        assert_same(f_new, f_old)
        assert_same(mt.chbasis(f_new, pos, trafo),
                    OLD.chbasis(f_old, pos, trafo))


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
    assert any(len(c.terms) == 2
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


# ------------------------------------ the print path over FieldElem, as it was

def tree_str(tree) -> str:
    if isinstance(tree, tuple):
        return "(%s,%s)" % (tree_str(tree[0]), tree_str(tree[1]))
    return str(tree)


def _mul_class(f1, f2):
    """(f, m) with sqrt(f1)*sqrt(f2) == m*sqrt(f), for square-free f1, f2."""
    g = gcd(f1, f2)
    return (f1 // g) * (f2 // g), g


def field_parts(self, state: int):
    """(q, {tree: {f: n}}) with e_state == q times the sum over trees L
    of sum n*sqrt(f) e_L; q > 0."""
    if state not in self.irrep.kets:
        raise ValueError(f"no state labeled {state}")
    den, parts = self._rational(state)
    f0, k = _sqrt(Fraction(1, self.irrep.rational_form().r[state]))
    classes = [fac.rational_form().r for fac in self.factors]
    out = {}
    for h, w in parts.items():
        h, m0 = _mul_class(h, f0)
        for key, x in w.items():
            # the node keys its terms by leaf tuples; this path reads trees
            tr = _graft(self.shape, iter(key))
            f, m = h, m0
            for r, leaf in zip(classes, tree_leaves(tr)):
                f, g = _mul_class(f, r.get(leaf, 1))
                m *= g
            out.setdefault(tr, {})[f] = x * m
    return k / den, out


def field_expand(self, state: int) -> LabeledVector:
    q, parts = field_parts(self, state)
    return LabeledVector._raw({
        tr: FieldElem({f: n * q for f, n in t.items()})
        for tr, t in parts.items()
    })


def field_untree(t, fmt: str = "plain") -> list:
    """All states with their expansions rendered as (coeff, tree) listings."""
    out = []
    for lab in sorted(t.irrep.kets):
        e = field_expand(t, lab)
        body = "; ".join(
            '("%s", "%s")' % (c.render(fmt), tree_str(tr)) for c, tr in e.terms
        )
        out.append((lab, "[" + body + "]"))
    return out


def field_is_sym(t, f1: int, f2: int) -> int:
    i1, i2 = f1 - 1, f2 - 1
    verdict = 0
    for lab in t.irrep.kets:
        # the coefficients of e_L up to one positive factor
        _, e = field_parts(t, lab)
        if not e:
            continue
        swapped = {
            _graft(tr, iter(_swapped_leaves(tr, i1, i2))): c
            for tr, c in e.items()
        }
        if swapped == e:
            v = 1
        elif swapped == {tr: {f: -n for f, n in c.items()}
                         for tr, c in e.items()}:
            v = -1
        else:
            return 0
        if verdict == 0:
            verdict = v
        elif verdict != v:
            return 0
    return verdict


def assert_prints_alike(node, rotated=()):
    """untree, expand, tensor_coeff and is_sym against the FieldElem
    oracles; rotated names the positions a chbasis rotated, whose is_sym
    against an unrotated position is refused."""
    for fmt in ("plain", "tex", "mathematica"):
        assert mt.untree(node, fmt) == field_untree(node, fmt), fmt
    for s in sorted(node.irrep.kets):
        old = field_expand(node, s)
        assert mt.expand(node, s).terms == old.terms, s
        for c, tr in old.terms:
            assert mt.tensor_coeff(node, s, tree_leaves(tr)) == c
        absent = [-99] * node.nfactors
        assert mt.tensor_coeff(node, s, absent).is_zero()
    for i in range(1, node.nfactors + 1):
        for j in range(i + 1, node.nfactors + 1):
            if node.factors[i - 1].hw != node.factors[j - 1].hw:
                continue
            if (i in rotated) != (j in rotated):
                with pytest.raises(ValueError, match="in different bases"):
                    mt.is_sym(node, i, j)
            else:
                assert mt.is_sym(node, i, j) == field_is_sym(node, i, j)


@pytest.mark.parametrize("la, hw", [
    (A2, (1, 1)), (A3, (1, 0, 1)), (G2, (0, 1)), (G2, (1, 0)),
])
def test_print_wrap(la, hw):
    assert_prints_alike(mt.wrap(new_generic_irrep(la, hw)))


def test_print_wrap_imported_27():
    r8 = new_generic_irrep(A2, (1, 1))
    d = Decomposition(r8, r8)
    decompose(d)
    r27 = new_imported_irrep(A2, prepare(d.found[0], r8, r8))
    node = mt.wrap(r27)
    assert_prints_alike(node)
    assert_prints_alike(mt.otimes(node, mt.wrap(r8), 7))


@pytest.mark.parametrize(
    "la, labels, ks",
    [
        (A2, [(1, 1), (1, 1), (1, 0), (1, 0)], [1, 2, 1]),
        (A2, [(1, 1), (1, 1), (1, 1)], [2, 3]),
        (A3, [(1, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 1)], [1, 2, 7]),
        (A3, [(0, 1, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0)], [1, 2, 2]),
        (G2, [(1, 0), (0, 1), (0, 1)], [3, 1]),
        (G2, [(0, 1), (1, 0), (1, 0)], [3, 2]),
    ],
)
def test_print_chains(la, labels, ks):
    for node in chain(irreps(la, *labels), ks)(mt)[1:]:
        assert_prints_alike(node)


def test_print_products_on_both_sides():
    r8, r3 = irreps(A2, (1, 1), (1, 0))
    t8 = mt.wrap(r8)
    left, right = mt.otimes(t8, t8, 2), mt.otimes(t8, mt.wrap(r3), 3)
    assert_prints_alike(mt.otimes(left, right, 1))


def test_print_filter_chbasis_scale():
    r4, r6, r15 = irreps(A3, (1, 0, 0), (0, 1, 0), (1, 0, 1))
    t4, t6, t15 = mt.wrap(r4), mt.wrap(r6), mt.wrap(r15)
    tt = mt.otimes(mt.otimes(mt.otimes(t4, t4, 2), t6, 2), t15, 7)
    f = mt.filter_factor(tt, 4, [7, 8, 9])
    c = mt.chbasis(f, 4, su4_vev_trafo(r15))
    assert any(tr[1] < 0 for tr in mt.expand(c, 1).labels())
    lit = parse_field("1+sqrt(2)")
    assert len(lit.terms) == 2
    for node in (f, mt.filter_factor(tt, 1, [1, 3]), c,
                 mt.filter_factor(c, 4, [-1, -3]), mt.scale(c, lit)):
        assert_prints_alike(node)


def test_print_negative_leaves_inside_products():
    # reserved labels on the left of a later otimes, and a scale by two
    # radicals whose classes meet the children's
    r8, r3 = irreps(A2, (1, 1), (1, 0))
    plain, two_term = octet_block_trafos()
    t8 = mt.wrap(r8)
    rot = mt.chbasis(mt.filter_factor(t8, 1, [4, 5]), 1, plain)
    lit = parse_field("1+sqrt(2)")
    p = mt.otimes(rot, mt.wrap(r3), 1)
    t88 = mt.otimes(t8, t8, 4)
    both = mt.filter_factor(mt.filter_factor(t88, 1, [4, 5]), 2, [4, 5])
    for node, rotated in [
            (rot, (1,)), (p, (1,)), (mt.scale(p, lit), (1,)),
            (mt.chbasis(mt.filter_factor(t88, 2, [4, 5]), 2, two_term), (2,)),
            (mt.otimes(mt.scale(t8, lit), rot, 1), (2,)),
            # the same basis change on both positions: is_sym decides
            (mt.chbasis(mt.chbasis(both, 2, two_term), 1, two_term), (1, 2))]:
        assert_prints_alike(node, rotated)


def test_print_unreduced_expansion():
    # every node reduces its expansions to lowest terms; a hand-built one
    # keeping u_s as 2/2 u_s expands and prints as the plain wrap does
    r8, r3 = irreps(A2, (1, 1), (1, 0))
    node = mt.TensorNode(r8, lambda s: (2, {1: {(s,): 2}}), [r8], None)
    for s in r8.kets:
        assert mt.expand(node, s) == LabeledVector.unit(s)
    assert_prints_alike(node)
    assert_prints_alike(mt.otimes(node, mt.wrap(r3), 2))
    assert_prints_alike(mt.otimes(mt.wrap(r8), node, 4))


def test_print_key_of_two_classes():
    # a chain scaled by 1+sqrt(2): a key of a state carries two radical
    # classes, so each of its coefficients is a sum of two radicals
    r8, r3 = irreps(A2, (1, 1), (1, 0))
    t8 = mt.wrap(r8)
    node = mt.scale(mt.otimes(mt.otimes(t8, t8, 2), mt.wrap(r3), 1),
                    parse_field("1+sqrt(2)"))
    pairs = [c for s in node.irrep.kets
             for c in node._int_parts(s)[1].values()]
    assert any(len({f for f, _ in c}) == 2 for c in pairs)
    assert all([f for f, _ in c] == sorted({f for f, _ in c}) for c in pairs)
    assert_prints_alike(node)


def test_is_sym_reads_only_the_rational_form(monkeypatch):
    # is_sym decides on each state's W_h and forms no e-basis coefficient:
    # with _int_parts refused it still agrees with the oracle, on keys of
    # two classes, on both factors rotated alike, and on two wraps of one
    # irrep
    r8, r3 = irreps(A2, (1, 1), (1, 0))
    t8 = mt.wrap(r8)
    lit = parse_field("1+sqrt(2)")
    nodes = [mt.scale(mt.otimes(mt.otimes(t8, t8, 2), mt.wrap(r3), 1), lit)]
    for trafo in octet_block_trafos():
        for k in range(1, 7):
            node = mt.otimes(t8, t8, k)
            for i in (1, 2):
                node = mt.chbasis(mt.filter_factor(node, i, [4, 5]), i, trafo)
            nodes.append(node)
    nodes += [mt.otimes(mt.wrap(r8), mt.wrap(r8), k) for k in range(1, 7)]

    def refused(self, state):
        raise AssertionError("is_sym formed e-basis coefficients")

    monkeypatch.setattr(mt.TensorNode, "_int_parts", refused)
    got = [mt.is_sym(node, 1, 2) for node in nodes]
    assert got == [field_is_sym(node, 1, 2) for node in nodes]
    # the two octets of 8 x 8 are built as mixtures of its symmetric and
    # antisymmetric octets
    assert got == [-1] + [1, -1, -1, 1, 1, 1] * 2 + [1, -1, -1, 0, 0, 1]


def test_second_untree_folds_no_prefix(monkeypatch):
    # the node keeps the classes of every leaf-tuple prefix it folded: with
    # the expansions memoized, a second untree makes one _mul_class call
    # fewer per distinct proper prefix, and a third as many as the second
    r8, r3 = irreps(A2, (1, 1), (1, 0))
    t8 = mt.wrap(r8)
    node = mt.otimes(mt.otimes(mt.otimes(t8, t8, 2), mt.wrap(r3), 1), t8, 2)
    prefixes = set()
    for s in node.irrep.kets:
        for w in node._rational(s)[1].values():
            prefixes.update(key[:i] for key in w for i in range(1, len(key)))
    calls = []
    mul_class = mt._mul_class

    def counted(f1, f2):
        calls.append(None)
        return mul_class(f1, f2)

    monkeypatch.setattr(mt, "_mul_class", counted)
    counts = []
    for _ in range(3):
        calls.clear()
        printed = mt.untree(node)
        counts.append(len(calls))
    assert counts[0] - counts[1] == len(prefixes) > 0
    assert counts[1] == counts[2]
    monkeypatch.undo()
    assert printed == field_untree(node)


def test_print_formats_in_turn():
    # each untree call renders its coefficients afresh: printing one node
    # in each format in turn, and in the first again, matches the oracle
    # every time, though the formats write the same coefficient apart
    r8, r3 = irreps(A2, (1, 1), (1, 0))
    node = mt.otimes(mt.otimes(mt.wrap(r8), mt.wrap(r3), 1), mt.wrap(r3), 2)
    printed = {}
    for fmt in ("plain", "tex", "mathematica", "plain"):
        got = mt.untree(node, fmt)
        assert got == field_untree(node, fmt), fmt
        printed.setdefault(fmt, got)
        assert got == printed[fmt]
    assert len({str(p) for p in printed.values()}) == 3


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((-1, -2, -3, -10, -123)) if rng.random() < 0.3 \
            else rng.randrange(0, 2000)
    return (random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def test_tree_str_matches_recursive_oracle():
    rng = random.Random(7)
    trees = [random_tree(rng, 6) for _ in range(500)]
    assert any(isinstance(tr, tuple) for tr in trees)
    assert any("-" in tree_str(tr) for tr in trees)
    for tr in trees:
        assert mt.tree_str(tr) == tree_str(tr)
