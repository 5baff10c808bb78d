"""Iterated tensor products over label trees.

A multi-factor product state is a LabeledVector whose labels are trees:
a leaf is a ket label of one factor irrep, a pair (left, right) records one
tensorization step.  Trees are built strictly in the association order of
the otimes calls, so (((4,3),1),-1) is a state of ((a x b) x c) x d.

A TensorNode couples an irrep (generic or imported from a two-factor
decomposition) with the expansion of each of its states over such trees.
Expansions are computed on demand and memoized per node, since a fully
eager 4-fold expansion can be very large.

Expansions are kept over Q.  Every irrep holds its rational form
(Irrep.rational_form): in the basis u_l = sqrt(r_l) e_l, r_l the
square-free class of leaf l, its tables are rational; a tree L stands for
u_L, the product of its leaves' u_l.  A node keeps its state s rescaled
as x_s = sqrt(rho_s) e_s, with

    x_s = sum over h of sqrt(h)/D * sum over L of W_h[L] u_L

for h square-free, W_h a dict {tree: int} and D > 0 an int: the pair
(D, {h: W_h}).  A wrapped factor has rho_s = r_s, so x_s = u_s is one
leaf.  otimes takes the irrep it selects, form and all, from
prepare_with_states, which also gives each state as sign*v/sqrt(N), v a
rational vector over the children's u_a x u_b.  It keeps rho_s = N, so
x_s = sign*v with every child state entering as u_a = sqrt(r_a/rho_a) x_a:
it multiplies only integers, one radical per child state, and classes
multiply through gcd, as in SqrtSum.  filter, chbasis and scale keep their
child's rho.  Radicals enter only with the script literals of scale and
chbasis, each a sum of radicals with rational coefficients (a FieldElem
has no denominator) folded in per class, and leave only in expand (which
untree and tensor_coeff read; is_sym compares the integers): the
coefficient of e_L in e_s is
W_h[L]/D * sqrt(h * prod r_l / rho_s).

Reserved negative leaf labels (-1, -2, ...) denote rotated basis
directions introduced by chbasis_list, e.g. a vev direction -1; they have
class 1, as has any label that is not a state of its factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactnum import FieldElem, SqrtSum, _sqrt
from .linalg import LabeledVector, invert_matrix
from .irrep import Irrep
from .tensor import Decomposition, decompose, prepare_with_states

__all__ = [
    "TensorNode",
    "wrap",
    "otimes",
    "expand",
    "untree",
    "tree_str",
    "tree_leaves",
    "filter_factor",
    "chbasis",
    "chbasis_list",
    "is_sym",
    "scale",
    "tensor_coeff",
    "e_lower",
    "comm",
    "scp",
    "scalar_products",
]


def tree_leaves(tree) -> list:
    """Leaf labels left to right."""
    if isinstance(tree, tuple):
        return tree_leaves(tree[0]) + tree_leaves(tree[1])
    return [tree]


def tree_str(tree) -> str:
    if isinstance(tree, tuple):
        return "(%s,%s)" % (tree_str(tree[0]), tree_str(tree[1]))
    return str(tree)


def _graft(shape, it):
    """Rebuild a tree of the given shape taking leaves from the iterator."""
    if isinstance(shape, tuple):
        left = _graft(shape[0], it)
        return (left, _graft(shape[1], it))
    return next(it)


def _mul_class(f1, f2):
    """(f, m) with sqrt(f1)*sqrt(f2) == m*sqrt(f), for square-free f1, f2."""
    g = gcd(f1, f2)
    return (f1 // g) * (f2 // g), g


def _reduced(den, parts):
    """(den, parts) with zero entries and empty classes dropped and the
    common divisor of den and every entry divided out."""
    out = {}
    for h, w in parts.items():
        w = {tr: x for tr, x in w.items() if x}
        if w:
            out[h] = w
    g = gcd(den, *(x for w in out.values() for x in w.values()))
    if g != 1:
        den //= g
        out = {h: {tr: x // g for tr, x in w.items()} for h, w in out.items()}
    return den, out


class TensorNode:
    """An irrep together with the expansion of its states over label trees.

    fn(state) gives the rational expansion (D, {h: W_h}) of x_state =
    sqrt(rho(state)) e_state (module docstring); it is memoized, expand
    converts it to FieldElem coefficients on every call."""

    def __init__(self, irrep: Irrep, fn, factors, shape, rho):
        self.irrep = irrep
        self.factors = factors  # factor Irreps in leaf order
        self.shape = shape  # nested tuple, leaves are None placeholders
        self._fn = fn
        self._rho = rho
        self._memo = {}
        self._u_memo = {}

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    def _rational(self, state: int):
        got = self._memo.get(state)
        if got is None:
            got = self._memo[state] = self._fn(state)
        return got

    def _u(self, state: int):
        """(c, f, parts): u_state = sqrt(r_state) e_state is c*sqrt(f)
        times the sum over h of sqrt(h) * sum of W_h[L] u_L."""
        got = self._u_memo.get(state)
        if got is None:
            den, parts = self._rational(state)
            r = self.irrep.rational_form().r[state]
            f, k = _sqrt(Fraction(r) / self._rho(state))
            got = self._u_memo[state] = k / den, f, parts
        return got

    def _field_parts(self, state: int):
        """(q, {tree: {f: n}}) with e_state == q times the sum over trees L
        of sum n*sqrt(f) e_L; q > 0."""
        if state not in self.irrep.kets:
            raise ValueError(f"no state labeled {state}")
        den, parts = self._rational(state)
        f0, k = _sqrt(1 / Fraction(self._rho(state)))
        classes = [fac.rational_form().r for fac in self.factors]
        out = {}
        for h, w in parts.items():
            h, m0 = _mul_class(h, f0)
            for tr, x in w.items():
                f, m = h, m0
                for r, leaf in zip(classes, tree_leaves(tr)):
                    f, g = _mul_class(f, r.get(leaf, 1))
                    m *= g
                out.setdefault(tr, {})[f] = x * m
        return k / den, out

    def expand(self, state: int) -> LabeledVector:
        q, parts = self._field_parts(state)
        return LabeledVector._raw({
            tr: FieldElem(SqrtSum({f: n * q for f, n in t.items()}))
            for tr, t in parts.items()
        })

    def __repr__(self):
        return f"TensorNode({self.irrep!r}, {self.nfactors} factors)"


def wrap(r: Irrep) -> TensorNode:
    """A single-factor node: each ket expands to its own leaf."""
    return TensorNode(r, lambda s: (1, {1: {s: 1}}), [r], None,
                      lambda s: r.rational_form().r[s])


def otimes(a: TensorNode, b: TensorNode, k: int) -> TensorNode:
    """Tensor two nodes and select the k-th irrep (1-based, construction
    order) of the decomposition of a.irrep x b.irrep."""
    d = Decomposition(a.irrep, b.irrep)
    decompose(d)
    if not 1 <= k <= len(d.found):
        raise ValueError(
            f"irrep index {k} out of range: the product has {len(d.found)} irreps"
        )
    irrep, states = prepare_with_states(d.found[k - 1], a.irrep, b.irrep)

    def fn(s):
        # x_s = sign * sum of v_ab u_a x u_b, and u_a = ca*sqrt(fa) * ...
        v, sign, _ = states[s]
        pairs = []
        for (al, bl), q in v.items():
            ca, fa, pa = a._u(al)
            cb, fb, pb = b._u(bl)
            pairs.append((q * sign * ca * cb, fa, fb, pa, pb))
        den = lcm(*(c.denominator for c, *_ in pairs))
        out = {}
        classes = {}
        for c, fa, fb, pa, pb in pairs:
            n = c.numerator * (den // c.denominator)
            for h1, wa in pa.items():
                for h2, wb in pb.items():
                    hm = classes.get((fa, fb, h1, h2))
                    if hm is None:
                        h, m1 = _mul_class(fa, fb)
                        h, m2 = _mul_class(h, h1)
                        h, m3 = _mul_class(h, h2)
                        hm = classes[fa, fb, h1, h2] = h, m1 * m2 * m3
                    h, m = hm
                    acc = out.get(h)
                    if acc is None:
                        acc = out[h] = {}
                    nm = n * m
                    for ta, xa in wa.items():
                        x = nm * xa
                        for tb, xb in wb.items():
                            key = (ta, tb)
                            acc[key] = acc.get(key, 0) + x * xb
        return _reduced(den, out)

    return TensorNode(irrep, fn, a.factors + b.factors, (a.shape, b.shape),
                      lambda s: states[s][2])


def expand(t: TensorNode, state: int) -> LabeledVector:
    return t.expand(state)


def untree(t: TensorNode, fmt: str = "plain") -> list:
    """All states with their expansions rendered as (coeff, tree) listings."""
    out = []
    for lab in sorted(t.irrep.kets):
        e = t.expand(lab)
        body = "; ".join(
            '("%s", "%s")' % (c.render(fmt), tree_str(tr)) for c, tr in e.terms
        )
        out.append((lab, "[" + body + "]"))
    return out


def _check_factor(t: TensorNode, factor: int):
    if not 1 <= factor <= t.nfactors:
        raise ValueError(
            f"factor {factor} out of range: the node has {t.nfactors} factors"
        )
    return factor - 1


def _termwise(t: TensorNode, den: int, image) -> TensorNode:
    """t with every term x*sqrt(h) u_L of a state replaced by the sum of
    x*n*sqrt(h*f)/den u_L2 over the (L2, f, n) in image(L)."""

    def fn(s):
        d, parts = t._rational(s)
        out = {}
        for h, w in parts.items():
            for tr, x in w.items():
                for tr2, f, n in image(tr):
                    h2, m = _mul_class(h, f)
                    acc = out.setdefault(h2, {})
                    acc[tr2] = acc.get(tr2, 0) + x * n * m
        return _reduced(d * den, out)

    return TensorNode(t.irrep, fn, t.factors, t.shape, t._rho)


def filter_factor(t: TensorNode, factor: int, keep) -> TensorNode:
    """Keep only terms whose leaf at the factor position is in keep.
    No renormalization is applied."""
    idx = _check_factor(t, factor)
    keep_set = set(keep)
    return _termwise(t, 1, lambda tr: [(tr, 1, 1)]
                     if tree_leaves(tr)[idx] in keep_set else ())


def chbasis(t: TensorNode, factor: int, trafo) -> TensorNode:
    """Substitute leaf labels at the factor position through trafo, a list
    of (old label, LabeledVector over new labels).  Encountering a leaf
    missing from trafo is an error."""
    idx = _check_factor(t, factor)
    # e_old = sum c e_new, so u_old = sum c*sqrt(r_old/r_new) u_new: per
    # old label the (new label, class, coefficient) terms of that sum, all
    # coefficients over the common denominator den
    cls = t.factors[idx].rational_form().r
    rows = {}
    for old, vec in trafo:
        r_old = cls.get(old, 1)
        row = rows[old] = []
        for c, new in vec.terms:
            r_new = cls.get(new, 1)
            for f, q in c.num.terms.items():
                f, m1 = _mul_class(f, r_old)
                f, m2 = _mul_class(f, r_new)
                row.append((new, f, q * m1 * m2 / r_new))
    den = lcm(*(q.denominator for row in rows.values() for _, _, q in row))
    tmap = {old: [(new, f, int(q * den)) for new, f, q in row]
            for old, row in rows.items()}

    def image(tr):
        leaves = tree_leaves(tr)
        sub = tmap.get(leaves[idx])
        if sub is None:
            raise ValueError(
                f"label {leaves[idx]} at factor {factor} has no image "
                "in the basis transformation"
            )
        for new, f, n in sub:
            leaves[idx] = new
            yield _graft(tr, iter(leaves)), f, n

    return _termwise(t, den, image)


def chbasis_list(basis, offset: int):
    """Transformation rule expressing the generic labels offset+1.. in a
    new basis; the i-th basis vector becomes the reserved label -(i).

    basis[i] gives the new vector in terms of the old labels; the returned
    trafo holds the inverse, suitable for chbasis.  A basis vector touching
    labels outside offset+1..offset+len(basis) or a singular basis is an
    error.
    """
    m = len(basis)
    if m == 0:
        return []
    labels = [offset + 1 + j for j in range(m)]
    lset = set(labels)
    for v in basis:
        for lab in v.labels():
            if lab not in lset:
                raise ValueError(
                    f"basis vector touches label {lab} outside "
                    f"{labels[0]}..{labels[-1]}"
                )
    mat = [[basis[i].get(labels[j]) for i in range(m)] for j in range(m)]
    inv = invert_matrix(mat)
    trafo = []
    for j in range(m):
        vec = LabeledVector(
            (inv[i][j], -(i + 1)) for i in range(m) if not inv[i][j].is_zero()
        )
        trafo.append((labels[j], vec))
    return trafo


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
        # the coefficients of e_L up to one positive factor
        _, e = t._field_parts(lab)
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


def _swapped_leaves(tr, i1, i2):
    leaves = tree_leaves(tr)
    leaves[i1], leaves[i2] = leaves[i2], leaves[i1]
    return leaves


def scale(t: TensorNode, c: FieldElem) -> TensorNode:
    lit = c.num.terms
    den = lcm(*(q.denominator for q in lit.values()))
    ints = [(f, int(q * den)) for f, q in lit.items()]
    return _termwise(t, den, lambda tr: [(tr, f, n) for f, n in ints])


def tensor_coeff(t: TensorNode, state: int, leaves) -> FieldElem:
    """Coefficient of the given leaf combination in a state's expansion."""
    if len(leaves) != t.nfactors:
        raise ValueError(
            f"expected {t.nfactors} leaf labels, got {len(leaves)}"
        )
    tr = _graft(t.shape, iter(leaves))
    return t.expand(state).get(tr)


# --------------------------------------------------- operator helpers

def e_lower(r: Irrep, root: int):
    """The lowering operator E_-root of r as a function on vectors."""
    if not 1 <= root <= r.algebra.rank:
        raise ValueError(f"root index must lie in 1..{r.algebra.rank}")

    def op(v: LabeledVector) -> LabeledVector:
        terms = []
        for c, lab in v.terms:
            for c2, t2 in r.lower(root, lab).terms:
                terms.append((c * c2, t2))
        return LabeledVector(terms)

    return op


def comm(op_a, op_b):
    """Commutator of two operators on vectors."""

    def op(v: LabeledVector) -> LabeledVector:
        return op_a(op_b(v)) - op_b(op_a(v))

    return op


def scp(r: Irrep, u: LabeledVector, v: LabeledVector) -> FieldElem:
    """Scalar product of two vectors over r's basis labels."""
    return r.vector_scp(u, v)


def scalar_products(r: Irrep, start: int, count: int):
    """Gram matrix of the states start .. start+count-1."""
    labels = list(range(start, start + count))
    for lab in labels:
        if lab not in r.kets:
            raise ValueError(f"no state labeled {lab}")
    return [[r.scalar_product(a, b) for b in labels] for a in labels]
