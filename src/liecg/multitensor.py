"""Iterated tensor products over label trees.

A multi-factor product state is a LabeledVector whose labels are trees:
a leaf is a ket label of one factor irrep, a pair (left, right) records one
tensorization step.  Trees are built strictly in the association order of
the otimes calls, so (((4,3),1),-1) is a state of ((a x b) x c) x d.

A TensorNode couples an irrep (generic, or the one irrep of a two-factor
product that otimes selects and builds alone) with the expansion of each
of its states over such trees.
Expansions are computed on demand and memoized per node, since a fully
eager 4-fold expansion can be very large.
Inside a node every term is keyed by its flat leaf tuple, factor k at
index k-1: wrap keys ket s as (s,) and otimes joins its children's keys,
ka + kb.  Every tree of a node has the same nesting, so the node holds it
once, as its shape; filter, chbasis, is_sym and tensor_coeff index the
leaf tuple directly.  Only print and expand rebuild the nesting: untree
writes each tuple through one template made from the shape, and expand
grafts each tuple onto the shape.

Expansions are kept over Q.  Every irrep holds its rational form
(Irrep.rational_form): in the basis u_l = sqrt(r_l) e_l, r_l the
square-free class of leaf l, its tables are rational; a leaf tuple L
stands for u_L, the product of its leaves' u_l.  A node keeps each state
s as the expansion of u_s = sqrt(r_s) e_s, r_s the class of s in the
node's own irrep,

    u_s = sum over h of sqrt(h)/D * sum over L of W_h[L] u_L

for h square-free, W_h a dict {leaf tuple: int} and D > 0 an int: the pair
(D, {h: W_h}).  A wrapped factor's u_s is one leaf.  otimes takes the
irrep it selects, form and all, from prepare_with_states, which also gives
each state as e_s = sign*v/sqrt(N), v a rational vector over the
children's u_a x u_b; so u_s = sign*sqrt(r_s/N)*v, and the children's
u_a, u_b enter as they are memoized.  It multiplies only integers, one
radical per state, and classes multiply through gcd, as in FieldElem.
filter, chbasis and scale are linear, so they act on u_s term by term.
FieldElems enter only with the script literals of scale and chbasis,
whose terms (radicand -> rational coefficient) are folded in per class.
The coefficient of e_L in e_s = sqrt(r_s)/r_s * u_s is W_h[L]/(D r_s) *
sqrt(h * r_s * prod r_l), which TensorNode._int_parts gives as a sum of
n/kd * sqrt(f) over square-free f, still in integers: a tuple of (f, n)
pairs in increasing f per leaf tuple, one pair when the state has a single
class h.  The class of prod r_l is folded over the leaves of L left to
right, by one fold per node that keeps each proper prefix it folded.
Radicals leave through two doors: untree renders each distinct (kd,
pairs) once per call, straight from those integers, and expand (with
tensor_coeff) turns them into FieldElems.  is_sym needs neither: it
compares the W_h, since its two factors share one class table.

Reserved negative leaf labels (-1, -2, ...) denote rotated basis
directions introduced by chbasis_list, e.g. a vev direction -1; they have
class 1, as has any label that is not a state of its factor.  A node
remembers, per factor, the basis changes chbasis made there, in order:
filter refuses a negative label that none of them introduced, and is_sym
refuses two factors whose changes differ.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactnum import FieldElem, ZERO, _mul_class, _render_terms, _sqrt
from .linalg import LabeledVector, invert_matrix
from .irrep import Irrep
from .tensor import Decomposition, _plan, _select, prepare_with_states

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
    # every leaf is an int, so the tuple's repr without its spaces
    return str(tree).replace(" ", "")


def _graft(shape, it):
    """Rebuild a tree of the given shape taking leaves from the iterator."""
    if isinstance(shape, tuple):
        left = _graft(shape[0], it)
        return (left, _graft(shape[1], it))
    return next(it)


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

    fn(state) gives the rational expansion (D, {h: W_h}) of u_state =
    sqrt(r_state) e_state (module docstring), each W_h keyed by flat leaf
    tuples, one label per factor in leaf order: a hand-built single-factor
    node returns keys (label,).  It is memoized; expand converts it to
    FieldElem coefficients on every call.  The nesting of every tree is
    the node's shape, held here once.  bases holds, per factor, the basis
    changes chbasis made there, in order, each as its (old label, terms of
    the new vector) pairs (none by default)."""

    def __init__(self, irrep: Irrep, fn, factors, shape, bases=None):
        self.irrep = irrep
        self.factors = factors  # factor Irreps in leaf order
        self.shape = shape  # nested tuple, leaves are None placeholders
        self.bases = bases or ((),) * len(factors)
        self._fn = fn
        self._memo = {}
        self._classes = [fac.rational_form().r for fac in factors]
        self._prefixes = {(): (1, 1)}  # proper prefix of a key -> its class

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    def _rational(self, state: int):
        got = self._memo.get(state)
        if got is None:
            got = self._memo[state] = self._fn(state)
        return got

    def _key_class(self, key):
        """(f, m) with prod of sqrt(r_l) over the leaves l of key ==
        m*sqrt(f), folded left to right; the node keeps the class of each
        proper prefix, which many keys share."""
        head = key[:-1]
        fm = self._prefixes.get(head)
        if fm is None:
            fm = self._prefixes[head] = self._key_class(head)
        f, g = _mul_class(fm[0], self._classes[len(head)].get(key[-1], 1))
        return f, fm[1] * g

    def _int_parts(self, state: int):
        """(kd, {key: ((f, n), ...)}) with e_state == the sum over leaf
        tuples L of sum n/kd*sqrt(f) e_L, the pairs of a key in increasing
        f, every f square-free and kd > 0."""
        if state not in self.irrep.kets:
            raise ValueError(f"no state labeled {state}")
        key_class = self._key_class
        den, parts = self._rational(state)
        # e_state = sqrt(r)/r * u_state
        r = self.irrep.rational_form().r[state]
        if len(parts) == 1:
            # one class h: each key gets its one pair directly
            ((h, w),) = parts.items()
            h, m0 = _mul_class(h, r)
            out = {}
            for key, x in w.items():
                fl, ml = key_class(key)
                f, g = _mul_class(h, fl)
                out[key] = ((f, x * m0 * ml * g),)
            return den * r, out
        acc = {}
        for h, w in parts.items():
            h, m0 = _mul_class(h, r)
            for key, x in w.items():
                fl, ml = key_class(key)
                f, g = _mul_class(h, fl)
                acc.setdefault(key, {})[f] = x * m0 * ml * g
        return den * r, {key: tuple(sorted(t.items()))
                         for key, t in acc.items()}

    def expand(self, state: int) -> LabeledVector:
        kd, parts = self._int_parts(state)
        return LabeledVector._raw({
            _graft(self.shape, iter(key)): _field_elem(kd, t)
            for key, t in parts.items()})

    def __repr__(self):
        return f"TensorNode({self.irrep!r}, {self.nfactors} factors)"


def _field_elem(kd, t) -> FieldElem:
    """The sum of n/kd*sqrt(f) over the (f, n) pairs of one leaf tuple."""
    return FieldElem({f: Fraction(n, kd) for f, n in t})


def wrap(r: Irrep) -> TensorNode:
    """A single-factor node: each ket expands to its own leaf."""
    return TensorNode(r, lambda s: (1, {1: {(s,): 1}}), [r], None)


def otimes(a: TensorNode, b: TensorNode, k: int) -> TensorNode:
    """Tensor two nodes and select the k-th irrep (1-based, construction
    order) of the decomposition of a.irrep x b.irrep.

    Only that irrep is built: the plan of the product (its highest weights
    in construction order) bounds k, and irrep k is found and descended as
    decompose would build it, with the same states and phases."""
    d = Decomposition(a.irrep, b.irrep)
    plan = _plan(a.irrep, b.irrep)
    if not 1 <= k <= len(plan):
        raise ValueError(
            f"irrep index {k} out of range: the product has {len(plan)} irreps"
        )
    irrep, states = prepare_with_states(_select(d, plan, k), a.irrep, b.irrep)
    r = irrep.rational_form().r

    def fn(s):
        # u_s = sign*sqrt(r_s/N_s) * sum of v_ab u_a x u_b, with
        # sqrt(r_s/N_s) = c0*sqrt(f0)
        v, sign, norm = states[s]
        f0, c0 = _sqrt(r[s] / norm)
        c0 *= sign
        pairs = []
        for (al, bl), q in v.items():
            da, pa = a._rational(al)
            db, pb = b._rational(bl)
            pairs.append((c0 * q / (da * db), pa, pb))
        den = lcm(*(c.denominator for c, _, _ in pairs))
        out = {}
        classes = {}
        for c, pa, pb in pairs:
            n = c.numerator * (den // c.denominator)
            for h1, wa in pa.items():
                for h2, wb in pb.items():
                    hm = classes.get((h1, h2))
                    if hm is None:
                        h, m1 = _mul_class(f0, h1)
                        h, m2 = _mul_class(h, h2)
                        hm = classes[h1, h2] = h, m1 * m2
                    h, m = hm
                    acc = out.get(h)
                    if acc is None:
                        acc = out[h] = {}
                    nm = n * m
                    for ta, xa in wa.items():
                        x = nm * xa
                        for tb, xb in wb.items():
                            key = ta + tb
                            acc[key] = acc.get(key, 0) + x * xb
        return _reduced(den, out)

    return TensorNode(irrep, fn, a.factors + b.factors, (a.shape, b.shape),
                      a.bases + b.bases)


def expand(t: TensorNode, state: int) -> LabeledVector:
    return t.expand(state)


def untree(t: TensorNode, fmt: str = "plain") -> list:
    """All states with their expansions rendered as (coeff, tree) listings.

    Each distinct coefficient is rendered once per call from the integers
    of _int_parts, with every fraction put in lowest terms, and each term
    through one template of the node's shape.  All trees of a node have
    its shape and int leaves, so leaf tuple order is the label order of
    LabeledVector listings."""
    tmpl = '("%s", "' + tree_str(t.shape).replace("None", "%d") + '")'
    texts = {}  # (kd, pairs) -> rendered coefficient
    out = []
    for lab in sorted(t.irrep.kets):
        kd, parts = t._int_parts(lab)
        items = []
        for key, pairs in sorted(parts.items()):
            text = texts.get((kd, pairs))
            if text is None:
                terms = []
                for f, n in pairs:
                    g = gcd(n, kd)
                    terms.append((f, n // g, kd // g))
                text = texts[kd, pairs] = _render_terms(terms, fmt)
            items.append(tmpl % ((text,) + key))
        out.append((lab, "[" + "; ".join(items) + "]"))
    return out


def _check_factor(t: TensorNode, factor: int):
    if not 1 <= factor <= t.nfactors:
        raise ValueError(
            f"factor {factor} out of range: the node has {t.nfactors} factors"
        )
    return factor - 1


def _termwise(t: TensorNode, den: int, image, bases=None) -> TensorNode:
    """t with every term x*sqrt(h) u_L of a state replaced by the sum of
    x*n*sqrt(h*f)/den u_L2 over the (L2, f, n) in image(L); its basis
    changes are t's unless given."""

    def fn(s):
        d, parts = t._rational(s)
        out = {}
        for h, w in parts.items():
            for key, x in w.items():
                for key2, f, n in image(key):
                    h2, m = _mul_class(h, f)
                    acc = out.setdefault(h2, {})
                    acc[key2] = acc.get(key2, 0) + x * n * m
        return _reduced(d * den, out)

    return TensorNode(t.irrep, fn, t.factors, t.shape, bases or t.bases)


def filter_factor(t: TensorNode, factor: int, keep) -> TensorNode:
    """Keep only terms whose leaf at the factor position is in keep.
    No renormalization is applied.  A label must be a state of the factor
    or a reserved negative label that a chbasis of the factor introduced."""
    idx = _check_factor(t, factor)
    keep_set = set(keep)
    kets = t.factors[idx].kets
    reserved = {new for change in t.bases[idx] for _, terms in change
                for _, new in terms if new < 0}
    for lab in sorted(keep_set):
        if lab >= 0 and lab not in kets:
            raise ValueError(
                f"label {lab} is not a state of factor {factor} "
                f"(dimension {len(kets)})"
            )
        if lab < 0 and lab not in reserved:
            raise ValueError(
                f"label {lab} is not a reserved label of factor {factor}: "
                "no basis change of that factor introduced it"
            )
    return _termwise(t, 1, lambda key: [(key, 1, 1)]
                     if key[idx] in keep_set else ())


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
            for f, q in c.terms.items():
                f, m1 = _mul_class(f, r_old)
                f, m2 = _mul_class(f, r_new)
                row.append((new, f, q * m1 * m2 / r_new))
    den = lcm(*(q.denominator for row in rows.values() for _, _, q in row))
    tmap = {old: [(new, f, int(q * den)) for new, f, q in row]
            for old, row in rows.items()}

    def image(key):
        old = key[idx]
        sub = tmap.get(old)
        if sub is None:
            raise ValueError(
                f"label {old} at factor {factor} has no image "
                "in the basis transformation"
            )
        for new, f, n in sub:
            yield key[:idx] + (new,) + key[idx + 1:], f, n

    change = tuple((old, tuple(vec.terms)) for old, vec in trafo)
    bases = t.bases
    return _termwise(t, den, image,
                     bases[:idx] + (bases[idx] + (change,),) + bases[idx + 1:])


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
    expansion, 0 for mixed or undecided symmetry.  Both factors must carry
    the same irrep in the same basis: swapping leaves of two bases
    compares unrelated coefficients, and so does swapping two positions
    whose chbasis steps differ.  So a swap keeps the classes of every leaf
    tuple, and the rational form decides."""
    i1 = _check_factor(t, f1)
    i2 = _check_factor(t, f2)
    if i1 == i2:
        raise ValueError(f"factor {f1} is named twice: nothing to swap")
    fa, fb = t.factors[i1], t.factors[i2]
    if fa.algebra != fb.algebra or fa.hw != fb.hw:
        raise ValueError(
            f"factors {f1} and {f2} carry different irreps "
            f"({fa.hw} vs {fb.hw})"
        )
    if t.bases[i1] != t.bases[i2] or fa is not fb and (
            fa.kets != fb.kets or fa.rational_form() != fb.rational_form()):
        raise ValueError(
            f"factors {f1} and {f2} carry the irrep {fa.hw} "
            "in different bases"
        )

    def swap(key):
        key = list(key)
        key[i1], key[i2] = key[i2], key[i1]
        return tuple(key)

    verdict = 0
    for lab in t.irrep.kets:
        _, parts = t._rational(lab)
        if not parts:
            continue
        swapped = {h: {swap(key): x for key, x in w.items()}
                   for h, w in parts.items()}
        if swapped == parts:
            v = 1
        elif swapped == {h: {key: -x for key, x in w.items()}
                         for h, w in parts.items()}:
            v = -1
        else:
            return 0
        if verdict == 0:
            verdict = v
        elif verdict != v:
            return 0
    return verdict


def scale(t: TensorNode, c: FieldElem) -> TensorNode:
    lit = c.terms
    den = lcm(*(q.denominator for q in lit.values()))
    ints = [(f, int(q * den)) for f, q in lit.items()]
    return _termwise(t, den, lambda tr: [(tr, f, n) for f, n in ints])


def tensor_coeff(t: TensorNode, state: int, leaves) -> FieldElem:
    """Coefficient of the given leaf combination in a state's expansion."""
    if len(leaves) != t.nfactors:
        raise ValueError(
            f"expected {t.nfactors} leaf labels, got {len(leaves)}"
        )
    kd, parts = t._int_parts(state)
    c = parts.get(tuple(leaves))
    return ZERO if c is None else _field_elem(kd, c)


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
