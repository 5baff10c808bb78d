"""Two-factor tensor products and their Clebsch-Gordan decomposition.

A product state is a LabeledVector whose labels are (left ket, right ket)
pairs.  The Cartan generators act as H_i x 1 + 1 x H_i, so every basis pair
of a product state must carry the same summed weight; lowering operators
act by the Leibniz rule through each factor's lowering table.

Decomposition first plans, then builds.  The plan (_plan) lists the
highest weights in discovery order from weights alone: of the product's
dominant-weight multiplicities, the remaining weight with the most levels
is the next highest weight, and its irrep's Freudenthal multiplicities are
subtracted, until nothing is left and the Weyl dimensions add up.  Each
planned irrep is then found and built on its own: its highest-weight
vector is a vector at its weight that every raising operator kills, i.e.
one Gram-orthogonal to E_-i of every basis pair one root higher, and for
the c-th copy also to copies 1..c-1 (_hw_irreps); descend_irrep builds
the irrep under it level by level, dropping states that are linearly
dependent, in a fixed deterministic order.  decompose builds every planned
irrep; multitensor.otimes builds only the one it selects (_select).

The descent lowers a state only into a weight whose Freudenthal
multiplicity is not yet reached.  It so keeps at most min(true, Freudenthal)
states at each weight, and the checks that each weight holds its
Freudenthal multiplicity and that the total is the Weyl dimension, a
formula of its own, still verify Freudenthal in full: the kept states are
independent vectors of the true weight spaces, so the true multiplicities,
which sum to the Weyl dimension, equal the kept ones.  This rests on its
inputs: the start must be a highest-weight vector (a given state is
checked to lie in the raising kernel) and the factors a representation
(generic and prepared irreps are by construction, and a file's irrep
passes Irrep.check_consistency before its first product).

On the same ground the descent skips the lowerings that commuting roots
make dependent.  Let the state s be kept from F_k s' and let i < k with
a_ik = 0.  Then F_i and F_k commute, so F_i s is a multiple of F_k F_i s'.
F_i s' was the candidate (s', i), before (s', k), and whatever became of
it (kept, dependent, zero or into a full weight), it lies in the span of
the states kept before s in their level.  F_k of those states are
candidates at the weight of F_i s that come before (s, i), so F_i s is
dependent on, or zero beside, what its weight holds by then: the skip
keeps the same states, scales and origins.

All of this runs over the integers, with rationals only as one scale per
state and in the final coordinates.  Each factor holds its rational form
(Irrep.rational_form): in the basis u_a = sqrt(r_a) e_a, with r_a the
square-free class of label a, its lowering entries and its Gram matrix are
rational.  For each root i, _int_tables scales both factors' root-i
lowering entries by D_i, the lcm of their denominators, so lowering runs
on ints and yields D_i times the lowered vector; _int_gram scales the
Gram tables the same way for the search and prepare.  A product irrep keeps
each state as a primitive integer vector v over u_a x u_b with one
positive rational scale sigma, the state being sigma*v; a lowered vector
D_i*E v of content g becomes the child state of scale sigma*g/D_i.  The
whole irrep shares one more scale rho: the found highest-weight vector y
has rational norm N = <y|y>, and rho is 1/sqrt(N).

Each exact conversion has one home.  prepare_with_states orients each
integer state once and hands its lowering coordinates, D_i, the integer
norms and the Gram products to irrep._scaled_form, the form builder of
new_generic_irrep too, and so gets an Irrep with no radical (prepare
renders its file tables).  _coefficients turns an integer state
c*sqrt(f)*v into its terms, the coefficient of (a, b) being the single
radical c*v_ab*sqrt(f*r_a*r_b): render_states and cli.states_to_json
render them through _state_texts, each distinct coefficient once per
file, the read-only FieldElem views hw_state, levels and by_weight build
their states from them on access, and the public product_lower builds its
result from them.  Those views and the
public product_lower and product_scp are a FieldElem façade over the
integer core: _split reads a FieldElem state as one primitive integer
vector and one rational scale per radical class, and the integer lowering
and scalar product run on those.

Positive rescaling keeps pivots and signs, so the search over the integer
vectors picks the same highest-weight states, with the same phases, as a
search over the field would, and the unit states sign*v/sqrt(<v|v>) do not
depend on the scales.

One sparse elimination, linalg's _Reducer (the irrep builder's too),
serves the descent (is a lowered state new at its weight?), the
highest-weight search (its rows are the Gram images of the lowered basis
pairs one root higher and of the earlier copies, its null vector the new
state) and prepare (the coordinates of a lowered state on the states
already there).  prepare needs it least: the descent records where each
kept state came from, so the lowering that made it is read, not redone,
and a lowering into a weight of one state is a checked integer multiple
of that state; only the other lowerings into degenerate weights are
reduced.  Those rows span the Gram image of everything the earlier
irreps hold at the weight, and the null vector takes min-label pivots,
which depend only on the row space: so the vector is the one the Gram
images of all the states the earlier irreps built there would give, and an
irrep comes out the same whether the irreps before it were built or not.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import mul
from types import MappingProxyType

from .exactnum import FieldElem, _render_terms, _sqrt, _square_free
from .linalg import LabeledVector, _integral, _Reducer, _scaled_ints
from .liealg import (
    ConsistencyError,
    cartan,
    freudenthal,
    level_vector,
    weyl_dim,
)
from .irrep import ImportedIrrepData, Irrep, Ket, _scaled_form, _vadd, _vsub

__all__ = [
    "ProductIrrep",
    "Decomposition",
    "DecompositionError",
    "product_weight",
    "product_lower",
    "product_scp",
    "basis_product",
    "descend_irrep",
    "decompose",
    "check_dims",
    "prepare",
    "prepare_with_states",
    "result",
    "render_states",
]

# labels are (left ket label, right ket label) pairs
ProductState = LabeledVector


class DecompositionError(ConsistencyError):
    """The found irreps do not exhaust the tensor product."""


def _pairs_weight(pairs, l: Irrep, r: Irrep):
    w = None
    for a, b in pairs:
        ww = _vadd(l.weight_of[a], r.weight_of[b])
        if w is None:
            w = ww
        elif w != ww:
            raise ConsistencyError(f"product state mixes weights {w} and {ww}")
    return w


def product_weight(s: ProductState, l: Irrep, r: Irrep):
    """Common weight of all ket pairs of s (they must agree)."""
    if s.is_zero():
        raise ConsistencyError("the zero vector carries no weight")
    return _pairs_weight(s.labels(), l, r)


# ------------------------------------------------------------ rational core
# A rational vector is a dict {(a, b): q} with nonzero int or Fraction q
# over the rescaled basis u_a x u_b of the two factors' rational forms;
# the descent, the search and prepare hold only integer ones.

def _int_tables(fl, fr):
    """[(D_i, low_l, low_r)] for the roots i = 1..rank: the root-i lowering
    tables of the rational forms fl and fr, both times D_i, as ints."""
    return [_scaled_ints(fl.lower[i], fr.lower[i])
            for i in range(1, len(fl.lower) + 1)]


def _int_gram(fl, fr):
    """(E, gram_l, gram_r): the Gram tables of fl and fr, both times d, as
    ints; _gram_apply and _scp on them give E = d*d times the product
    form."""
    d, gram_l, gram_r = _scaled_ints(fl.gram, fr.gram)
    return d * d, gram_l, gram_r


def _lower(v, low_l, low_r):
    """E_-i acting as E x 1 + 1 x E; low_l, low_r are the factors' integer
    lowering tables of root i from _int_tables, so on an integer vector v
    this is D_i times the lowered vector, in ints."""
    out = {}
    for (a, b), c in v.items():
        for t, q in low_l.get(a, ()):
            k = (t, b)
            x = out.get(k, 0) + c * q
            if x:
                out[k] = x
            else:
                del out[k]
        for t, q in low_r.get(b, ()):
            k = (a, t)
            x = out.get(k, 0) + c * q
            if x:
                out[k] = x
            else:
                del out[k]
    return out


def _gram_apply(v, gram_l, gram_r):
    """G v for the product Gram matrix G = G_l x G_r."""
    out = {}
    for (a, b), c in v.items():
        for a2, g in gram_l[a]:
            cg = c * g
            for b2, h in gram_r[b]:
                k = (a2, b2)
                out[k] = out.get(k, 0) + cg * h
    return {k: x for k, x in out.items() if x}


def _scp(v, w, gram_l, gram_r):
    """<v|w> of two rational vectors."""
    acc = 0
    for (a, b), c in v.items():
        for a2, g in gram_l[a]:
            cg = c * g
            for b2, h in gram_r[b]:
                x = w.get((a2, b2))
                if x:
                    acc += cg * h * x
    return acc


def _coefficients(f, cls_l, cls_r):
    """The function (v, c) -> terms of the product state c*sqrt(f)*v, for an
    integer vector v over u_a x u_b and a rational c > 0; cls_l, cls_r are
    the factors' classes.  The terms (g, n, m, a, b) come in label order:
    the coefficient of e_a x e_b is n/m*sqrt(g), in lowest terms with
    m > 0.  It is c*v_ab*sqrt(f*r_a*r_b), and sqrt(f*r_a*r_b) == t*sqrt(g)
    is worked out once per pair of classes."""
    radicals = {}  # (r_a, r_b) -> (t, g)

    def terms(v, c):
        cn, cd = c.numerator, c.denominator
        out = []
        for ab in sorted(v):
            a, b = ab
            key = (cls_l[a], cls_r[b])
            tg = radicals.get(key)
            if tg is None:
                tg = radicals[key] = _square_free(f * key[0] * key[1])
            n = cn * v[ab] * tg[0]
            h = gcd(n, cd)
            out.append((tg[1], n // h, cd // h, a, b))
        return out

    return terms


def _field_state(terms) -> ProductState:
    """The FieldElem product state of _coefficients terms, summed by label."""
    return LabeledVector(
        (FieldElem({g: Fraction(n, m)}), (a, b)) for g, n, m, a, b in terms
    )


def _split(s: ProductState, cls_l, cls_r):
    """{f: (v, c)} with s == the sum of c*sqrt(f)*v, each v a primitive
    integer vector and c > 0 rational."""
    parts = {}
    for c, (a, b) in s.terms:
        rab = cls_l[a] * cls_r[b]
        for f, q in c.terms.items():
            # q*sqrt(f) e_a x e_b = q*t/rab * sqrt(g) u_a x u_b
            t, g = _square_free(f * rab)
            parts.setdefault(g, {})[(a, b)] = q * t / rab
    out = {}
    for g, vec in parts.items():
        v, num, den = _integral(vec)
        out[g] = (v, Fraction(den, num))
    return out


def product_lower(s: ProductState, root: int, l: Irrep, r: Irrep) -> ProductState:
    """E_-root acting as E x 1 + 1 x E."""
    if not 1 <= root <= l.algebra.rank:
        raise ValueError(f"root index must lie in 1..{l.algebra.rank}")
    fl, fr = l.rational_form(), r.rational_form()
    d, low_l, low_r = _scaled_ints(fl.lower[root], fr.lower[root])
    return _field_state(
        term for f, (v, c) in _split(s, fl.r, fr.r).items()
        for term in _coefficients(f, fl.r, fr.r)(_lower(v, low_l, low_r), c / d)
    )


def product_scp(s1: ProductState, s2: ProductState, l: Irrep, r: Irrep):
    """<s1|s2> built from the factor scalar products."""
    fl, fr = l.rational_form(), r.rational_form()
    e, gram_l, gram_r = _int_gram(fl, fr)
    p2 = _split(s2, fl.r, fr.r).items()
    return FieldElem.make(
        (f * g, c * k * Fraction(_scp(v, w, gram_l, gram_r), e))
        for f, (v, c) in _split(s1, fl.r, fr.r).items()
        for g, (w, k) in p2
    )


class _States(Sequence):
    """Read-only FieldElem view of rational vectors, converted on access."""

    __slots__ = ("_vecs", "_convert")

    def __init__(self, vecs, convert):
        self._vecs = vecs
        self._convert = convert

    def __len__(self):
        return len(self._vecs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._convert(v) for v in self._vecs[i]]
        return self._convert(self._vecs[i])


class ProductIrrep:
    """An irrep living inside a tensor product: its highest-weight product
    state and, once descended, all states grouped by level.

    Each state is kept as a pair (v, sigma): a primitive integer vector v
    and a positive rational scale sigma.  hw_state, levels and by_weight
    show them as the FieldElem product states rho*sigma*v, with one radical
    rho = k*sqrt(f) for the whole irrep.
    """

    def __init__(self, hw_state: ProductState):
        self._hw_state = hw_state  # as given, read until descended
        self._hw_vec = None  # primitive integer highest-weight vector
        self._scale = None  # (f, k): rho = k*sqrt(f)
        self._levels = None  # (v, sigma) pairs by level, once descended
        self._by_weight = None  # weight -> (v, sigma) pairs
        self._origins = None  # levels below the top: (parent index, i, g)
        self._terms = None  # _coefficients of the radical sqrt(f)
        self.hw = None  # set by descend_irrep
        self.weights = None  # weights parallel to levels
        self.descent = None  # weight -> root-coordinate drop from hw
        self.dim = 1

    @classmethod
    def _from_vector(cls, vec, scale):
        p = cls(None)
        p._hw_vec, p._scale = vec, scale
        return p

    @property
    def descended(self):
        return self.hw is not None

    def _start(self, l: Irrep, r: Irrep):
        """Read the given FieldElem highest-weight state as a primitive
        integer vector times the radical of the irrep, and check that every
        raising operator kills it: that it is Gram-orthogonal to E_-i of
        every basis pair at w + alpha_i, for every root i."""
        # refuses zero and mixed states
        w = product_weight(self._hw_state, l, r)
        fl, fr = l.rational_form(), r.rational_form()
        parts = _split(self._hw_state, fl.r, fr.r)
        if len(parts) != 1:
            raise ConsistencyError(
                f"{_product_name(l, r)}: the highest-weight state is not one "
                "radical times a rational vector"
            )
        ((f, (v, c)),) = parts.items()
        _, gram_l, gram_r = _int_gram(fl, fr)
        for i, ((_, low_l, low_r), row) in enumerate(
                zip(_int_tables(fl, fr), cartan(l.algebra)), 1):
            for ab in _basis_pairs(l, r, _vadd(w, row)):
                low = _lower({ab: 1}, low_l, low_r)
                if low and _scp(low, v, gram_l, gram_r):
                    raise ConsistencyError(
                        f"{_product_name(l, r)}: the given state at weight "
                        f"{w} is not a highest-weight vector: raising it by "
                        f"root {i} does not give zero"
                    )
        self._hw_vec, self._scale = v, (f, c)

    def _state(self, state) -> ProductState:
        v, sigma = state
        return _field_state(self._terms(v, self._scale[1] * sigma))

    @property
    def hw_state(self) -> ProductState:
        if self._levels is None:
            return self._hw_state
        return self._state((self._hw_vec, 1))

    @property
    def levels(self):
        """States level by level, in construction order, read-only."""
        if self._levels is None:
            return ((self._hw_state,),)
        return tuple(_States(lev, self._state) for lev in self._levels)

    @property
    def by_weight(self):
        """weight -> states in construction order, read-only, once
        descended."""
        if self._by_weight is None:
            return None
        return MappingProxyType(
            {w: _States(vs, self._state) for w, vs in self._by_weight.items()})

    def __repr__(self):
        if self.descended:
            return f"ProductIrrep(hw={self.hw}, dim={self.dim})"
        return "ProductIrrep(<not descended>)"


def descend_irrep(p: ProductIrrep, l: Irrep, r: Irrep) -> ProductIrrep:
    """Build the full module under p.hw_state level by level.

    Candidates are generated lowering each state of the current level by
    each simple root, in (state order, root index) order; a candidate is
    kept iff it is linearly independent of the states already kept at its
    weight.  A kept candidate D_i*E v of content g, lowered from the state
    (v, sigma), is stored as its primitive vector with scale sigma*g/D_i,
    and its origin (the index of (v, sigma) in the level above, i, g) in
    p._origins, so that prepare_with_states reads D_i*E v == g*child
    instead of lowering v again.

    The descent is capped by Freudenthal's multiplicities: a state is
    lowered only into a weight of the irrep that still has room, a weight
    of multiplicity 1 keeps its first nonzero candidate without an
    elimination, and a weight's elimination is dropped once it is full.
    From a highest-weight vector of a representation this keeps the same
    states as the uncapped descent: a full weight admits no further
    independent vector, and a weight outside the irrep gets zero.  Every
    weight of the irrep must then hold its multiplicity (one never reached
    holds 0), and the total must be the Weyl dimension; with at most
    min(true, Freudenthal) states kept per weight, the two checks verify
    Freudenthal in full (module docstring).  A given start state is
    checked to lie in the raising kernel (ProductIrrep._start).

    A state kept from a lowering by root k is not lowered by a root i < k
    with a_ik == 0: F_i commutes with F_k, so the candidate lies in the
    span of F_k of states kept earlier, candidates that came before it at
    its weight, and the greedy descent would find it dependent or zero
    (module docstring).  This keeps the same states and origins too.
    """
    la = l.algebra
    fl, fr = l.rational_form(), r.rational_form()
    if p._hw_vec is None:
        p._start(l, r)
    top = (p._hw_vec, 1)
    hw = _pairs_weight(p._hw_vec, l, r)
    recs = freudenthal(la, hw)
    # each weight keyed by its descent vector packed into one int, field i
    # B bits wide, so that w - alpha_i has the key k + step_i: a child's
    # field holds at most the lowest weight's level plus one, with no carry
    B = (recs[-1].level + 1).bit_length()
    steps = [1 << (B * i) for i in range(la.rank)]
    keyed = {sum(map(mul, rec.descent, steps)): rec for rec in recs}
    mult = {k: rec.degeneracy for k, rec in keyed.items()}
    room = dict(mult)  # weight -> states it still lacks
    room[0] -= 1
    # weight -> (i, D_i, low_l, low_r, key and labels of w - alpha_i) for
    # the children in mult
    lows = list(enumerate(zip(steps, _int_tables(fl, fr)), 1))
    children = {
        k: [(i, *t, k2, keyed[k2].dynkin) for i, (step, t) in lows
            if (k2 := k + step) in mult]
        for k in mult}
    # follows[k][i]: whether a state lowered by root k is lowered by root i;
    # not when i < k and a_ik == 0 (the docstring says why)
    A = cartan(la)
    follows = [[True] * (la.rank + 1)] + [
        [i >= k or A[i - 1][k - 1] != 0 for i in range(la.rank + 1)]
        for k in range(1, la.rank + 1)]
    levels = [[top]]
    p.weights = [[hw]]
    origins = []  # below the top, per level: (parent index, root, content)
    by_weight = {hw: [top]}
    reducers = {}  # weight of multiplicity > 1 that is not yet full
    count = 1
    # the top follows no root: every root lowers it
    cur_states, cur_keys, cur_origins = levels[0], [0], [(None, 0, None)]
    while True:
        nxt_states, nxt_weights, nxt_keys, nxt_origins = [], [], [], []
        for j, ((s, sigma), k, (_, root, _)) in enumerate(
                zip(cur_states, cur_keys, cur_origins)):
            follow = follows[root]
            for i, d, low_l, low_r, k2, w2 in children[k]:
                if not follow[i]:
                    continue
                left = room[k2]
                if not left:
                    continue
                low = _lower(s, low_l, low_r)
                if not low:
                    continue
                low, alpha, g = _integral(low)
                if mult[k2] > 1:
                    red = reducers.get(k2)
                    if red is None:
                        red = reducers[k2] = _Reducer()
                    if red.add_row(dict(low), alpha, g) is not None:
                        continue
                    if left == 1:
                        del reducers[k2]
                room[k2] = left - 1
                state = (low, sigma * g if d == 1 else sigma * Fraction(g, d))
                nxt_states.append(state)
                nxt_weights.append(w2)
                nxt_keys.append(k2)
                nxt_origins.append((j, i, g))
                by_weight.setdefault(w2, []).append(state)
        if not nxt_states:
            break
        levels.append(nxt_states)
        p.weights.append(nxt_weights)
        origins.append(nxt_origins)
        count += len(nxt_states)
        cur_states, cur_keys, cur_origins = nxt_states, nxt_keys, nxt_origins
    p.hw = hw
    p.dim = count
    p.descent = {rec.dynkin: rec.descent for rec in recs}
    p._levels, p._by_weight, p._origins = levels, by_weight, origins
    p._terms = _coefficients(p._scale[0], fl.r, fr.r)
    for k, m in mult.items():
        if room[k]:
            raise ConsistencyError(
                f"{_product_name(l, r)}: irrep {hw}: weight "
                f"{keyed[k].dynkin} holds {m - room[k]} states, multiplicity "
                f"is {m}"
            )
    target = weyl_dim(la, hw)
    if count != target:
        raise ConsistencyError(
            f"{_product_name(l, r)}: descent of irrep {hw} produced {count} "
            f"states, Weyl dimension is {target}"
        )
    return p


class Decomposition:
    """Clebsch-Gordan decomposition of left x right."""

    def __init__(self, left: Irrep, right: Irrep):
        if left.algebra != right.algebra:
            raise ValueError(
                f"cannot tensor {left.algebra.name} with {right.algebra.name}"
            )
        self.left = left
        self.right = right
        self.found = []  # ProductIrreps in discovery order

    def __repr__(self):
        return (
            f"Decomposition({self.left.hw} x {self.right.hw}, "
            f"{len(self.found)} irreps)"
        )


def _basis_pairs(l: Irrep, r: Irrep, w) -> list:
    pairs = []
    for wa, la_labels in l.labels_by_weight.items():
        rb_labels = r.labels_by_weight.get(_vsub(w, wa))
        if rb_labels:
            pairs.extend((a, b) for a in la_labels for b in rb_labels)
    pairs.sort()
    return pairs


def basis_product(d: Decomposition, w) -> list:
    """All ket pairs of summed weight w, each as a singleton state,
    ordered by (left label, right label)."""
    return [LabeledVector.unit(pr) for pr in _basis_pairs(d.left, d.right, w)]


def _tup(w):
    """A weight as comma-separated labels in parentheses, as messages and
    listings write it."""
    return "(" + ",".join(map(str, w)) + ")"


def _product_name(l: Irrep, r: Irrep) -> str:
    """The product as its algebra and both highest weights, for errors."""
    return f"{l.algebra.name} {_tup(l.hw)} x {_tup(r.hw)}"


def _plan(l: Irrep, r: Irrep) -> list:
    """The highest weights of the irreps of l x r in discovery order, one
    entry per copy.

    Visiting the product's dominant weights once, most levels first, what
    remains of a weight's multiplicity is the number n of irreps highest
    there; n times their Freudenthal multiplicities are subtracted from the
    lower weights.  The Weyl dimensions must add up to dim l * dim r.
    """
    la = l.algebra
    rest = {}  # dominant weight -> multiplicity not yet taken by an irrep
    for wa, la_labels in l.labels_by_weight.items():
        for wb, rb_labels in r.labels_by_weight.items():
            w = _vadd(wa, wb)
            if all(c >= 0 for c in w):
                rest[w] = rest.get(w, 0) + len(la_labels) * len(rb_labels)
    R = level_vector(la)

    def levels_key(w):
        return (sum(ri * wi for ri, wi in zip(R, w)), w)

    total = l.dim * r.dim
    plan, dims = [], []
    for w in sorted(rest, key=levels_key, reverse=True):
        n = rest[w]
        if n <= 0:
            continue
        plan += [w] * n
        dims += [weyl_dim(la, w)] * n
        for rec in freudenthal(la, w):
            if rec.dynkin in rest:
                rest[rec.dynkin] -= n * rec.degeneracy
    if sum(dims) != total:
        raise DecompositionError(
            f"{_product_name(l, r)}: dimensions do not add up: "
            + " + ".join(map(str, dims)) + f" != {total}"
        )
    return plan


def _hw_irreps(d: Decomposition, w, n):
    """Copies 1..n of the irrep at highest weight w, as undescended
    ProductIrreps in copy order, one at a time.

    A vector at w is a highest-weight vector iff it is Gram-orthogonal to
    E_-i of every basis pair at w + alpha_i, for every root i; copy c is
    also orthogonal to copies 1..c-1.  Those Gram images are the rows, and
    the null vector over the basis pairs at w is copy c, oriented so that
    its leading coefficient is positive.
    """
    l, r = d.left, d.right
    fl, fr = l.rational_form(), r.rational_form()
    e, gram_l, gram_r = _int_gram(fl, fr)
    red = _Reducer()
    for (_, low_l, low_r), row in zip(_int_tables(fl, fr), cartan(l.algebra)):
        for ab in _basis_pairs(l, r, _vadd(w, row)):
            low = _lower({ab: 1}, low_l, low_r)
            if low:
                red.add(_gram_apply(low, gram_l, gram_r))
    labels = _basis_pairs(l, r, w)
    for _ in range(n):
        x = red.null_vector(labels)
        if x is None:
            raise DecompositionError(
                f"{_product_name(l, r)}: no highest-weight vector at "
                f"weight {_tup(w)}"
            )
        y = _integral(x)[0]
        if y[min(y)] < 0:
            y = {k: -c for k, c in y.items()}
        norm = Fraction(_scp(y, y, gram_l, gram_r), e)
        yield ProductIrrep._from_vector(y, _sqrt(1 / norm))
        red.add(_gram_apply(y, gram_l, gram_r))


def decompose(d: Decomposition) -> None:
    """Split the product into irreps (fills d.found).

    _plan gives the highest weights; at each, _hw_irreps finds the
    highest-weight vector of every copy and descend_irrep builds its irrep.
    """
    l, r = d.left, d.right
    d.found = []
    for w, copies in groupby(_plan(l, r)):
        for p in _hw_irreps(d, w, len(list(copies))):
            d.found.append(descend_irrep(p, l, r))


def _select(d: Decomposition, plan, k: int) -> ProductIrrep:
    """Irrep k (1-based) of the plan of d, descended; the earlier copies at
    its weight give only their highest-weight vectors."""
    w = plan[k - 1]
    *_, p = _hw_irreps(d, w, plan[:k].count(w))
    return descend_irrep(p, d.left, d.right)


def check_dims(d: Decomposition) -> bool:
    """True iff the found irrep dimensions sum to dim(left)*dim(right)."""
    return sum(weyl_dim(d.left.algebra, p.hw) for p in d.found) == (
        d.left.dim * d.right.dim
    )


def _wstr(w):
    return "(" + "".join(f"{c}," for c in w) + ")"


def _ket_str(k: Ket) -> str:
    """A ket as its weight with trailing commas, then its degeneracy index."""
    return _wstr(k.dynkin) + str(k.deg_index)


def result(d: Decomposition) -> str:
    """Decomposition summary, one "(dynkin)dim" line per irrep."""
    return _result_text(d.left, d.right, [(p.hw, p.dim) for p in d.found])


def _result_text(l: Irrep, r: Irrep, irreps) -> str:
    """The summary of result for the (highest weight, dim) pairs irreps."""
    lines = []
    if irreps and sum(n for _, n in irreps) == l.dim * r.dim:
        lines.append("Dimensions match.")
        lines.append("Clebsch-Gordan decomposition successfully done!")
    lines.append(
        f"{l.algebra.name}: {_wstr(l.hw)}{l.dim} x {_wstr(r.hw)}{r.dim} = "
    )
    lines.extend(_wstr(w) + str(n) for w, n in irreps)
    return "\n".join(lines)


def prepare(p: ProductIrrep, l: Irrep, r: Irrep) -> ImportedIrrepData:
    """The unit-basis tables of prepare_with_states' irrep, ready to dump."""
    return ImportedIrrepData.from_irrep(prepare_with_states(p, l, r)[0])


def prepare_with_states(p: ProductIrrep, l: Irrep, r: Irrep):
    """The descended product irrep p as an Irrep of its own, and the map
    label a -> (v_a, sign_a, N_a): its unit state is sign_a*v_a/sqrt(N_a),
    v_a the primitive integer vector descend_irrep kept, N_a = <v_a|v_a>
    and sign_a the sign of the leading coefficient of v_a.

    States are labeled level by level; inside a level the weight buckets
    are ordered by descent vector ascending (the generic listing order) and
    states keep their construction order, which defines their degeneracy
    indices.  Each state is oriented once, as sign_a*v_a, before it is
    lowered or paired.  The lowering coordinates c_t/D_i of D_i*E u_a on
    the oriented states u_t come three ways.  A lowering the descent kept
    is read from its origin: D_i*E v_a == g*v_t gives sign_a*sign_t*g.  A
    lowering into a weight of one state t must be an integer multiple of
    the primitive u_t, and the multiple is the coordinate.  Any other is
    reduced against the oriented states of its weight by a tracked
    _Reducer.  _scaled_form forms the rational form from the coordinates,
    the norms and the Gram products.
    """
    la = l.algebra
    if not p.descended:
        raise ConsistencyError(f"{la.name}: prepare needs a descended irrep")
    A = cartan(la)
    fl, fr = l.rational_form(), r.rational_form()
    tables = _int_tables(fl, fr)
    e, gram_l, gram_r = _int_gram(fl, fr)
    kets = {}
    states = {}  # label -> (v_a, sign_a, N_a)
    oriented = {}  # label -> sign_a*v_a
    norms = {}  # label -> e*N_a, an int
    labels_at = {}
    reducers = {}  # weight of two or more states -> their tracked _Reducer
    level_labels = []  # per level, the label of each of its states
    lab = 1
    for weights in p.weights:
        for w in sorted(set(weights), key=p.descent.get):
            vs = p._by_weight[w]
            red = reducers[w] = _Reducer(track=True) if len(vs) > 1 else None
            for deg, (v, _) in enumerate(vs, 1):
                sign = 1 if v[min(v)] > 0 else -1
                u = oriented[lab] = v if sign > 0 else {k: -c for k, c in v.items()}
                if red is not None:
                    red.add(u)
                kets[lab] = Ket(w, deg)
                norms[lab] = nn = _scp(u, u, gram_l, gram_r)
                states[lab] = (v, sign, Fraction(nn, e))
                labels_at.setdefault(w, []).append(lab)
                lab += 1
        at = {w: iter(labels_at[w]) for w in set(weights)}
        level_labels.append([next(at[w]) for w in weights])
    lower = {i: (d, {}) for i, (d, _, _) in enumerate(tables, 1)}
    # the lowerings the descent kept: D_i*E v_a == g*v_t
    for above, below, origins in zip(level_labels, level_labels[1:], p._origins):
        for t, (j, i, g) in zip(below, origins):
            a = above[j]
            lower[i][1][a] = {t: states[a][1] * states[t][1] * g}
    for a, u in oriented.items():
        w = kets[a].dynkin
        for i, (_, low_l, low_r) in enumerate(tables, 1):
            rows = lower[i][1]
            if a in rows:
                continue
            low = _lower(u, low_l, low_r)
            if not low:
                continue
            w2 = _vsub(w, A[i - 1])
            targets = labels_at.get(w2)
            if not targets:
                raise ConsistencyError(
                    f"{la.name} irrep {p.hw}: lowering left the module at "
                    f"weight {w} root {i}"
                )
            red = reducers[w2]
            if red is None:  # one state there: low must be c times it
                c = _multiple(low, oriented[targets[0]])
                coords = None if c is None else {0: c}
            else:
                coords = red.add(low)
            if coords is None:
                raise ConsistencyError(
                    f"{la.name} irrep {p.hw}: lowered state at {w} root {i} "
                    "is outside the module"
                )
            rows[a] = {targets[k]: c for k, c in coords.items()}
    gram = {}
    for labs in labels_at.values():
        for ix, a in enumerate(labs):
            ua = oriented[a]
            gram[a] = {b: g for b in labs[ix + 1:]
                       if (g := _scp(ua, oriented[b], gram_l, gram_r))}
    form = _scaled_form(norms, lower, gram)
    return Irrep(la, p.hw, kets, form, "imported"), states


def _multiple(v, u):
    """The int c with v == c*u, or None when v is no multiple of u; u is a
    primitive integer vector, so every multiple of it is an integer one."""
    k0 = next(iter(u))
    c, rest = divmod(v.get(k0, 0), u[k0])
    if rest or len(v) != len(u) or any(v.get(k) != c * x for k, x in u.items()):
        return None
    return c


def _state_terms(p: ProductIrrep):
    """The states of the descended p level by level, each as its terms
    (radicand, n, m, a, b) in label order from _coefficients: the
    coefficient of e_a x e_b is n/m*sqrt(radicand).  Levels and states are
    produced one at a time, as they are read."""
    if not p.descended:
        raise ConsistencyError("rendering needs a descended irrep")
    k, terms = p._scale[1], p._terms
    return ((terms(v, k * sigma) for v, sigma in level) for level in p._levels)


def _state_texts(p: ProductIrrep, fmt: str):
    """The states of _state_terms, each term as (coefficient text in fmt,
    a, b), each distinct coefficient of p rendered once; _state_terms checks
    p at once."""
    texts = {}  # (radicand, n, m) -> its text

    def rendered(terms):
        out = []
        for g, n, m, a, b in terms:
            c = texts.get((g, n, m))
            if c is None:
                c = texts[g, n, m] = _render_terms(((g, n, m),), fmt)
            out.append((c, a, b))
        return out

    return (map(rendered, level) for level in _state_terms(p))


def render_states(p: ProductIrrep, l: Irrep, r: Irrep, fmt: str = "plain") -> str:
    """Nested listing of all states as (coeff, (left ket, right ket)) terms,
    grouped state-by-state and level-by-level; the coefficients come from
    _state_texts."""
    return "".join(_render_chunks(p, l, r, fmt))


def _render_chunks(p: ProductIrrep, l: Irrep, r: Irrep, fmt: str):
    """The text of render_states in pieces, one per state, each rendered as
    it is read; _state_texts checks p before the first."""
    levels = _state_texts(p, fmt)
    kets_l = {a: _ket_str(k) for a, k in l.kets.items()}
    kets_r = {b: _ket_str(k) for b, k in r.kets.items()}

    def chunks():
        yield "["
        for i, states in enumerate(levels):
            yield ";\n[" if i else "["
            head = "["
            for terms in states:
                yield head + ";\n  ".join([
                    f'("{c}", ("{kets_l[a]}", "{kets_r[b]}"))'
                    for c, a, b in terms
                ]) + "]"
                head = ";\n ["
            yield "]"
        yield "]"

    return chunks()
