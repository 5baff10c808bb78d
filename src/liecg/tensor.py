"""Two-factor tensor products and their Clebsch-Gordan decomposition.

A product state is a LabeledVector whose labels are (left ket, right ket)
pairs.  The Cartan generators act as H_i x 1 + 1 x H_i, so every basis pair
of a product state must carry the same summed weight; lowering operators
act by the Leibniz rule through each factor's lowering table.

Decomposition walks the classical algorithm: seed with the sum of the two
highest weights, build that irrep level by level (dropping states that are
linearly dependent, in a fixed deterministic order), then repeatedly pick
the remaining dominant weight with the most levels, solve for a state
orthogonal to everything already built at that weight, and descend again
until the dimensions add up.

All of this runs over the rationals.  Each factor holds its rational form
(Irrep.rational_form): in the basis u_a = sqrt(r_a) e_a, with r_a the
square-free class of label a, its lowering entries and its Gram matrix are
rational.  A product irrep keeps its states as rational vectors
{(a, b): q} over u_a x u_b, and the whole irrep shares one scale rho: the
found highest-weight vector y has rational norm N = <y|y>, and rho is
1/sqrt(N).  Radicals appear only where a FieldElem state is read: the
coefficient of (a, b) is rho * q * sqrt(r_a * r_b).  hw_state, levels and
by_weight are such views, converted on access.  prepare_with_states hands
out the found irrep as an Irrep holding its own rational form, with no
radical; prepare renders its file tables.  The public product_lower and
product_scp split a FieldElem state into one rational vector per radical
class and run the same rational lowering and scalar product.

Positive rescaling keeps pivots and signs, so the rational search picks
the same highest-weight states, with the same phases, as a search over the
field would.

One sparse elimination, linalg's _Reducer (the irrep builder's too),
serves the descent (is a lowered state new at its weight?), the
highest-weight search (its rows are the Gram images of the states already
built, its null vector the new state) and prepare (the coordinates of a
lowered state on the states already there).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd

from .exactnum import FieldElem, SqrtSum, _sqrt, _square_free
from .linalg import LabeledVector, _integral, _Reducer
from .liealg import (
    ConsistencyError,
    cartan,
    freudenthal,
    level_vector,
    weyl_dim,
)
from .irrep import ImportedIrrepData, Irrep, Ket, _scaled_form

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


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


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
# over the rescaled basis u_a x u_b of the two factors' rational forms.

def _lower(v, low_l, low_r):
    """E_-i acting as E x 1 + 1 x E; low_l, low_r are the factors' rational
    lowering tables of root i."""
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


def _to_field(parts, cls_l, cls_r) -> ProductState:
    """The FieldElem product state sum of k*sqrt(f)*v over the (f, k, v) in
    parts, each v a rational vector; cls_l, cls_r are the factors' classes."""
    items = {}
    for f, k, v in parts:
        for (a, b), q in v.items():
            items.setdefault((a, b), []).append((f * cls_l[a] * cls_r[b], k * q))
    return LabeledVector(
        (FieldElem(SqrtSum.make(it)), lab) for lab, it in items.items()
    )


def _split(s: ProductState, cls_l, cls_r):
    """{f: (v, m)} with s == sum of sqrt(f)/m * v, each v an integer vector
    and m > 0."""
    parts = {}
    for c, (a, b) in s.terms:
        rab = cls_l[a] * cls_r[b]
        for f, q in c.num.terms.items():
            # q*sqrt(f) e_a x e_b = q/rab * sqrt(f*rab) u_a x u_b
            t, g = _square_free(f * rab)
            parts.setdefault(g, []).append(
                ((a, b), q.numerator * t, q.denominator * rab)
            )
    out = {}
    for g, items in parts.items():
        m = 1
        for _, _, den in items:
            m = m * den // gcd(m, den)
        out[g] = ({lab: num * (m // den) for lab, num, den in items}, m)
    return out


def product_lower(s: ProductState, root: int, l: Irrep, r: Irrep) -> ProductState:
    """E_-root acting as E x 1 + 1 x E."""
    if not 1 <= root <= l.algebra.rank:
        raise ValueError(f"root index must lie in 1..{l.algebra.rank}")
    fl, fr = l.rational_form(), r.rational_form()
    low_l, low_r = fl.lower[root], fr.lower[root]
    parts = [
        (f, Fraction(1, m), _lower(v, low_l, low_r))
        for f, (v, m) in _split(s, fl.r, fr.r).items()
    ]
    return _to_field(parts, fl.r, fr.r)


def product_scp(s1: ProductState, s2: ProductState, l: Irrep, r: Irrep):
    """<s1|s2> built from the factor scalar products."""
    fl, fr = l.rational_form(), r.rational_form()
    p2 = _split(s2, fl.r, fr.r).items()
    return FieldElem(SqrtSum.make(
        (f * g, Fraction(_scp(v, w, fl.gram, fr.gram)) / (m * k))
        for f, (v, m) in _split(s1, fl.r, fr.r).items()
        for g, (w, k) in p2
    ))


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

    The states are kept as rational vectors v; hw_state, levels and
    by_weight show them as the FieldElem product states rho*v, with one
    radical rho = k*sqrt(f) for the whole irrep.
    """

    def __init__(self, hw_state: ProductState):
        self._hw_state = hw_state  # as given, read until descended
        self._hw_vec = None  # rational highest-weight vector
        self._scale = None  # (f, k): rho = k*sqrt(f)
        self._levels = None  # rational vectors by level, once descended
        self._by_weight = None  # weight -> rational vectors
        self._classes = None  # the factors' square-free classes
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

    def _state(self, v) -> ProductState:
        return _to_field([(*self._scale, v)], *self._classes)

    @property
    def hw_state(self) -> ProductState:
        if self._levels is None:
            return self._hw_state
        return self._state(self._hw_vec)

    @property
    def levels(self):
        """States level by level, in construction order."""
        if self._levels is None:
            return [[self._hw_state]]
        return [_States(lev, self._state) for lev in self._levels]

    @property
    def by_weight(self):
        """weight -> states in construction order, once descended."""
        if self._by_weight is None:
            return None
        return {w: _States(vs, self._state) for w, vs in self._by_weight.items()}

    def __repr__(self):
        if self.descended:
            return f"ProductIrrep(hw={self.hw}, dim={self.dim})"
        return "ProductIrrep(<not descended>)"


def descend_irrep(p: ProductIrrep, l: Irrep, r: Irrep) -> ProductIrrep:
    """Build the full module under p.hw_state level by level.

    Candidates are generated lowering each state of the current level by
    each simple root, in (state order, root index) order; a candidate is
    kept iff it is linearly independent of the states already kept at its
    weight.  The total count must come out at the Weyl dimension.
    """
    la = l.algebra
    A = cartan(la)
    n = la.rank
    fl, fr = l.rational_form(), r.rational_form()
    if p._hw_vec is None:
        product_weight(p._hw_state, l, r)  # refuses zero and mixed states
        parts = _split(p._hw_state, fl.r, fr.r)
        if len(parts) != 1:
            raise ConsistencyError(
                f"{la.name}: the highest-weight state is not one radical "
                "times a rational vector"
            )
        ((f, (p._hw_vec, m)),) = parts.items()
        p._scale = (f, Fraction(1, m))
    top = p._hw_vec
    hw = _pairs_weight(top, l, r)
    target = weyl_dim(la, hw)
    mult = {rec.dynkin: rec.degeneracy for rec in freudenthal(la, hw)}
    lows = [(fl.lower[i], fr.lower[i], A[i - 1]) for i in range(1, n + 1)]
    levels = [[top]]
    p.weights = [[hw]]
    by_weight = {hw: [top]}
    descent = {hw: (0,) * n}
    reducers = {hw: _Reducer()}
    reducers[hw].add(top)
    count = 1
    cur_states, cur_weights = levels[0], p.weights[0]
    while True:
        nxt_states, nxt_weights = [], []
        for s, w in zip(cur_states, cur_weights):
            dsc = descent[w]
            for i, (low_l, low_r, row) in enumerate(lows):
                low = _lower(s, low_l, low_r)
                if not low:
                    continue
                w2 = _vsub(w, row)
                red = reducers.get(w2)
                if red is None:
                    red = reducers[w2] = _Reducer()
                if red.add(low) is None:
                    nxt_states.append(low)
                    nxt_weights.append(w2)
                    by_weight.setdefault(w2, []).append(low)
                    if w2 not in descent:
                        descent[w2] = tuple(
                            q + (1 if k == i else 0) for k, q in enumerate(dsc)
                        )
        if not nxt_states:
            break
        levels.append(nxt_states)
        p.weights.append(nxt_weights)
        count += len(nxt_states)
        cur_states, cur_weights = nxt_states, nxt_weights
    p.hw = hw
    p.dim = count
    p.descent = descent
    p._levels, p._by_weight = levels, by_weight
    p._classes = (fl.r, fr.r)
    if count != target:
        raise ConsistencyError(
            f"descent of {la.name} {hw} produced {count} states, "
            f"Weyl dimension is {target}"
        )
    for w, states in by_weight.items():
        if len(states) != mult.get(w, 0):
            raise ConsistencyError(
                f"{la.name} irrep {hw}: weight {w} holds {len(states)} "
                f"states, multiplicity is {mult.get(w, 0)}"
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
        self.multiplicities = {}  # hw -> outer multiplicity

    def __repr__(self):
        return (
            f"Decomposition({self.left.hw} x {self.right.hw}, "
            f"{len(self.found)} irreps)"
        )


def _basis_pairs(d: Decomposition, w) -> list:
    pairs = []
    for wa, la_labels in d.left.labels_by_weight.items():
        rb_labels = d.right.labels_by_weight.get(_vsub(w, wa))
        if rb_labels:
            pairs.extend((a, b) for a in la_labels for b in rb_labels)
    pairs.sort()
    return pairs


def basis_product(d: Decomposition, w) -> list:
    """All ket pairs of summed weight w, each as a singleton state,
    ordered by (left label, right label)."""
    return [LabeledVector.unit(pr) for pr in _basis_pairs(d, w)]


def decompose(d: Decomposition) -> None:
    """Split the product into irreps (fills d.found, d.multiplicities)."""
    l, r = d.left, d.right
    la = l.algebra
    fl, fr = l.rational_form(), r.rational_form()
    d.found = []
    d.multiplicities = {}
    # multiplicity of each dominant weight in the full product
    prod_mult = {}
    for wa, la_labels in l.labels_by_weight.items():
        for wb, rb_labels in r.labels_by_weight.items():
            w = _vadd(wa, wb)
            if all(c >= 0 for c in w):
                prod_mult[w] = prod_mult.get(w, 0) + len(la_labels) * len(rb_labels)
    used = {}

    def take(p):
        d.found.append(p)
        d.multiplicities[p.hw] = d.multiplicities.get(p.hw, 0) + 1
        for w, states in p._by_weight.items():
            if all(c >= 0 for c in w):
                used[w] = used.get(w, 0) + len(states)

    first = ProductIrrep._from_vector({(1, 1): 1}, (1, Fraction(1)))
    descend_irrep(first, l, r)
    take(first)
    R = level_vector(la)

    def levels_key(w):
        return (sum(ri * wi for ri, wi in zip(R, w)), w)

    while True:
        cands = [w for w, m in prod_mult.items() if used.get(w, 0) < m]
        if not cands:
            break
        w = max(cands, key=levels_key)
        # one orthogonality row per state already built at w: its Gram image
        red = _Reducer()
        for p in d.found:
            for v in p._by_weight.get(w, ()):
                red.add(_gram_apply(v, fl.gram, fr.gram))
        x = red.null_vector(_basis_pairs(d, w))
        if x is None:
            raise DecompositionError(
                f"no state orthogonal to the built irreps at weight {w}"
            )
        y = _integral(x)[0]
        if y[min(y)] < 0:
            y = {k: -c for k, c in y.items()}
        norm = _scp(y, y, fl.gram, fr.gram)
        p = ProductIrrep._from_vector(y, _sqrt(Fraction(1) / norm))
        descend_irrep(p, l, r)
        take(p)
    if not check_dims(d):
        raise DecompositionError(
            "dimensions do not add up: "
            + " + ".join(str(p.dim) for p in d.found)
            + f" != {l.dim * r.dim}"
        )


def check_dims(d: Decomposition) -> bool:
    """True iff the found irrep dimensions sum to dim(left)*dim(right)."""
    return sum(weyl_dim(d.left.algebra, p.hw) for p in d.found) == (
        d.left.dim * d.right.dim
    )


def _wstr(w):
    return "(" + "".join(f"{c}," for c in w) + ")"


def result(d: Decomposition) -> str:
    """Decomposition summary, one "(dynkin)dim" line per irrep."""
    lines = []
    if d.found and check_dims(d):
        lines.append("Dimensions match.")
        lines.append("Clebsch-Gordan decomposition successfully done!")
    la = d.left.algebra
    lines.append(
        f"{la.name}: {_wstr(d.left.hw)}{d.left.dim} x "
        f"{_wstr(d.right.hw)}{d.right.dim} = "
    )
    for p in d.found:
        lines.append(_wstr(p.hw) + str(p.dim))
    return "\n".join(lines)


def prepare(p: ProductIrrep, l: Irrep, r: Irrep) -> ImportedIrrepData:
    """The unit-basis tables of prepare_with_states' irrep, ready to dump."""
    return ImportedIrrepData.from_irrep(prepare_with_states(p, l, r)[0])


def prepare_with_states(p: ProductIrrep, l: Irrep, r: Irrep):
    """The descended product irrep p as an Irrep of its own, and the map
    label a -> (v_a, sign_a, N_a): its unit state is sign_a*v_a/sqrt(N_a),
    v_a the rational vector descend_irrep kept, N_a = <v_a|v_a> and sign_a
    the sign of the leading coefficient of v_a.

    States are labeled level by level; inside a level the weight buckets
    are ordered by descent vector ascending (the generic listing order) and
    states keep their construction order, which defines their degeneracy
    indices.  Each lowered state is reduced against the descended states of
    its target weight, as descend_irrep did; its coordinates and the Gram
    entries of the signed states over N_1 give the rational form.
    """
    la = l.algebra
    if not p.descended:
        raise ConsistencyError(f"{la.name}: prepare needs a descended irrep")
    A = cartan(la)
    n = la.rank
    fl, fr = l.rational_form(), r.rational_form()
    kets = {}
    states = {}  # label -> (v_a, sign_a, N_a)
    labels_at = {}
    reducers = {}
    lab = 1
    for weights in p.weights:
        for w in sorted(set(weights), key=p.descent.get):
            red = reducers[w] = _Reducer(track=True)
            for deg, v in enumerate(p._by_weight[w], 1):
                red.add(v)
                kets[lab] = Ket(w, deg)
                sign = 1 if v[min(v)] > 0 else -1
                states[lab] = (v, sign, Fraction(_scp(v, v, fl.gram, fr.gram)))
                labels_at.setdefault(w, []).append(lab)
                lab += 1
    lowering = {}
    for a, (v, sign, _) in states.items():
        w = kets[a].dynkin
        for i in range(1, n + 1):
            low = _lower(v, fl.lower[i], fr.lower[i])
            if not low:
                continue
            w2 = _vsub(w, A[i - 1])
            targets = labels_at.get(w2)
            if not targets:
                raise ConsistencyError(
                    f"{la.name} irrep {p.hw}: lowering left the module at "
                    f"weight {w} root {i}"
                )
            coords = reducers[w2].add(low)
            if coords is None:
                raise ConsistencyError(
                    f"{la.name} irrep {p.hw}: lowered state at {w} root {i} "
                    "is outside the module"
                )
            # E v_a = sum c_k v_k, so the signed states have c_k*sign_a*sign_k
            lowering[(i, a)] = {
                targets[k]: c * sign * states[targets[k]][1]
                for k, c in coords.items()
            }
    n1 = states[1][2]
    gram = {a: {a: na / n1} for a, (_, _, na) in states.items()}
    for labs in labels_at.values():
        for ix, a in enumerate(labs):
            va, sa, _ = states[a]
            for b in labs[ix + 1:]:
                vb, sb, _ = states[b]
                g = _scp(va, vb, fl.gram, fr.gram)
                if g:
                    gram[a][b] = gram[b][a] = sa * sb * g / n1
    return Irrep(la, p.hw, kets, _scaled_form(n, lowering, gram), "imported"), states


def render_states(p: ProductIrrep, l: Irrep, r: Irrep, fmt: str = "plain") -> str:
    """Nested listing of all states as (coeff, (left ket, right ket)) terms,
    grouped state-by-state and level-by-level."""

    def kstr(irr, label):
        k = irr.kets[label]
        return _wstr(k.dynkin) + str(k.deg_index)

    out_levels = []
    for states in p.levels:
        out_states = []
        for s in states:
            terms = [
                f'("{c.render(fmt)}", ("{kstr(l, a)}", "{kstr(r, b)}"))'
                for c, (a, b) in s.terms
            ]
            out_states.append("[" + ";\n  ".join(terms) + "]")
        out_levels.append("[" + ";\n ".join(out_states) + "]")
    return "[" + ";\n".join(out_levels) + "]"
