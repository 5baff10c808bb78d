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

One sparse elimination, _Reducer, serves both the descent (is a lowered
state new at its weight?) and prepare (its coordinates on the states that
are already there), which turns them into the exported lowering tables.
"""

from __future__ import annotations

from .exactnum import ONE, ZERO, field_sqrt
from .linalg import LabeledVector, gauss, label_key
from .liealg import (
    ConsistencyError,
    cartan,
    freudenthal,
    level_vector,
    weyl_dim,
)
from .irrep import ImportedIrrepData, Irrep, Ket

__all__ = [
    "ProductState",
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


def product_weight(s: ProductState, l: Irrep, r: Irrep):
    """Common weight of all ket pairs of s (they must agree)."""
    if s.is_zero():
        raise ConsistencyError("the zero vector carries no weight")
    w = None
    for _, (a, b) in s.terms:
        ww = _vadd(l.weight_of[a], r.weight_of[b])
        if w is None:
            w = ww
        elif w != ww:
            raise ConsistencyError(f"product state mixes weights {w} and {ww}")
    return w


def product_lower(s: ProductState, root: int, l: Irrep, r: Irrep) -> ProductState:
    """E_-root acting as E x 1 + 1 x E."""
    terms = []
    for c, (a, b) in s.terms:
        for cl, t in l.lower(root, a).terms:
            terms.append((c * cl, (t, b)))
        for cr, t in r.lower(root, b).terms:
            terms.append((c * cr, (a, t)))
    return LabeledVector(terms)


def product_scp(s1: ProductState, s2: ProductState, l: Irrep, r: Irrep):
    """<s1|s2> built from the factor scalar products."""
    acc = ZERO
    for c1, (a1, b1) in s1.terms:
        for c2, (a2, b2) in s2.terms:
            pa = l.scalar_product(a1, a2)
            if pa.is_zero():
                continue
            pb = r.scalar_product(b1, b2)
            if pb.is_zero():
                continue
            acc = acc + c1 * c2 * pa * pb
    return acc


class _Reducer:
    """Incremental exact rank tracker over sparse coefficient rows.

    Built with track=True, it also keeps every stored row as a combination
    of the vectors kept so far, so a dependent vector comes back with its
    coordinates in terms of them.
    """

    __slots__ = ("rows", "combs")

    def __init__(self, track=False):
        self.rows = []  # (pivot label, row dict with row[pivot] == 1)
        # parallel to rows when tracking: {kept index: coefficient} giving
        # the row in terms of kept vectors
        self.combs = [] if track else None

    def add(self, vec: LabeledVector):
        """None, and remember the vector as kept vector number len(rows), if
        it is independent of those kept; else its coordinates {k: c} with
        vec == sum of c times kept vector k (left empty unless tracking)."""
        row = {lab: c for c, lab in vec.terms}
        combs = self.combs
        coords = {}
        for k, (pl, prow) in enumerate(self.rows):
            c = row.get(pl)
            if c is None or c.is_zero():
                continue
            for l2, c2 in prow.items():
                nv = row.get(l2, ZERO) - c * c2
                if nv.is_zero():
                    row.pop(l2, None)
                else:
                    row[l2] = nv
            if combs is not None:
                for kk, ck in combs[k].items():
                    nv = coords.get(kk, ZERO) + c * ck
                    if nv.is_zero():
                        coords.pop(kk, None)
                    else:
                        coords[kk] = nv
        row = {l: c for l, c in row.items() if not c.is_zero()}
        if not row:
            return coords
        pl = min(row, key=label_key)
        inv = row[pl].invert()
        if combs is not None:
            comb = {k: -c * inv for k, c in coords.items()}
            comb[len(self.rows)] = inv
            combs.append(comb)
        self.rows.append((pl, {l: c * inv for l, c in row.items()}))
        return None


class ProductIrrep:
    """An irrep living inside a tensor product: its highest-weight product
    state and, once descended, all states grouped by level."""

    def __init__(self, hw_state: ProductState):
        self.hw_state = hw_state
        self.levels = [[hw_state]]
        self.hw = None  # set by descend_irrep
        self.weights = None  # weights parallel to levels
        self.by_weight = None  # weight -> states in construction order
        self.descent = None  # weight -> root-coordinate drop from hw
        self.dim = 1

    @property
    def descended(self):
        return self.hw is not None

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
    hw = product_weight(p.hw_state, l, r)
    target = weyl_dim(la, hw)
    mult = {rec.dynkin: rec.degeneracy for rec in freudenthal(la, hw)}
    p.hw = hw
    p.levels = [[p.hw_state]]
    p.weights = [[hw]]
    p.by_weight = {hw: [p.hw_state]}
    p.descent = {hw: (0,) * n}
    reducers = {hw: _Reducer()}
    reducers[hw].add(p.hw_state)
    count = 1
    cur_states, cur_weights = p.levels[0], p.weights[0]
    while True:
        nxt_states, nxt_weights = [], []
        for s, w in zip(cur_states, cur_weights):
            dsc = p.descent[w]
            for i in range(1, n + 1):
                low = product_lower(s, i, l, r)
                if low.is_zero():
                    continue
                w2 = _vsub(w, A[i - 1])
                red = reducers.get(w2)
                if red is None:
                    red = reducers[w2] = _Reducer()
                if red.add(low) is None:
                    nxt_states.append(low)
                    nxt_weights.append(w2)
                    p.by_weight.setdefault(w2, []).append(low)
                    if w2 not in p.descent:
                        p.descent[w2] = tuple(
                            q + (1 if k == i - 1 else 0) for k, q in enumerate(dsc)
                        )
        if not nxt_states:
            break
        p.levels.append(nxt_states)
        p.weights.append(nxt_weights)
        count += len(nxt_states)
        cur_states, cur_weights = nxt_states, nxt_weights
    p.dim = count
    if count != target:
        raise ConsistencyError(
            f"descent of {la.name} {hw} produced {count} states, "
            f"Weyl dimension is {target}"
        )
    for w, states in p.by_weight.items():
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


def basis_product(d: Decomposition, w) -> list:
    """All ket pairs of summed weight w, each as a singleton state,
    ordered by (left label, right label)."""
    pairs = []
    for wa, la_labels in d.left.labels_by_weight.items():
        wb = _vsub(w, wa)
        rb_labels = d.right.labels_by_weight.get(wb)
        if rb_labels:
            for a in la_labels:
                for b in rb_labels:
                    pairs.append((a, b))
    pairs.sort()
    return [LabeledVector.unit(pr) for pr in pairs]


def _nullspace_vector(rows, m):
    """One exact nonzero solution of the homogeneous system rows.x = 0;
    the first free variable is set to 1, remaining free ones to 0."""
    if not rows:
        x = [ZERO] * m
        x[0] = ONE
        return x
    ech, _ = gauss(rows)
    pivots = []
    for row in ech:
        for j, v in enumerate(row):
            if not v.is_zero():
                pivots.append(j)
                break
    pivot_set = set(pivots)
    j0 = next((j for j in range(m) if j not in pivot_set), None)
    if j0 is None:
        return None
    x = [ZERO] * m
    x[j0] = ONE
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        acc = ZERO
        row = ech[i]
        for j in range(p + 1, m):
            if not row[j].is_zero() and not x[j].is_zero():
                acc = acc + row[j] * x[j]
        x[p] = -acc / row[p]
    return x


def _normalized(v: ProductState, l: Irrep, r: Irrep):
    """v at unit norm with a positive leading coefficient, and the factor
    f = +-1/|v| that it is v scaled by."""
    f = ONE / field_sqrt(product_scp(v, v, l, r))
    nv = v.scaled(f)
    if nv.terms[0][0].sign() < 0:
        nv, f = -nv, -f
    return nv, f


def decompose(d: Decomposition) -> None:
    """Split the product into irreps (fills d.found, d.multiplicities)."""
    l, r = d.left, d.right
    la = l.algebra
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
        for w, states in p.by_weight.items():
            if all(c >= 0 for c in w):
                used[w] = used.get(w, 0) + len(states)

    first = ProductIrrep(LabeledVector.unit((1, 1)))
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
        basis = basis_product(d, w)
        m = len(basis)
        prev = []
        for p in d.found:
            prev.extend(p.by_weight.get(w, ()))
        rows = [[product_scp(b, s, l, r) for b in basis] for s in prev]
        x = _nullspace_vector(rows, m)
        if x is None:
            raise DecompositionError(
                f"no state orthogonal to the built irreps at weight {w}"
            )
        terms = [(c, b.terms[0][1]) for c, b in zip(x, basis) if not c.is_zero()]
        hw_state = _normalized(LabeledVector(terms), l, r)[0]
        p = ProductIrrep(hw_state)
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
    """Read off labeled, unit-normalized lowering and scalar-product tables
    for a descended product irrep, ready for new_imported_irrep.

    States are labeled level by level; inside a level the weight buckets
    are ordered by descent vector ascending (the generic listing order) and
    states keep their construction order, which defines their degeneracy
    indices.
    """
    return prepare_with_states(p, l, r)[0]


def prepare_with_states(p: ProductIrrep, l: Irrep, r: Irrep):
    """prepare() plus the label -> normalized ProductState map it labeled.

    Each lowered state is reduced against the descended states of its
    target weight, as descend_irrep did, and the coordinates it comes back
    with are rescaled from the descended to the normalized states.
    """
    la = l.algebra
    if not p.descended:
        raise ConsistencyError(f"{la.name}: prepare needs a descended irrep")
    A = cartan(la)
    n = la.rank
    kets = {}
    state_of = {}
    descended = {}  # label -> the state descend_irrep kept
    factor = {}  # label -> f with state_of[label] == f * descended[label]
    labels_at = {}
    reducers = {}
    lab = 1
    for weights in p.weights:
        for w in sorted(set(weights), key=p.descent.get):
            red = reducers[w] = _Reducer(track=True)
            for deg, s in enumerate(p.by_weight[w], 1):
                red.add(s)
                kets[lab] = Ket(w, deg)
                descended[lab] = s
                state_of[lab], factor[lab] = _normalized(s, l, r)
                labels_at.setdefault(w, []).append(lab)
                lab += 1
    lowering = {}
    for a in range(1, lab):
        w = kets[a].dynkin
        for i in range(1, n + 1):
            low = product_lower(descended[a], i, l, r)
            if low.is_zero():
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
            fa = factor[a]
            lowering[(i, a)] = tuple(
                (coords[k] * fa / factor[t], t)
                for k, t in enumerate(targets)
                if k in coords
            )
    scp = {}
    for w, labs in labels_at.items():
        for ix, a in enumerate(labs):
            for b in labs[ix + 1:]:
                v = product_scp(state_of[a], state_of[b], l, r)
                if not v.is_zero():
                    scp[(a, b)] = v
    data = ImportedIrrepData(algebra=la, kets=kets, lowering=lowering, scp=scp)
    return data, state_of


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
