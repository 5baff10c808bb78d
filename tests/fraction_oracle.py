"""The Fraction-valued descent, highest-weight search, prepare and tracked
elimination that the integer versions in liecg.tensor and liecg.linalg
replaced, kept as oracles, and two Fraction checks of imported tables.

Here lowering reads the factors' rational tables as they are, so a single
fractional entry turns every later lowered vector into Fractions; states
are the exact lowered vectors, with no per-state scale; and the tracked
elimination keeps each stored row's combination in Fractions.  The
helpers that did not change (_gram_apply, _scp) are shared with the
package.  The conversions the package merged into one routine each are
kept here as they were: _to_field (FieldElem states from rational
vectors), _split (a FieldElem state into integer vectors, one per radical
class, each with its own lcm and gcd) and _scaled_form (the rational form
of a lowering table and Gram rows, in Fractions).  oracle_product_lower
and oracle_product_scp are the public façade written on them.

fraction_prepare is the prepare that ran on the integer states but formed
its entries in Fractions, c*f*sign_k and then _scaled_form's q*k_t/k_a;
fraction_sum_rule is the string sum rule summed in Fractions over the
rational form, with G^-1.u from a tracking _Reducer per (state, root): the
diagonal of [E_i, F_i] = H_i, so a necessary condition of
Irrep.check_consistency.  dense_relations is that check itself, over every
ordered pair of roots, on dense Fraction matrices and with no code from
liecg.irrep.  uncapped_descent is the integer descent as it ran before it
was capped by Freudenthal's multiplicities: every state lowered by every
root, every candidate tried against its weight's elimination.
"""

from fractions import Fraction
from math import gcd

from liecg.exactnum import FieldElem, _sqrt, _square_free
from liecg.irrep import Irrep, Ket, RationalForm
from liecg.liealg import ConsistencyError, cartan, level_vector
from liecg.linalg import LabeledVector, _integral, _Reducer
from liecg.tensor import (
    _basis_pairs,
    _gram_apply,
    _int_gram,
    _int_tables,
    _lower,
    _pairs_weight,
    _scp,
    _vadd,
    _vsub,
)


def _rational(q):
    return q.numerator if q.denominator == 1 else q


def _to_field(parts, cls_l, cls_r):
    """The FieldElem product state sum of k*sqrt(f)*v over the (f, k, v) in
    parts, each v a rational vector; cls_l, cls_r are the factors' classes."""
    items = {}
    for f, k, v in parts:
        for (a, b), q in v.items():
            items.setdefault((a, b), []).append((f * cls_l[a] * cls_r[b], k * q))
    return LabeledVector(
        (FieldElem.make(it), lab) for lab, it in items.items()
    )


def _split(s, cls_l, cls_r):
    """{f: (v, m)} with s == sum of sqrt(f)/m * v, each v an integer vector
    and m > 0."""
    parts = {}
    for c, (a, b) in s.terms:
        rab = cls_l[a] * cls_r[b]
        for f, q in c.terms.items():
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


def _scaled_form(rank, low, gram):
    """The rational form of states with lowering table low, (root, a) ->
    {target: q}, and Gram rows gram, a -> {b: g} over a's weight block.
    State 1 has norm 1 and state a norm k_a^2 r_a, so u_a = a/k_a: an entry
    q from a to t becomes q*k_t/k_a, a Gram entry g/(k_a*k_b).  Rows are in
    label order, each Gram row with its diagonal first."""
    r, k = {}, {}
    for a, row in gram.items():
        r[a], k[a] = _sqrt(row[a])
    lower = {i: {} for i in range(1, rank + 1)}
    for (i, a), v in low.items():
        lower[i][a] = tuple(
            (t, _rational(q * k[t] / k[a])) for t, q in sorted(v.items())
        )
    return RationalForm(r, lower, {
        a: ((a, r[a]),) + tuple(
            (b, _rational(g / (k[a] * k[b])))
            for b, g in sorted(row.items()) if b != a
        )
        for a, row in gram.items()
    })


def oracle_product_lower(s, root, l, r):
    """product_lower through _split and _to_field."""
    fl, fr = l.rational_form(), r.rational_form()
    d, low_l, low_r = _int_tables(fl, fr)[root - 1]
    parts = [
        (f, Fraction(1, m * d), _lower(v, low_l, low_r))
        for f, (v, m) in _split(s, fl.r, fr.r).items()
    ]
    return _to_field(parts, fl.r, fr.r)


def oracle_product_scp(s1, s2, l, r):
    """product_scp through _split."""
    fl, fr = l.rational_form(), r.rational_form()
    e, gram_l, gram_r = _int_gram(fl, fr)
    p2 = _split(s2, fl.r, fr.r).items()
    return FieldElem.make(
        (f * g, Fraction(_scp(v, w, gram_l, gram_r), m * k * e))
        for f, (v, m) in _split(s1, fl.r, fr.r).items()
        for g, (w, k) in p2
    )


def fraction_integral(vec):
    """(row, m): the primitive integer vector row == m * vec, m > 0."""
    den, ints = 1, True
    for c in vec.values():
        if type(c) is not int:
            ints = False
            den = den * c.denominator // gcd(den, c.denominator)
    if ints:
        row = dict(vec)
    else:
        row = {k: c.numerator * (den // c.denominator) for k, c in vec.items()}
    g = gcd(*row.values())
    if g != 1:
        row = {k: c // g for k, c in row.items()}
    return row, Fraction(den, g)


class FractionReducer:
    """The elimination with Fraction-tracked combinations."""

    def __init__(self, track=False):
        self.rows = []  # (pivot label, primitive integer row), pivot == min
        # parallel to rows when tracking: {kept index: coefficient} giving
        # the row in terms of kept vectors
        self.combs = [] if track else None

    def add(self, vec):
        row, alpha = fraction_integral(vec)
        combs = self.combs
        beta = {}  # row == alpha * vec + sum of beta[k] times kept vector k
        for k, (pl, prow) in enumerate(self.rows):
            c = row.get(pl)
            if not c:
                continue
            p = prow[pl]
            g = gcd(c, p)
            a, b = p // g, c // g
            if a != 1:
                for lab in row:
                    row[lab] *= a
            for l2, c2 in prow.items():
                nv = row.get(l2, 0) - b * c2
                if nv:
                    row[l2] = nv
                else:
                    del row[l2]
            if combs is not None:
                alpha *= a
                beta = {kk: a * x for kk, x in beta.items()}
                for kk, x in combs[k].items():
                    nv = beta.get(kk, 0) - b * x
                    if nv:
                        beta[kk] = nv
                    else:
                        del beta[kk]
        if not row:
            return {k: -x / alpha for k, x in beta.items()}
        g = gcd(*row.values())
        if g != 1:
            row = {lab: c // g for lab, c in row.items()}
        if combs is not None:
            comb = {k: x / g for k, x in beta.items()}
            comb[len(self.rows)] = alpha / g
            combs.append(comb)
        self.rows.append((min(row), row))
        return None

    def null_vector(self, labels):
        pivots = {pl for pl, _ in self.rows}
        free = next((lab for lab in labels if lab not in pivots), None)
        if free is None:
            return None
        x = {free: 1}
        for pl, prow in sorted(self.rows, key=lambda pr: pr[0], reverse=True):
            acc = 0
            for l2, c2 in prow.items():
                if l2 != pl and l2 in x:
                    acc += c2 * x[l2]
            if acc:
                x[pl] = Fraction(-acc) / prow[pl]
        return x


def fraction_lower(v, low_l, low_r):
    """E_-i acting as E x 1 + 1 x E on the factors' rational tables."""
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


def uncapped_descent(hw_vec, l, r):
    """The descent before it was capped by Freudenthal's multiplicities,
    from the primitive integer highest-weight vector hw_vec: every state is
    lowered by every root, and a candidate is kept iff a _Reducer at its
    weight finds it independent of the states kept there.  Returns the
    (v, sigma) states level by level and their weights."""
    A = cartan(l.algebra)
    fl, fr = l.rational_form(), r.rational_form()
    hw = _pairs_weight(hw_vec, l, r)
    lows = [(*t, row) for t, row in zip(_int_tables(fl, fr), A)]
    levels, weights = [[(hw_vec, 1)]], [[hw]]
    reducers = {hw: _Reducer()}
    reducers[hw].add(hw_vec)
    while True:
        nxt_states, nxt_weights = [], []
        for (s, sigma), w in zip(levels[-1], weights[-1]):
            for d, low_l, low_r, row in lows:
                low = _lower(s, low_l, low_r)
                if not low:
                    continue
                w2 = _vsub(w, row)
                red = reducers.setdefault(w2, _Reducer())
                if red.add(low) is None:
                    low, _, g = _integral(low)
                    nxt_states.append((low, sigma * Fraction(g, d)))
                    nxt_weights.append(w2)
        if not nxt_states:
            return levels, weights
        levels.append(nxt_states)
        weights.append(nxt_weights)


class OracleIrrep:
    """One irrep of the product: the exact rational vectors of its states
    and the scale rho = k*sqrt(f) shared by all of them."""

    def __init__(self, hw_vec, scale, l, r):
        fl, fr = l.rational_form(), r.rational_form()
        A = cartan(l.algebra)
        n = l.algebra.rank
        self.scale = scale
        self.classes = (fl.r, fr.r)
        self.hw = _pairs_weight(hw_vec, l, r)
        lows = [(fl.lower[i], fr.lower[i], A[i - 1]) for i in range(1, n + 1)]
        self.levels = [[hw_vec]]
        self.weights = [[self.hw]]
        self.by_weight = {self.hw: [hw_vec]}
        self.descent = {self.hw: (0,) * n}
        reducers = {self.hw: FractionReducer()}
        reducers[self.hw].add(hw_vec)
        cur = list(zip(self.levels[0], self.weights[0]))
        while cur:
            nxt = []
            for s, w in cur:
                dsc = self.descent[w]
                for i, (low_l, low_r, row) in enumerate(lows):
                    low = fraction_lower(s, low_l, low_r)
                    if not low:
                        continue
                    w2 = _vsub(w, row)
                    red = reducers.setdefault(w2, FractionReducer())
                    if red.add(low) is None:
                        nxt.append((low, w2))
                        self.by_weight.setdefault(w2, []).append(low)
                        if w2 not in self.descent:
                            self.descent[w2] = tuple(
                                q + (1 if k == i else 0) for k, q in enumerate(dsc)
                            )
            if nxt:
                self.levels.append([s for s, _ in nxt])
                self.weights.append([w for _, w in nxt])
            cur = nxt

    @classmethod
    def from_state(cls, state, l, r):
        """The irrep under a FieldElem highest-weight product state."""
        fl, fr = l.rational_form(), r.rational_form()
        ((f, (v, m)),) = _split(state, fl.r, fr.r).items()
        return cls(v, (f, Fraction(1, m)), l, r)

    def field_levels(self):
        """The FieldElem product states, level by level."""
        return [[_to_field([(*self.scale, v)], *self.classes) for v in lev]
                for lev in self.levels]


def oracle_decompose(d):
    """The irreps of d.left x d.right in discovery order."""
    l, r = d.left, d.right
    fl, fr = l.rational_form(), r.rational_form()
    prod_mult = {}
    for wa, la_labels in l.labels_by_weight.items():
        for wb, rb_labels in r.labels_by_weight.items():
            w = _vadd(wa, wb)
            if all(c >= 0 for c in w):
                prod_mult[w] = prod_mult.get(w, 0) + len(la_labels) * len(rb_labels)
    found, used = [], {}
    R = level_vector(l.algebra)

    def take(p):
        found.append(p)
        for w, states in p.by_weight.items():
            if all(c >= 0 for c in w):
                used[w] = used.get(w, 0) + len(states)

    take(OracleIrrep({(1, 1): 1}, (1, Fraction(1)), l, r))
    while True:
        cands = [w for w, m in prod_mult.items() if used.get(w, 0) < m]
        if not cands:
            return found
        w = max(cands, key=lambda w: (sum(a * b for a, b in zip(R, w)), w))
        red = FractionReducer()
        for p in found:
            for v in p.by_weight.get(w, ()):
                red.add(_gram_apply(v, fl.gram, fr.gram))
        y = fraction_integral(red.null_vector(_basis_pairs(l, r, w)))[0]
        if y[min(y)] < 0:
            y = {k: -c for k, c in y.items()}
        norm = _scp(y, y, fl.gram, fr.gram)
        take(OracleIrrep(y, _sqrt(Fraction(1) / norm), l, r))


def oracle_prepare(p, l, r):
    """prepare_with_states on the exact rational vectors of p."""
    la = l.algebra
    A = cartan(la)
    n = la.rank
    fl, fr = l.rational_form(), r.rational_form()
    kets, states, labels_at, reducers = {}, {}, {}, {}
    lab = 1
    for weights in p.weights:
        for w in sorted(set(weights), key=p.descent.get):
            red = reducers[w] = FractionReducer(track=True)
            for deg, v in enumerate(p.by_weight[w], 1):
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
            low = fraction_lower(v, fl.lower[i], fr.lower[i])
            if not low:
                continue
            targets = labels_at[_vsub(w, A[i - 1])]
            coords = reducers[_vsub(w, A[i - 1])].add(low)
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


def fraction_prepare(p, l, r):
    """prepare_with_states on the integer states of a descended p, with
    every entry formed in Fractions."""
    la = l.algebra
    A = cartan(la)
    n = la.rank
    fl, fr = l.rational_form(), r.rational_form()
    tables = _int_tables(fl, fr)
    e, gram_l, gram_r = _int_gram(fl, fr)
    kets, states, labels_at, reducers = {}, {}, {}, {}
    lab = 1
    for weights in p.weights:
        for w in sorted(set(weights), key=p.descent.get):
            red = reducers[w] = _Reducer(track=True)
            for deg, (v, _) in enumerate(p._by_weight[w], 1):
                red.add(v)
                kets[lab] = Ket(w, deg)
                sign = 1 if v[min(v)] > 0 else -1
                states[lab] = (v, sign, Fraction(_scp(v, v, gram_l, gram_r), e))
                labels_at.setdefault(w, []).append(lab)
                lab += 1
    lowering = {}
    for a, (v, sign, _) in states.items():
        w = kets[a].dynkin
        for i, (d, low_l, low_r) in enumerate(tables, 1):
            low = _lower(v, low_l, low_r)
            if not low:
                continue
            w2 = _vsub(w, A[i - 1])
            targets = labels_at[w2]
            coords = reducers[w2].add(low)
            # E v_a = sum c_k/D_i v_k, so the signed states have
            # c_k/D_i*sign_a*sign_k
            f = sign if d == 1 else Fraction(sign, d)
            lowering[(i, a)] = {
                targets[k]: c * f * states[targets[k]][1]
                for k, c in coords.items()
            }
    n1 = states[1][2]
    gram = {a: {a: na / n1} for a, (_, _, na) in states.items()}
    for labs in labels_at.values():
        for ix, a in enumerate(labs):
            va, sa, _ = states[a]
            for b in labs[ix + 1:]:
                vb, sb, _ = states[b]
                g = _scp(va, vb, gram_l, gram_r)
                if g:
                    gram[a][b] = gram[b][a] = sa * sb * Fraction(g, e) / n1
    return Irrep(la, p.hw, kets, _scaled_form(n, lowering, gram), "imported"), states


def fraction_sum_rule(irrep):
    """The string sum rule on every state a of weight w and every root i,
    |F_i a|^2 = w_i <a|a> + u.G^-1.u with G the Gram matrix one root up and
    u_g = <F_i g|a>, summed in Fractions; raises ConsistencyError naming
    the state and the root."""
    rf = irrep.rational_form()
    la = irrep.algebra
    A = cartan(la)
    blocks = {}  # weight -> (its states, _Reducer over their Gram rows)
    for a in irrep.kets:
        w = irrep.weight_of[a]
        ga = dict(rf.gram[a])
        for i in range(1, la.rank + 1):
            low = rf.lower[i]
            down = dict(low.get(a, ()))
            lhs = sum(q * g * down.get(b, 0)
                      for t, q in down.items() for b, g in rf.gram[t])
            rhs = w[i - 1] * rf.r[a]
            up = _vadd(w, A[i - 1])
            if up in irrep.labels_by_weight:
                if up not in blocks:
                    blocks[up] = _gram_block(irrep, up)
                ups, red = blocks[up]
                u = {k: x for k, g in enumerate(ups)
                     if (x := sum(q * ga.get(t, 0) for t, q in low.get(g, ())))}
                if u:
                    rhs += sum(u.get(k, 0) * c for k, c in red.add(u).items())
            if lhs != rhs:
                ra = rf.r[a]  # both sides read in the unit basis
                raise ConsistencyError(
                    f"{la.name} irrep {irrep.hw}: string sum rule fails at "
                    f"state {a} of weight {w}, root {i}: "
                    f"{Fraction(lhs) / ra} != {Fraction(rhs) / ra}"
                )


def _gram_block(irrep, weight):
    """The states of a weight block and a tracking _Reducer holding their
    Gram rows, each row indexed by position in the block."""
    rf = irrep.rational_form()
    ups = irrep.labels_by_weight[weight]
    pos = {g: k for k, g in enumerate(ups)}
    red = _Reducer(track=True)
    for g in ups:
        if red.add({pos[b]: x for b, x in rf.gram[g]}) is not None:
            raise ConsistencyError(
                f"{irrep.algebra.name} irrep {irrep.hw}: the Gram matrix "
                f"of weight {weight} is singular"
            )
    return ups, red


def dense_relations(irrep):
    """None when [E_i, F_j] == delta_ij H_i holds on every weight block for
    every ordered pair of roots (i, j), else where it fails first.

    Every map is a dense matrix of Fractions between weight blocks, over the
    rational form: F_i from the lowering table, and E_i = G_up^-1 F_i^T G_w
    from the Gram blocks, the adjoint of F_i, with each G_up inverted by
    Gauss-Jordan here.  The blocks are read off the kets; nothing is taken
    from liecg.irrep but the tables."""
    rf = irrep.rational_form()
    A = cartan(irrep.algebra)
    roots = range(len(A))
    at = {}
    for lab, ket in sorted(irrep.kets.items()):
        at.setdefault(ket.dynkin, []).append((ket.deg_index, lab))
    at = {w: [lab for _, lab in sorted(labs)] for w, labs in at.items()}
    pos = {lab: k for labs in at.values() for k, lab in enumerate(labs)}

    def shift(w, i, s):
        return tuple(x + s * y for x, y in zip(w, A[i]))

    gram = {}
    for w, labs in at.items():
        g = gram[w] = _zeros(len(labs), len(labs))
        for a in labs:
            for b, x in rf.gram[a]:
                g[pos[a]][pos[b]] = Fraction(x)
    lower = {}  # (i, w) -> F_i from block w to block w - alpha_i
    for i in roots:
        for w, labs in at.items():
            below = shift(w, i, -1)
            if below in at:
                f = lower[i, w] = _zeros(len(at[below]), len(labs))
                for a in labs:
                    for t, q in rf.lower[i + 1].get(a, ()):
                        f[pos[t]][pos[a]] = Fraction(q)
    raising = {}  # (i, w) -> E_i from block w to block w + alpha_i
    for (i, up), f in lower.items():
        w = shift(up, i, -1)
        inv = _dense_inverse(gram[up])
        if inv is None:
            return f"the Gram matrix of weight {up} is singular"
        raising[i, w] = _matmul(inv, _matmul(_transpose(f), gram[w]))
    for w, labs in at.items():
        for i in roots:
            for j in roots:
                into = shift(shift(w, i, 1), j, -1)
                if into not in at:
                    continue
                c = _zeros(len(at[into]), len(labs))
                if i == j:
                    for k in range(len(labs)):
                        c[k][k] = Fraction(-w[i])
                e, f = raising.get((i, shift(w, j, -1))), lower.get((j, w))
                if e is not None and f is not None:
                    c = _plus(c, _matmul(e, f))
                e, f = raising.get((i, w)), lower.get((j, shift(w, i, 1)))
                if e is not None and f is not None:
                    c = _plus(c, _matmul(f, e), -1)
                if any(x for row in c for x in row):
                    return f"[E_{i + 1}, F_{j + 1}] at weight {w}"
    return None


def _zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _matmul(x, y):
    out = _zeros(len(x), len(y[0]) if y else 0)
    for row, xrow in zip(out, x):
        for c, yrow in zip(xrow, y):
            if c:
                for k, v in enumerate(yrow):
                    if v:
                        row[k] += c * v
    return out


def _plus(x, y, s=1):
    return [[a + s * b for a, b in zip(xr, yr)] for xr, yr in zip(x, y)]


def _dense_inverse(m):
    """The inverse of a square Fraction matrix by Gauss-Jordan elimination,
    None if it is singular."""
    n = len(m)
    rows = [list(r) + [Fraction(int(k == j)) for j in range(n)]
            for k, r in enumerate(m)]
    for col in range(n):
        piv = next((k for k in range(col, n) if rows[k][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for k in range(n):
            if k != col and rows[k][col]:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[col])]
    return [r[n:] for r in rows]
