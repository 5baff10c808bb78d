"""Concrete irreps: labeled basis kets, lowering tables, scalar products.

Basis states are labeled 1..dim in listing order: level ascending, descent
vector ascending within a level, degeneracy index ascending within a weight.

An irrep holds its rational form (Kostant's Z-form): each label a carries a
square-free class r_a such that in the rescaled basis u_a = sqrt(r_a) e_a
all lowering entries and all scalar products are rational.  The unit-basis
FieldElem tables, `Irrep.lower` and `Irrep.scalar_product`, are views of
it.  Scalar products are 1 on the diagonal and 0 across different weights;
inside a degenerate weight block they need not vanish (sqrt(A_ab A_ba)/2
for the adjoint zero states).  In multiplicity-free irreps and in the
adjoint every lowering entry is positive; in other irreps some can be
negative.

`new_generic_irrep` builds any irrep from scratch with the contravariant
(Shapovalov) form on the lowering monomials F_i ... F_j |hw>, over Q: at
each weight it keeps the first monomials that are independent under the
form.  One rule then gives the rational form of a built irrep and of an
irrep found in a product (the tensor module's `prepare_with_states`),
in one builder, `_scaled_form`: a state a of norm k_a^2 r_a times the
norm of state 1 is k_a u_a, so every lowering entry and every Gram entry
is one ratio of integers, formed once.

`ImportedIrrepData` holds the unit-basis tables of the liecg-irrep-v1
files, from one source fixed when it is made: the form (`from_irrep`),
whose document is written straight from it, or the values `from_json`
reads, each distinct text once, straight into its class and fraction,
refusing any entry given twice.  Its FieldElem tables are read-only views,
formed on each read.  `new_imported_irrep` checks each lowering row and
hands it, in target order, to the derivation of the form, which pushes
the classes down the lowering table from the highest weight and refuses a
file that has none.  One sweep tests a file's tables over the whole
irrep, `Irrep.check_consistency`: the defining relations of the algebra,
which the tensor descent relies on.  `--import` runs it, and a file's
irrep passes it before its first product; its Serre walk only names a
failure.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from json.encoder import encode_basestring_ascii
from math import comb, gcd, lcm
from operator import add, mul, sub
from types import MappingProxyType
from typing import NamedTuple

from .exactnum import (
    MAX_RADICAND,
    ONE,
    ZERO,
    FieldElem,
    parse_field,
    _mul_class,
    _render_terms,
    _sqrt,
    _square_free,
    _times_sqrt,
)
from .linalg import LabeledVector, _Reducer, _scaled_ints
from .liealg import ConsistencyError, LieAlgebra, cartan, freudenthal, weyl_dim

__all__ = [
    "Ket",
    "Irrep",
    "ImportedIrrepData",
    "InvalidImportError",
    "new_generic_irrep",
    "new_imported_irrep",
    "lower",
    "scalar_product",
]


class InvalidImportError(ValueError):
    """Imported irrep data is malformed or inconsistent."""


@dataclass(frozen=True)
class Ket:
    """A basis state: its weight and its index inside the weight block."""

    dynkin: tuple
    deg_index: int


def _vadd(a, b):
    return tuple(map(add, a, b))


def _vsub(a, b):
    return tuple(map(sub, a, b))


def _apply(table, vec):
    """A lowering table, label -> ((target, q), ...), applied to an int
    vector {label: c}; zeros dropped."""
    out = {}
    for a, c in vec.items():
        for t, q in table.get(a, ()):
            out[t] = out.get(t, 0) + c * q
    kept = {}
    for t, c in out.items():
        if c:
            kept[t] = c
    return kept


class Irrep:
    """An irrep with explicit basis, lowering action and scalar products.

    Not built directly: use `new_generic_irrep` or `new_imported_irrep`.
    """

    def __init__(self, algebra, hw, kets, form, origin):
        self.algebra = algebra
        self.hw = tuple(hw)
        self.kets = kets  # label -> Ket
        self.origin = origin
        self._form = form  # RationalForm
        self.dim = len(kets)
        self.weight_of = {lab: k.dynkin for lab, k in kets.items()}
        by_w = {}
        for lab in sorted(kets):
            by_w.setdefault(kets[lab].dynkin, []).append(lab)
        for labs in by_w.values():
            labs.sort(key=lambda l: kets[l].deg_index)
        self.labels_by_weight = {w: tuple(labs) for w, labs in by_w.items()}

    def __repr__(self):
        return f"Irrep({self.algebra.name}, {self.hw}, dim={self.dim}, {self.origin})"

    def lower(self, root, state):
        """E_-root applied to a basis state, as a vector over basis labels."""
        return LabeledVector._raw(
            {t: c for c, t in _unit_row(self._form, root, state)}
        )

    def scalar_product(self, a, b):
        if a == b:
            return ONE
        g = dict(self._form.gram[a]).get(b)  # its weight block only
        r = self._form.r
        # g/sqrt(r_a*r_b) == (g/r_a)*sqrt(r_a/r_b)
        return ZERO if g is None else _times_sqrt(Fraction(g, r[a]), r[a], r[b])

    def vector_scp(self, u, v):
        """Scalar product of two linear combinations of basis states."""
        acc = ZERO
        for cu, lu in u.terms:
            wu = self.weight_of[lu]
            for cv, lv in v.terms:
                if self.weight_of[lv] == wu:
                    s = self.scalar_product(lu, lv)
                    if not s.is_zero():
                        acc = acc + cu * cv * s
        return acc

    def rational_form(self) -> "RationalForm":
        """The irrep in the rescaled basis u_a = sqrt(r_a) e_a."""
        return self._form

    def check_consistency(self):
        """Verify that the tables are a representation of the algebra: the
        defining relations (Humphreys, section 18) on every state, with H_i
        acting as the weight's label w_i.

        E_i is the Gram-adjoint of F_i = E_-i: E_i a = G^-1.u over the
        weight block one root up, u_g = <F_i g|a>.  For every state a and
        roots i <= j the check is E_i F_j a - F_j E_i a == delta_ij w_i a.
        The pairs i > j follow: the adjoint of [E_i, F_j] is [E_j, F_i], and
        delta_ij w_i is its own.  That needs the scalar product nondegenerate
        on every block, and it is: the walk inverts every block one root
        above a weight, which is every block but the lowest weight's, and
        that one holds one state, of norm r_a > 0.  For i != j, [E_i, F_j]
        maps weight w to w + alpha_i - alpha_j, so a weight where that is no
        weight is skipped.

        It runs on the rational form in integers: the root-i table times
        D_i, each weight block's Gram rows times their lcm gamma, G^-1 =
        M/delta with M an int matrix from _gram_inverse, so E_i a is an int
        vector over a denominator shared by its weight block; each relation
        is compared cross-multiplied.  Each weight's neighbours are formed
        once, and the u vectors of a block all at once from its Gram rows.
        A relation whose target block holds one state is compared as one
        int.  On a finite-dimensional module with integral weights the
        Serre relation sum over k of (-1)^k C(n, k) F_i^(n-k) F_j F_i^k a ==
        0, n = 1 - <alpha_j, alpha_i^v>, follows from the others by sl2
        theory, so the Serre relations are walked only once the others
        fail, and name the failure if one of them fails.  Raises
        ConsistencyError naming the state, its weight and the roots, or the
        singular block.
        """
        rf = self._form
        la = self.algebra
        A = cartan(la)
        rank = la.rank
        roots = range(rank)  # root i + 1 at index i
        at = self.labels_by_weight
        # weight -> ([w - alpha_i or None], [w + alpha_i or None]) by root,
        # each w + alpha_i read off the w - alpha_i formed
        near = {w: ([None] * rank, [None] * rank) for w in at}
        for w, (below, _) in near.items():
            for i, row in enumerate(A):
                got = near.get(v := tuple(map(sub, w, row)))
                if got is not None:
                    below[i] = v
                    got[1][i] = w
        lows = [_scaled_ints(rf.lower[i + 1]) for i in roots]

        def fail(what, a, i, j):
            raise ConsistencyError(
                f"{la.name} irrep {self.hw}: {what} fails at state {a} of "
                f"weight {self.weight_of[a]}, roots i={i + 1}, j={j + 1}"
            )

        inverses = {}  # weight -> (its states, M, delta)
        # root i -> weight w -> (c, {state a: E_i a times c as (g, int)
        # pairs}), for the w with w + alpha_i a weight
        raising = [{} for _ in roots]
        none = (1, {})
        try:
            for w, labs in at.items():
                # a one-state block's Gram row is ((a, r_a),), r_a an int
                gw, rows_w = ((1, rf.gram) if len(labs) == 1 else
                              _scaled_ints({b: rf.gram[b] for b in labs}))
                for i, up in enumerate(near[w][1]):
                    if up is None:
                        continue
                    if up not in inverses:
                        inverses[up] = self._gram_inverse(rf, up)
                    ups, m, delta = inverses[up]
                    d, low = lows[i]
                    # u_int = D_i*gw*u, so E_i a = M.u_int/(delta*D_i*gw);
                    # the u of every state a of the block at once, from the
                    # Gram rows of the states F_i g meets
                    if len(ups) == 1:  # M == (1)
                        (g,) = ups
                        us = {}
                        for t, q in low.get(g, ()):
                            for b, x in rows_w[t]:
                                us[b] = us.get(b, 0) + q * x
                        raising[i][w] = (delta * d * gw, {
                            a: ((g, e),) for a, e in us.items() if e})
                        continue
                    us = {}
                    for k, g in enumerate(ups):
                        for t, q in low.get(g, ()):
                            for b, x in rows_w[t]:
                                u = us.get(b)
                                if u is None:
                                    u = us[b] = [0] * len(ups)
                                u[k] += q * x
                    vecs = {}
                    for a, u in us.items():
                        vec = []
                        for g, mrow in zip(ups, m):
                            e = sum(map(mul, mrow, u))
                            if e:
                                vec.append((g, e))
                        if vec:
                            vecs[a] = vec
                    raising[i][w] = (delta * d * gw, vecs)
            # E_i F_j a - F_j E_i a - delta_ij w_i a, times D_j*cd*cw with
            # cd, cw the scales of E_i at w - alpha_j and at w
            for w, labs in at.items():
                below, above = near[w]
                for i in roots:
                    rais = raising[i]
                    cw, ew = rais.get(w, none)
                    # w + alpha_i - alpha_j by j; None if w + alpha_i is none
                    tops = None if above[i] is None else near[above[i]][0]
                    for j in range(i, rank):
                        if j == i:
                            into = labs
                        else:
                            if tops is not None:
                                into = tops[j]
                            elif below[j] is not None:
                                into = near[below[j]][1][i]
                            else:
                                continue  # F_j a == 0 and E_i a == 0
                            if into is None:
                                continue  # w + alpha_i - alpha_j is no weight
                            into = at[into]
                        dj, lowj = lows[j]
                        cd, ed = rais.get(below[j], none)
                        diag = w[i] * dj * cd * cw if i == j else 0
                        if len(into) == 1:
                            # one target state b: E_i t and F_j g hold b alone
                            (b,) = into
                            for a in labs:
                                down = 0  # E_i F_j a at b, times cd
                                for t, q in lowj.get(a, ()):
                                    vec = ed.get(t)
                                    if vec is not None:
                                        for _, x in vec:
                                            down += q * x
                                up = 0  # F_j E_i a at b, times cw
                                vec = ew.get(a)
                                if vec is not None:
                                    for g, e in vec:
                                        for _, q in lowj.get(g, ()):
                                            up += e * q
                                if cw * down - cd * up != (
                                        diag if a == b else 0):
                                    fail("E_i F_j - F_j E_i == delta_ij w_i",
                                         a, i, j)
                            continue
                        for a in labs:
                            acc = {a: -diag} if diag else {}
                            for t, q in lowj.get(a, ()):
                                vec = ed.get(t)
                                if vec is not None:
                                    for g, e in vec:
                                        acc[g] = acc.get(g, 0) + cw * q * e
                            vec = ew.get(a)
                            if vec is not None:
                                for g, e in vec:
                                    for t, q in lowj.get(g, ()):
                                        acc[t] = acc.get(t, 0) - cd * e * q
                            if any(acc.values()):
                                fail("E_i F_j - F_j E_i == delta_ij w_i",
                                     a, i, j)
        except ConsistencyError:
            # a failing Serre relation names the failure.  Homogeneous in
            # F_i and F_j, it reads off the int tables times D_i^n D_j
            for i, j in product(roots, roots):
                n = 1 - A[j][i]
                if i == j or (n == 1 and j < i):  # F_i, F_j commute: once
                    continue
                di, dj = lows[i][1], lows[j][1]
                signed = [(-1) ** k * comb(n, k) for k in range(n + 1)]
                drop = tuple(n * x + y for x, y in zip(A[i], A[j]))
                for w, labs in at.items():
                    if _vsub(w, drop) not in at:  # every term would be zero
                        continue
                    for a in labs:
                        acc, x = {}, {a: 1}
                        for k in range(n + 1):  # x = F_i^k a
                            y = _apply(dj, x)
                            for _ in range(n - k):
                                y = _apply(di, y)
                            for t, c in y.items():
                                acc[t] = acc.get(t, 0) + signed[k] * c
                            x = _apply(di, x)
                        if any(acc.values()):
                            fail("the Serre relation", a, i, j)
            raise

    def _gram_inverse(self, rf, weight):
        """(ups, M, delta) for the weight block: its states and the inverse
        of its Gram matrix as M/delta, M a list of int rows and delta > 0,
        both indexed by position in the block.  A block of one state g has
        the Gram matrix (r_g), so M = (1) and delta = r_g.  A larger block
        goes through a tracking _Reducer holding the rows of G: G is
        symmetric, so the coordinates of a unit vector in terms of its rows
        are a column of G^-1.  A singular block raises ConsistencyError."""
        ups = self.labels_by_weight[weight]
        if len(ups) == 1:  # the Gram matrix is (r_g)
            return ups, [[1]], rf.r[ups[0]]
        pos = {g: k for k, g in enumerate(ups)}
        red = _Reducer(track=True)
        for g in ups:
            if red.add({pos[b]: x for b, x in rf.gram[g]}) is not None:
                raise ConsistencyError(
                    f"{self.algebra.name} irrep {self.hw}: the Gram matrix "
                    f"of weight {weight} is singular"
                )
        # G is symmetric: the coordinates of unit vector k are column k of
        # G^-1, so its row k too
        inv = [red.add({k: 1}) for k in range(len(ups))]
        delta = lcm(*(c.denominator for col in inv for c in col.values()))
        m = [[c.numerator * (delta // c.denominator) if c else 0
              for c in (col.get(j, 0) for j in range(len(ups)))]
             for col in inv]
        return ups, m, delta


class RationalForm(NamedTuple):
    """Lowering table and Gram matrix of an irrep over Q, in the basis
    u_a = sqrt(r_a) e_a.

    r: label -> square-free class r_a (r_1 == 1);
    lower[i], for each root i in 1..rank: label -> ((target, q), ...) with
    E_-i u_a = sum q u_target;
    gram: label -> ((b, g), ...) over a's weight block, <u_a|u_b> = g,
    the diagonal entry (a, r_a) included.
    """

    r: dict
    lower: dict
    gram: dict


def _unit_row(rf, i, a):
    """E_-i e_a in the unit basis, as (coefficient, target) pairs in label
    order: an entry q from a to t reads q*sqrt(r_t/r_a)."""
    r = rf.r
    return tuple(
        (_times_sqrt(q, r[t], r[a]), t)
        for t, q in rf.lower.get(i, {}).get(a, ())
    )


def _form_rows(rf):
    """The lowering and scp rows of an irrep's document, formed from its
    rational form as they are read, in the order of the tables' keys.  An
    entry q from a to t reads q*sqrt(r_t/r_a) in the unit basis, and a Gram
    entry g of a < b reads (g/r_a)*sqrt(r_a/r_b); each distinct (q, r_t,
    r_a) and (g, r_a, r_b) is rendered once per document."""
    r = rf.r

    def lowering():
        texts = {}  # (q, r_t, r_a) -> its text
        roots = sorted(rf.lower.items())
        for a in sorted(r):
            ra = r[a]
            for i, rows in roots:
                row = rows.get(a)
                if row is None:
                    continue
                terms = []
                for t, q in row:
                    key = q, r[t], ra
                    got = texts.get(key)
                    if got is None:
                        got = texts[key] = _unit_text(q, r[t], ra)
                    terms.append([got, t])
                yield [a, i, terms]

    def scp():
        texts = {}  # (g, r_a, r_b) -> its text
        for a in sorted(rf.gram):
            ra = r[a]
            for b, g in sorted(rf.gram[a]):
                if b > a:
                    key = g, ra, r[b]
                    got = texts.get(key)
                    if got is None:
                        got = texts[key] = _unit_text(Fraction(g, ra), ra, r[b])
                    yield [a, b, got]

    return lowering(), scp()


def _unit_text(q, n, d):
    """The plain text of q*sqrt(n/d), for a rational q and square-free n,
    d > 0: that of _times_sqrt(q, n, d), q/(d/m)*sqrt(f) with (f, m) =
    _mul_class(n, d)."""
    f, m = _mul_class(n, d)
    x = Fraction(q, d // m)
    return _render_terms(((f, x.numerator, x.denominator),))


def _derive_rational_form(rank, kets, lowering, scp) -> RationalForm:
    """The rational form of unit-basis tables given as _coefficient values,
    (root, a) -> its (target, nonzero value) pairs in target order and
    (a, b) -> nonzero value for a < b.  The classes propagate from state 1
    through the lowering table: an entry n/d*sqrt(f) from a to t gives
    r_t = squarefree(f*r_a) and the rational entry n/d*sqrt(f*r_a/r_t)."""
    r = {1: 1}
    lower = {i: {} for i in range(1, rank + 1)}
    queue = [1]
    for a in queue:  # breadth first: a has its class when it is reached
        ra = r[a]
        for i in range(1, rank + 1):
            terms = lowering.get((i, a))
            if terms is None:
                continue
            row = []
            for t, c in terms:
                if type(c) is not tuple:
                    raise InvalidImportError(
                        f"no rational form: lowering state {a} by root {i} "
                        f"gives state {t} the coefficient {c.plain()}, "
                        "which is not a single radical"
                    )
                f, n, d = c
                s, cls = _square_free(f * ra)
                got = r.get(t)
                if got is None:
                    r[t] = cls
                    queue.append(t)
                elif got != cls:
                    raise InvalidImportError(
                        f"no rational form: lowering state {a} by root {i} "
                        f"gives state {t} the radical class {cls}, "
                        f"another path gave it {got}"
                    )
                n *= s
                row.append((t, n if d == 1 else _ratio(n, d)))
            lower[i][a] = tuple(row)
    missing = [lab for lab in kets if lab not in r]
    if missing:
        raise InvalidImportError(
            f"no rational form: state {min(missing)} is not reached by "
            "lowering from state 1"
        )
    gram = {a: [(a, r[a])] for a in kets}
    for (a, b), v in scp.items():
        # a value that is not one radical gets f = 0, so class 0
        f, n, d = v if type(v) is tuple else (0, 0, 1)
        s, cls = _square_free(f * r[a] * r[b])
        if cls != 1:
            raise InvalidImportError(
                f"no rational form: the scalar product {_value_text(v)} of "
                f"states {a} and {b} is not rational in the rescaled basis"
            )
        g = _ratio(n * s, d)
        gram[a].append((b, g))
        gram[b].append((a, g))
    return RationalForm(r, lower, {a: tuple(g) for a, g in gram.items()})


def _ratio(n, d):
    """n/d as an int when it is one, else as a Fraction; d != 0.  Ints keep
    the hot loops in integer arithmetic wherever they can."""
    if n % d:
        return Fraction(n, d)
    return n // d


def _scaled_form(norms, lower, gram):
    """The rational form of states a with norms N_a, a -> int or Fraction
    (N_1 an int); lowering table lower, root i -> (d, {a: {t: c}}) with
    E_-i a = sum of c/d t; and Gram entries gram, a -> {b: <a|b>} over a's
    weight block, of which only b > a is read.  With N_a/N_1 = k_a^2 r_a,
    r_a square-free, the state u_a = a/(k_a*sqrt(N_1)) has the lowering
    entry c*k_t/(d*k_a) and the Gram entry <a|b>/(N_1*k_a*k_b), each formed
    as one _ratio of integers.  Rows are in label order, each Gram row with
    its diagonal r_a first."""
    n1 = norms[1]
    r, k = {}, {}
    for a, nn in norms.items():
        r[a], ka = _sqrt(Fraction(nn, n1))
        k[a] = (ka.numerator, ka.denominator)
    form_lower = {}
    for i, (d, rows) in lower.items():
        out = form_lower[i] = {}
        for a, row in rows.items():
            ka, kd = k[a]
            den = d * ka
            entries = []
            for t, c in sorted(row.items()):
                kt, td = k[t]
                entries.append((t, _ratio(c.numerator * kt * kd,
                                          c.denominator * den * td)))
            out[a] = tuple(entries)
    form_gram = {a: [(a, r[a])] for a in norms}
    for a in sorted(gram):
        ka, kd = k[a]
        den = n1 * ka
        for b, g in sorted(gram[a].items()):
            if b > a:
                kb, bd = k[b]
                q = _ratio(g.numerator * kd * bd, g.denominator * den * kb)
                form_gram[a].append((b, q))
                form_gram[b].append((a, q))
    return RationalForm(r, form_lower,
                        {a: tuple(row) for a, row in form_gram.items()})


def _nonzero(vec):
    return {k: q for k, q in vec.items() if q}


def new_generic_irrep(la: LieAlgebra, hw) -> Irrep:
    """Construct the irrep of highest weight hw from scratch.

    The states are monomials F_i a in the lowering operators, found weight
    by weight in listing order.  At weight nu the candidates are F_i a for
    every state a at nu + alpha_i, in (parent label, root) order.  Over Q,
    in this unnormalized basis:

    - a candidate's raisings follow from [E_k, F_i] = delta_ki H_i as
      E_k F_i a = F_i E_k a + delta_ki (wt a)_i a, read from the tables one
      level up;
    - its Gram row holds <F_k c, F_i a> = <c, E_k F_i a> for every
      candidate F_k c;
    - a row independent of those kept makes the candidate the next state of
      nu; a dependent row gives the candidate's lowering coordinates.

    The kept count at each weight must be Freudenthal's multiplicity.  Only
    level L reads the raisings of level L - 1, so those are dropped when
    level L + 1 begins; the lowering and Gram tables stay, and the rational
    form is read off them at the end.
    """
    hw = tuple(hw)
    A = cartan(la)
    records = freudenthal(la, hw)
    kets = {1: Ket(hw, 1)}
    at = {hw: [1]}  # weight -> its states in kept order
    # state -> {k: E_k state as {label: q}}, for the level above and this one
    up_above, up = {}, {1: {}}
    level = 0
    low = {i: {} for i in range(1, la.rank + 1)}  # i -> state -> F_i state
    gram = {1: {1: 1}}  # state -> {b: <state|b>} over its weight block
    for rec in records[1:]:
        nu = rec.dynkin
        if rec.level != level:
            level = rec.level
            up_above, up = up, {}
        cands = sorted(
            (a, i) for i, row in enumerate(A, 1) for a in at.get(_vadd(nu, row), ())
        )
        red = _Reducer(track=True)
        kept = []  # (state, its candidate, its Gram row)
        for a, i in cands:
            raised = {}  # k -> E_k F_i a = F_i E_k a + delta_ki (wt a)_i a
            for k in range(1, len(A) + 1):
                acc = {a: kets[a].dynkin[i - 1]} if k == i else {}
                for b, q in up_above[a].get(k, {}).items():
                    for t, p in low[i].get(b, {}).items():
                        acc[t] = acc.get(t, 0) + q * p
                acc = _nonzero(acc)
                if acc:
                    raised[k] = acc
            row = {}
            for k, v in raised.items():
                for b, q in v.items():
                    for c, g in gram[b].items():
                        row[(c, k)] = row.get((c, k), 0) + q * g
            row = _nonzero(row)
            if not row:
                continue
            coords = red.add(row)
            if coords is None:
                t = len(kets) + 1
                kets[t] = Ket(nu, len(kept) + 1)
                kept.append((t, (a, i), row))
                up[t] = raised
                low[i][a] = {t: 1}
            else:
                low[i][a] = {kept[k][0]: q for k, q in coords.items()}
        if len(kept) != rec.degeneracy:
            raise ConsistencyError(
                f"{la.name} irrep {hw}: weight {nu} holds {len(kept)} "
                f"states, multiplicity is {rec.degeneracy}"
            )
        at[nu] = [t for t, _, _ in kept]
        for t, cand, _ in kept:
            gram[t] = _nonzero({t2: row2.get(cand, 0) for t2, _, row2 in kept})
    form = _scaled_form({a: row[a] for a, row in gram.items()},
                        {i: (1, rows) for i, rows in low.items()}, gram)
    return Irrep(la, hw, kets, form, "generic")


def lower(r: Irrep, root: int, state: int) -> LabeledVector:
    if not 1 <= root <= r.algebra.rank:
        raise ValueError(f"root index must lie in 1..{r.algebra.rank}")
    if state not in r.kets:
        raise ValueError(f"no state labeled {state}")
    return r.lower(root, state)


def scalar_product(r: Irrep, a: int, b: int) -> FieldElem:
    if a not in r.kets or b not in r.kets:
        raise ValueError("state labels out of range")
    return r.scalar_product(a, b)


class ImportedIrrepData:
    """Everything needed to rebuild an irrep found inside a tensor product:
    the labeled kets, the lowering table and the scalar products in the
    unit basis, written to a stable JSON document and read back exactly.

    The coefficients have one source, fixed when the data is made: the
    irrep's rational form (from_irrep), or tables of the values _coefficient
    gives (from_json, and the constructor, which turns FieldElem tables into
    values once).  `lowering` and `scp` are read-only views of it, formed on
    each read.
    """

    FORMAT = "liecg-irrep-v1"

    def __init__(self, algebra, kets, lowering, scp):
        """Data of unit-basis tables: lowering, (root, state) -> ((FieldElem,
        target), ...), and scp, (a, b) with a <= b -> FieldElem."""
        self.algebra, self.kets = algebra, kets  # label -> Ket
        self._source = ({key: tuple((_value(c), t) for c, t in terms)
                         for key, terms in lowering.items()},
                        {key: _value(v) for key, v in scp.items()})

    @classmethod
    def _of(cls, algebra, kets, source):
        data = cls.__new__(cls)
        data.algebra, data.kets, data._source = algebra, kets, source
        return data

    @classmethod
    def from_irrep(cls, r: Irrep) -> "ImportedIrrepData":
        """An irrep's unit-basis tables, read off its rational form."""
        return cls._of(r.algebra, dict(r.kets), r.rational_form())

    @property
    def lowering(self):
        """(root, state) -> ((FieldElem, target), ...)."""
        src = self._source
        if type(src) is RationalForm:
            return MappingProxyType({(i, a): _unit_row(src, i, a)
                                     for i, rows in src.lower.items()
                                     for a in rows})
        return MappingProxyType({key: tuple((_elem_of(c), t)
                                            for c, t in terms)
                                 for key, terms in src[0].items()})

    @property
    def scp(self):
        """(a, b) with a <= b -> FieldElem."""
        src = self._source
        if type(src) is RationalForm:
            r = src.r
            # g/sqrt(r_a*r_b) == (g/r_a)*sqrt(r_a/r_b)
            return MappingProxyType({
                (a, b): _times_sqrt(Fraction(g, r[a]), r[a], r[b])
                for a, row in src.gram.items() for b, g in row if a < b})
        return MappingProxyType({key: _elem_of(v)
                                 for key, v in src[1].items()})

    def _values(self):
        """(lowering, scp) with each coefficient as _coefficient reads it."""
        if type(self._source) is not RationalForm:
            return self._source
        return type(self)(self.algebra, self.kets, self.lowering,
                          self.scp)._source

    def json_doc(self):
        """The liecg-irrep-v1 document, its three tables as iterators that
        form each row as the writer (_json_chunks) reaches it."""
        src = self._source
        if type(src) is RationalForm:
            lowering, scp = _form_rows(src)
        else:
            text = lru_cache(maxsize=None)(_value_text)  # each value once
            lowering = (
                [state, root, [[text(c), t] for c, t in terms]]
                for (root, state), terms in sorted(
                    src[0].items(), key=lambda kv: (kv[0][1], kv[0][0]))
            )
            scp = ([a, b, text(v)] for (a, b), v in sorted(src[1].items()))
        return {
            "format": self.FORMAT,
            "algebra": {"family": self.algebra.family, "rank": self.algebra.rank},
            "kets": (
                [lab, list(k.dynkin), k.deg_index] for lab, k in sorted(self.kets.items())
            ),
            "lowering": lowering,
            "scp": scp,
        }

    def to_json(self):
        return "".join(_json_chunks(self.json_doc()))

    @classmethod
    def from_json_dict(cls, doc):
        if not isinstance(doc, dict):
            raise InvalidImportError("malformed irrep data: not a JSON object")
        try:
            if "format" not in doc:
                raise InvalidImportError(
                    f"not a {cls.FORMAT} file: it has no \"format\"")
            if doc["format"] != cls.FORMAT:
                raise InvalidImportError(f"unknown format {doc['format']!r}")
            alg = LieAlgebra(doc["algebra"]["family"],
                             _integer(doc["algebra"]["rank"], "algebra rank"))
            kets = {}
            for lab, dyn, deg in doc["kets"]:
                lab = _integer(lab, "ket label")
                if lab in kets:
                    raise InvalidImportError(f"ket {lab} is listed twice")
                dyn = tuple(dyn)
                if not _INTS.issuperset(map(type, dyn)):
                    for x in dyn:
                        _integer(x, "weight component")
                kets[lab] = Ket(dyn, _integer(deg, "degeneracy index"))
            # coefficient text -> its value, shared.  The lookup of a text
            # read before and the int checks are inlined: _coefficient reads
            # a new text, and _integer is called only to refuse
            parsed = {}
            lowering = {}
            for state, root, terms in doc["lowering"]:
                if type(root) is not int or type(state) is not int:
                    _integer(root, "root")
                    _integer(state, "state")
                key = root, state
                if key in lowering:
                    raise InvalidImportError(
                        f"lowering of state {state} by root {root} is listed "
                        "twice"
                    )
                row = []
                for c, t in terms:
                    got = parsed.get(c) if type(c) is str else None
                    if got is None:
                        got = _coefficient(c, parsed)
                    if type(t) is not int:
                        _integer(t, "target")
                    row.append((got, t))
                lowering[key] = tuple(row)
            scp = {}
            for a, b, v in doc["scp"]:
                if type(a) is not int or type(b) is not int:
                    _integer(a, "state")
                    _integer(b, "state")
                key = a, b
                if key in scp:
                    raise InvalidImportError(
                        f"scalar product ({a},{b}) is listed twice"
                    )
                scp[key] = _coefficient(v, parsed)
        except InvalidImportError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InvalidImportError(f"malformed irrep data: {exc}") from exc
        return cls._of(alg, kets, (lowering, scp))

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidImportError(f"not valid JSON: {exc}") from exc
        return cls.from_json_dict(doc)


def _json_chunks(x, nl="\n"):
    """The text of json.dumps(x, indent=1), byte for byte, in pieces, for a
    document of dicts with str keys, lists, str, int and None; anything else
    (bool, float, tuple, a non-str key) raises TypeError.  Every JSON
    document liecg writes comes from here, as "".join of the pieces or
    written piece by piece, but the weight records of a -rep listing: cli
    fills those, one tuple of fields each, into the format that _format
    gives their shape, and this writes the document around them.  Before
    Python 3.13 json.dumps runs its pure-Python encoder whenever it indents,
    while this writer joins each container once, and writes a list or dict
    whose leaves are all plain ints and strs (a ket, a lowering row, a
    state) with one %-format per shape: its keys, its nesting, its list
    lengths and its depth.  Values are told apart by type(), so a bool, a
    float, None or an empty container leaves that path and is written or
    refused as anywhere else.

    A list may also be given as an iterator, outside any list: it is written
    element by element as it is consumed, one piece per element, so a long
    list is never held whole, neither as values nor as text."""
    t = type(x)
    if t is dict and x:
        for k in x:
            _key(k)
        inner, sep = _indent(nl)
        head = "{" + inner
        for k, v in x.items():
            yield head + _key(k)
            yield from _json_chunks(v, inner)
            head = sep
        yield nl + "}"
    elif isinstance(x, Iterator):
        inner, sep = _indent(nl)
        head = "[" + inner
        for v in x:
            yield head + _json_value(v, inner)
            head = sep
        yield "[]" if head[0] == "[" else nl + "]"
    else:
        yield _json_value(x, nl)


_INTS = {int}
_LEAVES = {int, str}

# CPython 3.11 puts every freed tuple of 20 items on its free list but never
# takes one back from it, so each such tuple is a fresh allocation and 2000
# of them stay allocated (0.4 MB).  A %-format of this many fields gets one
# more, "%s", filled with "".
_PINNED_FIELDS = 20


def _json_value(x, nl):
    """x written at the depth whose line break and indent is nl, joined."""
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if t is not list and t is not dict:
        raise TypeError(f"cannot write {type(x).__name__} {x!r} as JSON")
    if not x:
        return "[]" if t is list else "{}"
    # a container whose leaves are all ints and strs fills one format of
    # its shape
    vals = []
    shape = _shape(x, vals)
    if shape is not None:
        if len(vals) == _PINNED_FIELDS:
            vals.append("")
            return _format(shape, nl, "%s") % tuple(vals)
        return _format(shape, nl, "") % tuple(vals)
    inner, sep = _indent(nl)
    if t is list:
        body = sep.join([_json_value(v, inner) for v in x])
        return "[" + inner + body + nl + "]"
    body = sep.join([_key(k) + _json_value(v, inner) for k, v in x.items()])
    return "{" + inner + body + nl + "}"


def _shape(x, vals):
    """The shape of a non-empty list or dict x whose values are ints, strs
    and non-empty lists and dicts of them, appending its leaves to vals in
    the order they are written, each str escaped; None if x holds anything
    else.  A shape is the tuple of its values' shapes: int or str for a
    leaf, n for a list of n ints; a dict's is (dict, its keys, that tuple).
    Values are told apart by type(): a bool is an int that json.dumps
    writes as true, which %d would write as 1."""
    shape = []
    for v in x.values() if type(x) is dict else x:
        t = type(v)
        if t is int:
            vals.append(v)
        elif t is list and v:
            kinds = set(map(type, v))
            if kinds == _INTS:
                vals += v
                t = len(v)
            elif kinds <= _LEAVES:  # a row of ints and strs
                vals += [encode_basestring_ascii(y) if type(y) is str else y
                         for y in v]
                t = tuple(map(type, v))
            elif (t := _shape(v, vals)) is None:
                return None
        elif t is str:
            vals.append(encode_basestring_ascii(v))
        elif t is dict and v:
            if (t := _shape(v, vals)) is None:
                return None
        else:
            return None
        shape.append(t)
    if type(x) is dict:
        return dict, tuple(x), tuple(shape)
    return tuple(shape)


# The writer's fixed pieces, each formed once: a document nests a few levels
# deep and has a few dozen keys and shapes of rows and records (a weight
# record, a ket, a lowering row with its number of terms, a state).

@lru_cache(maxsize=None)
def _indent(nl):
    """The line break one level below nl, and the item separator there."""
    inner = nl + " "
    return inner, "," + inner


@lru_cache(maxsize=None)
def _key(k):
    """The JSON text of object key k and its colon."""
    if type(k) is not str:
        raise TypeError(f"JSON object key {k!r} is not a str")
    return encode_basestring_ascii(k) + ": "


@lru_cache(maxsize=512)
def _format(shape, nl, pad):
    """The %-format of a container of that shape (_shape) written at the
    depth of nl, followed by pad."""
    return _template(shape, nl) + pad


def _template(shape, nl):
    inner, sep = _indent(nl)
    if type(shape) is int:  # a list of that many ints
        return "[" + inner + sep.join(["%d"] * shape) + nl + "]"
    keys = None
    if shape[0] is dict:
        _, keys, shape = shape
    parts = ["%d" if s is int else "%s" if s is str else _template(s, inner)
             for s in shape]
    if keys is None:
        return "[" + inner + sep.join(parts) + nl + "]"
    body = sep.join([_key(k).replace("%", "%%") + p
                     for k, p in zip(keys, parts)])
    return "{" + inner + body + nl + "}"


def _integer(x, what):
    """x when it is a JSON integer; a float, bool or string is refused, not
    truncated, with a message naming what."""
    if type(x) is not int:
        raise InvalidImportError(
            f"malformed irrep data: {what} {x!r} is not an integer"
        )
    return x


def _coefficient(text, parsed):
    """The value of a coefficient text, read once per distinct text: parsed
    maps each text already read to its value, which is never changed and so
    can be shared.  A value is the triple (f, n, d) for n/d*sqrt(f), f
    square-free and n/d nonzero in lowest terms with d > 0, when the text is
    one nonzero radical, else its FieldElem: zero, or a sum of radicals.  A
    text of one term as _render_terms writes it is read straight into its
    triple; any other goes through parse_field."""
    if not isinstance(text, str):
        raise InvalidImportError(f"coefficient {text!r} is not a string")
    got = parsed.get(text)
    if got is None:
        got = parsed[text] = _read_coefficient(text)
    return got


# one term as _render_terms writes it: -n/d*sqrt(f), the sign, /d and
# *sqrt(f) each optional
_TERM = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?(?:\*sqrt\(([0-9]+)\))?")


def _read_coefficient(text):
    m = _TERM.fullmatch(text)
    if m:
        sign, n, d, f = m.groups()
        n, d, f = int(n), int(d or 1), int(f or 1)
        if n and d and 0 < f <= MAX_RADICAND:  # else parse_field reads it
            s, f = _square_free(f)
            n *= s
            g = gcd(n, d)
            return f, (-n if sign else n) // g, d // g
    try:
        c = parse_field(text)
    except ZeroDivisionError:
        raise InvalidImportError(
            f"coefficient {text!r} divides by zero") from None
    return _value(c)


def _value(c):
    """The value of a FieldElem c as _coefficient gives it."""
    if len(c.terms) != 1:
        return c
    ((f, q),) = c.terms.items()
    return f, q.numerator, q.denominator


def _elem_of(v):
    """The FieldElem of a value."""
    if type(v) is not tuple:
        return v
    f, n, d = v
    return FieldElem({f: Fraction(n, d)})


def _value_text(v):
    """The plain text of a value."""
    return _render_terms((v,)) if type(v) is tuple else v.plain()


def new_imported_irrep(la: LieAlgebra, data: ImportedIrrepData) -> Irrep:
    """Rebuild an irrep from prepared tensor-product data, with validation."""
    if la != data.algebra:
        raise InvalidImportError(
            f"data is for {data.algebra.name}, not {la.name}"
        )
    if not data.kets:
        raise InvalidImportError("no kets")
    dim = len(data.kets)
    if sorted(data.kets) != list(range(1, dim + 1)):
        raise InvalidImportError("ket labels must be exactly 1..dim")
    hw = data.kets[1].dynkin
    if len(hw) != la.rank:
        raise InvalidImportError(f"weights must have {la.rank} components")
    try:
        want_dim = weyl_dim(la, hw)
    except ValueError as exc:
        raise InvalidImportError(f"state 1 is not a highest weight: {exc}") from exc
    # before freudenthal, which runs over every weight of the claimed irrep
    if dim != want_dim:
        raise InvalidImportError(
            f"{dim} kets, but the {la.name} irrep {hw} has dimension {want_dim}"
        )
    want = {rec.dynkin: rec.degeneracy for rec in freudenthal(la, hw)}
    degs = {}
    for ket in data.kets.values():
        degs.setdefault(ket.dynkin, []).append(ket.deg_index)
    if {w: len(d) for w, d in degs.items()} != want:
        raise InvalidImportError("weight multiset does not match the irrep")
    for w, d in degs.items():
        m = len(d)
        if sorted(d) != list(range(1, m + 1)):
            raise InvalidImportError(f"degeneracy indices at {w} not 1..{m}")
    A = cartan(la)
    weight_of = {lab: k.dynkin for lab, k in data.kets.items()}
    read_lowering, read_scp = data._values()
    lowering = {}
    for (root, state), terms in read_lowering.items():
        if not 1 <= root <= la.rank or state not in weight_of:
            raise InvalidImportError(f"bad lowering key ({state}, {root})")
        target_w = _vsub(weight_of[state], A[root - 1])
        seen = set()
        row = []
        for c, t in terms:
            if weight_of.get(t) != target_w:
                raise InvalidImportError(
                    f"lowering of state {state} by root {root} hits wrong weight"
                )
            if t in seen:
                raise InvalidImportError(
                    f"lowering of state {state} by root {root} names state "
                    f"{t} twice"
                )
            seen.add(t)
            if c:
                row.append((t, c))
        if row:
            # the targets are distinct, so no two values are compared
            row.sort()
            lowering[(root, state)] = row
    scp = {}
    for (a, b), v in read_scp.items():
        if a not in weight_of or b not in weight_of:
            raise InvalidImportError(f"scalar product of unknown labels ({a},{b})")
        if a == b:
            if v != (1, 1, 1):
                raise InvalidImportError(f"diagonal scalar product at {a} is not 1")
            continue
        if weight_of[a] != weight_of[b]:
            raise InvalidImportError(f"scalar product across weights ({a},{b})")
        key = (a, b) if a < b else (b, a)
        old = scp.get(key)
        if old is not None and old != v:
            raise InvalidImportError(f"asymmetric scalar product at {key}")
        if v:
            scp[key] = v
    form = _derive_rational_form(la.rank, data.kets, lowering, scp)
    return Irrep(la, hw, dict(data.kets), form, "imported")
