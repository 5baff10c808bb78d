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
form.  A kept monomial a of norm k_a^2 r_a is k_a u_a, so the form comes
straight from its tables, as it does in the tensor module's
`prepare_with_states` for an irrep found in a product.

`ImportedIrrepData` holds the unit-basis tables of the liecg-irrep-v1
files: `from_irrep` renders them from the form, `new_imported_irrep`
derives the form back by pushing the classes down the lowering table from
the highest weight, and refuses a file that has none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exactnum import (
    ONE,
    ZERO,
    FieldElem,
    parse_field,
    single_radical,
    _sqrt,
    _square_free,
    _times_sqrt,
)
from .linalg import LabeledVector, _Reducer
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
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


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
        self.label_of = {
            (k.dynkin, k.deg_index): lab for lab, k in kets.items()
        }

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

    def check_consistency(self, labels=None, roots=None):
        """Verify the string sum rule on the given states (all by default).

        For a state a of weight w and a simple root i,
        |F_i a|^2 = w_i <a|a> + u.G^-1.u, where G is the Gram matrix of the
        weight block at w + alpha_i and u_g = <F_i g|a> for each state g
        there.  The sweep runs on the rational form, where every quantity
        is rational.  G^-1.u comes from a tracking _Reducer holding the rows
        of G: G is symmetric, so the coordinates of u in terms of its rows
        are G^-1.u.  Raises ConsistencyError on the first violation or on a
        singular block.
        """
        rf = self._form
        la = self.algebra
        A = cartan(la)
        blocks = {}  # weight -> (its states, _Reducer over their Gram rows)
        for a in labels if labels is not None else self.kets:
            w = self.weight_of[a]
            ga = dict(rf.gram[a])
            for i in roots if roots is not None else range(1, la.rank + 1):
                low = rf.lower[i]
                down = dict(low.get(a, ()))
                lhs = sum(q * g * down.get(b, 0)
                          for t, q in down.items() for b, g in rf.gram[t])
                rhs = w[i - 1] * rf.r[a]
                up = _vadd(w, A[i - 1])
                if up in self.labels_by_weight:
                    if up not in blocks:
                        blocks[up] = self._gram_block(rf, up)
                    ups, red = blocks[up]
                    u = _nonzero({
                        k: sum(q * ga.get(t, 0) for t, q in low.get(g, ()))
                        for k, g in enumerate(ups)
                    })
                    if u:
                        rhs += sum(u.get(k, 0) * c for k, c in red.add(u).items())
                if lhs != rhs:
                    ra = rf.r[a]  # both sides read in the unit basis
                    raise ConsistencyError(
                        f"{la.name} irrep {self.hw}: string sum rule fails at "
                        f"state {a} of weight {w}, root {i}: "
                        f"{Fraction(lhs) / ra} != {Fraction(rhs) / ra}"
                    )

    def _gram_block(self, rf, weight):
        """The states of a weight block and a tracking _Reducer holding
        their Gram rows, each row indexed by position in the block."""
        ups = self.labels_by_weight[weight]
        pos = {g: k for k, g in enumerate(ups)}
        red = _Reducer(track=True)
        for g in ups:
            if red.add({pos[b]: x for b, x in rf.gram[g]}) is not None:
                raise ConsistencyError(
                    f"{self.algebra.name} irrep {self.hw}: the Gram matrix "
                    f"of weight {weight} is singular"
                )
        return ups, red


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


def _rational(q):
    # ints keep the hot loops in integer arithmetic wherever they can
    return q.numerator if q.denominator == 1 else q


def _unit_row(rf, i, a):
    """E_-i e_a in the unit basis, as (coefficient, target) pairs in label
    order: an entry q from a to t reads q*sqrt(r_t/r_a)."""
    r = rf.r
    return tuple(
        (_times_sqrt(q, r[t], r[a]), t)
        for t, q in rf.lower.get(i, {}).get(a, ())
    )


def _derive_rational_form(rank, kets, lowering, scp) -> RationalForm:
    """The rational form of unit-basis tables, (root, a) -> LabeledVector
    and (a, b) -> nonzero FieldElem for a < b.  The classes propagate from
    state 1 through the lowering table: an entry q*sqrt(f) from a to t gives
    r_t = squarefree(f*r_a) and the rational entry q*sqrt(f*r_a/r_t)."""
    r = {1: 1}
    lower = {i: {} for i in range(1, rank + 1)}
    queue = [1]
    for a in queue:  # breadth first: a has its class when it is reached
        for i in range(1, rank + 1):
            vec = lowering.get((i, a))
            if vec is None:
                continue
            row = []
            for c, t in vec.terms:
                term = single_radical(c)
                if term is None:
                    raise InvalidImportError(
                        f"no rational form: lowering state {a} by root {i} "
                        f"gives state {t} the coefficient {c.plain()}, "
                        "which is not a single radical"
                    )
                q, f = term
                s, cls = _square_free(f * r[a])
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
                row.append((t, _rational(q * s)))
            lower[i][a] = tuple(row)
    missing = [lab for lab in kets if lab not in r]
    if missing:
        raise InvalidImportError(
            f"no rational form: state {min(missing)} is not reached by "
            "lowering from state 1"
        )
    gram = {a: [(a, r[a])] for a in kets}
    for (a, b), v in scp.items():
        q, f = single_radical(v) or (0, 0)
        s, cls = _square_free(f * r[a] * r[b])
        if cls != 1:
            raise InvalidImportError(
                f"no rational form: the scalar product {v.plain()} of states "
                f"{a} and {b} is not rational in the rescaled basis"
            )
        g = _rational(q * s)
        gram[a].append((b, g))
        gram[b].append((a, g))
    return RationalForm(r, lower, {a: tuple(g) for a, g in gram.items()})


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

    The kept count at each weight must be Freudenthal's multiplicity.  The
    rational form is read off these tables at the end.
    """
    hw = tuple(hw)
    A = cartan(la)
    records = freudenthal(la, hw)
    kets = {1: Ket(hw, 1)}
    at = {hw: [1]}  # weight -> its states in kept order
    up = {1: {}}  # state -> {k: E_k state as {label: q}}
    low = {}  # (i, state) -> F_i state as {label: q}
    gram = {1: {1: 1}}  # state -> {b: <state|b>} over its weight block
    for rec in records[1:]:
        nu = rec.dynkin
        cands = sorted(
            (a, i) for i, row in enumerate(A, 1) for a in at.get(_vadd(nu, row), ())
        )
        red = _Reducer(track=True)
        kept = []  # (state, its candidate, its Gram row)
        for a, i in cands:
            raised = {}  # k -> E_k F_i a = F_i E_k a + delta_ki (wt a)_i a
            for k in range(1, len(A) + 1):
                acc = {a: kets[a].dynkin[i - 1]} if k == i else {}
                for b, q in up[a].get(k, {}).items():
                    for t, p in low.get((i, b), {}).items():
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
                low[(i, a)] = {t: 1}
            else:
                low[(i, a)] = {kept[k][0]: q for k, q in coords.items()}
        if len(kept) != rec.degeneracy:
            raise ConsistencyError(
                f"{la.name} irrep {hw}: weight {nu} holds {len(kept)} "
                f"states, multiplicity is {rec.degeneracy}"
            )
        at[nu] = [t for t, _, _ in kept]
        for t, cand, _ in kept:
            gram[t] = _nonzero({t2: row2.get(cand, 0) for t2, _, row2 in kept})
    return Irrep(la, hw, kets, _scaled_form(la.rank, low, gram), "generic")


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


@dataclass
class ImportedIrrepData:
    """Everything needed to rebuild an irrep found inside a tensor product:
    the labeled kets, the lowering table, and the scalar products, in the
    unit basis.

    Serializes to a stable JSON document; coefficients are rendered with
    FieldElem.plain() and parsed back exactly.
    """

    algebra: LieAlgebra
    kets: dict  # label -> Ket
    lowering: dict  # (root, state) -> tuple of (FieldElem, target label)
    scp: dict  # (a, b) with a <= b -> FieldElem

    FORMAT = "liecg-irrep-v1"

    @classmethod
    def from_irrep(cls, r: Irrep) -> "ImportedIrrepData":
        """An irrep's unit-basis tables, rendered from its rational form."""
        rf = r.rational_form()
        return cls(
            algebra=r.algebra,
            kets=dict(r.kets),
            lowering={
                (i, a): _unit_row(rf, i, a)
                for i, rows in rf.lower.items() for a in rows
            },
            scp={
                (a, b): r.scalar_product(a, b)
                for a, row in rf.gram.items()
                for b, _ in row
                if a < b
            },
        )

    def to_json_dict(self):
        return {
            "format": self.FORMAT,
            "algebra": {"family": self.algebra.family, "rank": self.algebra.rank},
            "kets": [
                [lab, list(k.dynkin), k.deg_index] for lab, k in sorted(self.kets.items())
            ],
            "lowering": [
                [state, root, [[c.plain(), t] for c, t in terms]]
                for (root, state), terms in sorted(
                    self.lowering.items(), key=lambda kv: (kv[0][1], kv[0][0])
                )
            ],
            "scp": [
                [a, b, v.plain()] for (a, b), v in sorted(self.scp.items())
            ],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=1)

    @classmethod
    def from_json_dict(cls, doc):
        if not isinstance(doc, dict):
            raise InvalidImportError("malformed irrep data: not a JSON object")
        try:
            if doc.get("format") != cls.FORMAT:
                raise InvalidImportError(f"unknown format {doc.get('format')!r}")
            alg = LieAlgebra(doc["algebra"]["family"], doc["algebra"]["rank"])
            kets = {
                _integer(lab, "ket label"): Ket(
                    tuple(_integer(x, "weight component") for x in dyn),
                    _integer(deg, "degeneracy index"),
                )
                for lab, dyn, deg in doc["kets"]
            }
            lowering = {}
            for state, root, terms in doc["lowering"]:
                key = (_integer(root, "root"), _integer(state, "state"))
                lowering[key] = tuple(
                    (_coefficient(c), _integer(t, "target")) for c, t in terms
                )
            scp = {
                (_integer(a, "state"), _integer(b, "state")): _coefficient(v)
                for a, b, v in doc["scp"]
            }
        except InvalidImportError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InvalidImportError(f"malformed irrep data: {exc}") from exc
        return cls(algebra=alg, kets=kets, lowering=lowering, scp=scp)

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidImportError(f"not valid JSON: {exc}") from exc
        return cls.from_json_dict(doc)


def _integer(x, what):
    """x when it is a JSON integer; a float, bool or string is refused, not
    truncated."""
    if type(x) is not int:
        raise InvalidImportError(
            f"malformed irrep data: {what} {x!r} is not an integer"
        )
    return x


def _coefficient(text):
    if not isinstance(text, str):
        raise InvalidImportError(f"coefficient {text!r} is not a string")
    try:
        return parse_field(text)
    except ZeroDivisionError:
        raise InvalidImportError(f"coefficient {text!r} divides by zero") from None


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
    lowering = {}
    for (root, state), terms in data.lowering.items():
        if not 1 <= root <= la.rank or state not in data.kets:
            raise InvalidImportError(f"bad lowering key ({state}, {root})")
        target_w = _vsub(data.kets[state].dynkin, A[root - 1])
        for c, t in terms:
            if t not in data.kets or data.kets[t].dynkin != target_w:
                raise InvalidImportError(
                    f"lowering of state {state} by root {root} hits wrong weight"
                )
        vec = LabeledVector(terms)
        if not vec.is_zero():
            lowering[(root, state)] = vec
    scp = {}
    for (a, b), v in data.scp.items():
        if a not in data.kets or b not in data.kets:
            raise InvalidImportError(f"scalar product of unknown labels ({a},{b})")
        if a == b:
            if v != ONE:
                raise InvalidImportError(f"diagonal scalar product at {a} is not 1")
            continue
        if data.kets[a].dynkin != data.kets[b].dynkin:
            raise InvalidImportError(f"scalar product across weights ({a},{b})")
        key = (a, b) if a < b else (b, a)
        old = scp.get(key)
        if old is not None and old != v:
            raise InvalidImportError(f"asymmetric scalar product at {key}")
        if not v.is_zero():
            scp[key] = v
    form = _derive_rational_form(la.rank, data.kets, lowering, scp)
    return Irrep(la, hw, dict(data.kets), form, "imported")
