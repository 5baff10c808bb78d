"""Concrete irreps: labeled basis kets, lowering tables, scalar products.

Basis states are labeled 1..dim in listing order: level ascending, descent
vector ascending within a level, degeneracy index ascending within a weight.
Lowering operators E_-i carry phase +1 throughout; their normalizations come
from the su(2) string recursion |N|^2(w) = w_i + |N|^2(w + a^i), so they are
square roots of rationals for generically built irreps.  Scalar products are
1 on the diagonal and 0 across different weights; inside a degenerate weight
block they can be irrational (sqrt(A_ab A_ba)/2 for adjoint zero states).

Only non-degenerate irreps and the adjoint can be built from scratch; any
other irrep has to be imported from tensor-product data (the tensor module's
`prepare` emits it, `new_imported_irrep` consumes it).

Every irrep built or prepared here has a rational form (Kostant's Z-form):
each label a carries a square-free class r_a such that in the rescaled
basis u_a = sqrt(r_a) e_a all lowering entries and all scalar products are
rational.  `Irrep.rational_form` derives it once, on first use, by pushing
the classes down the lowering table from the highest weight.
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
    field,
    field_sqrt,
    parse_field,
    single_radical,
    _square_free,
)
from .linalg import LabeledVector, invert_matrix
from .liealg import (
    ConsistencyError,
    LieAlgebra,
    adjoint_hw,
    cartan,
    freudenthal,
    weyl_dim,
)

__all__ = [
    "Ket",
    "Irrep",
    "ImportedIrrepData",
    "UnsupportedIrrepError",
    "InvalidImportError",
    "new_generic_irrep",
    "new_imported_irrep",
    "lower",
    "scalar_product",
    "scp_zero_weights",
]


class UnsupportedIrrepError(ValueError):
    """Degenerate non-adjoint irreps cannot be built generically."""


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

    def __init__(self, algebra, hw, kets, lowering, scp, origin):
        self.algebra = algebra
        self.hw = tuple(hw)
        self.kets = kets  # label -> Ket
        self.origin = origin
        self._lowering = lowering  # (root, label) -> LabeledVector
        self._scp = scp  # (a, b) with a < b, same weight -> FieldElem
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
        self._gram = {}
        self._gram_inv = {}
        self._rational = None

    def __repr__(self):
        return f"Irrep({self.algebra.name}, {self.hw}, dim={self.dim}, {self.origin})"

    def lower(self, root, state):
        """E_-root applied to a basis state, as a vector over basis labels."""
        return self._lowering.get((root, state), _EMPTY)

    def scalar_product(self, a, b):
        if a == b:
            return ONE
        if self.weight_of[a] != self.weight_of[b]:
            return ZERO
        key = (a, b) if a < b else (b, a)
        return self._scp.get(key, ZERO)

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
        """The irrep in the rescaled basis u_a = sqrt(r_a) e_a, derived on
        first use; InvalidImportError if the tables have no such form."""
        if self._rational is None:
            self._rational = _derive_rational_form(self)
        return self._rational

    def gram(self, weight):
        """Gram matrix of the weight block, rows/cols in label order."""
        got = self._gram.get(weight)
        if got is None:
            labs = self.labels_by_weight[weight]
            got = [[self.scalar_product(a, b) for b in labs] for a in labs]
            self._gram[weight] = got
        return got

    def gram_inverse(self, weight):
        got = self._gram_inv.get(weight)
        if got is None:
            got = invert_matrix(self.gram(weight))
            self._gram_inv[weight] = got
        return got

    def check_consistency(self, labels=None, roots=None):
        """Verify the lowering/raising sum rule on the given states.

        For each state a of weight w and each simple root i, the contraction
        of E_-i|a> with itself must equal w_i plus the Gram-inverse
        contraction of the couplings from the weight above.  Raises
        ConsistencyError on the first violation.
        """
        A = cartan(self.algebra)
        n = self.algebra.rank
        for a in labels if labels is not None else self.kets:
            w = self.weight_of[a]
            for i in roots if roots is not None else range(1, n + 1):
                row = A[i - 1]
                v = self.lower(i, a)
                lhs = self.vector_scp(v, v)
                rhs = field(w[i - 1])
                ups = self.labels_by_weight.get(_vadd(w, row), ())
                if ups:
                    u = []
                    for g in ups:
                        s = ZERO
                        for c, lab in self.lower(i, g).terms:
                            p = self.scalar_product(lab, a)
                            if not p.is_zero():
                                s = s + c * p
                        u.append(s)
                    G = self.gram_inverse(_vadd(w, row))
                    m = len(ups)
                    acc = ZERO
                    for x in range(m):
                        if u[x].is_zero():
                            continue
                        for y in range(m):
                            if not u[y].is_zero():
                                acc = acc + u[x] * G[x][y] * u[y]
                    rhs = rhs + acc
                if lhs != rhs:
                    raise ConsistencyError(
                        f"string sum rule fails at state {a}, root {i}: "
                        f"{lhs.plain()} != {rhs.plain()}"
                    )


_EMPTY = LabeledVector()


class RationalForm(NamedTuple):
    """Lowering table and Gram matrix of an irrep over Q, in the basis
    u_a = sqrt(r_a) e_a.

    r: label -> square-free class r_a (r_1 == 1);
    lower[i]: label -> ((target, q), ...) with E_-i u_a = sum q u_target;
    gram: label -> ((b, g), ...) over a's weight block, <u_a|u_b> = g,
    the diagonal entry (a, r_a) included.
    """

    r: dict
    lower: list
    gram: dict


def _rational(q):
    # ints keep the hot loops in integer arithmetic wherever they can
    return q.numerator if q.denominator == 1 else q


def _derive_rational_form(irr: Irrep) -> RationalForm:
    """Propagate the classes from state 1 through the lowering table: an
    entry q*sqrt(f) from a to t gives r_t = squarefree(f*r_a) and the
    rational entry q*sqrt(f*r_a/r_t)."""
    n = irr.algebra.rank
    r = {1: 1}
    lower = [None] + [{} for _ in range(n)]
    queue = [1]
    for a in queue:  # breadth first: a has its class when it is reached
        for i in range(1, n + 1):
            terms = irr.lower(i, a).terms
            if not terms:
                continue
            row = []
            for c, t in terms:
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
    missing = [lab for lab in irr.kets if lab not in r]
    if missing:
        raise InvalidImportError(
            f"no rational form: state {min(missing)} is not reached by "
            "lowering from state 1"
        )
    gram = {a: [(a, r[a])] for a in irr.kets}
    for (a, b), v in irr._scp.items():
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


def _assign_labels(records):
    # label -> Ket in listing order; records come level/descent sorted
    kets = {}
    lab = 1
    for rec in records:
        for d in range(1, rec.degeneracy + 1):
            kets[lab] = Ket(rec.dynkin, d)
            lab += 1
    return kets


def _build_nondeg(la, hw, records):
    A = cartan(la)
    n = la.rank
    kets = _assign_labels(records)
    label_at = {k.dynkin: lab for lab, k in kets.items()}
    weights = set(label_at)
    memo = {}

    def n2(w, i):
        # squared normalization for lowering weight w by root i
        val = memo.get((w, i))
        if val is None:
            up = _vadd(w, A[i - 1])
            val = w[i - 1] + (n2(up, i) if up in weights else 0)
            memo[(w, i)] = val
        return val

    lowering = {}
    for lab, ket in kets.items():
        w = ket.dynkin
        for i in range(1, n + 1):
            t = _vsub(w, A[i - 1])
            if t in weights:
                c2 = n2(w, i)
                if c2 < 0:
                    raise ConsistencyError(f"negative |N|^2 at {w}, root {i}")
                if c2:
                    lowering[(i, lab)] = LabeledVector(
                        [(field_sqrt(field(c2)), label_at[t])]
                    )
    return Irrep(la, hw, kets, lowering, {}, "generic")


def _build_adjoint(la, records):
    from .liealg import positive_roots

    A = cartan(la)
    n = la.rank
    hw = adjoint_hw(la)
    kets = _assign_labels(records)
    zero = (0,) * n
    # nonzero-weight states correspond to roots; store coefficient vectors
    coeff_of = {}
    for r in positive_roots(la):
        dyn = tuple(sum(r[i] * A[i][j] for i in range(n)) for j in range(n))
        coeff_of[dyn] = r
        coeff_of[tuple(-x for x in dyn)] = tuple(-x for x in r)
    rootset = set(coeff_of.values())
    dyn_of = {v: k for k, v in coeff_of.items()}
    label_at = {}
    zero_label = {}
    for lab, ket in kets.items():
        if ket.dynkin == zero:
            zero_label[ket.deg_index] = lab  # |0_i> in simple-root order
        else:
            label_at[coeff_of[ket.dynkin]] = lab

    def unit(i):
        return tuple(1 if j == i - 1 else 0 for j in range(n))

    memo = {}

    def n2(v, i):
        # string recursion on root vectors; crossing the zero weight
        # contributes the full flux 2 from |0_i>
        val = memo.get((v, i))
        if val is None:
            up = _vadd(v, unit(i))
            if up == zero:
                prev = 2
            elif up in rootset:
                prev = n2(up, i)
            else:
                prev = 0
            val = dyn_of[v][i - 1] + prev
            memo[(v, i)] = val
        return val

    sqrt2 = field_sqrt(field(2))
    lowering = {}
    for v, lab in label_at.items():
        for i in range(1, n + 1):
            t = _vsub(v, unit(i))
            if t == zero:
                lowering[(i, lab)] = LabeledVector([(sqrt2, zero_label[i])])
            elif t in rootset:
                c2 = n2(v, i)
                if c2 < 0:
                    raise ConsistencyError(f"negative |N|^2 at root {v}, {i}")
                if c2:
                    lowering[(i, lab)] = LabeledVector(
                        [(field_sqrt(field(c2)), label_at[t])]
                    )
    for a in range(1, n + 1):
        src = zero_label[a]
        for i in range(1, n + 1):
            c2 = Fraction(A[a - 1][i - 1] * A[i - 1][a - 1], 2)
            if c2:
                target = label_at[tuple(-x for x in unit(i))]
                lowering[(i, src)] = LabeledVector(
                    [(field_sqrt(field(c2)), target)]
                )
    scp = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            val = scp_zero_weights(la, a, b)
            if not val.is_zero():
                scp[(zero_label[a], zero_label[b])] = val
    return Irrep(la, hw, kets, lowering, scp, "generic")


def new_generic_irrep(la: LieAlgebra, hw) -> Irrep:
    """Construct a non-degenerate irrep or the adjoint from scratch."""
    records = freudenthal(la, hw)
    hw = tuple(hw)
    if hw == adjoint_hw(la):
        return _build_adjoint(la, records)
    if all(r.degeneracy == 1 for r in records):
        return _build_nondeg(la, hw, records)
    raise UnsupportedIrrepError(
        f"{la.name} {hw} has degenerate weights and is not the adjoint; "
        "build it inside a tensor product and import the prepared data"
    )


def scp_zero_weights(la: LieAlgebra, a: int, b: int) -> FieldElem:
    """Scalar product of the adjoint zero-weight states |0_a> and |0_b>."""
    if not (1 <= a <= la.rank and 1 <= b <= la.rank):
        raise ValueError(f"zero-state indices must lie in 1..{la.rank}")
    if a == b:
        return ONE
    A = cartan(la)
    return field_sqrt(field(Fraction(A[a - 1][b - 1] * A[b - 1][a - 1], 4)))


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
    the labeled kets, the lowering table, and the scalar products.

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
        """Snapshot an existing irrep's tables (handy for dumping)."""
        return cls(
            algebra=r.algebra,
            kets=dict(r.kets),
            lowering={k: tuple(v.terms) for k, v in r._lowering.items()},
            scp=dict(r._scp),
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
        try:
            if doc.get("format") != cls.FORMAT:
                raise InvalidImportError(f"unknown format {doc.get('format')!r}")
            alg = LieAlgebra(doc["algebra"]["family"], doc["algebra"]["rank"])
            kets = {
                int(lab): Ket(tuple(int(x) for x in dyn), int(deg))
                for lab, dyn, deg in doc["kets"]
            }
            lowering = {}
            for state, root, terms in doc["lowering"]:
                lowering[(int(root), int(state))] = tuple(
                    (parse_field(c), int(t)) for c, t in terms
                )
            scp = {
                (int(a), int(b)): parse_field(v) for a, b, v in doc["scp"]
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
        records = freudenthal(la, hw)
    except ValueError as exc:
        raise InvalidImportError(f"state 1 is not a highest weight: {exc}") from exc
    want = {rec.dynkin: rec.degeneracy for rec in records}
    got = {}
    for ket in data.kets.values():
        got[ket.dynkin] = got.get(ket.dynkin, 0) + 1
    if got != want:
        raise InvalidImportError("weight multiset does not match the irrep")
    for w, m in got.items():
        degs = sorted(
            k.deg_index for k in data.kets.values() if k.dynkin == w
        )
        if degs != list(range(1, m + 1)):
            raise InvalidImportError(f"degeneracy indices at {w} not 1..{m}")
    if dim != weyl_dim(la, hw):
        raise InvalidImportError("dimension mismatch")
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
    return Irrep(la, hw, dict(data.kets), lowering, scp, "imported")
