"""Sparse labeled vectors and exact linear algebra.

Vectors are sparse linear combinations of opaque labels (ints, label pairs,
nested tuples); zero coefficients are dropped and terms are kept sorted by a
total order on labels so that all listings are deterministic.

_Reducer is the incremental elimination over the rationals that the irrep
builder, the consistency sweep and the tensor-product descent, search and
prepare share.  It works fraction-free (Bareiss 1968): rows are primitive
integer vectors, and the combinations it tracks are integer relations, so
a Fraction appears only in the coordinates of a dependent vector.  Over
the field there is only `invert_matrix`, for the basis changes that
scripts write with radical coefficients, and `gram_orthogonalize`, which
completes such a basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactnum import ONE, ZERO, FieldElem

__all__ = [
    "LabeledVector",
    "SingularMatrixError",
    "label_key",
    "invert_matrix",
    "gram_orthogonalize",
]


class SingularMatrixError(ValueError):
    """The matrix has no inverse."""


def label_key(label):
    """Total order on heterogeneous labels (ints before pairs, recursively)."""
    if isinstance(label, tuple):
        return (1, tuple(label_key(x) for x in label))
    return (0, label)


class LabeledVector:
    """Sparse vector: a formal sum of (coefficient, label) terms."""

    __slots__ = ("_d",)

    def __init__(self, items=()):
        d: dict = {}
        for c, l in items:
            if c.is_zero():
                continue
            acc = d.get(l)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                d.pop(l, None)
            else:
                d[l] = acc
        self._d = d

    @classmethod
    def _raw(cls, d: dict) -> "LabeledVector":
        v = cls.__new__(cls)
        v._d = d
        return v

    @classmethod
    def unit(cls, label) -> "LabeledVector":
        return cls._raw({label: ONE})

    @property
    def terms(self) -> list:
        """Terms as (coefficient, label) pairs in label order."""
        return [(self._d[l], l) for l in sorted(self._d, key=label_key)]

    def labels(self) -> list:
        return sorted(self._d, key=label_key)

    def get(self, label) -> FieldElem:
        return self._d.get(label, ZERO)

    def is_zero(self) -> bool:
        return not self._d

    def __len__(self) -> int:
        return len(self._d)

    def __add__(self, other: "LabeledVector") -> "LabeledVector":
        if not self._d:
            return other
        if not other._d:
            return self
        d = dict(self._d)
        for l, c in other._d.items():
            acc = d.get(l)
            if acc is None:
                d[l] = c
            else:
                acc = acc + c
                if acc.is_zero():
                    del d[l]
                else:
                    d[l] = acc
        return LabeledVector._raw(d)

    def __neg__(self) -> "LabeledVector":
        return LabeledVector._raw({l: -c for l, c in self._d.items()})

    def __sub__(self, other: "LabeledVector") -> "LabeledVector":
        return self + (-other)

    def scaled(self, c: FieldElem) -> "LabeledVector":
        if c.is_zero():
            return LabeledVector._raw({})
        return LabeledVector._raw({l: k * c for l, k in self._d.items()})

    def map_labels(self, fn) -> "LabeledVector":
        """Relabel terms through fn (merging collisions)."""
        return LabeledVector((c, fn(l)) for l, c in self._d.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledVector):
            return NotImplemented
        if self._d.keys() != other._d.keys():
            return False
        return all(other._d[l] == c for l, c in self._d.items())

    __hash__ = None

    def __repr__(self) -> str:
        if not self._d:
            return "[]"
        return "[" + "; ".join(
            "(%s, %r)" % (c.plain(), l) for c, l in self.terms) + "]"


# ------------------------------------------------------ rational elimination
# Rational vectors are dicts {label: q} with nonzero int or Fraction q.

def _integral(vec):
    """(row, p, q): the primitive integer vector row with q*row == p*vec,
    p, q > 0 coprime ints."""
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
    h = gcd(den, g)
    return row, den // h, g // h


def _scaled_ints(*tabs):
    """(d, *tabs): the tables label -> ((label, q), ...) times d, the lcm of
    the denominators of all their entries, as ints."""
    d = 1
    for tab in tabs:
        for row in tab.values():
            for _, q in row:
                if type(q) is not int:
                    d = lcm(d, q.denominator)
    if d == 1:
        return (1, *tabs)
    return (d, *(
        {a: tuple((t, q.numerator * (d // q.denominator)) for t, q in row)
         for a, row in tab.items()}
        for tab in tabs
    ))


class _Reducer:
    """Incremental exact rank tracker over rational vectors, eliminating
    fraction-free on primitive integer rows.

    Built with track=True, it also keeps every stored row as an integer
    relation s*row == sum of b_k times kept vector k, s > 0 and the common
    gcd of s and the b_k divided out, so a dependent vector comes back with
    its coordinates in terms of the kept vectors.  Only those coordinates
    are Fractions.
    """

    __slots__ = ("rows", "combs")

    def __init__(self, track=False):
        self.rows = []  # (pivot label, primitive integer row), pivot == min
        # parallel to rows when tracking: (s, {kept index: b_k})
        self.combs = [] if track else None

    def add(self, vec):
        """None, and remember the vector as kept vector number len(rows), if
        it is independent of those kept; else its coordinates {k: c} with
        vec == sum of c times kept vector k (left empty unless tracking)."""
        return self.add_row(*_integral(vec))

    def add_row(self, row, alpha, s):
        """add of the vector vec with s*row == alpha*vec, row its primitive
        integer vector as _integral gives it; row is reduced in place."""
        combs = self.combs
        beta = {}  # s*row == alpha*vec + sum of beta[k] times kept vector k
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
                # sk*prow == P, so s*sk*(a*row - b*prow) == a*sk*R - b*s*P
                sk, bk = combs[k]
                f, bs = a * sk, b * s
                alpha *= f
                if f != 1:
                    beta = {kk: f * x for kk, x in beta.items()}
                for kk, x in bk.items():
                    nv = beta.get(kk, 0) - bs * x
                    if nv:
                        beta[kk] = nv
                    else:
                        del beta[kk]
                s *= sk
        if not row:
            # 0 == alpha*vec + sum of beta[k] times kept vector k
            return {k: Fraction(-x, alpha) for k, x in beta.items()}
        g = gcd(*row.values())
        if g != 1:
            row = {lab: c // g for lab, c in row.items()}
        if combs is not None:
            beta[len(self.rows)] = alpha
            s *= g
            h = gcd(s, *beta.values())
            if h != 1:
                s //= h
                beta = {kk: x // h for kk, x in beta.items()}
            combs.append((s, beta))
        self.rows.append((min(row), row))
        return None

    def null_vector(self, labels):
        """A positive integer multiple of the vector x with row.x == 0 for
        every stored row whose first free label in labels is 1 and whose
        other free labels are 0, or None when every label is a pivot."""
        pivots = {pl for pl, _ in self.rows}
        free = next((lab for lab in labels if lab not in pivots), None)
        if free is None:
            return None
        x = {free: 1}
        # every row lives on labels >= its pivot: solve from the last pivot,
        # scaling x by |p|/g so that p*x[pl] + acc == 0 has an integer root
        for pl, prow in sorted(self.rows, key=lambda pr: pr[0], reverse=True):
            acc = 0
            for l2, c2 in prow.items():
                if l2 != pl and l2 in x:
                    acc += c2 * x[l2]
            if acc:
                p = prow[pl]
                g = gcd(acc, p)
                a = abs(p) // g
                if a != 1:
                    x = {k: a * c for k, c in x.items()}
                x[pl] = -acc // g if p > 0 else acc // g
        return x


# ------------------------------------------------------------------ matrices

Matrix = list  # list[list[FieldElem]]


def invert_matrix(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination on [m | 1], first non-zero
    pivot per column; raises SingularMatrixError when rank-deficient."""
    n = len(m)
    rows = [list(r) + [ONE if i == j else ZERO for j in range(n)]
            for i, r in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if not rows[i][col].is_zero()), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col].invert()
        prow = rows[col] = [x * inv for x in rows[col]]
        for k in range(n):
            f = rows[k][col]
            if k != col and not f.is_zero():
                rows[k] = [x if p.is_zero() else x - f * p
                           for x, p in zip(rows[k], prow)]
    return [row[n:] for row in rows]


def gram_orthogonalize(scp, ortho: list, rest: list) -> list:
    """Partial Gram-Schmidt: return rest with their projections onto the
    pairwise-orthogonal set ortho subtracted (scp is the bilinear form).
    The outputs are orthogonal to every element of ortho; they are not
    orthogonalized among themselves."""
    norms = [scp(o, o) for o in ortho]
    out = []
    for v in rest:
        u = v
        for o, nn in zip(ortho, norms):
            c = scp(o, u)
            if not c.is_zero():
                u = u - o.scaled(c / nn)
        out.append(u)
    return out
