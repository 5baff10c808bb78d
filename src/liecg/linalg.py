"""Sparse labeled vectors and exact dense linear algebra over the field.

Vectors are sparse linear combinations of opaque labels (ints, label pairs,
nested tuples); zero coefficients are dropped and terms are kept sorted by a
total order on labels so that all listings are deterministic.  Matrices are
dense lists of FieldElem rows; elimination uses exact division, so ranks and
solution spaces are exact.

_Reducer is the incremental elimination over the rationals that the irrep
builder and the tensor-product descent, search and prepare share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exactnum import ONE, ZERO, FieldElem

__all__ = [
    "LabeledVector",
    "NoSolutionError",
    "SingularMatrixError",
    "label_key",
    "gauss",
    "solve",
    "invert_matrix",
    "gram_orthogonalize",
]


class NoSolutionError(ValueError):
    """The linear system is inconsistent."""


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


class _Reducer:
    """Incremental exact rank tracker over rational vectors, eliminating
    fraction-free on primitive integer rows.

    Built with track=True, it also keeps every stored row as a combination
    of the vectors kept so far, so a dependent vector comes back with its
    coordinates in terms of them.
    """

    __slots__ = ("rows", "combs")

    def __init__(self, track=False):
        self.rows = []  # (pivot label, primitive integer row), pivot == min
        # parallel to rows when tracking: {kept index: coefficient} giving
        # the row in terms of kept vectors
        self.combs = [] if track else None

    def add(self, vec):
        """None, and remember the vector as kept vector number len(rows), if
        it is independent of those kept; else its coordinates {k: c} with
        vec == sum of c times kept vector k (left empty unless tracking)."""
        row, alpha = _integral(vec)
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
        """The vector x with row.x == 0 for every stored row whose first
        free label in labels is 1 and whose other free labels are 0, or None
        when every label is a pivot."""
        pivots = {pl for pl, _ in self.rows}
        free = next((lab for lab in labels if lab not in pivots), None)
        if free is None:
            return None
        x = {free: 1}
        # every row lives on labels >= its pivot: solve from the last pivot
        for pl, prow in sorted(self.rows, key=lambda pr: pr[0], reverse=True):
            acc = 0
            for l2, c2 in prow.items():
                if l2 != pl and l2 in x:
                    acc += c2 * x[l2]
            if acc:
                x[pl] = Fraction(-acc) / prow[pl]
        return x


# ------------------------------------------------------------------ matrices

Matrix = list  # list[list[FieldElem]]


def gauss(m: Matrix, rhs: Matrix | None = None):
    """Row-echelon form by exact elimination, first non-zero pivot per
    column; the same row operations are applied to rhs.  Returns the pair
    (echelon, transformed rhs)."""
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    rb = [list(r) for r in rhs] if rhs is not None else [[] for _ in range(nr)]
    r = 0
    for col in range(nc):
        piv = None
        for i in range(r, nr):
            if not rows[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            rb[r], rb[piv] = rb[piv], rb[r]
        prow, prb = rows[r], rb[r]
        pval = prow[col]
        for k in range(r + 1, nr):
            kval = rows[k][col]
            if kval.is_zero():
                continue
            f = kval / pval
            krow = rows[k]
            for j in range(col, nc):
                if not prow[j].is_zero():
                    krow[j] = krow[j] - f * prow[j]
            krb = rb[k]
            for j in range(len(krb)):
                if not prb[j].is_zero():
                    krb[j] = krb[j] - f * prb[j]
        r += 1
        if r == nr:
            break
    return rows, rb


def _pivot_col(row) -> int | None:
    for j, v in enumerate(row):
        if not v.is_zero():
            return j
    return None


def solve(echelon: Matrix, rhs_col: list) -> list:
    """Back-substitute an echelon system (as returned by gauss); free
    variables are set to zero.  Raises NoSolutionError when inconsistent."""
    nr = len(echelon)
    nc = len(echelon[0]) if nr else 0
    x = [ZERO] * nc
    for i in range(nr - 1, -1, -1):
        p = _pivot_col(echelon[i])
        if p is None:
            if not rhs_col[i].is_zero():
                raise NoSolutionError("inconsistent system")
            continue
        acc = rhs_col[i]
        row = echelon[i]
        for j in range(p + 1, nc):
            if not row[j].is_zero() and not x[j].is_zero():
                acc = acc - row[j] * x[j]
        x[p] = acc / row[p]
    return x


def invert_matrix(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError when rank-deficient."""
    n = len(m)
    ident = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    ech, rb = gauss(m, ident)
    if any(_pivot_col(row) != i for i, row in enumerate(ech)):
        raise SingularMatrixError("matrix is singular")
    cols = []
    for j in range(n):
        cols.append(solve(ech, [rb[i][j] for i in range(n)]))
    # cols[j] is the j-th column of the inverse
    return [[cols[j][i] for j in range(n)] for i in range(n)]


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
