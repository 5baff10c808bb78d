"""Root-system data and weight combinatorics for the simple Lie algebras A-G.

Conventions used throughout: the Cartan matrix is A_ji = 2 a^j.a^i / (a^i)^2,
so its rows are the Dynkin coordinates of the simple roots; weights live in
the fundamental-weight basis (Dynkin labels); a weight of an irrep with
highest weight L is L - q.A for a descent vector q of non-negative integers,
and its level is sum(q).  Roots are coefficient vectors over the simple
roots, derived from the Cartan matrix.  Everything here is integer
arithmetic; the module depends on no other part of the package.

The weight system is generated, not searched.  Multiplicities are
constant on Weyl orbits, and every dominant weight mu <= L is a weight of
the irrep L (Humphreys, section 21.3) reached from L by subtracting
positive roots through dominant weights only (Stembridge, "The partial
order of dominant weights", 1998).  So Freudenthal's formula runs only at
those few dominant weights, highest first, and each one's Weyl orbit is
then generated as a tree of simple reflections, with no membership test
and no duplicate (see _freudenthal_cached).

Weights are keyed by packed ints.  The level and the descent vector q of a
weight are packed into one non-negative int, level 2^(B n) +
sum_i q_i 2^(B (n-1-i)), so q_0 sits in the highest descent field and
integer order is the listing order: by level, then lexicographically by
descent vector.  A step down by a_i adds Q_i = 2^(B n) + 2^(B (n-1-i)),
the weight lam - r of a positive root r has the key k + r.Q, and the
simple reflection s_i lam has the key k + lam_i Q_i.  Every descent
coordinate is at most top = level_vector.L, the level of the lowest
weight, and B is chosen with 2^(B-1) > top + max(theta), theta the
highest root: a key k minus the key of a positive root r is then the key
of lam + r when no descent field borrows.  When one does, the highest
borrowing field ends above top, or the difference is negative, so it is
no weight's key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import add, mul, sub

__all__ = [
    "ConsistencyError",
    "LieAlgebra",
    "WeightRecord",
    "cartan",
    "root_weights",
    "positive_roots",
    "highest_root",
    "lowest_root_label",
    "adjoint_hw",
    "level_vector",
    "complete_descent",
    "freudenthal",
    "weyl_dim",
]

_FAMILIES = {"A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2"}
_FIXED_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


class ConsistencyError(RuntimeError):
    """Exact arithmetic produced something impossible (bad data upstream)."""


@dataclass(frozen=True)
class LieAlgebra:
    """A simple Lie algebra, named by family and rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        fixed = _FIXED_RANK.get(self.family)
        if fixed is not None:
            if self.rank != fixed:
                raise ValueError(f"{self.family} has rank {fixed}, not {self.rank}")
        elif not isinstance(self.rank, int) or self.rank < _MIN_RANK[self.family]:
            raise ValueError(
                f"family {self.family} needs integer rank >= {_MIN_RANK[self.family]}"
            )

    @classmethod
    def su(cls, n):
        if n < 2:
            raise ValueError("SU(n) needs n >= 2")
        return cls("A", n - 1)

    @classmethod
    def so(cls, n):
        if n >= 5 and n % 2 == 1:
            return cls("B", (n - 1) // 2)
        if n >= 6 and n % 2 == 0:
            return cls("D", n // 2)
        raise ValueError("SO(n) needs odd n >= 5 or even n >= 6")

    @classmethod
    def sp(cls, n):
        # argument is the defining dimension 2n
        if n < 4 or n % 2 != 0:
            raise ValueError("SP(n) needs even n >= 4")
        return cls("C", n // 2)

    @property
    def name(self):
        if self.family == "A":
            return f"SU({self.rank + 1})"
        if self.family == "B":
            return f"SO({2 * self.rank + 1})"
        if self.family == "C":
            return f"SP({2 * self.rank})"
        if self.family == "D":
            return f"SO({2 * self.rank})"
        return self.family


@dataclass(frozen=True, slots=True)
class WeightRecord:
    """One weight of an irrep: level, descent vector, Dynkin labels,
    multiplicity (0 until computed) and the Dynkin coefficient along the
    lowest root."""

    level: int
    descent: tuple
    dynkin: tuple
    degeneracy: int
    lowest_root_label: int


def _check_hw(la, hw):
    hw = tuple(hw)
    if len(hw) != la.rank:
        raise ValueError(f"{la.name} needs {la.rank} Dynkin labels, got {len(hw)}")
    # bool is an int subclass: (True, False) would share the lru_cache
    # entries of (1, 0) and leave bools in their records
    if any(type(c) is not int or c < 0 for c in hw):
        raise ValueError(f"highest weight must be non-negative integers: {hw}")
    return hw


@lru_cache(maxsize=None)
def cartan(la: LieAlgebra):
    """Cartan matrix as a tuple of row tuples."""
    n = la.rank
    fam = la.family
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, down=-1, up=-1):
        A[i][j] = down
        A[j][i] = up

    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            link(i, i + 1)
        if fam == "B" and n >= 2:
            A[n - 2][n - 1] = -2
        if fam == "C" and n >= 2:
            A[n - 1][n - 2] = -2
    elif fam == "D":
        for i in range(n - 3):
            link(i, i + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
    elif fam in ("E6", "E7", "E8"):
        for i in range(n - 2):
            link(i, i + 1)
        link(2, n - 1)
    elif fam == "F4":
        return ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    else:  # G2
        return ((2, -1), (-3, 2))
    return tuple(tuple(row) for row in A)


@lru_cache(maxsize=None)
def root_weights(la: LieAlgebra):
    """Squared lengths of the simple roots, short ones normalized to 1.

    A_ji / A_ij = (a^j)^2 / (a^i)^2 for linked nodes i, j, so the lengths
    spread from node 0 along the Dynkin diagram.  Starting from 6 every step
    divides exactly: a diagram has at most one multiple bond, of ratio 2 or
    3."""
    A = cartan(la)
    w = [6] + [0] * (la.rank - 1)
    todo = [0]
    for i in todo:
        for j, a in enumerate(A[i]):
            if a and not w[j]:
                w[j] = w[i] * A[j][i] // a
                todo.append(j)
    m = min(w)
    return tuple(x // m for x in w)


@lru_cache(maxsize=None)
def positive_roots(la: LieAlgebra):
    """All positive roots as simple-root coefficient tuples, sorted by
    height then lexicographically.

    Grown height by height from the simple roots by root-string closure:
    r + a_i is a root iff q - <r, a_i> > 0, where q is the length of the
    a_i-string below r (those roots are lower, hence already found) and
    <r, a_i> = sum_j r_j A_ji is the Dynkin label of r.
    """
    A = cartan(la)
    n = la.rank
    roots = set()
    layer = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    while layer:
        roots |= layer
        nxt = set()
        for r in layer:
            for i in range(n):
                q = 0
                down = list(r)
                down[i] -= 1
                while tuple(down) in roots:
                    q += 1
                    down[i] -= 1
                if q - sum(r[j] * A[j][i] for j in range(n)) > 0:
                    up = list(r)
                    up[i] += 1
                    nxt.add(tuple(up))
        layer = nxt
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


@lru_cache(maxsize=None)
def highest_root(la: LieAlgebra):
    """The unique positive root of maximal height."""
    roots = positive_roots(la)
    top = roots[-1]
    if len(roots) > 1 and sum(roots[-2]) == sum(top):
        raise ConsistencyError(f"{la.name}: highest root is not unique")
    return top


@lru_cache(maxsize=None)
def _lowest_root_coeffs(la: LieAlgebra):
    # l0(w) = sum_i c_i w_i with c_i = -theta_i * w_i / (theta)^2; the highest
    # root is always long, so the denominator is max(root_weights).
    theta = highest_root(la)
    w = root_weights(la)
    long2 = max(w)
    coeffs = []
    for t, wi in zip(theta, w):
        num = -t * wi
        if num % long2:
            raise ConsistencyError(f"{la.name}: non-integral lowest-root label")
        coeffs.append(num // long2)
    return tuple(coeffs)


def lowest_root_label(la: LieAlgebra, w) -> int:
    """Dynkin coefficient of the weight w along the lowest root."""
    w = tuple(w)
    if len(w) != la.rank:
        raise ValueError(f"{la.name} needs {la.rank} Dynkin labels")
    return sum(c * x for c, x in zip(_lowest_root_coeffs(la), w))


@lru_cache(maxsize=None)
def adjoint_hw(la: LieAlgebra):
    """Dynkin labels of the highest root."""
    theta = highest_root(la)
    A = cartan(la)
    n = la.rank
    return tuple(sum(theta[i] * A[i][j] for i in range(n)) for j in range(n))


@lru_cache(maxsize=None)
def level_vector(la: LieAlgebra):
    """R with R.L = level of the lowest weight of the irrep L, for every L.

    R.L = <L, 2 rho^v> and 2 rho^v is the sum of the positive coroots, so
    R_i sums the coefficient of the simple coroot a_i^v in each a^v.  For
    a = sum k_j a_j with Dynkin labels d that coefficient is
    2 k_i w_i / sum_j k_j d_j w_j, w the squared root lengths.
    """
    A = cartan(la)
    w = root_weights(la)
    n = la.rank
    R = [0] * n
    for r in positive_roots(la):
        norm2 = sum(r[j] * w[j] * sum(r[k] * A[k][j] for k in range(n))
                    for j in range(n))
        for i in range(n):
            c, rem = divmod(2 * r[i] * w[i], norm2)
            if rem:
                raise ConsistencyError(f"{la.name}: non-integral coroot {r}")
            R[i] += c
    return tuple(R)


def complete_descent(la: LieAlgebra, hw):
    """All weights of the irrep, level by level, multiplicities left at 0.

    Within a level the weights are sorted by descent vector (ascending
    lexicographically); this fixes the listing order everywhere else.
    """
    return [
        WeightRecord(r.level, r.descent, r.dynkin, 0, r.lowest_root_label)
        for r in _freudenthal_cached(la, _check_hw(la, hw))
    ]


def freudenthal(la: LieAlgebra, hw):
    """Weights with multiplicities, in the complete_descent order.

    Freudenthal's recursion runs only at the dominant weights, in order of
    level.  Every weight above a dominant weight mu has a dominant
    conjugate strictly above mu, so when mu is reached the orbits walked
    so far hold every multiplicity its sum reads.  Each orbit then takes
    its dominant weight's multiplicity.
    """
    return list(_freudenthal_cached(la, _check_hw(la, hw)))


@lru_cache(maxsize=None)
def _freudenthal_cached(la, hw):
    """The records of freudenthal, in four steps: find the dominant weights,
    give each its multiplicity in key order, generate its Weyl orbit, and
    sort all weights once by key."""
    A = cartan(la)
    n = la.rank
    w = root_weights(la)
    # the level above n B-bit descent fields, q_0 the highest of them (see
    # the module docstring for the width)
    top = sum(map(mul, level_vector(la), hw))
    B = (top + max(highest_root(la))).bit_length() + 1
    shifts = [B * (n - 1 - i) for i in range(n)]
    lev_shift = B * n
    Q = [(1 << lev_shift) | (1 << s) for s in shifts]
    mask = (1 << B) - 1

    # per positive root r: its key, r_j w_j, and 2(r, r) that steps 2(mu, r)
    rkeys = []
    rsteps = []
    for r in positive_roots(la):
        rw = tuple(map(mul, r, w))
        rdyn = tuple(sum(r[i] * A[i][j] for i in range(n)) for j in range(n))
        off = sum(map(mul, r, Q))
        rkeys.append((off, rw, 2 * sum(map(mul, rw, rdyn))))
        rsteps.append((off, rdyn))

    # the dominant weights: hw less positive roots while no label turns
    # negative
    dominant = {0: hw}  # key -> labels
    todo = [0]
    for k in todo:
        lam = dominant[k]
        for off, rdyn in rsteps:
            mu = tuple(map(sub, lam, rdyn))
            if min(mu) >= 0 and k + off not in dominant:
                dominant[k + off] = mu
                todo.append(k + off)

    coeffs = _lowest_root_coeffs(la)
    drop = [sum(map(mul, coeffs, row)) for row in A]  # lowest-root label of a_i
    # the reflections that may give a child of a weight whose first
    # negative label is f (f = n: dominant): every i < f, and an i > f only
    # when linked to f, since s_i leaves label f negative unless A_if < 0
    tries = [list(range(f)) + [i for i in range(f + 1, n) if A[i][f]]
             for f in range(n + 1)]
    scaled = [[(0,) * n] for _ in range(n)]  # scaled[i][c] = c a_i, as needed
    found = {}  # key -> record
    for k in sorted(dominant):  # by level, then descent vector
        lam = dominant[k]
        q = tuple([(k >> s) & mask for s in shifts])
        if k:
            m = _dominant_mult(la, hw, lam, q, k, rkeys, found)
            if m <= 0:
                raise ConsistencyError(
                    f"{la.name} irrep {hw}: dominant weight {lam} has "
                    f"multiplicity {m}"
                )
        else:
            m = 1
        # the orbit as a tree: the parent of a weight is its reflection at
        # its first negative label, so s_i mu is a child of mu iff mu_i > 0
        # and no label before i is negative in s_i mu
        stack = [(lam, k, q, sum(map(mul, coeffs, lam)), n)]
        while stack:
            lam, k, q, label, first = stack.pop()
            found[k] = WeightRecord(k >> lev_shift, q, lam, m, label)
            for i in tries[first]:
                c = lam[i]
                if c > 0:
                    rows = scaled[i]
                    while len(rows) <= c:
                        rows.append(tuple(map(add, rows[-1], A[i])))
                    mu = tuple(map(sub, lam, rows[c]))
                    if i < first or min(mu[:i]) >= 0:
                        stack.append((mu, k + c * Q[i],
                                      q[:i] + (q[i] + c,) + q[i + 1:],
                                      label - c * drop[i], i))
    return tuple([found[k] for k in sorted(found)])


def _dominant_mult(la, hw, lam, q, k, rkeys, found):
    """Freudenthal's sum at the dominant weight lam (descent q, key k) over
    the weights mu = lam + t r above it, whose records found holds by key."""
    w = root_weights(la)
    lhs = 0
    for j, qj in enumerate(q):
        if qj:
            lhs += qj * w[j] * (hw[j] + lam[j] + 2)
    rhs = 0
    for off, rw, step in rkeys:
        mu = k - off
        if mu in found:
            c = 2 * sum(map(mul, rw, lam)) + step  # 2(mu, r) at mu = lam + r
            while mu in found:
                rhs += found[mu].degeneracy * c
                mu -= off
                c += step
    if lhs <= 0:
        raise ConsistencyError(
            f"{la.name} irrep {hw}: non-positive Freudenthal factor at {lam}"
        )
    m, remainder = divmod(rhs, lhs)
    if remainder:
        raise ConsistencyError(
            f"{la.name} irrep {hw}: non-integral multiplicity at {lam}"
        )
    return m


def weyl_dim(la: LieAlgebra, hw) -> int:
    """Dimension of the irrep with the given highest weight."""
    hw = _check_hw(la, hw)
    w = root_weights(la)
    n = la.rank
    numer = 1
    denom = 1
    for r in positive_roots(la):
        num = 0
        den = 0
        for j in range(n):
            if r[j]:
                kw = r[j] * w[j]
                num += hw[j] * kw
                den += kw
        numer *= num + den
        denom *= den
    dim, rem = divmod(numer, denom)
    if rem:
        g = gcd(numer, denom)
        raise ConsistencyError(
            f"non-integral Weyl dimension {numer // g}/{denom // g} for {hw}"
        )
    return dim
