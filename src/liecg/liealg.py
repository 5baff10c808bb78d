"""Root-system data and weight combinatorics for the simple Lie algebras A-G.

Conventions used throughout: the Cartan matrix is A_ji = 2 a^j.a^i / (a^i)^2,
so its rows are the Dynkin coordinates of the simple roots; weights live in
the fundamental-weight basis (Dynkin labels); a weight of an irrep with
highest weight L is L - q.A for a descent vector q of non-negative integers,
and its level is sum(q).  Roots are coefficient vectors over the simple
roots, derived from the Cartan matrix.  Everything here is integer
arithmetic (a Fraction only inside the Weyl dimension product); the module
depends on no other part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

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


@dataclass(frozen=True)
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
    if any(not isinstance(c, int) or c < 0 for c in hw):
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
    """Squared lengths of the simple roots, short ones normalized to 1."""
    n = la.rank
    fam = la.family
    if fam == "B":
        return (2,) * (n - 1) + (1,)
    if fam == "C":
        return (1,) * (n - 1) + (2,)
    if fam == "F4":
        return (1, 1, 2, 2)
    if fam == "G2":
        return (1, 3)
    return (1,) * n


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
    return list(_descent_cached(la, _check_hw(la, hw)))


@lru_cache(maxsize=None)
def _descent_cached(la, hw):
    A = cartan(la)
    n = la.rank
    rows = [tuple(r) for r in A]
    found = {hw: (0,) * n}  # dynkin -> descent vector
    levels = [[hw]]
    current = [hw]
    while current:
        nxt = []
        for lam in current:
            q = found[lam]
            for i in range(n):
                row = rows[i]
                # p = length of the raising string above lam in direction i;
                # everything above is at a lower level, hence already found
                p = 0
                up = tuple(lam[j] + row[j] for j in range(n))
                while up in found:
                    p += 1
                    up = tuple(up[j] + row[j] for j in range(n))
                if p + lam[i] >= 1:
                    child = tuple(lam[j] - row[j] for j in range(n))
                    if child not in found:
                        cq = list(q)
                        cq[i] += 1
                        found[child] = tuple(cq)
                        nxt.append(child)
        if nxt:
            levels.append(nxt)
        current = nxt
    coeffs = _lowest_root_coeffs(la)
    records = []
    for lev, lams in enumerate(levels):
        lams.sort(key=found.__getitem__)
        for lam in lams:
            records.append(
                WeightRecord(
                    level=lev,
                    descent=found[lam],
                    dynkin=lam,
                    degeneracy=0,
                    lowest_root_label=sum(c * x for c, x in zip(coeffs, lam)),
                )
            )
    return tuple(records)


def freudenthal(la: LieAlgebra, hw):
    """Weights with multiplicities, in the complete_descent order.

    Freudenthal's recursion runs only at dominant weights.  Multiplicities
    are constant on Weyl orbits, so a weight lam with a label lam_i < 0
    takes the multiplicity of its simple reflection s_i lam = lam - lam_i a_i,
    which lies -lam_i levels higher and is therefore already known.
    """
    return list(_freudenthal_cached(la, _check_hw(la, hw)))


@lru_cache(maxsize=None)
def _freudenthal_cached(la, hw):
    recs = _descent_cached(la, hw)
    A = cartan(la)
    n = la.rank
    w = root_weights(la)
    roots = positive_roots(la)
    # Dynkin coordinates of each positive root
    shifts = [
        tuple(sum(r[i] * A[i][j] for i in range(n)) for j in range(n)) for r in roots
    ]
    mult = {}
    out = []
    for rec in recs:
        lam = rec.dynkin
        i = next((i for i in range(n) if lam[i] < 0), None)
        if i is not None:
            m = mult[tuple(lam[j] - lam[i] * A[i][j] for j in range(n))]
        elif rec.level == 0:
            m = 1
        else:
            q = rec.descent
            lhs = 0
            for j in range(n):
                if q[j]:
                    lhs += q[j] * w[j] * (hw[j] + lam[j] + 2)
            rhs = 0
            for r, s in zip(roots, shifts):
                mu = tuple(lam[j] + s[j] for j in range(n))
                while mu in mult:
                    # contribution 2*(mu, root) in Dynkin terms
                    rhs += mult[mu] * 2 * sum(
                        r[j] * w[j] * mu[j] for j in range(n) if r[j]
                    )
                    mu = tuple(mu[j] + s[j] for j in range(n))
            if lhs <= 0:
                raise ConsistencyError(
                    f"{la.name} irrep {hw}: non-positive Freudenthal factor "
                    f"at {lam}"
                )
            m, remainder = divmod(rhs, lhs)
            if remainder:
                raise ConsistencyError(
                    f"{la.name} irrep {hw}: non-integral multiplicity at {lam}"
                )
        mult[lam] = m
        out.append(replace(rec, degeneracy=m))
    return tuple(out)


def weyl_dim(la: LieAlgebra, hw) -> int:
    """Dimension of the irrep with the given highest weight."""
    hw = _check_hw(la, hw)
    w = root_weights(la)
    n = la.rank
    dim = Fraction(1)
    for r in positive_roots(la):
        num = 0
        den = 0
        for j in range(n):
            if r[j]:
                kw = r[j] * w[j]
                num += hw[j] * kw
                den += kw
        dim *= Fraction(num, den) + 1
    if dim.denominator != 1:
        raise ConsistencyError(f"non-integral Weyl dimension {dim} for {hw}")
    return int(dim)
