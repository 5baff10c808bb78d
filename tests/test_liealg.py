"""Root data and weight machinery, checked against an independent
root-string-closure oracle, an independent matrix inverse, a weight-set
oracle built from that inverse and the Weyl reflections, and frozen
reference listings."""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecg import liealg
from liecg.liealg import (
    ConsistencyError,
    LieAlgebra,
    adjoint_hw,
    cartan,
    complete_descent,
    freudenthal,
    highest_root,
    level_vector,
    lowest_root_label,
    positive_roots,
    root_weights,
    weyl_dim,
)

ALL_SMALL = [
    LieAlgebra("A", 1),
    LieAlgebra("A", 2),
    LieAlgebra("A", 3),
    LieAlgebra("A", 4),
    LieAlgebra("B", 2),
    LieAlgebra("B", 3),
    LieAlgebra("B", 4),
    LieAlgebra("C", 2),
    LieAlgebra("C", 3),
    LieAlgebra("C", 4),
    LieAlgebra("D", 3),
    LieAlgebra("D", 4),
    LieAlgebra("D", 5),
    LieAlgebra("F4", 4),
    LieAlgebra("G2", 2),
]
EXCEPTIONAL = [
    LieAlgebra("E6", 6),
    LieAlgebra("E7", 7),
    LieAlgebra("E8", 8),
    LieAlgebra("F4", 4),
    LieAlgebra("G2", 2),
]
# past the ranks of ALL_SMALL, where per-family patterns are fully developed
LARGE = [
    LieAlgebra("A", 7),
    LieAlgebra("B", 6),
    LieAlgebra("C", 5),
    LieAlgebra("D", 8),
]


def oracle_positive_roots(A):
    """Positive roots from the Cartan matrix alone, by growing root strings
    to a fixpoint.  Independent of the package's formula/table approach."""
    rank = len(A)
    roots = {tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)}
    grew = True
    while grew:
        grew = False
        for beta in list(roots):
            for i in range(rank):
                down = list(beta)
                hits = 0
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in roots:
                        break
                    hits += 1
                room = hits - sum(beta[j] * A[j][i] for j in range(rank))
                if room >= 1:
                    up = list(beta)
                    up[i] += 1
                    up = tuple(up)
                    if up not in roots:
                        roots.add(up)
                        grew = True
    return roots


def oracle_inverse(A):
    """Gauss-Jordan over Fraction, independent of the package linalg."""
    n = len(A)
    m = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv_p = 1 / m[col][col]
        m[col] = [x * inv_p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def test_cartan_frozen():
    assert cartan(LieAlgebra("A", 2)) == ((2, -1), (-1, 2))
    assert cartan(LieAlgebra("G2", 2)) == ((2, -1), (-3, 2))
    assert cartan(LieAlgebra("B", 2)) == ((2, -2), (-1, 2))
    b3 = cartan(LieAlgebra("B", 3))
    assert b3[1] == (-1, 2, -2) and b3[2] == (0, -1, 2)
    c3 = cartan(LieAlgebra("C", 3))
    assert c3[1] == (-1, 2, -1) and c3[2] == (0, -2, 2)
    assert cartan(LieAlgebra("F4", 4)) == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )
    e6 = cartan(LieAlgebra("E6", 6))
    # chain 1-2-3-4-5 with node 6 attached to node 3
    assert e6[2] == (0, -1, 2, -1, 0, -1)
    assert e6[5] == (0, 0, -1, 0, 0, 2)
    d4 = cartan(LieAlgebra("D", 4))
    assert d4[1] == (-1, 2, -1, -1) and d4[2] == (0, -1, 2, 0)


def root_weights_table(la):
    """Squared simple-root lengths by family, short ones 1: the hand table
    root_weights held before it derived them from the Cartan matrix."""
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


@pytest.mark.parametrize(
    "la",
    [LieAlgebra("A", n) for n in range(1, 11)]
    + [LieAlgebra(f, n) for f in "BC" for n in range(2, 11)]
    + [LieAlgebra("D", n) for n in range(3, 11)]
    + EXCEPTIONAL,
    ids=lambda la: f"{la.family[0]}{la.rank}",
)
def test_root_weights_match_table(la):
    assert root_weights(la) == root_weights_table(la)


@pytest.mark.parametrize("la", ALL_SMALL + EXCEPTIONAL)
def test_cartan_symmetrizable(la):
    A = cartan(la)
    w = root_weights(la)
    for i in range(la.rank):
        for j in range(la.rank):
            assert A[j][i] * w[i] == A[i][j] * w[j]


@pytest.mark.parametrize("la", ALL_SMALL + EXCEPTIONAL + LARGE)
def test_positive_roots_match_closure_oracle(la):
    got = set(positive_roots(la))
    want = oracle_positive_roots([list(r) for r in cartan(la)])
    assert got == want
    assert len(positive_roots(la)) == len(got)  # no duplicates in the tuple


def frozen_root_count(la):
    """Number of positive roots from the classification tables."""
    n = la.rank
    return {
        "A": n * (n + 1) // 2,
        "B": n * n,
        "C": n * n,
        "D": n * (n - 1),
        "E6": 36,
        "E7": 63,
        "E8": 120,
        "F4": 24,
        "G2": 6,
    }[la.family]


@pytest.mark.parametrize("la", ALL_SMALL + EXCEPTIONAL + LARGE)
def test_positive_root_count_frozen(la):
    assert len(positive_roots(la)) == frozen_root_count(la)


@pytest.mark.parametrize("la", ALL_SMALL + EXCEPTIONAL + LARGE)
def test_positive_roots_sorted_by_height_then_lex(la):
    roots = positive_roots(la)
    keys = [(sum(r), r) for r in roots]
    assert keys == sorted(keys)
    assert len(set(roots)) == len(roots)


@pytest.mark.parametrize("la", ALL_SMALL + EXCEPTIONAL)
def test_root_count_vs_adjoint_dim(la):
    dim_adj = weyl_dim(la, adjoint_hw(la))
    assert len(positive_roots(la)) * 2 + la.rank == dim_adj


def test_adjoint_hw_frozen():
    assert adjoint_hw(LieAlgebra("A", 1)) == (2,)
    assert adjoint_hw(LieAlgebra("A", 2)) == (1, 1)
    assert adjoint_hw(LieAlgebra("A", 3)) == (1, 0, 1)
    assert adjoint_hw(LieAlgebra("B", 2)) == (0, 2)
    assert adjoint_hw(LieAlgebra("B", 3)) == (0, 1, 0)
    assert adjoint_hw(LieAlgebra("C", 3)) == (2, 0, 0)
    assert adjoint_hw(LieAlgebra("D", 4)) == (0, 1, 0, 0)
    assert adjoint_hw(LieAlgebra("E6", 6)) == (0, 0, 0, 0, 0, 1)
    assert adjoint_hw(LieAlgebra("E7", 7)) == (1, 0, 0, 0, 0, 0, 0)
    assert adjoint_hw(LieAlgebra("E8", 8)) == (0, 0, 0, 0, 0, 0, 1, 0)
    assert adjoint_hw(LieAlgebra("F4", 4)) == (0, 0, 0, 1)
    assert adjoint_hw(LieAlgebra("G2", 2)) == (0, 1)


def test_lowest_root_label_frozen():
    assert lowest_root_label(LieAlgebra("A", 2), (1, 1)) == -2
    assert lowest_root_label(LieAlgebra("E6", 6), (1, 0, 0, 0, 0, 0)) == -1
    assert lowest_root_label(LieAlgebra("G2", 2), (0, 1)) == -2
    assert lowest_root_label(LieAlgebra("G2", 2), (1, 0)) == -1
    f4 = LieAlgebra("F4", 4)
    for w in [(1, 0, 0, 0), (0, 1, 0, 0), (1, 2, 0, 3), (2, -1, 1, 0)]:
        assert lowest_root_label(f4, w) == -w[0] - 2 * w[1] - 3 * w[2] - 2 * w[3]


@pytest.mark.parametrize("la", ALL_SMALL + EXCEPTIONAL)
def test_lowest_root_label_of_highest_root_is_minus_two(la):
    # l0(theta) = 2 a0.theta/(a0)^2 = -2 since a0 = -theta
    assert lowest_root_label(la, adjoint_hw(la)) == -2


# (level, descent, dynkin, degeneracy, l0) for the SU(3) adjoint
SU3_OCTET = [
    (0, (0, 0), (1, 1), 1, -2),
    (1, (0, 1), (2, -1), 1, -1),
    (1, (1, 0), (-1, 2), 1, -1),
    (2, (1, 1), (0, 0), 2, 0),
    (3, (1, 2), (1, -2), 1, 1),
    (3, (2, 1), (-2, 1), 1, 1),
    (4, (2, 2), (-1, -1), 1, 2),
]


def test_su3_octet_listing_frozen():
    recs = freudenthal(LieAlgebra("A", 2), (1, 1))
    got = [(r.level, r.descent, r.dynkin, r.degeneracy, r.lowest_root_label) for r in recs]
    assert got == SU3_OCTET


# (level, dynkin, l0, descent) for the 27 of E6, all degeneracies 1
E6_27 = [
    (0, (1, 0, 0, 0, 0, 0), -1, (0, 0, 0, 0, 0, 0)),
    (1, (-1, 1, 0, 0, 0, 0), -1, (1, 0, 0, 0, 0, 0)),
    (2, (0, -1, 1, 0, 0, 0), -1, (1, 1, 0, 0, 0, 0)),
    (3, (0, 0, -1, 1, 0, 1), -1, (1, 1, 1, 0, 0, 0)),
    (4, (0, 0, 0, 1, 0, -1), 0, (1, 1, 1, 0, 0, 1)),
    (4, (0, 0, 0, -1, 1, 1), -1, (1, 1, 1, 1, 0, 0)),
    (5, (0, 0, 1, -1, 1, -1), 0, (1, 1, 1, 1, 0, 1)),
    (5, (0, 0, 0, 0, -1, 1), -1, (1, 1, 1, 1, 1, 0)),
    (6, (0, 0, 1, 0, -1, -1), 0, (1, 1, 1, 1, 1, 1)),
    (6, (0, 1, -1, 0, 1, 0), 0, (1, 1, 2, 1, 0, 1)),
    (7, (0, 1, -1, 1, -1, 0), 0, (1, 1, 2, 1, 1, 1)),
    (7, (1, -1, 0, 0, 1, 0), 0, (1, 2, 2, 1, 0, 1)),
    (8, (0, 1, 0, -1, 0, 0), 0, (1, 1, 2, 2, 1, 1)),
    (8, (1, -1, 0, 1, -1, 0), 0, (1, 2, 2, 1, 1, 1)),
    (8, (-1, 0, 0, 0, 1, 0), 0, (2, 2, 2, 1, 0, 1)),
    (9, (1, -1, 1, -1, 0, 0), 0, (1, 2, 2, 2, 1, 1)),
    (9, (-1, 0, 0, 1, -1, 0), 0, (2, 2, 2, 1, 1, 1)),
    (10, (1, 0, -1, 0, 0, 1), 0, (1, 2, 3, 2, 1, 1)),
    (10, (-1, 0, 1, -1, 0, 0), 0, (2, 2, 2, 2, 1, 1)),
    (11, (1, 0, 0, 0, 0, -1), 1, (1, 2, 3, 2, 1, 2)),
    (11, (-1, 1, -1, 0, 0, 1), 0, (2, 2, 3, 2, 1, 1)),
    (12, (-1, 1, 0, 0, 0, -1), 1, (2, 2, 3, 2, 1, 2)),
    (12, (0, -1, 0, 0, 0, 1), 0, (2, 3, 3, 2, 1, 1)),
    (13, (0, -1, 1, 0, 0, -1), 1, (2, 3, 3, 2, 1, 2)),
    (14, (0, 0, -1, 1, 0, 0), 1, (2, 3, 4, 2, 1, 2)),
    (15, (0, 0, 0, -1, 1, 0), 1, (2, 3, 4, 3, 1, 2)),
    (16, (0, 0, 0, 0, -1, 0), 1, (2, 3, 4, 3, 2, 2)),
]


def test_e6_27_listing_frozen():
    recs = freudenthal(LieAlgebra("E6", 6), (1, 0, 0, 0, 0, 0))
    assert len(recs) == 27
    got = [(r.level, r.dynkin, r.lowest_root_label, r.descent) for r in recs]
    assert got == E6_27
    assert all(r.degeneracy == 1 for r in recs)


WEYL_DIMS = [
    ("A", 2, (1, 0), 3),
    ("A", 2, (1, 1), 8),
    ("A", 2, (3, 0), 10),
    ("A", 2, (2, 2), 27),
    ("A", 3, (1, 0, 0), 4),
    ("A", 3, (0, 1, 0), 6),
    ("A", 3, (1, 0, 1), 15),
    ("A", 3, (2, 0, 0), 10),
    ("B", 2, (1, 0), 5),
    ("B", 2, (0, 1), 4),
    ("B", 2, (0, 2), 10),
    ("B", 2, (1, 1), 16),
    ("C", 2, (2, 0), 10),
    ("D", 4, (1, 0, 0, 0), 8),
    ("D", 4, (0, 1, 0, 0), 28),
    ("G2", 2, (1, 0), 7),
    ("G2", 2, (0, 1), 14),
    ("F4", 4, (1, 0, 0, 0), 26),
    ("F4", 4, (0, 0, 1, 0), 1274),
    ("F4", 4, (0, 0, 0, 1), 52),
    ("E6", 6, (1, 0, 0, 0, 0, 0), 27),
    ("E6", 6, (0, 0, 0, 0, 0, 1), 78),
    ("E6", 6, (1, 0, 0, 0, 1, 0), 650),
    ("E6", 6, (0, 1, 0, 0, 0, 0), 351),
    ("E7", 7, (0, 0, 0, 0, 0, 1, 0), 56),
    ("E7", 7, (1, 0, 0, 0, 0, 0, 0), 133),
    ("E8", 8, (1, 0, 0, 0, 0, 0, 0, 0), 3875),
    ("E8", 8, (0, 0, 0, 0, 0, 1, 0, 0), 30380),
    ("E8", 8, (0, 0, 0, 0, 0, 0, 2, 0), 27000),
]


@pytest.mark.parametrize("fam,rank,hw,dim", WEYL_DIMS)
def test_weyl_dims_frozen(fam, rank, hw, dim):
    assert weyl_dim(LieAlgebra(fam, rank), hw) == dim


@pytest.mark.parametrize("la", ALL_SMALL)
def test_freudenthal_sum_fundamentals_and_adjoint(la):
    hws = [tuple(1 if j == i else 0 for j in range(la.rank)) for i in range(la.rank)]
    hws.append(adjoint_hw(la))
    for hw in hws:
        recs = freudenthal(la, hw)
        assert sum(r.degeneracy for r in recs) == weyl_dim(la, hw)


def test_freudenthal_degenerate_cases():
    a2 = LieAlgebra("A", 2)
    recs = freudenthal(a2, (2, 2))
    assert sum(r.degeneracy for r in recs) == 27
    assert {r.dynkin: r.degeneracy for r in recs}[(0, 0)] == 3
    a1 = LieAlgebra("A", 1)
    assert [r.degeneracy for r in freudenthal(a1, (2,))] == [1, 1, 1]
    # the 27 of E6 is minuscule: every multiplicity 1
    assert all(r.degeneracy == 1 for r in freudenthal(LieAlgebra("E6", 6), (1, 0, 0, 0, 0, 0)))


def oracle_freudenthal(la, hw):
    """Multiplicities by Freudenthal's sum over all positive roots at every
    weight, with no use of Weyl symmetry.  The roots come from
    oracle_positive_roots; only the weight list and its order are the
    package's (complete_descent, itself checked by oracle_weight_set)."""
    recs = complete_descent(la, hw)
    A = cartan(la)
    n = la.rank
    w = root_weights(la)
    roots = sorted(oracle_positive_roots(A))
    shifts = [
        tuple(sum(r[i] * A[i][j] for i in range(n)) for j in range(n)) for r in roots
    ]
    mult = {}
    out = []
    for rec in recs:
        lam = rec.dynkin
        if rec.level == 0:
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
                    rhs += mult[mu] * 2 * sum(
                        r[j] * w[j] * mu[j] for j in range(n) if r[j]
                    )
                    mu = tuple(mu[j] + s[j] for j in range(n))
            assert lhs > 0
            m, remainder = divmod(rhs, lhs)
            assert remainder == 0
        mult[lam] = m
        out.append(replace(rec, degeneracy=m))
    return out


def _oracle_sweep(la, max_dim):
    """Fundamentals, their doubles, pairs of 1s and rho, up to max_dim."""
    n = la.rank
    hws = {(1,) * n}
    for i in range(n):
        hws.add(tuple(int(i == j) for j in range(n)))
        for k in range(i, n):
            hws.add(tuple((i == j) + (k == j) for j in range(n)))
    return sorted(hw for hw in hws if weyl_dim(la, hw) <= max_dim)


@pytest.mark.parametrize(
    "la,max_dim",
    [(la, 5000) for la in ALL_SMALL]
    + [(la, 1000) for la in LARGE + EXCEPTIONAL[:2]]
    + [(LieAlgebra("E8", 8), 500)],
)
def test_freudenthal_matches_all_weights_oracle(la, max_dim):
    hws = _oracle_sweep(la, max_dim)
    assert hws
    for hw in hws:
        assert freudenthal(la, hw) == oracle_freudenthal(la, hw), hw


# dominant weights of E8 irreps -> multiplicity, Dynkin labels as digits
E8_DOMINANT = {
    "00000010": {"00000010": 1, "00000000": 8},  # 248
    "10000000": {"10000000": 1, "00000010": 7, "00000000": 35},  # 3875
    "00000020": {  # 27000
        "00000020": 1,
        "00000100": 1,
        "10000000": 6,
        "00000010": 29,
        "00000000": 120,
    },
    "00000100": {  # 30380
        "00000100": 1,
        "10000000": 7,
        "00000010": 35,
        "00000000": 140,
    },
}


@pytest.mark.parametrize("hw", sorted(E8_DOMINANT))
def test_e8_dominant_multiplicities_frozen(hw):
    e8 = LieAlgebra("E8", 8)
    recs = freudenthal(e8, tuple(int(c) for c in hw))
    got = {
        "".join(map(str, r.dynkin)): r.degeneracy
        for r in recs
        if min(r.dynkin) >= 0
    }
    assert got == E8_DOMINANT[hw]
    assert sum(r.degeneracy for r in recs) == weyl_dim(e8, recs[0].dynkin)


def test_non_positive_dominant_multiplicity_is_refused(monkeypatch):
    # every dominant weight below the highest one is a weight, so a
    # Freudenthal sum of 0 there is an inconsistency, not an empty orbit
    monkeypatch.setattr(liealg, "_dominant_mult", lambda *args: 0)
    with pytest.raises(ConsistencyError) as exc:
        liealg._freudenthal_cached.__wrapped__(LieAlgebra("A", 2), (1, 1))
    assert str(exc.value) == (
        "SU(3) irrep (1, 1): dominant weight (0, 0) has multiplicity 0")


@pytest.mark.parametrize(
    "la",
    [
        LieAlgebra("A", 1),
        LieAlgebra("A", 2),
        LieAlgebra("A", 3),
        LieAlgebra("B", 2),
        LieAlgebra("B", 3),
        LieAlgebra("C", 3),
        LieAlgebra("D", 4),
        LieAlgebra("G2", 2),
        LieAlgebra("F4", 4),
        LieAlgebra("E6", 6),
    ],
)
def test_adjoint_weights_are_the_roots(la):
    A = cartan(la)
    n = la.rank
    recs = freudenthal(la, adjoint_hw(la))
    nonzero = {r.dynkin for r in recs if any(r.dynkin)}
    zero = [r for r in recs if not any(r.dynkin)]
    assert len(zero) == 1 and zero[0].degeneracy == la.rank
    expected = set()
    for root in positive_roots(la):
        dyn = tuple(sum(root[i] * A[i][j] for i in range(n)) for j in range(n))
        expected.add(dyn)
        expected.add(tuple(-x for x in dyn))
    assert nonzero == expected
    assert all(r.degeneracy == 1 for r in recs if any(r.dynkin))


def test_level_vector_frozen():
    assert level_vector(LieAlgebra("A", 1)) == (1,)
    assert level_vector(LieAlgebra("A", 2)) == (2, 2)
    assert level_vector(LieAlgebra("E6", 6)) == (16, 30, 42, 30, 16, 22)
    assert level_vector(LieAlgebra("G2", 2)) == (6, 10)
    assert level_vector(LieAlgebra("F4", 4)) == (16, 30, 42, 22)


@pytest.mark.parametrize("la", ALL_SMALL + [LieAlgebra("E6", 6)])
def test_level_vector_against_inverse_and_descent(la):
    inv = oracle_inverse([list(r) for r in cartan(la)])
    expect = tuple(int(2 * sum(row)) for row in inv)
    assert all((2 * sum(row)).denominator == 1 for row in inv)
    assert level_vector(la) == expect
    R = level_vector(la)
    for i in range(la.rank):
        hw = tuple(1 if j == i else 0 for j in range(la.rank))
        recs = complete_descent(la, hw)
        assert recs[-1].level == R[i]


@pytest.mark.parametrize(
    "la,hw",
    [
        (LieAlgebra("A", 2), (1, 1)),
        (LieAlgebra("A", 3), (1, 1, 0)),
        (LieAlgebra("B", 2), (1, 1)),
        (LieAlgebra("G2", 2), (0, 1)),
        (LieAlgebra("E6", 6), (1, 0, 0, 0, 0, 0)),
    ],
)
def test_descent_reconstruction_and_ordering(la, hw):
    A = cartan(la)
    n = la.rank
    recs = complete_descent(la, hw)
    seen = set()
    prev = None
    for r in recs:
        assert r.level == sum(r.descent)
        rebuilt = tuple(hw[j] - sum(r.descent[i] * A[i][j] for i in range(n)) for j in range(n))
        assert rebuilt == r.dynkin
        assert r.dynkin not in seen
        seen.add(r.dynkin)
        if prev is not None:
            assert (prev.level, prev.descent) < (r.level, r.descent)
        prev = r


@pytest.mark.parametrize(
    "la,hw",
    [
        (LieAlgebra("A", 2), (1, 1)),
        (LieAlgebra("A", 3), (1, 1, 0)),
        (LieAlgebra("B", 2), (0, 2)),
        (LieAlgebra("G2", 2), (1, 0)),
        (LieAlgebra("E6", 6), (1, 0, 0, 0, 0, 0)),
    ],
)
def test_level_histogram_symmetric(la, hw):
    recs = freudenthal(la, hw)
    top = recs[-1].level
    hist = {}
    for r in recs:
        hist[r.level] = hist.get(r.level, 0) + r.degeneracy
    for lev, count in hist.items():
        assert hist[top - lev] == count


def test_algebra_validation():
    with pytest.raises(ValueError):
        LieAlgebra("A", 0)
    with pytest.raises(ValueError):
        LieAlgebra("B", 1)
    with pytest.raises(ValueError):
        LieAlgebra("D", 2)
    with pytest.raises(ValueError):
        LieAlgebra("E6", 7)
    with pytest.raises(ValueError):
        LieAlgebra("H", 2)
    with pytest.raises(ValueError):
        LieAlgebra.su(1)
    with pytest.raises(ValueError):
        LieAlgebra.so(4)
    with pytest.raises(ValueError):
        LieAlgebra.so(3)
    with pytest.raises(ValueError):
        LieAlgebra.sp(3)
    with pytest.raises(ValueError):
        LieAlgebra.sp(2)
    assert LieAlgebra.su(3).name == "SU(3)"
    assert LieAlgebra.so(5).name == "SO(5)"
    assert LieAlgebra.so(10).name == "SO(10)"
    assert LieAlgebra.sp(4).name == "SP(4)"
    assert LieAlgebra("E6", 6).name == "E6"


def test_hw_validation():
    la = LieAlgebra("A", 2)
    with pytest.raises(ValueError):
        complete_descent(la, (1,))
    with pytest.raises(ValueError):
        freudenthal(la, (1, -1))
    with pytest.raises(ValueError):
        weyl_dim(la, (1, 1, 1))
    for labels in ((True, False), (1.0, 0), ("1", 0)):
        with pytest.raises(ValueError):
            freudenthal(la, labels)


_POOL = [
    LieAlgebra("A", 1),
    LieAlgebra("A", 2),
    LieAlgebra("A", 3),
    LieAlgebra("B", 2),
    LieAlgebra("C", 3),
    LieAlgebra("G2", 2),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_freudenthal_sum_and_levels(data):
    la = data.draw(st.sampled_from(_POOL))
    hw = tuple(data.draw(st.integers(min_value=0, max_value=2)) for _ in range(la.rank))
    recs = freudenthal(la, hw)
    assert sum(r.degeneracy for r in recs) == weyl_dim(la, hw)
    R = level_vector(la)
    assert recs[-1].level == sum(r * h for r, h in zip(R, hw))
    assert recs[0].dynkin == hw and recs[0].degeneracy == 1


# the nine families at small ranks, where irreps of dimension <= 2000 abound
ORACLE_ALGEBRAS = (
    [LieAlgebra("A", n) for n in (1, 2, 3, 5)]
    + [LieAlgebra("B", n) for n in (2, 3, 4)]
    + [LieAlgebra("C", n) for n in (2, 3, 4)]
    + [LieAlgebra("D", n) for n in (3, 4, 5)]
    + EXCEPTIONAL
)


@lru_cache(maxsize=None)
def _irreps_up_to(la, max_dim):
    """Every highest weight of dimension <= max_dim.  The Weyl dimension
    grows with each label, so the set is grown from 0 one label at a time."""
    zero = (0,) * la.rank
    found = {zero}
    todo = [zero]
    while todo:
        hw = todo.pop()
        for i in range(la.rank):
            up = hw[:i] + (hw[i] + 1,) + hw[i + 1:]
            if up not in found and weyl_dim(la, up) <= max_dim:
                found.add(up)
                todo.append(up)
    return sorted(found)


def oracle_weight_set(la, hw):
    """{(dynkin, descent)} of all weights, with no string walk.

    A dominant mu is a weight iff hw - mu is a non-negative integer
    combination of the simple roots, i.e. q = (hw - mu).A^-1 is; every
    weight is a Weyl image of a dominant one.  The dominant mu are searched
    in the box that (mu, mu) <= (hw, hw) gives, since the Gram matrix of
    the fundamental weights, (w_i, w_j) ~ (A^-1)_ji |a_i|^2, is positive.
    """
    A = cartan(la)
    n = la.rank
    inv = oracle_inverse([list(r) for r in A])
    den = 1
    for row in inv:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    inv = [[int(x * den) for x in row] for row in inv]
    r2 = root_weights(la)
    gram = [[inv[j][i] * r2[i] for j in range(n)] for i in range(n)]

    def norm(mu):
        return sum(mu[i] * gram[i][j] * mu[j] for i in range(n) for j in range(n))

    def descent(mu):
        d = [h - m for h, m in zip(hw, mu)]
        q = []
        for j in range(n):
            x, rem = divmod(sum(d[i] * inv[i][j] for i in range(n)), den)
            if rem or x < 0:
                return None
            q.append(x)
        return tuple(q)

    bound = norm(hw)
    box = []
    for i in range(n):
        m = 0
        while (m + 1) ** 2 * gram[i][i] <= bound:
            m += 1
        box.append(range(m + 1))
    weights = {mu for mu in product(*box) if descent(mu) is not None}
    todo = list(weights)
    while todo:
        mu = todo.pop()
        for i in range(n):
            if mu[i]:
                nu = tuple(x - mu[i] * a for x, a in zip(mu, A[i]))
                if nu not in weights:
                    weights.add(nu)
                    todo.append(nu)
    return {(mu, descent(mu)) for mu in weights}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_descent_matches_weight_set_oracle(data):
    la = data.draw(st.sampled_from(ORACLE_ALGEBRAS))
    hw = data.draw(st.sampled_from(_irreps_up_to(la, 2000)))
    recs = complete_descent(la, hw)
    want = oracle_weight_set(la, hw)
    assert {(r.dynkin, r.descent) for r in recs} == want
    assert [(r.level, r.descent) for r in recs] == sorted(
        (sum(q), q) for _, q in want
    )


def test_weight_set_oracle_counts():
    # weights, not states: the 27 of SU(3) has 19, the 248 of E8 241
    assert len(oracle_weight_set(LieAlgebra("A", 2), (2, 2))) == 19
    assert len(oracle_weight_set(LieAlgebra("E8", 8), adjoint_hw(LieAlgebra("E8", 8)))) == 241
    assert len(oracle_weight_set(LieAlgebra("G2", 2), (1, 0))) == 7


def test_highest_root_heights():
    assert highest_root(LieAlgebra("G2", 2)) == (3, 2)
    assert highest_root(LieAlgebra("F4", 4)) == (2, 4, 3, 2)
    assert sum(highest_root(LieAlgebra("E8", 8))) == 29
