from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liecg.exactnum import ONE, ZERO, field, number
from liecg.linalg import (
    LabeledVector,
    NoSolutionError,
    SingularMatrixError,
    gauss,
    gram_orthogonalize,
    invert_matrix,
    label_key,
    solve,
)


def F(m):
    return [[field(x) for x in row] for row in m]


def Fv(v):
    return [field(x) for x in v]


# ---------------------------------------------------------------- vectors

def test_labeled_vector_merge_and_order():
    v = LabeledVector([(field(1), 3), (field(2), 1), (field(-1), 3)])
    assert v.terms == [(field(2), 1)]  # the label-3 terms cancel
    w = v + LabeledVector([(field(-2), 1), (field(5), 3)])
    assert w.labels() == [3]
    assert (v - v).is_zero()
    assert v.get(99).is_zero()


def test_labeled_vector_pair_and_tree_labels():
    v = LabeledVector([(ONE, (2, 1)), (ONE, (1, 2)), (ONE, 5)])
    assert v.labels() == [5, (1, 2), (2, 1)]
    t = LabeledVector([(ONE, ((1, 2), 3)), (ONE, (1, (2, 3)))])
    assert len(t.labels()) == 2
    assert label_key(((1, 2), 3)) != label_key((1, (2, 3)))


def test_map_labels_merges():
    v = LabeledVector([(field(1), 1), (field(2), 2)])
    w = v.map_labels(lambda l: 7)
    assert w.terms == [(field(3), 7)]


# ---------------------------------------------------------------- gauss/solve

def cramer2(a, b, c, d, e, f):
    # oracle for [[a,b],[c,d]] x = [e,f]
    det = a * d - b * c
    return ((e * d - b * f) / det, (a * f - e * c) / det)


def test_solve_2x2_against_cramer():
    a, b, c, d, e, f = 2, 3, 1, -4, 7, 2
    ech, rb = gauss(F([[a, b], [c, d]]), [[field(e)], [field(f)]])
    x = solve(ech, [r[0] for r in rb])
    ex = cramer2(*map(Fraction, (a, b, c, d, e, f)))
    assert x == Fv(ex)


def test_solve_3x3_radical_entries():
    m = [
        [number(1, 1, 2), field(1), ZERO],
        [field(1), number(1, 1, 3), field(1)],
        [ZERO, field(2), number(1, 1, 2)],
    ]
    rhs = [[field(1)], [ZERO], [field(3)]]
    ech, rb = gauss(m, rhs)
    x = solve(ech, [r[0] for r in rb])
    for row, b in zip(m, rhs):
        acc = ZERO
        for mij, xj in zip(row, x):
            acc = acc + mij * xj
        assert acc == b[0]


def test_solve_underdetermined_sets_free_vars_zero():
    # x + y = 1 with one equation: y free -> 0, x = 1
    ech, rb = gauss(F([[1, 1]]), [[field(1)]])
    x = solve(ech, [r[0] for r in rb])
    assert x == Fv([1, 0])


def test_solve_inconsistent_raises():
    ech, rb = gauss(F([[1, 1], [2, 2]]), [[field(1)], [field(3)]])
    with pytest.raises(NoSolutionError):
        solve(ech, [r[0] for r in rb])


def test_invert_matrix_roundtrip():
    m = [
        [field(2), field(-1), ZERO],
        [field(-1), field(2), field(-1)],
        [ZERO, field(-1), field(2)],
    ]
    inv = invert_matrix(m)
    n = len(m)
    for i in range(n):
        for j in range(n):
            acc = ZERO
            for k in range(n):
                acc = acc + m[i][k] * inv[k][j]
            assert acc == (ONE if i == j else ZERO)
    # A4 Cartan-style inverse has known entries: top-left is 3/4... use 2x2 known:
    inv2 = invert_matrix(F([[2, -1], [-1, 2]]))
    assert inv2 == F([[Fraction(2, 3), Fraction(1, 3)],
                      [Fraction(1, 3), Fraction(2, 3)]])


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert_matrix(F([[1, 2], [2, 4]]))


def test_gram_orthogonalize_cross_orthogonality():
    def dot(u, v):
        acc = ZERO
        for c, l in u.terms:
            acc = acc + c * v.get(l)
        return acc

    o1 = LabeledVector([(field(1), 1), (field(1), 2)])
    o2 = LabeledVector([(field(1), 1), (field(-1), 2)])
    r1 = LabeledVector([(field(3), 1), (field(1), 2), (field(2), 3)])
    r2 = LabeledVector([(number(1, 1, 2), 2), (field(1), 4)])
    out = gram_orthogonalize(dot, [o1, o2], [r1, r2])
    assert len(out) == 2
    for u in out:
        assert dot(o1, u).is_zero()
        assert dot(o2, u).is_zero()
    # projections only: the part outside span(o1,o2) is untouched
    assert out[0].get(3) == field(2)
    assert out[1].get(4) == field(1)


def test_gram_orthogonalize_radical_form():
    # bilinear form with sqrt entries (Gram of two unit states overlapping
    # by sqrt(3)/2, as in a rank-2 adjoint zero-weight block)
    g = {
        (1, 1): ONE, (2, 2): ONE,
        (1, 2): number(1, 2, 3), (2, 1): number(1, 2, 3),
    }

    def scp(u, v):
        acc = ZERO
        for cu, lu in u.terms:
            for cv, lv in v.terms:
                acc = acc + cu * cv * g[(lu, lv)]
        return acc

    o = LabeledVector([(ONE, 1)])
    (u,) = gram_orthogonalize(scp, [o], [LabeledVector([(ONE, 2)])])
    assert scp(o, u).is_zero()
    assert u.get(1) == number(-1, 2, 3)


# ---------------------------------------------------------------- property

@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.integers(-6, 6), min_size=3, max_size=3))
def test_solve_satisfies_system_when_solvable(m, b):
    fm = F(m)
    fb = [[field(x)] for x in b]
    ech, rb = gauss(fm, fb)
    try:
        x = solve(ech, [r[0] for r in rb])
    except NoSolutionError:
        # oracle: rank check over Fractions confirms inconsistency
        import itertools

        def rank(rows):
            rows = [list(map(Fraction, r)) for r in rows]
            rk, n = 0, len(rows[0])
            for col in range(n):
                piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
                if piv is None:
                    continue
                rows[rk], rows[piv] = rows[piv], rows[rk]
                for i in range(rk + 1, len(rows)):
                    if rows[i][col]:
                        f = rows[i][col] / rows[rk][col]
                        rows[i] = [a - f * p for a, p in zip(rows[i], rows[rk])]
                rk += 1
            return rk
        aug = [row + [bi] for row, bi in zip(m, b)]
        assert rank(aug) > rank(m)
        return
    for row, bi in zip(fm, fb):
        acc = ZERO
        for mij, xj in zip(row, x):
            acc = acc + mij * xj
        assert acc == bi[0]
