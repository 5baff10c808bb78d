import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liecg.exactnum import ONE, ZERO, field, number
from liecg.linalg import (
    LabeledVector,
    SingularMatrixError,
    _Reducer,
    gram_orthogonalize,
    invert_matrix,
    label_key,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fraction_oracle import FractionReducer  # noqa: E402


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


# ---------------------------------------------------------------- inverse

def cramer2(a, b, c, d, e, f):
    # oracle for [[a,b],[c,d]] x = [e,f]
    det = a * d - b * c
    return ((e * d - b * f) / det, (a * f - e * c) / det)


def mat_vec(m, v):
    out = []
    for row in m:
        acc = ZERO
        for mij, vj in zip(row, v):
            acc = acc + mij * vj
        out.append(acc)
    return out


def mat_mul(a, b):
    cols = [mat_vec(a, [row[j] for row in b]) for j in range(len(b[0]))]
    return [list(row) for row in zip(*cols)]


def test_solve_2x2_against_cramer():
    a, b, c, d, e, f = 2, 3, 1, -4, 7, 2
    x = mat_vec(invert_matrix(F([[a, b], [c, d]])), Fv([e, f]))
    ex = cramer2(*map(Fraction, (a, b, c, d, e, f)))
    assert x == Fv(ex)


def test_solve_3x3_radical_entries():
    m = [
        [number(1, 1, 2), field(1), ZERO],
        [field(1), number(1, 1, 3), field(1)],
        [ZERO, field(2), number(1, 1, 2)],
    ]
    b = [field(1), ZERO, field(3)]
    x = mat_vec(invert_matrix(m), b)
    assert mat_vec(m, x) == b


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

def fraction_rank(rows):
    # oracle: plain elimination over Fractions
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


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
           st.lists(st.integers(-3, 3), min_size=n, max_size=n),
           min_size=n, max_size=n)),
       st.sampled_from([1, 2, 3]))
def test_invert_matrix_inverse_or_singular_by_rank(m, radicand):
    # an integer matrix times sqrt(radicand): the inverse exactly when the
    # rank over Q is full, SingularMatrixError otherwise
    n = len(m)
    s = number(1, 1, radicand)
    fm = [[field(x) * s for x in row] for row in m]
    if fraction_rank(m) < n:
        with pytest.raises(SingularMatrixError):
            invert_matrix(fm)
        return
    inv = invert_matrix(fm)
    ident = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    assert mat_mul(fm, inv) == ident
    assert mat_mul(inv, fm) == ident


# ------------------------------------------------- integer-tracked reducer

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _rational(q):
    return q.numerator if q.denominator == 1 else q


@given(st.data())
def test_integer_tracked_reducer_matches_fraction_oracle(data):
    # random rational vectors, some of them exact combinations of earlier
    # ones: verdicts, stored rows and coordinates agree with the
    # Fraction-tracked elimination, and every relation is exact
    n = data.draw(st.integers(1, 5))
    got_red, want_red = _Reducer(track=True), FractionReducer(track=True)
    vecs, kept = [], []
    for _ in range(data.draw(st.integers(1, 9))):
        if vecs and data.draw(st.booleans()):
            vec = {}
            for v in vecs:
                c = data.draw(fracs)
                for lab, x in v.items():
                    vec[lab] = vec.get(lab, 0) + c * x
        else:
            vec = {lab: data.draw(fracs) for lab in range(n)}
        vec = {lab: _rational(Fraction(x)) for lab, x in vec.items() if x}
        if not vec:
            continue
        vecs.append(vec)
        got, want = got_red.add(vec), want_red.add(vec)
        assert (got is None) == (want is None)
        assert got_red.rows == want_red.rows
        if got is None:
            kept.append(vec)
        else:
            assert got == want
            recon = {}
            for k, c in got.items():
                for lab, x in kept[k].items():
                    recon[lab] = recon.get(lab, 0) + c * x
            assert {lab: x for lab, x in recon.items() if x} == vec
    for (_, row), (s, comb), want in zip(got_red.rows, got_red.combs,
                                         want_red.combs):
        assert type(s) is int and s > 0
        assert all(type(b) is int for b in comb.values())
        assert {k: Fraction(b, s) for k, b in comb.items()} == want
        acc = {}
        for k, b in comb.items():
            for lab, x in kept[k].items():
                acc[lab] = acc.get(lab, 0) + b * x
        assert {lab: x for lab, x in acc.items() if x} == {
            lab: s * x for lab, x in row.items()}
    # the null vector is a positive multiple of the oracle's, in ints
    got, want = got_red.null_vector(range(n)), want_red.null_vector(range(n))
    assert (got is None) == (want is None)
    if got is not None:
        assert got.keys() == want.keys()
        assert all(type(c) is int for c in got.values())
        c = Fraction(got[min(got)]) / want[min(want)]
        assert c > 0 and all(got[k] == c * x for k, x in want.items())
