"""Oracle for the irrep builder: the two hand-derived builders it replaced.

`_build_nondeg` (multiplicity-free irreps, su(2) string recursion) and
`_build_adjoint` (root vectors plus the zero-weight block of Cartan-matrix
scalar products) are kept here as they were, sharing no code with the
Shapovalov-form builder of `liecg.irrep`.  Every irrep they accept must come
out of `new_generic_irrep` with byte-identical `liecg-irrep-v1` JSON.
"""

from fractions import Fraction
from itertools import product

import pytest

from liecg.exactnum import ONE, FieldElem, field, field_sqrt
from liecg.irrep import ImportedIrrepData, Ket, new_generic_irrep
from liecg.linalg import LabeledVector
from liecg.liealg import (
    ConsistencyError,
    LieAlgebra,
    adjoint_hw,
    cartan,
    freudenthal,
    weyl_dim,
)


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _assign_labels(records):
    # label -> Ket in listing order; records come level/descent sorted
    kets = {}
    lab = 1
    for rec in records:
        for d in range(1, rec.degeneracy + 1):
            kets[lab] = Ket(rec.dynkin, d)
            lab += 1
    return kets


def _build_nondeg(la, records):
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
    return _data(la, kets, lowering, {})


def _build_adjoint(la, records):
    from liecg.liealg import positive_roots

    A = cartan(la)
    n = la.rank
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
    return _data(la, kets, lowering, scp)


def _data(la, kets, lowering, scp):
    return ImportedIrrepData(
        la, kets, {k: tuple(v.terms) for k, v in lowering.items()}, scp
    )


def scp_zero_weights(la: LieAlgebra, a: int, b: int) -> FieldElem:
    """Scalar product of the adjoint zero-weight states |0_a> and |0_b>."""
    if not (1 <= a <= la.rank and 1 <= b <= la.rank):
        raise ValueError(f"zero-state indices must lie in 1..{la.rank}")
    if a == b:
        return ONE
    A = cartan(la)
    return field_sqrt(field(Fraction(A[a - 1][b - 1] * A[b - 1][a - 1], 4)))


def old_generic_irrep(la, hw):
    """The old builders' tables, or None where they refused the irrep."""
    records = freudenthal(la, hw)
    if tuple(hw) == adjoint_hw(la):
        return _build_adjoint(la, records)
    if all(r.degeneracy == 1 for r in records):
        return _build_nondeg(la, records)
    return None


# each label below 4 at rank <= 2, below 3 at rank <= 4, below 2 above
ALGEBRAS = [LieAlgebra("A", n) for n in range(1, 6)] + [
    LieAlgebra("B", 2), LieAlgebra("B", 3), LieAlgebra("B", 4),
    LieAlgebra("C", 2), LieAlgebra("C", 3), LieAlgebra("C", 4),
    LieAlgebra("D", 4), LieAlgebra("D", 5), LieAlgebra("G2", 2),
    LieAlgebra("F4", 4), LieAlgebra("E6", 6), LieAlgebra("E7", 7),
    LieAlgebra("E8", 8),
]
MAX_DIM = 3000


def _label_box(la):
    top = 4 if la.rank <= 2 else 3 if la.rank <= 4 else 2
    for hw in product(range(top), repeat=la.rank):
        if weyl_dim(la, hw) > MAX_DIM:
            continue
        if hw == adjoint_hw(la) or all(
            rec.degeneracy == 1 for rec in freudenthal(la, hw)
        ):
            yield hw


CASES = [(la, hw) for la in ALGEBRAS for hw in _label_box(la)]
E8 = LieAlgebra("E8", 8)
if (E8, adjoint_hw(E8)) not in CASES:
    CASES.append((E8, adjoint_hw(E8)))


def test_case_count():
    # 15 trivial irreps and 66 others, the E8 adjoint among them
    assert len(CASES) == 81


@pytest.mark.parametrize(
    "la,hw", CASES, ids=[f"{la.name}-{''.join(map(str, hw))}" for la, hw in CASES]
)
def test_builder_matches_old_builders(la, hw):
    old = old_generic_irrep(la, hw)
    new = new_generic_irrep(la, hw)
    assert ImportedIrrepData.from_irrep(new).to_json() == old.to_json()
