"""Oracle for the weight-system kernel: the tuple walk it replaced.

`_descent_cached` (each raising string walked again in Dynkin tuples for
every weight and simple root) and `_freudenthal_cached` (the same records
copied with their multiplicity by `dataclasses.replace`) are kept here as
they were, sharing no code with the packed-key kernel of `liecg.liealg`.
Both must give records identical to `complete_descent` and `freudenthal`,
on large irreps, on the smallest and largest descent fields, and on drawn
highest weights, whose weight systems have several dominant weights with
different stabilisers.
"""

from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecg.liealg import (
    ConsistencyError,
    LieAlgebra,
    WeightRecord,
    _lowest_root_coeffs,
    adjoint_hw,
    cartan,
    complete_descent,
    freudenthal,
    positive_roots,
    root_weights,
    weyl_dim,
)


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


# the nine families at the ranks the other liealg tests use
ALGEBRAS = [LieAlgebra("A", n) for n in (1, 2, 3, 4, 7)]
ALGEBRAS += [LieAlgebra("B", n) for n in (2, 3, 4, 6)]
ALGEBRAS += [LieAlgebra("C", n) for n in (2, 3, 4, 5)]
ALGEBRAS += [LieAlgebra("D", n) for n in (3, 4, 5, 8)]
ALGEBRAS += [LieAlgebra(f, r) for f, r in
             (("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2))]

# keeps E7 365750 and E8 147250; the next E8 fundamental is 2450240
MAX_DIM = 400_000


def _fundamentals_and_adjoint(la):
    n = la.rank
    hws = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    hws.add(adjoint_hw(la))
    return [(la, hw) for hw in sorted(hws) if weyl_dim(la, hw) <= MAX_DIM]


E8 = LieAlgebra("E8", 8)
CASES = [case for la in ALGEBRAS for case in _fundamentals_and_adjoint(la)]
CASES += [
    # the three E8 anchors of the weight listings
    (E8, (1, 0, 0, 0, 0, 0, 0, 0)),
    (E8, (0, 0, 0, 0, 0, 0, 2, 0)),
    (E8, (0, 0, 0, 0, 0, 1, 0, 0)),
    # the smallest descent fields
    (LieAlgebra("A", 1), (1,)),
    (LieAlgebra("B", 2), (1, 0)),
    (LieAlgebra("G2", 2), (1, 0)),
    # large labels, hence wide fields
    (LieAlgebra("A", 1), (300,)),
    (LieAlgebra("G2", 2), (9, 9)),
    (LieAlgebra("B", 2), (0, 17)),
    (LieAlgebra("C", 3), (7, 0, 5)),
]
CASES = list(dict.fromkeys(CASES))  # 3875 and 30380 are fundamentals too


def _id(case):
    la, hw = case
    return la.name + "-" + "".join(map(str, hw))


@pytest.mark.parametrize("la,hw", CASES, ids=[_id(c) for c in CASES])
def test_kernel_matches_tuple_walk(la, hw):
    old = _freudenthal_cached(la, hw)
    assert freudenthal(la, hw) == list(old)
    assert complete_descent(la, hw) == list(_descent_cached(la, hw))
    assert sum(r.degeneracy for r in old) == weyl_dim(la, hw)


# drawn irreps stay small enough for the tuple walk
MAX_DRAWN_DIM = 20_000


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_matches_tuple_walk_on_drawn_irreps(data):
    la = data.draw(st.sampled_from(ALGEBRAS), label="algebra")
    # raise one label at a time, skipping a raise past the dimension bound
    nodes = data.draw(st.lists(st.integers(0, la.rank - 1), max_size=8),
                      label="raised labels")
    hw = [0] * la.rank
    for i in nodes:
        hw[i] += 1
        if weyl_dim(la, hw) > MAX_DRAWN_DIM:
            hw[i] -= 1
    hw = tuple(hw)
    assert freudenthal(la, hw) == list(_freudenthal_cached(la, hw))
    assert complete_descent(la, hw) == list(_descent_cached(la, hw))
